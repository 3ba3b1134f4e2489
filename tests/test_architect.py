"""Architect: plan compilation, injection wiring, re-parameterization."""

import re
import tracemalloc

import numpy as np
import pytest

from helpers import EXAMPLES
from zjkit import data as data_mod
from zjkit import models as models_mod
from zjkit import tensor as T
from zjkit import tuner as tuner_mod
from zjkit.architect import (
    METHODS,
    apply_plan,
    compile_plan,
    full_plan,
    merge_reparam,
    plan_table,
)
from zjkit.checkpoint import to_params
from zjkit.dsl import parse_config, serialize
from zjkit.errors import ConfigError, NonFiniteValue
from zjkit.models import (
    SPECS,
    MiniVitSpec,
    MlpSpec,
    build_model,
    forward,
)
from zjkit.tensor import Tensor
from zjkit.tuner import LossSpec, RegSpec, TrainConfig, _set_leaves, cross_entropy, train

VIT = MiniVitSpec(dim=16, blocks=2, heads=4, mlp_dim=32, classes=3,
                  seq_len=4, input_dim=8)
MLP = MlpSpec((4, 8, 3))


def _adapt(spec, text, seed=0):
    plan = compile_plan(parse_config(text), spec)
    params = build_model(spec, seed=seed)
    return apply_plan(spec, params, plan, seed=seed + 1), plan, params


def _vit_x(n=4, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(n, 4, 8)))


# -- plan compilation ----------------------------------------------------


def test_lora_plan_shapes_and_counts():
    adapted, plan, _ = _adapt(VIT, "(LoRA.adapt):->(blocks[0:2].attn.qkv){inout}")
    assert len(plan.injections) == 2
    for inj, i in zip(plan.injections, range(2)):
        assert inj.site == f"blocks[{i}].attn.qkv"
        assert dict(inj.params)[f"lora[{i}].a"] == (4, 16)
        assert dict(inj.params)[f"lora[{i}].b"] == (48, 4)
    # head stays trainable, rest of the originals frozen
    assert plan.trainable_original == {"head.weight", "head.bias"}
    assert [p for p, _ in adapted.trainable()] == sorted(
        {"head.weight", "head.bias", *(f"lora[{i}].{leaf}" for i in range(2) for leaf in "ab")})


def test_linear_probe_freezes_backbone():
    _, plan, _ = _adapt(MLP, "(LinearProbe.adapt):")
    assert plan.trainable_original == {"layers[1].weight", "layers[1].bias"}
    assert plan.injections == []


def test_partial_k_unfreezes_last_blocks():
    _, plan, _ = _adapt(VIT, "(PartialK.adapt|k=1):")
    assert "blocks[1].attn.qkv.weight" in plan.trainable_original
    assert "blocks[0].attn.qkv.weight" not in plan.trainable_original
    assert "norm.gamma" in plan.trainable_original


def test_bitfit_vit_query_rows_masked():
    _, plan, _ = _adapt(VIT, "(BitFit.adapt):")
    mask = plan.grad_masks["blocks[0].attn.qkv.bias"]
    assert mask.shape == (48,)
    assert (mask[:16] == 1).all() and (mask[16:] == 0).all()
    assert "blocks[0].mlp.fc1.bias" in plan.trainable_original


@pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
def test_bitfit_weight_decay_leaves_key_and_value_bias_rows(optimizer):
    spec = MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=16, classes=2, seq_len=2,
                       input_dim=2)
    params = build_model(spec, seed=0)
    rng = np.random.default_rng(1)
    for i in range(2):
        params.set(f"blocks[{i}].attn.qkv.bias", Tensor(rng.normal(size=24)))
    model = apply_plan(spec, params, compile_plan(parse_config("(BitFit.adapt):"), spec))
    ds = data_mod.token_xor(n=64, seq=2, d=2, sigma=0.1, seed=0)
    ckpt, _ = train(model, None, ds, LossSpec(), RegSpec(),
                    TrainConfig(optimizer=optimizer, lr=0.1, weight_decay=0.1, epochs=2,
                                batch_size=16))
    for i in range(2):
        before = params.get(f"blocks[{i}].attn.qkv.bias").data
        after = ckpt.entries[f"blocks[{i}].attn.qkv.bias"]
        assert np.array_equal(after[8:], before[8:].astype(np.float32))  # key, value rows
        assert not np.allclose(after[:8], before[:8])  # query rows train


def test_no_matching_site():
    with pytest.raises(ConfigError, match=r"pattern 'blocks\[7\]\.attn\.qkv' matched nothing"):
        compile_plan(parse_config("(LoRA.adapt):->(blocks[7].attn.qkv){in}"), VIT)


def test_count_past_the_index_range_is_a_config_error():
    # r=2**62 fits an index alone, but the [r, 16] factor does not
    with pytest.raises(ConfigError, match=r"lora\[0\]\.a of shape \(4611686018427387904, 16\)"):
        compile_plan(parse_config(f"(LoRA.adapt|r={2**62}):->(blocks[0].attn.qkv){{in}}"), VIT)
    plan = compile_plan(parse_config("(LoRA.adapt|r=4):->(blocks[0].attn.qkv){in}"), VIT)
    assert [s for _, s in plan.injections[0].params] == [(4, 16), (48, 4)]


def test_lora_on_bias_is_incompatible():
    with pytest.raises(ConfigError,
                       match=r"lora needs a weight matrix, got 'blocks\[0\]\.attn\.qkv\.bias'"):
        compile_plan(
            parse_config("(LoRA.adapt):->(blocks[0].attn.qkv.bias){in}"), VIT)


def test_prefix_requires_vit():
    with pytest.raises(ConfigError, match="prefix has no site in a mlp model"):
        compile_plan(parse_config("(Prefix.adapt):->(layers[0]){in}"), MLP)


@pytest.mark.parametrize("text, site", [
    ("(Prefix.adapt):->(blocks[0]){inout}->(blocks[0]){inout}", "blocks[0]"),
    ("(Prefix.adapt):->(blocks[*]){in}->(blocks[1]){in}", "blocks[1]"),
    ("(Prefix.adapt):->(blocks[1]){in0}->(blocks[1]){in0}", "blocks[1]"),
])
def test_second_prefix_at_one_block_is_a_config_error(text, site):
    # a block's attention takes one prefix; a second would never train
    with pytest.raises(ConfigError, match=f"prefix twice at '{re.escape(site)}'"):
        compile_plan(parse_config(text), VIT)


def test_shared_instance_shape_check():
    # qkv is [48,16], proj is [16,16]: sharing one SSF instance must fail
    with pytest.raises(ConfigError, match="shared instance 0 used at sites with different shapes"):
        compile_plan(parse_config(
            "(SSF.adapt):->(blocks[0].attn.qkv){out0}"
            "->(blocks[0].attn.proj){out0}"), VIT)


def test_plan_against_wrong_spec():
    plan = compile_plan(parse_config("(LinearProbe.adapt):"), MLP)
    other = MlpSpec((4, 9, 3))
    with pytest.raises(ConfigError, match="plan was compiled against a different model spec"):
        apply_plan(other, build_model(other), plan)


def test_freeze_covers_all_original_paths():
    for text in ("(LoRA.adapt):->(blocks[*].attn.qkv){inout}",
                 "(Adapter.adapt):->(blocks[*]){in}",
                 "(Prefix.adapt):->(blocks[0]){in}",
                 "(BitFit.adapt):", "(LinearProbe.adapt):",
                 "(PartialK.adapt|k=1):"):
        plan = compile_plan(parse_config(text), VIT)
        allp = set(VIT.param_shapes())
        frozen = allp - plan.trainable_original
        assert frozen | plan.trainable_original == allp
        assert not frozen & plan.trainable_original
        assert not set(plan.new_shapes()) & allp


# -- identity at init ----------------------------------------------------


def test_lora_identity_at_init():
    adapted, _, params = _adapt(VIT, "(LoRA.adapt):->(blocks[*].attn.qkv){inout}")
    x = _vit_x()
    base, _ = forward(VIT, params, x)
    got, _ = adapted.forward(x)
    assert np.array_equal(base.data, got.data)  # B is zero-initialized


def test_ssf_identity_at_init():
    adapted, _, params = _adapt(VIT, "(SSF.adapt):->(blocks[*].attn.proj){out}")
    x = _vit_x(seed=1)
    base, _ = forward(VIT, params, x)
    got, _ = adapted.forward(x)
    assert np.array_equal(base.data, got.data)  # gamma=1, beta=0


def test_adapter_identity_at_init():
    adapted, _, params = _adapt(VIT, "(Adapter.adapt|dim=4):->(blocks[*]){in}")
    x = _vit_x(seed=2)
    base, _ = forward(VIT, params, x)
    got, _ = adapted.forward(x)
    assert np.array_equal(base.data, got.data)  # up projection zero-initialized


def test_prefix_changes_attention_but_runs():
    adapted, plan, _ = _adapt(VIT, "(Prefix.adapt|tokens=2):->(blocks[*]){in}")
    logits, _ = adapted.forward(_vit_x())
    assert logits.shape == (4, 3)
    assert dict(plan.injections[0].params)["prefix[0].key"] == (2, 16)


# -- merge_reparam -------------------------------------------------------


def _perturb_extras(adapted, seed=7):
    rng = np.random.default_rng(seed)
    for p, shape in sorted(adapted.plan.new_shapes().items()):
        adapted.params.set(p, Tensor(rng.normal(0, 0.05, size=shape), requires_grad=True))


def test_lora_merge_matches_adapted_forward():
    adapted, _, _ = _adapt(VIT, "(LoRA.adapt|r=2,alpha=8):->(blocks[*].attn.qkv){inout}")
    _perturb_extras(adapted)
    merged = merge_reparam(adapted)
    mparams = to_params(VIT, merged)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = Tensor(rng.normal(size=(8, 4, 8)))
        want, _ = adapted.forward(x)
        got, _ = forward(VIT, mparams, x)
        assert np.abs(want.data - got.data).max() < 1e-6


def test_ssf_merge_closed_form():
    adapted, _, _ = _adapt(MLP, "(SSF.adapt):->(layers[0]){out}")
    w0 = adapted.params.get("layers[0].weight").data.copy()
    b0 = adapted.params.get("layers[0].bias").data.copy()
    adapted.params.set("ssf[0].gamma", Tensor(np.full(8, 2.0), requires_grad=True))
    adapted.params.set("ssf[0].beta", Tensor(np.full(8, 1.0), requires_grad=True))
    merged = merge_reparam(adapted)
    assert np.allclose(merged.entries["layers[0].weight"], 2.0 * w0, atol=1e-6)
    assert np.allclose(merged.entries["layers[0].bias"], 2.0 * b0 + 1.0, atol=1e-6)


def test_ssf_merge_matches_adapted_forward():
    adapted, _, _ = _adapt(MLP, "(SSF.adapt):->(layers[0]){out}")
    _perturb_extras(adapted, seed=11)
    # make the affine nontrivial around identity
    g = adapted.params.get("ssf[0].gamma").data + 1.0
    adapted.params.set("ssf[0].gamma", Tensor(g, requires_grad=True))
    merged = to_params(MLP, merge_reparam(adapted))
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(16, 4)))
    want, _ = adapted.forward(x)
    got, _ = forward(MLP, merged, x)
    assert np.abs(want.data - got.data).max() < 1e-6


def test_adapter_not_mergeable():
    adapted, _, _ = _adapt(VIT, "(Adapter.adapt):->(blocks[0]){in}")
    with pytest.raises(ConfigError, match=r"injections of kind \['adapter'\] cannot be merged"):
        merge_reparam(adapted)
    prefixed, _, _ = _adapt(VIT, "(Prefix.adapt):->(blocks[0]){in}")
    with pytest.raises(ConfigError, match=r"injections of kind \['prefix'\] cannot be merged"):
        merge_reparam(prefixed)


# -- trainable bookkeeping ----------------------------------------------


def test_trainable_pairs():
    adapted, plan, params = _adapt(VIT, "(LoRA.adapt):->(blocks[0].attn.qkv){inout}")
    paths = {p for p, _ in adapted.trainable()}
    assert paths == {"head.weight", "head.bias", "lora[0].a", "lora[0].b"}
    for p in set(VIT.param_shapes()) - plan.trainable_original:
        assert not adapted.params.get(p).requires_grad
    assert all(t.requires_grad for _, t in params.items())  # input store untouched


def test_backward_reaches_only_trainable_leaves():
    spec = MiniVitSpec(dim=16, blocks=4, heads=4, mlp_dim=32, classes=3,
                       seq_len=4, input_dim=8)
    adapted, _, _ = _adapt(spec, "(LoRA.adapt):->(blocks[*].attn.qkv){inout}")
    _set_leaves(adapted, True)  # as train does for an epoch
    logits, _ = adapted.forward(_vit_x())
    gmap = T.backward(cross_entropy(logits, np.array([0, 1, 2, 0])))
    trainable = {t.uid for _, t in adapted.trainable()}
    assert len(trainable) == 10  # four LoRA pairs plus the head
    assert set(gmap) == trainable


def test_one_lora_site_records_one_node():
    """A site's low-rank update is one node on the affine output, its input
    and the two factors, equal to LoRA's fold of the factors into the weight."""
    spec = MlpSpec((4, 8, 8, 3))
    adapted, _, _ = _adapt(spec, "(LoRA.adapt|r=2,alpha=3):->(layers[1]){inout}")
    _set_leaves(adapted, True)
    a = adapted.params.get("lora[0].a")
    b = Tensor(np.arange(16.0).reshape(8, 2) / 16, requires_grad=True)  # b starts at zero
    adapted.params.set("lora[0].b", b)
    x = Tensor(np.random.default_rng(3).normal(size=(5, 8)), requires_grad=True)
    y = T.affine(x, adapted.params.get("layers[1].weight"), adapted.params.get("layers[1].bias"))
    out = adapted.route("linear_out", "layers[1]", y, x)
    assert out._node[2] == (y._node, x._node, a._node, b._node)
    folded = y.data + x.data @ (1.5 * (b.data @ a.data)).T
    np.testing.assert_allclose(out.data, folded, rtol=1e-12, atol=1e-12)


BENCH_VIT = MiniVitSpec(dim=32, blocks=4, heads=4, mlp_dim=64, classes=4, seq_len=8,
                        input_dim=8)
BENCH_PLANS = {  # the bench's three vit_peft_train plans
    "lora": "(LoRA.adapt|r=4,alpha=8):->(blocks[*].attn.qkv){inout}->(blocks[*].mlp.fc1){inout}",
    "adapter": "(Adapter.adapt|dim=8):->(blocks[*]){in}",
    "prefix": "(Prefix.adapt|tokens=4):->(blocks[*]){in}",
}


def _vit_forward_peak(adapted):
    """The tracemalloc peak, in MiB, of a 384-row forward of the bench's
    mini-ViT, and the logits."""
    x = Tensor(np.random.default_rng(0).normal(size=(384, 8, 8)))
    tracemalloc.start()
    try:
        logits = adapted.forward(x)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, logits


def _taped_vit_peak(config):
    """The peak of a taped forward under ``config``: the leaves are made as
    ``train`` makes them for an epoch."""
    adapted, _, _ = _adapt(BENCH_VIT, config)
    _set_leaves(adapted, True)
    peak, logits = _vit_forward_peak(adapted)
    assert logits._node
    return peak


def test_a_taped_lora_forward_keeps_only_what_its_derivatives_read():
    """The bench's LoRA mini-ViT forwards 384 rows on the tape under 36 MiB:
    93.1 MiB when each node kept its operands, 52.4 MiB with nodes that
    keep only the arrays their derivatives read, 45.6 MiB once ``gelu``
    keeps its input alone and the final norm runs on the cls row only (43.1
    MiB later), and 33.9 MiB once each LoRA site reads its norm's output
    through the norm's recompute, ``gelu`` writes its output into its
    ``tanh`` buffer and each block drops ``qkv`` when attention returns."""
    peak = _taped_vit_peak(BENCH_PLANS["lora"])
    assert peak < 36, peak


@pytest.mark.parametrize("config, bound", [
    (BENCH_PLANS["adapter"], 33),  # 43.1, 37.4, 33.6 MiB before; 31.1 now
    (BENCH_PLANS["prefix"], 36),  # 51.1, 44.4, 40.1 MiB before; 33.8 now
], ids=["adapter", "prefix"])
def test_a_taped_adapter_or_prefix_forward_keeps_only_what_its_derivatives_read(config, bound):
    """As the LoRA bound above. The sizes before are, in turn: ``gelu``
    keeping ``x`` and ``tanh(u)`` and the final norm running on every token;
    the cls-row norm; and attention keeping the prefix rows once per sample,
    ``gelu`` holding two buffers and each block keeping ``qkv`` to its end."""
    peak = _taped_vit_peak(config)
    assert peak < bound, peak


SSF_PLAN = "(SSF.adapt):->(blocks[*].attn.qkv){out}->(blocks[*].mlp.fc1){out}"


@pytest.mark.parametrize("config, bound", [
    (BENCH_PLANS["adapter"], 7.2),  # 7.60 when the up bias was copied to [n, s, d]
    (BENCH_PLANS["lora"], 8.5),
    (BENCH_PLANS["prefix"], 8.5),
    (SSF_PLAN, 10),  # 11.8 when gamma and beta were copied to [n, s, d]
], ids=["adapter", "lora", "prefix", "ssf"])
def test_a_trained_model_forwards_the_bench_eval_untaped(config, bound):
    """``train`` leaves the model frozen, so the bench's 384-row eval forward
    records no node and peaks under its bound: 6.8 MiB for Adapter and
    Prefix, 6.9 for LoRA and 9.3 for SSF, as attention works in sample
    blocks and no broadcast operand is copied to the batch's shape. Taped,
    Adapter, LoRA and Prefix peaked at 31.1, 33.9 and 33.8 MiB; untaped with
    full-batch attention temporaries, at 8.5, 8.5 and 11.4 MiB."""
    adapted, _, _ = _adapt(BENCH_VIT, config)
    ds = data_mod.blobs(k=4, d=64, n=64, seed=0)
    ds.x = ds.x.reshape(64, 8, 8)
    train(adapted, None, ds, LossSpec(), RegSpec(), TrainConfig(lr=0.02, epochs=1, batch_size=16))
    peak, logits = _vit_forward_peak(adapted)
    assert logits._node is None
    assert peak < bound, peak


def test_a_taped_ssf_epoch_keeps_no_copy_of_gamma_or_beta():
    """One SSF epoch over 200 rows at batch 64 peaks at 9.2 MiB: ``y * gamma``
    broadcasts ``gamma``, and its rule keeps the ``[d]`` vector. Expanding
    ``gamma`` and ``beta`` to ``[n, s, d]`` first peaked at 16.2 MiB."""
    adapted, _, _ = _adapt(BENCH_VIT, SSF_PLAN)
    ds = data_mod.blobs(k=4, d=64, n=200, seed=0)
    ds.x = ds.x.reshape(200, 8, 8)
    tracemalloc.start()
    try:
        train(adapted, None, ds, LossSpec(), RegSpec(),
              TrainConfig(lr=0.02, epochs=1, batch_size=64))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 11, peak


@pytest.mark.parametrize("spec", [MLP, VIT], ids=["mlp", "mini_vit"])
def test_predict_forwards_256_rows_at_a_time(spec):
    adapted, _, _ = _adapt(spec, "(LinearProbe.adapt):")
    rng = np.random.default_rng(0)
    x = (rng.normal(size=(600, 4)) if spec is MLP
         else rng.normal(size=(600, VIT.seq_len, VIT.input_dim)))
    rows, forward = [], adapted.forward
    adapted.forward = lambda xb, capture=(): rows.append(xb.shape[0]) or forward(xb, capture)
    logits = adapted.predict(x)
    assert rows == [256, 256, 88]
    whole = forward(Tensor(x))[0].data
    assert logits.shape == whole.shape
    np.testing.assert_allclose(logits, whole, rtol=1e-12, atol=1e-12)
    rows.clear()
    assert adapted.predict(x[:0]).shape == (0, 3) and rows == []


@pytest.mark.parametrize("spec", [MLP, VIT], ids=["mlp", "mini_vit"])
def test_predict_records_no_tape(spec, monkeypatch):
    adapted, _, _ = _adapt(spec, "(LoRA.adapt):->(layers[0]){inout}" if spec is MLP
                           else "(LoRA.adapt):->(blocks[*].attn.qkv){inout}")
    rng = np.random.default_rng(0)
    x = (rng.normal(size=(40, 4)) if spec is MLP
         else rng.normal(size=(40, VIT.seq_len, VIT.input_dim)))
    _set_leaves(adapted, True)
    taped = adapted.forward(Tensor(x))[0]
    assert taped._node  # the LoRA factors and the head train
    _set_leaves(adapted, False)
    outs, real = [], models_mod.forward

    def spy(*args):
        outs.append(real(*args))
        return outs[-1]

    monkeypatch.setattr(models_mod, "forward", spy)
    logits = adapted.predict(x)
    assert len(outs) == 1 and outs[0][0]._node is None
    assert logits.tobytes() == taped.data.tobytes()


def test_plan_table_mentions_counts():
    _, plan, _ = _adapt(VIT, "(LoRA.adapt):->(blocks[0].attn.qkv){inout}")
    table = plan_table(plan, VIT.param_shapes())
    assert "lora[0].a" in table
    # 4*16 + 48*4 = 256 new parameters
    assert "new trainable parameters: 256" in table


def test_shared_instance_single_param_set():
    adapted, plan, _ = _adapt(
        VIT, "(LoRA.adapt):->(blocks[0].attn.qkv){in0}->(blocks[1].attn.qkv){in0}")
    assert len(plan.injections) == 2
    assert [p for p in adapted.params.paths() if p not in VIT.param_shapes()] == [
        "lora[0].a", "lora[0].b"]


# -- the METHODS table ---------------------------------------------------

TABLE_FAMILIES = {
    "mlp": (MlpSpec((2, 8, 3)), lambda: data_mod.blobs(k=3, d=2, n=64, sigma=0.3)),
    "mini_vit": (MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=16, classes=2,
                             seq_len=2, input_dim=2),
                 lambda: data_mod.token_xor(n=64, seq=2, d=2, sigma=0.1)),
}


@pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
@pytest.mark.parametrize("key", sorted(METHODS))
def test_every_registered_method_adapts_trains_and_merges(key, family):
    method, (spec, make_data) = METHODS[key], TABLE_FAMILIES[family]
    sites = {} if method.hook_free else method.sites(spec, spec.param_shapes())
    # every site the record accepts; a family without one gets a stand-in
    hooks = "" if method.hook_free else \
        "".join(f"->({s}){{inout}}" for s in sorted(sites) or ["head"])
    adapt = parse_config(f"({method.name}.adapt):{hooks}")
    assert adapt.method == key
    assert parse_config(serialize(adapt)) == adapt
    if not method.hook_free and not sites:
        with pytest.raises(ConfigError, match=f"{key} has no site in a {spec.kind} model"):
            compile_plan(adapt, spec)
        return
    model = apply_plan(spec, build_model(spec, seed=0), compile_plan(adapt, spec), seed=1)
    ds = make_data()
    _, history = train(model, None, ds, LossSpec(), RegSpec(),
                       TrainConfig(lr=0.05, epochs=1, batch_size=16, seed=0))
    assert all(np.isfinite(v) for v in history[0].values())
    if method.fold is None and not method.hook_free:
        with pytest.raises(ConfigError, match=rf"injections of kind \['{key}'\] cannot be merged"):
            merge_reparam(model)
        return
    # a hook-free plan has no injection, so its merge is the trained base
    x = Tensor(ds.split("test")[0])
    want, _ = model.forward(x)
    got, _ = forward(spec, to_params(spec, merge_reparam(model)), x)
    assert np.abs(want.data - got.data).max() < 1e-5


@pytest.mark.parametrize("spec", [MLP, VIT], ids=["mlp", "mini_vit"])
def test_the_full_plan_trains_every_original_path_and_injects_nothing(spec):
    plan = full_plan(spec)
    assert plan.injections == [] and plan.grad_masks == {}
    assert plan.trainable_original == set(spec.param_shapes())
    model = apply_plan(spec, build_model(spec, seed=0), plan)
    assert [p for p, _ in model.trainable()] == sorted(spec.param_shapes())


def _frozen(model):
    return all(t._node is None for _, t in model.params.items())


def _sites(method, spec):
    return {} if method.hook_free else method.sites(spec, spec.param_shapes())


@pytest.mark.parametrize("key, family", [
    (k, f) for k in sorted(METHODS) for f, (spec, _) in sorted(TABLE_FAMILIES.items())
    if METHODS[k].hook_free or _sites(METHODS[k], spec)])
def test_an_adapted_model_records_no_tape_before_or_after_training(key, family):
    """Only ``train`` makes grad leaves, for the length of an epoch; the plan
    names what it trains: its original paths and every new parameter, by path."""
    method, (spec, make_data) = METHODS[key], TABLE_FAMILIES[family]
    hooks = "".join(f"->({s}){{inout}}" for s in sorted(_sites(method, spec)))
    plan = compile_plan(parse_config(f"({method.name}.adapt):{hooks}"), spec)
    model = apply_plan(spec, build_model(spec, seed=0), plan, seed=1)
    trained = sorted(plan.trainable_original | set(plan.new_shapes()))
    assert [p for p, _ in model.trainable()] == trained
    ds = make_data()
    x = Tensor(ds.split("test")[0])
    assert _frozen(model) and model.forward(x)[0]._node is None
    train(model, None, ds, LossSpec(), RegSpec(),
          TrainConfig(lr=0.05, epochs=1, batch_size=16, seed=0))
    assert _frozen(model) and model.forward(x)[0]._node is None
    assert [p for p, _ in model.trainable()] == trained


@pytest.mark.parametrize("key, family", [
    (k, f) for k in sorted(METHODS) for f in sorted(SPECS)
    if METHODS[k].hook_free or _sites(METHODS[k], EXAMPLES[f][0])])
def test_one_store_holds_the_spec_and_the_plans_new_paths(key, family):
    """An adapted model is one store and its plan: the store holds the spec's
    paths and the plan's new ones at their shapes, ``trainable()`` is what the
    plan trains, and a trained epoch's checkpoint holds exactly the store."""
    method, (spec, sample) = METHODS[key], EXAMPLES[family]
    hooks = "".join(f"->({s}){{inout}}" for s in sorted(_sites(method, spec)))
    plan = compile_plan(parse_config(f"({method.name}.adapt):{hooks}"), spec)
    model = apply_plan(spec, build_model(spec, seed=0), plan, seed=1)
    new = plan.new_shapes()
    assert not set(new) & set(spec.param_shapes())
    assert {p: t.shape for p, t in model.params.items()} == {**spec.param_shapes(), **new}
    assert [p for p, _ in model.trainable()] == sorted(plan.trainable_original | set(new))
    rng = np.random.default_rng(2)
    ds = data_mod.Dataset(rng.normal(size=(16, *sample)), rng.integers(0, spec.n_classes, 16),
                          spec.n_classes, {"train": np.arange(12), "val": np.arange(12, 16)})
    ckpt, _ = train(model, None, ds, LossSpec(), RegSpec(), TrainConfig(epochs=1, batch_size=8))
    assert list(ckpt.entries) == model.params.paths()


def test_a_step_that_raises_leaves_the_model_frozen(monkeypatch):
    model, _, _ = _adapt(MLP, "(LoRA.adapt):->(layers[0]){inout}")
    calls, real = [], tuner_mod.cross_entropy

    def second_step_overflows(logits, labels):
        calls.append(logits._node is not None)  # the step's forward was taped
        if len(calls) == 2:
            raise NonFiniteValue("tensor contains NaN or Inf")
        return real(logits, labels)

    monkeypatch.setattr(tuner_mod, "cross_entropy", second_step_overflows)
    with pytest.raises(NonFiniteValue):
        train(model, None, data_mod.blobs(k=3, d=4, n=64), LossSpec(), RegSpec(),
              TrainConfig(epochs=2, batch_size=16))
    assert calls == [True, True] and _frozen(model)
