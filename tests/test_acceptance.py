"""Acceptance gate: one test per criterion, tolerances pinned in-line.

Each test is independent; the conftest hook prints one PASS/FAIL line per
criterion in the terminal summary.
"""

import json
import logging

import numpy as np
import pytest

from helpers import check_grads
from test_dsl import INVALID, LISTING, VALID
from zjkit import cli, data as data_mod, merger, tuner
from zjkit.architect import apply_plan, compile_plan, merge_reparam
from zjkit.checkpoint import from_params, to_params
from zjkit.dsl import Hook, parse_config, serialize
from zjkit.errors import ParseError
from zjkit.models import (
    MiniVitSpec,
    MlpSpec,
    ParamStore,
    build_model,
    forward,
)
from zjkit.tensor import Tensor
from zjkit.tuner import (
    LossSpec,
    LossTerm,
    RegSpec,
    TrainConfig,
    bss_penalty,
    cross_entropy,
    fitnet_loss,
    fsp_loss,
    kd_kl,
    rkd_loss,
    spectral_penalty,
    train,
    weight_reg,
)

log = logging.getLogger("acceptance")

VIT = MiniVitSpec(dim=16, blocks=2, heads=4, mlp_dim=32, classes=3,
                  seq_len=4, input_dim=8)
MLP2 = MlpSpec((3, 6, 6, 2))  # two hidden layers for alignment work


# -- 1. gradient suite ---------------------------------------------------


def _net_loss(kind, spec, store, x, y, t_store):
    """Composite scalar loss as a function of layers[0].weight."""
    leaf = store.get("layers[0].weight")
    hooks = {"feature", "logits", "layers[0].input", "layers[0].output"}
    logits, tr = forward(spec, store, x, hooks)
    t_logits, t_tr = forward(spec, t_store, x, hooks)
    feat = tr["feature"]
    if kind == "ce":
        return cross_entropy(logits, y)
    if kind == "kd_kl":
        return kd_kl(logits, t_logits.data, 2.0)
    if kind == "fitnet":
        return fitnet_loss({"h": feat}, {"h": t_tr["feature"]}, [("h", "h")])
    if kind == "fsp":
        return fsp_loss([(tr["layers[0].input"], tr["layers[0].output"])],
                        [(t_tr["layers[0].input"], t_tr["layers[0].output"])])
    if kind == "rkd_dist":
        return rkd_loss(feat, t_tr["feature"].data, "dist")
    if kind == "rkd_angle":
        return rkd_loss(feat, t_tr["feature"].data, "angle")
    if kind == "l2":
        return weight_reg([("w", leaf)], kind="l2")
    if kind == "l2_sp":
        ref = ParamStore({"w": t_store.get("layers[0].weight").detach()})
        return weight_reg([("w", leaf)], ref=ref, kind="l2_sp")
    if kind == "bss":
        return bss_penalty(feat, 1)
    raise AssertionError(kind)


def test_criterion_01_gradient_suite():
    # rel err < 1e-4 vs central finite differences (h=1e-5), 10 seeds,
    # random nets with 8-16 hidden units; spectral penalty < 1e-3
    kinds = ("ce", "kd_kl", "fitnet", "fsp", "rkd_dist", "rkd_angle",
             "l2", "l2_sp", "bss")
    for seed in range(10):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(8, 17))
        spec = MlpSpec((4, w, 4))
        store = build_model(spec, seed=seed)
        t_store = build_model(spec, seed=seed + 1000)
        x = Tensor(rng.normal(size=(5, 4)))
        y = rng.integers(0, 4, size=5)
        w_path = "layers[0].weight"
        for kind in kinds:
            def fn(leaf):
                probe = store.clone()
                probe.set(w_path, leaf)
                return _net_loss(kind, spec, probe, x, y, t_store)

            leaf = Tensor(store.get(w_path).data, requires_grad=True)
            check_grads(fn, [leaf], rtol=1e-4)
        leaf = Tensor(store.get(w_path).data, requires_grad=True)
        check_grads(lambda t: spectral_penalty([("w", t)], iters=200),
                    [leaf], rtol=1e-3)


# -- 2. re-parameterization ----------------------------------------------


def test_criterion_02_reparameterization():
    rng = np.random.default_rng(0)
    cases = [
        "(LoRA.adapt|r=2,alpha=8):->(blocks[*].attn.qkv){inout}",
        "(SSF.adapt):->(blocks[*].attn.proj){out}",
    ]
    for text in cases:
        plan = compile_plan(parse_config(text), VIT)
        params = build_model(VIT, seed=1)
        adapted = apply_plan(VIT, params, plan, seed=2)
        # identity at init: bit equality with the base model
        x0 = Tensor(rng.normal(size=(4, 4, 8)))
        base, _ = forward(VIT, params, x0)
        init, _ = adapted.forward(x0)
        assert np.array_equal(base.data, init.data)
        # perturb injected parameters, then merge back into plain weights
        for p in sorted(adapted.plan.new_shapes()):
            t = adapted.params.get(p)
            adapted.params.set(p, Tensor(
                t.data + rng.normal(0, 0.05, size=t.shape), requires_grad=True))
        mparams = to_params(VIT, merge_reparam(adapted))
        x = Tensor(rng.normal(size=(100, 4, 8)))
        want, _ = adapted.forward(x)
        got, _ = forward(VIT, mparams, x)
        assert np.abs(want.data - got.data).max() < 1e-6


# -- 3. freeze integrity -------------------------------------------------


def _vit_blobs(seed=0):
    ds = data_mod.blobs(k=3, d=4, n=120, sigma=0.1, seed=seed)
    return data_mod.Dataset(ds.x.reshape(-1, 2, 2), ds.y, ds.n_classes,
                            ds.splits)


def test_criterion_03_freeze_integrity():
    mlp = MlpSpec((2, 8, 3))
    vit = MiniVitSpec(dim=8, blocks=1, heads=2, mlp_dim=16, classes=3,
                      seq_len=2, input_dim=2)
    cases = [
        (mlp, "(LoRA.adapt):->(layers[0]){inout}", None),
        (mlp, "(Adapter.adapt|dim=4):->(layers[0]){in}", None),
        (mlp, "(SSF.adapt):->(layers[0]){out}", None),
        (mlp, "(BitFit.adapt):", None),
        (mlp, "(LinearProbe.adapt):", None),
        (mlp, "(PartialK.adapt|k=1):", None),
        (vit, "(Prefix.adapt|tokens=2):->(blocks[0]){in}", _vit_blobs()),
    ]
    mlp_ds = data_mod.blobs(k=3, d=2, n=120, sigma=0.1, seed=1)
    for spec, text, ds in cases:
        ds = ds if ds is not None else mlp_ds
        plan = compile_plan(parse_config(text), spec)
        model = apply_plan(spec, build_model(spec, seed=0), plan, seed=1)
        frozen = set(spec.param_shapes()) - plan.trainable_original
        before = {p: model.params.get(p).data.copy() for p in frozen}
        cfg = TrainConfig(lr=0.1, epochs=20, batch_size=16, seed=0)
        train(model, None, ds, LossSpec(), RegSpec(), cfg)
        for p, v in before.items():
            assert np.array_equal(model.params.get(p).data, v), (text, p)


# -- 4. distillation fixed points ----------------------------------------


def test_criterion_04_distillation_fixed_points():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 4))
    e = rng.normal(size=(6, 5))
    assert abs(kd_kl(Tensor(z, requires_grad=True), z, 3.0).item()) < 1e-12
    s = {"h": Tensor(e, requires_grad=True)}
    t = {"h": Tensor(e)}
    assert fitnet_loss(s, t, [("h", "h")]).item() == 0.0
    a1, a2 = Tensor(e, requires_grad=True), Tensor(rng.normal(size=(6, 3)),
                                                   requires_grad=True)
    assert fsp_loss([(a1, a2)], [(a1, a2)]).item() == 0.0
    for mode in ("dist", "angle"):
        assert abs(rkd_loss(Tensor(e, requires_grad=True), e, mode).item()) \
            < 1e-12
        # invariance to scale 3.7 and translation, within 1e-9
        t2 = rng.normal(size=(6, 5))
        base = rkd_loss(Tensor(e, requires_grad=True), t2, mode).item()
        moved = rkd_loss(Tensor(3.7 * e + 0.8, requires_grad=True),
                         3.7 * t2 + 0.8, mode).item()
        assert abs(base - moved) < 1e-9


# -- 5. merger identities ------------------------------------------------


def test_criterion_05_merger_identities():
    spec = MlpSpec((4, 16, 3))
    a = from_params(spec, build_model(spec, seed=0))
    dup = [a, a.clone(), a.clone()]

    def close(c1, c2, tol=1e-7):
        for p in c1.entries:
            assert np.abs(c1.entries[p].astype(np.float64)
                          - c2.entries[p].astype(np.float64)).max() < tol, p

    close(merger.uniform_soup(dup), a)
    close(merger.greedy_soup(dup, None, lambda c, _: 0.5)[0], a)
    close(merger.wise_ft(a, a.clone(), 0.3), a)
    ones = merger.FisherDiag({p: np.ones(v.shape) for p, v in a.entries.items()})
    close(merger.fisher_merge(dup, [ones] * 3), a)
    fused, _ = merger.ot_fuse(a, a.clone(), eps=0.005, iters=2000)
    close(fused, a)
    perm, _ = merger.weight_match(a, a.clone())
    close(merger.uniform_soup([a, merger.permute_model(a.clone(), perm)]), a)
    calib = np.random.default_rng(1).normal(size=(64, 4))
    close(merger.repair(a.clone(), (a, a.clone(), 0.5), spec, calib), a)

    # wise_ft endpoints exact
    b = from_params(spec, build_model(spec, seed=1))
    for p in a.entries:
        assert np.array_equal(merger.wise_ft(a, b, 0.0).entries[p], a.entries[p])
        assert np.array_equal(merger.wise_ft(a, b, 1.0).entries[p], b.entries[p])

    # fisher reduces to the weighted mean under equal Fishers
    merged = merger.fisher_merge([a, b], [ones, ones], lams=[2.0, 1.0])
    for p in a.entries:
        want = (2 * a.entries[p].astype(np.float64)
                + b.entries[p].astype(np.float64)) / 3
        assert np.abs(merged.entries[p] - want).max() < 1e-7

    # permutation consistency on 5 random permutations
    a2 = from_params(MLP2, build_model(MLP2, seed=2))
    b2 = from_params(MLP2, build_model(MLP2, seed=3))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        perm = merger.Permutation([rng.permutation(6), rng.permutation(6)])
        left = merger.uniform_soup([merger.permute_model(a2, perm),
                                    merger.permute_model(b2, perm)])
        right = merger.permute_model(merger.uniform_soup([a2, b2]), perm)
        close(left, right)


# -- 6. alignment recovery -----------------------------------------------


def test_criterion_06_alignment_recovery():
    # endpoints must sit near a loss minimum for the barrier direction to
    # be meaningful, so each of the 10 random models gets a short training
    # on a task (moons) whose solution actually uses the hidden units
    spec = MlpSpec((2, 6, 6, 2))
    ds = data_mod.moons(n=240, noise=0.1, seed=0)
    x, y = ds.split("val")

    def loss(ckpt):
        logits, _ = forward(spec, to_params(spec, ckpt), Tensor(x))
        return cross_entropy(logits, y).item()

    barrier_hits = 0
    for seed in range(10):
        model = apply_plan(spec, build_model(spec, seed=seed),
                           cli._plan({}, spec), seed=seed)
        cfg = TrainConfig(lr=0.3, epochs=15, batch_size=16, seed=seed)
        base, _ = train(model, None, ds, LossSpec(), RegSpec(), cfg)
        r = np.random.default_rng(seed + 50)
        perm = merger.Permutation([r.permutation(6), r.permutation(6)])
        moved = merger.permute_model(base, perm)
        inv = merger.Permutation([np.argsort(m) for m in perm.maps])

        found_wm, history = merger.weight_match(base, moved)
        found_ot = merger.ot_fuse(base, moved, eps=0.001, iters=3000)[1]
        for f, w in zip(found_wm.maps, inv.maps):
            assert np.array_equal(f, w), f"weight_match seed {seed}"
        for f, w in zip(found_ot.maps, inv.maps):
            assert np.array_equal(f, w), f"ot_fuse seed {seed}"
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))

        end = loss(base)
        aligned_mid = loss(merger.uniform_soup(
            [base, merger.permute_model(moved, found_wm)]))
        naive_mid = loss(merger.uniform_soup([base, moved]))
        assert abs(aligned_mid - end) < 1e-6
        # f32 checkpoint rounding bounds how finely the two sides compare
        assert aligned_mid <= naive_mid + 1e-6
        if naive_mid > end + 1e-6:
            barrier_hits += 1
    log.info("pre-alignment barrier present in %d/10 instances", barrier_hits)


# -- 7. greedy soup guarantee --------------------------------------------


def test_criterion_07_greedy_soup_guarantee():
    spec = MlpSpec((2, 8, 3))
    ds = data_mod.blobs(k=3, d=2, n=200, sigma=0.15, seed=0)
    x_val, y_val = ds.split("val")

    def acc(ckpt, _=None):
        logits, _ = forward(spec, to_params(spec, ckpt), Tensor(x_val))
        return float((np.argmax(logits.data, axis=1) == y_val).mean())

    ckpts = []
    for seed in range(4):
        plan = compile_plan(parse_config("(LinearProbe.adapt):"), spec)
        model = apply_plan(spec, build_model(spec, seed=seed), plan, seed=seed)
        cfg = TrainConfig(lr=0.2, epochs=8, batch_size=16, seed=seed)
        ckpt, _ = train(model, None, ds, LossSpec(), RegSpec(), cfg)
        ckpts.append(ckpt)
    # two deliberately corrupted models
    for seed in (90, 91):
        r = np.random.default_rng(seed)
        bad = ckpts[0].clone()
        for p in bad.entries:
            bad.entries[p] = r.normal(0, 20, size=bad.entries[p].shape) \
                .astype(np.float32)
        ckpts.append(bad)

    singles = [acc(c) for c in ckpts]
    assert max(singles[4:]) < max(singles[:4])  # corruption took effect
    soup, ingredients = merger.greedy_soup(ckpts, None, acc)
    assert acc(soup) >= max(singles)
    assert not {4, 5} & set(ingredients)  # corrupted models rejected


# -- 8. REPAIR -----------------------------------------------------------


def test_criterion_08_repair():
    spec = MlpSpec((4, 16, 3))
    a = from_params(spec, build_model(spec, seed=0))
    b = from_params(spec, build_model(spec, seed=1))
    alpha = 0.5
    interp = merger.wise_ft(b, a, alpha)
    calib = np.random.default_rng(2).normal(size=(256, 4))
    fixed = merger.repair(interp, (a, b, alpha), spec, calib)
    hook = "layers[0].preact"

    def preacts(ckpt):
        return forward(spec, to_params(spec, ckpt), Tensor(calib), {hook})[1][hook].data

    target = alpha * preacts(a).std(0) + (1 - alpha) * preacts(b).std(0)
    got = preacts(fixed).std(0)
    assert (np.abs(got - target) / target).max() < 0.01


# -- 9. DSL --------------------------------------------------------------


def test_criterion_09_dsl():
    spec = parse_config(LISTING)
    assert spec.method == "lora" and spec.action == "adapt"
    assert spec.hooks == [Hook("blocks[0:12].attn.qkv", "inout", 1)]
    for text in VALID:
        parsed = parse_config(text)
        canon = serialize(parsed)
        assert parse_config(canon) == parsed
        assert serialize(parse_config(canon)) == canon
    for text, offset in INVALID:
        with pytest.raises(ParseError) as exc:
            parse_config(text)
        assert exc.value.offset == offset, text


# -- 10. end-to-end determinism ------------------------------------------


PIPE_CFG = """\
model.kind=mlp
model.widths=2,8,3
data.source=blobs(k=3,d=2,n=120,sigma=0.1)
architect.config='(LoRA.adapt):->(layers[0]){inout}'
tuner.epochs=4
tuner.lr=0.1
tuner.batch_size=16
seed=7
"""


def test_criterion_10_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PIPE_CFG)

    def pipeline(tag):
        out = tmp_path / tag
        assert cli.main(["plan", "--config", str(cfg)]) == 0
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(out / "t")]) == 0
        ck = str(out / "t" / "final.zjk1")
        assert cli.main(["merge", "--config", str(cfg),
                         "--out", str(out / "m"),
                         "--ckpt", ck, "--ckpt", ck]) == 0
        assert cli.main(["eval", "--config", str(cfg),
                         "--out", str(out / "e"),
                         "--ckpt", str(out / "m" / "merged.zjk1")]) == 0
        return out

    o1, o2 = pipeline("run1"), pipeline("run2")
    for rel in ("t/final.zjk1", "t/history.jsonl", "m/merged.zjk1",
                "e/metrics.json"):
        assert (o1 / rel).read_bytes() == (o2 / rel).read_bytes(), rel


# -- 11. sanity learning check -------------------------------------------


def test_criterion_11_sanity_learning(capsys):
    # linear probe on separable blobs: >= 0.98 within 50 epochs
    spec = MlpSpec((2, 8, 3))
    ds = data_mod.blobs(k=3, d=2, n=300, sigma=0.1, seed=0)
    plan = compile_plan(parse_config("(LinearProbe.adapt):"), spec)
    model = apply_plan(spec, build_model(spec, seed=0), plan, seed=0)
    cfg = TrainConfig(lr=0.2, epochs=50, batch_size=16, seed=0)
    _, history = train(model, None, ds, LossSpec(), RegSpec(), cfg)
    assert max(h["val_acc"] for h in history) >= 0.98

    # LoRA-adapted mini_vit beats the frozen baseline by >= 0.05 absolute
    # on a token task where the head alone is insufficient by design
    vit = MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=16, classes=2,
                      seq_len=2, input_dim=2)
    xor = data_mod.token_xor(n=512, seq=2, d=2, sigma=0.1, seed=0)
    lora_text = ("(LoRA.adapt|r=8,alpha=8):->(patch_embed){inout}"
                 "->(blocks[*].attn.qkv){inout}->(blocks[*].attn.proj){inout}"
                 "->(blocks[*].mlp.fc1){inout}->(blocks[*].mlp.fc2){inout}")

    def run(text):
        plan = compile_plan(parse_config(text), vit)
        model = apply_plan(vit, build_model(vit, seed=0), plan, seed=1)
        tc = TrainConfig(optimizer="adamw", lr=0.02, epochs=40, batch_size=32,
                         seed=0, schedule="cosine")
        _, hist = train(model, None, xor, LossSpec(), RegSpec(), tc)
        return hist[-1]["val_acc"]

    frozen = run("(LinearProbe.adapt):")
    adapted = run(lora_text)
    log.info("token task: frozen %.3f, lora %.3f", frozen, adapted)
    assert adapted - frozen >= 0.05
