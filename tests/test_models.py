"""Model zoo: path enumeration, pattern matching, forward, hooks."""

import re

import numpy as np
import pytest

from zjkit import tensor as T
from zjkit.errors import ConfigError, ShapeMismatch
from zjkit.models import (
    MiniVitSpec,
    MlpSpec,
    ParamStore,
    build_model,
    forward,
    match_prefixes,
    spec_digest,
)
from zjkit.tensor import Tensor

VIT = MiniVitSpec(dim=16, blocks=2, heads=4, mlp_dim=32, classes=3,
                  seq_len=4, input_dim=8)


# -- specs and paths -----------------------------------------------------


def test_mlp_path_enumeration():
    shapes = MlpSpec((4, 8, 3)).param_shapes()
    assert shapes == {
        "layers[0].weight": (8, 4), "layers[0].bias": (8,),
        "layers[1].weight": (3, 8), "layers[1].bias": (3,),
    }


def test_vit_qkv_shape():
    shapes = VIT.param_shapes()
    assert shapes["blocks[0].attn.qkv.weight"] == (48, 16)
    assert shapes["blocks[0].attn.qkv.bias"] == (48,)
    assert shapes["pos_embed"] == (5, 16)
    assert shapes["head.weight"] == (3, 16)


def test_path_determinism():
    s1 = build_model(VIT, seed=0)
    s2 = build_model(VIT, seed=1)
    assert s1.paths() == s2.paths()


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((4,))
    with pytest.raises(ValueError):
        MlpSpec((4, 8, 3), activation="swish")
    with pytest.raises(ValueError):
        MiniVitSpec(dim=10, blocks=1, heads=4, mlp_dim=8, classes=2,
                    seq_len=2, input_dim=4)  # heads must divide dim
    with pytest.raises(ConfigError, match=r"layers\[0\]\.weight of shape \(10{20}, 2\) has more"):
        MlpSpec((2, 10**20, 3))
    with pytest.raises(ConfigError, match="more elements than an array can index"):
        MiniVitSpec(dim=2**62, blocks=1, heads=1, mlp_dim=8, classes=2,
                    seq_len=2, input_dim=4)


def test_spec_digest_distinguishes_specs():
    assert spec_digest(MlpSpec((4, 8, 3))) != spec_digest(MlpSpec((4, 9, 3)))
    assert len(spec_digest(VIT)) == 32


# -- param store ---------------------------------------------------------


def test_store_get_set_and_order():
    store = ParamStore()
    store.set("b", Tensor([1.0]))
    store.set("a", Tensor([2.0]))
    assert store.paths() == ["a", "b"]  # lexicographic
    with pytest.raises(ConfigError, match="unknown parameter path 'c'"):
        store.get("c")
    with pytest.raises(ShapeMismatch):
        store.set("a", Tensor([1.0, 2.0]))


def test_init_distribution():
    store = build_model(MlpSpec((4, 8, 3)), seed=0)
    w = store.get("layers[0].weight").data
    assert np.abs(w).max() <= 1.0 / 2.0  # 1/sqrt(4)
    assert (store.get("layers[0].bias").data == 0).all()
    vit = build_model(VIT, seed=0)
    assert (vit.get("blocks[0].norm1.gamma").data == 1).all()
    assert (vit.get("blocks[0].norm1.beta").data == 0).all()


# -- patterns ------------------------------------------------------------


def test_select_paths_range_half_open():
    store = build_model(VIT)
    hits = match_prefixes(store.paths(), "blocks[0:2].attn.qkv")
    assert hits == ["blocks[0].attn.qkv", "blocks[1].attn.qkv"]


def test_select_paths_star_and_exact():
    store = build_model(MlpSpec((4, 8, 3)))
    assert match_prefixes(store.paths(), "layers[*].bias") == \
        ["layers[0].bias", "layers[1].bias"]
    assert match_prefixes(store.paths(), "layers[1].weight") == ["layers[1].weight"]
    assert match_prefixes(build_model(VIT).paths(), "blocks[*]") == ["blocks[0]", "blocks[1]"]


def test_select_paths_empty_range():
    store = build_model(VIT)
    assert match_prefixes(store.paths(), "blocks[2:2].attn.qkv") == []
    assert match_prefixes(store.paths(), "blocks[5:9].attn.qkv") == []
    paths = store.paths()
    assert match_prefixes(paths, "blocks[-1]") == []  # an index no path has
    assert match_prefixes(paths, "blocks.attn") == []  # an unindexed segment skips blocks[i]


def test_bad_patterns():
    store = build_model(VIT)
    for bad, word in (("", "empty pattern"), ("blocks[", "bad segment"),
                      ("blocks[x]", "bad index"), ("blocks[1:z]", "bad range"),
                      ("1abc", "bad segment"), ("blocks[1:]", "bad range 'blocks[1:]'"),
                      ("blocks[:2]", "bad range 'blocks[:2]'"),
                      ("blocks[]", "bad index 'blocks[]'")):
        with pytest.raises(ConfigError, match=re.escape(word)):
            match_prefixes(store.paths(), bad)


# -- forward -------------------------------------------------------------


def test_mlp_zero_weights_zero_logits():
    spec = MlpSpec((4, 8, 3))
    store = ParamStore()
    for p, s in spec.param_shapes().items():
        store.set(p, Tensor(np.zeros(s)))
    logits, _ = forward(spec, store, Tensor(np.ones((2, 4))))
    assert (logits.data == 0).all()


def test_capture_never_perturbs_logits():
    spec = MlpSpec((4, 8, 3), activation="gelu")
    store = build_model(spec, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
    plain, trace0 = forward(spec, store, x)
    full, trace = forward(spec, store, x, spec.all_hooks())
    assert trace0 == {}
    assert np.array_equal(plain.data, full.data)  # bit-identical
    assert set(trace) == spec.all_hooks()


def test_vit_capture_bit_identity():
    store = build_model(VIT, seed=3)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 8)))
    plain, _ = forward(VIT, store, x)
    full, trace = forward(VIT, store, x, VIT.all_hooks())
    assert np.array_equal(plain.data, full.data)
    assert trace["feature"].shape == (2, 16)
    assert trace["logits"].shape == (2, 3)
    assert trace["blocks[0].preact"].shape == (2, 5, 32)


def test_the_last_vit_block_computes_the_cls_row_alone_unless_one_of_its_hooks_is_captured():
    """The head reads the cls row alone, so with no hook of the last block
    captured its fc1 runs on one row per sample; capturing its preact adds
    the other rows, whose trace matches the block run on every row, and
    leaves the logits bit for bit as they were."""
    store = build_model(VIT, seed=3)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 8)))
    last = f"blocks[{VIT.blocks - 1}]"
    seen = []

    def route(name, site, value, *args):
        if name == "linear_out" and site.endswith("mlp.fc1"):
            seen.append((site, value.shape))
        return value

    plain, _ = forward(VIT, store, x, route=route)
    assert seen == [("blocks[0].mlp.fc1", (2, 5, 32)), (f"{last}.mlp.fc1", (2, 1, 32))]
    seen.clear()
    full, trace = forward(VIT, store, x, {f"{last}.input", f"{last}.preact"}, route=route)
    assert seen[1:] == [(f"{last}.mlp.fc1", (2, 1, 32)), (f"{last}.mlp.fc1", (2, 4, 32))]
    assert np.array_equal(plain.data, full.data)

    p = store.get
    ln = lambda h, name: T.layernorm(h, p(f"{name}.gamma"), p(f"{name}.beta"))
    lin = lambda h, site: T.affine(h, p(f"{site}.weight"), p(f"{site}.bias"))
    h = trace[f"{last}.input"]
    ctx = T.attention(lin(ln(h, f"{last}.norm1"), f"{last}.attn.qkv"), VIT.heads)
    h = h + lin(ctx, f"{last}.attn.proj")
    want = lin(ln(h, f"{last}.norm2"), f"{last}.mlp.fc1").data
    got = trace[f"{last}.preact"].data
    assert got.shape == want.shape == (2, 5, 32)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    _, out = forward(VIT, store, x, {f"{last}.output"})
    assert out[f"{last}.output"].shape == (2, 5, 16)


def test_unknown_hook_rejected():
    store = build_model(VIT)
    with pytest.raises(ConfigError, match=r"unknown hook blocks\[9\]\.output"):
        forward(VIT, store, Tensor(np.zeros((1, 4, 8))), {"blocks[9].output"})


def test_input_shape_validation():
    store = build_model(VIT)
    with pytest.raises(ShapeMismatch):
        forward(VIT, store, Tensor(np.zeros((1, 3, 8))))
    mstore = build_model(MlpSpec((4, 8, 3)))
    with pytest.raises(ShapeMismatch):
        forward(MlpSpec((4, 8, 3)), mstore, Tensor(np.zeros((2, 5))))


def test_forward_is_deterministic():
    x = np.random.default_rng(9).normal(size=(3, 4, 8))
    l1, _ = forward(VIT, build_model(VIT, seed=5), Tensor(x))
    l2, _ = forward(VIT, build_model(VIT, seed=5), Tensor(x))
    assert np.array_equal(l1.data, l2.data)


def test_mlp_feature_hook_is_last_hidden():
    spec = MlpSpec((4, 8, 3))
    store = build_model(spec, seed=0)
    x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
    _, trace = forward(spec, store, x, {"feature", "layers[0].output"})
    assert np.array_equal(trace["feature"].data, trace["layers[0].output"].data)


# -- structure derived from the stage lists ------------------------------
# The expected values are what the hand-written per-family methods that the
# stage lists replaced gave for these two specs.

MLP3 = MlpSpec((5, 7, 6, 3))
VIT2 = MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=12, classes=3, seq_len=3, input_dim=4)


def _layer(i):
    return {f"layers[{i}].weight", f"layers[{i}].bias"}


def _block(i):
    return [(f"blocks[{i}].{leaf}", shape) for leaf, shape in (
        ("norm1.gamma", (8,)), ("norm1.beta", (8,)),
        ("attn.qkv.weight", (24, 8)), ("attn.qkv.bias", (24,)),
        ("attn.proj.weight", (8, 8)), ("attn.proj.bias", (8,)),
        ("norm2.gamma", (8,)), ("norm2.beta", (8,)),
        ("mlp.fc1.weight", (12, 8)), ("mlp.fc1.bias", (12,)),
        ("mlp.fc2.weight", (8, 12)), ("mlp.fc2.bias", (8,)))]


_VIT_SHAPES = [("patch_embed.weight", (8, 4)), ("patch_embed.bias", (8,)),
               ("cls_token", (8,)), ("pos_embed", (4, 8)), *_block(0), *_block(1),
               ("norm.gamma", (8,)), ("norm.beta", (8,)),
               ("head.weight", (3, 8)), ("head.bias", (3,))]
_VIT_HEAD = {"head.weight", "head.bias"}
_VIT_LAST_K1 = {p for p, _ in _block(1)} | {"norm.gamma", "norm.beta"} | _VIT_HEAD

STRUCTURE = {
    "mlp": (MLP3, {
        "shapes": [("layers[0].weight", (7, 5)), ("layers[0].bias", (7,)),
                   ("layers[1].weight", (6, 7)), ("layers[1].bias", (6,)),
                   ("layers[2].weight", (3, 6)), ("layers[2].bias", (3,))],
        "hooks": {"feature", "logits"} | {f"layers[{i}].{h}" for i in range(3)
                                          for h in ("input", "preact", "output")},
        "head": _layer(2),
        "post_mlp": {"layers[0]": 7, "layers[1]": 6},
        "kv_prefix": {},
        "partial_k": {0: _layer(2), 1: _layer(2), 2: _layer(1) | _layer(2),
                      3: _layer(0) | _layer(1) | _layer(2),
                      4: _layer(0) | _layer(1) | _layer(2)},
    }),
    "mini_vit": (VIT2, {
        "shapes": _VIT_SHAPES,
        "hooks": {"feature", "logits"} | {f"blocks[{i}].{h}" for i in range(2)
                                          for h in ("input", "preact", "output")},
        "head": _VIT_HEAD,
        "post_mlp": {"blocks[0]": 8, "blocks[1]": 8},
        "kv_prefix": {"blocks[0]": 8, "blocks[1]": 8},
        "partial_k": {0: _VIT_HEAD, 1: _VIT_LAST_K1,
                      2: {p for p, _ in _VIT_SHAPES}, 3: {p for p, _ in _VIT_SHAPES}},
    }),
}


@pytest.mark.parametrize("family", STRUCTURE)
def test_each_family_derives_its_structure_from_its_stages(family):
    spec, want = STRUCTURE[family]
    assert list(spec.param_shapes().items()) == want["shapes"]  # build_model draws in this order
    assert spec.all_hooks() == want["hooks"]
    assert spec.head_paths() == want["head"]
    assert spec.sites("post_mlp") == want["post_mlp"]
    assert spec.sites("kv_prefix") == want["kv_prefix"]
    depth = sum(stage.block for stage in spec.stages())
    for k in (0, 1, depth - 1, depth, depth + 1):
        assert spec.partial_k_paths(k) == want["partial_k"][k], k


@pytest.mark.parametrize("spec, row", [(MLP3, (5,)), (VIT2, (3, 4))], ids=["mlp", "mini_vit"])
def test_a_forward_calls_the_routes_its_stages_declare(spec, row):
    calls = []

    def spy(name, site, value, *args):
        calls.append((name, site))
        return value

    x = Tensor(np.random.default_rng(0).normal(size=(2, *row)))
    forward(spec, build_model(spec), x, route=spy)
    for name in ("post_mlp", "kv_prefix"):
        assert [site for n, site in calls if n == name] == list(spec.sites(name))
    assert [site for n, site in calls if n == "linear_out"] == [
        p[:-len(".weight")] for p in spec.param_shapes() if p.endswith(".weight")]


def test_an_mlp_spec_from_a_list_of_widths_builds_and_forwards():
    spec = MlpSpec([4, 8, 3])
    assert spec.canonical() == "mlp:4,8,3:relu"
    logits, _ = forward(spec, build_model(spec, seed=0), Tensor(np.ones((2, 4))))
    assert logits.shape == (2, 3)
    assert spec.stages() is MlpSpec((4, 8, 3)).stages()  # one stage list per spec value


def test_spec_fields_are_plain_ints_so_equal_specs_read_alike():
    # a float field passed construction and failed later with a raw TypeError
    kw = dict(dim=8, blocks=1, heads=2, mlp_dim=8, classes=2, seq_len=2, input_dim=4)
    for bad in ({"heads": 2.0}, {"blocks": 1.5}, {"dim": None}):
        with pytest.raises(ConfigError, match=r"bad dims in MiniVitSpec\("):
            MiniVitSpec(**{**kw, **bad})
    for widths in ((4, 8.5, 3), (4.0, 8, 3), 5):
        with pytest.raises(ConfigError, match="bad widths"):
            MlpSpec(widths)
    spec = MiniVitSpec(**{**kw, "heads": np.int64(2), "blocks": True})
    assert spec == MiniVitSpec(**kw) and {type(v) for v in vars(spec).values()} == {int}
    assert spec.stages() is MiniVitSpec(**kw).stages()
    logits, _ = forward(spec, build_model(spec), Tensor(np.zeros((1, 2, 4))))
    assert logits.shape == (1, 2)
    assert MlpSpec((4, np.int64(8), 3)).widths == (4, 8, 3)
