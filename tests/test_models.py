"""Model zoo: path enumeration, pattern matching, forward, hooks."""

import re

import numpy as np
import pytest

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
