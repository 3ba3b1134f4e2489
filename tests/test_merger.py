"""Merger: soups, interpolation, Fisher, OT/permutation alignment, REPAIR."""

import dataclasses
import inspect
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from zjkit import data as data_mod
from zjkit import architect, merger, tuner
from zjkit.checkpoint import Checkpoint, from_params, to_params
from zjkit.errors import (
    ConfigError,
    NoConvergence,
    NonFiniteValue,
    ShapeMismatch,
    SpecMismatch,
)
from zjkit.merger import (
    FisherDiag,
    Permutation,
    combine_logits,
    coupling_entropy,
    fisher_estimate,
    fisher_merge,
    greedy_soup,
    ot_fuse,
    permutation_summary,
    permute_model,
    repair,
    sinkhorn,
    uniform_soup,
    weight_match,
    wise_ft,
)
from zjkit.dsl import parse_config
from zjkit.models import MiniVitSpec, MlpSpec, build_model, forward
from zjkit.tensor import Tensor

SPEC = MlpSpec((4, 8, 3))
SPEC2 = MlpSpec((3, 6, 6, 2))  # 2 hidden layers
VIT = MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=16, classes=3, seq_len=3, input_dim=4)


def _ckpt(spec=SPEC, seed=0):
    return from_params(spec, build_model(spec, seed=seed))


def _logits(spec, ckpt, x):
    out, _ = forward(spec, to_params(spec, ckpt), Tensor(x))
    return out.data


def _preacts(spec, ckpt, x, hook):
    _, trace = forward(spec, to_params(spec, ckpt), Tensor(x), {hook})
    return trace[hook].data


# -- soups ---------------------------------------------------------------


def test_uniform_soup_mean_oracle():
    a, b = _ckpt(seed=0), _ckpt(seed=1)
    soup = uniform_soup([a, b])
    for p in a.entries:
        want = (a.entries[p].astype(np.float64)
                + b.entries[p].astype(np.float64)) / 2
        assert np.abs(soup.entries[p] - want).max() < 1e-7


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("spec", [SPEC2, VIT], ids=["mlp", "mini_vit"])
def test_uniform_soup_is_the_mean_of_the_stacked_entries(spec, k, monkeypatch):
    ckpts = [_ckpt(spec, seed=s) for s in range(k)]
    means, real = {}, Checkpoint.with_entries  # the float64 means, before the float32 store
    monkeypatch.setattr(Checkpoint, "with_entries",
                        lambda self, arrays: means.update(arrays) or real(self, arrays))
    soup = uniform_soup(ckpts)
    assert set(means) == set(ckpts[0].entries)
    for p, got in means.items():
        want = np.mean(np.stack([c.entries[p].astype(np.float64) for c in ckpts]), axis=0)
        assert got.dtype == np.float64 and np.array_equal(got, want), p
        assert np.array_equal(soup.entries[p], want.astype(np.float32)), p


def test_uniform_soup_idempotent_on_duplicates():
    a = _ckpt(seed=2)
    soup = uniform_soup([a, a.clone(), a.clone()])
    for p in a.entries:
        assert np.abs(soup.entries[p] - a.entries[p]).max() < 1e-7


def test_uniform_soup_symmetric():
    a, b = _ckpt(seed=0), _ckpt(seed=1)
    s1, s2 = uniform_soup([a, b]), uniform_soup([b, a])
    for p in a.entries:
        assert np.array_equal(s1.entries[p], s2.entries[p])


def test_soup_rejects_mismatched_specs():
    with pytest.raises(SpecMismatch):
        uniform_soup([_ckpt(SPEC), _ckpt(MlpSpec((4, 9, 3)))])
    with pytest.raises(ConfigError, match="need at least one checkpoint"):
        uniform_soup([])


def test_greedy_soup_keeps_best_and_respects_rule():
    ckpts = [_ckpt(seed=s) for s in range(3)]
    # synthetic eval: checkpoint 1 is best, any soup containing 2 is bad
    scores = {id(ckpts[0]): 0.6, id(ckpts[1]): 0.9, id(ckpts[2]): 0.2}

    def eval_fn(c, _):
        if id(c) in scores:
            return scores[id(c)]
        # a tentative average: good iff built from 0/1 material only
        return 0.9 if abs(c.entries["layers[0].weight"].mean()
                          - np.mean([ckpts[i].entries["layers[0].weight"].mean()
                                     for i in (0, 1)])) < 1e-6 else 0.1

    soup, order = greedy_soup(ckpts, None, eval_fn)
    assert order[0] == 1          # best-first
    assert 2 not in order         # harmful candidate rejected
    assert eval_fn(soup, None) >= 0.9


def test_greedy_soup_accepts_on_tie():
    # duplicates score equally; >= rule keeps them all
    a = _ckpt(seed=5)
    soup, order = greedy_soup([a, a.clone(), a.clone()], None,
                              lambda c, _: 0.5)
    assert order == [0, 1, 2]


def test_greedy_soup_scores_each_candidate_once():
    ckpts = [_ckpt(seed=s) for s in range(4)]
    calls = []

    def eval_fn(c, _):
        calls.append(c)
        return 0.5

    greedy_soup(ckpts, None, eval_fn)
    # one score per candidate, then one per tentative soup of the other three
    assert len(calls) == 7
    assert calls[:4] == ckpts


# -- wise_ft -------------------------------------------------------------


def test_wise_ft_endpoints_exact():
    a, b = _ckpt(seed=0), _ckpt(seed=1)
    at0, at1 = wise_ft(a, b, 0.0), wise_ft(a, b, 1.0)
    for p in a.entries:
        assert np.array_equal(at0.entries[p], a.entries[p])
        assert np.array_equal(at1.entries[p], b.entries[p])


def test_wise_ft_quarter_point():
    a = Checkpoint("mlp", b"\x00" * 32, {"w": np.float32([0.0])})
    b = Checkpoint("mlp", b"\x00" * 32, {"w": np.float32([4.0])})
    assert wise_ft(a, b, 0.25).entries["w"][0] == 1.0


def test_wise_ft_alpha_range():
    a = _ckpt()
    with pytest.raises(ValueError):
        wise_ft(a, a, 1.5)


# -- fisher --------------------------------------------------------------


def test_fisher_merge_equal_fishers_is_weighted_mean():
    a, b = _ckpt(seed=0), _ckpt(seed=1)
    fishers = [FisherDiag({p: np.ones(v.shape) for p, v in a.entries.items()})
               for _ in range(2)]
    merged = fisher_merge([a, b], fishers, lams=[3.0, 1.0])
    for p in a.entries:
        want = (3 * a.entries[p].astype(np.float64)
                + b.entries[p].astype(np.float64)) / 4
        assert np.abs(merged.entries[p] - want).max() < 1e-7


def test_fisher_merge_scalar_closed_form():
    a = Checkpoint("mlp", b"\x01" * 32, {"w": np.float32([2.0])})
    b = Checkpoint("mlp", b"\x01" * 32, {"w": np.float32([6.0])})
    fa = FisherDiag({"w": np.array([1.0])})
    fb = FisherDiag({"w": np.array([3.0])})
    merged = fisher_merge([a, b], [fa, fb])
    # (1*2 + 3*6) / (1 + 3) = 5
    assert abs(merged.entries["w"][0] - 5.0) < 1e-6


def test_fisher_merge_zero_fisher_fallback():
    a = Checkpoint("mlp", b"\x01" * 32, {"w": np.float32([2.0, 2.0])})
    b = Checkpoint("mlp", b"\x01" * 32, {"w": np.float32([6.0, 6.0])})
    fa = FisherDiag({"w": np.array([1.0, 0.0])})
    fb = FisherDiag({"w": np.array([0.0, 0.0])})
    merged = fisher_merge([a, b], [fa, fb])
    assert abs(merged.entries["w"][0] - 2.0) < 1e-6  # only a has mass
    assert abs(merged.entries["w"][1] - 4.0) < 1e-6  # plain average fallback


def test_fisher_merge_lambda_validation():
    a = _ckpt()
    f = FisherDiag({p: np.ones(v.shape) for p, v in a.entries.items()})
    with pytest.raises(ValueError):
        fisher_merge([a, a], [f, f], lams=[-1.0, 1.0])


def test_options_no_caller_set_are_gone():
    assert "eps_floor" not in inspect.signature(fisher_merge).parameters
    assert "min_std" not in inspect.signature(repair).parameters
    assert "reg_new_params" not in inspect.signature(tuner.train).parameters
    assert "label_mode" not in inspect.signature(fisher_estimate).parameters
    assert "batch" not in inspect.signature(tuner.accuracy).parameters
    shapes = inspect.signature(architect.plan_table).parameters["shapes"]
    assert shapes.default is inspect.Parameter.empty
    assert "tol" not in inspect.signature(sinkhorn).parameters
    assert "delta" not in inspect.signature(tuner.rkd_loss).parameters
    assert "betas" not in {f.name for f in dataclasses.fields(tuner.TrainConfig)}
    penalty = inspect.signature(tuner.spectral_penalty).parameters
    assert "seed" not in penalty and penalty["iters"].default is inspect.Parameter.empty


def test_fisher_estimate_properties():
    ds = data_mod.blobs(k=3, d=4, n=60, sigma=0.2, seed=0)
    c = _ckpt(seed=3)
    f1 = fisher_estimate(SPEC, c, ds, n_samples=8, seed=1)
    f2 = fisher_estimate(SPEC, c, ds, n_samples=8, seed=1)
    for p, v in f1.entries.items():
        assert (v >= 0).all()
        assert np.array_equal(v, f2.entries[p])  # deterministic per seed
    assert set(f1.entries) == set(c.entries)


# -- sinkhorn ------------------------------------------------------------


def test_sinkhorn_uniform_on_constant_cost():
    plan, _ = sinkhorn(np.zeros((2, 2)), eps=0.1, iters=100)
    assert np.abs(plan - 0.25).max() < 1e-9


def test_sinkhorn_marginals():
    rng = np.random.default_rng(0)
    cost = rng.uniform(size=(5, 7))
    plan, _ = sinkhorn(cost, eps=0.05, iters=2000)
    assert np.abs(plan.sum(axis=1) - 1 / 5).max() < 1e-6
    assert np.abs(plan.sum(axis=0) - 1 / 7).max() < 1e-6


def test_sinkhorn_approaches_assignment():
    # unique-optimum cost: small-eps plan concentrates on the LAP solution
    cost = np.array([[0.0, 5.0, 5.0], [5.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    rows, cols = linear_sum_assignment(cost)
    plan, _ = sinkhorn(cost, eps=0.02, iters=2000)
    assert np.array_equal(plan.argmax(axis=1), cols)
    assert plan[rows, cols].min() > 0.9 / 3


def test_sinkhorn_arg_checks():
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 2)), eps=0.0, iters=10)
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 2)), eps=0.1, iters=0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_sinkhorn_rejects_non_finite_eps(eps):
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 2)), eps=eps, iters=10)


def test_sinkhorn_nan_violation_is_no_convergence():
    # every (g - cost) / eps is -inf, so the log-sum-exp is NaN
    with pytest.raises(NoConvergence):
        sinkhorn(np.full((2, 2), 1e308), eps=1e-300, iters=5)


_BLOBS = data_mod.blobs(k=3, d=4, n=30, sigma=0.2, seed=0)
# call with a count argument: (its name, whether 0 is a count it takes)
COUNT_ARGS = {
    "sinkhorn": (lambda v: sinkhorn(np.zeros((2, 2)), eps=0.1, iters=v), "iters", False),
    "ot_fuse": (lambda v: ot_fuse(_ckpt(), _ckpt(seed=1), eps=0.1, iters=v), "iters", False),
    "ot_align": (lambda v: merger.ot_align(_ckpt(), _ckpt(seed=1), eps=0.1, iters=v), "iters",
                 False),
    "weight_match": (lambda v: weight_match(_ckpt(), _ckpt(seed=1), max_sweeps=v),
                     "max_sweeps", True),
    "fisher_estimate": (lambda v: fisher_estimate(SPEC, _ckpt(), _BLOBS, n_samples=v),
                        "n_samples", False),
}


@pytest.mark.parametrize("bad", [2.5, None, True, "3", -1, 0])
@pytest.mark.parametrize("call", sorted(COUNT_ARGS))
def test_a_count_argument_that_is_not_an_integer_is_a_config_error(call, bad):
    """2.5, None and "3" raised raw TypeErrors, True ran as one iteration or
    sample, and weight matching with -1 sweeps returned identity maps."""
    fn, name, zero_ok = COUNT_ARGS[call]
    if bad == 0 and zero_ok:
        bad = np.int64(0)  # no sweep: the identity maps, as before
        perm, history = fn(bad)
        assert len(history) == 1 and all(np.array_equal(m, np.arange(8)) for m in perm.maps)
        return
    kind = "non-negative" if zero_ok else "positive"
    with pytest.raises(ConfigError, match=f"^{name} {re.escape(repr(bad))} is not a {kind} "):
        fn(bad)


@pytest.mark.parametrize("call", sorted(COUNT_ARGS))
def test_a_numpy_integer_count_is_the_int(call):
    fn = COUNT_ARGS[call][0]
    want, got = fn(300), fn(np.int64(300))
    assert repr(want) == repr(got)


def sinkhorn_loop(cost, eps, iters, tol=1e-9):
    """Reference: log-domain Sinkhorn, two log-sum-exps and a plan per iteration."""
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    log_a = np.full(n, -np.log(n))
    log_b = np.full(m, -np.log(m))
    f = np.zeros(n)
    g = np.zeros(m)

    def lse(z, axis):
        zmax = z.max(axis=axis, keepdims=True)
        return (zmax + np.log(np.exp(z - zmax).sum(axis=axis, keepdims=True))).squeeze(axis)

    for k in range(iters):
        f = eps * (log_a - lse((g[None, :] - cost) / eps, axis=1))
        g = eps * (log_b - lse((f[:, None] - cost) / eps, axis=0))
        plan = np.exp((f[:, None] + g[None, :] - cost) / eps)
        viol = max(np.abs(plan.sum(1) - 1.0 / n).max(),
                   np.abs(plan.sum(0) - 1.0 / m).max())
        if viol < tol:
            break
    if viol > 1e-4:
        raise NoConvergence(f"marginal violation {viol:.2e} after {iters} iters")
    return plan, k + 1


def _assert_matches_loop(cost, eps, iters):
    try:
        want, want_iters = sinkhorn_loop(cost, eps, iters)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            sinkhorn(cost, eps, iters)
        return "no convergence"
    got, info = sinkhorn(cost, eps, iters)
    assert info["iterations"] == want_iters
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    return "converged"


def _layer0_cost(spec, seed_a, seed_b):
    rows = []
    for seed in (seed_a, seed_b):
        e = _ckpt(spec, seed).entries
        rows.append(np.concatenate([e["layers[0].weight"], e["layers[0].bias"][:, None]],
                                   axis=1).astype(np.float64))
    return ((rows[0][:, None, :] - rows[1][None, :, :]) ** 2).sum(axis=-1)


_RNG = np.random.default_rng(12)
_COSTS = {
    "mlp_layer_256": _layer0_cost(MlpSpec((32, 256, 256, 10)), 0, 1),
    "uniform": _RNG.uniform(size=(40, 50)),
    "squared_normal": 3 * _RNG.normal(size=(64, 64)) ** 2,
    "exponential": _RNG.exponential(size=(30, 30)),
}


@pytest.mark.parametrize("iters", [5, 500])
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01, 0.003, 0.001])
@pytest.mark.parametrize("name", sorted(_COSTS))
def test_sinkhorn_matches_log_domain_loop(name, eps, iters):
    _assert_matches_loop(_COSTS[name], eps, iters)


def test_sinkhorn_grid_covers_both_outcomes():
    outcomes = {_assert_matches_loop(_COSTS["uniform"], eps, 500) for eps in (0.01, 0.001)}
    assert outcomes == {"converged", "no convergence"}


def test_sinkhorn_underflow_takes_log_domain_half_steps(monkeypatch):
    # exp(-cost / eps) is 0 on a whole row and a whole column of the kernel
    cost = np.random.default_rng(13).uniform(size=(6, 5))
    cost[:, 2] += 10.0
    cost[3, :] += 10.0
    eps = 0.01
    assert not np.exp(-cost / eps)[:, 2].any() and not np.exp(-cost / eps)[3].any()
    calls = []
    lse = merger._lse
    monkeypatch.setattr(merger, "_lse", lambda z, axis: calls.append(axis) or lse(z, axis))
    assert _assert_matches_loop(cost, eps, 500) == "converged"
    assert set(calls) == {0, 1}


def test_sq_dists_matches_broadcast():
    rng = np.random.default_rng(14)
    x = 100 * rng.normal(size=(20, 9))
    y = np.concatenate([x[::-1], rng.normal(size=(5, 9))])  # exact twins of every x row
    want = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    got = merger._sq_dists(x, y)
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    assert got.min() >= 0.0


# -- permutations --------------------------------------------------------


def _rand_perm(spec, seed):
    rng = np.random.default_rng(seed)
    return Permutation([rng.permutation(w) for w in spec.widths[1:-1]])


def test_permute_preserves_function():
    c = _ckpt(SPEC2, seed=1)
    perm = _rand_perm(SPEC2, 2)
    x = np.random.default_rng(3).normal(size=(16, 3))
    assert np.abs(_logits(SPEC2, c, x)
                  - _logits(SPEC2, permute_model(c, perm), x)).max() < 1e-4


def test_permute_then_inverse_is_identity():
    c = _ckpt(SPEC2, seed=4)
    perm = _rand_perm(SPEC2, 5)
    back = permute_model(permute_model(c, perm),
                         Permutation([np.argsort(m) for m in perm.maps]))
    for p in c.entries:
        assert np.array_equal(back.entries[p], c.entries[p])


def test_permute_rejects_non_bijection():
    c = _ckpt(SPEC, seed=0)
    with pytest.raises(ShapeMismatch, match="map 0 is not a bijection over 8 units"):
        permute_model(c, Permutation([np.zeros(8, dtype=int)]))
    with pytest.raises(ShapeMismatch, match="2 maps for 1 hidden layers"):
        permute_model(c, Permutation([np.arange(8), np.arange(8)]))


@pytest.mark.parametrize("pmap", [np.arange(8.0), np.arange(8) > 3, None],
                         ids=["float", "bool", "none"])
def test_permute_rejects_a_map_that_is_not_an_integer_array(pmap):
    # a float map that holds a bijection's values ended in numpy's IndexError
    with pytest.raises(ShapeMismatch, match="map 0 is not an integer array"):
        permute_model(_ckpt(SPEC, seed=0), Permutation([pmap]))


@pytest.mark.parametrize("call", [
    lambda c: permute_model(c, _rand_perm(SPEC2, 0)),
    lambda c: weight_match(c, c),
    lambda c: ot_fuse(c, c, eps=0.1),
    lambda c: repair(c, (c, c, 0.5), SPEC2, np.zeros((16, 3))),
], ids=["permute_model", "weight_match", "ot_fuse", "repair"])
def test_alignment_of_an_unknown_checkpoint_kind_is_a_config_error(call):
    c = _ckpt(SPEC2, seed=1)
    with pytest.raises(ConfigError, match="unknown model kind 'resnet'"):
        call(Checkpoint("resnet", c.digest, c.entries))


def _mlp_with_a_factor():
    c = _ckpt(SPEC2, seed=1)
    return Checkpoint(c.kind, c.digest, {**c.entries, "lora[0].a": np.ones((2, 3), np.float32)})


def _vit_lora():  # a LoRA run's checkpoint: the model's entries and the factors beside them
    plan = architect.compile_plan(parse_config("(LoRA.adapt):->(blocks[0].mlp.fc1){inout}"), VIT)
    model = architect.apply_plan(VIT, build_model(VIT, seed=1), plan, seed=2)
    return from_params(VIT, model.base, model.extras)


@pytest.mark.parametrize("make, call, named", [
    (_mlp_with_a_factor, lambda c: permute_model(c, _rand_perm(SPEC2, 1)), r"lora\[0\]\.a"),
    (_mlp_with_a_factor, lambda c: weight_match(c, c), r"lora\[0\]\.a"),
    (_mlp_with_a_factor, lambda c: ot_fuse(c, c, eps=0.1), r"lora\[0\]\.a"),
    (_mlp_with_a_factor, lambda c: repair(c, (c, c, 0.5), SPEC2, np.zeros((16, 3))),
     r"lora\[0\]\.a"),
    (_vit_lora, lambda c: repair(c, (c, c, 0.5), VIT, np.zeros((16, 3, 4))),
     r"lora\[0\]\.a, lora\[0\]\.b"),
], ids=["permute_model", "weight_match", "ot_fuse", "repair", "mini_vit_lora"])
def test_alignment_refuses_entries_beside_the_layers(make, call, named):
    # a LoRA factor would not move with the units, so the result would compute
    # another function
    with pytest.raises(SpecMismatch, match=rf"{named.count(',') + 1} other entries \({named}\)"):
        call(make())


def test_weight_match_recovers_permutation():
    c = _ckpt(SPEC2, seed=6)
    perm = _rand_perm(SPEC2, 7)
    moved = permute_model(c, perm)
    found, history = weight_match(c, moved)
    inv = Permutation([np.argsort(m) for m in perm.maps])
    for f, w in zip(found.maps, inv.maps):
        assert np.array_equal(f, w)
    assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))


def test_weight_match_identity_on_self():
    c = _ckpt(SPEC2, seed=8)
    found, _ = weight_match(c, c)
    for m, w in zip(found.maps, SPEC2.widths[1:-1]):
        assert np.array_equal(m, np.arange(w))  # tie prefers identity


def test_ot_fuse_self_is_identity():
    c = _ckpt(SPEC2, seed=9)
    fused, perm = ot_fuse(c, c, eps=0.005, iters=2000)
    for m in perm.maps:
        assert np.array_equal(m, np.arange(m.size))
    for p in c.entries:
        assert np.abs(fused.entries[p] - c.entries[p]).max() < 1e-7


def test_ot_fuse_recovers_permutation():
    c = _ckpt(SPEC2, seed=10)
    perm = _rand_perm(SPEC2, 11)
    moved = permute_model(c, perm)
    fused, found = ot_fuse(c, moved, eps=0.001, iters=3000)
    inv = Permutation([np.argsort(m) for m in perm.maps])
    for f, w in zip(found.maps, inv.maps):
        assert np.array_equal(f, w)
    # fusing a model with its own permutation returns the model
    for p in c.entries:
        assert np.abs(fused.entries[p] - c.entries[p]).max() < 1e-6


def test_ot_fuse_tied_units_give_a_bijection():
    # two identical hidden units: every coupling row ties between them
    ent = {
        "layers[0].weight": np.float32([[1.0], [1.0]]),
        "layers[0].bias": np.float32([0.0, 0.0]),
        "layers[1].weight": np.float32([[1.0, 1.0]]),
        "layers[1].bias": np.float32([0.0]),
    }
    c = Checkpoint("mlp", b"\x02" * 32, ent)
    fused, perm = ot_fuse(c, c.clone(), eps=0.5, iters=200)
    assert sorted(perm.maps[0].tolist()) == [0, 1]
    for p in c.entries:
        assert np.array_equal(fused.entries[p], c.entries[p])


def test_ot_fuse_independent_nets_give_a_bijection():
    spec = MlpSpec((8, 32, 32, 3))
    a, b = _ckpt(spec, seed=0), _ckpt(spec, seed=1)
    plan, _ = sinkhorn(_layer0_cost(spec, 0, 1), eps=0.01, iters=500)
    assert np.unique(plan.argmax(axis=1)).size < 32  # row argmax repeats a column
    fused, perm = ot_fuse(a, b)
    for m in perm.maps:
        assert np.array_equal(np.sort(m), np.arange(32))
    want = uniform_soup([a, permute_model(b, perm)])
    for p in a.entries:
        assert np.array_equal(fused.entries[p], want.entries[p])
    assert [sorted(r) for r in perm.stats] == [
        ["coupling_entropy", "iterations", "marginal_violation"]] * 2
    aligned = merger.ot_align(a, b)  # ot_fuse's permutation, with no soup
    assert all(np.array_equal(m, n) for m, n in zip(aligned.maps, perm.maps))
    assert aligned.stats == perm.stats


@pytest.mark.parametrize("name", ["ot_align", "ot_fuse"])
@pytest.mark.parametrize("kw, words", [
    ({"eps": float("nan"), "iters": 2.5}, "eps must be positive and finite, got nan"),
    ({"eps": 0.0}, "eps must be positive and finite, got 0.0"),
    ({"iters": 2.5}, "iters 2.5 is not a positive integer"),
], ids=["eps_nan_iters_2.5", "eps_0", "iters_2.5"])
def test_ot_checks_eps_and_iters_on_a_net_with_no_hidden_layer(name, kw, words):
    """With no unit group no Sinkhorn solve checks them: eps=nan and
    iters=2.5 returned the plain average with empty maps."""
    c = _ckpt(MlpSpec((4, 3)))
    with pytest.raises(ConfigError, match=re.escape(words)):
        getattr(merger, name)(c, c, **kw)


def test_three_hidden_layers_align_exactly():
    # the middle hidden layer's map meets a permuted layer on both sides
    spec = MlpSpec((3, 6, 5, 7, 2))
    c = _ckpt(spec, seed=13)
    perm = _rand_perm(spec, 14)
    moved = permute_model(c, perm)
    x = np.random.default_rng(15).normal(size=(16, 3))
    assert np.abs(_logits(spec, c, x) - _logits(spec, moved, x)).max() < 1e-12
    inv = [np.argsort(m) for m in perm.maps]
    found, history = weight_match(c, moved)
    assert all(np.array_equal(f, w) for f, w in zip(found.maps, inv))
    assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
    fused, found = ot_fuse(c, moved, eps=0.001, iters=3000)
    assert all(np.array_equal(f, w) for f, w in zip(found.maps, inv))
    for p in c.entries:
        assert np.abs(fused.entries[p] - c.entries[p]).max() < 1e-6


def _vit_ckpt(seed):  # every entry drawn, so no bias or norm is a constant
    rng = np.random.default_rng(seed)
    return _ckpt(VIT).with_entries({p: rng.normal(size=shape)
                                    for p, shape in VIT.param_shapes().items()})


def _vit_perm(seed):
    rng = np.random.default_rng(seed)
    return Permutation([rng.permutation(VIT.mlp_dim) for _ in range(VIT.blocks)])


def test_mini_vit_permutation_keeps_the_logits():
    c = _vit_ckpt(0)
    x = np.random.default_rng(1).normal(size=(8, VIT.seq_len, VIT.input_dim))
    for seed in range(3):
        moved = permute_model(c, _vit_perm(seed))
        assert not np.array_equal(moved.entries["blocks[1].mlp.fc1.weight"],
                                  c.entries["blocks[1].mlp.fc1.weight"])
        assert np.abs(_logits(VIT, c, x) - _logits(VIT, moved, x)).max() < 1e-12
        for p in c.entries:  # the residual stream, attention and head stay in place
            if ".mlp." not in p:
                assert np.array_equal(moved.entries[p], c.entries[p])


def test_mini_vit_alignment_recovers_a_known_permutation():
    c = _vit_ckpt(2)
    perm = _vit_perm(3)
    moved = permute_model(c, perm)
    inv = [np.argsort(m) for m in perm.maps]
    found, history = weight_match(c, moved)
    assert all(np.array_equal(f, w) for f, w in zip(found.maps, inv))
    assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
    fused, found = ot_fuse(c, moved, eps=0.001, iters=3000)
    assert all(np.array_equal(f, w) for f, w in zip(found.maps, inv))
    for p in c.entries:
        assert np.abs(fused.entries[p] - c.entries[p]).max() < 1e-6


# -- permutation consistency property ------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_merge_commutes_with_permutation(seed):
    # soup(P a, P b) == P soup(a, b) for any hidden permutation P
    a, b = _ckpt(SPEC2, seed=seed), _ckpt(SPEC2, seed=seed + 100)
    perm = _rand_perm(SPEC2, seed + 200)
    left = uniform_soup([permute_model(a, perm), permute_model(b, perm)])
    right = permute_model(uniform_soup([a, b]), perm)
    for p in left.entries:
        assert np.abs(left.entries[p] - right.entries[p]).max() < 1e-7


# -- repair --------------------------------------------------------------


def test_repair_matches_target_stats():
    rng = np.random.default_rng(12)
    spec = MlpSpec((4, 16, 3))
    a, b = _ckpt(spec, seed=0), _ckpt(spec, seed=1)
    alpha = 0.5
    interp = wise_ft(b, a, alpha)  # alpha weights endpoint a
    calib = rng.normal(size=(256, 4))
    fixed = repair(interp, (a, b, alpha), spec, calib)
    sa = _preacts(spec, a, calib, "layers[0].preact").std(0)
    sb = _preacts(spec, b, calib, "layers[0].preact").std(0)
    target = alpha * sa + (1 - alpha) * sb
    got = _preacts(spec, fixed, calib, "layers[0].preact").std(0)
    assert (np.abs(got - target) / target).max() < 0.01


def repair_with_traces(interp, endpoints, spec, calib):
    """Reference: REPAIR from the whole preactivation traces of each model."""
    ckpt_a, ckpt_b, alpha = endpoints
    groups, entries = merger._groups(interp)
    hooks = [g[0] for g in groups]

    def preacts(ckpt):
        _, trace = forward(spec, to_params(spec, ckpt), Tensor(calib), hooks)
        return {h: t.data.reshape(-1, t.shape[-1]) for h, t in trace.items()}

    trace_a, trace_b = preacts(ckpt_a), preacts(ckpt_b)
    for hook, site, _ in groups:
        cur = preacts(interp.with_entries(entries))[hook]
        m_t = alpha * trace_a[hook].mean(0) + (1 - alpha) * trace_b[hook].mean(0)
        s_t = alpha * trace_a[hook].std(0) + (1 - alpha) * trace_b[hook].std(0)
        ok = cur.std(0) >= 1e-8
        scale = np.ones_like(s_t)
        scale[ok] = s_t[ok] / cur.std(0)[ok]
        shift = m_t - scale * cur.mean(0)
        w, b = f"{site}.weight", f"{site}.bias"
        entries[w], entries[b] = scale[:, None] * entries[w], scale * entries[b] + shift
    return interp.with_entries(entries)


@pytest.mark.parametrize("spec", [SPEC2, VIT], ids=["mlp", "mini_vit"])
def test_repair_from_statistics_equals_repair_from_traces(spec):
    a, b, alpha = _ckpt(spec, seed=0), _ckpt(spec, seed=1), 0.3
    interp = wise_ft(b, a, alpha)
    shape = (48, 3) if spec is SPEC2 else (48, VIT.seq_len, VIT.input_dim)
    calib = np.random.default_rng(7).normal(size=shape)
    want = repair_with_traces(interp, (a, b, alpha), spec, calib)
    got = repair(interp, (a, b, alpha), spec, calib)
    for p, w in want.entries.items():
        assert np.array_equal(got.entries[p], w), p


def test_mini_vit_repair_meets_the_pooled_target_std():
    a, b = _vit_ckpt(4), _vit_ckpt(5)
    alpha = 0.3
    calib = np.random.default_rng(6).normal(size=(64, VIT.seq_len, VIT.input_dim))
    fixed = repair(wise_ft(b, a, alpha), (a, b, alpha), VIT, calib)
    for i in range(VIT.blocks):  # a block's [n, s, mlp_dim] preacts pool per unit
        hook = f"blocks[{i}].preact"
        sa, sb, got = (_preacts(VIT, c, calib, hook).reshape(-1, VIT.mlp_dim).std(0)
                       for c in (a, b, fixed))
        target = alpha * sa + (1 - alpha) * sb
        assert (np.abs(got - target) / target).max() < 0.01


@pytest.mark.parametrize("alpha", [np.nan, 2.0, -0.5])
def test_repair_refuses_alpha_outside_the_unit_interval(alpha):
    # at nan it returned NaN weights, and at 2 a checkpoint
    spec = MlpSpec((4, 16, 3))
    a, b = _ckpt(spec, seed=0), _ckpt(spec, seed=1)
    with pytest.raises(ConfigError, match=r"alpha .* outside \[0,1\]"):
        repair(uniform_soup([a, b]), (a, b, alpha), spec, np.zeros((16, 4)))


def test_repair_preactivations_record_no_tape(monkeypatch):
    outs, real = [], merger.forward

    def spy(*args):
        outs.append(real(*args))
        return outs[-1]

    monkeypatch.setattr(merger, "forward", spy)
    spec = MlpSpec((4, 16, 3))
    a, b = _ckpt(spec, seed=0), _ckpt(spec, seed=1)
    repair(uniform_soup([a, b]), (a, b, 0.5), spec, np.random.default_rng(0).normal(size=(32, 4)))
    assert len(outs) == 3  # each endpoint, then the merge before its one group
    for _, trace in outs:
        assert set(trace) == {"layers[0].preact"}
        assert all(t._node is None for t in trace.values())


def test_repair_requires_enough_calibration():
    a, b = _ckpt(seed=0), _ckpt(seed=1)
    with pytest.raises(ValueError):
        repair(uniform_soup([a, b]), (a, b, 0.5), SPEC, np.zeros((4, 4)))


# -- prediction mergers --------------------------------------------------


def test_combine_logits_modes():
    l1 = np.array([[2.0, 0.0]])
    l2 = np.array([[0.0, 1.0]])
    assert combine_logits([l1, l2], "logits").tolist() == [[1.0, 0.5]]
    probs = combine_logits([l1, l2], "prob")
    assert abs(probs.sum() - 1.0) < 1e-12
    votes = combine_logits([l1, l2], "vote")
    assert votes.tolist() == [[1, 1]]  # one vote per class
    assert votes.argmax(axis=1).tolist() == [0]  # the tie goes to the lowest class id


def test_combine_logits_validation():
    with pytest.raises(ConfigError, match="no logits to combine"):
        combine_logits([], "logits")
    with pytest.raises(ShapeMismatch, match="models disagree on class count"):
        combine_logits([np.zeros((1, 2)), np.zeros((1, 3))], "logits")
    with pytest.raises(ValueError):
        combine_logits([np.zeros((1, 2))], "nope")
    with pytest.raises(NonFiniteValue):
        combine_logits([np.array([[np.inf, 0.0]]), np.zeros((1, 2))], "prob")


def test_vote_majority():
    rows = [np.array([[0.0, 1.0]]), np.array([[0.0, 2.0]]),
            np.array([[3.0, 0.0]])]
    votes = combine_logits(rows, "vote")
    assert votes.tolist() == [[1, 2]]
    assert votes.argmax(axis=1).tolist() == [1]


# -- report helpers ------------------------------------------------------


def test_permutation_summary_cycles():
    summary = permutation_summary(Permutation([np.array([1, 0, 2])]))
    assert summary == [{"units": 3, "cycles": 2, "fixed_points": 1}]


def test_coupling_entropy_uniform():
    plan = np.full((2, 2), 0.25)
    assert abs(coupling_entropy(plan) - np.log(4)) < 1e-12
