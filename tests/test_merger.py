"""Merger: soups, interpolation, Fisher, OT/permutation alignment, REPAIR."""

import dataclasses
import inspect

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
from zjkit.models import MlpSpec, build_model, forward
from zjkit.tensor import Tensor

SPEC = MlpSpec((4, 8, 3))
SPEC2 = MlpSpec((3, 6, 6, 2))  # 2 hidden layers


def _ckpt(spec=SPEC, seed=0):
    return from_params(spec, build_model(spec, seed=seed))


def _logits(spec, ckpt, x):
    out, _ = forward(spec, to_params(spec, ckpt), Tensor(x))
    return out.data


# -- soups ---------------------------------------------------------------


def test_uniform_soup_mean_oracle():
    a, b = _ckpt(seed=0), _ckpt(seed=1)
    soup = uniform_soup([a, b])
    for p in a.entries:
        want = (a.entries[p].astype(np.float64)
                + b.entries[p].astype(np.float64)) / 2
        assert np.abs(soup.entries[p] - want).max() < 1e-7


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


def test_permute_requires_mlp():
    from zjkit.models import MiniVitSpec
    vit = MiniVitSpec(dim=8, blocks=1, heads=2, mlp_dim=16, classes=2,
                      seq_len=2, input_dim=4)
    c = from_params(vit, build_model(vit))
    with pytest.raises(ConfigError, match="operation defined for mlp models, got 'mini_vit'"):
        permute_model(c, Permutation([np.arange(8)]))


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
    sa = merger._mlp_preacts(spec, a, calib)["layers[0].preact"].std(0)
    sb = merger._mlp_preacts(spec, b, calib)["layers[0].preact"].std(0)
    target = alpha * sa + (1 - alpha) * sb
    got = merger._mlp_preacts(spec, fixed, calib)["layers[0].preact"].std(0)
    assert (np.abs(got - target) / target).max() < 0.01


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
    assert votes.tolist() == [0]  # 1-1 tie resolves to lowest class id


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
    assert combine_logits(rows, "vote").tolist() == [1]


# -- report helpers ------------------------------------------------------


def test_permutation_summary_cycles():
    summary = permutation_summary(Permutation([np.array([1, 0, 2])]))
    assert summary == [{"units": 3, "cycles": 2, "fixed_points": 1}]


def test_coupling_entropy_uniform():
    plan = np.full((2, 2), 0.25)
    assert abs(coupling_entropy(plan) - np.log(4)) < 1e-12
