"""Fusion of weights and predictions across trained models.

Weight-space mergers (soups, interpolation, Fisher-weighted averaging,
optimal-transport and permutation alignment, preactivation repair)
operate on checkpoints sharing one spec digest; prediction mergers
combine logits, probabilities, or votes.

The diagonal Fisher (:func:`fisher_estimate`) runs its samples in blocks
of about ``_FISHER_BLOCK`` input rows, one batched forward and one
per-sample backward each, so its memory does not grow with the sample
count; its row and label draws replay a per-sample loop's RNG order, so
it equals that loop up to rounding (the loop is the reference in the
tests). It takes checkpoints of the spec's own parameters only; adapter
entries are refused. It is the one reader of gradients here, so it makes
grad leaves of its own from the frozen :func:`checkpoint.to_params` store.
REPAIR keeps per-unit means and deviations, not preactivation traces, and
a soup sums its ingredients into one float64 buffer per entry.

OT alignment (:func:`ot_align`) solves each layer's entropic problem on a
Gram-form cost by stabilised Sinkhorn scaling (:func:`sinkhorn`), a few
exps per solve rather than three per iteration, and hardens the plan by an
exact assignment, which is always a bijection. Weight matching re-solves a
unit group only when another group has changed a map that moves its site
weight or reader since its last solve; a skipped solve would give the same
assignment and decision. scipy's ``linear_sum_assignment`` is imported at
the first assignment, so importing zjkit and the commands that solve none
load no scipy.

Permutation, weight matching, OT alignment and REPAIR work on a checkpoint's
own float64 entries through the unit groups its family declares
(``models.SPECS[kind].unit_group``), one map per group; they refuse adapter
entries, whose root is an ``architect.METHODS`` key.

:data:`RECIPES` maps each ``merger.kind`` of ``zjkit merge`` to one
:class:`Recipe` record: its optional align step, its combine, the
``merger.*`` keys it reads with their defaults (those of the library
parameters they feed), and whether it takes exactly two checkpoints, reads
data or scores under the run's plan. It is the one place a recipe is
registered.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .architect import METHODS
from .checkpoint import Checkpoint, refuse_others, to_params
from .errors import (ConfigError, NoConvergence, NonFiniteValue, ShapeMismatch, SpecMismatch,
                     check_count)
from .models import SPECS, ParamStore, forward
from .tensor import Tensor

EPS_FLOOR = 1e-12
_FISHER_BLOCK = 192  # input rows (samples times tokens) on one fisher_estimate tape


def _check_aligned(checkpoints):
    if not checkpoints:
        raise ConfigError("need at least one checkpoint")
    first = checkpoints[0]
    for c in checkpoints[1:]:
        if c.digest != first.digest or c.kind != first.kind:
            raise SpecMismatch("checkpoints come from different model specs")
        if set(c.entries) != set(first.entries):
            raise SpecMismatch("checkpoints carry different parameter sets")
        for p, a in first.entries.items():
            if c.entries[p].shape != a.shape:
                raise ShapeMismatch(f"{p}: {a.shape} vs {c.entries[p].shape}")


# -- soups and interpolation --------------------------------------------


def uniform_soup(checkpoints) -> Checkpoint:
    """Elementwise arithmetic mean of the input checkpoints."""
    _check_aligned(checkpoints)
    out = {}
    for p, first in checkpoints[0].entries.items():
        # one float64 buffer, summed in order; no stacked copy
        acc = out[p] = first.astype(np.float64)
        for c in checkpoints[1:]:
            acc += c.entries[p]
        acc /= len(checkpoints)
    return checkpoints[0].with_entries(out)


def greedy_soup(checkpoints, val_data, eval_fn):
    """Accuracy-ordered greedy averaging.

    Candidates are tried best-first; one is kept iff the tentative
    average's validation accuracy does not drop below the current
    soup's. Returns ``(soup, ingredients in acceptance order)``.
    """
    _check_aligned(checkpoints)
    scores = [eval_fn(c, val_data) for c in checkpoints]
    order = sorted(range(len(checkpoints)), key=lambda i: (-scores[i], i))
    ingredients = order[:1]
    soup, soup_acc = checkpoints[order[0]], scores[order[0]]
    for idx in order[1:]:
        trial = uniform_soup([checkpoints[i] for i in ingredients + [idx]])
        trial_acc = eval_fn(trial, val_data)
        if trial_acc >= soup_acc:
            ingredients.append(idx)
            soup = trial
            soup_acc = trial_acc
    return soup, ingredients


def wise_ft(ptm: Checkpoint, finetuned: Checkpoint, alpha) -> Checkpoint:
    """(1 - alpha) * pre-trained + alpha * fine-tuned, elementwise."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha {alpha} outside [0,1]")
    _check_aligned([ptm, finetuned])
    if alpha == 0.0:
        return ptm.clone()
    if alpha == 1.0:
        return finetuned.clone()
    out = {p: (1.0 - alpha) * ptm.entries[p].astype(np.float64)
           + alpha * finetuned.entries[p].astype(np.float64)
           for p in ptm.entries}
    return ptm.with_entries(out)


# -- Fisher merging -----------------------------------------------------


@dataclass
class FisherDiag:
    entries: dict = field(default_factory=dict)  # path -> np array >= 0
    indices: np.ndarray = None  # the train rows drawn, in draw order
    labels: np.ndarray = None   # the label each drawn row was scored with

    def mass(self):
        """Path -> sum of the diagonal."""
        return {p: float(a.sum()) for p, a in self.entries.items()}


def fisher_estimate(spec, ckpt: Checkpoint, data, n_samples=64, seed=0) -> FisherDiag:
    """Diagonal Fisher estimate from squared log-likelihood gradients.

    ``n_samples`` train rows are drawn with replacement, and each one's label
    from the model's own predictive distribution. The samples are split
    evenly over ``ceil(n_samples * rows / _FISHER_BLOCK)`` blocks, where
    ``rows`` counts a sample's input rows (a token input has one per token).
    Each block takes one forward and one per-sample backward of
    sum_i log p(y_i | x_i), which yields sum_i g_i^2 for every parameter,
    and the blocks' sums add up; a block's tape is dropped before the next
    one's forward. The random draws follow the order of a per-sample loop
    (``integers`` for a row, then ``choice`` for its label), so the result
    equals that loop's up to rounding.
    """
    n_samples = check_count("n_samples", n_samples)
    params = ParamStore({p: Tensor(t.data, requires_grad=True)  # to_params leaves are frozen
                         for p, t in to_params(spec, ckpt).items()})
    refuse_others(ckpt, params.paths(), "fisher_estimate needs the spec's parameters")
    x_train, _ = data.split("train")
    if x_train.shape[0] == 0:
        raise ConfigError("fisher_estimate needs a non-empty train split")
    # choice(k, p=...) draws one random() and takes the first class whose
    # normalised cumulative p exceeds it, so every draw can come first
    rng = np.random.default_rng(seed)
    idx, u = np.empty(n_samples, dtype=np.int64), np.empty(n_samples)
    for j in range(n_samples):
        idx[j] = rng.integers(0, x_train.shape[0])
        u[j] = rng.random()
    labels = np.empty(n_samples, dtype=np.int64)
    blocks = max(1, -(-n_samples * math.prod(x_train.shape[1:-1]) // _FISHER_BLOCK))
    step = -(-n_samples // blocks)
    sq = {}
    for lo in range(0, n_samples, step):
        rows = slice(lo, lo + step)
        logits, _ = forward(spec, params, Tensor(x_train[idx[rows]]))
        cdf = np.cumsum(T.softmax(logits.detach()).data, axis=1)
        labels[rows] = (cdf / cdf[:, -1:] <= u[rows, None]).sum(1)
        logp = T.log_softmax(logits)[(np.arange(cdf.shape[0]), labels[rows])].sum()
        for uid, g in T.backward(logp, per_sample_sq=True).items():
            sq[uid] = sq[uid] + g if uid in sq else g
        del logits, logp  # this block's tape goes before the next forward
    entries = {p: sq.get(t.uid, np.zeros(t.shape)) / n_samples for p, t in params.items()}
    return FisherDiag(entries, idx, labels)


def fisher_merge(checkpoints, fishers, lams=None) -> Checkpoint:
    """Precision-weighted average: theta* = sum(l F theta) / sum(l F).

    Elements where every Fisher is zero fall back to the plain
    lambda-weighted average.
    """
    _check_aligned(checkpoints)
    if lams is None:
        lams = [1.0] * len(checkpoints)
    if len(lams) != len(checkpoints):
        raise ConfigError(f"{len(lams)} lambdas for {len(checkpoints)} checkpoints")
    if not all(0 <= l < np.inf for l in lams) or sum(lams) <= 0:
        raise ConfigError("need finite nonnegative lambdas with positive sum")
    if len(fishers) != len(checkpoints):
        raise ShapeMismatch("one Fisher per checkpoint required")
    out = {}
    for p in checkpoints[0].entries:
        num, den, plain = (np.zeros(checkpoints[0].entries[p].shape) for _ in range(3))
        for c, f, l in zip(checkpoints, fishers, lams):
            if p not in f.entries:
                raise ShapeMismatch(f"fisher has no entry for checkpoint path {p}")
            fe = f.entries[p]
            if fe.shape != num.shape:
                raise ShapeMismatch(f"fisher shape mismatch at {p}")
            theta = c.entries[p].astype(np.float64)
            num += l * fe * theta
            den += l * fe
            plain += l * theta
        out[p] = np.where(den > 0, num / (den + EPS_FLOOR), plain / sum(lams))
    return checkpoints[0].with_entries(out)


# -- optimal transport --------------------------------------------------


#: A scaling leaving [1/ABSORB_TAU, ABSORB_TAU] is absorbed into its potential.
ABSORB_TAU = 1e3


def _lse(z, axis):
    zmax = z.max(axis=axis, keepdims=True)
    return (zmax + np.log(np.exp(z - zmax).sum(axis=axis, keepdims=True))).squeeze(axis)


def sinkhorn(cost, eps, iters):
    """Entropic OT plan with uniform marginals, by stabilised scaling.

    The potentials ``f, g`` live in a kernel ``K = exp((f + g - cost) / eps)``
    and each iteration scales it by two matrix-vector products,
    ``u = a / (K v)`` then ``v = b / (K^T u)``, so the iterates are the
    log-domain ones up to rounding. ``eps log u`` and ``eps log v`` are
    absorbed into ``f, g`` (one exp) only when a scaling leaves
    ``[1/ABSORB_TAU, ABSORB_TAU]`` (Schmitzer, arXiv:1610.06519). Where the
    kernel underflows, so that ``K v`` or ``K^T u`` has a zero (small
    ``eps``), that half-step is taken in the log domain instead. The loop
    stops once the row marginal ``u * K v`` is within 1e-9 of uniform;
    the plan is built once, at the end.

    Returns ``(plan, {"iterations", "marginal_violation"})``. Raises
    ``NoConvergence`` if the final violation exceeds 1e-4 or is NaN.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if not np.all(np.isfinite(cost)):
        raise NonFiniteValue("cost matrix contains NaN/Inf")
    if not (np.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be positive and finite, got {eps}")
    iters = check_count("iters", iters)
    n, m = cost.shape
    log_a = np.full(n, -np.log(n))
    log_b = np.full(m, -np.log(m))
    a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    f, g = np.zeros(n), np.zeros(m)
    u, v = np.ones(n), np.ones(m)

    def kernel():
        return np.exp((f[:, None] + g[None, :] - cost) / eps)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kern = kernel()
        kv = kern.sum(axis=1)
        for k in range(1, iters + 1):
            u = a / kv
            u_lo, u_hi = u.min(), u.max()
            if not 0 < u_lo <= u_hi < np.inf:
                g += eps * np.log(v)
                f = eps * (log_a - _lse((g[None, :] - cost) / eps, axis=1))
                u, v = np.ones(n), np.ones(m)
                u_lo = u_hi = 1.0
                kern = kernel()
            v = b / (kern.T @ u)
            v_lo, v_hi = v.min(), v.max()
            if not 0 < v_lo <= v_hi < np.inf:
                f += eps * np.log(u)
                g = eps * (log_b - _lse((f[:, None] - cost) / eps, axis=0))
                u, v = np.ones(n), np.ones(m)
                u_lo = u_hi = v_lo = v_hi = 1.0
                kern = kernel()
            kv = kern @ v
            if np.abs(u * kv - a).max() < 1e-9:
                break
            if min(u_lo, v_lo) < 1.0 / ABSORB_TAU or max(u_hi, v_hi) > ABSORB_TAU:
                f += eps * np.log(u)
                g += eps * np.log(v)
                u, v = np.ones(n), np.ones(m)
                kern = kernel()
                kv = kern.sum(axis=1)
        f += eps * np.log(u)
        g += eps * np.log(v)
        plan = kernel()
    viol = max(np.abs(plan.sum(1) - a).max(), np.abs(plan.sum(0) - b).max())
    if not viol <= 1e-4:
        raise NoConvergence(f"marginal violation {viol:.2e} after {k} iters")
    return plan, {"iterations": k, "marginal_violation": float(viol)}


# -- permutations -------------------------------------------------------


@dataclass
class Permutation:
    """Per-group unit reordering: new slot i takes old unit maps[g][i]."""

    maps: list
    stats: list = field(default_factory=list)  # per-group records of the search, if kept


def _groups(ckpt: Checkpoint):
    """The unit groups that ``ckpt``'s entries hold, and the entries as float64.
    Adapter entries would not move with the units, so they are refused."""
    spec = SPECS.get(ckpt.kind)
    if spec is None:
        raise ConfigError(f"unknown model kind {ckpt.kind!r}")
    refuse_others(ckpt, [p for p in ckpt.entries if re.split(r"[.[]", p)[0] not in METHODS],
                  "permutation, alignment and repair read the model's own entries")
    groups = []
    while (group := spec.unit_group(len(groups)))[2] in ckpt.entries:
        groups.append(group)
    return groups, {p: a.astype(np.float64) for p, a in ckpt.entries.items()}


def _permuted(entries, groups, maps):
    """Each map on its group's site rows and bias and on its reader's columns.
    ``maps`` may cover only the first groups; a ``None`` map moves nothing."""
    out = dict(entries)
    for (_, site, reader), pmap in zip(groups, maps):
        if pmap is not None:
            for p in (f"{site}.weight", f"{site}.bias"):
                out[p] = out[p][pmap]
            out[reader] = out[reader][:, pmap]
    return out


def permute_model(ckpt: Checkpoint, perm: Permutation) -> Checkpoint:
    """Reorder each group's units; the network function is exactly preserved."""
    groups, entries = _groups(ckpt)
    if len(perm.maps) != len(groups):
        raise ShapeMismatch(f"{len(perm.maps)} maps for {len(groups)} hidden layers")
    maps = [np.asarray(m) for m in perm.maps]
    for l, (pmap, (_, site, _)) in enumerate(zip(maps, groups)):
        units = entries[f"{site}.bias"].shape[0]
        if pmap.dtype.kind not in "iu":
            raise ShapeMismatch(f"map {l} is not an integer array but {pmap.dtype}")
        if pmap.shape != (units,) or not np.array_equal(np.sort(pmap), np.arange(units)):
            raise ShapeMismatch(f"map {l} is not a bijection over {units} units")
    return ckpt.with_entries(_permuted(entries, groups, maps))


def weight_match(ckpt_a: Checkpoint, ckpt_b: Checkpoint, max_sweeps=20):
    """Permutation aligning b's units to a by coordinate descent.

    Each group solves an exact linear assignment on its site and reader
    weights, others fixed; sweeps repeat until no group changes. The trace
    objective over the moved weights is nondecreasing per accepted step;
    ties prefer the identity map.
    Returns ``(Permutation, per-sweep objective values)``.
    """
    max_sweeps = check_count("max_sweeps", max_sweeps, least=0)
    _check_aligned([ckpt_a, ckpt_b])
    from scipy.optimize import linear_sum_assignment  # loaded at the first solve, not with zjkit

    (groups, a), (_, b) = _groups(ckpt_a), _groups(ckpt_b)
    reads = [(f"{site}.weight", reader) for _, site, reader in groups]  # of b, by a group's score
    moved = dict.fromkeys(p for pair in reads for p in pair)
    # readers[k]: the other groups whose score map k moves (an MLP's neighbours, no mini-ViT group)
    readers = [[l for l, pair in enumerate(reads)
                if l != k and {f"{site}.bias", *reads[k]}.intersection(pair)]
               for k, (_, site, _) in enumerate(groups)]
    stale = [True] * len(groups)  # score may differ from the group's last solve

    def objective(maps):
        b_maps = _permuted(b, groups, maps)
        return sum(float((a[p] * b_maps[p]).sum()) for p in moved)

    maps = [np.arange(a[f"{site}.bias"].shape[0]) for _, site, _ in groups]
    history = [objective(maps)]
    for _ in range(max_sweeps):
        changed = False
        for l, (_, site, reader) in enumerate(groups):
            if not stale[l]:  # same score as its last solve, so the same decision
                continue
            stale[l] = False
            # score[i, j]: benefit of placing b-unit j in slot i, b under every
            # map but this group's
            b_others = _permuted(b, groups, maps[:l] + [None] + maps[l + 1:])
            score = a[f"{site}.weight"] @ b_others[f"{site}.weight"].T
            score += a[reader].T @ b_others[reader]
            rows, cols = linear_sum_assignment(-score)
            cand = cols[np.argsort(rows)]
            cur_val = float(score[np.arange(score.shape[0]), maps[l]].sum())
            new_val = float(score[np.arange(score.shape[0]), cand].sum())
            ident_val = float(np.trace(score))
            if ident_val >= new_val - 1e-12:
                cand, new_val = np.arange(score.shape[0]), ident_val
            if new_val > cur_val + 1e-12 and not np.array_equal(cand, maps[l]):
                maps[l] = cand
                changed = True
                for k in readers[l]:
                    stale[k] = True
        history.append(objective(maps))
        if not changed:
            break
    return Permutation(maps), history


def _sq_dists(x, y):
    """Squared Euclidean distance from each row of x to each row of y."""
    with np.errstate(over="ignore", invalid="ignore"):  # sinkhorn rejects a non-finite cost
        d = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
    return np.maximum(d, 0.0, out=d)


def ot_align(ckpt_a: Checkpoint, ckpt_b: Checkpoint, eps=0.01, iters=500) -> Permutation:
    """Permutation aligning b's units to a by entropic OT on incoming weights.

    Per group, the cost of pairing two units is the squared distance between
    their ``[weight | bias]`` rows at the group's site. The :func:`sinkhorn`
    plan is hardened by an exact assignment, ``linear_sum_assignment(-plan)``,
    which is always a bijection. Its ``stats`` hold one record per group: Sinkhorn
    iterations, final marginal violation and the plan's coupling entropy.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be positive and finite, got {eps}")
    iters = check_count("iters", iters)
    _check_aligned([ckpt_a, ckpt_b])
    from scipy.optimize import linear_sum_assignment  # loaded at the first solve, not with zjkit

    (groups, a), (_, b) = _groups(ckpt_a), _groups(ckpt_b)
    maps, stats = [], []
    for _, site, _ in groups:
        # b's rows under the maps found so far, which move an MLP site's columns
        rows_a, rows_b = (np.concatenate([e[f"{site}.weight"], e[f"{site}.bias"][:, None]], 1)
                          for e in (a, _permuted(b, groups, maps)))
        plan, record = sinkhorn(_sq_dists(rows_a, rows_b), eps=eps, iters=iters)
        record["coupling_entropy"] = coupling_entropy(plan)
        maps.append(linear_sum_assignment(-plan)[1])
        stats.append(record)
    return Permutation(maps, stats)


def ot_fuse(ckpt_a: Checkpoint, ckpt_b: Checkpoint, eps=0.01, iters=500):
    """The mean of a and b aligned by :func:`ot_align`, and the permutation."""
    perm = ot_align(ckpt_a, ckpt_b, eps, iters)
    return uniform_soup([ckpt_a, permute_model(ckpt_b, perm)]), perm


# -- REPAIR -------------------------------------------------------------


def repair(interp: Checkpoint, endpoints, spec, calib_x, log=None) -> Checkpoint:
    """Per-unit affine correction of an interpolated network.

    Targets are the alpha-weighted endpoint statistics at each group's preact
    hook (alpha weights endpoint a; a token hook's rows pool per unit), folded
    into the site's weight rows and bias group by group, recomputing the
    corrected model's stats as earlier groups change.
    """
    ckpt_a, ckpt_b, alpha = endpoints
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha {alpha} outside [0,1]")
    _check_aligned([interp, ckpt_a, ckpt_b])
    groups, entries = _groups(interp)
    calib = Tensor(np.asarray(calib_x, dtype=np.float64))
    if calib.shape[0] < 16:
        raise ConfigError("calibration batch must have >= 16 samples")

    def stats(ckpt, hooks):
        """Per-unit (mean, std) at each of ``hooks``, not the traces."""
        _, trace = forward(spec, to_params(spec, ckpt), calib, hooks)
        return {h: (a.mean(0), a.std(0)) for h, t in trace.items()
                for a in (t.data.reshape(-1, t.shape[-1]),)}

    hooks = [g[0] for g in groups]
    stats_a, stats_b = stats(ckpt_a, hooks), stats(ckpt_b, hooks)
    for l, (hook, site, _) in enumerate(groups):
        (m_a, s_a), (m_b, s_b) = stats_a[hook], stats_b[hook]
        m_t = alpha * m_a + (1 - alpha) * m_b
        s_t = alpha * s_a + (1 - alpha) * s_b
        m_c, s_c = stats(interp.with_entries(entries), [hook])[hook]
        scale = np.ones_like(s_c)
        ok = s_c >= 1e-8  # a unit with less spread gets a shift only
        scale[ok] = s_t[ok] / s_c[ok]
        if not ok.all() and log is not None:
            log(f"layer {l}: {int((~ok).sum())} degenerate units, shift-only")
        shift = m_t - scale * m_c
        w, b = f"{site}.weight", f"{site}.bias"
        entries[w], entries[b] = scale[:, None] * entries[w], scale * entries[b] + shift
    return interp.with_entries(entries)


# -- recipe table -------------------------------------------------------


@dataclass(frozen=True)
class Recipe:
    """One ``merger.kind`` of ``zjkit merge``.

    ``combine(ckpts, run)`` returns the merged checkpoint. ``align(a, b, run)``,
    if set, runs first: it returns the :class:`Permutation` that puts b's
    units onto a's and adds its own field to ``run.report``. ``keys`` maps
    each ``merger.<key>`` the recipe reads to its default, whose type the
    run-config value takes (a tuple: a comma list of floats). ``pair``: it
    takes exactly two checkpoints; ``data``: it reads ``data.source``;
    ``plan``: it scores checkpoints under ``architect.config``. ``run``
    carries the ``spec``, ``data``, ``seed``, each key's value, the
    ingredients' ``names``, the ``report`` dict, ``accuracy(ckpt, (x, y))``
    under the plan and a stderr ``log``.
    """
    combine: object
    align: object = None
    keys: dict = field(default_factory=dict)
    pair: bool = False
    data: bool = False
    plan: bool = False


def _soup(ckpts, run):
    return uniform_soup(ckpts)


def _greedy(ckpts, run):
    merged, order = greedy_soup(ckpts, run.data.split("val"), run.accuracy)
    run.report["accepted"] = [run.names[i] for i in order]
    return merged


def _fisher(ckpts, run):
    fishers = [fisher_estimate(run.spec, c, run.data, run.samples, run.seed + i)
               for i, c in enumerate(ckpts)]
    run.report["fisher_mass"] = [f.mass() for f in fishers]
    return fisher_merge(ckpts, fishers, run.lams or None)


def _ot(a, b, run):
    perm = ot_align(a, b, run.eps, run.iters)
    run.report["sinkhorn"] = perm.stats
    return perm


def _matched(a, b, run):
    perm, run.report["objective"] = weight_match(a, b, run.sweeps)
    return perm


RECIPES = {
    "uniform_soup": Recipe(_soup),
    "greedy_soup": Recipe(_greedy, data=True, plan=True),
    "wise_ft": Recipe(lambda ckpts, run: wise_ft(*ckpts, run.alpha), keys={"alpha": 0.5},
                      pair=True),
    "fisher": Recipe(_fisher, keys={"samples": 64, "lams": ()}, data=True),
    "ot_fusion": Recipe(_soup, _ot, {"eps": 0.01, "iters": 500}, pair=True),
    "git_rebasin": Recipe(_soup, _matched, {"sweeps": 20}, pair=True),
    # alpha weights b', as in wise_ft; REPAIR calibrates on the first 256 train rows
    "repair": Recipe(lambda ckpts, run: repair(
        wise_ft(*ckpts, run.alpha), (*ckpts, 1.0 - run.alpha), run.spec,
        run.data.split("train")[0][:256], log=run.log),
        _matched, {"alpha": 0.5, "sweeps": 20}, pair=True, data=True),
}


# -- prediction mergers -------------------------------------------------


def combine_logits(logits_list, mode):
    """Fuse per-model logits into ``[n, classes]`` scores: mean logits, mean
    probabilities, or vote counts."""
    if not logits_list:
        raise ConfigError("no logits to combine")
    shape = np.asarray(logits_list[0]).shape
    for lg in logits_list:
        if np.asarray(lg).shape != shape:
            raise ShapeMismatch("models disagree on class count")
    stack = np.stack([np.asarray(lg, dtype=np.float64) for lg in logits_list])
    if mode == "logits":
        return stack.mean(axis=0)
    if mode == "prob":
        return T.softmax(Tensor(stack)).data.mean(axis=0)
    if mode == "vote":  # [n, classes] counts of the models' argmax
        return (stack.argmax(axis=-1)[..., None] == np.arange(shape[-1])).sum(axis=0)
    raise ConfigError(f"unknown ensemble mode {mode!r}")


def ensemble(models, x, mode="logits"):
    """Run each model on the array x and fuse the outputs; returns class
    predictions, a tie going to the lowest class."""
    return combine_logits([m.predict(x) for m in models], mode).argmax(axis=-1)


# -- report helpers -----------------------------------------------------


def permutation_summary(perm: Permutation):
    out = []
    for pmap in perm.maps:
        seen, cycles = np.zeros(pmap.size, dtype=bool), 0
        fixed = int((pmap == np.arange(pmap.size)).sum())
        for i in range(pmap.size):
            cycles += not seen[i]
            j = i
            while not seen[j]:
                seen[j] = True
                j = pmap[j]
        out.append({"units": int(pmap.size), "cycles": cycles,
                    "fixed_points": fixed})
    return out


def coupling_entropy(plan):
    p = np.asarray(plan, dtype=np.float64).reshape(-1)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())
