"""Fusion of weights and predictions across trained models.

Weight-space mergers (soups, interpolation, Fisher-weighted averaging,
optimal-transport and permutation alignment, preactivation repair)
operate on checkpoints sharing one spec digest; prediction mergers
combine logits, probabilities, or votes.

The diagonal Fisher (:func:`fisher_estimate`) takes one batched forward
and one per-sample backward for all its samples, not one of each per
sample; its row and label draws replay a per-sample loop's RNG order, so
it equals that loop up to rounding (the loop is the reference in the
tests). It takes checkpoints of the spec's own parameters only; adapter
entries are refused.

OT fusion (:func:`ot_fuse`) solves each layer's entropic problem on a
Gram-form cost by stabilised Sinkhorn scaling (:func:`sinkhorn`), a few
exps per solve rather than three per iteration, and hardens the plan by an
exact assignment, which is always a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import tensor as T
from .checkpoint import Checkpoint, to_params
from .errors import ConfigError, NoConvergence, NonFiniteValue, ShapeMismatch, SpecMismatch
from .models import forward
from .tensor import Tensor

EPS_FLOOR = 1e-12


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
    for p in checkpoints[0].entries:
        out[p] = np.mean([c.entries[p].astype(np.float64) for c in checkpoints],
                         axis=0)
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
    from the model's own predictive distribution. All samples go through one
    forward and one per-sample backward of sum_i log p(y_i | x_i), which yields
    sum_i g_i^2 for every parameter directly. The random draws follow the
    order of a per-sample loop (``integers`` for a row, then ``choice`` for
    its label), so the result equals that loop's up to rounding.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    params = to_params(spec, ckpt)
    extra = sorted(set(ckpt.entries) - set(params.paths()))
    if extra:
        raise SpecMismatch(f"fisher_estimate needs the spec's parameters only; the "
                           f"checkpoint also has {len(extra)} other entries "
                           f"({', '.join(extra[:3])}{', ...' if len(extra) > 3 else ''})")
    x_train, _ = data.split("train")
    if x_train.shape[0] == 0:
        raise ConfigError("fisher_estimate needs a non-empty train split")
    # choice(k, p=...) takes one double whatever p is, so a twin generator
    # that calls random() in its place draws the loop's rows ahead
    ahead = np.random.default_rng(seed)
    idx = np.empty(n_samples, dtype=np.int64)
    for j in range(n_samples):
        idx[j] = ahead.integers(0, x_train.shape[0])
        ahead.random()
    logits, _ = forward(spec, params, Tensor(x_train[idx]))
    probs = T.softmax(logits.detach()).data
    rng = np.random.default_rng(seed)
    labels = np.empty(n_samples, dtype=np.int64)
    for j in range(n_samples):
        rng.integers(0, x_train.shape[0])
        labels[j] = rng.choice(probs.shape[1], p=probs[j])
    logp = T.log_softmax(logits)[(np.arange(n_samples), labels)].sum()
    sq = T.backward(logp, per_sample_sq=True)
    entries = {p: (sq[t.uid].data if t.uid in sq else np.zeros(t.shape)) / n_samples
               for p, t in params.items()}
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
        num = np.zeros(checkpoints[0].entries[p].shape)
        den = np.zeros_like(num)
        plain = np.zeros_like(num)
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
        plain /= sum(lams)
        merged = num / (den + EPS_FLOOR)
        out[p] = np.where(den > 0, merged, plain)
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
    if iters < 1:
        raise ConfigError("iters must be >= 1")
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
            if not 0 < u.min() <= u.max() < np.inf:
                g += eps * np.log(v)
                f = eps * (log_a - _lse((g[None, :] - cost) / eps, axis=1))
                u, v = np.ones(n), np.ones(m)
                kern = kernel()
            v = b / (kern.T @ u)
            if not 0 < v.min() <= v.max() < np.inf:
                f += eps * np.log(u)
                g = eps * (log_b - _lse((f[:, None] - cost) / eps, axis=0))
                u, v = np.ones(n), np.ones(m)
                kern = kernel()
            kv = kern @ v
            if np.abs(u * kv - a).max() < 1e-9:
                break
            if (min(u.min(), v.min()) < 1.0 / ABSORB_TAU
                    or max(u.max(), v.max()) > ABSORB_TAU):
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
    """Per-hidden-layer unit reordering: new slot i takes old unit maps[l][i]."""

    maps: list
    stats: list = field(default_factory=list)  # per-layer records of the search, if kept


def _require_mlp(ckpt: Checkpoint):
    """Layer count of an mlp checkpoint."""
    if ckpt.kind != "mlp":
        raise ConfigError(f"operation defined for mlp models, got {ckpt.kind!r}")
    n = 0
    while f"layers[{n}].weight" in ckpt.entries:
        n += 1
    if n == 0:
        raise ConfigError("checkpoint has no layers[i].weight entries")
    return n


def permute_model(ckpt: Checkpoint, perm: Permutation) -> Checkpoint:
    """Reorder hidden units; the network function is exactly preserved."""
    n_layers = _require_mlp(ckpt)
    if len(perm.maps) != n_layers - 1:
        raise ShapeMismatch(f"{len(perm.maps)} maps for {n_layers - 1} hidden layers")
    out = {p: a.astype(np.float64).copy() for p, a in ckpt.entries.items()}
    for l, pmap in enumerate(perm.maps):
        w = out[f"layers[{l}].weight"]
        if pmap.shape != (w.shape[0],) or sorted(pmap) != list(range(w.shape[0])):
            raise ShapeMismatch(f"map {l} is not a bijection over {w.shape[0]} units")
        out[f"layers[{l}].weight"] = w[pmap, :]
        out[f"layers[{l}].bias"] = out[f"layers[{l}].bias"][pmap]
        out[f"layers[{l + 1}].weight"] = out[f"layers[{l + 1}].weight"][:, pmap]
    return ckpt.with_entries(out)


def _match_objective(a, b, maps, n_layers):
    total = 0.0
    prev = None
    for l in range(n_layers):
        wa = a[f"layers[{l}].weight"].astype(np.float64)
        wb = b[f"layers[{l}].weight"].astype(np.float64)
        if prev is not None:
            wb = wb[:, prev]
        if l < n_layers - 1:
            wb = wb[maps[l], :]
            prev = maps[l]
        total += float((wa * wb).sum())
    return total


def weight_match(ckpt_a: Checkpoint, ckpt_b: Checkpoint, max_sweeps=20):
    """Permutation aligning b's hidden units to a by coordinate descent.

    Each hidden layer solves an exact linear assignment with neighbors
    fixed; sweeps repeat until no layer changes. The trace objective is
    nondecreasing per accepted step; ties prefer the identity map.
    Returns ``(Permutation, per-sweep objective values)``.
    """
    _check_aligned([ckpt_a, ckpt_b])
    n_layers = _require_mlp(ckpt_a)
    a = {p: v.astype(np.float64) for p, v in ckpt_a.entries.items()}
    b = {p: v.astype(np.float64) for p, v in ckpt_b.entries.items()}
    maps = [np.arange(a[f"layers[{l}].weight"].shape[0])
            for l in range(n_layers - 1)]
    history = [_match_objective(a, b, maps, n_layers)]
    for _ in range(max_sweeps):
        changed = False
        for l in range(n_layers - 1):
            prev = maps[l - 1] if l > 0 else None
            wa_l = a[f"layers[{l}].weight"]
            wb_l = b[f"layers[{l}].weight"]
            if prev is not None:
                wb_l = wb_l[:, prev]
            # score[i, j]: benefit of placing b-unit j in slot i
            score = wa_l @ wb_l.T
            wa_n = a[f"layers[{l + 1}].weight"]
            wb_n = b[f"layers[{l + 1}].weight"]
            if l + 1 < n_layers - 1:
                wb_n = wb_n[maps[l + 1], :]
            score += wa_n.T @ wb_n
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
        history.append(_match_objective(a, b, maps, n_layers))
        if not changed:
            break
    return Permutation(maps), history


def _sq_dists(x, y):
    """Squared Euclidean distance from each row of x to each row of y."""
    with np.errstate(over="ignore", invalid="ignore"):  # sinkhorn rejects a non-finite cost
        d = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
    return np.maximum(d, 0.0, out=d)


def ot_fuse(ckpt_a: Checkpoint, ckpt_b: Checkpoint, eps=0.01, iters=500):
    """Align b's units to a via entropic OT on incoming weights, then average.

    Per hidden layer, the cost of pairing two units is the squared distance
    between their incoming weight rows and biases. The :func:`sinkhorn`
    plan is hardened by an exact assignment, ``linear_sum_assignment(-plan)``,
    which is always a bijection. Returns ``(fused checkpoint, Permutation)``;
    the permutation's ``stats`` hold one record per layer: Sinkhorn
    iterations, final marginal violation and the plan's coupling entropy.
    """
    _check_aligned([ckpt_a, ckpt_b])
    n_layers = _require_mlp(ckpt_a)
    a = {p: v.astype(np.float64) for p, v in ckpt_a.entries.items()}
    b = {p: v.astype(np.float64) for p, v in ckpt_b.entries.items()}
    maps, stats = [], []
    prev = None
    for l in range(n_layers - 1):
        wa = a[f"layers[{l}].weight"]
        wb = b[f"layers[{l}].weight"]
        if prev is not None:
            wb = wb[:, prev]
        ba = a[f"layers[{l}].bias"]
        bb = b[f"layers[{l}].bias"]
        rows_a = np.concatenate([wa, ba[:, None]], axis=1)
        rows_b = np.concatenate([wb, bb[:, None]], axis=1)
        plan, record = sinkhorn(_sq_dists(rows_a, rows_b), eps=eps, iters=iters)
        record["coupling_entropy"] = coupling_entropy(plan)
        assign = linear_sum_assignment(-plan)[1]
        maps.append(assign)
        stats.append(record)
        prev = assign
    perm = Permutation(maps, stats)
    aligned_b = permute_model(ckpt_b, perm)
    return uniform_soup([ckpt_a, aligned_b]), perm


# -- REPAIR -------------------------------------------------------------


def _mlp_preacts(spec, ckpt, x):
    params = to_params(spec, ckpt)
    hooks = {f"layers[{i}].preact" for i in range(spec.n_layers - 1)}
    _, trace = forward(spec, params, Tensor(x), hooks)
    return {h: t.data for h, t in trace.items()}


def repair(interp: Checkpoint, endpoints, spec, calib_x, log=None) -> Checkpoint:
    """Per-unit affine correction of an interpolated network.

    Targets are the alpha-weighted endpoint preactivation statistics
    (alpha weights endpoint a). Corrections are folded into the unit's
    weight row and bias, layer by layer, recomputing the corrected
    model's stats as earlier layers change.
    """
    ckpt_a, ckpt_b, alpha = endpoints
    _check_aligned([interp, ckpt_a, ckpt_b])
    if spec.kind != "mlp":
        raise ConfigError("repair is defined for mlp models")
    calib_x = np.asarray(calib_x, dtype=np.float64)
    if calib_x.shape[0] < 16:
        raise ConfigError("calibration batch must have >= 16 samples")
    stats_a = _mlp_preacts(spec, ckpt_a, calib_x)
    stats_b = _mlp_preacts(spec, ckpt_b, calib_x)
    out = {p: v.astype(np.float64) for p, v in interp.entries.items()}
    for l in range(spec.n_layers - 1):
        hook = f"layers[{l}].preact"
        cur = _mlp_preacts(spec, interp.with_entries(out), calib_x)[hook]
        m_t = alpha * stats_a[hook].mean(0) + (1 - alpha) * stats_b[hook].mean(0)
        s_t = alpha * stats_a[hook].std(0) + (1 - alpha) * stats_b[hook].std(0)
        m_c = cur.mean(0)
        s_c = cur.std(0)
        scale = np.ones_like(s_c)
        ok = s_c >= 1e-8  # a unit with less spread gets a shift only
        scale[ok] = s_t[ok] / s_c[ok]
        if not ok.all() and log is not None:
            log(f"layer {l}: {int((~ok).sum())} degenerate units, shift-only")
        shift = m_t - scale * m_c
        out[f"layers[{l}].weight"] = scale[:, None] * out[f"layers[{l}].weight"]
        out[f"layers[{l}].bias"] = scale * out[f"layers[{l}].bias"] + shift
    return interp.with_entries(out)


# -- prediction mergers -------------------------------------------------


def combine_logits(logits_list, mode):
    """Fuse per-model logits: mean logits, mean probabilities, or votes."""
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
    if mode == "vote":
        preds = stack.argmax(axis=-1)  # [models, n]
        n_class = shape[-1]
        counts = np.zeros((preds.shape[1], n_class), dtype=int)
        for row in preds:
            counts[np.arange(row.size), row] += 1
        return counts.argmax(axis=1)  # ties: lowest class id
    raise ConfigError(f"unknown ensemble mode {mode!r}")


def ensemble(models, x, mode="logits"):
    """Run each model on the array x and fuse the outputs; returns class predictions."""
    fused = combine_logits([m.predict(x) for m in models], mode)
    if mode == "vote":
        return fused
    return fused.argmax(axis=-1)


# -- report helpers -----------------------------------------------------


def permutation_summary(perm: Permutation):
    out = []
    for pmap in perm.maps:
        seen = np.zeros(pmap.size, dtype=bool)
        cycles = 0
        fixed = int((pmap == np.arange(pmap.size)).sum())
        for i in range(pmap.size):
            if not seen[i]:
                cycles += 1
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
