"""Training with pre-trained-model supervision and regularization.

The objective is a weighted sum of a task loss, optional distillation
terms against a frozen teacher (KL on softened predictions, NCM-teacher
logits, hidden-state matching, flow matrices, relational structure), and
weight/feature regularizers (L2, anchor-to-start, spectral norm, batch
spectral shrinkage). Each loss or regularizer kind is one record in
:data:`TERMS`: its evaluator, hooks, the keys it reads with their
defaults, and its setup before the first minibatch. Each optimizer is one
update rule in :data:`OPTIMIZERS`, kept with a state per trained tensor.

:func:`epochs` is the one training loop: a generator that trains an epoch
per step and yields its history entry, with the model frozen, so a
consumer can keep or check each finished epoch. :func:`train` is that loop
run to the end, plus the checkpoint of the trained store.
"""

from __future__ import annotations

import math
import numbers
from collections import defaultdict
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import checkpoint as ckpt_mod
from . import tensor as T
from .architect import AdaptedModel, full_plan
from .errors import ConfigError, ShapeMismatch, check_count
from .linalg import spectral_norm, thin_svd
from .models import ParamStore, init_param
from .tensor import Tensor

# -- loss terms ---------------------------------------------------------


def _check_labels(labels, c):
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= c):
        raise ConfigError(f"labels must be in [0,{c})")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class, one node.

    Bit-identical in value and gradient to the chain
    ``-log_softmax(logits)[rows, labels].mean()``."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or 0 in logits.shape:  # a mean over rows, each row's softmax
        raise ShapeMismatch(f"cross_entropy needs [n>0, c>0] logits, got {logits.shape}")
    n, c = logits.shape
    _check_labels(labels, c)
    rows = np.arange(n)
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    inv_n = 1.0 / n

    def dlogits(g):
        d = np.zeros((n, c))
        d[rows, labels] += g * -1.0 * inv_n  # distinct rows: the sums np.add.at gave
        r = np.exp(logp)
        r *= d.sum(axis=-1, keepdims=True)
        np.subtract(d, r, out=r)
        return r

    return T.custom_op([logits], logp[rows, labels].sum() * inv_n * -1.0, [dlogits])


def kd_kl(student_logits: Tensor, teacher_logits, temperature=1.0) -> Tensor:
    """T^2-scaled mean KL between softened teacher and student rows."""
    t = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    if student_logits.shape != t.shape:
        raise ShapeMismatch(f"{student_logits.shape} vs {t.shape}")
    pt = T.softmax(Tensor(t), temperature).data
    log_pt = np.log(np.maximum(pt, 1e-300))
    log_ps = T.log_softmax(student_logits, temperature)
    n = student_logits.shape[0]
    if student_logits.ndim != 2 or not n:  # a mean over rows
        raise ShapeMismatch(f"kd_kl needs [n>0, c] logits, got {student_logits.shape}")
    ent = float((pt * log_pt).sum()) / n
    cross = (Tensor(pt) * log_ps).sum().scale(1.0 / n)
    kl = cross.scale(-1.0) + ent
    return kl.scale(temperature**2)


def fit_class_means(features, labels, n_classes):
    """Per-class feature means; raises ConfigError for unseen classes."""
    feats = features.data if isinstance(features, Tensor) else np.asarray(features)
    labels = np.asarray(labels)
    means = np.zeros((n_classes, feats.shape[1]))
    for c in range(n_classes):
        mask = labels == c
        if not mask.any():
            raise ConfigError(f"class {c} has no samples")
        means[c] = feats[mask].mean(axis=0)
    return means


def ncm_teacher_logits(teacher_features, class_means, tau=1.0) -> Tensor:
    """Negative squared distance to class means, scaled by 1/tau."""
    if tau <= 0:
        raise ConfigError("tau must be positive")
    f = teacher_features.data if isinstance(teacher_features, Tensor) else np.asarray(teacher_features)
    mu = class_means.data if isinstance(class_means, Tensor) else np.asarray(class_means)
    d2 = ((f[:, None, :] - mu[None, :, :]) ** 2).sum(axis=-1)
    return Tensor(-d2 / tau)


def _flatten_feature(t: Tensor) -> Tensor:
    """A ``[n, s, d]`` token hook as ``n*s`` rows of width ``d`` (FitNet, FSP)."""
    if t.ndim == 2:
        return t
    return t.reshape(-1, t.shape[-1])


def _sample_rows(t: Tensor) -> Tensor:
    """One row per sample, a token hook's tokens side by side: RKD relates
    samples, and an NCM teacher keeps one mean per class."""
    return t if t.ndim == 2 else t.reshape(t.shape[0], -1)


def fitnet_loss(student_trace, teacher_trace, pairs, projectors=None) -> Tensor:
    """MSE between paired hidden states, optionally after a learned map.

    ``projectors`` maps a (student hook, teacher hook) pair to a linear
    projection tensor of shape [teacher width, student width]; required
    exactly when widths differ.
    """
    if not pairs:
        raise ConfigError("fitnet needs (student hook, teacher hook) pairs")
    projectors = projectors or {}
    total = None
    for s_hook, t_hook in pairs:
        if s_hook not in student_trace:
            raise ConfigError(f"student hook {s_hook!r} not captured")
        if t_hook not in teacher_trace:
            raise ConfigError(f"teacher hook {t_hook!r} not captured")
        s = _flatten_feature(student_trace[s_hook])
        t = _flatten_feature(teacher_trace[t_hook]).detach()
        proj = projectors.get((s_hook, t_hook))
        if s.shape[-1] != t.shape[-1] and proj is None:
            raise ShapeMismatch(
                f"widths {s.shape[-1]} vs {t.shape[-1]} need a projector")
        if proj is not None:
            s = T.matmul(s, proj.T)
        if s.shape != t.shape:
            raise ShapeMismatch(f"{s.shape} vs {t.shape}")
        term = (s - t).square().mean()
        total = term if total is None else total + term
    return total.scale(1.0 / len(pairs))


def _fsp_matrix(a1: Tensor, a2: Tensor) -> Tensor:
    if a1.shape[0] != a2.shape[0]:
        raise ShapeMismatch(f"batch {a1.shape[0]} vs {a2.shape[0]}")
    n = a1.shape[0]
    return T.matmul(a1.T, a2).scale(1.0 / n)


def fsp_loss(student_pairs, teacher_pairs) -> Tensor:
    """Frobenius gap between flow matrices of paired layer couples."""
    if not student_pairs or len(student_pairs) != len(teacher_pairs):
        raise ShapeMismatch(f"fsp pairs: {len(student_pairs)} student vs "
                            f"{len(teacher_pairs)} teacher, need the same positive count")
    total = None
    for (s1, s2), (t1, t2) in zip(student_pairs, teacher_pairs):
        gs = _fsp_matrix(_flatten_feature(s1), _flatten_feature(s2))
        gt = _fsp_matrix(_flatten_feature(t1), _flatten_feature(t2)).detach()
        d1, d2 = gs.shape
        if gt.shape != (d1, d2):
            raise ShapeMismatch(f"{gs.shape} vs {gt.shape}")
        term = (gs - gt).square().sum().scale(1.0 / (d1 * d2))
        total = term if total is None else total + term
    return total.scale(1.0 / len(student_pairs))


def _huber(x: Tensor) -> Tensor:
    """Elementwise Huber loss with threshold 1."""
    a = x.abs()
    small = (a.data <= 1.0).astype(np.float64)
    quad = x.square().scale(0.5)
    return quad * Tensor(small) + (a - 0.5) * Tensor(1.0 - small)


def _pairwise_dist(e: Tensor):
    n = e.shape[0]
    i_idx, j_idx = np.triu_indices(n, 1)
    sq = (e.reshape(n, 1, e.shape[1]) - e.reshape(1, n, e.shape[1])).square().sum(axis=-1)
    return sq[(i_idx, j_idx)].sqrt()


def rkd_loss(student_emb: Tensor, teacher_emb, mode="dist") -> Tensor:
    """Relational distillation over pairwise distances or triplet angles,
    under a Huber loss with threshold 1."""
    t = teacher_emb.detach() if isinstance(teacher_emb, Tensor) else Tensor(teacher_emb)
    n = student_emb.shape[0]
    if mode == "dist":
        if n < 2:
            raise ShapeMismatch("rkd dist needs n >= 2")
        ds = _pairwise_dist(student_emb)
        dt = _pairwise_dist(t)
        mu_s, mu_t = ds.mean(), dt.mean()
        if mu_s.item() == 0.0 or mu_t.item() == 0.0:
            raise ConfigError("all embeddings coincide")
        return _huber(ds / mu_s - (dt / mu_t).detach()).mean()
    if mode != "angle":
        raise ConfigError(f"unknown rkd mode {mode!r}")
    if n < 3:
        raise ShapeMismatch("rkd angle needs n >= 3")

    def angles(e):
        d = e.shape[1]
        diff = e.reshape(1, n, d) - e.reshape(n, 1, d)  # diff[j, i] = e_i - e_j
        sq = diff.square().sum(axis=-1)
        eye = np.eye(n)
        norm = (sq + Tensor(eye)).sqrt()
        unit = diff / norm.reshape(n, n, 1)
        cos = T.matmul(unit, unit.transpose(0, 2, 1))  # [j, i, k]
        j, i, k = np.meshgrid(range(n), range(n), range(n), indexing="ij")
        keep = (i != j) & (k != j) & (i != k)
        return cos[(j[keep], i[keep], k[keep])]

    return _huber(angles(student_emb) - angles(t).detach()).mean()


# -- regularizers -------------------------------------------------------


def weight_reg(trainable, ref=None, kind="l2", exclude=()) -> Tensor:
    """0.5 * sum ||w||^2 (l2) or 0.5 * sum ||w - w0||^2 (l2_sp).

    ``trainable`` is an iterable of (path, Tensor); for l2_sp, paths
    absent from ``ref`` (new parameters, task head) are skipped.
    """
    if kind not in ("l2", "l2_sp"):
        raise ConfigError(f"unknown weight reg {kind!r}")
    if kind == "l2_sp" and ref is None:
        raise ConfigError("l2_sp needs a reference store")
    total = None
    for path, w in trainable:
        if path in exclude or (kind == "l2_sp" and path not in ref):
            continue
        if kind == "l2_sp":
            w0 = ref.get(path)
            if w0.shape != w.shape:
                raise ShapeMismatch(f"{path}: {w.shape} vs ref {w0.shape}")
            w = w - w0.detach()
        term = w.square().sum()
        total = term if total is None else total + term
    return Tensor(0.0) if total is None else total.scale(0.5)


def spectral_penalty(trainable, iters) -> Tensor:
    """Sum of squared largest singular values over 2-D weights, each by
    ``iters`` steps of power iteration from seed 0.

    Singular vectors are treated as locally constant, so the gradient of
    sigma^2 w.r.t. W is 2 sigma u v^T.
    """
    iters = check_count("iters", iters)  # also with no 2-D weight to iterate on
    total = None
    for path, w in trainable:
        if w.ndim != 2:
            raise ShapeMismatch(f"{path} has shape {w.shape}")
        sigma, u, v = spectral_norm(w.data, iters=iters)
        outer = 2.0 * sigma * np.outer(u, v)
        term = T.custom_op([w], np.float64(sigma**2), [lambda g, o=outer: g * o])
        total = term if total is None else total + term
    return total if total is not None else Tensor(0.0)


def bss_penalty(features: Tensor, k) -> Tensor:
    """Penalty on the k smallest singular values of the feature matrix."""
    f = _flatten_feature(features)
    n, d = f.shape
    r = min(n, d)
    k = check_count("k", k, least=0)
    if not 1 <= k <= r:
        raise ConfigError(f"k={k} outside [1,{r}]")
    u, s, vt = thin_svd(f.data)
    idx = range(r - k, r)  # lexicographic deterministic choice on ties
    value = float(sum(s[i] ** 2 for i in idx))
    g_mat = np.zeros((n, d))
    for i in idx:
        g_mat += 2.0 * s[i] * np.outer(u[:, i], vt[i, :])
    return T.custom_op([f], np.float64(value), [lambda g: g * g_mat])


# -- term table ---------------------------------------------------------


@dataclass(frozen=True)
class LossTerm:
    kind: str
    weight: float = 1.0
    hyper: tuple = ()          # sorted (key, value) pairs
    hooks: tuple = ()          # (student hook, teacher hook) pairs

    def h(self, key):
        """The term's value for ``key``, else its kind's default."""
        return dict(self.hyper).get(key, TERMS[self.kind].defaults[key])


@dataclass(frozen=True)
class TermKind:
    """One loss or regularizer kind.

    ``evaluate(term, batch)`` returns the term's scalar on a minibatch;
    ``batch`` carries ``logits``, ``labels``, the student and teacher
    traces ``s_trace``/``t_trace``, fitnet ``projectors``, kd_ncm
    ``ncm_means``, ``targets()`` (regularized (path, tensor) pairs),
    ``ref_params`` and ``head_exclude``. ``hooks(term)`` returns the
    (student, teacher) hook sets the term reads, and raises ConfigError
    on malformed hooks. ``defaults`` maps each key the term reads to its
    default (``pairs`` stands for the hook pairs). ``setup(term, batch)``
    runs once before the first minibatch, when ``batch`` also carries the
    ``model``, ``teacher``, ``data`` and the run's ``rng``.
    """
    evaluate: object
    hooks: object = lambda term: (set(), set())
    defaults: dict = field(default_factory=dict)
    setup: object = lambda term, batch: None
    teacher: bool = False
    reg: bool = False


def _is_pair(x, leaf=lambda h: isinstance(h, str)):
    return isinstance(x, (tuple, list)) and len(x) == 2 and all(leaf(v) for v in x)


def _fitnet_hooks(term):
    if not term.hooks or not all(_is_pair(p) for p in term.hooks):
        raise ConfigError("fitnet needs (student hook, teacher hook) pairs")
    return {s for s, _ in term.hooks}, {t for _, t in term.hooks}


def _fitnet_setup(term, b):
    """A projector for each pair whose widths differ, trained jointly."""
    x0 = Tensor(b.data.split("train")[0][:1])
    _, s_tr = b.model.forward(x0, {s for s, _ in term.hooks})
    _, t_tr = b.teacher.forward(x0, {t for _, t in term.hooks})
    for s_hook, t_hook in term.hooks:
        ws, wt = s_tr[s_hook].shape[-1], t_tr[t_hook].shape[-1]
        if ws != wt and (s_hook, t_hook) not in b.projectors:
            b.projectors[(s_hook, t_hook)] = init_param(b.rng, (wt, ws), "uniform")


def _fsp_hooks(term):
    if not term.hooks or not all(_is_pair(p, _is_pair) for p in term.hooks):
        raise ConfigError(
            "fsp needs ((student lo, student hi), (teacher lo, teacher hi)) hook pairs")
    return ({h for pair, _ in term.hooks for h in pair},
            {h for _, pair in term.hooks for h in pair})


def _feature_hooks(term):
    hook = {term.h("hook")}
    return hook, hook


def _kd_ncm(term, b):
    hook = term.h("hook")
    tl = ncm_teacher_logits(_sample_rows(b.t_trace[hook]), b.ncm_means[hook], term.h("tau"))
    return kd_kl(b.logits, tl, term.h("T"))


def _kd_ncm_setup(term, b):
    """The teacher's class means at the term's hook, over the training split."""
    hook = term.h("hook")
    x, y = b.data.split("train")
    _, tr = b.teacher.forward(Tensor(x), {hook})
    b.ncm_means[hook] = fit_class_means(_sample_rows(tr[hook]), y, b.data.n_classes)


def _fsp(term, b):
    sp = [(b.s_trace[lo], b.s_trace[hi]) for (lo, hi), _ in term.hooks]
    tp = [(b.t_trace[lo], b.t_trace[hi]) for _, (lo, hi) in term.hooks]
    return fsp_loss(sp, tp)


def _rkd(mode):
    def evaluate(term, b):
        hook = term.h("hook")
        return rkd_loss(_sample_rows(b.s_trace[hook]), _sample_rows(b.t_trace[hook]), mode)
    return evaluate


_HOOK = {"hook": "feature"}

TERMS = {
    "ce": TermKind(lambda t, b: cross_entropy(b.logits, b.labels)),
    "kd_kl": TermKind(lambda t, b: kd_kl(b.logits, b.t_trace["logits"], t.h("T")),
                      lambda t: (set(), {"logits"}), {"T": 1.0}, teacher=True),
    "kd_ncm": TermKind(_kd_ncm, lambda t: (set(), {t.h("hook")}),
                       {**_HOOK, "tau": 1.0, "T": 1.0}, _kd_ncm_setup, teacher=True),
    "fitnet": TermKind(
        lambda t, b: fitnet_loss(b.s_trace, b.t_trace, list(t.hooks), b.projectors),
        _fitnet_hooks, {"pairs": ()}, _fitnet_setup, teacher=True),
    "fsp": TermKind(_fsp, _fsp_hooks, {"pairs": ()}, teacher=True),
    "rkd_dist": TermKind(_rkd("dist"), _feature_hooks, _HOOK, teacher=True),
    "rkd_angle": TermKind(_rkd("angle"), _feature_hooks, _HOOK, teacher=True),
    "l2": TermKind(lambda t, b: weight_reg(b.targets(), kind="l2"), reg=True),
    "l2_sp": TermKind(lambda t, b: weight_reg(b.targets(), ref=b.ref_params, kind="l2_sp",
                                              exclude=b.head_exclude), reg=True),
    "spec_norm": TermKind(lambda t, b: spectral_penalty(
        [(p, w) for p, w in b.targets() if w.ndim == 2], t.h("iters")),
        defaults={"iters": 20}, reg=True),
    "bss": TermKind(lambda t, b: bss_penalty(b.s_trace["feature"], t.h("k")),
                    lambda t: ({"feature"}, set()), {"k": 1}, reg=True),
}


def _check_terms(terms, reg):
    for t in terms:
        kind = TERMS.get(t.kind)
        if kind is None or kind.reg != reg:
            raise ConfigError(f"unknown {'reg' if reg else 'loss'} kind {t.kind!r}")
        if not 0 <= t.weight < math.inf:
            raise ConfigError(f"{t.kind} weight must be finite and nonnegative, got {t.weight}")
        for key, value in [*t.hyper, ("pairs", t.hooks)] if t.hooks else t.hyper:
            if key not in kind.defaults:
                raise ConfigError(f"{t.kind} has no key {key!r}; it reads "
                                  f"{', '.join(kind.defaults) or 'no key'}")
            want = type(kind.defaults[key])  # a float key also takes an int
            if not isinstance(value, (int, float) if want is float else want):
                raise ConfigError(f"{t.kind} {key} must be {want.__name__}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{t.kind} {key} must be finite, got {value}")
        kind.hooks(t)


@dataclass
class LossSpec:
    terms: list = field(default_factory=lambda: [LossTerm("ce")])

    def __post_init__(self):
        _check_terms(self.terms, reg=False)

    def needs_teacher(self):
        return any(TERMS[t.kind].teacher for t in self.terms)


@dataclass
class RegSpec:
    terms: list = field(default_factory=list)

    def __post_init__(self):
        _check_terms(self.terms, reg=True)


# -- optimizers ---------------------------------------------------------


def _sgd(cfg, state, w, g, lr):
    """SGD with momentum; weight decay joins the gradient."""
    if cfg.weight_decay:
        g = g + cfg.weight_decay * w
    v = state["v"] = cfg.momentum * state.get("v", 0.0) + g
    return w - lr * v


def _adamw(cfg, state, w, g, lr):
    """AdamW with betas (0.9, 0.999); weight decay is decoupled."""
    b1, b2 = 0.9, 0.999
    t = state["t"] = state.get("t", 0) + 1
    m = state["m"] = state.get("m", 0.0) * b1 + (1 - b1) * g
    v = state["v"] = state.get("v", 0.0) * b2 + (1 - b2) * g * g
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    w = w - lr * cfg.weight_decay * w
    return w - lr * mhat / (np.sqrt(vhat) + 1e-8)


#: Optimizer name -> update rule ``(cfg, state, w, g, lr) -> new w``; ``state``
#: is the tensor's own dict, kept across steps.
OPTIMIZERS = {"sgd": _sgd, "adamw": _adamw}


@dataclass
class TrainConfig:
    optimizer: str = "sgd"     # a key of OPTIMIZERS
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    schedule: str = "constant"  # constant | cosine

    def __post_init__(self):
        for name in ("lr", "momentum", "weight_decay"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        self.epochs = check_count("epochs", self.epochs)
        self.batch_size = check_count("batch_size", self.batch_size)
        self.seed = check_count("seed", self.seed, least=0)
        if not isinstance(self.optimizer, str) or self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")


# -- teacher ------------------------------------------------------------


class Teacher(AdaptedModel):
    """A model of ``spec`` over ``params`` under the full plan, which adds no
    parameter. Its tensors are frozen, and ``train`` never makes them grad
    leaves, so its forward records no tape."""

    def __init__(self, spec, params: ParamStore):
        super().__init__(spec, params, full_plan(spec))


# -- training loop ------------------------------------------------------


def accuracy(model, x, y):
    """Share of rows whose argmax logit is the label (0.0 on an empty split)."""
    return int((np.argmax(model.predict(x), axis=1) == y).sum()) / max(1, x.shape[0])


def _set_leaves(model, leaves):
    """Make the tensors ``model.trainable()`` names grad leaves, or frozen."""
    for p, t in model.trainable():
        model.params.set(p, Tensor(t.data, requires_grad=leaves))


def epochs(model: AdaptedModel, teacher, data, loss_spec: LossSpec,
           reg_spec: RegSpec, cfg: TrainConfig):
    """Minibatch optimization of the composite objective, one epoch a step.

    A generator: its checks and setup run at the first ``next``, and each
    step trains one epoch and yields its history entry: each term's mean
    keyed by its kind (the second term of a kind is ``kind[1]``, and so on),
    then ``val_acc``. The tensors ``model.trainable()`` names are grad leaves
    from each epoch's first batch to its last step, and frozen otherwise
    (also after a step raises), so at every yield ``model.params`` records no
    tape and a consumer may read, predict or save it. Closing the generator
    after k entries leaves the model as a k-epoch run under the constant
    schedule leaves it. ``l2_sp`` anchors the spec's paths to their values as
    training starts.
    """
    terms = [*loss_spec.terms, *reg_spec.terms]
    if not terms:
        raise ConfigError("the objective has no loss or regularizer term")
    if loss_spec.needs_teacher() and teacher is None:
        raise ConfigError("loss spec requires a teacher model")
    _check_labels(data.y, model.spec.n_classes)  # every split, before any setup
    x_train, y_train = data.split("train")
    if x_train.shape[0] == 0:
        raise ConfigError("train needs a non-empty train split")
    x_val, y_val = data.split("val")
    # the spec's frozen tensors, which steps replace in model.params; not the
    # new ones, which no l2_sp term reads and which would stay alive for the run
    ref_params = ParamStore({p: model.params.get(p) for p in model.spec.param_shapes()})

    rng = np.random.default_rng(cfg.seed)
    step = OPTIMIZERS[cfg.optimizer]
    states = defaultdict(dict)  # path, or a projector's hook pair -> its rule's state

    # history key per term: its kind, then kind[1], kind[2] for repeats
    keys = []
    for term in terms:
        n = sum(t.kind == term.kind for t in terms[:len(keys)])
        keys.append(f"{term.kind}[{n}]" if n else term.kind)
    s_hooks, t_hooks = set(), set()
    for term in terms:
        s, t = TERMS[term.kind].hooks(term)
        s_hooks |= s
        t_hooks |= t

    def reg_targets():
        return [(p, model.params.get(p)) for p in sorted(model.plan.trainable_original)]

    batch = SimpleNamespace(projectors={}, ncm_means={}, targets=reg_targets,
                            ref_params=ref_params, head_exclude=model.spec.head_paths(),
                            model=model, teacher=teacher, data=data, rng=rng)
    for term in terms:
        TERMS[term.kind].setup(term, batch)

    n_train = x_train.shape[0]
    n_batches = -(-n_train // cfg.batch_size)
    for epoch in range(cfg.epochs):
        if cfg.schedule == "cosine":
            lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.epochs))
        else:
            lr = cfg.lr
        order = rng.permutation(n_train)
        term_sums = {}
        _set_leaves(model, True)
        try:
            for lo in range(0, n_train, cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                xb = Tensor(x_train[idx])
                batch.labels = y_train[idx]
                batch.logits, batch.s_trace = model.forward(xb, s_hooks)
                batch.t_trace = {}
                if teacher is not None and t_hooks:
                    _, batch.t_trace = teacher.forward(xb, t_hooks)

                total = None
                for key, term in zip(keys, terms):
                    val = TERMS[term.kind].evaluate(term, batch)
                    term_sums[key] = term_sums.get(key, 0.0) + val.item()
                    if term.weight != 1.0:  # times 1.0 is exact, in the value and the gradient
                        val = val.scale(term.weight)
                    total = val if total is None else total + val

                try:
                    gmap = T.backward(total)
                except ConfigError:  # an untaped root, at the first batch before any update
                    raise ConfigError("no trainable tensor is reached by the objective's "
                                      f"terms: {', '.join(keys)}") from None
                sites = [(p, w, model.params.set) for p, w in model.trainable()]
                sites += [(k, w, batch.projectors.__setitem__)
                          for k, w in batch.projectors.items()]
                for key, w, put in sites:  # the model's by path, then fitnet projectors
                    g = gmap.get(w.uid)
                    if g is None:
                        continue
                    new = step(cfg, states[key], w.data, g, lr)
                    mask = model.plan.grad_masks.get(key)  # None for a projector's key
                    if mask is not None:  # masked-out elements keep their value
                        new = np.where(mask > 0, new, w.data)
                    put(key, Tensor(new, requires_grad=True))
                # every name holding this step's tape, so none outlives its backward
                total = val = gmap = batch.logits = batch.s_trace = batch.t_trace = None
        finally:
            _set_leaves(model, False)

        yield {"epoch": epoch, **{k: v / n_batches for k, v in sorted(term_sums.items())},
               "val_acc": accuracy(model, x_val, y_val)}


def train(model: AdaptedModel, teacher, data, loss_spec: LossSpec,
          reg_spec: RegSpec, cfg: TrainConfig):
    """:func:`epochs` run to the end. Returns ``(Checkpoint, history)``: the
    checkpoint holds every path of ``model.params`` (the spec's and the plan's
    new ones) under the spec's digest, and history is the list of entries."""
    history = list(epochs(model, teacher, data, loss_spec, reg_spec, cfg))
    return ckpt_mod.from_params(model.spec, model.params), history
