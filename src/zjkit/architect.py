"""Compile adaptation configs into plans and apply them to models.

A plan is the bridge between the config language and a concrete model:
it lists parameter injections (LoRA factors, adapters, prefix tokens,
scale/shift vectors), which original paths train and which stay frozen,
and any per-element gradient masks (BitFit's query-bias rows). Applying a
plan keeps that split in the plan: an adapted model's tensors are frozen,
and ``tuner.train`` alone makes those the plan trains grad leaves, an epoch
at a time. LoRA and SSF plans fold into plain weights (:func:`merge_reparam`).

An adaptation method is registered in one place, its :class:`Method` record
in :data:`METHODS`, which the config language, plan compilation, extras
initialisation, forward routing and :func:`merge_reparam` all read. The
forward routing is :meth:`AdaptedModel.route`, the one function through
which :func:`models.forward` lets every injection in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import checkpoint as ckpt_mod
from . import tensor as T
from .errors import ConfigError, ShapeMismatch
from .models import ParamStore, check_shapes, init_param, match_prefixes, spec_digest
from .tensor import Tensor

if TYPE_CHECKING:
    from .dsl import AdaptSpec


@dataclass(frozen=True)
class Method:
    """One adaptation method. A hook-free method sets ``trains``; an injection
    method sets every field from ``sites`` to ``compute``, and ``fold`` when
    its injections fold into plain weights."""

    name: str              # config spelling, e.g. "PartialK"
    defaults: dict         # hyperparameter -> default value
    count: tuple = None    # (integer hyperparameter, lowest allowed value)
    trains: object = None  # (spec, hyper) -> (original paths that train, grad masks)
    sites: object = None   # (spec, shapes) -> {site: weight shape or width}
    site_word: str = ""    # what a site is, for errors
    params: tuple = ()     # ((leaf, fill), ...); fill is 0.0, 1.0 or "uniform"
    shapes: object = None  # (site shape or width, hyper) -> leaf shapes, as params
    route: str = ""        # models.forward route joined: linear_out | post_mlp | kv_prefix
    compute: object = None  # (hyper, value, *route args, *leaf tensors) -> new value
    fold: object = None    # (hyper, weight, bias, *leaf arrays) -> (weight, bias)

    @property
    def hook_free(self):
        return self.trains is not None


def _weight_sites(spec, shapes):
    return {p[: -len(".weight")]: s for p, s in shapes.items()
            if p.endswith(".weight") and len(s) == 2}


def _lora_scale(hyper):
    return hyper["alpha"] / hyper["r"]


METHODS = {
    "lora": Method(
        "LoRA", {"r": 4.0, "alpha": 4.0}, ("r", 1),
        sites=_weight_sites, site_word="weight matrix",
        params=(("a", "uniform"), ("b", 0.0)),
        shapes=lambda at, hp: ((int(hp["r"]), at[1]), (at[0], int(hp["r"]))),
        route="linear_out",
        compute=lambda hp, y, x, a, b: T.lowrank(y, x, a, b, _lora_scale(hp)),
        fold=lambda hp, w, bias, a, b: (w + _lora_scale(hp) * (b @ a), bias)),
    "adapter": Method(
        "Adapter", {"dim": 8.0}, ("dim", 1),
        sites=lambda spec, shapes: spec.sites("post_mlp"), site_word="block position",
        params=(("down.weight", "uniform"), ("down.bias", 0.0),
                ("up.weight", 0.0), ("up.bias", 0.0)),
        shapes=lambda at, hp: ((int(hp["dim"]), at), (int(hp["dim"]),),
                               (at, int(hp["dim"])), (at,)),
        route="post_mlp",
        compute=lambda hp, h, dw, db, uw, ub:
            h + T.affine(T.affine(h, dw, db).gelu(), uw) + ub),
    "prefix": Method(
        "Prefix", {"tokens": 2.0}, ("tokens", 1),
        sites=lambda spec, shapes: spec.sites("kv_prefix"), site_word="block",
        params=(("key", "uniform"), ("value", "uniform")),
        shapes=lambda at, hp: ((int(hp["tokens"]), at), (int(hp["tokens"]), at)),
        route="kv_prefix",
        compute=lambda hp, _, key, value: (key, value)),
    "bitfit": Method("BitFit", {}, trains=lambda spec, hp: spec.bitfit_paths()),
    "ssf": Method(
        "SSF", {},
        sites=_weight_sites, site_word="weight matrix",
        params=(("gamma", 1.0), ("beta", 0.0)),
        shapes=lambda at, hp: ((at[0],), (at[0],)),
        route="linear_out",
        compute=lambda hp, y, x, gamma, beta: y * gamma + beta,
        fold=lambda hp, w, bias, gamma, beta: (gamma[:, None] * w, gamma * bias + beta)),
    "linear_probe": Method(
        "LinearProbe", {}, trains=lambda spec, hp: (spec.head_paths(), {})),
    "partial_k": Method(
        "PartialK", {"k": 1.0}, ("k", 0),
        trains=lambda spec, hp: (spec.partial_k_paths(int(hp["k"])), {})),
}


@dataclass(frozen=True)
class Injection:
    site: str          # concrete module prefix, e.g. blocks[0].attn.qkv
    params: tuple      # ((new path, shape), ...) in the method record's params order


@dataclass
class AdaptationPlan:
    method: str
    hyper: dict
    model_canonical: str
    injections: list = field(default_factory=list)  # all of METHODS[method]
    trainable_original: set = field(default_factory=set)
    grad_masks: dict = field(default_factory=dict)  # path -> np mask

    def new_shapes(self):
        """The new parameters' path -> shape, a shared instance once."""
        return {p: s for inj in self.injections for p, s in inj.params}

    def trained_size(self, path, shape):
        """How many elements of ``path`` train: those its grad mask keeps, else all."""
        mask = self.grad_masks.get(path)
        return int(np.prod(shape)) if mask is None else int(mask.sum())


def _resolve_sites(adapt, shapes, valid_sites, site_word):
    """Expand hook patterns to concrete sites; (site, hook) pairs in order."""
    out = []
    for hook in adapt.hooks:
        matches = match_prefixes(sorted(shapes), hook.pattern)
        if not matches:
            raise ConfigError(f"pattern {hook.pattern!r} matched nothing")
        for site in matches:
            if site not in valid_sites:
                raise ConfigError(
                    f"{adapt.method} needs a {site_word}, got {site!r}"
                )
            out.append((site, hook))
    return out


def compile_plan(adapt: AdaptSpec, model_spec) -> AdaptationPlan:
    """Turn a parsed config into an executable plan for one model spec."""
    method = METHODS.get(adapt.method)
    if method is None:
        raise ConfigError(f"unknown method {adapt.method}")
    shapes = model_spec.param_shapes()
    hyper = adapt.hyperparams()
    plan = AdaptationPlan(adapt.method, hyper, model_spec.canonical())

    if method.hook_free:
        trainable, plan.grad_masks = method.trains(model_spec, hyper)
    else:
        trainable = model_spec.head_paths()
        valid = method.sites(model_spec, shapes)  # site -> shape or width
        if not valid:
            raise ConfigError(
                f"{adapt.method} has no site in a {model_spec.kind} model")
        explicit = [h.instance for h in adapt.hooks if h.instance is not None]
        next_auto = max(explicit) + 1 if explicit else 0
        seen_instances = {}
        for site, hook in _resolve_sites(adapt, shapes, valid, method.site_word):
            if hook.instance is not None:
                idx = hook.instance
            else:
                idx, next_auto = next_auto, next_auto + 1
            params = tuple((f"{adapt.method}[{idx}].{leaf}", shape) for (leaf, _), shape
                           in zip(method.params, method.shapes(valid[site], hyper)))
            check_shapes(dict(params))
            if seen_instances.setdefault(idx, params) != params:
                raise ConfigError(
                    f"shared instance {idx} used at sites with different shapes")
            if method.route == "kv_prefix" and any(i.site == site for i in plan.injections):
                raise ConfigError(f"{adapt.method} twice at {site!r}: a block takes one prefix")
            plan.injections.append(Injection(site, params))

    plan.trainable_original = set(trainable) & set(shapes)
    return plan


# -- applying plans -----------------------------------------------------


def _init_extras(plan: AdaptationPlan, seed) -> dict:
    """The plan's new parameters, path -> tensor, drawn from ``seed`` in
    injection order."""
    rng = np.random.default_rng(seed)
    extras = {}
    for inj in plan.injections:
        for (path, shape), (_, fill) in zip(inj.params, METHODS[plan.method].params):
            if path not in extras:
                extras[path] = init_param(rng, shape, fill)
    return extras


class AdaptedModel:
    """A model of ``spec`` under an applied plan; forward-capable composite.

    ``params`` holds the spec's paths and the plan's new parameters, each at
    its shape. The model keeps one store, ``params``, of frozen tensors that
    share the given arrays, whatever flags they carry; the given store is
    left as it is. The plan alone says which paths are new and which train.
    """

    def __init__(self, spec, params: ParamStore, plan: AdaptationPlan):
        if plan.model_canonical != spec.canonical():
            raise ConfigError("plan was compiled against a different model spec")
        self.spec = spec
        self.params = ParamStore({p: Tensor(t.data) for p, t in params.items()})
        self.plan = plan
        self._routes = {}  # (route, site) -> [(compute, leaf paths), ...]
        for inj in plan.injections:
            for path, shape in inj.params:
                if params.get(path).shape != shape:
                    raise ShapeMismatch(f"{path}: {params.get(path).shape} != {shape}")
            method = METHODS[plan.method]
            self._routes.setdefault((method.route, inj.site), []).append(
                (method.compute, [p for p, _ in inj.params]))

    def route(self, name, site, value, *args):
        """The route :func:`models.forward` calls: each injection joining
        ``name`` at ``site`` computes on ``value`` in turn."""
        for compute, paths in self._routes.get((name, site), ()):
            value = compute(self.plan.hyper, value, *args, *map(self.params.get, paths))
        return value

    def forward(self, x, capture=()):
        from .models import forward  # looked up per call, so a wrapper on models.forward applies
        return forward(self.spec, self.params, x, capture, self.route)

    def predict(self, x):
        """Logits for the rows of the array ``x``, forwarded 256 rows at a
        time; the inference entry of evaluation, validation and ensembles.
        It records no tape, as the model's tensors are frozen."""
        chunks = [self.forward(Tensor(x[lo:lo + 256]))[0].data
                  for lo in range(0, x.shape[0], 256)]
        return np.concatenate(chunks) if chunks else np.zeros((0, self.spec.n_classes))

    def trainable(self):
        """(path, tensor) pairs the optimizer may update, by path, as the plan
        names them: its trained original paths and its new parameters."""
        trained, new = self.plan.trainable_original, self.plan.new_shapes()
        return [(p, t) for p, t in self.params.items() if p in trained or p in new]


def full_plan(spec) -> AdaptationPlan:
    """Full fine-tuning of ``spec``: no injection, and every original path trains."""
    return AdaptationPlan("finetune", {}, spec.canonical(),
                          trainable_original=set(spec.param_shapes()))


def apply_plan(spec, params: ParamStore, plan: AdaptationPlan, seed=0) -> AdaptedModel:
    """Wire a compiled plan onto a concrete parameter store, its new
    parameters freshly initialised from ``seed`` (see :class:`AdaptedModel`)."""
    return AdaptedModel(spec, ParamStore({**dict(params.items()), **_init_extras(plan, seed)}),
                        plan)


def merge_reparam(adapted: AdaptedModel):
    """Fold mergeable injections back into plain weights.

    Only methods whose record has a ``fold`` merge (LoRA and SSF); adapter
    and prefix injections change the computation graph and cannot be
    expressed as plain weights.
    """
    plan, params = adapted.plan, adapted.params
    if plan.injections and METHODS[plan.method].fold is None:
        raise ConfigError(f"injections of kind {[plan.method]} cannot be merged")
    merged = {p: params.get(p).data for p in adapted.spec.param_shapes()}
    for inj in plan.injections:  # a fold returns new arrays; the model's stay as they are
        w, b = f"{inj.site}.weight", f"{inj.site}.bias"
        leaves = [params.get(p).data for p, _ in inj.params]
        merged[w], merged[b] = METHODS[plan.method].fold(
            plan.hyper, merged[w], merged[b], *leaves)
    return ckpt_mod.Checkpoint(adapted.spec.kind, spec_digest(adapted.spec)).with_entries(merged)


def plan_table(plan: AdaptationPlan, shapes):
    """Human-readable table of injections and trainable counts."""
    lines = [f"method: {plan.method}"]
    if plan.injections:
        lines.append(f"{'site':<28} {'kind':<8} new parameters")
        for inj in plan.injections:
            ps = ", ".join(f"{p} {list(s)}" for p, s in inj.params)
            lines.append(f"{inj.site:<28} {plan.method:<8} {ps}")
    new_count = sum(int(np.prod(s)) for s in plan.new_shapes().values())
    trained = sum(plan.trained_size(p, shapes[p]) for p in plan.trainable_original)
    total = sum(int(np.prod(s)) for s in shapes.values())
    lines.append(f"frozen original parameters: {total - trained}")
    lines.append(f"trainable original parameters: {trained}")
    lines.append(f"new trainable parameters: {new_count}")
    return "\n".join(lines)
