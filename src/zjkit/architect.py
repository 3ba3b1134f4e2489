"""Compile adaptation configs into plans and apply them to models.

A plan is the bridge between the config language and a concrete model:
it lists parameter injections (LoRA factors, adapters, prefix tokens,
scale/shift vectors), which original paths train and which stay frozen,
and any per-element gradient masks (BitFit's query-bias rows). Applying a
plan records that split on the tensors themselves: a parameter trains iff
its tensor requires grad, so frozen weights record no tape. LoRA and SSF
plans can be folded back into plain weights via :func:`merge_reparam`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt_mod
from . import tensor as T
from .dsl import AdaptSpec
from .errors import (
    IncompatibleSite,
    NoMatchingSite,
    NotMergeable,
    PlanMismatch,
)
from .models import ParamStore, match_prefixes
from .tensor import Tensor


@dataclass(frozen=True)
class Injection:
    site: str          # concrete module prefix, e.g. blocks[0].attn.qkv
    kind: str          # lora | adapter | prefix | ssf
    instance: int      # adapter-instance index; shared index = shared weights
    params: tuple      # ((new path, shape), ...)


@dataclass
class AdaptationPlan:
    method: str
    hyper: dict
    model_canonical: str
    injections: list = field(default_factory=list)
    freeze: set = field(default_factory=set)
    trainable_original: set = field(default_factory=set)
    grad_masks: dict = field(default_factory=dict)  # path -> np mask


def _linear_sites(shapes):
    return {p[: -len(".weight")] for p in shapes
            if p.endswith(".weight") and len(shapes[p]) == 2}


def _resolve_sites(adapt, shapes, valid_sites, site_word):
    """Expand hook patterns to concrete sites; (site, hook) pairs in order."""
    out = []
    for hook in adapt.hooks:
        matches = match_prefixes(sorted(shapes), hook.pattern)
        if not matches:
            raise NoMatchingSite(f"pattern {hook.pattern!r} matched nothing")
        for site in matches:
            if site not in valid_sites:
                raise IncompatibleSite(
                    f"{adapt.method} needs a {site_word}, got {site!r}"
                )
            out.append((site, hook))
    return out


def compile_plan(adapt: AdaptSpec, model_spec) -> AdaptationPlan:
    """Turn a parsed config into an executable plan for one model spec."""
    shapes = model_spec.param_shapes()
    all_paths = set(shapes)
    head = model_spec.head_paths()
    hyper = adapt.hyperparams()
    plan = AdaptationPlan(adapt.method, hyper, model_spec.canonical())

    def freeze_all_but(trainable):
        plan.trainable_original = set(trainable) & all_paths
        plan.freeze = all_paths - plan.trainable_original

    if adapt.method == "linear_probe":
        freeze_all_but(head)
        return plan
    if adapt.method == "partial_k":
        freeze_all_but(model_spec.partial_k_paths(int(hyper["k"])))
        return plan
    if adapt.method == "bitfit":
        trainable, plan.grad_masks = model_spec.bitfit_paths()
        freeze_all_but(trainable)
        return plan

    # injection methods: valid sites (site -> shape or width), then the
    # new parameters of instance i at a site
    if adapt.method in ("lora", "ssf"):
        valid = {s: shapes[f"{s}.weight"] for s in _linear_sites(shapes)}
        site_word = "weight matrix"
    elif adapt.method == "adapter":
        valid, site_word = model_spec.adapter_sites(), "block position"
    elif adapt.method == "prefix":
        valid, site_word = model_spec.prefix_sites(), "block"
    else:
        raise PlanMismatch(f"unknown method {adapt.method}")
    if not valid:
        raise IncompatibleSite(f"{adapt.method} has no site in a {model_spec.kind} model")

    def new_params(i, at):
        """(path, shape) pairs of instance i at a site of shape/width ``at``."""
        if adapt.method == "lora":
            (m, n), r = at, int(hyper["r"])
            return (f"lora[{i}].a", (r, n)), (f"lora[{i}].b", (m, r))
        if adapt.method == "ssf":
            return (f"ssf[{i}].gamma", (at[0],)), (f"ssf[{i}].beta", (at[0],))
        if adapt.method == "adapter":
            b = int(hyper["dim"])
            return ((f"adapter[{i}].down.weight", (b, at)),
                    (f"adapter[{i}].down.bias", (b,)),
                    (f"adapter[{i}].up.weight", (at, b)),
                    (f"adapter[{i}].up.bias", (at,)))
        t = int(hyper["tokens"])
        return (f"prefix[{i}].key", (t, at)), (f"prefix[{i}].value", (t, at))

    explicit = [h.instance for h in adapt.hooks if h.instance is not None]
    next_auto = max(explicit) + 1 if explicit else 0
    seen_instances = {}
    for site, hook in _resolve_sites(adapt, shapes, valid, site_word):
        if hook.instance is not None:
            idx = hook.instance
        else:
            idx, next_auto = next_auto, next_auto + 1
        params = new_params(idx, valid[site])
        if seen_instances.setdefault(idx, params) != params:
            raise IncompatibleSite(
                f"shared instance {idx} used at sites with different shapes")
        plan.injections.append(Injection(site, adapt.method, idx, params))

    plan.trainable_original = head & all_paths
    plan.freeze = all_paths - plan.trainable_original
    return plan


# -- applying plans -----------------------------------------------------


def _init_extras(plan: AdaptationPlan, seed) -> ParamStore:
    rng = np.random.default_rng(seed)
    extras = ParamStore()
    done = set()
    for inj in plan.injections:
        for path, shape in inj.params:
            if path in done:
                continue
            done.add(path)
            leaf = path.rsplit(".", 1)[-1]
            if leaf in ("b", "bias") or path.endswith(".up.weight") \
                    or leaf == "beta" or path.startswith("lora") and leaf == "b":
                data = np.zeros(shape)
            elif leaf == "gamma":
                data = np.ones(shape)
            else:
                bound = 1.0 / math.sqrt(shape[-1])
                data = rng.uniform(-bound, bound, size=shape)
            extras.set(path, Tensor(data, requires_grad=True))
    return extras


class _Router:
    """Routes forward-pass sites through the plan's injections."""

    def __init__(self, adapted):
        self.adapted = adapted
        self.by_site = {}
        for inj in adapted.plan.injections:
            self.by_site.setdefault(inj.site, []).append(inj)

    def linear_out(self, site, x, y):
        for inj in self.by_site.get(site, ()):
            e = self.adapted.extras
            if inj.kind == "lora":
                a = e.get(f"lora[{inj.instance}].a")
                b = e.get(f"lora[{inj.instance}].b")
                s = self.adapted.plan.hyper["alpha"] / self.adapted.plan.hyper["r"]
                y = y + T.affine(T.affine(x, a), b).scale(s)
            elif inj.kind == "ssf":
                gamma = e.get(f"ssf[{inj.instance}].gamma")
                beta = e.get(f"ssf[{inj.instance}].beta")
                y = y * gamma.expand(y.shape) + beta.expand(y.shape)
        return y

    def post_mlp(self, site, h):
        for inj in self.by_site.get(site, ()):
            if inj.kind != "adapter":
                continue
            e = self.adapted.extras
            pre = f"adapter[{inj.instance}]"
            dw, db = e.get(f"{pre}.down.weight"), e.get(f"{pre}.down.bias")
            uw, ub = e.get(f"{pre}.up.weight"), e.get(f"{pre}.up.bias")
            mid = T.affine(h, dw, db).gelu()
            h = h + T.affine(mid, uw) + ub.expand(h.shape)
        return h

    def kv_prefix(self, site):
        for inj in self.by_site.get(site, ()):
            if inj.kind == "prefix":
                e = self.adapted.extras
                return (e.get(f"prefix[{inj.instance}].key"),
                        e.get(f"prefix[{inj.instance}].value"))
        return None


class AdaptedModel:
    """A base model plus applied plan; forward-capable composite."""

    def __init__(self, spec, base: ParamStore, plan: AdaptationPlan, extras):
        self.spec = spec
        self.base = base
        self.plan = plan
        self.extras = extras
        self._router = _Router(self)

    def forward(self, x, capture=()):
        from .models import forward
        return forward(self.spec, self.base, x, capture, adapters=self._router)

    def trainable(self):
        """(path, tensor, store) triples the optimizer may update: every
        tensor, base then extras, that requires grad."""
        return [(p, t, store) for store in (self.base, self.extras)
                for p, t in store.items() if t.requires_grad]

    def grad_mask(self, path):
        return self.plan.grad_masks.get(path)


def apply_plan(spec, params: ParamStore, plan: AdaptationPlan, seed=0) -> AdaptedModel:
    """Wire a compiled plan onto a concrete parameter store.

    The base store gets fresh tensors that require grad exactly on the
    plan's trainable original paths, whatever flags ``params`` carries.
    """
    if plan.model_canonical != spec.canonical():
        raise PlanMismatch("plan was compiled against a different model spec")
    base = ParamStore({p: Tensor(t.data, requires_grad=p in plan.trainable_original)
                       for p, t in params.items()})
    extras = _init_extras(plan, seed)
    return AdaptedModel(spec, base, plan, extras)


def merge_reparam(adapted: AdaptedModel):
    """Fold mergeable injections back into plain weights.

    Only LoRA and SSF are mergeable; adapter and prefix injections change
    the computation graph and cannot be expressed as plain weights.
    """
    bad = [i.kind for i in adapted.plan.injections if i.kind not in ("lora", "ssf")]
    if bad:
        raise NotMergeable(f"injections of kind {sorted(set(bad))} cannot be merged")
    merged = {p: t.data.copy() for p, t in adapted.base.items()}
    hyper = adapted.plan.hyper
    for inj in adapted.plan.injections:
        w = merged[f"{inj.site}.weight"]
        if inj.kind == "lora":
            a = adapted.extras.get(f"lora[{inj.instance}].a").data
            b = adapted.extras.get(f"lora[{inj.instance}].b").data
            merged[f"{inj.site}.weight"] = w + (hyper["alpha"] / hyper["r"]) * (b @ a)
        else:
            gamma = adapted.extras.get(f"ssf[{inj.instance}].gamma").data
            beta = adapted.extras.get(f"ssf[{inj.instance}].beta").data
            merged[f"{inj.site}.weight"] = gamma[:, None] * w
            merged[f"{inj.site}.bias"] = gamma * merged[f"{inj.site}.bias"] + beta
    from .models import spec_digest
    entries = {p: merged[p].astype(np.float32) for p in sorted(merged)}
    return ckpt_mod.Checkpoint(adapted.spec.kind, spec_digest(adapted.spec), entries)


def plan_table(plan: AdaptationPlan, shapes=None):
    """Human-readable table of injections and trainable counts."""
    lines = [f"method: {plan.method}"]
    if plan.injections:
        lines.append(f"{'site':<28} {'kind':<8} new parameters")
        for inj in plan.injections:
            ps = ", ".join(f"{p} {list(s)}" for p, s in inj.params)
            lines.append(f"{inj.site:<28} {inj.kind:<8} {ps}")
    new_count = 0
    seen = set()
    for inj in plan.injections:
        for p, s in inj.params:
            if p not in seen:
                seen.add(p)
                new_count += int(np.prod(s))
    orig_count = 0
    if shapes is not None:
        orig_count = sum(int(np.prod(shapes[p])) for p in plan.trainable_original)
        frozen = sum(int(np.prod(shapes[p])) for p in plan.freeze)
        lines.append(f"frozen original parameters: {frozen}")
    lines.append(f"trainable original parameters: {orig_count}"
                 if shapes is not None else
                 f"trainable original paths: {len(plan.trainable_original)}")
    lines.append(f"new trainable parameters: {new_count}")
    return "\n".join(lines)
