"""Model families (MLP and mini transformer) with named parameter paths.

Parameter paths follow ``segment('.'segment)*`` with ``name[index]``
segments, e.g. ``layers[0].weight`` or ``blocks[1].attn.qkv.bias``. The
path set is a pure function of the spec, so two builds of the same spec
enumerate identical paths in identical (lexicographic) order.

Each spec class states its family's structure once, as the :class:`Stage`
list its ``stages()`` returns. :func:`forward` walks the list, and
:class:`StagedSpec` derives from it the parameter shapes (in definition
order, which ``build_model``'s draws follow), the hooks, the head and
``PartialK`` paths and the sites each route joins. A spec class also states
its BitFit set and unit groups. :data:`SPECS` registers each class by kind.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import re
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeMismatch
from .tensor import Tensor

# -- specs --------------------------------------------------------------


def check_shapes(shapes):
    """Reject a path -> shape map with a shape no array can index."""
    for path, shape in shapes.items():
        if math.prod(shape) > np.iinfo(np.intp).max:
            raise ConfigError(f"{path} of shape {shape} has more elements "
                              "than an array can index")


def _counts(values, what, least=1):
    """``least`` or more positive integers as plain ints (numpy ints and bools
    convert), so that equal specs read alike and can share ``stages()``."""
    try:
        ints = tuple(map(operator.index, values))
    except TypeError:
        ints = ()
    if len(ints) < least or min(ints, default=0) <= 0:
        raise ConfigError(f"bad {what}")
    return ints


@dataclass(frozen=True)
class Stage:
    """One forward step; a block has ``.input/.preact/.output`` hooks and is one PartialK unit."""

    site: str
    step: object     # (params, h, hook, lin, route) -> h
    params: dict     # path -> shape the step reads, in definition order
    block: bool = False
    routes: dict = field(default_factory=dict)  # route joined at the site -> width


class StagedSpec:
    """What a spec derives from its ``stages()``, a tuple cached by spec value."""

    def param_shapes(self):
        """Map parameter path -> shape tuple, in definition order."""
        return {p: s for stage in self.stages() for p, s in stage.params.items()}

    def all_hooks(self):
        return {"feature", "logits"} | {f"{s.site}.{h}" for s in self.stages() if s.block
                                        for h in ("input", "preact", "output")}

    def head_paths(self):
        return set(self.stages()[-1].params)

    def sites(self, route):
        """Site -> width of each stage that ``route`` joins."""
        return {s.site: s.routes[route] for s in self.stages() if route in s.routes}

    def partial_k_paths(self, k):
        """The head and every stage from the k-th last block on; all once k >= blocks."""
        stages = self.stages()
        blocks = [i for i, s in enumerate(stages) if s.block]
        start = len(stages) - 1 if k <= 0 else 0 if k >= len(blocks) else blocks[-k]
        return {p for s in stages[start:] for p in s.params}


@dataclass(frozen=True)
class MlpSpec(StagedSpec):
    widths: tuple  # input width, hidden widths..., class count
    activation: str = "relu"

    kind = "mlp"

    def __post_init__(self):
        object.__setattr__(self, "widths", _counts(self.widths, f"widths {self.widths}", 2))
        if self.activation not in ("relu", "gelu"):
            raise ConfigError(f"unknown activation {self.activation}")
        check_shapes(self.param_shapes())

    @property
    def n_layers(self):
        return len(self.widths) - 1

    @property
    def n_classes(self):
        return self.widths[-1]

    def canonical(self):
        return f"mlp:{','.join(str(w) for w in self.widths)}:{self.activation}"

    @functools.lru_cache(maxsize=8)
    def stages(self):
        """One block per layer; each hidden layer's output joins ``post_mlp``."""
        act = Tensor.relu if self.activation == "relu" else Tensor.gelu
        last = self.n_layers - 1

        def layer(i):
            site, (fan_in, fan_out) = f"layers[{i}]", self.widths[i:i + 2]

            def step(params, h, hook, lin, route):
                if i == 0 and (h.ndim != 2 or h.shape[1] != fan_in):
                    raise ShapeMismatch(f"mlp input {h.shape}, expected [n,{fan_in}]")
                h = lin(site, h)
                hook(f"{site}.preact", h)
                return h if i == last else route("post_mlp", site, act(h))  # logits stay raw
            shapes = {f"{site}.weight": (fan_out, fan_in), f"{site}.bias": (fan_out,)}
            return Stage(site, step, shapes, True, {} if i == last else {"post_mlp": fan_out})
        return tuple(map(layer, range(self.n_layers)))

    def bitfit_paths(self):
        """(trainable paths, gradient masks): every bias plus the head."""
        biases = {p for p in self.param_shapes() if p.endswith(".bias")}
        return biases | self.head_paths(), {}

    @staticmethod
    def unit_group(i):  # (preact hook, site whose rows are the units, weight reading them)
        return f"layers[{i}].preact", f"layers[{i}]", f"layers[{i + 1}].weight"


@dataclass(frozen=True)
class MiniVitSpec(StagedSpec):
    dim: int
    blocks: int
    heads: int
    mlp_dim: int
    classes: int
    seq_len: int
    input_dim: int

    kind = "mini_vit"

    def __post_init__(self):
        for f, d in zip(fields(self), _counts(astuple(self), f"dims in {self}")):
            object.__setattr__(self, f.name, d)
        if self.dim % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must divide dim {self.dim}")
        check_shapes(self.param_shapes())

    @property
    def n_classes(self):
        return self.classes

    def canonical(self):
        return ("mini_vit:d={},B={},heads={},mlp={},classes={},seq={},din={}"
                .format(self.dim, self.blocks, self.heads, self.mlp_dim,
                        self.classes, self.seq_len, self.input_dim))

    @functools.lru_cache(maxsize=8)
    def stages(self):
        """``embed``, the blocks, ``norm`` of the cls row alone (the head's one row), ``head``."""
        d, m, s, din = self.dim, self.mlp_dim, self.seq_len, self.input_dim

        def ln(params, h, name):  # layernorm normalizes row by row
            return T.layernorm(h, params.get(f"{name}.gamma"), params.get(f"{name}.beta"))

        def embed(params, x, hook, lin, route):
            if x.ndim != 3 or x.shape[1] != s or x.shape[2] != din:
                raise ShapeMismatch(f"vit input {x.shape}, expected [n,{s},{din}]")
            tokens = lin("patch_embed", x)
            cls = params.get("cls_token").expand((x.shape[0], 1, d))
            h = T.concat([cls, tokens], axis=1)
            return h + params.get("pos_embed")

        def block(i):
            blk = f"blocks[{i}]"

            def step(params, h, hook, lin, route):
                # no derivative reads the [n, s, 3d] qkv: it dies when attention returns
                ctx = T.attention(lin(f"{blk}.attn.qkv", ln(params, h, f"{blk}.norm1")),
                                  self.heads, route("kv_prefix", blk, None))
                h = h + lin(f"{blk}.attn.proj", ctx)
                pre = lin(f"{blk}.mlp.fc1", ln(params, h, f"{blk}.norm2"))
                hook(f"{blk}.preact", pre)
                return h + route("post_mlp", blk, lin(f"{blk}.mlp.fc2", pre.gelu()))
            leaves = {"norm1.gamma": (d,), "norm1.beta": (d,), "attn.qkv.weight": (3 * d, d),
                      "attn.qkv.bias": (3 * d,), "attn.proj.weight": (d, d),
                      "attn.proj.bias": (d,), "norm2.gamma": (d,), "norm2.beta": (d,),
                      "mlp.fc1.weight": (m, d), "mlp.fc1.bias": (m,),
                      "mlp.fc2.weight": (d, m), "mlp.fc2.bias": (d,)}
            return Stage(blk, step, {f"{blk}.{leaf}": shape for leaf, shape in leaves.items()},
                         block=True, routes={"kv_prefix": d, "post_mlp": d})

        return (Stage("embed", embed, {"patch_embed.weight": (d, din), "patch_embed.bias": (d,),
                                       "cls_token": (d,), "pos_embed": (s + 1, d)}),
                *map(block, range(self.blocks)),
                Stage("norm", lambda params, h, hook, lin, route: ln(params, h[:, 0, :], "norm"),
                      {"norm.gamma": (d,), "norm.beta": (d,)}),
                Stage("head", lambda params, h, hook, lin, route: lin("head", h),
                      {"head.weight": (self.classes, d), "head.bias": (self.classes,)}))

    def bitfit_paths(self):
        """(trainable paths, gradient masks): head, query rows of each fused
        qkv bias, and each fc1 bias."""
        trainable, masks = self.head_paths(), {}
        for i in range(self.blocks):
            qb = f"blocks[{i}].attn.qkv.bias"
            masks[qb] = np.zeros(3 * self.dim)
            masks[qb][:self.dim] = 1.0
            trainable |= {qb, f"blocks[{i}].mlp.fc1.bias"}
        return trainable, masks

    @staticmethod
    def unit_group(i):  # block i's MLP units; the residual stream and heads stay
        return f"blocks[{i}].preact", f"blocks[{i}].mlp.fc1", f"blocks[{i}].mlp.fc2.weight"


#: kind -> spec class, the one place a model family is registered
SPECS = {spec.kind: spec for spec in (MlpSpec, MiniVitSpec)}


def spec_digest(spec) -> bytes:
    return hashlib.sha256(spec.canonical().encode()).digest()


# -- parameter store ----------------------------------------------------


class ParamStore:
    """Ordered path -> Tensor map; a forward over it records a tape iff a tensor is a grad leaf."""

    def __init__(self, entries=None):
        self._entries = dict(entries or {})

    def paths(self):
        return sorted(self._entries)

    def __contains__(self, path):
        return path in self._entries

    def get(self, path) -> Tensor:
        if path not in self._entries:
            raise ConfigError(f"unknown parameter path {path!r}")
        return self._entries[path]

    def set(self, path, tensor: Tensor):
        old = self._entries.get(path)
        if old is not None and old.shape != tensor.shape:
            raise ShapeMismatch(f"{path}: {old.shape} -> {tensor.shape}")
        self._entries[path] = tensor

    def items(self):
        for p in self.paths():
            yield p, self._entries[p]

    def clone(self):
        return ParamStore(self._entries)


# -- init / build -------------------------------------------------------


def init_param(rng, shape, fill):
    """A new parameter tensor: ``fill`` everywhere, or for ``"uniform"`` a draw
    from ``rng`` of uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), fan_in the last axis."""
    if fill != "uniform":
        return Tensor(np.full(shape, fill), requires_grad=True)
    bound = 1.0 / math.sqrt(shape[-1])
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def build_model(spec, seed=0) -> ParamStore:
    """Fresh ParamStore: zero biases and betas, unit gammas, and seeded
    uniform (:func:`init_param`) weights."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for path, shape in spec.param_shapes().items():
        fill = {"bias": 0.0, "beta": 0.0, "gamma": 1.0}.get(path.rsplit(".", 1)[-1], "uniform")
        store.set(path, init_param(rng, shape, fill))
    return store


# -- path patterns ------------------------------------------------------

_SEG_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\[([^\]]*)\])?$")


def match_prefixes(paths, pattern):
    """Concrete prefixes of the given paths matched by a pattern.

    A ``name[index]`` segment takes an integer, ``*`` or a half-open
    ``lo:hi`` range. The pattern compiles to one regex; each index group it
    captures is then checked against its segment's range.
    """
    if not pattern:
        raise ConfigError("empty pattern")
    parts, ranges = [], []
    for raw in pattern.split("."):
        m = _SEG_RE.match(raw)
        if not m:
            raise ConfigError(f"bad segment {raw!r} in {pattern!r}")
        name, idx = m.groups()
        if idx is None:
            parts.append(name)
            continue
        parts.append(name + r"\[(\d+)\]")
        lo, sep, hi = idx.partition(":")
        try:
            if idx == "*":
                ranges.append((0, math.inf))
            else:
                ranges.append((int(lo), int(hi)) if sep else (int(idx), int(idx) + 1))
        except ValueError:
            raise ConfigError(f"bad {'range' if sep else 'index'} {raw!r}") from None
    rx = re.compile(r"\.".join(parts) + r"(?=\.|$)")
    return sorted({m.group(0) for m in map(rx.match, paths) if m and all(
        lo <= int(i) < hi for i, (lo, hi) in zip(m.groups(), ranges))})


# -- forward ------------------------------------------------------------


def forward(spec, params: ParamStore, x: Tensor, capture=(), route=None):
    """Run the model; returns ``(logits, trace)``.

    ``capture`` is a set of hook paths to record; the trace contains
    exactly those hooks and capturing never perturbs the logits.
    ``route(name, site, value, *args)`` is where injections enter; the
    forward uses what it returns in place of ``value``: ``linear_out`` gets
    a linear layer's output and then its input, ``post_mlp`` an MLP's
    output, ``kv_prefix`` ``None`` for a block's prefix keys and values.
    The default passes each value through.
    """
    route = route or (lambda name, site, value, *args: value)
    capture = set(capture)
    unknown = capture - spec.all_hooks()
    if unknown:
        raise ConfigError(f"unknown hook {', '.join(sorted(unknown))}")
    trace = {}

    def hook(name, value):
        if name in capture:
            trace[name] = value

    def lin(site, inp):
        w = params.get(f"{site}.weight")
        b = params.get(f"{site}.bias")
        return route("linear_out", site, T.affine(inp, w, b), inp)

    h = x
    for stage in spec.stages():
        feature = h  # the head stage's input, once the loop ends
        if stage.block:
            hook(f"{stage.site}.input", h)
        h = stage.step(params, h, hook, lin, route)
        if stage.block:
            hook(f"{stage.site}.output", h)
    hook("feature", feature)
    hook("logits", h)
    return h, trace
