"""Model family (MLP and mini transformer) with named parameter paths.

Parameter paths follow ``segment('.'segment)*`` with ``name[index]``
segments, e.g. ``layers[0].weight`` or ``blocks[1].attn.qkv.bias``. The
path set is a pure function of the spec, so two builds of the same spec
enumerate identical paths in identical (lexicographic) order.

Each spec class carries its family's facts: parameter shapes, hook names,
head paths, adaptation sites and trainable sets, and the forward body that
:func:`forward` runs after its shared prologue.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class MlpSpec:
    widths: tuple  # input width, hidden widths..., class count
    activation: str = "relu"

    kind = "mlp"

    def __post_init__(self):
        if len(self.widths) < 2 or any(w <= 0 for w in self.widths):
            raise ConfigError(f"bad widths {self.widths}")
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

    def param_shapes(self):
        """Map parameter path -> shape tuple, in definition order."""
        shapes = {}
        for i in range(self.n_layers):
            fan_out, fan_in = self.widths[i + 1], self.widths[i]
            shapes[f"layers[{i}].weight"] = (fan_out, fan_in)
            shapes[f"layers[{i}].bias"] = (fan_out,)
        return shapes

    def all_hooks(self):
        return {"feature", "logits"} | {f"layers[{i}].{h}" for i in range(self.n_layers)
                                        for h in ("input", "preact", "output")}

    def head_paths(self):
        last = self.n_layers - 1
        return {f"layers[{last}].weight", f"layers[{last}].bias"}

    def adapter_sites(self):
        """Site -> width for bottleneck adapters: every hidden layer."""
        return {f"layers[{i}]": self.widths[i + 1] for i in range(self.n_layers - 1)}

    def prefix_sites(self):
        return {}

    def partial_k_paths(self, k):
        """Head plus the last k layers."""
        n = self.n_layers
        return self.head_paths() | {f"layers[{i}].{leaf}" for i in range(max(0, n - k), n)
                                    for leaf in ("weight", "bias")}

    def bitfit_paths(self):
        """(trainable paths, gradient masks): every bias plus the head."""
        biases = {p for p in self.param_shapes() if p.endswith(".bias")}
        return biases | self.head_paths(), {}

    def _forward(self, params, x, hook, lin, route):
        if x.ndim != 2 or x.shape[1] != self.widths[0]:
            raise ShapeMismatch(f"mlp input {x.shape}, expected [n,{self.widths[0]}]")
        act = Tensor.relu if self.activation == "relu" else Tensor.gelu
        h = feature = x
        for i in range(self.n_layers):
            site = f"layers[{i}]"
            hook(f"{site}.input", h)
            h = lin(site, h)
            hook(f"{site}.preact", h)
            if i < self.n_layers - 1:  # the last layer's output is the logits
                h = feature = route("post_mlp", site, act(h))
            hook(f"{site}.output", h)
        return h, feature


@dataclass(frozen=True)
class MiniVitSpec:
    dim: int
    blocks: int
    heads: int
    mlp_dim: int
    classes: int
    seq_len: int
    input_dim: int

    kind = "mini_vit"

    def __post_init__(self):
        dims = (self.dim, self.blocks, self.heads, self.mlp_dim,
                self.classes, self.seq_len, self.input_dim)
        if any(d <= 0 for d in dims):
            raise ConfigError(f"all dims must be positive: {self}")
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

    def param_shapes(self):
        """Map parameter path -> shape tuple, in definition order."""
        d = self.dim
        shapes = {"patch_embed.weight": (d, self.input_dim), "patch_embed.bias": (d,),
                  "cls_token": (d,), "pos_embed": (self.seq_len + 1, d)}
        for i in range(self.blocks):
            p = f"blocks[{i}]"
            shapes[f"{p}.norm1.gamma"] = (d,)
            shapes[f"{p}.norm1.beta"] = (d,)
            shapes[f"{p}.attn.qkv.weight"] = (3 * d, d)
            shapes[f"{p}.attn.qkv.bias"] = (3 * d,)
            shapes[f"{p}.attn.proj.weight"] = (d, d)
            shapes[f"{p}.attn.proj.bias"] = (d,)
            shapes[f"{p}.norm2.gamma"] = (d,)
            shapes[f"{p}.norm2.beta"] = (d,)
            shapes[f"{p}.mlp.fc1.weight"] = (self.mlp_dim, d)
            shapes[f"{p}.mlp.fc1.bias"] = (self.mlp_dim,)
            shapes[f"{p}.mlp.fc2.weight"] = (d, self.mlp_dim)
            shapes[f"{p}.mlp.fc2.bias"] = (d,)
        shapes["norm.gamma"] = (d,)
        shapes["norm.beta"] = (d,)
        shapes["head.weight"] = (self.classes, d)
        shapes["head.bias"] = (self.classes,)
        return shapes

    def all_hooks(self):
        return {"feature", "logits"} | {f"blocks[{i}].{h}" for i in range(self.blocks)
                                        for h in ("input", "preact", "output")}

    def head_paths(self):
        return {"head.weight", "head.bias"}

    def adapter_sites(self):
        """Site -> width for bottleneck adapters and prefix tokens: every block."""
        return {f"blocks[{i}]": self.dim for i in range(self.blocks)}

    prefix_sites = adapter_sites

    def partial_k_paths(self, k):
        """Head plus the last k blocks and the final norm; everything once k >= blocks."""
        b = self.blocks
        if k >= b:
            return set(self.param_shapes())
        last = tuple(f"blocks[{i}]." for i in range(max(0, b - k), b))
        paths = self.head_paths() | {p for p in self.param_shapes() if p.startswith(last)}
        return paths | {"norm.gamma", "norm.beta"} if k > 0 else paths

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

    def _forward(self, params, x, hook, lin, route):
        if x.ndim != 3 or x.shape[1] != self.seq_len or x.shape[2] != self.input_dim:
            raise ShapeMismatch(
                f"vit input {x.shape}, expected [n,{self.seq_len},{self.input_dim}]"
            )
        n, d = x.shape[0], self.dim
        tokens = lin("patch_embed", x)
        cls = params.get("cls_token").expand((n, 1, d))
        h = T.concat([cls, tokens], axis=1)
        h = h + params.get("pos_embed").expand(h.shape)
        for i in range(self.blocks):
            blk = f"blocks[{i}]"
            hook(f"{blk}.input", h)
            a_in = T.layernorm(h, params.get(f"{blk}.norm1.gamma"),
                               params.get(f"{blk}.norm1.beta"))
            qkv = lin(f"{blk}.attn.qkv", a_in)  # [n, s, 3d]
            ctx = T.attention(qkv, self.heads, route("kv_prefix", blk, None))
            h = h + lin(f"{blk}.attn.proj", ctx)
            m_in = T.layernorm(h, params.get(f"{blk}.norm2.gamma"),
                               params.get(f"{blk}.norm2.beta"))
            pre = lin(f"{blk}.mlp.fc1", m_in)
            hook(f"{blk}.preact", pre)
            mid = pre.gelu()
            mlp_out = lin(f"{blk}.mlp.fc2", mid)
            mlp_out = route("post_mlp", blk, mlp_out)
            h = h + mlp_out
            hook(f"{blk}.output", h)
        h = T.layernorm(h, params.get("norm.gamma"), params.get("norm.beta"))
        feature = h[:, 0, :]
        return lin("head", feature), feature


def spec_digest(spec) -> bytes:
    return hashlib.sha256(spec.canonical().encode()).digest()


# -- parameter store ----------------------------------------------------


class ParamStore:
    """Ordered path -> Tensor map; a parameter trains iff its tensor requires grad."""

    def __init__(self, entries=None):
        self._entries = dict(entries or {})

    def paths(self):
        return sorted(self._entries)

    def __contains__(self, path):
        return path in self._entries

    def __len__(self):
        return len(self._entries)

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

    logits, feature = spec._forward(params, x, hook, lin, route)
    hook("feature", feature)
    hook("logits", logits)
    return logits, trace
