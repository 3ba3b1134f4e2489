"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are immutable after creation; every op that touches a tensor with
``requires_grad`` records the local backward rule so that :func:`backward`
can replay the graph in reverse topological order. A one-input op records
it through ``Tensor._unary(out, dgrad)``, ``dgrad`` mapping the output's
gradient to the input's; the ops with more inputs (``_binary``, ``matmul``,
``affine``, ``attention``, ``layernorm``, ``concat``, ``custom_op``) and
``expand``, which has a per-sample rule, write their own closures. ``sum``
and ``mean`` take an int, negative or tuple axis, and ``reshape`` one
``-1``. Non-finite values are rejected at creation time, which makes
divergence surface as an error at the op that produced it instead of
poisoning downstream results.

Two fused nodes keep the tape short on the model hot path: :func:`affine`
(``x @ w.T + b``, one node where a chain took up to six) and
:func:`attention` (a whole multi-head attention block on a fused qkv
projection, with optional prefix keys and values, one node where a chain
took 16, or 24 with a prefix). Each is bit-identical in value and
gradients to the chain it replaces. A leaf that three or more of them
read (one LoRA instance shared by three sites) sums its gradient
contributions in another order than the chain did, which can move its
last bit. ``affine`` and ``layernorm`` skip the gradient of every
untracked operand, so a frozen weight or norm costs no derivative work
and a frozen prefix of a network records no tape at all. Backward
closures keep only what the derivative needs and do the derivative work
themselves, so a forward that no backward follows pays nothing for it
(``gelu`` keeps ``x`` and ``tanh(u)``).

Per-sample backward: ``backward(root, per_sample_sq=True)``, on a root
that sums one term per sample (samples on axis 0, never mixed), maps each
leaf to the sum over samples of its squared per-sample gradient, from one
pass over one batched tape (BackPACK's "sum of squared gradients"; the
diagonal Fisher of ``merger.fisher_estimate``). Samples only meet where a
leaf's gradient is summed over them, so only those ops carry a
per-sample rule: ``affine`` (weight and bias; for a 2-D input the weight
term is ``(g*g).T @ (x*x)``), ``layernorm`` (gamma and beta) and
``expand``. A leaf that any other op reaches, or that two ops read,
raises ``ConfigError`` rather than give a wrong sum.

Numeric note: ``gelu`` computes ``x*x*x``, not ``x**3``; numpy sends the
latter through libm ``pow``, about a hundred times slower, and the two
cubes differ by one ulp in about a quarter of the elements.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConfigError, DetachedRoot, NonFiniteValue, ShapeMismatch

_GELU_C = math.sqrt(2.0 / math.pi)
_PER_SAMPLE_BLOCK = 1 << 17  # float64 elements (1 MiB) of per-sample affine gradients
_uid_counter = itertools.count()


class Tensor:
    """Immutable dense array node of the autodiff graph."""

    __slots__ = ("data", "requires_grad", "uid", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("tensor contains NaN or Inf")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.uid = next(_uid_counter)
        self._parents = tuple(_parents)
        self._backward = _backward

    # -- basics ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        if self.data.size != 1:
            raise ShapeMismatch(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def tolist(self):
        return self.data.tolist()

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing -------------------------------------------------

    def _make(self, data, parents, backward):
        """Wrap an op result; drops the tape when no parent needs grad."""
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        if not any(map(_tracked, parents)):
            return Tensor(data)
        return Tensor(data, _parents=parents, _backward=backward)

    def _unary(self, out, dgrad):
        """Wrap the result of a one-input op whose backward hands
        ``dgrad(grad)`` to ``self``. The gradient arrives in the shape numpy
        gave ``out``, also where ``Tensor`` stores a 0-d result as ``(1,)``."""
        if not _tracked(self):
            return Tensor(out)
        shape = np.shape(out)
        return Tensor(out, _parents=(self,),
                      _backward=lambda grad, acc: acc(self, dgrad(grad.reshape(shape))))

    # -- elementwise ----------------------------------------------------

    def _binary(self, other, fwd, bwd_self, bwd_other):
        if isinstance(other, (int, float)):
            other = Tensor(np.float64(other))
        if not isinstance(other, Tensor):
            raise TypeError(f"unsupported operand {type(other)!r}")
        a, b = self.data, other.data
        if a.shape != b.shape and a.size != 1 and b.size != 1:
            raise ShapeMismatch(f"operand shapes {a.shape} vs {b.shape}")
        out_data = fwd(a, b)

        def backward(grad, acc):
            ga = bwd_self(grad, a, b)
            gb = bwd_other(grad, a, b)
            acc(self, _unbroadcast(ga, a.shape))
            acc(other, _unbroadcast(gb, b.shape))

        return self._make(out_data, (self, other), backward)

    def __add__(self, other):
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return Tensor(np.float64(other)) - self

    def __mul__(self, other):
        return self._binary(
            other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(
            other,
            np.divide,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, s):
        s = float(s)
        return self._unary(self.data * s, lambda g: g * s)

    def relu(self):
        mask = self.data > 0
        return self._unary(np.where(mask, self.data, 0.0), lambda g: g * mask)

    def gelu(self):
        # tanh approximation; x*x*x, not x**3, which numpy sends through pow
        x = self.data
        t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))

        def dgrad(g):
            # d/dx [0.5 x (1 + tanh(u))], u = c (x + 0.044715 x^3)
            du = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
            return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)

        return self._unary(0.5 * x * (1.0 + t), dgrad)

    def tanh(self):
        t = np.tanh(self.data)
        return self._unary(t, lambda g: g * (1.0 - t**2))

    def exp(self):
        e = np.exp(self.data)
        return self._unary(e, lambda g: g * e)

    def log(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(self.data)
        x = self.data
        return self._unary(out, lambda g: g / x)

    def sqrt(self):
        r = np.sqrt(self.data)
        return self._unary(r, lambda g: g * 0.5 / r)

    def square(self):
        x = self.data
        return self._unary(x * x, lambda g: g * 2.0 * x)

    def abs(self):
        s = np.sign(self.data)
        return self._unary(np.abs(self.data), lambda g: g * s)

    # -- reductions and shape -------------------------------------------

    def sum(self, axis=None, keepdims=False):
        shape = self.shape
        dropped = () if axis is None or keepdims else axis  # axes the gradient lacks
        return self._unary(self.data.sum(axis=axis, keepdims=keepdims),
                           lambda g: np.broadcast_to(np.expand_dims(g, dropped), shape))

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else int(np.prod(np.take(self.shape, axis)))
        return self.sum(axis=axis, keepdims=keepdims).scale(1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        try:
            out = self.data.reshape(shape)  # numpy resolves one -1
        except (TypeError, ValueError):
            raise ShapeMismatch(f"cannot reshape {self.shape} to {shape}") from None
        old = self.shape
        return self._unary(out, lambda g: g.reshape(old))

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return self._unary(np.transpose(self.data, axes), lambda g: np.transpose(g, inv))

    @property
    def T(self):
        return self.transpose()

    def expand(self, shape):
        shape = tuple(shape)
        try:
            out = np.broadcast_to(self.data, shape)
        except ValueError as exc:
            raise ShapeMismatch(str(exc)) from None
        src = self.shape

        def backward(g, acc):
            _acc_summed(acc, self, lambda: _sum_to(g, src), lambda: sq(g))

        def sq(g):
            # per-sample sums keep axis 0, which src must be broadcast along
            extra = g.ndim - len(src)
            if extra:
                per_shape = g.shape[:1] + (1,) * (extra - 1) + src
            elif src[:1] == (1,):
                per_shape = g.shape[:1] + src[1:]
            else:
                raise ConfigError(f"no per-sample rule: expand {src} -> {g.shape} "
                                  "keeps the sample axis")
            per = _sum_to(g, per_shape)
            return (per * per).sum(axis=0).reshape(src)

        return self._make(np.ascontiguousarray(out), (self,), backward)

    def __getitem__(self, key):
        shape = self.shape

        def dgrad(g):
            out = np.zeros(shape)
            np.add.at(out, key, g)  # repeated fancy indices accumulate
            return out

        return self._unary(self.data[key], dgrad)

    # -- matmul ---------------------------------------------------------

    def matmul(self, other):
        return matmul(self, other)

    __matmul__ = matmul


# -- construction -------------------------------------------------------


def tensor_new(shape, values, requires_grad=False):
    """Build a tensor from an explicit flat value list."""
    shape = tuple(int(d) for d in shape)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if int(np.prod(shape)) != values.size:
        raise ShapeMismatch(
            f"shape {shape} implies {int(np.prod(shape))} values, got {values.size}"
        )
    return Tensor(values.reshape(shape), requires_grad=requires_grad)


def constant(data):
    return Tensor(data)


def _tracked(t):
    """True when gradients flow into ``t``: a grad leaf or a recorded op."""
    return t.requires_grad or bool(t._parents)


def _is_leaf(t):
    return t.requires_grad and not t._parents


def _sum_to(g, shape):
    """Sum a gradient broadcast from ``shape``: over prepended axes, then over
    axes broadcast from 1."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def _sample_sq(a):
    """``[n, ..., d] -> [d]``: each sample's sum over the middle axes, squared,
    summed over the samples."""
    if a.ndim < 2:
        raise ConfigError(f"no per-sample rule: a {a.shape} gradient has no sample axis")
    per = a.reshape(a.shape[0], -1, a.shape[-1]).sum(axis=1)
    return (per * per).sum(axis=0)


def _acc_summed(acc, t, total, sq):
    """Give ``t`` its gradient summed over the sample axis 0.

    ``total()`` is that sum. In a per-sample backward a grad leaf gets
    ``sq()`` instead: its squared per-sample gradients summed over samples.
    """
    if acc.per_sample and _is_leaf(t):
        acc.add_sq(t, sq())
    else:
        acc(t, total())


def _unbroadcast(grad, shape):
    g = np.asarray(grad, dtype=np.float64)
    if g.shape == shape:
        return g
    if int(np.prod(shape)) == 1:
        return np.full(shape, g.sum())
    # the other operand has size 1 but higher rank: same size, more axes
    return g.reshape(shape)


# -- free-function ops --------------------------------------------------

_EW_UNARY = {
    "relu": Tensor.relu,
    "gelu": Tensor.gelu,
    "exp": Tensor.exp,
    "log": Tensor.log,
    "square": Tensor.square,
}

_EW_BINARY = {
    "add": Tensor.__add__,
    "sub": Tensor.__sub__,
    "mul": Tensor.__mul__,
}


def ew_op(kind, a, b=None):
    """Elementwise op dispatcher over the documented kind set."""
    if kind in _EW_UNARY:
        return _EW_UNARY[kind](a)
    if kind == "scale":
        return a.scale(b)
    if kind in _EW_BINARY:
        return _EW_BINARY[kind](a, b)
    raise ConfigError(f"unknown elementwise op {kind!r}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batched when both operands share leading dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch("matmul requires >= 2-D operands")
    if a.ndim != b.ndim and not (a.ndim == 2 or b.ndim == 2):
        raise ShapeMismatch(f"rank mismatch {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"inner dims {a.shape} @ {b.shape}")
    if a.ndim == b.ndim and a.shape[:-2] != b.shape[:-2]:
        raise ShapeMismatch(f"batch dims {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def backward(grad, acc):
        ga = np.matmul(grad, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), grad)
        # when one operand is 2-D against a batched one, reduce batch dims
        if ga.ndim > a.ndim:
            ga = ga.sum(axis=tuple(range(ga.ndim - a.ndim)))
        if gb.ndim > b.ndim:
            gb = gb.sum(axis=tuple(range(gb.ndim - b.ndim)))
        acc(a, ga)
        acc(b, gb)

    return a._make(out, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor = None) -> Tensor:
    """``x @ w.T (+ b)`` over the last axis of an ``[..., in]`` input, one node.

    Bit-identical in value and gradients to ``matmul(x, w.T) + b.expand(...)``
    on the flattened rows: ``w.T`` is copied to C order as that chain's node
    did, and the backward runs the chain's numpy calls in the same order.
    The backward computes no gradient for an operand that is not tracked
    (a frozen weight, a constant input). A per-sample backward gets the
    summed squared per-sample gradients of ``w`` and ``b``, the samples
    being ``x``'s axis 0.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeMismatch(f"affine input {x.shape} against weight {w.shape}")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeMismatch(f"bias {b.shape} for weight {w.shape}")
    x2 = x.data.reshape(-1, x.shape[-1])
    wt = np.ascontiguousarray(w.data.T)
    y = np.matmul(x2, wt)
    if b is not None:
        y = y + b.data

    def backward(grad, acc):
        g = grad.reshape(y.shape)
        if b is not None and _tracked(b):
            _acc_summed(acc, b, lambda: g.sum(axis=0),
                        lambda: _sample_sq(g.reshape(x.shape[:-1] + g.shape[1:])))
        if _tracked(x):
            acc(x, np.matmul(g, np.swapaxes(wt, -1, -2)).reshape(x.shape))
        if _tracked(w):
            _acc_summed(acc, w, lambda: np.transpose(np.matmul(np.swapaxes(x2, -1, -2), g)),
                        lambda: w_sq(g))

    def w_sq(g):
        if x.ndim == 2:  # one row per sample: sum_i g_i^2 x_i^2, no [n, out, in]
            return np.matmul((g * g).T, x2 * x2)
        n = x.shape[0]
        gs = np.swapaxes(g.reshape(n, -1, g.shape[1]), 1, 2)
        xs = x2.reshape(n, -1, x2.shape[1])
        out = np.zeros((g.shape[1], x2.shape[1]))
        # per-sample [out, in] gradients, a cache-sized block of samples at a time
        step = max(1, _PER_SAMPLE_BLOCK // out.size)
        for lo in range(0, n, step):
            per = np.matmul(gs[lo:lo + step], xs[lo:lo + step])
            out += np.einsum("noi,noi->oi", per, per)
        return out

    return x._make(y.reshape(x.shape[:-1] + (w.shape[0],)), (x, w, b), backward)


def attention(qkv: Tensor, heads, prefix=None) -> Tensor:
    """Multi-head self-attention on a fused ``[n, s, 3d]`` projection, one node.

    ``qkv`` holds queries, keys and values side by side on the last axis.
    ``prefix`` is an optional ``(key, value)`` pair of ``[t, d]`` tensors
    put in front of every sample's keys and values. Returns the ``[n, s, d]``
    context, heads concatenated. Bit-identical in value and gradients to
    the chain of slices, reshapes, transposes, prefix concat, matmuls, scale
    and softmax it replaces: matmul operands get the memory layout that
    chain gave them, and the backward keeps its order of operations.
    """
    if qkv.ndim != 3 or qkv.shape[-1] % (3 * heads):
        raise ShapeMismatch(f"qkv {qkv.shape} is not [n, s, 3 x a multiple of {heads}]")
    n, s, d3 = qkv.shape
    d = d3 // 3
    hd = d // heads
    scale = 1.0 / math.sqrt(hd)

    def split(a, lo, rows):  # [rows, d] per sample -> [n, heads, rows, hd]
        return a[..., lo:lo + d].reshape(-1, rows, heads, hd).transpose(0, 2, 1, 3)

    q = np.ascontiguousarray(split(qkv.data, 0, s))
    k, v = split(qkv.data, d, s), split(qkv.data, 2 * d, s)
    parents = (qkv,)
    if prefix is not None:
        parents += tuple(prefix)
        t = prefix[0].shape[0]
        if any(p.shape != (t, d) for p in prefix):
            raise ShapeMismatch(f"prefix {[p.shape for p in prefix]}, expected [t,{d}]")
        k, v = (np.concatenate([np.broadcast_to(split(p.data, 0, t), (n, heads, t, hd)), a],
                               axis=2) for p, a in zip(prefix, (k, v)))
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    v = np.ascontiguousarray(v)
    attn = _softmax(np.matmul(q, kt) * scale)
    ctx = np.matmul(attn, v)

    def backward(grad, acc):
        g = np.transpose(grad.reshape(n, s, heads, hd), (0, 2, 1, 3))
        g_attn = np.matmul(g, np.swapaxes(v, -1, -2))
        g_v = np.matmul(np.swapaxes(attn, -1, -2), g)
        g_scores = _softmax_grad(g_attn, attn) * scale
        g_q = np.matmul(g_scores, np.swapaxes(kt, -1, -2))
        g_k = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_scores), -1, -2)
        if prefix is not None:
            for p, gp in zip(prefix, (g_k[:, :, :t], g_v[:, :, :t])):
                acc(p, np.transpose(gp.sum(axis=0), (1, 0, 2)).reshape(t, d))
            g_k, g_v = g_k[:, :, t:], g_v[:, :, t:]
        g_qkv = np.zeros(qkv.shape)
        for i, gi in enumerate((g_q, g_k, g_v)):
            g_qkv[:, :, i * d:(i + 1) * d] += np.transpose(gi, (0, 2, 1, 3)).reshape(n, s, d)
        acc(qkv, g_qkv)

    return qkv._make(np.transpose(ctx, (0, 2, 1, 3)).reshape(n, s, d), parents, backward)


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    if not np.all(np.isfinite(y)):
        raise NonFiniteValue("softmax overflow")
    return y


def _softmax_grad(g, y):
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


def softmax(x: Tensor, temperature=1.0) -> Tensor:
    """Row-stabilized softmax along the last axis at the given temperature."""
    if temperature <= 0:
        raise ConfigError("temperature must be positive")
    y = _softmax(x.data / temperature)
    return x._unary(y, lambda g: _softmax_grad(g, y) / temperature)


def log_softmax(x: Tensor, temperature=1.0) -> Tensor:
    if temperature <= 0:
        raise ConfigError("temperature must be positive")
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    y = np.exp(out)
    return x._unary(out, lambda g: (g - y * g.sum(axis=-1, keepdims=True)) / temperature)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps=1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ConfigError("eps must be positive")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatch(
            f"gamma/beta must be [{d}], got {gamma.shape} / {beta.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def backward(g, acc):
        lead = tuple(range(g.ndim - 1))
        if _tracked(gamma):
            _acc_summed(acc, gamma, lambda: (g * xhat).sum(axis=lead),
                        lambda: _sample_sq(g * xhat))
        if _tracked(beta):
            _acc_summed(acc, beta, lambda: g.sum(axis=lead), lambda: _sample_sq(g))
        if _tracked(x):
            gg = g * gamma.data
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            acc(x, (gg - m1 - xhat * m2) * inv)

    return x._make(out, (x, gamma, beta), backward)


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    cuts = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(grad, acc):
        for t, g in zip(tensors, np.split(grad, cuts, axis=axis)):
            acc(t, g)

    return tensors[0]._make(out, tensors, backward)


def custom_op(inputs, value, grads):
    """Graph node with a hand-written backward rule.

    ``grads[i]`` maps the upstream gradient to the gradient of ``inputs[i]``.
    Used for spectra (SVD / power iteration) where singular vectors are
    treated as locally constant.
    """
    inputs = tuple(inputs)

    def backward(grad, acc):
        for t, fn in zip(inputs, grads):
            if fn is not None:
                acc(t, fn(np.asarray(grad)))

    return inputs[0]._make(value, inputs, backward)


# -- reverse pass -------------------------------------------------------


class _Acc:
    """The ``acc`` handed to backward closures: ``acc(t, g)`` adds ``g`` to
    the gradient of ``t``; in a per-sample backward a grad leaf takes only
    :meth:`add_sq`, one squared-gradient sum from one op."""

    def __init__(self, root, per_sample):
        self.grads = {root.uid: np.ones(root.shape)}
        self.per_sample = per_sample
        self.sq = {}

    def __call__(self, t, g):
        if self.per_sample and _is_leaf(t):
            raise ConfigError(f"the {t.shape} leaf is reached by an op with no "
                              "per-sample rule")
        g = np.asarray(g, dtype=np.float64)
        if g.shape != t.shape:
            g = g.reshape(t.shape)
        if t.uid in self.grads:
            self.grads[t.uid] = self.grads[t.uid] + g
        else:
            self.grads[t.uid] = g

    def add_sq(self, t, sq):
        if t.uid in self.sq:
            # sum_i (a_i + b_i)^2 is not sum_i a_i^2 + sum_i b_i^2
            raise ConfigError(f"no per-sample rule: the {t.shape} leaf is read by "
                              "more than one op")
        self.sq[t.uid] = sq


def backward(root: Tensor, per_sample_sq=False):
    """Run reverse-mode accumulation from a scalar root.

    Returns a map ``leaf uid -> gradient Tensor`` over all reachable
    leaves with ``requires_grad``.

    With ``per_sample_sq`` the root must be a sum of per-sample terms,
    with the samples on axis 0 of every activation and no op mixing them.
    Each leaf then maps to the sum over samples of its squared per-sample
    gradient, all from one backward pass. Only the ops that sum a leaf's
    gradient over the samples have a rule for that (``affine`` weight and
    bias, ``layernorm`` gamma and beta, ``expand``); a leaf that another op
    reaches, or that two ops read, raises :class:`ConfigError`.
    """
    if root.size != 1:
        raise ShapeMismatch(f"backward root has shape {root.shape}")
    if not root._parents and not root.requires_grad:
        raise DetachedRoot("root is not recorded on any tape")

    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node.uid in seen:
            continue
        seen.add(node.uid)
        stack.append((node, True))
        for p in node._parents:
            if p.uid not in seen:
                stack.append((p, False))

    acc = _Acc(root, per_sample_sq)
    for node in reversed(topo):
        g = acc.grads.get(node.uid)
        if g is None or node._backward is None:
            continue
        node._backward(g, acc)

    found = acc.sq if per_sample_sq else acc.grads
    return {node.uid: Tensor(found[node.uid]) for node in topo
            if _is_leaf(node) and node.uid in found}


def grad(root: Tensor, leaves):
    """Convenience wrapper: gradients for an explicit leaf list."""
    gmap = backward(root)
    zero = lambda t: Tensor(np.zeros(t.shape))
    return [gmap.get(t.uid, zero(t)) for t in leaves]
