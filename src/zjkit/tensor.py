"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are immutable after creation; every op that reads a tracked tensor
(a grad leaf or a recorded result) records a node that :func:`backward`
replays in reverse topological order, dropping each interior node's
gradient once that node's derivatives have run. Only the leaves' gradients
are kept, and each leaves the tape as the read-only ndarray it was summed
in, not a ``Tensor``. Ops record through one
recorder, ``Tensor._record(out, parents, dgrads)``, and state only the
derivative they hand each operand: ``dgrads[i]`` maps the output's gradient
to the gradient of ``parents[i]`` (``Tensor._unary(out, dgrad)`` for one
input). The untracked rule lives there: an operand that is None or
untracked gets no tape edge and no derivative call, so a constant, a frozen
weight or norm costs no derivative work and a frozen prefix of a network
records no tape at all. One backward closure, the recorder's, serves every
op; the derivatives of ``attention`` and of ``lowrank`` share their work
through ``_per_grad``, a memo kept for one incoming gradient. One reducer,
``_sum_to``, sums a broadcast operand's gradient back to its shape.
``sum`` and ``mean`` take an int, negative or tuple axis, ``transpose``
negative axes, and ``reshape`` one ``-1``; a bad axis or shape, in these,
``expand`` or ``concat``, or a ``mean`` of no elements, is
``ShapeMismatch``. Non-finite values are rejected at creation time, which
makes divergence surface as an error at the op that produced it instead
of poisoning downstream results.

Three fused nodes keep the tape short on the model hot path:
:func:`affine` (``x @ w.T + b``, one node where a chain took up to six),
:func:`attention` (a whole multi-head attention block on a fused qkv
projection, with optional prefix keys and values, one node where a chain
took 16, or 24 with a prefix) and :func:`lowrank` (LoRA's
``y + s * (x @ a.T) @ b.T`` at one site, one node where a chain took
four). Each is bit-identical in value and gradients to the chain it
replaces. A tensor that three or more ops read can sum its gradient
contributions in another order than the chain did, which can move its
last bit: a LoRA site's input gets the ``lowrank`` node's contribution
before the base ``affine``'s, where the chain handed it the affine's
first. Derivatives keep only what they need and do the derivative
work themselves, so a forward that no backward follows pays nothing for
it (``gelu`` keeps ``x`` and ``tanh(u)``).

Buffers: the hot ops (``affine``, ``lowrank``, ``layernorm``, ``gelu``,
softmax and ``attention``) write each large temporary into an array they
allocated in the same call, with ``+=``, ``*=`` and ``out=``, keeping
every IEEE operation and its operand grouping, so values and gradients are
the ones the fresh-temporary formulas give. Three kinds of array are never written:
an operand's ``.data``, the incoming gradient ``g`` (``add`` hands one
array to both operands, so ``backward`` makes every gradient it stores
read-only), and an array a derivative keeps (``xhat``, ``t``, ``attn``).
The finiteness check sums the array first: a finite sum proves every
element finite, and only a sum that is not (NaN, an infinity, or an
overflow, which numpy warns of) runs the elementwise check.

Inference: inside ``with no_grad():`` no op records a tape. The context
flips one switch that only ``Tensor._record`` reads: while it is off the
recorder returns ``Tensor(out)`` at once, with no tape edge and no
closure, so a forward keeps no activation alive for a backward nobody
runs, and a ``backward`` from its result raises ``ConfigError``. Values
are the ones a taped forward computes, and the finiteness check still
runs. The switch is restored on exit, also when the block raises.

Per-sample backward: ``backward(root, per_sample_sq=True)``, on a root
that sums one term per sample (samples on axis 0, never mixed), maps each
leaf to the sum over samples of its squared per-sample gradient, from one
pass over one batched tape (BackPACK's "sum of squared gradients"; the
diagonal Fisher of ``merger.fisher_estimate``). Samples only meet where a
leaf's gradient is summed over them, so only those ops carry a
per-sample rule, a ``(summed over samples, per-sample squares)`` pair of
maps in place of a derivative: ``affine`` (weight and bias; for a 2-D
input the weight term is ``(g*g).T @ (x*x)``), ``lowrank`` (both factors,
by the same rule), ``layernorm`` (gamma and beta) and ``expand``. A leaf
that any other op reaches, or that two ops read, raises ``ConfigError``
rather than give a wrong sum.

Numeric note: ``gelu`` computes ``x*x*x``, not ``x**3``; numpy sends the
latter through libm ``pow``, about a hundred times slower, and the two
cubes differ by one ulp in about a quarter of the elements.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import weakref

import numpy as np

from .errors import ConfigError, NonFiniteValue, ShapeMismatch

_GELU_C = math.sqrt(2.0 / math.pi)
_PER_SAMPLE_BLOCK = 1 << 17  # float64 elements (1 MiB) of per-sample affine gradients
_uid_counter = itertools.count()
_recording = True  # off inside no_grad(); of the ops, Tensor._record alone reads it


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block (see the module docstring); nests."""
    global _recording
    was, _recording = _recording, False
    try:
        yield
    finally:
        _recording = was


class Tensor:
    """Immutable dense array node of the autodiff graph."""

    __slots__ = ("data", "requires_grad", "uid", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not _finite(arr):
            raise NonFiniteValue("tensor contains NaN or Inf")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.uid = next(_uid_counter)
        self._parents = _parents  # every caller passes a tuple
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

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing -------------------------------------------------

    @staticmethod
    def _record(out, parents, dgrads):
        """Wrap an op's result ``out`` (an ndarray or numpy scalar); the
        backward hands each operand ``parents[i]`` (a tuple) the gradient
        ``dgrads[i](grad)``, accumulated in that order. ``grad`` arrives in
        the shape numpy gave ``out``, also where ``Tensor`` stores a 0-d
        result as ``(1,)``. An operand that is None or untracked (a
        constant, a frozen weight) gets no tape edge and no derivative
        call, so a frozen prefix of a network records no tape.

        An operand whose gradient is summed over the sample axis 0 takes a
        per-sample rule, a pair of maps: the gradient summed over samples,
        and its squared per-sample gradients summed over samples, which a
        grad leaf gets instead in a per-sample backward.

        Inside :func:`no_grad` the result is a bare ``Tensor(out)``."""
        if not _recording:
            return Tensor(out)
        tape, rules = parents, dgrads
        for t in parents:  # copy only when an operand drops out: most nodes keep all
            if t is None or not (t.requires_grad or t._parents):
                tape, rules = [], []
                for t, d in zip(parents, dgrads):
                    if t is not None and (t.requires_grad or t._parents):
                        tape.append(t)
                        rules.append(d)
                if not tape:
                    return Tensor(out)
                tape = tuple(tape)
                break
        shape = out.shape  # np.shape(out) costs several times more per node

        def backward(grad, acc):
            g = grad.reshape(shape)
            for t, d in zip(tape, rules):
                if type(d) is not tuple:
                    acc(t, d(g))
                elif acc.per_sample and _is_leaf(t):
                    acc.add_sq(t, d[1](g))
                else:
                    acc(t, d[0](g))

        return Tensor(out, _parents=tape, _backward=backward)

    def _unary(self, out, dgrad):
        """:meth:`_record` for a one-input op."""
        return Tensor._record(out, (self,), (dgrad,))

    # -- elementwise ----------------------------------------------------

    def _binary(self, other, fwd, bwd_self, bwd_other):
        if isinstance(other, (int, float)):
            other = Tensor(np.float64(other))
        if not isinstance(other, Tensor):
            raise TypeError(f"unsupported operand {type(other)!r}")
        a, b = self.data, other.data
        if a.shape != b.shape and a.size != 1 and b.size != 1:
            raise ShapeMismatch(f"operand shapes {a.shape} vs {b.shape}")
        return Tensor._record(fwd(a, b), (self, other),
                              (lambda g: _sum_to(bwd_self(g, a, b), a.shape),
                               lambda g: _sum_to(bwd_other(g, a, b), b.shape)))

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
        t = x * x
        t *= x
        t *= 0.044715
        t += x
        t *= _GELU_C
        np.tanh(t, out=t)  # tanh(c (x + 0.044715 x^3)), kept by dgrad
        out = x * 0.5
        out *= np.add(t, 1.0)

        def dgrad(g):
            # d/dx [0.5 x (1 + tanh(u))], u = c (x + 0.044715 x^3), grouped as
            # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du)
            du = x * x
            du *= 3 * 0.044715
            du += 1.0
            du *= _GELU_C
            r = t * t
            np.subtract(1.0, r, out=r)
            r *= 0.5 * x
            r *= du
            np.add(t, 1.0, out=du)
            du *= 0.5
            du += r
            du *= g
            return du

        return self._unary(out, dgrad)

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
        try:
            out = self.data.sum(axis=axis, keepdims=keepdims)
        except (TypeError, ValueError, IndexError):  # out of range or repeated
            raise ShapeMismatch(f"cannot sum {shape} over axis {axis}") from None
        dropped = () if axis is None or keepdims else axis  # axes the gradient lacks
        return self._unary(out, lambda g: np.broadcast_to(np.expand_dims(g, dropped), shape))

    def mean(self, axis=None, keepdims=False):
        out = self.sum(axis=axis, keepdims=keepdims)  # checks the axes
        n = self.size if axis is None else int(np.prod(np.take(self.shape, axis)))
        if n == 0:  # numpy's mean of nothing is NaN
            raise ShapeMismatch(f"mean of {self.shape} over axis {axis} has no elements")
        return out.scale(1.0 / n)

    def reshape(self, *shape):
        try:
            out = self.data.reshape(shape)  # numpy resolves one -1
        except (TypeError, ValueError):
            raise ShapeMismatch(f"cannot reshape {self.shape} to {shape}") from None
        old = self.shape
        return self._unary(out, lambda g: g.reshape(old))

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        try:
            out = np.transpose(self.data, axes)
        except (TypeError, ValueError, IndexError):  # out of range, repeated or too few
            raise ShapeMismatch(f"cannot transpose {self.shape} by axes {axes}") from None
        inv = np.argsort([a % self.ndim for a in axes])  # -1 is the last axis
        return self._unary(out, lambda g: np.transpose(g, inv))

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

        return self._unary(np.ascontiguousarray(out), (lambda g: _sum_to(g, src), sq))

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


# -- gradient helpers ---------------------------------------------------


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


def _per_grad(fn):
    """``fn`` computed once per incoming gradient: a one-slot memo keyed on
    the gradient array and dropped with it, so the derivatives of one node
    share work and nothing outlives the node's backward."""
    memo = []  # [weakref to g, fn(g)]

    def shared(g):
        if not memo or memo[0]() is not g:
            memo[:] = weakref.ref(g, lambda _: memo.clear()), fn(g)
        return memo[1]

    return shared


def _weight_sq(g, x2, x_shape):
    """Summed squared per-sample gradients of an affine weight, from the
    output gradient ``g`` and the input rows ``x2`` of an input of shape
    ``x_shape`` whose axis 0 holds the samples."""
    g = g.reshape(-1, g.shape[-1])
    if len(x_shape) == 2:  # one row per sample: sum_i g_i^2 x_i^2, no [n, out, in]
        return np.matmul((g * g).T, x2 * x2)
    n = x_shape[0]
    gs = np.swapaxes(g.reshape(n, -1, g.shape[1]), 1, 2)
    xs = x2.reshape(n, -1, x2.shape[1])
    out = np.zeros((g.shape[1], x2.shape[1]))
    # per-sample [out, in] gradients, a cache-sized block of samples at a time
    step = max(1, _PER_SAMPLE_BLOCK // out.size)
    for lo in range(0, n, step):
        per = np.matmul(gs[lo:lo + step], xs[lo:lo + step])
        out += np.einsum("noi,noi->oi", per, per)
    return out


def _sample_sq(a):
    """``[n, ..., d] -> [d]``: each sample's sum over the middle axes, squared,
    summed over the samples."""
    if a.ndim < 2:
        raise ConfigError(f"no per-sample rule: a {a.shape} gradient has no sample axis")
    per = a.reshape(a.shape[0], -1, a.shape[-1]).sum(axis=1)
    return (per * per).sum(axis=0)


# -- free-function ops --------------------------------------------------


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
    # a 2-D operand against a batched one gets its gradient summed over batch dims
    return Tensor._record(np.matmul(a.data, b.data), (a, b), (
        lambda g: _sum_to(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape),
        lambda g: _sum_to(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)))


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
        y += b.data

    rows = y.shape
    first = 1 if b is None else 0  # a bias-free affine records x and w alone
    return Tensor._record(y.reshape(x.shape[:-1] + (w.shape[0],)), (b, x, w)[first:], (
        (lambda g: g.reshape(rows).sum(axis=0), _sample_sq),
        lambda g: np.matmul(g.reshape(rows), np.swapaxes(wt, -1, -2)).reshape(x.shape),
        (lambda g: np.transpose(np.matmul(np.swapaxes(x2, -1, -2), g.reshape(rows))),
         lambda g: _weight_sq(g, x2, x.shape)))[first:])


def lowrank(y: Tensor, x: Tensor, a: Tensor, b: Tensor, s) -> Tensor:
    """``y + s * (x @ a.T) @ b.T``, one node: LoRA's update of the output
    ``y`` of an affine from its ``[..., in]`` input ``x`` through ``[r, in]``
    and ``[out, r]`` factors.

    Bit-identical in value and gradients to
    ``y + affine(affine(x, a), b).scale(s)``: the same numpy calls in the
    same order. ``x`` and ``a`` share the gradient of ``x @ a.T``, computed
    once per incoming gradient. A per-sample backward gets the summed
    squared per-sample gradients of ``a`` and ``b``, as the chain's two
    affines gave them.
    """
    if (x.ndim < 2 or a.ndim != 2 or x.shape[-1] != a.shape[1]
            or b.shape != (y.shape[-1], a.shape[0]) or y.shape[:-1] != x.shape[:-1]):
        raise ShapeMismatch(f"lowrank output {y.shape}, input {x.shape}, "
                            f"factors {a.shape} and {b.shape}")
    s = float(s)
    x2 = x.data.reshape(-1, x.shape[-1])
    at = np.ascontiguousarray(a.data.T)
    h = np.matmul(x2, at)
    bt = np.ascontiguousarray(b.data.T)
    u = np.matmul(h, bt)
    u *= s
    np.add(y.data.reshape(u.shape), u, out=u)

    rows = u.shape
    gs = _per_grad(lambda g: g * s)  # the gradient of (x @ a.T) @ b.T
    dh = _per_grad(lambda g: np.matmul(gs(g).reshape(rows), np.swapaxes(bt, -1, -2)))
    return Tensor._record(u.reshape(y.shape), (y, x, a, b), (
        lambda g: g,
        lambda g: np.matmul(dh(g), np.swapaxes(at, -1, -2)).reshape(x.shape),
        (lambda g: np.transpose(np.matmul(np.swapaxes(x2, -1, -2), dh(g))),
         lambda g: _weight_sq(dh(g), x2, x.shape)),
        (lambda g: np.transpose(np.matmul(np.swapaxes(h, -1, -2), gs(g).reshape(rows))),
         lambda g: _weight_sq(gs(g), h, x.shape))))


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
    if prefix is not None:
        if len(prefix) != 2 or any(p.shape != (prefix[0].shape[0], d) for p in prefix):
            raise ShapeMismatch(f"prefix {[p.shape for p in prefix]}, expected two [t,{d}]")
        t = prefix[0].shape[0]
        k, v = (np.concatenate([np.broadcast_to(split(p.data, 0, t), (n, heads, t, hd)), a],
                               axis=2) for p, a in zip(prefix, (k, v)))
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    v = np.ascontiguousarray(v)
    scores = np.matmul(q, kt)
    scores *= scale
    attn = _softmax(scores)
    ctx = np.matmul(attn, v)

    @_per_grad
    def shared(g):
        gh = np.transpose(g.reshape(n, s, heads, hd), (0, 2, 1, 3))
        g_attn = np.matmul(gh, np.swapaxes(v, -1, -2))
        g_v = np.matmul(np.swapaxes(attn, -1, -2), gh)
        g_scores = _softmax_grad(g_attn, attn)
        g_scores *= scale
        g_q = np.matmul(g_scores, np.swapaxes(kt, -1, -2))
        g_k = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_scores), -1, -2)
        return g_q, g_k, g_v

    def d_qkv(g):  # each slab copied once into its place; keys and values past the prefix
        g_qkv = np.empty((n, s, 3, heads, hd))
        for i, gi in enumerate(shared(g)):
            g_qkv[:, :, i] = np.transpose(gi[:, :, -s:], (0, 2, 1, 3))
        return g_qkv.reshape(qkv.shape)

    def d_prefix(i):  # the prefix rows of the key (1) or value (2) gradient
        return lambda g: np.transpose(shared(g)[i][:, :, :t].sum(axis=0), (1, 0, 2)).reshape(t, d)

    return Tensor._record(np.transpose(ctx, (0, 2, 1, 3)).reshape(n, s, d),  # None: no prefix
                          (qkv, *(prefix or (None, None))), (d_qkv, d_prefix(1), d_prefix(2)))


def _finite(a):
    """Every element of ``a`` is finite. A finite sum proves it; a sum that is
    not (NaN, an infinity, or finite elements that overflow) falls back to
    the elementwise check, as does a sum that numpy's error state or warning
    filters turn into an exception."""
    try:
        return math.isfinite(np.add.reduce(a, axis=None)) or bool(np.isfinite(a).all())
    except (FloatingPointError, RuntimeWarning):
        return bool(np.isfinite(a).all())


def _positive(name, v):
    if not 0 < v < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"{name} must be positive and finite, got {v}")


def _softmax(z):
    """Softmax along the last axis, written into ``z``, a buffer the caller
    allocated."""
    m = z[..., 0].copy()  # the row max a column at a time: numpy's max over a
    for j in range(1, z.shape[-1]):  # short last axis is several times slower
        np.maximum(m, z[..., j], out=m)
    z -= m[..., None]
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    if not _finite(z):
        raise NonFiniteValue("softmax overflow")
    return z


def _softmax_grad(g, y):
    """``(g - (g * y).sum(-1)) * y`` in one new buffer."""
    r = g * y
    np.subtract(g, r.sum(axis=-1, keepdims=True), out=r)
    r *= y
    return r


def softmax(x: Tensor, temperature=1.0) -> Tensor:
    """Row-stabilized softmax along the last axis at the given temperature."""
    _positive("temperature", temperature)
    y = _softmax(x.data / temperature)
    return x._unary(y, lambda g: _softmax_grad(g, y) / temperature)


def log_softmax(x: Tensor, temperature=1.0) -> Tensor:
    _positive("temperature", temperature)
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    y = np.exp(out)
    return x._unary(out, lambda g: (g - y * g.sum(axis=-1, keepdims=True)) / temperature)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps=1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    _positive("eps", eps)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatch(
            f"gamma/beta must be [{d}], got {gamma.shape} / {beta.shape}"
        )
    # x centred once for the variance and xhat; the mean of its squares is
    # what x.var() computes after centring x again
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(gamma.data, xhat, out=out)
    out += beta.data

    lead = tuple(range(out.ndim - 1))

    def dx(g):  # (gg - m1 - xhat * m2) * inv
        gg = g * gamma.data
        r = gg * xhat
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = r.mean(axis=-1, keepdims=True)
        gg -= m1
        np.multiply(xhat, m2, out=r)
        gg -= r
        gg *= inv
        return gg

    return Tensor._record(out, (gamma, beta, x), (
        (lambda g: (g * xhat).sum(axis=lead), lambda g: _sample_sq(g * xhat)),
        (lambda g: g.sum(axis=lead), _sample_sq),
        dx))


def concat(tensors, axis=0):
    tensors = tuple(tensors)
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except (TypeError, ValueError, IndexError):  # none, 0-d, shapes that disagree off the axis
        raise ShapeMismatch(f"cannot concat {[t.shape for t in tensors]} on axis {axis}") from None
    ends = np.cumsum([t.shape[axis] for t in tensors])
    return Tensor._record(out, tensors, [  # each operand gets its own slice
        lambda g, lo=hi - t.shape[axis], hi=hi: np.take(g, range(lo, hi), axis=axis)
        for t, hi in zip(tensors, ends)])


def custom_op(inputs, value, grads):
    """Graph node with a hand-written backward rule.

    ``grads[i]`` maps the upstream gradient to the gradient of ``inputs[i]``;
    it is not called for an input that is not tracked. Used for spectra
    (SVD / power iteration) where singular vectors are treated as locally
    constant.
    """
    return Tensor._record(np.asarray(value), tuple(inputs), grads)


# -- reverse pass -------------------------------------------------------


class _Acc:
    """The ``acc`` handed to backward closures: ``acc(t, g)`` adds ``g`` to
    the gradient of ``t``; in a per-sample backward a grad leaf takes only
    :meth:`add_sq`, one squared-gradient sum from one op."""

    def __init__(self, root, per_sample):
        self.grads = {root.uid: _frozen(np.ones(root.shape))}
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
            g = self.grads[t.uid] + g
        self.grads[t.uid] = _frozen(g)  # derivatives may share it: one g feeds both of add's

    def add_sq(self, t, sq):
        if t.uid in self.sq:
            # sum_i (a_i + b_i)^2 is not sum_i a_i^2 + sum_i b_i^2
            raise ConfigError(f"no per-sample rule: the {t.shape} leaf is read by "
                              "more than one op")
        self.sq[t.uid] = _frozen(sq)


def _frozen(a):
    a.setflags(write=False)
    return a


def backward(root: Tensor, per_sample_sq=False):
    """Run reverse-mode accumulation from a scalar root.

    Returns a map ``leaf uid -> gradient``, a read-only ndarray of the
    leaf's shape, over all reachable leaves with ``requires_grad``; a
    non-finite gradient raises :class:`NonFiniteValue`. Interior gradients
    are dropped once used: a node's gradient is complete when its turn
    comes and is freed once its derivatives have run, so only leaf
    gradients live until the return.

    With ``per_sample_sq`` the root must be a sum of per-sample terms,
    with the samples on axis 0 of every activation and no op mixing them.
    Each leaf then maps to the sum over samples of its squared per-sample
    gradient, all from one backward pass. Only the ops that sum a leaf's
    gradient over the samples have a rule for that (``affine`` weight and
    bias, ``lowrank`` factors, ``layernorm`` gamma and beta, ``expand``); a
    leaf that another op reaches, or that two ops read, raises
    :class:`ConfigError`.
    """
    if root.size != 1:
        raise ShapeMismatch(f"backward root has shape {root.shape}")
    if not root._parents and not root.requires_grad:
        raise ConfigError("root is not recorded on any tape")

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
        if node._backward is None:  # a leaf keeps its gradient for the map
            continue
        g = acc.grads.pop(node.uid, None)  # complete: every node adding to it has run
        if g is not None:
            node._backward(g, acc)

    found = acc.sq if per_sample_sq else acc.grads
    grads = {node.uid: found[node.uid] for node in topo if _is_leaf(node) and node.uid in found}
    if not all(_finite(g) for g in grads.values()):
        raise NonFiniteValue("gradient contains NaN or Inf")
    return grads
