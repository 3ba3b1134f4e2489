"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are immutable after creation; every op that reads a tracked tensor
(a grad leaf or a recorded result) records a tape node, a plain tuple
``(uid, shape, parent nodes, rules)`` owned by its ``Tensor``: ``shape`` is
the shape numpy gave the result, and ``rules[i]`` maps the result's
gradient to the gradient of ``parents[i]``. A grad leaf's node is
``(uid, shape, (), ())``. :func:`backward` is the one loop that runs a
rule: it visits the nodes in reverse topological order, dropping each
interior node's gradient once its rules have run, so only the leaves'
gradients are kept, each as the read-only ndarray it was summed in. A node
holds no array, and each rule keeps only the arrays and shapes it reads.
So an activation that no rule reads (a LoRA site's base affine output,
both operands of an add, the input of a frozen-weight affine) is freed
once the caller drops its ``Tensor``. Ops record through one recorder,
``Tensor._record(out, parents, dgrads)`` (``Tensor._unary(out, dgrad)``
for one input), and state only the rule they hand each operand. The
untracked rule lives there: an operand that is None or untracked gets no
parent and no rule, so a constant, a frozen weight or norm costs no
derivative work and a frozen prefix of a network records no tape at all.
The rules of ``attention`` and of ``lowrank`` share their work through
``_per_grad``, a memo kept for one incoming gradient. Binary ops broadcast
as numpy does, and one reducer, ``_sum_to``, sums each operand's gradient
back to its shape. ``sum`` and ``mean`` take an int, negative or tuple
axis, ``transpose`` negative axes, and ``reshape`` one ``-1``; a bad axis
or shape, in these, ``expand``, ``concat`` or a binary op, a ``mean`` of
no elements, or a ``softmax``, ``log_softmax`` or ``layernorm`` over an
empty last axis, is ``ShapeMismatch``. Non-finite values are rejected at
creation time, which makes divergence surface as an error at the op that
produced it instead of poisoning downstream results; a ``layernorm`` row
whose variance overflows is ``NonFiniteValue`` there too, not a row of
``beta``.

Three fused nodes keep the tape short on the model hot path:
:func:`affine` (``x @ w.T + b``), :func:`attention` (a whole multi-head
attention block on a fused qkv projection, with optional prefix keys and
values) and :func:`lowrank` (LoRA's ``y + s * (x @ a.T) @ b.T`` at one
site). Each is bit-identical in value and gradients to the chain of
primitive ops it stands for. A tensor that three or more ops read can sum
its gradient contributions in another order than the chain would, which
can move its last bit: a LoRA site's input gets the ``lowrank`` node's
contribution before the base ``affine``'s. Rules keep only what they read
and do the derivative work themselves, so a forward that no backward
follows pays nothing for it (``gelu`` keeps ``x`` alone, and its rule
recomputes ``tanh(u)`` from it; an affine keeps its input only for a
tracked weight's gradient, and its transposed weight only for a tracked
input's). Nor do they keep a value the tape can rebuild bit for bit and
cheaply: a recorded result may carry ``recompute``, a function rebuilding
its ``.data`` from arrays the tape keeps, and an affine's weight gradient
and lowrank's ``a`` read their input through it. ``layernorm`` sets it
(``gamma * xhat + beta``, from the ``xhat`` its rules keep); ``gelu`` does
not, as that takes ``tanh``. A prefixed ``attention`` keeps its own keys
and values and the ``[t, d]`` prefix, and its rules rebuild the n
per-sample copies.

Buffers: the hot ops (``affine``, ``lowrank``, ``layernorm``, ``gelu``,
softmax and ``attention``) write each large temporary into an array they
allocated in the same call, with ``+=``, ``*=`` and ``out=``, keeping
every IEEE operation and its operand grouping, so values and gradients are
the ones the fresh-temporary formulas give; an untaped ``attention``
makes them one block of samples at a time. Three kinds of array are never written:
an operand's ``.data``, the incoming gradient ``g`` (``add`` hands one
array to both operands, so ``backward`` makes every gradient it stores
read-only), and an array a rule keeps (``xhat``, ``attn``).
The finiteness check sums the array first: a finite sum proves every
element finite, and only a sum that is not (NaN, an infinity, or an
overflow, which numpy warns of) runs the elementwise check.

Inference: a result is recorded iff an operand is tracked, and nothing
else switches the tape on or off. A forward over frozen tensors (a
checkpoint's ``to_params``, an ``AdaptedModel`` such as a ``Teacher``
outside ``tuner.train``) records no node and keeps no activation alive for a
backward nobody runs; a ``backward`` from its result raises
``ConfigError``. A gradient reader makes its own grad leaves. An untaped
``attention`` runs a block of samples at a time (per-sample matmuls and a
row-wise softmax: the taped bits), so a prefixed one never holds the n
joined keys and values.

Per-sample backward: ``backward(root, per_sample_sq=True)``, on a root
that sums one term per sample (samples on axis 0, never mixed), maps each
leaf to the sum over samples of its squared per-sample gradient, from one
pass over one batched tape (BackPACK's "sum of squared gradients"; the
diagonal Fisher of ``merger.fisher_estimate``). Samples only meet where a
leaf's gradient is summed over them, so only those ops carry a
per-sample rule, a ``(summed over samples, per-sample squares)`` pair of
maps in place of one map: ``affine`` (weight and bias; for a 2-D
input the weight term is ``(g*g).T @ (x*x)``), ``lowrank`` (both factors,
by the same rule), ``layernorm`` (gamma and beta), ``expand`` and a binary
op's broadcast operand. One per-sample reducer, ``_sample_sq``, serves
all but the weights. A leaf that any other op reaches, or that two ops
read, raises ``ConfigError`` rather than give a wrong sum.

Numeric note: ``gelu`` computes ``x*x*x``, not ``x**3``; numpy sends the
latter through libm ``pow``, about a hundred times slower, and the two
cubes differ by one ulp in about a quarter of the elements. ``relu`` is
``maximum(x, 0.0) + 0.0``, which equals ``where(x > 0, x, 0.0)`` bit for
bit on finite input (the ``+ 0.0`` makes a ``-0.0`` from ``maximum`` +0.0)
and runs in numpy's vector loops, where ``where`` does not; its mask, like
``abs``'s sign, is built only for a tracked input.
"""

from __future__ import annotations

import itertools
import math
import weakref

import numpy as np

from .errors import ConfigError, NonFiniteValue, ShapeMismatch, check_count

_GELU_C = math.sqrt(2.0 / math.pi)
_PER_SAMPLE_BLOCK = 1 << 17  # float64 elements (1 MiB) of per-sample affine gradients
_ATTENTION_BLOCK = 1 << 14  # float64 elements (128 KiB) of an untaped sample block's scores
_uid_counter = itertools.count()


class Tensor:
    """Immutable dense array. A tracked one (a grad leaf or a recorded
    result) owns a tape node that holds no array (see :meth:`_record`)."""

    __slots__ = ("data", "requires_grad", "uid", "_node", "recompute")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not _finite(arr):
            raise NonFiniteValue("tensor contains NaN or Inf")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.uid = next(_uid_counter)
        # a node is (uid, shape, parent nodes, rules); a grad leaf's has neither
        self._node = (self.uid, arr.shape, (), ()) if requires_grad else None
        self.recompute = None  # or a function rebuilding data, bit for bit, from kept arrays

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
    def _record(out, parents, dgrads, recompute=None):
        """Wrap an op's result ``out`` (an ndarray or numpy scalar) with the
        node ``(uid, out.shape, parent nodes, rules)``: :func:`backward`
        hands each tracked operand ``parents[i]`` the gradient
        ``dgrads[i](g)``, in that order, ``g`` arriving in ``out``'s shape
        (a 0-d result is one, where ``Tensor`` stores ``(1,)``). An operand
        that is None or untracked (a constant, a frozen weight) gets no
        parent and no rule, so a frozen prefix of a network records no tape.

        The node links the operands' nodes, not the operands, and holds no
        array: an array outlives the ``Tensor`` that holds it only where a
        rule reads it, so each ``dgrads[i]`` captures the arrays and shapes
        it reads, never an operand; ``affine`` and ``lowrank`` read their
        input through its ``recompute`` (:func:`_values`).

        An operand whose gradient is summed over the sample axis 0 takes a
        per-sample rule, a pair of maps: the gradient summed over samples,
        and its squared per-sample gradients summed over samples, which a
        grad leaf gets instead in a per-sample backward."""
        tape = tuple([None if t is None else t._node for t in parents])
        if None in tape:  # copy the rules only when an operand drops out: most nodes keep all
            dgrads = tuple([d for n, d in zip(tape, dgrads) if n is not None])
            tape = tuple([n for n in tape if n is not None])
            if not tape:
                return Tensor(out)
        res = Tensor(out)
        res._node = (res.uid, out.shape, tape, dgrads)  # np.shape(out) costs several times more
        res.recompute = recompute
        return res

    def _unary(self, out, dgrad):
        """:meth:`_record` for a one-input op."""
        return Tensor._record(out, (self,), (dgrad,))

    # -- elementwise ----------------------------------------------------

    def _binary(self, other, fwd, dgrads):
        """Broadcast as numpy does. ``dgrads(a, b)`` gives the two derivatives,
        each capturing only the arrays it reads (see :func:`_broadcast_rule`)."""
        if isinstance(other, (int, float)):
            other = Tensor(np.float64(other))
        if not isinstance(other, Tensor):
            raise TypeError(f"unsupported operand {type(other)!r}")
        a, b = self.data, other.data
        try:
            out = fwd(a, b)
        except ValueError:  # shapes numpy cannot broadcast
            raise ShapeMismatch(f"operand shapes {a.shape} vs {b.shape}") from None
        da, db = dgrads(a, b)
        return Tensor._record(out, (self, other), (_broadcast_rule(da, a.shape, out.shape),
                                                   _broadcast_rule(db, b.shape, out.shape)))

    def __add__(self, other):
        return self._binary(other, np.add, lambda a, b: (_same, _same))  # reads no array

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda a, b: (_same, np.negative))

    def __rsub__(self, other):
        return Tensor(np.float64(other)) - self

    def __mul__(self, other):
        return self._binary(other, np.multiply, lambda a, b: (lambda g: g * b, lambda g: g * a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, np.divide,
                            lambda a, b: (lambda g: g / b, lambda g: -g * a / (b * b)))

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, s):
        s = float(s)
        return self._unary(self.data * s, lambda g: g * s)

    def relu(self):
        out = np.maximum(self.data, 0.0)
        out += 0.0  # a -0.0 becomes +0.0, as where(x > 0, x, 0.0) gives (the numeric note)
        if self._node is None:  # only the derivative reads the mask
            return Tensor(out)
        mask = self.data > 0
        return self._unary(out, lambda g: g * mask)

    def gelu(self):
        # tanh approximation 0.5 x (1 + t); the node keeps x alone, and the
        # derivative recomputes t from it, bit for bit
        x = self.data
        out = _gelu_tanh(x)
        out += 1.0
        out *= 0.5  # exact, so this is x*0.5*(1 + t) bit for bit (subnormal x aside)
        out *= x

        def dgrad(g):
            # d/dx [0.5 x (1 + tanh(u))], u = c (x + 0.044715 x^3), grouped as
            # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du), in three buffers
            t = _gelu_tanh(x)
            r = t * t
            np.subtract(1.0, r, out=r)
            du = x * 0.5
            r *= du
            np.multiply(x, x, out=du)
            du *= 3 * 0.044715
            du += 1.0
            du *= _GELU_C
            r *= du
            t += 1.0
            t *= 0.5
            t += r
            t *= g
            return t

        return self._unary(out, dgrad)

    def sqrt(self):
        r = np.sqrt(self.data)
        return self._unary(r, lambda g: g * 0.5 / r)

    def square(self):
        x = self.data
        return self._unary(x * x, lambda g: g * 2.0 * x)

    def abs(self):
        out = np.abs(self.data)
        if self._node is None:  # only the derivative reads the sign
            return Tensor(out)
        s = np.sign(self.data)
        return self._unary(out, lambda g: g * s)

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
        return self._unary(np.ascontiguousarray(out),
                           (lambda g: _sum_to(g, src), lambda g: _sample_sq(g, src)))

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


def _same(g):
    return g


def _gelu_tanh(x):
    """``tanh(c (x + 0.044715 x^3))`` in a new buffer, by the same calls each time."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _sum_to(g, shape):
    """Sum a gradient broadcast from ``shape``: over prepended axes, then over
    axes broadcast from 1. Tuples come from lists: a generator's is resized."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple([i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1])
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


def _values(x):
    """A function giving ``x``'s values as ``[rows, in]``, for a derivative
    to keep: it reads ``x.recompute`` where ``x`` has one, not ``x.data``."""
    rebuild, width = x.recompute or (lambda data=x.data: data), x.shape[-1]
    return lambda: rebuild().reshape(-1, width)


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


def _sample_sq(g, src):
    """The squared per-sample gradients of an operand of shape ``src``
    broadcast to ``g``'s shape, summed over the samples on axis 0, along
    which the operand must be broadcast."""
    if g.shape == src and g.ndim < 2:  # one [d] row: no axis holds the samples
        raise ConfigError(f"no per-sample rule: a {g.shape} gradient has no sample axis")
    padded = (1,) * (g.ndim - len(src)) + src
    if padded[0] != 1:
        raise ConfigError(f"no per-sample rule: expand {src} -> {g.shape} keeps the sample axis")
    per = _sum_to(g, g.shape[:1] + padded[1:])
    return (per * per).sum(axis=0).reshape(src)


def _broadcast_rule(d, src, shape):
    """The rule of an operand of shape ``src`` whose derivative ``d`` gives a
    gradient of the result's ``shape``: ``d`` summed back to ``src``, with the
    per-sample rule where the operand was broadcast."""
    summed = lambda g: _sum_to(d(g), src)
    return summed if src == shape else (summed, lambda g: _sample_sq(d(g), src))


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
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return Tensor._record(np.matmul(ad, bd), (a, b), (
        lambda g: _sum_to(np.matmul(g, np.swapaxes(bd, -1, -2)), sa),
        lambda g: _sum_to(np.matmul(np.swapaxes(ad, -1, -2), g), sb)))


def affine(x: Tensor, w: Tensor, b: Tensor = None) -> Tensor:
    """``x @ w.T (+ b)`` over the last axis of an ``[..., in]`` input, one node.

    Bit-identical in value and gradients to ``matmul(x, w.T) + b`` on the
    flattened rows: ``w.T`` is copied to C order as that chain's node
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

    rows, xs, xv, bs = y.shape, x.shape, _values(x), (w.shape[0],)
    first = 1 if b is None else 0  # a bias-free affine records x and w alone
    return Tensor._record(y.reshape(xs[:-1] + (w.shape[0],)), (b, x, w)[first:], (
        (lambda g: g.reshape(rows).sum(axis=0), lambda g: _sample_sq(g, bs)),
        lambda g: np.matmul(g.reshape(rows), np.swapaxes(wt, -1, -2)).reshape(xs),
        (lambda g: np.transpose(np.matmul(np.swapaxes(xv(), -1, -2), g.reshape(rows))),
         lambda g: _weight_sq(g, xv(), xs)))[first:])


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

    rows, xs, xv = u.shape, x.shape, _values(x)
    gs = _per_grad(lambda g: g * s)  # the gradient of (x @ a.T) @ b.T
    dh = _per_grad(lambda g: np.matmul(gs(g).reshape(rows), np.swapaxes(bt, -1, -2)))
    return Tensor._record(u.reshape(y.shape), (y, x, a, b), (
        _same,
        lambda g: np.matmul(dh(g), np.swapaxes(at, -1, -2)).reshape(xs),
        (lambda g: np.transpose(np.matmul(np.swapaxes(xv(), -1, -2), dh(g))),
         lambda g: _weight_sq(dh(g), xv(), xs)),
        (lambda g: np.transpose(np.matmul(np.swapaxes(h, -1, -2), gs(g).reshape(rows))),
         lambda g: _weight_sq(gs(g), h, xs))))


def attention(qkv: Tensor, heads, prefix=None) -> Tensor:
    """Multi-head self-attention on a fused ``[n, s, 3d]`` projection, one node.

    ``qkv`` holds queries, keys and values side by side on the last axis.
    ``prefix`` is an optional ``(key, value)`` pair of ``[t, d]`` tensors
    put in front of every sample's keys and values. Returns the ``[n, s, d]``
    context, heads concatenated. Bit-identical in value and gradients to
    the chain of slices, reshapes, transposes, prefix concat, matmuls, scale
    and softmax it replaces: matmul operands get the memory layout that
    chain gave them, and the backward keeps its order of operations. The
    derivatives read q, kᵀ, v and the weights whole, so a tracked operand
    takes one block of all n samples; untaped, the blocks' scores fit
    ``_ATTENTION_BLOCK``, and no n joined prefix copies are made. A
    ``heads`` that is not a positive integer is ``ConfigError``.
    """
    heads = check_count("heads", heads)
    if qkv.ndim != 3 or 0 in qkv.shape[1:] or qkv.shape[-1] % (3 * heads):
        raise ShapeMismatch(f"qkv {qkv.shape} is not [n, s>0, 3 x a positive multiple of {heads}]")
    n, s, d3 = qkv.shape
    d = d3 // 3
    hd = d // heads
    scale = 1.0 / math.sqrt(hd)

    def split(a, lo, rows):  # [rows, d] per sample -> [m, heads, rows, hd]
        return a[..., lo:lo + d].reshape(-1, rows, heads, hd).transpose(0, 2, 1, 3)

    t = prefix[0].shape[0] if prefix else 0
    if prefix is not None:
        if len(prefix) != 2 or any(p.shape != (t, d) for p in prefix):
            raise ShapeMismatch(f"prefix {[p.shape for p in prefix]}, expected two [t,{d}]")
        pkt, pv = np.swapaxes(split(prefix[0].data, 0, t), -1, -2), split(prefix[1].data, 0, t)

    def operands(kt, v):  # the keys transposed and the values, each prefix row first, in C order
        if prefix is None:
            return kt, v
        return (np.concatenate([np.broadcast_to(pkt, (len(kt), heads, hd, t)), kt], axis=3,
                               out=np.empty((len(kt), heads, hd, t + s))),
                np.concatenate([np.broadcast_to(pv, (len(v), heads, t, hd)), v], axis=2,
                               out=np.empty((len(v), heads, t + s, hd))))

    def block(rows):  # q, kᵀ, v and attn of the samples in ``rows``; their context into out
        q = np.ascontiguousarray(split(qkv.data[rows], 0, s))
        kt = np.ascontiguousarray(np.swapaxes(split(qkv.data[rows], d, s), -1, -2))  # own tokens'
        v = np.ascontiguousarray(split(qkv.data[rows], 2 * d, s))
        keys, values = operands(kt, v)
        scores = np.matmul(q, keys)
        scores *= scale
        attn = _softmax(scores)
        out[rows].reshape(-1, s, heads, hd)[...] = np.swapaxes(np.matmul(attn, values), 1, 2)
        return q, kt, v, attn

    tracked = any(p._node for p in (qkv, *(prefix or ())))
    step = max(1, n if tracked else _ATTENTION_BLOCK // (heads * s * (t + s)))
    out = np.empty((n, s, d))
    for lo in range(0, max(n, 1), step):  # an empty block for no samples
        q, kt, v, attn = block(slice(lo, lo + step))

    @_per_grad
    def shared(g):
        keys, values = operands(kt, v)
        gh = np.transpose(g.reshape(n, s, heads, hd), (0, 2, 1, 3))
        g_attn = np.matmul(gh, np.swapaxes(values, -1, -2))
        g_v = np.matmul(np.swapaxes(attn, -1, -2), gh)
        g_scores = _softmax_grad(g_attn, attn)
        g_scores *= scale
        g_q = np.matmul(g_scores, np.swapaxes(keys, -1, -2))
        g_k = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_scores), -1, -2)
        return g_q, g_k, g_v

    def d_qkv(g):  # each slab copied once into its place; keys and values past the prefix
        g_qkv = np.empty((n, s, 3, heads, hd))
        for i, gi in enumerate(shared(g)):
            g_qkv[:, :, i] = np.transpose(gi[:, :, -s:], (0, 2, 1, 3))
        return g_qkv.reshape(n, s, d3)

    def d_prefix(i):  # the prefix rows of the key (1) or value (2) gradient
        return lambda g: np.transpose(shared(g)[i][:, :, :t].sum(axis=0), (1, 0, 2)).reshape(t, d)

    return Tensor._record(out, (qkv, *(prefix or (None, None))), (d_qkv, d_prefix(1), d_prefix(2)))


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


def _rows(op, x):
    if x.shape[-1] == 0:  # the row reductions of nothing are NaN or raise
        raise ShapeMismatch(f"{op} over the empty last axis of {x.shape}")


def _row_mean(a):
    """``a.mean(axis=-1, keepdims=True)``: ``np.mean``'s two calls, not its wrapper."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


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
    _rows("softmax", x)
    y = _softmax(x.data / temperature)
    return x._unary(y, lambda g: _softmax_grad(g, y) / temperature)


def log_softmax(x: Tensor, temperature=1.0) -> Tensor:
    _positive("temperature", temperature)
    _rows("log_softmax", x)
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    y = np.exp(out)
    return x._unary(out, lambda g: (g - y * g.sum(axis=-1, keepdims=True)) / temperature)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps=1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    _positive("eps", eps)
    _rows("layernorm", x)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatch(
            f"gamma/beta must be [{d}], got {gamma.shape} / {beta.shape}"
        )
    # x centred once for the variance and xhat; the mean of its squares is
    # what x.var() computes after centring x again
    xhat = x.data - _row_mean(x.data)
    inv = 1.0 / np.sqrt(_row_mean(xhat * xhat) + eps)
    if not inv.all():  # 0 exactly where a row's variance is infinite
        raise NonFiniteValue("layernorm overflow: a row's variance is infinite")
    xhat *= inv
    lead = tuple(range(xhat.ndim - 1))
    gd, bd = gamma.data, beta.data

    def rebuild():  # the output, from the xhat the derivatives keep; the forward's too
        out = np.multiply(gd, xhat)
        out += bd
        return out

    def dx(g):  # (gg - m1 - xhat * m2) * inv
        gg = g * gd
        r = gg * xhat
        m1 = _row_mean(gg)
        m2 = _row_mean(r)
        gg -= m1
        np.multiply(xhat, m2, out=r)
        gg -= r
        gg *= inv
        return gg

    return Tensor._record(rebuild(), (gamma, beta, x), (
        (lambda g: (g * xhat).sum(axis=lead), lambda g: _sample_sq(g * xhat, (d,))),
        (lambda g: g.sum(axis=lead), lambda g: _sample_sq(g, (d,))),
        dx), rebuild)


def concat(tensors, axis=0):
    tensors = tuple(tensors)
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except (TypeError, ValueError, IndexError):  # none, 0-d, shapes that disagree off the axis
        raise ShapeMismatch(f"cannot concat {[t.shape for t in tensors]} on axis {axis}") from None
    ends = np.cumsum([t.shape[axis] for t in tensors])
    return Tensor._record(out, tensors, tuple(  # each operand gets its own slice
        lambda g, lo=hi - t.shape[axis], hi=hi: np.take(g, range(lo, hi), axis=axis)
        for t, hi in zip(tensors, ends)))


def custom_op(inputs, value, grads):
    """Graph node with a hand-written backward rule.

    ``grads[i]`` maps the upstream gradient to the gradient of ``inputs[i]``;
    it is not called for an input that is not tracked. Used for spectra
    (SVD / power iteration) where singular vectors are treated as locally
    constant.
    """
    return Tensor._record(np.asarray(value), tuple(inputs), tuple(grads))


# -- reverse pass -------------------------------------------------------


def _frozen(a):
    a.setflags(write=False)
    return a


def backward(root: Tensor, per_sample_sq=False):
    """Run reverse-mode accumulation from a scalar root.

    Returns a map ``leaf uid -> gradient``, a read-only ndarray of the
    leaf's shape, over all reachable leaves with ``requires_grad``; a
    non-finite gradient raises :class:`NonFiniteValue`. One loop runs
    every derivative: it walks the tape nodes in reverse depth-first
    post-order from the root, and at each interior node pops its gradient,
    now complete, and runs the node's rules in order, adding each result
    to an operand's gradient, which must have the operand's shape (a
    size-1 one may differ: a 0-d result is stored as ``(1,)``). The nodes
    hold no arrays and the rules read only what they captured, so a
    forward's activations that no rule reads are already gone, and only
    leaf gradients live until the return.

    With ``per_sample_sq`` the root must be a sum of per-sample terms,
    with the samples on axis 0 of every activation and no op mixing them.
    Each leaf then maps to the sum over samples of its squared per-sample
    gradient, all from one backward pass. Only the ops that sum a leaf's
    gradient over the samples have a rule for that (``affine`` weight and
    bias, ``lowrank`` factors, ``layernorm`` gamma and beta, ``expand``, a
    binary op's broadcast operand); a leaf that another op reaches, or that
    two ops read, raises :class:`ConfigError`.
    """
    if root.size != 1:
        raise ShapeMismatch(f"backward root has shape {root.shape}")
    if root._node is None:
        raise ConfigError("root is not recorded on any tape")

    topo, seen, stack = [], set(), [(root._node, False)]  # depth-first, each node after its parents
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif node[0] not in seen:
            seen.add(node[0])
            stack.append((node, True))
            for p in node[2]:
                if p[0] not in seen:
                    stack.append((p, False))

    grads = {root._node[0]: _frozen(np.ones(root._node[1]))}
    sq = {}

    def add(node, g):
        uid, shape, parents, _ = node
        if per_sample_sq and not parents:
            raise ConfigError(f"the {shape} leaf is reached by an op with no per-sample rule")
        g = np.asarray(g, dtype=np.float64)
        if g.shape != shape:
            if g.size != 1 or math.prod(shape) != 1:
                raise ShapeMismatch(f"a {g.shape} gradient for a {shape} operand")
            g = g.reshape(shape)
        if uid in grads:
            g = grads[uid] + g
        grads[uid] = _frozen(g)  # rules may share it: one g feeds both of add's

    def add_sq(node, g):
        if node[0] in sq:  # sum_i (a_i + b_i)^2 is not sum_i a_i^2 + sum_i b_i^2
            raise ConfigError(f"no per-sample rule: the {node[1]} leaf is read by "
                              "more than one op")
        sq[node[0]] = _frozen(g)

    for uid, shape, parents, rules in reversed(topo):
        if not parents:  # a leaf keeps its gradient for the map
            continue
        # complete, as every node adding to it has run; the node's own view keys its _per_grad memos
        g = grads.pop(uid).reshape(shape)
        for n, d in zip(parents, rules):
            if type(d) is not tuple:
                add(n, d(g))
            elif per_sample_sq and not n[2]:  # a grad leaf
                add_sq(n, d[1](g))
            else:
                add(n, d[0](g))

    found = sq if per_sample_sq else grads
    grads = {n[0]: found[n[0]] for n in topo if not n[2] and n[0] in found}  # the leaves
    if not all(_finite(g) for g in grads.values()):
        raise NonFiniteValue("gradient contains NaN or Inf")
    return grads
