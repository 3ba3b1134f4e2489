"""Tensor core: elementwise ops, matmul, softmax, layernorm, backward."""

import contextlib
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_grads, rand_tensor
from zjkit import tensor as T
from zjkit.errors import ConfigError, NonFiniteValue, ShapeMismatch
from zjkit.tensor import Tensor


# -- construction --------------------------------------------------------


def test_nan_rejected_at_creation():
    with pytest.raises(NonFiniteValue):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteValue):
        Tensor([np.inf])


def test_a_finite_array_whose_sum_overflows_is_accepted():
    # the sum-first finiteness check falls back to the elementwise one
    with np.errstate(over="ignore"):  # numpy warns of the overflowing sum
        t = Tensor(np.array([1e308, 1e308]))
        u = T.custom_op([t], t.data, [None])  # an untracked operand: a bare result
    assert t.data.tolist() == u.data.tolist() == [1e308, 1e308]


@pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                         ids=["nan", "inf", "-inf", "inf,-inf"])
@pytest.mark.parametrize("tracked", [True, False], ids=["taped", "untracked"])
def test_non_finite_values_are_rejected(values, tracked):
    w = Tensor([1.0], requires_grad=tracked)  # untracked, the recorder returns a bare result
    with np.errstate(invalid="ignore"):  # inf + -inf warns as the sum is taken
        with pytest.raises(NonFiniteValue):
            Tensor(np.array(values))
        with pytest.raises(NonFiniteValue):  # an op's result, through the recorder
            T.custom_op([w], np.array(values), [lambda g: g])


@contextlib.contextmanager
def _runtime_warnings_raise():  # as under python -W error::RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.mark.parametrize("strict", [lambda: np.errstate(all="raise"), _runtime_warnings_raise],
                         ids=["errstate_raise", "warnings_error"])
def test_the_finiteness_check_holds_where_numpy_raises_on_the_sum(strict):
    with strict():
        assert Tensor(np.array([1e308, 1e308])).data.tolist() == [1e308, 1e308]
        with pytest.raises(NonFiniteValue):
            Tensor(np.array([np.inf, -np.inf]))


def test_a_0d_input_is_stored_as_shape_1():
    assert Tensor(np.float64(3.0)).shape == (1,)
    assert Tensor(np.array(3.0)).data.tolist() == [3.0]
    with pytest.raises(NonFiniteValue):
        Tensor(np.array(np.nan))


def test_data_is_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_item_requires_scalar():
    with pytest.raises(ShapeMismatch, match=r"item\(\) on tensor of shape \(2,\)"):
        Tensor([1.0, 2.0]).item()
    assert Tensor(3.0).item() == 3.0


# -- elementwise: values -------------------------------------------------


def test_add_mul_values():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    assert (a + b).data.tolist() == [4.0, 6.0]
    assert (a * b).data.tolist() == [3.0, 8.0]
    assert (a - b).data.tolist() == [-2.0, -2.0]
    assert (b / a).data.tolist() == [3.0, 2.0]


def test_binary_ops_broadcast_as_numpy():
    """Each binary op broadcasts as numpy does, either way round, and sums
    each operand's gradient back to its own shape; shapes numpy rejects
    are ``ShapeMismatch``."""
    ops = ((lambda x, y: x + y, np.add), (lambda x, y: x - y, np.subtract),
           (lambda x, y: x * y, np.multiply), (lambda x, y: x / y, np.divide))
    rng = np.random.default_rng(0)
    for sa, sb in [((2, 3), (1,)), ((2, 3), (3,)), ((2, 3), (2, 1)),
                   ((4, 1, 3), (2, 3)), ((1, 2, 1), (3, 1, 4))]:
        a = rand_tensor(rng, sa)
        b = Tensor(rng.uniform(1.0, 2.0, size=sb), requires_grad=True)  # a divisor away from 0
        w = Tensor(rng.normal(size=np.broadcast_shapes(sa, sb)))
        for op, np_op in ops:
            for x, y in ((a, b), (b, a)):
                assert op(x, y).data.tobytes() == np_op(x.data, y.data).tobytes()
            check_grads(lambda x, y, op=op: (op(x, y) * w).sum(), [a, b])
    for sa, sb in [((2, 3), (2,)), ((2, 3), (3, 2)), ((4, 2, 3), (4, 3))]:
        a, b = Tensor(np.ones(sa)), Tensor(np.ones(sb))
        for op, _ in ops:
            for x, y in ((a, b), (b, a)):
                word = re.escape(f"operand shapes {x.shape} vs {y.shape}")
                with pytest.raises(ShapeMismatch, match=word):
                    op(x, y)


def test_relu_values():
    t = Tensor([-2.0, 0.0, 3.0]).relu()
    assert t.data.tolist() == [0.0, 0.0, 3.0]


_TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
_RELU_EDGES = np.array([-0.0, 0.0, _TINY, -_TINY, 1e308, -1e308, 1.0, -1.0])


@pytest.mark.parametrize("shape", [(8,), (4, 6), (2, 3, 5)], ids=["1d", "2d", "3d"])
def test_relu_equals_where_bit_for_bit(shape):
    """relu's ``maximum`` form gives ``where(x > 0, x, 0.0)``'s bytes, +0.0
    for both zeros; a tracked relu's gradient is ``g * (x > 0)``'s bytes."""
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape)
    x.flat[:_RELU_EDGES.size] = _RELU_EDGES[:x.size]
    assert Tensor(x).relu().data.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    g = rng.uniform(-1.0, 1.0, size=shape)  # |g| < 1 keeps g * 1e308 finite
    out = Tensor(x, requires_grad=True).relu()
    grads = T.backward((out * Tensor(g)).sum())
    (grad,) = grads.values()
    assert grad.tobytes() == (g * (x > 0)).tobytes()


@pytest.mark.parametrize("op", [Tensor.relu, Tensor.abs], ids=["relu", "abs"])
def test_an_untaped_relu_or_abs_records_no_node(op):
    x = np.array([-1.5, -0.0, 0.0, 2.0])
    assert op(Tensor(x))._node is None
    assert op(Tensor(x, requires_grad=True))._node is not None


def test_gelu_known_points():
    # gelu(0) = 0 exactly; gelu is odd-symmetric up to the linear term
    x = Tensor([0.0]).gelu()
    assert x.data[0] == 0.0
    # tanh approximation at 1.0 (frozen from the closed form)
    val = Tensor([1.0]).gelu().data[0]
    assert abs(val - 0.8411919906082768) < 1e-12


# -- elementwise: grads (finite differences, h = 1e-5) -------------------


@pytest.mark.parametrize("op", [
    lambda a, b: (a * b).sum(),
    lambda a, b: (a + b * b).sum(),
    lambda a, b: (a / (b * b + 2.0)).sum(),
    lambda a, b: (a - b).square().sum(),
])
def test_binary_grads(op):
    rng = np.random.default_rng(0)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (3, 4))
    check_grads(op, [a, b])


@pytest.mark.parametrize("shapes", [((1, 1, 1), (3,)), ((2, 3), (1, 1, 1, 1))])
def test_binary_grads_size_one_operand_of_higher_rank(shapes):
    # a size-1 operand with more axes lifts the result's rank; the other
    # operand's gradient must fold back to its own shape
    rng = np.random.default_rng(3)
    a, b = (rand_tensor(rng, s) for s in shapes)
    check_grads(lambda x, y: (x * y).square().sum(), [a, b])


@pytest.mark.parametrize("op", [
    lambda a: a.gelu().sum(),
    lambda a: a.square().sum(),
    lambda a: (a * a + 1.0).sqrt().sum(),
    lambda a: a.mean(),
    lambda a: a.sum(axis=0).square().sum(),
    lambda a: a.reshape(12).square().sum(),
    lambda a: a.T.square().mean(),
    lambda a: a.transpose(-1, 0).square().sum(),  # -1 in the gradient's inverse too
    lambda a: a[1:, :2].sum(),
])
def test_unary_grads(op):
    rng = np.random.default_rng(1)
    a = rand_tensor(rng, (3, 4))
    check_grads(op, [a])


def test_reshape_resolves_one_minus_one():
    x = rand_tensor(np.random.default_rng(4), (2, 3, 2))
    assert x.reshape(-1, 3).shape == (4, 3)
    check_grads(lambda t: t.reshape(-1, 3).square().sum(), [x])
    for bad in ((5, -1), (-1, -1), (13,), ("a",)):
        with pytest.raises(ShapeMismatch, match="cannot reshape"):
            x.reshape(*bad)


@pytest.mark.parametrize("shape, axis", [
    ((3,), 0), ((3,), -1), ((2, 3), (0, 1)), ((2, 3), (-1, 0)), ((2, 3, 2), (0, 2)),
])
def test_sum_and_mean_over_an_explicit_axis_set(shape, axis):
    # a reduction to one element is stored as shape (1,), not ()
    x = rand_tensor(np.random.default_rng(5), shape)
    assert np.allclose(x.mean(axis=axis).data, x.data.mean(axis=axis))
    check_grads(lambda t: t.sum(axis=axis).square().sum(), [x])
    check_grads(lambda t: t.mean(axis=axis).square().sum(), [x])
    if x.sum(axis=axis).size == 1:
        check_grads(lambda t: t.sum(axis=axis), [x])


def test_getitem_repeated_fancy_index_accumulates():
    x = Tensor(np.arange(4.0), requires_grad=True)
    assert T.backward(x[[0, 0, 1]].sum())[x.uid].tolist() == [2.0, 1.0, 0.0, 0.0]
    rng = np.random.default_rng(8)
    m = rand_tensor(rng, (3, 2))
    check_grads(lambda t: t[np.array([2, 0, 2, 2])].square().sum(), [m])


@pytest.mark.parametrize("key", [
    (slice(None), 0, slice(None)), (slice(None), slice(0, 1)), 1, -1, np.int64(2), (),
    (Ellipsis, 2), (None, slice(1, None, 2)), (slice(None, None, -1), 0, None)],
    ids=["mid_int", "slice", "int", "negative", "np_int", "empty", "ellipsis", "none_step",
         "reversed"])
def test_a_basic_index_scatters_its_gradient_as_add_at_does(key):
    """A basic key selects no element twice, so its rule adds ``g`` into a
    zero array where ``np.add.at`` would: the same bytes, a ``-0.0`` in ``g``
    becoming ``+0.0`` in both."""
    x = rand_tensor(np.random.default_rng(43), (3, 4, 5))
    y = x[key]
    g = np.random.default_rng(44).normal(size=y.shape)
    g.reshape(-1)[::3] = -0.0
    want = np.zeros(x.shape)
    np.add.at(want, key, g)
    assert T._basic(key)
    assert y._node[3][0](g).tobytes() == want.tobytes()


@pytest.mark.parametrize("key", [[0, 0], np.array([1, 0]), True, (slice(None), [0, 1]),
                                 np.array([True, False, True])],
                         ids=["list", "array", "bool", "mixed", "mask"])
def test_a_fancy_index_is_not_basic(key):
    assert not T._basic(key)


def test_layout_ops_skip_the_finiteness_check_and_the_constructor_keeps_it(monkeypatch):
    """``reshape``, ``transpose``, ``__getitem__``, ``expand``, ``concat``,
    ``relu`` and ``abs`` copy, select, or take the max with 0 or the absolute
    value of finite elements, so their results skip ``_finite``;
    ``Tensor(data)`` still checks."""
    rng = np.random.default_rng(45)
    tensors = rand_tensor(rng, (2, 3, 4)), rand_tensor(rng, (2, 3, 4), False)
    calls, real = [], T._finite
    monkeypatch.setattr(T, "_finite", lambda a: calls.append(a.shape) or real(a))
    for x in tensors:
        outs = (x.reshape(6, 4), x.transpose(2, 0, 1), x.T, x[:, 0], x[[0, 0]],
                x[:, :1].expand((2, 5, 4)), T.concat([x, x], axis=1), x.relu(), x.abs())
        assert all((o._node is not None) == x.requires_grad for o in outs)
    assert calls == []
    with pytest.raises(NonFiniteValue):
        Tensor([np.nan])
    assert calls == [(1,)]


def test_expand_grad():
    rng = np.random.default_rng(2)
    a = rand_tensor(rng, (1, 4))
    check_grads(lambda t: t.expand((3, 4)).square().sum(), [a])


def test_concat_grad():
    rng = np.random.default_rng(3)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (4, 3))
    check_grads(lambda x, y: T.concat([x, y], axis=0).square().sum(), [a, b])


@pytest.mark.parametrize("op", [
    lambda x: x.transpose(0, 0),
    lambda x: x.transpose(0, 2),
    lambda x: x.transpose(0),
    lambda x: x.sum(axis=5),
    lambda x: x.sum(axis=(0, 0)),
    lambda x: x.mean(axis=5),
    lambda x: x.mean(axis=(0, -2)),
    lambda x: x[:0].mean(),
    lambda x: x[:0].mean(axis=0),
    lambda x: T.concat([]),
    lambda x: T.concat([x, Tensor(np.ones((2, 2)))]),
    lambda x: T.concat([x, x], axis=2),
], ids=["transpose_repeated", "transpose_out_of_range", "transpose_too_few", "sum_out_of_range",
        "sum_repeated", "mean_out_of_range", "mean_repeated", "mean_of_nothing",
        "mean_of_nothing_on_an_axis", "concat_nothing", "concat_off_axis_mismatch",
        "concat_out_of_range"])
def test_a_bad_axis_or_operand_of_a_shape_op_is_a_shape_mismatch(op):
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        op(x)


# -- matmul --------------------------------------------------------------


def test_matmul_values():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert (a @ b).data.tolist() == [[19, 22], [43, 50]]


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatch):
        T.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(ShapeMismatch):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch):
        T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((4, 3, 2))))


def test_matmul_grad_2d():
    rng = np.random.default_rng(4)
    a = rand_tensor(rng, (3, 5))
    b = rand_tensor(rng, (5, 2))
    check_grads(lambda x, y: (x @ y).square().sum(), [a, b])


def test_matmul_grad_batched():
    rng = np.random.default_rng(5)
    a = rand_tensor(rng, (2, 3, 4))
    b = rand_tensor(rng, (2, 4, 3))
    check_grads(lambda x, y: T.matmul(x, y).square().sum(), [a, b])


def test_matmul_grad_batched_vs_2d():
    # 3-D @ 2-D must reduce the batch dims of the 2-D operand's grad
    rng = np.random.default_rng(6)
    a = rand_tensor(rng, (2, 3, 4))
    b = rand_tensor(rng, (4, 5))
    check_grads(lambda x, y: T.matmul(x, y).square().sum(), [a, b])


# -- fused nodes: affine, attention, gelu backward ------------------------


def _affine_chain(x, w, b=None):
    """Unfused reference: flatten, matmul with w.T, expand and add b."""
    if x.ndim == 3:
        n, s, din = x.shape
        return _affine_chain(x.reshape(n * s, din), w, b).reshape(n, s, w.shape[0])
    y = T.matmul(x, w.T)
    return y if b is None else y + b.expand(y.shape)


def _attention_chain(qkv, heads, prefix=None):
    """Unfused reference: the per-op attention block ``T.attention`` replaces."""
    n, s, d3 = qkv.shape
    d = d3 // 3
    hd = d // heads

    def split(lo):
        return qkv[:, :, lo:lo + d].reshape(n, s, heads, hd).transpose(0, 2, 1, 3)

    q, k, v = split(0), split(d), split(2 * d)
    if prefix is not None:
        pk, pv = prefix
        t = pk.shape[0]
        pk = pk.reshape(t, heads, hd).transpose(1, 0, 2).expand((n, heads, t, hd))
        pv = pv.reshape(t, heads, hd).transpose(1, 0, 2).expand((n, heads, t, hd))
        k = T.concat([pk, k], axis=2)
        v = T.concat([pv, v], axis=2)
    scores = T.matmul(q, k.transpose(0, 1, 3, 2)).scale(1.0 / np.sqrt(hd))
    ctx = T.matmul(T.softmax(scores), v)
    return ctx.transpose(0, 2, 1, 3).reshape(n, s, d)


def _assert_same_as_chain(fused, chain, leaves, seed=0):
    """Output and every leaf gradient of the fused node equal the chain's bit for bit."""
    outs = [fused(*leaves), chain(*leaves)]
    assert np.array_equal(outs[0].data, outs[1].data)
    probe = Tensor(np.random.default_rng(seed).normal(size=outs[0].shape))
    g_fused, g_chain = (T.backward((o * probe).sum()) for o in outs)
    assert g_fused.keys() == g_chain.keys()
    for uid, g in g_fused.items():
        assert np.array_equal(g, g_chain[uid])


# Widths 17 -> 33 and head width 16 are sizes at which numpy's matmul
# result depends on operand memory layout, so these tests see a fused
# node that skips one of the chain's C-order copies.


def _affine_leaves(x_shape, bias, frozen=False):
    """Input, weight (and bias); a frozen weight and bias do not require grad."""
    rng = np.random.default_rng(11)
    leaves = [rand_tensor(rng, x_shape), rand_tensor(rng, (33, 17), not frozen)]
    if bias:
        leaves.append(rand_tensor(rng, (33,), not frozen))
    return leaves


@pytest.mark.parametrize("x_shape", [(8, 17), (2, 4, 17)])
@pytest.mark.parametrize("bias", [True, False])
def test_affine_matches_chain(x_shape, bias):
    leaves = _affine_leaves(x_shape, bias)
    _assert_same_as_chain(T.affine, _affine_chain, leaves)
    check_grads(lambda *ls: T.affine(*ls).square().sum(), leaves)


@pytest.mark.parametrize("x_shape", [(8, 17), (2, 4, 17)])
@pytest.mark.parametrize("bias", [True, False])
def test_affine_frozen_weight_matches_chain(x_shape, bias):
    leaves = _affine_leaves(x_shape, bias, frozen=True)
    _assert_same_as_chain(T.affine, _affine_chain, leaves)
    # the frozen weight and bias get no gradient work at all: no parent, no rule
    out = T.affine(*leaves)
    assert out._node[2] == (leaves[0]._node,) and len(out._node[3]) == 1


def test_affine_shape_errors():
    with pytest.raises(ShapeMismatch):
        T.affine(Tensor(np.ones(4)), Tensor(np.ones((3, 4))))
    with pytest.raises(ShapeMismatch):
        T.affine(Tensor(np.ones((2, 5))), Tensor(np.ones((3, 4))))
    with pytest.raises(ShapeMismatch):
        T.affine(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones(4)))


def _attention_leaves(rng, n, s, d, prefix_len, frozen_qkv=False):
    """qkv (frozen: not requiring grad) and, with a prefix, its key and value."""
    leaves = [rand_tensor(rng, (n, s, 3 * d), not frozen_qkv)]
    return leaves + [rand_tensor(rng, (prefix_len, d)) for _ in range(2 if prefix_len else 0)]


def _with_heads(fn, heads):
    return lambda qkv, *pre: fn(qkv, heads, tuple(pre) if pre else None)


@pytest.mark.parametrize("prefix_len, frozen_qkv", [(0, False), (2, False), (2, True)],
                         ids=["0", "2", "2-frozen_qkv"])
def test_attention_matches_chain(prefix_len, frozen_qkv):
    rng = np.random.default_rng(12)
    leaves = _attention_leaves(rng, 2, 16, 32, prefix_len, frozen_qkv)
    _assert_same_as_chain(_with_heads(T.attention, 2), _with_heads(_attention_chain, 2),
                          leaves)
    small = _attention_leaves(rng, 2, 3, 4, prefix_len, frozen_qkv)
    fixed = small[:1] if frozen_qkv else []  # finite differences move tracked leaves alone
    check_grads(lambda *ls: _with_heads(T.attention, 2)(*fixed, *ls).square().sum(),
                small[len(fixed):])
    if frozen_qkv:  # the frozen qkv gets no gradient work at all: no parent, no rule
        out = _with_heads(T.attention, 2)(*leaves)
        assert out._node[2] == (leaves[1]._node, leaves[2]._node) and len(out._node[3]) == 2


def test_attention_two_backwards_through_one_node_match_the_chain():
    """The derivatives share work per incoming gradient; a second backward
    through the same node, with another gradient, must not reuse the first's."""
    rng = np.random.default_rng(15)
    leaves = _attention_leaves(rng, 2, 16, 32, 2)
    fused, chain = (_with_heads(fn, 2)(*leaves) for fn in (T.attention, _attention_chain))
    probes = [np.random.default_rng(seed).normal(size=fused.shape) for seed in (0, 1)]
    # back to back, as a reused id would meet them
    got = [T.backward((fused * Tensor(probe)).sum()) for probe in probes]
    for probe, grads in zip(probes, got):
        want = T.backward((chain * Tensor(probe)).sum())
        assert grads.keys() == want.keys() == {t.uid for t in leaves}
        for uid, g in grads.items():
            assert np.array_equal(g, want[uid])


def test_attention_shape_errors():
    with pytest.raises(ShapeMismatch):
        T.attention(Tensor(np.ones((2, 3, 10))), heads=2)
    with pytest.raises(ShapeMismatch):
        T.attention(Tensor(np.ones((2, 3, 12))), 2,
                    (Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4)))))


def _rel(got, want):
    """The largest difference relative to the largest magnitude of ``want``."""
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
@pytest.mark.parametrize("prefix_len", [0, 2])
def test_attention_queries_give_the_full_attention_rows(prefix_len, taped):
    """The cls row, the rest and any other row range of a ``queries`` slice
    are the full attention's rows, to the rounding of a shorter matmul."""
    leaves = _attention_leaves(np.random.default_rng(41), 3, 5, 8, prefix_len)
    qkv, *pre = leaves if taped else [Tensor(t.data) for t in leaves]
    full = T.attention(qkv, 2, tuple(pre) or None).data
    for rows in (slice(0, 1), slice(1, None), slice(2, 4), slice(-2, 9), slice(None)):
        part = T.attention(qkv, 2, tuple(pre) or None, rows)
        assert (part._node is not None) == taped and part.shape == full[:, rows].shape
        assert _rel(part.data, full[:, rows]) <= 1e-14, rows


@pytest.mark.parametrize("rows", [slice(0, 1), slice(1, None)], ids=["cls", "rest"])
@pytest.mark.parametrize("prefix_len", [0, 2])
def test_attention_query_rows_have_the_full_attention_gradients(rows, prefix_len):
    """Finite differences agree on ``qkv`` and both prefix tensors; the query
    slab's gradient is zero outside the rows; and the gradients equal the
    full attention's under an incoming gradient that is zero off the rows."""
    small = _attention_leaves(np.random.default_rng(42), 2, 3, 4, prefix_len)
    check_grads(lambda qkv, *pre: T.attention(qkv, 2, tuple(pre) or None, rows).square().sum(),
                small)
    leaves = _attention_leaves(np.random.default_rng(46), 3, 5, 8, prefix_len)
    qkv, *pre = leaves
    part = T.attention(qkv, 2, tuple(pre) or None, rows)
    probe = np.random.default_rng(47).normal(size=part.shape)
    got = T.backward((part * Tensor(probe)).sum())
    full = T.attention(qkv, 2, tuple(pre) or None)
    padded = np.zeros(full.shape)
    padded[:, rows] = probe
    want = T.backward((full * Tensor(padded)).sum())
    off = np.ones(5, bool)
    off[rows] = False
    assert not got[qkv.uid][:, off, :8].any()
    for t in leaves:
        assert _rel(got[t.uid], want[t.uid]) <= 1e-14


@pytest.mark.parametrize("rows", [slice(1, 1), slice(3, None), slice(2, 0), slice(0, 3, 2),
                                  slice(None, None, -1), 0, (0,)],
                         ids=["empty", "past_end", "reversed", "step2", "step-1", "int",
                              "tuple"])
def test_attention_queries_that_are_not_a_nonempty_unit_step_slice_are_a_shape_mismatch(rows):
    with pytest.raises(ShapeMismatch, match="queries"):
        T.attention(Tensor(np.ones((2, 3, 12))), 2, None, rows)


# -- the hot ops against their formulas with fresh temporaries ------------
#
# affine, layernorm, gelu, softmax and attention write their temporaries into
# buffers they allocate; each reference below is the op as written before,
# with a fresh array per step, and the op must match it bit for bit. The
# reference of lowrank is the chain of tape ops it replaces; its rank 8 is a
# size at which the matmul results depend on operand layout.


def affine_ref(x, w, b):
    """Reference: ``affine`` with a bias; the value and a map from the output
    gradient to the gradients of x, w and b."""
    x2 = x.reshape(-1, x.shape[-1])
    wt = np.ascontiguousarray(w.T)
    y = np.matmul(x2, wt)
    y = y + b

    def grads(g):
        g = g.reshape(y.shape)
        return [np.matmul(g, np.swapaxes(wt, -1, -2)).reshape(x.shape),
                np.transpose(np.matmul(np.swapaxes(x2, -1, -2), g)), g.sum(axis=0)]

    return y.reshape(x.shape[:-1] + (w.shape[0],)), grads


def layernorm_ref(x, gamma, beta, eps=1e-6):
    """Reference: ``layernorm``, x centred by ``x.var()`` and again for xhat."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    lead = tuple(range(x.ndim - 1))

    def grads(g):
        gg = g * gamma
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        return [(gg - m1 - xhat * m2) * inv, (g * xhat).sum(axis=lead), g.sum(axis=lead)]

    return gamma * xhat + beta, grads


def gelu_ref(x):
    """Reference: the tanh-approximate ``gelu`` and its derivative."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))

    def grads(g):
        du = c * (1.0 + 3 * 0.044715 * (x * x))
        return [g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)]

    return 0.5 * x * (1.0 + t), grads


def _softmax_ref(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad_ref(g, y):
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


def softmax_ref(x, temperature=1.0):
    """Reference: ``softmax`` at a temperature."""
    y = _softmax_ref(x / temperature)
    return y, lambda g: [_softmax_grad_ref(g, y) / temperature]


def attention_ref(qkv, heads, pk=None, pv=None):
    """Reference: ``attention`` with the scores and their gradient scaled
    into fresh arrays; gradients of qkv (and the prefix key and value)."""
    n, s, d3 = qkv.shape
    d = d3 // 3
    hd = d // heads
    scale = 1.0 / math.sqrt(hd)

    def split(a, lo, rows):
        return a[..., lo:lo + d].reshape(-1, rows, heads, hd).transpose(0, 2, 1, 3)

    q = np.ascontiguousarray(split(qkv, 0, s))
    k, v = split(qkv, d, s), split(qkv, 2 * d, s)
    t = 0 if pk is None else pk.shape[0]
    if pk is not None:
        k, v = (np.concatenate([np.broadcast_to(split(p, 0, t), (n, heads, t, hd)), a], axis=2)
                for p, a in ((pk, k), (pv, v)))
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    v = np.ascontiguousarray(v)
    attn = _softmax_ref(np.matmul(q, kt) * scale)
    ctx = np.matmul(attn, v)

    def grads(g):
        gh = np.transpose(g.reshape(n, s, heads, hd), (0, 2, 1, 3))
        g_attn = np.matmul(gh, np.swapaxes(v, -1, -2))
        g_v = np.matmul(np.swapaxes(attn, -1, -2), gh)
        g_scores = _softmax_grad_ref(g_attn, attn) * scale
        g_q = np.matmul(g_scores, np.swapaxes(kt, -1, -2))
        g_k = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_scores), -1, -2)
        g_qkv = np.zeros((n, s, 3, d))
        for i, gi in enumerate((g_q, g_k, g_v)):
            g_qkv[:, :, i] += np.transpose(gi[:, :, -s:], (0, 2, 1, 3)).reshape(n, s, d)
        return [g_qkv.reshape(qkv.shape)] + [
            np.transpose(gi[:, :, :t].sum(axis=0), (1, 0, 2)).reshape(t, d)
            for gi in ((g_k, g_v) if t else ())]

    return np.transpose(ctx, (0, 2, 1, 3)).reshape(n, s, d), grads


def lowrank_chain(x, y, a, b):
    """Reference: LoRA's chain ``y + affine(affine(x, a), b).scale(1.5)``,
    which ``lowrank`` replaces, on tracked copies of every operand."""
    leaves = [Tensor(v, requires_grad=True) for v in (x, y, a, b)]
    out = leaves[1] + T.affine(T.affine(leaves[0], leaves[2]), leaves[3]).scale(1.5)

    def grads(g):
        got = T.backward((out * Tensor(g)).sum())
        return [got[t.uid] for t in leaves]

    return out.data, grads


def _assert_matches_reference(op, ref, leaves):
    """The op's value, and each tracked leaf's gradient of two backwards
    through the one node, equal the reference's bit for bit. A derivative
    that writes into an array it keeps gets the second backward wrong."""
    out = op(*leaves)
    want, grads = ref(*(t.data for t in leaves))
    assert np.array_equal(out.data, want)
    for seed in (0, 1):
        probe = np.random.default_rng(seed).normal(size=out.shape)
        got = T.backward((out * Tensor(probe)).sum())  # hands the op the probe itself
        assert got.keys() == {t.uid for t in leaves if t.requires_grad}
        for t, w in zip(leaves, grads(probe), strict=True):
            if t.requires_grad:
                assert np.array_equal(got[t.uid], w), (seed, t.shape)


def _lowrank(x, y, a, b):
    return T.lowrank(y, x, a, b, 1.5)


# name: (op, reference, leaf shapes past the [..., 17] input, where "out" is
# the input's shape with 33 on its last axis; the leaves at the indices given
# last, the input being 0, are frozen)
HOT_OPS = {
    "affine": (T.affine, affine_ref, [(33, 17), (33,)]),
    "layernorm": (T.layernorm, layernorm_ref, [(17,), (17,)]),
    "gelu": (Tensor.gelu, gelu_ref, []),
    "softmax": (T.softmax, softmax_ref, []),
    "softmax_T2": (lambda x: T.softmax(x, 2.0), lambda x: softmax_ref(x, 2.0), []),
    **{f"lowrank{tag}": (_lowrank, lowrank_chain, ["out", (8, 17), (33, 8)], frozen)
       for tag, frozen in (("", ()), ("_frozen_x", (0,)), ("_frozen_y", (1,)),
                           ("_frozen_x_y", (0, 1)))},
}


@pytest.mark.parametrize("x_shape", [(8, 17), (4, 9, 17)], ids=["2d", "tokens"])
@pytest.mark.parametrize("name", sorted(HOT_OPS))
def test_hot_op_matches_its_reference(name, x_shape):
    op, ref, shapes, *frozen = HOT_OPS[name]
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(0.5, 2.0, size=x_shape), requires_grad=True)  # off-centre rows
    leaves = [x] + [rand_tensor(rng, x_shape[:-1] + (33,) if s == "out" else s)
                    for s in shapes]
    for i in frozen[0] if frozen else ():
        leaves[i] = Tensor(leaves[i].data)
    _assert_matches_reference(op, ref, leaves)


def test_lowrank_shape_errors():
    x, y = Tensor(np.ones((2, 4))), Tensor(np.ones((2, 3)))
    a, b = Tensor(np.ones((2, 4))), Tensor(np.ones((3, 2)))
    T.lowrank(y, x, a, b, 1.0)
    for args in ((y, x, a, b.T), (y, x, a.T, b), (Tensor(np.ones((2, 2))), x, a, b),
                 (y, Tensor(np.ones(4)), a, b), (y, x, Tensor(np.ones(4)), b)):
        with pytest.raises(ShapeMismatch, match="lowrank"):
            T.lowrank(*args, 1.0)


def test_one_lowrank_node_per_site():
    rng = np.random.default_rng(18)
    y, x, a, b = (rand_tensor(rng, s) for s in ((5, 3), (5, 4), (2, 4), (3, 2)))
    out = T.lowrank(y, x, a, b, 2.0)
    assert out._node[2] == (y._node, x._node, a._node, b._node)  # no node between
    # frozen operands drop out of the node: no tape edge, no gradient work
    out = T.lowrank(Tensor(y.data), Tensor(x.data), a, b, 2.0)
    assert out._node[2] == (a._node, b._node)


@pytest.mark.parametrize("prefix_len, heads, samples", [
    pytest.param(0, 4, (0, 4), id="0"), pytest.param(3, 4, (0, 4), id="3"),
    *(pytest.param(t, h, (k, j), id=f"{t}-heads{h}-{name}") for t in (0, 3) for h in (1, 4)
      for name, k, j in (("0", 0, 0), ("1", 0, 1), ("m-1", 1, -1), ("m", 1, 0),
                         ("m+1", 1, 1), ("3m+5", 3, 5)))])
def test_attention_matches_its_reference(prefix_len, heads, samples):
    """Taped, and untaped in blocks of m samples (``k m + j`` of them, m the
    block the budget gives at this shape: a block holds ``heads * max(9, hd)
    * (9 + prefix_len)`` scores, keys and values), bit for bit."""
    m = T._ATTENTION_BLOCK // (heads * max(9, 32 // heads) * (9 + prefix_len))
    rng = np.random.default_rng(17)
    leaves = _attention_leaves(rng, samples[0] * m + samples[1], 9, 32, prefix_len)
    _assert_matches_reference(_with_heads(T.attention, heads),
                              lambda qkv, *pre: attention_ref(qkv, heads, *pre), leaves)
    untaped = _with_heads(T.attention, heads)(*(Tensor(t.data) for t in leaves))
    want = attention_ref(leaves[0].data, heads, *(t.data for t in leaves[1:]))[0]
    assert untaped._node is None and np.array_equal(untaped.data, want)


@pytest.mark.parametrize("prefix_len", [0, 4])
def test_untaped_attention_holds_no_full_batch_temporary(prefix_len):
    """The bench's 384-sample attention (s 9, d 32, 4 heads), untaped, works
    in blocks of 32-64 samples and peaks under 3 MiB, its ``[n, s, d]``
    output included: 1.9 MiB with or without a 4-row prefix, against 5.2 and
    8.0 when it held full-batch q, kᵀ, v, scores and joined prefix copies."""
    assert 32 <= T._ATTENTION_BLOCK // (4 * 9 * (9 + prefix_len)) <= 64
    qkv, *prefix = (Tensor(t.data) for t in
                    _attention_leaves(np.random.default_rng(19), 384, 9, 32, prefix_len))
    tracemalloc.start()
    try:
        out = _with_heads(T.attention, 4)(qkv, *prefix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out._node is None and out.shape == (384, 9, 32)
    assert peak < 3 * 2**20, peak / 2**20


@pytest.mark.parametrize("count", [0, 1, 3], ids=["empty", "key_only", "three"])
def test_attention_prefix_must_be_a_pair(count):
    prefix = tuple(Tensor(np.ones((2, 4))) for _ in range(count))
    with pytest.raises(ShapeMismatch, match="expected two"):
        T.attention(Tensor(np.ones((2, 3, 12))), 2, prefix)


def test_gelu_backward_matches_closed_form():
    x = np.linspace(-5.0, 5.0, 201)
    c = np.sqrt(2.0 / np.pi)
    u = c * (x + 0.044715 * x**3)
    want = 0.5 * (1.0 + np.tanh(u)) + 0.5 * x * c * (1.0 + 3 * 0.044715 * x**2) / np.cosh(u)**2
    leaf = Tensor(x, requires_grad=True)
    got = T.backward(leaf.gelu().sum())[leaf.uid]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_gelu_keeps_its_input_alone():
    """The node's derivative recomputes ``tanh(u)`` from ``x``, so the forward
    leaves only its output behind (``tanh(u)`` was kept too), and it peaks at
    two new buffers, not three."""
    x = Tensor(np.random.default_rng(6).normal(size=1 << 16), requires_grad=True)
    tracemalloc.start()
    try:
        y = x.gelu()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * y.data.nbytes, kept / y.data.nbytes
    assert peak < 2.5 * y.data.nbytes, peak / y.data.nbytes


# -- softmax / log_softmax / layernorm -----------------------------------


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 8)))
    y = T.softmax(x)
    assert np.abs(y.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_overflow_stability():
    y = T.softmax(Tensor([[1000.0, 0.0]]))
    assert abs(y.data[0, 0] - 1.0) < 1e-12
    assert y.data[0, 1] >= 0.0


def test_softmax_temperature():
    x = Tensor([[2.0, 0.0]])
    hot = T.softmax(x, temperature=0.5).data
    cold = T.softmax(x, temperature=10.0).data
    assert hot[0, 0] > T.softmax(x).data[0, 0] > cold[0, 0]
    with pytest.raises(ValueError):
        T.softmax(x, temperature=0.0)


def test_softmax_grad():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (3, 5))
    w = Tensor(rng.normal(size=(3, 5)))
    check_grads(lambda t: (T.softmax(t, 2.0) * w).sum(), [x])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_temperature_or_eps_that_is_not_positive_and_finite_is_a_config_error(bad):
    x = Tensor(np.ones((2, 3)))
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    for op, name in ((lambda: T.softmax(x, bad), "temperature"),
                     (lambda: T.log_softmax(x, bad), "temperature"),
                     (lambda: T.layernorm(x, gamma, beta, eps=bad), "eps")):
        with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
            op()


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(4, 6)))
    assert np.abs(T.log_softmax(x).data - np.log(T.softmax(x).data)).max() < 1e-12


def test_log_softmax_grad():
    rng = np.random.default_rng(10)
    x = rand_tensor(rng, (3, 4))
    w = Tensor(rng.normal(size=(3, 4)))
    check_grads(lambda t: (T.log_softmax(t, 1.5) * w).sum(), [x])


def test_layernorm_closed_form():
    # [[1, 3]] -> zero mean, unit variance (up to eps): [[-1, 1]]
    x = Tensor([[1.0, 3.0]])
    out = T.layernorm(x, Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=1e-12)
    assert np.abs(out.data - [[-1.0, 1.0]]).max() < 1e-6


def test_layernorm_affine_and_shapes():
    x = Tensor([[0.0, 2.0]])
    out = T.layernorm(x, Tensor([2.0, 2.0]), Tensor([1.0, 1.0]), eps=1e-12)
    assert np.abs(out.data - [[-1.0, 3.0]]).max() < 1e-6
    with pytest.raises(ShapeMismatch):
        T.layernorm(x, Tensor([1.0]), Tensor([0.0, 0.0]))


def test_layernorm_grad():
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, (4, 6))
    g = rand_tensor(rng, (6,))
    b = rand_tensor(rng, (6,))
    w = Tensor(rng.normal(size=(4, 6)))
    check_grads(lambda xx, gg, bb: (T.layernorm(xx, gg, bb) * w).sum(),
                [x, g, b], rtol=5e-4)


def test_layernorm_frozen_gamma_beta_get_no_gradient_work():
    rng = np.random.default_rng(12)
    x = rand_tensor(rng, (2, 3, 6))
    gamma, beta = rand_tensor(rng, (6,), False), rand_tensor(rng, (6,), False)
    out = T.layernorm(x, gamma, beta)
    assert out._node[2] == (x._node,) and len(out._node[3]) == 1  # no parent, no rule
    # the input gradient is bit-identical to the one with tracked gamma and beta
    w = Tensor(rng.normal(size=out.shape))
    frozen = T.backward((out * w).sum())[x.uid]
    tracked = [Tensor(t.data, requires_grad=True) for t in (gamma, beta)]
    full = T.backward((T.layernorm(x, *tracked) * w).sum())[x.uid]
    assert np.array_equal(frozen, full)


@pytest.mark.parametrize("op", [
    lambda x: T.softmax(x),
    lambda x: T.log_softmax(x),
    lambda x: T.layernorm(x, Tensor(np.ones(0)), Tensor(np.zeros(0))),
], ids=["softmax", "log_softmax", "layernorm"])
def test_a_row_op_over_an_empty_last_axis_is_a_shape_mismatch(op):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # layernorm warned "Mean of empty slice"
        with pytest.raises(ShapeMismatch, match="empty last axis"):
            op(Tensor(np.zeros((2, 0))))


@pytest.mark.parametrize("prefix", [False, True])
def test_attention_over_zero_tokens_is_a_shape_mismatch(prefix):
    # it raised numpy's "cannot reshape array of size 0" from its head split
    pre = (Tensor(np.ones((0, 4))), Tensor(np.ones((0, 4)))) if prefix else None
    with pytest.raises(ShapeMismatch, match=r"qkv \(2, 0, 12\) is not \[n, s>0"):
        T.attention(Tensor(np.zeros((2, 0, 12))), 2, pre)
    assert T.attention(Tensor(np.zeros((0, 3, 12))), 2).shape == (0, 3, 4)  # zero samples work


@pytest.mark.parametrize("heads", [0, -1, True, 2.0, None])
def test_attention_heads_that_are_not_a_positive_integer_are_a_config_error(heads):
    # 0, -1 and True raised a raw ZeroDivisionError, ValueError and TypeError
    with pytest.raises(ConfigError, match=f"heads {re.escape(repr(heads))} is not a positive"):
        T.attention(Tensor(np.zeros((2, 3, 12))), heads)
    assert T.attention(Tensor(np.zeros((2, 3, 12))), np.int64(2)).shape == (2, 3, 4)


def test_layernorm_of_a_row_whose_variance_overflows_is_a_non_finite_value():
    """The row's mean is 0 but its variance is infinite, so ``inv`` is 0 and
    the output was ``beta``, with a zero gradient."""
    x = Tensor([[1e200, -1e200, 0.0], [1.0, 2.0, 3.0]], requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue, match="layernorm"):
        T.layernorm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))


@pytest.mark.parametrize("seed", range(4))
def test_layernorm_of_one_token_is_that_token_of_the_layernorm(seed):
    """The mini-ViT normalises only the cls row its head reads: rows are
    normalised one by one, so the value and every gradient agree byte for
    byte, the per-sample squares of gamma and beta too. The one exception is
    the sign of a zero: the rows of h that the slice drops get +0.0, where
    the whole-sequence norm's derivative could give them -0.0."""
    rng = np.random.default_rng(seed)
    n, s, d = rng.integers(1, 6), rng.integers(1, 10), rng.integers(2, 40)
    h = rand_tensor(rng, (n, s, d))
    gamma, beta = rand_tensor(rng, (d,)), rand_tensor(rng, (d,))
    w = Tensor(rng.normal(size=(n, d)))
    for per_sample in (False, True):
        if per_sample:  # a per-sample backward has no rule for h's slice
            h = Tensor(h.data)
        whole = T.layernorm(h, gamma, beta)[:, 0, :]
        row = T.layernorm(h[:, 0, :], gamma, beta)
        assert whole.data.tobytes() == row.data.tobytes()
        want = T.backward((whole * w).sum(), per_sample_sq=per_sample)
        got = T.backward((row * w).sum(), per_sample_sq=per_sample)
        assert want.keys() == got.keys() == {t.uid for t in (h, gamma, beta) if t.requires_grad}
        if not per_sample:
            assert not got[h.uid][:, 1:].any()
            want[h.uid] = want[h.uid] + 0.0  # -0.0 + 0.0 is +0.0; no other bit moves
        for uid in want:
            assert got[uid].tobytes() == want[uid].tobytes()


# -- backward ------------------------------------------------------------


# Per-sample backward: each rule against a loop of batch-1 backwards.
# (input shape, op on (x, *leaves), leaf shapes)
_W34 = Tensor(np.random.default_rng(19).normal(size=(3, 4)))  # a frozen weight
PER_SAMPLE_OPS = {
    "affine_2d": ((5, 4), T.affine, [(3, 4), (3,)]),
    "affine_3d": ((5, 3, 4), T.affine, [(3, 4), (3,)]),
    "affine_3d_two_blocks": ((40, 2, 64), T.affine, [(64, 64), (64,)]),  # blocks of 32 + 8
    "layernorm_2d": ((5, 4), T.layernorm, [(4,), (4,)]),
    "layernorm_3d": ((5, 3, 4), T.layernorm, [(4,), (4,)]),
    "expand_prepended": ((5, 3, 4), lambda x, p: x * p.expand(x.shape), [(3, 4)]),
    "expand_from_1": ((5, 4), lambda x, p: x * p.expand(x.shape), [(1, 4)]),
    "expand_cls": ((5, 1, 4), lambda x, p: x * p.expand(x.shape), [(4,)]),
    "broadcast_mul": ((5, 3, 4), lambda x, p: x * p, [(4,)]),
    "broadcast_add": ((5, 3, 4), lambda x, p: p + x, [(1, 3, 4)]),
    "broadcast_scalar": ((5, 4), lambda x, p: x * p, [(1,)]),
    # a LoRA site on a frozen affine: the factors' rules
    "lowrank_2d": ((5, 4), lambda x, a, b: T.lowrank(T.affine(x, _W34), x, a, b, 1.5),
                   [(2, 4), (3, 2)]),
    "lowrank_3d": ((5, 3, 4), lambda x, a, b: T.lowrank(T.affine(x, _W34), x, a, b, 1.5),
                   [(2, 4), (3, 2)]),
}


@pytest.mark.parametrize("name", sorted(PER_SAMPLE_OPS))
def test_per_sample_sq_matches_loop(name):
    x_shape, op, shapes = PER_SAMPLE_OPS[name]
    rng = np.random.default_rng(13)
    x = rng.normal(size=x_shape)
    leaves = [rand_tensor(rng, s) for s in shapes]
    c = rng.normal(size=op(Tensor(x), *leaves).shape)

    def loss(lo, hi):  # a sum of per-sample terms
        return (op(Tensor(x[lo:hi]), *leaves) * Tensor(c[lo:hi])).sum()

    want = [np.zeros(s) for s in shapes]
    for i in range(x.shape[0]):
        gmap = T.backward(loss(i, i + 1))
        for w, leaf in zip(want, leaves):
            w += gmap[leaf.uid] ** 2
    got = T.backward(loss(0, x.shape[0]), per_sample_sq=True)
    for w, leaf in zip(want, leaves):
        np.testing.assert_allclose(got[leaf.uid], w, rtol=1e-12, atol=0)


def test_per_sample_sq_raises_without_a_rule():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(5, 4)))
    w = rand_tensor(rng, (4, 4))
    p = rand_tensor(rng, (5, 4))
    prefix = (rand_tensor(rng, (1, 2)), rand_tensor(rng, (1, 2)))
    roots = (T.matmul(x, w).sum(),                          # matmul has no rule
             (x * w.reshape(16)[:4].expand((5, 4))).sum(),  # nor reshape or slicing
             T.attention(Tensor(rng.normal(size=(5, 2, 6))), 1,
                         prefix).sum(),                     # nor a Prefix pair
             T.affine(T.affine(x, w), w).sum(),             # a leaf read by two ops
             (x * p.expand((5, 4))).sum())                  # not shared by samples
    words = ("leaf is reached by an op with no per-sample rule",) * 3 + (
        "no per-sample rule: the .* leaf is read by more than one op",
        "no per-sample rule: expand .* keeps the sample axis")
    for root, word in zip(roots, words):
        T.backward(root)  # the plain backward is fine
        with pytest.raises(ConfigError, match=word):
            T.backward(root, per_sample_sq=True)


def test_per_sample_sq_of_a_leaf_with_a_row_per_sample_raises():
    """A binary op's operand broadcast within each sample, not across the
    samples, has no per-sample rule, nor has a 1-D layernorm's gamma."""
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(5, 4)))
    p, gamma, beta = rand_tensor(rng, (5, 1)), rand_tensor(rng, (4,)), rand_tensor(rng, (4,))
    roots = ((x * p).sum(), T.layernorm(x[0], gamma, beta).sum())
    words = (re.escape("no per-sample rule: expand (5, 1) -> (5, 4) keeps the sample axis"),
             re.escape("no per-sample rule: a (4,) gradient has no sample axis"))
    for root, word in zip(roots, words):
        T.backward(root)  # the plain backward is fine
        with pytest.raises(ConfigError, match=word):
            T.backward(root, per_sample_sq=True)


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    g = T.backward(w.sum())
    assert g[w.uid].tolist() == [[1, 1, 1], [1, 1, 1]]


def test_backward_sum_of_squares():
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    g = T.backward((w * w).sum())
    assert g[w.uid].tolist() == [2.0, -4.0, 6.0]


def test_backward_shared_subexpression():
    # y = (w + w).sum() accumulates both branches: grad 2
    w = Tensor([1.0, 2.0], requires_grad=True)
    g = T.backward((w + w).sum())
    assert g[w.uid].tolist() == [2.0, 2.0]


def test_backward_returns_read_only_arrays_and_rejects_a_non_finite_one():
    w = Tensor([[1.0, -2.0]], requires_grad=True)
    x = Tensor([[3.0, 4.0], [5.0, 6.0]])
    for per_sample in (False, True):
        (g,) = T.backward(T.affine(x, w).sum(), per_sample_sq=per_sample).values()
        assert type(g) is np.ndarray and g.shape == w.shape and not g.flags.writeable
    with pytest.raises(NonFiniteValue, match="gradient contains NaN or Inf"):
        T.backward(T.custom_op([w], np.float64(1.0), [lambda g: g * np.full(w.shape, np.inf)]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):  # x*x overflows
        T.backward(T.affine(Tensor([[1e200, 1.0]]), w).sum(), per_sample_sq=True)


def test_a_derivative_cannot_write_into_a_shared_gradient():
    """``a + b`` hands one gradient array to both operands: a derivative that
    wrote into it would change what the other one reads."""
    x = Tensor([1.0], requires_grad=True)

    def doubling(g):
        g *= 2
        return g

    a = T.custom_op([x], x.data * 2.0, [doubling])
    b = T.custom_op([x], x.data * 5.0, [lambda g: g * 5.0])
    with pytest.raises(ValueError, match="read-only"):
        T.backward(a + b)


def test_backward_frees_each_interior_gradient_once_its_node_has_run():
    """Only leaf gradients outlive ``backward``: a node's gradient is dropped
    once its derivatives have run, before any node below it runs its own."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    seen = {}

    def into_b(g):  # b's gradient, as backward stores it
        gb = g * np.ones(x.shape)
        seen["b"] = weakref.ref(gb)
        return gb

    def into_x(g):
        seen["b alive"] = seen["b"]() is not None
        return g * 2.0

    a = T.custom_op([x], x.data * 2.0, [into_x])
    b = T.custom_op([a], a.data * 3.0, [lambda g: g * 3.0])
    root = T.custom_op([b], np.float64(b.data.sum()), [into_b])
    grads = T.backward(root)
    assert seen["b alive"] is False
    assert list(grads) == [x.uid] and grads[x.uid].tolist() == [6.0, 6.0]


def _owner(t):
    """A weak reference to the array that owns ``t``'s memory."""
    return weakref.ref(t.data if t.data.base is None else t.data.base)


def test_a_lora_site_frees_its_base_affine_output():
    """No derivative of ``lowrank`` reads ``y``: once the caller drops it, its
    array is gone, and the gradients are still the chain's, bit for bit."""
    rng = np.random.default_rng(31)
    x, w, a, b = (rand_tensor(rng, s) for s in ((5, 4), (3, 4), (2, 4), (3, 2)))
    probe = Tensor(rng.normal(size=(5, 3)))
    y = T.affine(x, w)
    y_data = _owner(y)
    out = T.lowrank(y, x, a, b, 1.5)
    del y
    assert y_data() is None
    got = T.backward((out * probe).sum())
    chain = T.affine(x, w) + T.affine(T.affine(x, a), b).scale(1.5)
    want = T.backward((chain * probe).sum())
    for t in (x, w, a, b):
        assert got[t.uid].tobytes() == want[t.uid].tobytes()


def test_add_keeps_neither_operand_array():
    rng = np.random.default_rng(32)
    w = rand_tensor(rng, (3, 4))
    p, q = w * 2.0, w.square()  # interior: mul keeps the constant, square keeps w
    refs = _owner(p), _owner(q)
    root = (p + q).sum()
    del p, q
    assert all(r() is None for r in refs)
    assert np.array_equal(T.backward(root)[w.uid], 2.0 + 2.0 * w.data)


@pytest.mark.parametrize("bias", [True, False])
def test_a_frozen_weight_affine_keeps_neither_its_input_nor_its_output(bias):
    """Only the input's gradient is taken, and it reads the weight alone."""
    rng = np.random.default_rng(33)
    v = rand_tensor(rng, (6, 5))
    frozen = [Tensor(rng.normal(size=(4, 5)))] + ([Tensor(rng.normal(size=4))] if bias else [])
    x = v * 3.0
    y = T.affine(x, *frozen)
    refs = _owner(x), _owner(y)
    root = y.sum()
    del x, y
    assert all(r() is None for r in refs)
    want = T.backward(_affine_chain(v * 3.0, *frozen).sum())[v.uid]
    assert T.backward(root)[v.uid].tobytes() == want.tobytes()


def _layernorm_operands(rng, x_shape, tracked):
    """x (off-centre rows), gamma with zeros and negatives, and beta; the
    names in ``tracked`` require grad."""
    d = x_shape[-1]
    gamma = rng.normal(size=d)
    gamma[::3], gamma[1::3] = 0.0, -np.abs(gamma[1::3])
    values = {"x": rng.normal(0.5, 2.0, size=x_shape), "gamma": gamma, "beta": rng.normal(size=d)}
    return [Tensor(v, requires_grad=k in tracked) for k, v in values.items()]


@pytest.mark.parametrize("x_shape", [(6, 7), (3, 5, 7)], ids=["2d", "3d"])
@pytest.mark.parametrize("tracked", [("x",), ("gamma",), ("beta",), ("x", "gamma", "beta"), ()])
def test_a_layernorm_output_is_rebuilt_bit_for_bit(x_shape, tracked):
    """A recorded layernorm result carries a recompute, from the ``xhat`` its
    derivatives keep, that gives its values exactly; a result that records
    nothing, of untracked operands, carries none."""
    for seed in range(3):
        x, gamma, beta = _layernorm_operands(np.random.default_rng(seed), x_shape, tracked)
        out = T.layernorm(x, gamma, beta)
        if not tracked:
            assert out.recompute is None
            continue
        again = out.recompute()
        assert np.array_equal(again, out.data) and again.tobytes() == out.data.tobytes()


def _reads_a_norm(name, out, leaves):
    """A LoRA site or a tracked-weight affine that reads a layernorm output."""
    w, a, b, bias = leaves
    if name == "lowrank":
        return T.lowrank(T.affine(out, Tensor(w.data)), out, a, b, 1.5)
    return T.affine(out, w, bias)


@pytest.mark.parametrize("x_shape", [(6, 7), (3, 5, 7)], ids=["2d", "3d"])
@pytest.mark.parametrize("name", ["lowrank", "affine"])
def test_a_node_reading_a_layernorm_output_keeps_no_copy_of_it(name, x_shape):
    """The output's array dies with its ``Tensor``: the reader's derivatives
    rebuild it from the norm's ``xhat``. Gradients and per-sample squares are
    the ones a reader that keeps the array gives, byte for byte."""
    rng = np.random.default_rng(34)
    x, gamma, beta = _layernorm_operands(rng, x_shape, ("gamma", "beta"))
    leaves = [rand_tensor(rng, s) for s in ((4, 7), (2, 7), (4, 2), (4,))]
    probe = Tensor(rng.normal(size=x_shape[:-1] + (4,)))
    out = T.layernorm(x, gamma, beta)
    array = weakref.ref(out.data)
    root = (_reads_a_norm(name, out, leaves) * probe).sum()
    del out
    assert array() is None
    kept = T.layernorm(x, gamma, beta)
    kept.recompute = None  # the reader keeps the array itself
    want_root = (_reads_a_norm(name, kept, leaves) * probe).sum()
    for per_sample in (False, True):
        got, want = (T.backward(r, per_sample_sq=per_sample) for r in (root, want_root))
        assert got.keys() == want.keys() and len(got) == 4  # gamma, beta and two of the reader's
        for uid, g in got.items():
            assert g.tobytes() == want[uid].tobytes()


def test_prefix_attention_keeps_no_copy_of_its_broadcast_keys_or_values():
    """Attention puts the ``[t, d]`` prefix rows in front of each of the n
    samples' keys and values. The node keeps its own tokens' keys and values,
    the queries and the attention weights, not the n copies of the prefix
    rows (it kept ``[n, heads, t + s, hd]`` keys and values); the backward
    rebuilds them and still equals the chain bit for bit."""
    n, s, d, heads, t = 4, 4, 32, 2, 16
    leaves = _attention_leaves(np.random.default_rng(35), n, s, d, t)
    tracemalloc.start()
    try:
        out = _with_heads(T.attention, heads)(*leaves)
        kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    own = 8 * (3 * n * s * d + n * heads * s * (t + s))  # q, k, v and the weights
    assert own < kept < own + 8192, (own, kept)  # the prefix copies were 32 KiB more
    probe = Tensor(np.random.default_rng(36).normal(size=out.shape))
    got = T.backward((out * probe).sum())
    want = T.backward((_with_heads(_attention_chain, heads)(*leaves) * probe).sum())
    assert got.keys() == want.keys() == {leaf.uid for leaf in leaves}
    for uid, g in got.items():
        assert g.tobytes() == want[uid].tobytes()


def test_a_gradient_of_another_shape_is_a_shape_mismatch():
    """A derivative must hand back its operand's shape; only a size-1
    gradient is reshaped, since a 0-d result is stored as ``(1,)``."""
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    out = T.custom_op([w], np.float64(1.0), [lambda g: g * np.ones((3, 2))])
    with pytest.raises(ShapeMismatch, match=r"\(3, 2\) gradient for a \(2, 3\) operand"):
        T.backward(out)
    s = Tensor([2.0], requires_grad=True)
    root = T.custom_op([s], np.float64(4.0), [lambda g: g * 4.0])  # a 0-d gradient
    assert T.backward(root)[s.uid].tolist() == [4.0]


def test_a_root_that_is_a_grad_leaf_gets_its_gradient():
    w = Tensor([3.0], requires_grad=True)
    assert T.backward(w)[w.uid].tolist() == [1.0]


def test_backward_requires_scalar_root():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeMismatch, match=r"backward root has shape \(2,\)"):
        T.backward(w + w)


def test_backward_detached_root():
    with pytest.raises(ConfigError, match="root is not recorded on any tape"):
        T.backward(Tensor(1.0))


def test_backward_from_an_untracked_root():
    w = Tensor([1.0, 2.0])  # frozen: the ops reading it record no node
    root = (w * w).sum()
    assert root._node is None
    with pytest.raises(ConfigError, match="root is not recorded on any tape"):
        T.backward(root)


def test_backward_skips_untracked_leaves():
    w = Tensor([1.0], requires_grad=True)
    c = Tensor([2.0])  # constant
    g = T.backward((w * c).sum())
    assert w.uid in g and c.uid not in g


def test_detach_cuts_the_tape():
    w = Tensor([2.0], requires_grad=True)
    y = (w.detach() * w).sum()
    g = T.backward(y)
    assert g[w.uid].tolist() == [2.0]  # only the live branch


def test_backward_maps_only_the_leaves_it_reaches():
    w = Tensor([1.0], requires_grad=True)
    u = Tensor([1.0], requires_grad=True)  # unused leaf
    gs = T.backward((w * w).sum())
    assert gs[w.uid].tolist() == [2.0]
    assert u.uid not in gs


def test_custom_op_grad_routing():
    w = Tensor([[3.0]], requires_grad=True)
    out = T.custom_op([w], np.float64(9.0), [lambda g: g * np.array([[6.0]])])
    g = T.backward(out)
    assert g[w.uid].tolist() == [[6.0]]


@pytest.mark.parametrize("op", [
    lambda x, c: x * c,
    lambda x, c: T.matmul(x, c),
    lambda x, c: T.concat([x, c]),
    lambda x, c: T.custom_op([x, c], np.float64(1.0), [lambda g: g * np.ones((2, 2))] * 2),
], ids=["mul", "matmul", "concat", "custom_op"])
def test_a_constant_operand_gets_no_tape_edge(op):
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    assert op(x, Tensor(np.ones((2, 2))))._node[2] == (x._node,)


def test_custom_op_calls_no_derivative_of_a_constant_operand():
    def never(g):
        raise AssertionError("derivative of a constant operand called")

    x = Tensor([[3.0]], requires_grad=True)
    out = T.custom_op([x, Tensor([[1.0]])], np.float64(9.0),
                      [lambda g: g * np.array([[6.0]]), never])
    assert T.backward(out)[x.uid].tolist() == [[6.0]]


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = T.softmax(a @ a.T).sum()
        return T.backward(y)[a.uid]

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


# -- properties ----------------------------------------------------------


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_rows_sum_property(row):
    y = T.softmax(Tensor([row]))
    assert abs(y.data.sum() - 1.0) < 1e-12
    assert (y.data >= 0).all()


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_add_commutes_property(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 3)))
    b = Tensor(rng.normal(size=(3, 3)))
    assert np.array_equal((a + b).data, (b + a).data)
