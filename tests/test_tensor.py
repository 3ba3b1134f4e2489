"""Tensor core: elementwise ops, matmul, softmax, layernorm, backward."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_grads, rand_tensor
from zjkit import tensor as T
from zjkit.errors import ConfigError, DetachedRoot, NonFiniteValue, ShapeMismatch
from zjkit.tensor import Tensor, tensor_new


# -- construction --------------------------------------------------------


def test_tensor_new_shape_and_values():
    t = tensor_new((2, 3), [1, 2, 3, 4, 5, 6])
    assert t.shape == (2, 3)
    assert t.data.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_tensor_new_count_mismatch():
    with pytest.raises(ShapeMismatch):
        tensor_new((2, 3), [1, 2, 3])


def test_nan_rejected_at_creation():
    with pytest.raises(NonFiniteValue):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteValue):
        Tensor([np.inf])


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


def test_scalar_broadcast_only():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert (a + Tensor(1.0)).data.tolist() == [[2.0, 3.0], [4.0, 5.0]]
    with pytest.raises(ShapeMismatch):
        a + Tensor([1.0, 2.0])  # row broadcast is not supported


def test_relu_values():
    t = Tensor([-2.0, 0.0, 3.0]).relu()
    assert t.data.tolist() == [0.0, 0.0, 3.0]


def test_gelu_known_points():
    # gelu(0) = 0 exactly; gelu is odd-symmetric up to the linear term
    x = Tensor([0.0]).gelu()
    assert x.data[0] == 0.0
    # tanh approximation at 1.0 (frozen from the closed form)
    val = Tensor([1.0]).gelu().data[0]
    assert abs(val - 0.8411919906082768) < 1e-12


def test_ew_op_dispatch():
    a = Tensor([1.0, -1.0])
    assert T.ew_op("relu", a).data.tolist() == [1.0, 0.0]
    assert T.ew_op("add", a, a).data.tolist() == [2.0, -2.0]
    assert T.ew_op("scale", a, 3.0).data.tolist() == [3.0, -3.0]
    with pytest.raises(ValueError):
        T.ew_op("nope", a)


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
    lambda a: a.tanh().sum(),
    lambda a: a.exp().sum(),
    lambda a: a.gelu().sum(),
    lambda a: a.square().sum(),
    lambda a: (a * a + 1.0).sqrt().sum(),
    lambda a: (a * a + 0.5).log().sum(),
    lambda a: a.mean(),
    lambda a: a.sum(axis=0).square().sum(),
    lambda a: a.reshape(12).square().sum(),
    lambda a: a.T.square().mean(),
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
    assert T.backward(x[[0, 0, 1]].sum())[x.uid].data.tolist() == [2.0, 1.0, 0.0, 0.0]
    rng = np.random.default_rng(8)
    m = rand_tensor(rng, (3, 2))
    check_grads(lambda t: t[np.array([2, 0, 2, 2])].square().sum(), [m])


def test_expand_grad():
    rng = np.random.default_rng(2)
    a = rand_tensor(rng, (1, 4))
    check_grads(lambda t: t.expand((3, 4)).square().sum(), [a])


def test_concat_grad():
    rng = np.random.default_rng(3)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (4, 3))
    check_grads(lambda x, y: T.concat([x, y], axis=0).square().sum(), [a, b])


# -- matmul --------------------------------------------------------------


def test_matmul_values():
    a = tensor_new((2, 2), [1, 2, 3, 4])
    b = tensor_new((2, 2), [5, 6, 7, 8])
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
        assert np.array_equal(g.data, g_chain[uid].data)


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
    # the frozen weight and bias get no gradient work at all
    out = T.affine(*leaves)
    reached = []
    out._backward(np.ones(out.shape), lambda t, g: reached.append(t.uid))
    assert reached == [leaves[0].uid]


def test_affine_shape_errors():
    with pytest.raises(ShapeMismatch):
        T.affine(Tensor(np.ones(4)), Tensor(np.ones((3, 4))))
    with pytest.raises(ShapeMismatch):
        T.affine(Tensor(np.ones((2, 5))), Tensor(np.ones((3, 4))))
    with pytest.raises(ShapeMismatch):
        T.affine(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones(4)))


def _attention_leaves(rng, n, s, d, prefix_len):
    leaves = [rand_tensor(rng, (n, s, 3 * d))]
    return leaves + [rand_tensor(rng, (prefix_len, d)) for _ in range(2 if prefix_len else 0)]


def _with_heads(fn, heads):
    return lambda qkv, *pre: fn(qkv, heads, tuple(pre) if pre else None)


@pytest.mark.parametrize("prefix_len", [0, 2])
def test_attention_matches_chain(prefix_len):
    rng = np.random.default_rng(12)
    leaves = _attention_leaves(rng, 2, 16, 32, prefix_len)
    _assert_same_as_chain(_with_heads(T.attention, 2), _with_heads(_attention_chain, 2),
                          leaves)
    small = _attention_leaves(rng, 2, 3, 4, prefix_len)
    check_grads(lambda *ls: _with_heads(T.attention, 2)(*ls).square().sum(), small)


def test_attention_shape_errors():
    with pytest.raises(ShapeMismatch):
        T.attention(Tensor(np.ones((2, 3, 10))), heads=2)
    with pytest.raises(ShapeMismatch):
        T.attention(Tensor(np.ones((2, 3, 12))), 2,
                    (Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4)))))


def test_gelu_backward_matches_closed_form():
    x = np.linspace(-5.0, 5.0, 201)
    c = np.sqrt(2.0 / np.pi)
    u = c * (x + 0.044715 * x**3)
    want = 0.5 * (1.0 + np.tanh(u)) + 0.5 * x * c * (1.0 + 3 * 0.044715 * x**2) / np.cosh(u)**2
    leaf = Tensor(x, requires_grad=True)
    got = T.backward(leaf.gelu().sum())[leaf.uid].data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
    reached = []
    out._backward(np.ones(out.shape), lambda t, g: reached.append(t.uid))
    assert reached == [x.uid]
    # the input gradient is bit-identical to the one with tracked gamma and beta
    w = Tensor(rng.normal(size=out.shape))
    frozen = T.backward((out * w).sum())[x.uid]
    tracked = [Tensor(t.data, requires_grad=True) for t in (gamma, beta)]
    full = T.backward((T.layernorm(x, *tracked) * w).sum())[x.uid]
    assert np.array_equal(frozen.data, full.data)


# -- backward ------------------------------------------------------------


# Per-sample backward: each rule against a loop of batch-1 backwards.
# (input shape, op on (x, *leaves), leaf shapes)
PER_SAMPLE_OPS = {
    "affine_2d": ((5, 4), T.affine, [(3, 4), (3,)]),
    "affine_3d": ((5, 3, 4), T.affine, [(3, 4), (3,)]),
    "affine_3d_two_blocks": ((40, 2, 64), T.affine, [(64, 64), (64,)]),  # blocks of 32 + 8
    "layernorm_2d": ((5, 4), T.layernorm, [(4,), (4,)]),
    "layernorm_3d": ((5, 3, 4), T.layernorm, [(4,), (4,)]),
    "expand_prepended": ((5, 3, 4), lambda x, p: x * p.expand(x.shape), [(3, 4)]),
    "expand_from_1": ((5, 4), lambda x, p: x * p.expand(x.shape), [(1, 4)]),
    "expand_cls": ((5, 1, 4), lambda x, p: x * p.expand(x.shape), [(4,)]),
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
            w += gmap[leaf.uid].data ** 2
    got = T.backward(loss(0, x.shape[0]), per_sample_sq=True)
    for w, leaf in zip(want, leaves):
        np.testing.assert_allclose(got[leaf.uid].data, w, rtol=1e-12, atol=0)


def test_per_sample_sq_raises_without_a_rule():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(5, 4)))
    w = rand_tensor(rng, (4, 4))
    p = rand_tensor(rng, (5, 4))
    roots = (T.matmul(x, w).sum(),                          # matmul has no rule
             (x * w.reshape(16)[:4].expand((5, 4))).sum(),  # nor reshape or slicing
             T.affine(T.affine(x, w), w).sum(),             # a leaf read by two ops
             (x * p.expand((5, 4))).sum())                  # not shared by samples
    words = ("leaf is reached by an op with no per-sample rule",) * 2 + (
        "no per-sample rule: the .* leaf is read by more than one op",
        "no per-sample rule: expand .* keeps the sample axis")
    for root, word in zip(roots, words):
        T.backward(root)  # the plain backward is fine
        with pytest.raises(ConfigError, match=word):
            T.backward(root, per_sample_sq=True)


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    g = T.backward(w.sum())
    assert g[w.uid].data.tolist() == [[1, 1, 1], [1, 1, 1]]


def test_backward_sum_of_squares():
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    g = T.backward((w * w).sum())
    assert g[w.uid].data.tolist() == [2.0, -4.0, 6.0]


def test_backward_shared_subexpression():
    # y = (w + w).sum() accumulates both branches: grad 2
    w = Tensor([1.0, 2.0], requires_grad=True)
    g = T.backward((w + w).sum())
    assert g[w.uid].data.tolist() == [2.0, 2.0]


def test_backward_requires_scalar_root():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeMismatch, match=r"backward root has shape \(2,\)"):
        T.backward(w + w)


def test_backward_detached_root():
    with pytest.raises(DetachedRoot):
        T.backward(Tensor(1.0))


def test_backward_skips_untracked_leaves():
    w = Tensor([1.0], requires_grad=True)
    c = Tensor([2.0])  # constant
    g = T.backward((w * c).sum())
    assert w.uid in g and c.uid not in g


def test_detach_cuts_the_tape():
    w = Tensor([2.0], requires_grad=True)
    y = (w.detach() * w).sum()
    g = T.backward(y)
    assert g[w.uid].data.tolist() == [2.0]  # only the live branch


def test_backward_maps_only_the_leaves_it_reaches():
    w = Tensor([1.0], requires_grad=True)
    u = Tensor([1.0], requires_grad=True)  # unused leaf
    gs = T.backward((w * w).sum())
    assert gs[w.uid].data.tolist() == [2.0]
    assert u.uid not in gs


def test_custom_op_grad_routing():
    w = Tensor([[3.0]], requires_grad=True)
    out = T.custom_op([w], np.float64(9.0), [lambda g: g * np.array([[6.0]])])
    g = T.backward(out)
    assert g[w.uid].data.tolist() == [[6.0]]


@pytest.mark.parametrize("op", [
    lambda x, c: x * c,
    lambda x, c: T.matmul(x, c),
    lambda x, c: T.concat([x, c]),
    lambda x, c: T.custom_op([x, c], np.float64(1.0), [lambda g: g * np.ones((2, 2))] * 2),
], ids=["mul", "matmul", "concat", "custom_op"])
def test_a_constant_operand_gets_no_tape_edge(op):
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    assert op(x, Tensor(np.ones((2, 2))))._parents == (x,)


def test_custom_op_calls_no_derivative_of_a_constant_operand():
    def never(g):
        raise AssertionError("derivative of a constant operand called")

    x = Tensor([[3.0]], requires_grad=True)
    out = T.custom_op([x, Tensor([[1.0]])], np.float64(9.0),
                      [lambda g: g * np.array([[6.0]]), never])
    assert T.backward(out)[x.uid].data.tolist() == [[6.0]]


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = T.softmax(a @ a.T).sum()
        return T.backward(y)[a.uid].data

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
