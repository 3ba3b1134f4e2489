"""Random small op graphs against finite differences.

Each graph starts from one leaf and applies a few ops drawn from ``OPS``;
an op may add leaves of its own (a size-1 factor, an affine weight, a
concat partner, an attention block's projection and prefix pair). The scalar root weights the last node by a fixed random
array, plus each leaf weighted by one of its own, and ``check_grads``
compares every leaf's gradient with central differences. The leaf terms keep
a gradient that is exactly zero along the graph (a leaf shifted before a
softmax or a layernorm) from meeting finite-difference noise with no scale
to compare it against.

A second property checks the per-sample backward: random chains over the
ops that have a per-sample rule (``affine`` on 2-D and 3-D input,
``layernorm``, ``expand``), with an activation or a flatten between them,
must give each leaf the sum over samples of its squared gradient from a
loop of batch-1 backwards.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import check_grads, fixed_or_explored, rand_tensor
from zjkit import tensor as T
from zjkit.errors import ConfigError


def _positive(h):
    return h.square() + 0.5


def _rows(h):
    """At least 2-D, for the ops that read rows."""
    return h if h.ndim >= 2 else h.reshape(1, -1)


# name -> (shapes of the op's own leaves for an input shape, the op)
OPS = {
    "scale": (lambda s: (), lambda h: h.scale(-0.7)),
    "relu": (lambda s: (), lambda h: h.relu()),
    "gelu": (lambda s: (), lambda h: h.gelu()),
    "sqrt": (lambda s: (), lambda h: _positive(h).sqrt()),
    "square": (lambda s: (), lambda h: h.square()),
    "abs": (lambda s: (), lambda h: h.abs()),
    "sum_first": (lambda s: (), lambda h: h.sum(axis=0)),
    "sum_last_keep": (lambda s: (), lambda h: h.sum(axis=-1, keepdims=True)),
    "sum_all_axes": (lambda s: (), lambda h: h.sum(axis=tuple(range(h.ndim)))),
    "sum_all": (lambda s: (), lambda h: h.sum()),
    "mean_last": (lambda s: (), lambda h: h.mean(axis=-1)),
    "mean_pair": (lambda s: (), lambda h: h.mean(axis=(-1, 0)) if h.ndim > 1 else h.mean(0)),
    "mean_all": (lambda s: (), lambda h: h.mean()),
    "reshape_flat": (lambda s: (), lambda h: h.reshape(-1)),
    "reshape_rows": (lambda s: (), lambda h: h.reshape(-1, h.shape[-1])),
    "transpose": (lambda s: (), lambda h: h.T),
    "index_first": (lambda s: (), lambda h: h[0]),
    "index_repeated": (lambda s: (), lambda h: h[np.array([0, -1, 0, 0])]),
    "softmax": (lambda s: (), lambda h: T.softmax(h, 2.0)),
    "log_softmax": (lambda s: (), lambda h: T.log_softmax(h)),
    "mul_size_one": (lambda s: ((1,) * len(s),), lambda h, c: h * c),
    "add_size_one_higher_rank": (lambda s: ((1,) * (len(s) + 1),), lambda h, c: c + h),
    "div_same": (lambda s: (s,), lambda h, c: h / _positive(c)),
    "sub_scalar": (lambda s: (), lambda h: 1.5 - h),
    "expand": (lambda s: (), lambda h: h.expand((2,) + h.shape)),
    "affine": (lambda s: ((2, s[-1]), (2,)), lambda h, w, b: T.affine(_rows(h), w, b)),
    "matmul": (lambda s: ((s[-1], 2),), lambda h, w: T.matmul(_rows(h), w)),
    "layernorm": (lambda s: ((s[-1],), (s[-1],)), T.layernorm),
    "concat": (lambda s: (s,), lambda h, c: T.concat([h, c], axis=-1)),
    "attention": (lambda s: ((6, s[-1]), (6,), (1, 2), (1, 2)),  # one head, width 2
                  lambda h, w, b, *prefix: T.attention(
                      T.affine(_rows(h), w, b).reshape(1, -1, 6), 1, prefix)),
}
START_SHAPES = [(3,), (2, 3), (2, 1, 2)]


def _graph(names, start, seed):
    """(root function of the leaves, leaves) for one chain of ops."""
    rng = np.random.default_rng(seed)
    leaves = [rand_tensor(rng, start)]
    steps, h = [], leaves[0]
    for name in names:
        shapes, op = OPS[name]
        first = len(leaves)
        leaves += [rand_tensor(rng, s) for s in shapes(h.shape)]
        steps.append((op, first, len(leaves)))
        h = op(h, *leaves[first:])
    weights = [T.Tensor(rng.normal(size=t.shape)) for t in [h] + leaves]

    def root(*ls):
        h = ls[0]
        for op, lo, hi in steps:
            h = op(h, *ls[lo:hi])
        return sum((t * w).sum() for t, w in zip([h, *ls], weights))

    return root, leaves


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("start", START_SHAPES)
def test_each_op_grad(name, start):
    check_grads(*_graph([name], start, seed=0))


@fixed_or_explored(300)
@given(st.lists(st.sampled_from(sorted(OPS)), min_size=2, max_size=4),
       st.sampled_from(START_SHAPES), st.integers(0, 2**16))
def test_random_graph_grads(names, start, seed):
    check_grads(*_graph(names, start, seed))


# name -> (shapes of the op's own leaves for an input shape, the op); every
# op keeps samples on axis 0 apart, and each leaf is read by one op
SAMPLE_OPS = {
    "affine": (lambda s: ((3, s[-1]), (3,)), T.affine),
    "layernorm": (lambda s: ((s[-1],), (s[-1],)), T.layernorm),
    "expand_prepended": (lambda s: (s[1:],), lambda h, p: h * p.expand(h.shape)),
    "expand_from_1": (lambda s: ((1,) + s[1:],), lambda h, p: h * p.expand(h.shape)),
    "gelu": (lambda s: (), lambda h: h.gelu()),
    "flatten": (lambda s: (), lambda h: h.reshape(h.shape[0], -1)),
}
SAMPLE_STARTS = [(4, 3), (4, 2, 3)]  # 4 samples of a row, or of 2 tokens


def _sample_graph(names, start, seed):
    """(loss of samples lo:hi, leaves) for one chain of ``SAMPLE_OPS`` that
    ends in an affine head; the loss weights each output by a fixed array."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=start)
    leaves, steps, h = [], [], T.Tensor(x)
    for name in [*names, "affine"]:
        shapes, op = SAMPLE_OPS[name]
        first = len(leaves)
        leaves += [rand_tensor(rng, s) for s in shapes(h.shape)]
        steps.append((op, first, len(leaves)))
        h = op(h, *leaves[first:])
    c = rng.normal(size=h.shape)

    def loss(lo, hi):
        h = T.Tensor(x[lo:hi])
        for op, first, end in steps:
            h = op(h, *leaves[first:end])
        return (h * T.Tensor(c[lo:hi])).sum()

    return loss, leaves


@fixed_or_explored(150)
@given(st.lists(st.sampled_from(sorted(SAMPLE_OPS)), max_size=4),
       st.sampled_from(SAMPLE_STARTS), st.integers(0, 2**16))
def test_random_graph_per_sample_sq_matches_loop(names, start, seed):
    loss, leaves = _sample_graph(names, start, seed)
    want = [np.zeros(t.shape) for t in leaves]
    for i in range(start[0]):
        gmap = T.backward(loss(i, i + 1))
        for w, t in zip(want, leaves):
            w += gmap[t.uid] ** 2
    got = T.backward(loss(0, start[0]), per_sample_sq=True)
    assert set(got) == {t.uid for t in leaves}
    for w, t in zip(want, leaves):
        np.testing.assert_allclose(got[t.uid], w, rtol=1e-9, atol=1e-12 * w.max())


def test_per_sample_sq_of_a_leaf_read_by_two_ops_raises():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(4, 2, 3)))
    gamma, beta = rand_tensor(rng, (3,)), rand_tensor(rng, (3,))
    root = T.layernorm(T.layernorm(x, gamma, beta).gelu(), gamma, beta).sum()
    T.backward(root)  # the plain backward is fine
    with pytest.raises(ConfigError, match="read by more than one op"):
        T.backward(root, per_sample_sq=True)
