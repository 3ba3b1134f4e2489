"""Shared test utilities: finite-difference oracle, small builders, an
example spec per model family and the settings of the replayed hypothesis
properties."""

import numpy as np
from hypothesis import settings

from zjkit import tensor as T
from zjkit.models import MiniVitSpec, MlpSpec
from zjkit.tensor import Tensor

#: family -> a small example spec and the shape of one sample; a family
#: registered in ``models.SPECS`` needs its example here
EXAMPLES = {
    "mlp": (MlpSpec((3, 6, 5, 3)), (3,)),
    "mini_vit": (MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=12, classes=2, seq_len=2,
                             input_dim=2), (2, 2)),
}


def finite_diff(fn, leaves, h=1e-5):
    """Central-difference gradients of scalar fn(*leaves) per leaf."""
    grads = []
    for li, leaf in enumerate(leaves):
        g = np.zeros(leaf.shape)
        flat = g.reshape(-1)
        base = leaf.data.copy()
        for i in range(base.size):
            for sign in (+1, -1):
                bumped = base.reshape(-1).copy()
                bumped[i] += sign * h
                probe = [
                    Tensor(bumped.reshape(leaf.shape), requires_grad=True)
                    if j == li else l
                    for j, l in enumerate(leaves)
                ]
                val = fn(*probe).item()
                flat[i] += sign * val / (2 * h)
        grads.append(g)
    return grads


def check_grads(fn, leaves, rtol=1e-4, h=1e-5):
    """Assert autodiff matches central finite differences per leaf."""
    out = fn(*leaves)
    gmap = T.backward(out)
    numeric = finite_diff(fn, leaves, h=h)
    for leaf, num in zip(leaves, numeric):
        got = gmap.get(leaf.uid)
        ana = got if got is not None else np.zeros(leaf.shape)
        scale = max(np.abs(num).max(), np.abs(ana).max(), 1e-8)
        err = np.abs(ana - num).max() / scale
        assert err < rtol, f"grad mismatch: rel err {err:.3e}"
    return out


def rand_tensor(rng, shape, requires_grad=True, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)


def fixed_or_explored(n):
    """Settings of a hypothesis property: the same ``n`` examples on every run,
    or, under ``--hypothesis-profile=explore``, that profile's count and draws.
    Any other profile (hypothesis loads its "ci" one by itself on CI) keeps
    the fixed ``n``."""
    if settings.get_current_profile_name() != "explore":
        return settings(derandomize=True, deadline=None, max_examples=n)
    return settings()
