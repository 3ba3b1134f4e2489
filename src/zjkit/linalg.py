"""Numeric kernels of the tuner's regularizers: thin SVD and power iteration."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NoConvergence, ShapeMismatch
from .tensor import Tensor


def thin_svd(mat):
    """``np.linalg.svd(mat, full_matrices=False)``; a LinAlgError is NoConvergence."""
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def spectral_norm(w, iters=50, seed=0):
    """Largest singular value of a matrix by seeded power iteration.

    Returns ``(sigma, u, v)`` with unit singular vectors, sign-normalized
    so the first nonzero component of ``u`` is positive. A zero matrix
    yields sigma 0.
    """
    mat = w.data if isinstance(w, Tensor) else np.asarray(w, dtype=np.float64)
    if mat.ndim != 2:
        raise ShapeMismatch(f"spectral_norm expects a matrix, got {mat.shape}")
    if iters < 1:
        raise ConfigError("iters must be >= 1")
    m, n = mat.shape
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, size=n)
    v /= np.linalg.norm(v)
    u = np.zeros(m)
    sigma = 0.0
    for _ in range(iters):
        wv = mat @ v
        nu = np.linalg.norm(wv)
        if nu == 0.0:
            return 0.0, Tensor(np.zeros(m)), Tensor(v)
        u = wv / nu
        wu = mat.T @ u
        sigma = np.linalg.norm(wu)
        if sigma == 0.0:
            return 0.0, Tensor(np.zeros(m)), Tensor(v)
        v = wu / sigma
    nz = np.nonzero(u)[0]
    if nz.size and u[nz[0]] < 0:
        u = -u
        v = -v
    return float(sigma), Tensor(u), Tensor(v)
