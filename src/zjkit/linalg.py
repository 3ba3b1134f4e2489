"""Numeric kernels of the tuner's regularizers, on ndarrays: thin SVD and power iteration."""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, ShapeMismatch, check_count


def thin_svd(mat):
    """``np.linalg.svd(mat, full_matrices=False)``; a LinAlgError is NoConvergence."""
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def spectral_norm(w, iters=50, seed=0):
    """Largest singular value of a matrix by seeded power iteration.

    Returns ``(sigma, u, v)`` with unit singular vector arrays, sign-normalized
    so the first nonzero component of ``u`` is positive. A zero matrix
    yields sigma 0.
    """
    mat = np.asarray(w, dtype=np.float64)
    if mat.ndim != 2:
        raise ShapeMismatch(f"spectral_norm expects a matrix, got {mat.shape}")
    iters = check_count("iters", iters)
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
            return 0.0, np.zeros(m), v
        u = wv / nu
        wu = mat.T @ u
        sigma = np.linalg.norm(wu)
        if sigma == 0.0:
            return 0.0, np.zeros(m), v
        v = wu / sigma
    nz = np.nonzero(u)[0]
    if nz.size and u[nz[0]] < 0:
        u = -u
        v = -v
    return float(sigma), u, v
