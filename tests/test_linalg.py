"""Thin SVD and power-iteration spectral norm against residual oracles."""

import numpy as np
import pytest

from zjkit.errors import ShapeMismatch
from zjkit.linalg import spectral_norm, thin_svd


def test_svd_diagonal_matrix():
    s = thin_svd(np.diag([3.0, 1.0]))[1]
    assert np.allclose(s, [3.0, 1.0])


def test_svd_reconstruction_residual():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 4))
    u, s, vt = thin_svd(a)
    recon = u @ np.diag(s) @ vt
    assert np.abs(recon - a).max() < 1e-8 * np.linalg.norm(a)


def test_svd_orthogonality_and_order():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 6))
    u, s, vt = thin_svd(a)
    r = min(a.shape)
    assert u.shape == (5, r) and vt.shape == (r, 6)
    assert np.abs(u.T @ u - np.eye(r)).max() < 1e-10
    assert np.abs(vt @ vt.T - np.eye(r)).max() < 1e-10
    assert (np.diff(s) <= 1e-12).all()  # nonincreasing


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    for seed in range(5):
        a = np.random.default_rng(seed).normal(size=(8, 6))
        sigma, u, v = spectral_norm(a, iters=200)
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(sigma - top) < 1e-6 * max(1.0, top)
        # u, v are a consistent singular pair: A v = sigma u
        assert np.abs(a @ v.data - sigma * u.data).max() < 1e-5


def test_spectral_norm_sign_normalization():
    a = np.diag([5.0, 2.0])
    sigma, u, v = spectral_norm(a, iters=100)
    assert abs(sigma - 5.0) < 1e-10
    nz = np.nonzero(u.data)[0]
    assert u.data[nz[0]] > 0


def test_spectral_norm_zero_matrix():
    sigma, u, v = spectral_norm(np.zeros((3, 4)))
    assert sigma == 0.0


def test_spectral_norm_deterministic():
    a = np.random.default_rng(3).normal(size=(6, 6))
    r1 = spectral_norm(a, seed=7)
    r2 = spectral_norm(a, seed=7)
    assert r1[0] == r2[0]
    assert np.array_equal(r1[1].data, r2[1].data)


def test_spectral_norm_arg_checks():
    with pytest.raises(ShapeMismatch):
        spectral_norm(np.ones(4))
    with pytest.raises(ValueError):
        spectral_norm(np.ones((2, 2)), iters=0)
