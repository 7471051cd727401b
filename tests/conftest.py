"""Shared fixtures and numerical helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from kaczfact.dense import DenseMatrix
from kaczfact.interlaced import FactoredSystem
from kaczfact.oracle import svd
from kaczfact.sampling import master_rng


def jacobi_eigvalsh(sym: np.ndarray, sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix via cyclic Jacobi rotations.

    Implemented from scratch (no ``numpy.linalg``) so tests can cross-check
    SVD-derived quantities against an independent route.  Intended for
    matrices up to roughly 12 x 12.
    """
    a = np.array(sym, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_eigvalsh expects a square matrix")
    if not np.allclose(a, a.T, atol=1e-12 * (1.0 + np.abs(a).max())):
        raise ValueError("jacobi_eigvalsh expects a symmetric matrix")
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    scale = np.abs(a).max()
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # Classic Jacobi rotation annihilating a[p, q].
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(a.diagonal())


def projector_rowspace(A: DenseMatrix):
    """Orthogonal projector onto the row space of A, as a callable.

    Returns ``P`` with ``P(v) == pinv(A) @ A @ v`` computed stably from
    the right singular vectors.
    """
    f = svd(A)
    basis = f.right[:, : f.rank]

    def project(v: np.ndarray) -> np.ndarray:
        if v.shape != (A.cols,):
            raise ValueError(f"projector dimension mismatch: expected shape ({A.cols},), got {v.shape}")
        return basis @ (basis.T @ v)

    return project


def random_dense(rows: int, cols: int, seed: int) -> DenseMatrix:
    rng = master_rng(seed)
    return DenseMatrix(rng.standard_normal((rows, cols)))


def consistent_system(rows: int, cols: int, seed: int):
    """Random matrix plus right-hand side lying exactly in its range."""
    rng = master_rng(seed)
    a = DenseMatrix(rng.standard_normal((rows, cols)))
    beta = rng.standard_normal(cols)
    return a, a.data @ beta, beta


def inconsistent_system(rows: int, cols: int, seed: int, ratio: float = 0.5):
    """Overdetermined system whose rhs has a component outside the range."""
    if rows <= cols:
        raise ValueError("inconsistent_system expects rows > cols")
    rng = master_rng(seed)
    a = DenseMatrix(rng.standard_normal((rows, cols)))
    beta = rng.standard_normal(cols)
    clean = a.data @ beta
    factors = svd(a)
    basis = factors.left[:, : factors.rank]
    w = rng.standard_normal(rows)
    resid = w - basis @ (basis.T @ w)
    resid *= ratio * np.linalg.norm(clean) / np.linalg.norm(resid)
    return a, clean + resid, resid


def small_factored(m: int, k: int, n: int, seed: int) -> tuple[FactoredSystem, np.ndarray]:
    """Consistent factored system with known generating coefficients."""
    rng = master_rng(seed)
    u = DenseMatrix(rng.standard_normal((m, k)))
    v = DenseMatrix(rng.standard_normal((k, n)))
    beta = rng.standard_normal(n)
    y = u.data @ (v.data @ beta)
    return FactoredSystem(u, v, y), beta


class FixedUniforms:
    """Generator stand-in yielding a scripted sequence of uniforms."""

    def __init__(self, values):
        self._values = list(values)
        self._pos = 0

    def random(self):
        if self._pos >= len(self._values):
            raise RuntimeError("FixedUniforms exhausted")
        value = self._values[self._pos]
        self._pos += 1
        return value


@pytest.fixture
def rng():
    return master_rng(1234)
