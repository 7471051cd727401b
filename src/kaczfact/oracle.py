"""Ground-truth solutions and convergence-rate constants.

Everything here is reference machinery: it computes the quantities the
randomized solvers are measured against (pseudo-inverse solutions,
singular values, per-step contraction factors).  It is deliberately
dense-SVD based and intended for desk-scale instances; the solvers
themselves never call into this module.

The full product U @ V of a factored system is formed in three places,
all outside the solvers, which only ever touch the factors:
``factored_full_solution`` here, for the error reference;
``systems.make_inconsistent_rhs``, to plant a residual orthogonal to
range(U V); and ``cli._cmd_solve``, which wraps the product in the
``solvers.SingleSystem`` that the baseline methods run on.

Each SVD-derived quantity is written once, as a function of an
``SvdFactors``: ``pinv_apply`` and ``rate_constants_of``.
``pinv_solve(A, y)`` takes ``svd(A)`` and applies it, a matrix's rate
constants are ``rate_constants_of(svd(A), A.frob_sq)``, and
``interlaced.bound_inputs`` gets both factors' constants and
both of its solves from one SVD of U and one of V.  So ``kaczfact
solve`` takes three SVDs on a pairing (U V for the error reference, then
U and V) and one on a baseline (the assembled matrix), ``kaczfact
bound`` two (U and V), and ``kaczfact gen`` one of U V for the
inconsistent scenarios (``systems.make_inconsistent_rhs``).  Every SVD
of ``solve`` and ``bound`` looks ``svd`` up on this module at call time
(``interlaced`` calls ``oracle.svd``), so a wrapper installed on
``kaczfact.oracle.svd`` sees each one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import DenseMatrix

__all__ = [
    "SvdFactors",
    "RateConstants",
    "svd",
    "pinv_apply",
    "rate_constants_of",
    "pinv_solve",
    "factored_full_solution",
]

# Singular values at or below DEFAULT_RANK_TOL * sigma_max are treated as zero.
DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD ``A = left @ diag(singular_values) @ right.T``.

    ``left`` is (m, p) and ``right`` is (n, p) with orthonormal columns,
    p = min(m, n); ``singular_values`` is descending.  ``rank`` counts
    the singular values above the relative threshold used at creation.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    rank: int


@dataclass(frozen=True)
class RateConstants:
    """Per-step contraction quantities of a matrix.

    alpha = 1 - sigma_min_sq / frob_sq is the expected one-step error
    contraction factor of norm-weighted row (or column) projections;
    kappa_sq = sigma_max_sq / sigma_min_sq is the squared condition
    number over the nonzero spectrum; theta = 1 / sigma_min_sq scales
    cross-terms when one solve feeds another.  sigma_min_sq is the
    smallest *nonzero* squared singular value.
    """

    alpha: float
    kappa_sq: float
    theta: float
    sigma_min_sq: float
    sigma_max_sq: float
    frob_sq: float


def svd(A: DenseMatrix) -> SvdFactors:
    """Thin SVD with the relative rank cutoff DEFAULT_RANK_TOL."""
    left, s, right_t = np.linalg.svd(A.data, full_matrices=False)
    sigma_max = float(s[0])
    if sigma_max == 0.0:
        raise ValueError("svd rank cutoff undefined for the zero matrix")
    rank = int(np.sum(s > DEFAULT_RANK_TOL * sigma_max))
    return SvdFactors(left=left, singular_values=s, right=right_t.T, rank=rank)


def pinv_apply(f: SvdFactors, y: np.ndarray) -> np.ndarray:
    """pinv(A) @ y from A's thin SVD f: the minimum-norm least-squares solution.

    This single expression realizes every notion of "optimal solution"
    the solvers target: the unique solution when A is square invertible,
    the least-squares solution when overdetermined, the least-norm
    solution when underdetermined, and the least-norm least-squares
    solution in the rank-deficient and inconsistent cases.
    """
    rows, cols = f.left.shape[0], f.right.shape[0]
    if y.shape != (rows,):
        raise ValueError(f"pseudo-inverse dimension mismatch: matrix is {rows}x{cols}, rhs has shape {y.shape}")
    r = f.rank
    coeff = (f.left[:, :r].T @ y) / f.singular_values[:r]
    return f.right[:, :r] @ coeff


def rate_constants_of(f: SvdFactors, frob_sq: float) -> RateConstants:
    """Contraction constants of A over its nonzero spectrum, from A's thin SVD f and A.frob_sq.

    Guarantees 0 <= alpha < 1: sigma_min_sq is positive by construction
    and never exceeds the squared Frobenius norm.
    """
    s = f.singular_values
    sigma_max_sq = float(s[0]) ** 2
    sigma_min_sq = float(s[f.rank - 1]) ** 2
    return RateConstants(
        alpha=1.0 - sigma_min_sq / frob_sq,
        kappa_sq=sigma_max_sq / sigma_min_sq,
        theta=1.0 / sigma_min_sq,
        sigma_min_sq=sigma_min_sq,
        sigma_max_sq=sigma_max_sq,
        frob_sq=frob_sq,
    )


def pinv_solve(A: DenseMatrix, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution pinv(A) @ y (``pinv_apply`` on ``svd(A)``)."""
    return pinv_apply(svd(A), y)


def factored_full_solution(U: DenseMatrix, V: DenseMatrix, y: np.ndarray) -> np.ndarray:
    """pinv(U @ V) @ y, materializing the product.

    Desk-scale only: forming U @ V defeats the entire point of the
    factored solvers, so this lives here for error measurement and
    never inside a solver loop.
    """
    if U.cols != V.rows:
        raise ValueError(f"factor dimension mismatch: U is {U.rows}x{U.cols}, V is {V.rows}x{V.cols}")
    X = DenseMatrix(U.data @ V.data)
    return pinv_solve(X, y)
