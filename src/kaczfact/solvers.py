"""Randomized row- and column-action solvers for a single system A @ beta = y.

Four methods, all sampling indices proportionally to squared norms:

rk    randomized Kaczmarz.  Draw row i, project the iterate onto the
      hyperplane of equation i:
          beta <- beta + (y_i - A^i beta) / ||A^i||^2 * (A^i)*
      Converges to the unique / least-norm solution of consistent
      systems; stalls at a residual-dependent horizon on inconsistent
      ones.

rek   randomized extended Kaczmarz.  Keeps a residual estimate z
      (z starts at y) and interlaces a column projection with a row
      update against the de-noised right-hand side:
          z    <- z - <A_(j), z> / ||A_(j)||^2 * A_(j)
          beta <- beta + (y_i - z_i - A^i beta) / ||A^i||^2 * (A^i)*
      z converges to the component of y outside range(A), so beta
      converges to the least-squares solution even when the system is
      inconsistent.  Row and column indices are drawn independently,
      row first; the row update reads the just-updated z.

rgs   randomized Gauss-Seidel (coordinate descent on the normal
      equations).  Draw column j and minimize the residual along e_j:
          gamma = A_(j)* res / ||A_(j)||^2,  beta_j += gamma
      The residual res = y - A beta is maintained incrementally
      (res -= gamma * A_(j)); no step performs a full matvec.
      Converges to the least-squares solution of overdetermined
      systems but not to the least-norm solution of underdetermined
      ones.

regs  randomized extended Gauss-Seidel.  The rgs coordinate update
      plus a correction vector z updated by projecting out the drawn
      row:
          w = z + (beta_t - beta_{t-1});  z <- w - A^i w / ||A^i||^2 * (A^i)*
      The reported estimate is beta - z, which converges to the
      least-norm (least-squares) solution in all regimes.  Indices are
      drawn as in rek: row first, then column, independently.

Each step consumes a fixed number of uniforms from the caller's
generator (rk: 1 row draw; rgs: 1 column draw; rek and regs: row then
column), which is what makes trial streams reproducible.

Each method's update is written once, in ``step_kernel``, on (T, dim)
state (one row per trial) with one (T,) index array per draw.  The
lock-step engine (``_engine``, run through ``bench.run_experiment``) is
the package's only driver.  The sequential reference the tests hold it
to, ``tests/reference.py``, runs the same kernel at T = 1 on (1, dim)
views of its state, so the two perform the same floating-point
operations.

``block_kernel`` takes B consecutive steps of the same method on one
trial at once, block-exact; see the block section below.

Step costs follow a fixed flop model so trajectories-vs-flops are
bit-reproducible.  Each draw is one action: a row draw acts on a
length-n row and costs 4n + 2 (one dot, one scalar divide and subtract,
one scaled add), a column draw acts on a length-m column and costs
4m + 2, and a step costs the sum over its draws.
"""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .dense import DenseMatrix, _as_float_vector
from .sampling import col_sampler, row_sampler

__all__ = ["METHODS", "SingleSystem", "SolverState", "init_state", "estimate"]

METHODS = ("rk", "rek", "rgs", "regs")


@dataclass
class SolverState:
    """Mutable per-run state.

    beta is the current iterate; z is the rek residual estimate (length
    m) or the regs correction (length n); residual is the incrementally
    maintained y - A beta of the Gauss-Seidel methods.
    """

    beta: np.ndarray
    z: np.ndarray | None = None
    residual: np.ndarray | None = None


# Indices each step draws, in draw order: a row or a column of A.
DRAWS = {"rk": ("row",), "rek": ("row", "col"), "rgs": ("col",), "regs": ("row", "col")}


def step_cost(method: str, A: DenseMatrix) -> int:
    """Flops of one ``method`` step on A: 4 A.cols + 2 per row draw, 4 A.rows + 2 per column draw."""
    return sum(4 * (A.cols if d == "row" else A.rows) + 2 for d in DRAWS[method])


def samplers(method: str, A: DenseMatrix) -> tuple:
    """The samplers of one ``method`` step on A, one per uniform, in draw order."""
    return tuple(row_sampler(A) if d == "row" else col_sampler(A) for d in DRAWS[method])


# --- the per-step kernel ----------------------------------------------------
# One update per method, for T trials at once: state arrays are (T, dim),
# one row per trial.  ar selects the trials' rows and each draw holds one
# index per trial.  The lock-step engine passes arange(T) and (T,) index
# arrays; a sequential caller passes (1, dim) views of its state, ar = 0
# and one-element index arrays.  Either way each trial performs the same
# floating-point operations.  The kernel gathers the drawn rows or
# columns with ``take``, so the apply_* helpers get a copy and scale it in
# place: ``rows *= coef[:, None]; beta += rows`` forms the same products
# and sums as ``beta += coef[:, None] * rows`` without a temporary.


def apply_row_step(beta: np.ndarray, rows: np.ndarray, rhs: np.ndarray, sqnorms: np.ndarray) -> np.ndarray:
    """Kaczmarz projection of each beta[t] onto {b : rows[t] @ b = rhs[t]}.  Overwrites rows."""
    coef = (rhs - np.einsum("ij,ij->i", rows, beta)) / sqnorms
    rows *= coef[:, None]
    beta += rows
    return coef


def apply_col_project(z: np.ndarray, cols: np.ndarray, sqnorms: np.ndarray) -> np.ndarray:
    """Remove from each z[t] its component along cols[t].  Overwrites cols."""
    coef = np.einsum("ij,ij->i", cols, z) / sqnorms
    cols *= coef[:, None]
    z -= cols
    return coef


def apply_coord_step(beta: np.ndarray, residual: np.ndarray, cols: np.ndarray, at, sqnorms: np.ndarray) -> np.ndarray:
    """One coordinate-descent step per trial, along beta[at], keeping residual in sync.  Overwrites cols."""
    gamma = np.einsum("ij,ij->i", cols, residual) / sqnorms
    beta[at] += gamma
    cols *= gamma[:, None]
    residual -= cols
    return gamma


def step_kernel(method: str, A: DenseMatrix, rhs: np.ndarray, beta, z, residual, ar, draws):
    """One ``method`` step on (A, rhs) for every trial.

    rhs is shared (m,) data or per-trial (T, m) rows; beta, z and
    residual are the method's (T, dim) state (None where it keeps
    none); ar and draws (in draw order) are as described above.
    Returns the coordinate move of rgs and regs, which is along their
    column draw, and None for rk and rek.
    """
    if method in ("rgs", "regs"):
        j = draws[-1]
        gamma = apply_coord_step(beta, residual, A.data_t.take(j, axis=0), (ar, j), A.col_sqnorms.take(j))
        if method == "regs":
            # w = z + (beta_t - beta_{t-1}) differs from z only in coordinate j.
            z[ar, j] += gamma
            apply_col_project(z, A.data.take(draws[0], axis=0), A.row_sqnorms.take(draws[0]))
        return gamma
    i = draws[0]
    target = rhs.take(i) if rhs.ndim == 1 else rhs[ar, i]
    if method == "rek":
        j = draws[1]
        apply_col_project(z, A.data_t.take(j, axis=0), A.col_sqnorms.take(j))
        target -= z[ar, i]
    apply_row_step(beta, A.data.take(i, axis=0), target, A.row_sqnorms.take(i))
    return None


# --- the block kernel -------------------------------------------------------
# B consecutive steps of one method at once, block-exact (s-step stepping,
# Devarakonda et al., arXiv:1612.04003): the B projections of a side are
# one lower-triangular system.  For row projections onto rows I against
# right-hand sides r,
#
#     tril(A_I A_I^T) c = r - A_I beta_0,    beta_B = beta_0 + A_I^T c,
#
# and column projections of z onto columns J solve tril(A_J^T A_J) d =
# A_J^T z_0 likewise.  What step r changes and a later step s reads enters
# through an inclusive lower-triangular cross matrix (cross_sum): rek's
# z[i_s] and the regs correction's coordinate patches, both from A[I][:, J].
# A side costs one gather, one (B, B) Gram matrix and one (B, B) solve
# instead of B rounds of per-step numpy calls, and agrees with them to
# rounding.  On a matrix's short side (its columns when cols <= rows, its
# rows when rows <= cols) the Gram matrix is gathered from a table of all
# pairwise inner products, A^T A or A A^T, built on the first block that
# needs it and memoized per matrix, as the samplers are; the table is never
# larger than A.  On the long side it is vecs @ vecs.T of the gathered
# vectors, whose length is the short dimension.  The state is one trial's
# (dim,) arrays; draw entry s is step s's index.

# Longest block: the cross matrices are cut from one cached triangle.
MAX_BLOCK = 32
_LOWER = np.tril(np.ones((MAX_BLOCK, MAX_BLOCK)))

# Memoized Gram tables, A A^T (rows) and A^T A (columns); the weak keys keep
# a table from outliving its matrix.
_row_grams: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_col_grams: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cross_sum(mat: np.ndarray, at: np.ndarray, by: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Entry s: sum over r <= s of mat[at[s], by[r]] * coef[r], for (B,) at, by, coef."""
    b = at.size
    cross = mat.take(at, 0).take(by, 1)
    cross *= _LOWER[:b, :b]
    return cross @ coef


def _gram(tables: weakref.WeakKeyDictionary, A: DenseMatrix, side: np.ndarray, vecs: np.ndarray, idx) -> np.ndarray:
    """The (B, B) Gram matrix of vecs = side[idx], where side is A.data or A.data_t.

    Gathered from A's memoized side @ side.T when side has no more rows
    than columns, else computed from vecs.
    """
    if side.shape[0] > side.shape[1]:
        return vecs @ vecs.T
    table = tables.get(A)
    if table is None:
        table = side @ side.T
        table.setflags(write=False)
        tables[A] = table
    return table.take(idx, 0).take(idx, 1)


def _solve_lower(gram: np.ndarray, rhs: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Solve tril(gram) c = rhs, with the cached squared norms on the diagonal.  Overwrites gram."""
    b = gram.shape[0]
    gram *= _LOWER[:b, :b]
    gram.flat[:: b + 1] = diag
    return np.linalg.solve(gram, rhs)


def _rows_block(A: DenseMatrix, beta: np.ndarray, idx: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row projections onto rows idx[0], idx[1], ... against rhs[s]; returns the (B,) step coefficients."""
    rows = A.data.take(idx, 0)
    coef = _solve_lower(_gram(_row_grams, A, A.data, rows, idx), rhs - rows @ beta, A.row_sqnorms.take(idx))
    beta += coef @ rows
    return coef


def _cols_block(A: DenseMatrix, z: np.ndarray, idx: np.ndarray, extra=None) -> np.ndarray:
    """Column projections of z onto columns idx[s], extra[s] (if given) joining step s's inner product.

    Returns the (B,) step coefficients.
    """
    cols = A.data_t.take(idx, 0)
    rhs = cols @ z
    if extra is not None:
        rhs += extra
    coef = _solve_lower(_gram(_col_grams, A, A.data_t, cols, idx), rhs, A.col_sqnorms.take(idx))
    z -= coef @ cols
    return coef


def block_kernel(method: str, A: DenseMatrix, rhs: np.ndarray, beta, z, residual, draws, drift=None):
    """B ``method`` steps on (A, rhs) for one trial: the block-exact form of B ``step_kernel`` calls.

    rhs is (m,) and beta, z and residual are the trial's (dim,) state
    (None where the method keeps none); draws are (B,) index arrays in
    draw order.  drift[s] is how far step s's right-hand side has moved
    since the block began, as that step reads it: at its row draw for
    rk and rek, in its column's inner product for rgs and regs (None for
    a fixed one).  Returns the (B,) step coefficients: the row steps' of
    rk and rek, the coordinate moves of rgs and regs.
    """
    if method in ("rgs", "regs"):
        j = draws[-1]
        gamma = _cols_block(A, residual, j, drift)
        np.add.at(beta, j, gamma)
        if method == "regs":
            # Row step s projects z + sum_{r<=s} gamma_r e_{j_r}: the patches enter its rhs.
            _rows_block(A, z, draws[0], -cross_sum(A.data, draws[0], j, gamma))
            np.add.at(z, j, gamma)
        return gamma
    i = draws[0]
    target = rhs.take(i)
    if drift is not None:
        target += drift
    if method == "rek":
        # Row step s reads z[i_s] after the column projections r <= s.
        z_rows = z.take(i)
        z_rows -= cross_sum(A.data, i, draws[1], _cols_block(A, z, draws[1]))
        target -= z_rows
    return _rows_block(A, beta, i, target)


# --- state ------------------------------------------------------------------


def init_state(method: str, A: DenseMatrix, y: np.ndarray) -> SolverState:
    """Zero iterate plus whatever auxiliary vectors the method maintains."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if y.shape != (A.rows,):
        raise ValueError(f"rhs shape {y.shape} does not match {A.rows}x{A.cols} matrix")
    beta = np.zeros(A.cols)
    if method == "rk":
        return SolverState(beta=beta)
    if method == "rek":
        return SolverState(beta=beta, z=y.copy())
    if method == "rgs":
        return SolverState(beta=beta, residual=y.copy())
    return SolverState(beta=beta, z=np.zeros(A.cols), residual=y.copy())


def estimate(method: str, state: SolverState) -> np.ndarray:
    """The solution estimate a run reports: beta, except beta - z for regs."""
    if method == "regs":
        return state.beta - state.z
    return state.beta


# --- the target -------------------------------------------------------------


@dataclass(frozen=True)
class SingleSystem:
    """A system A @ beta = y: the single-system methods' target, with FactoredSystem's run members.

    y is stored as a float64 vector; scenario is a free-form tag, "plain" unless A was assembled from tagged factors.
    """

    A: DenseMatrix
    y: np.ndarray
    scenario: str = "plain"

    methods = METHODS

    def __post_init__(self):
        object.__setattr__(self, "y", _as_float_vector(self.y, "rhs"))
        if self.y.shape != (self.A.rows,):
            raise ValueError(f"rhs shape {self.y.shape} does not match {self.A.rows}x{self.A.cols} matrix")

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def n(self) -> int:
        return self.A.cols

    def step_flops(self, method: str) -> int:
        return step_cost(method, self.A)

    def samplers(self, method: str) -> tuple:
        return samplers(method, self.A)

    def init(self, method: str) -> SolverState:
        return init_state(method, self.A, self.y)

    def kernels(self, method: str) -> tuple:
        """``step_kernel`` and ``block_kernel`` with the method and the data bound."""
        bound = (method, self.A, self.y)
        return functools.partial(step_kernel, *bound), functools.partial(block_kernel, *bound)

    estimate = staticmethod(estimate)

    def residuals(self, method: str, state: SolverState) -> tuple:
        """A estimate - y, one row per trial of (T, dim) state."""
        return (estimate(method, state) @ self.A.data.T - self.y,)


def default_stride(budget: int) -> int:
    """Record every budget / 500 steps (at least every step) when no stride is given."""
    return max(1, budget // 500)
