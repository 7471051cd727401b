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
state (one row per trial) with one (T,) index array per draw.  Every
update is one Kaczmarz projection, ``project``, on a row of A or of
``A.T`` (a column of A); rgs moves beta_j by the coefficient its
residual projection takes off column j.  The lock-step engine
(``_engine``, run through ``bench.run_experiment``) is the package's
only driver.  The sequential reference the tests hold it to,
``tests/reference.py``, runs the same kernel at T = 1 on (1, dim) views
of its state, so the two perform the same floating-point operations.

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
from numpy.linalg._umath_linalg import solve1 as _solve1  # np.linalg.solve's dgesv gufunc

from .dense import DenseMatrix, _as_float_vector
from .sampling import row_sampler

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


# Indices each step draws, in draw order: a row of A, or a column (a row of A.T).
DRAWS = {"rk": ("row",), "rek": ("row", "col"), "rgs": ("col",), "regs": ("row", "col")}


def step_cost(method: str, A: DenseMatrix) -> int:
    """Flops of one ``method`` step on A: 4 A.cols + 2 per row draw, 4 A.rows + 2 per column draw."""
    return sum(4 * (A if d == "row" else A.T).cols + 2 for d in DRAWS[method])


def samplers(method: str, A: DenseMatrix) -> tuple:
    """The samplers of one ``method`` step on A, one per uniform, in draw order."""
    return tuple(row_sampler(A if d == "row" else A.T) for d in DRAWS[method])


# --- the per-step kernel ----------------------------------------------------
# One update per method, for T trials at once: state arrays are (T, dim),
# one row per trial.  ar selects the trials' rows and each draw holds one
# index per trial.  The lock-step engine passes arange(T) and (T,) index
# arrays; a sequential caller passes (1, dim) views of its state, ar = 0
# and one-element index arrays.  Either way each trial performs the same
# floating-point operations.  The kernel gathers the drawn rows of A or
# A.T with ``take``, so ``project`` gets a copy and scales it in place:
# ``rows *= c[:, None]; v -= rows`` forms the same products and
# differences as ``v -= c[:, None] * rows`` without a temporary.


def project(v: np.ndarray, rows: np.ndarray, sqnorms: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """Kaczmarz projection of each v[t] onto {w : rows[t] @ w = rhs[t]}, with rhs = 0 when None.

    Returns c[t] = (rows[t] @ v[t] - rhs[t]) / sqnorms[t], the multiple
    of rows[t] taken off v[t].  Overwrites rows.
    """
    dots = np.einsum("ij,ij->i", rows, v)
    c = (dots if rhs is None else dots - rhs) / sqnorms
    rows *= c[:, None]
    v -= rows
    return c


def step_kernel(method: str, A: DenseMatrix, rhs: np.ndarray, beta, z, residual, ar, draws):
    """One ``method`` step on (A, rhs) for every trial.

    rhs is shared (m,) data or per-trial (T, m) rows; beta, z and
    residual are the method's (T, dim) state (None where it keeps
    none); ar and draws (in draw order) are as described above.
    Returns the coordinate move of rgs and regs, which is along their
    column draw, and None for rk and rek.
    """
    if method in ("rgs", "regs"):
        j, t = draws[-1], A.T
        gamma = project(residual, t.data.take(j, axis=0), t.row_sqnorms.take(j))
        beta[ar, j] += gamma
        if method == "regs":
            # w = z + (beta_t - beta_{t-1}) differs from z only in coordinate j.
            z[ar, j] += gamma
            i = draws[0]
            project(z, A.data.take(i, axis=0), A.row_sqnorms.take(i))
        return gamma
    i = draws[0]
    target = rhs.take(i) if rhs.ndim == 1 else rhs[ar, i]
    if method == "rek":
        j, t = draws[1], A.T
        project(z, t.data.take(j, axis=0), t.row_sqnorms.take(j))
        target -= z[ar, i]
    project(beta, A.data.take(i, axis=0), A.row_sqnorms.take(i), target)
    return None


# --- the block kernel -------------------------------------------------------
# B consecutive steps of one method at once, block-exact (s-step stepping,
# Devarakonda et al., arXiv:1612.04003): the B projections of a side are
# one lower-triangular system.  A column of A is a row of A.T, so one block
# projection serves both sides: projecting v onto rows I of A or of A.T
# against right-hand sides r solves
#
#     tril(A_I A_I^T) c = A_I v_0 - r,    v_B = v_0 - A_I^T c.
#
# What step r changes and a later step s reads enters through an inclusive
# lower-triangular cross matrix (cross_sum): rek's z[i_s] and the regs
# correction's coordinate patches, both from A[I][:, J].  A side costs one
# gather, one (B, B) Gram matrix and one (B, B) solve instead of B rounds
# of per-step numpy calls, and agrees with them to rounding.  The (B, B)
# solve calls dgesv through numpy's LAPACK gufunc, skipping
# np.linalg.solve's wrapper, which costs more than dgesv at these sizes.
# The wrapper only promotes types (the arrays are float64 already) and
# turns a singular matrix into an error under errstate; the triangle is
# never singular, as its diagonal holds squared norms of drawn rows and
# NormSampler never draws a zero weight.  When M (A or A.T) has at most
# twice as many rows as columns, the Gram matrix is gathered from M M^T,
# built on the first block that needs it and memoized per M, as the
# samplers are; the table is then no larger than A and A.T together.  A
# longer side computes rows @ rows.T of the gathered rows.  The state is
# one trial's (dim,) arrays; draw entry s is step s's index.  A block
# returns its step coefficients, from which ``rewind`` recovers the
# iterate at any step inside it.

# Longest block.  _LOWERS[b] is the contiguous b x b lower-triangular mask.
MAX_BLOCK = 32
_LOWERS = [np.tril(np.ones((b, b))) for b in range(MAX_BLOCK + 1)]

# Memoized Gram tables M M^T; the weak keys keep a table from outliving M.
_grams: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cross_sum(mat: np.ndarray, at: np.ndarray, by: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Entry s: sum over r <= s of mat[at[s], by[r]] * coef[r], for (B,) at, by, coef."""
    cross = mat.take(at, 0).take(by, 1)
    cross *= _LOWERS[at.size]
    return cross @ coef


def _gram(M: DenseMatrix, rows: np.ndarray, idx) -> np.ndarray:
    """The (B, B) Gram matrix of rows = M.data[idx].

    Gathered from M's memoized M M^T when M has at most twice as many
    rows as columns, so that the table is no larger than M and M.T
    together; else computed from rows.
    """
    data = M.data
    if data.shape[0] > 2 * data.shape[1]:
        return rows @ rows.T
    table = _grams.get(M)
    if table is None:
        table = data @ data.T
        table.setflags(write=False)
        _grams[M] = table
    return table.take(idx, 0).take(idx, 1)


def _solve_lower(gram: np.ndarray, rhs: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Solve tril(gram) c = rhs, with the cached squared norms on the diagonal.  Overwrites gram."""
    b = gram.shape[0]
    gram *= _LOWERS[b]
    gram.flat[:: b + 1] = diag
    return _solve1(gram, rhs, signature="dd->d")


def _project_block(M: DenseMatrix, v: np.ndarray, idx: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """Projections of v onto rows idx[0], idx[1], ... of M against rhs[s] (0 when None): B ``project`` calls.

    Returns the (B,) step coefficients c.
    """
    rows = M.data.take(idx, 0)
    dots = rows @ v
    c = _solve_lower(_gram(M, rows, idx), dots if rhs is None else dots - rhs, M.row_sqnorms.take(idx))
    v -= c @ rows
    return c


def block_kernel(method: str, A: DenseMatrix, rhs: np.ndarray, beta, z, residual, draws, drift=None):
    """B ``method`` steps on (A, rhs) for one trial: the block-exact form of B ``step_kernel`` calls.

    rhs is (m,) and beta, z and residual are the trial's (dim,) state
    (None where the method keeps none); draws are (B,) index arrays in
    draw order.  drift[s] is how far step s's right-hand side has dropped
    since the block began (None for a fixed one): rk and rek subtract it
    from rhs at the row draw; for rgs and regs, whose residual's inner
    product with the drawn column has grown by it, -drift[s] is the rhs
    of the residual's projection.  Returns the (B,) step coefficients:
    the row projections' c for rk and rek, the coordinate moves of rgs
    and regs, and for regs also the (B,) c of z's row projections.
    """
    if method in ("rgs", "regs"):
        j = draws[-1]
        gamma = _project_block(A.T, residual, j, None if drift is None else -drift)
        np.add.at(beta, j, gamma)
        if method == "regs":
            # Row step s projects z + sum_{r<=s} gamma_r e_{j_r}: the patches enter its rhs.
            c = _project_block(A, z, draws[0], -cross_sum(A.data, draws[0], j, gamma))
            np.add.at(z, j, gamma)
            return gamma, c
        return gamma
    i = draws[0]
    target = rhs.take(i)
    if drift is not None:
        target -= drift
    if method == "rek":
        # Row step s reads z[i_s] after the column projections r <= s.
        z_rows = z.take(i)
        z_rows -= cross_sum(A.data, i, draws[1], _project_block(A.T, z, draws[1]))
        target -= z_rows
    return _project_block(A, beta, i, target)


def rewind(method: str, A: DenseMatrix, v: np.ndarray, draws, coef: np.ndarray, s: int) -> np.ndarray:
    """(1, dim) v s steps into a block of ``method`` on A that ended at v and returned coef: steps s.. undone."""
    if method in ("rgs", "regs"):  # coordinate step r added coef[r] at j_r
        return v - np.bincount(draws[-1][s:], coef[s:], v.shape[1])
    return v + coef[s:] @ A.data.take(draws[0][s:], 0)  # row step r took coef[r] A[i_r] off v


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


@dataclass(frozen=True, eq=False)
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

    def snapshot(self, method: str, state: SolverState, draws, coef, s: int) -> SolverState:
        """The beta (and regs z) s steps into a T = 1 block that ended at ``state`` and returned coef."""
        if method != "regs":
            return SolverState(rewind(method, self.A, state.beta, draws, coef, s))
        gamma, c = coef
        z = rewind("rk", self.A, rewind("rgs", self.A, state.z, draws, gamma, s), draws, c, s)
        return SolverState(rewind("rgs", self.A, state.beta, draws, gamma, s), z)

    def residuals(self, method: str, state: SolverState) -> tuple:
        """A estimate - y, one row per trial of (T, dim) state."""
        return (estimate(method, state) @ self.A.data.T - self.y,)


def default_stride(budget: int) -> int:
    """Record every budget / 500 steps (at least every step) when no stride is given."""
    return max(1, budget // 500)
