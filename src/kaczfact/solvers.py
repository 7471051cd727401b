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

Both kernels are bound to a run's state when it starts, with the
method's branches and A's data resolved, and then take draws alone; a
target's ``bind`` binds the rest of a run the same way (``Binding``).

Step costs follow a fixed flop model so trajectories-vs-flops are
bit-reproducible.  Each draw is one action: a row draw acts on a
length-n row and costs 4n + 2 (one dot, one scalar divide and subtract,
one scaled add), a column draw acts on a length-m column and costs
4m + 2, and a step costs the sum over its draws.
"""
from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.linalg._umath_linalg import solve1 as _solve1  # np.linalg.solve's dgesv gufunc

from .dense import DenseMatrix, _as_float_vector, _require_matrix
from .sampling import row_sampler

try:  # the kernel np.einsum calls when optimize is off, called without its __array_function__ dispatch (about 1 us)
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # numpy 1.x
    _einsum = np.einsum

__all__ = ["METHODS", "SingleSystem", "SolverState", "Binding", "init_state", "estimate"]

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
# index per trial.  The lock-step engine binds arange(T) and steps with
# (T,) index arrays; a sequential caller binds (1, dim) views of its
# state and ar = 0 and steps with one-element index arrays.  Either way
# each trial performs the same floating-point operations.  The kernel
# gathers the drawn rows of A or A.T with ``take``, so ``project`` gets a
# copy and scales it in place: ``rows *= c[:, None]; v -= rows`` forms the
# same products and differences as ``v -= c[:, None] * rows`` without a
# temporary.


def project(v: np.ndarray, rows: np.ndarray, sqnorms: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """Kaczmarz projection of each v[t] onto {w : rows[t] @ w = rhs[t]}, with rhs = 0 when None.

    Returns c[t] = (rows[t] @ v[t] - rhs[t]) / sqnorms[t], the multiple
    of rows[t] taken off v[t].  Overwrites rows.
    """
    dots = _einsum("ij,ij->i", rows, v)
    c = (dots if rhs is None else dots - rhs) / sqnorms
    rows *= c[:, None]
    v -= rows
    return c


def step_kernel(method: str, A: DenseMatrix, rhs: np.ndarray, beta, z, residual, ar):
    """``method``'s step on (A, rhs) for every trial, bound to its state: returns step(draws).

    rhs is shared (m,) data or per-trial (T, m) rows; beta, z and
    residual are the method's (T, dim) state (None where it keeps
    none); ar and the draws (in draw order) are as described above.
    step returns the coordinate move of rgs and regs, which is along
    their column draw, and None for rk and rek.
    """
    data, sqnorms, t = A.data, A.row_sqnorms, A.T
    cols, col_sqnorms = t.data, t.row_sqnorms
    if method in ("rgs", "regs"):
        regs = method == "regs"

        def step(draws):
            j = draws[-1]
            gamma = project(residual, cols.take(j, axis=0), col_sqnorms.take(j))
            beta[ar, j] += gamma
            if regs:
                # w = z + (beta_t - beta_{t-1}) differs from z only in coordinate j.
                z[ar, j] += gamma
                i = draws[0]
                project(z, data.take(i, axis=0), sqnorms.take(i))
            return gamma

        return step
    shared, rek = rhs.ndim == 1, method == "rek"

    def step(draws):
        i = draws[0]
        target = rhs.take(i) if shared else rhs[ar, i]
        if rek:
            j = draws[1]
            project(z, cols.take(j, axis=0), col_sqnorms.take(j))
            target -= z[ar, i]
        project(beta, data.take(i, axis=0), sqnorms.take(i), target)

    return step


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
# correction's coordinate patches, both from A[I][:, J].  A block gathers
# each draw's rows once (``gatherer``), and everything in it reads only
# them and the Gram tables: the projections, the cross sums, which take
# their B^2 entries from rows the block gathered (A[I] here, U[I] or V.T[Q]
# for a pairing's drift), and the rewinds, which undo row steps with the
# rows the block returned beside their coefficients.  A side costs one
# gather, one (B, B) Gram matrix and one (B, B) solve instead of B rounds
# of per-step numpy calls, and agrees with them to rounding.
# Each thread owns the window's workspace: one flat MAX_BLOCK^2 buffer and
# one MAX_BLOCK vector.  A projection gathers its Gram matrix straight into
# a contiguous B x B view of the buffer's head (lda = B), the drawn squared
# norms onto its diagonal and rows @ v - rhs into the vector, and solves
# there in place; a cross sum gathers its B x B cross matrix into the same
# view.  Nothing a block returns is a view of the workspace.  These gathers
# are unchecked (mode="clip"; a checked take into out= buffers its output
# and measured about twice as slow), which is safe because each takes only
# at draws that a checked take in the same block has read: a row gather,
# or a table's first take (draws are never negative, where the two modes
# would disagree).  Gathering the B^2 entries flat, in one take, stays
# slower than two row takes at the presets' table sizes.
# The triangle goes to CBLAS dtrsv, a forward substitution, in the BLAS
# that numpy links to, called through ctypes on the B x B view, with its
# arguments bound once per B.  ctypes releases the GIL during the call,
# hence a workspace per thread; a block kernel binds the workspace of the
# thread that binds it, and runs in that thread.  A numpy build that
# exports no CBLAS dtrsv falls back to LAPACK dgesv through numpy's gufunc
# (the call np.linalg.solve makes, without its wrapper) on the masked
# triangle; the two paths differ at rounding, and BLOCK_SOLVER names the
# one this build runs.  Neither needs a singular-matrix guard: the
# diagonal holds squared norms of drawn rows, and NormSampler never draws
# a zero weight.  When M (A or A.T) is tabled (at most twice as many rows
# as columns), the Gram matrix is gathered from M M^T, built when the
# first block kernel on M is bound and held, read-only, in M's memo beside
# its sampler; the table is then no larger than A and A.T together.
# einsum builds it, as a threaded gemm's bits would depend on the BLAS
# thread count, and M's squared norms replace its diagonal, so that the
# gathered diagonal is the drawn squared norms with no take of its own
# (an entry (s, r) of two draws of one row reads that row's squared norm
# too, within rounding of its dot).  A longer side computes rows @ rows.T
# of the gathered rows and takes the drawn squared norms onto its
# diagonal.  Coordinate moves (rgs, regs, and the rgs-rgs res_v patch) add
# one bincount of the block's moves, which sums a coordinate drawn twice
# before it is added.  The state is one trial's (dim,) arrays; draw entry s
# is step s's index.  A block returns its step coefficients, from which a
# rewinder (``rewinder``) recovers the iterate at any of its steps, its end
# included, where nothing moves: row steps by one suffix-masked (R, B) @
# (B, dim) product, whose mask's last row, for the end, is zeros,
# coordinate steps by one bincount scatter into (R, dim), and one step by
# the suffix alone.

# The T = 1 window, and the longest block.
MAX_BLOCK = 64


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def _mask(b: int, triangle) -> np.ndarray:
    """The contiguous (b, b) mask of ones that ``triangle`` (np.tril or np.triu) keeps, built on first use.  A
    strided slice of a larger mask multiplies about 2.5 times slower."""
    return _read_only(triangle(np.ones((b, b))))


def gatherer(method: str, A: DenseMatrix):
    """gather(draws): the rows a block of ``method`` on A acts on, one (B, len) array per draw (``DRAWS``):
    A.data[draws[d]] for a row draw, A.T.data[draws[d]] for a column draw."""
    sides = [(A if d == "row" else A.T).data for d in DRAWS[method]]
    if len(sides) == 1:
        (first,) = sides
        return lambda draws: (first.take(draws[0], 0),)
    first, second = sides
    return lambda draws: (first.take(draws[0], 0), second.take(draws[1], 0))


def cross_summer():
    """cross_sum(at, by, coef, at_rows=None, by_rows=None) on the calling thread's triangle buffer.

    Entry s of cross_sum is the sum over r <= s of M[at[s], by[r]] *
    coef[r], for (B,) at, by, coef and a matrix M.  It reads B^2 entries
    of the rows the caller's block gathered, given as at_rows = M[at]
    or, when None, by_rows = M.T[by].  The entries go to the triangle
    buffer, unchecked: the block has already gathered rows by the
    indices they are read by.
    """
    buffers = _buffers.by_size

    def cross_sum(at, by, coef, at_rows=None, by_rows=None):
        b = at.size
        mat = buffers[b][0]
        if at_rows is not None:
            cross = at_rows.take(by, 1, out=mat, mode="clip")  # cross[s, r]
            cross *= _mask(b, np.tril)
            return cross @ coef
        # C-ordered, so an upper mask: a product with the lower mask's F-ordered transpose takes about twice as long.
        cross = by_rows.take(at, 1, out=mat, mode="clip")  # cross[r, s]
        cross *= _mask(b, np.triu)
        return coef @ cross

    return cross_sum


def _find_dtrsv():
    """(numpy's CBLAS dtrsv, its integer type), or None when this numpy build exports none."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        ilp64 = _umath_linalg._ilp64
    except (AttributeError, OSError):  # an older numpy lacks these names
        return None
    blasint = ctypes.c_int64 if ilp64 else ctypes.c_int
    suffix = "64_" if ilp64 else ""
    for prefix in ("scipy_", ""):
        fn = getattr(lib, f"{prefix}cblas_dtrsv{suffix}", None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int] * 4 + [blasint, ctypes.c_void_p, blasint, ctypes.c_void_p, blasint]
            fn.restype = None
            return fn, blasint
    return None


_DTRSV = _find_dtrsv()
BLOCK_SOLVER = "dgesv" if _DTRSV is None else "cblas_dtrsv"
# CBLAS enums: row-major, lower triangle, no transpose, non-unit diagonal.
_DTRSV_FLAGS = tuple(ctypes.c_int(v) for v in (101, 122, 111, 131))


class _Buffers(threading.local):
    """Per thread, the T = 1 window's workspace: one flat MAX_BLOCK^2 matrix buffer and one (MAX_BLOCK,) vector,
    and for each B the contiguous B x B matrix on the buffer's head, its diagonal, the B-vector, and dtrsv bound
    to them with lda = B (None where this numpy build exports no dtrsv)."""

    def __init__(self):
        flat, vec = np.zeros(MAX_BLOCK * MAX_BLOCK), np.zeros(MAX_BLOCK)
        if _DTRSV is not None:
            fn, blasint = _DTRSV
            mat, x = ctypes.c_void_p(flat.ctypes.data), ctypes.c_void_p(vec.ctypes.data)
        self.by_size = [None] + [
            (
                flat[: b * b].reshape(b, b),
                flat[: b * b : b + 1],
                vec[:b],
                None if _DTRSV is None else functools.partial(fn, *_DTRSV_FLAGS, blasint(b), mat, blasint(b), x, blasint(1)),
            )
            for b in range(1, MAX_BLOCK + 1)
        ]


_buffers = _Buffers()


def _solve_lower_dtrsv(buffer) -> np.ndarray:
    """Solve tril(mat) c = vec in one (mat, diag, vec, dtrsv) entry of a thread's buffers by CBLAS dtrsv, in
    place; returns a copy of c."""
    _, _, vec, call = buffer
    call()
    return vec.copy()


def _solve_lower_dgesv(buffer) -> np.ndarray:
    """Solve tril(mat) c = vec in one (mat, diag, vec, dtrsv) entry of a thread's buffers by LAPACK dgesv.
    Overwrites mat's upper triangle."""
    mat, _, vec, _ = buffer
    mat *= _mask(vec.size, np.tril)
    return _solve1(mat, vec, signature="dd->d")


_solve_lower = _solve_lower_dgesv if _DTRSV is None else _solve_lower_dtrsv


def _gram_table(M: DenseMatrix) -> np.ndarray:
    """M M^T by einsum, read-only, with M's squared norms on its diagonal."""
    table = np.einsum("ik,jk->ij", M.data, M.data)
    np.fill_diagonal(table, M.row_sqnorms)
    return _read_only(table)


def _projector(M: DenseMatrix):
    """project_block(v, idx, rhs, rows): the projections of v onto rows idx[0], idx[1], ... of M against rhs[s]
    (0 when None), B ``project`` calls at once, with M's squared norms, its Gram source and the calling thread's
    triangle buffers bound.

    rows is M.data[idx] as the block gathered it.  The Gram matrix, with
    the squared norms on its diagonal, and rows @ v - rhs go straight to
    the triangle buffers.  project_block returns the (B,) step coefficients c.
    """
    sqnorms, buffers, solve = M.row_sqnorms, _buffers.by_size, _solve_lower
    table = None if M.rows > 2 * M.cols else M.memo("gram", lambda: _gram_table(M))

    def project_block(v, idx, rhs, rows):
        buffer = buffers[idx.size]
        mat, diag, vec, _ = buffer
        if table is None:
            np.matmul(rows, rows.T, out=mat)
            sqnorms.take(idx, out=diag, mode="clip")
        else:
            table.take(idx, 0).take(idx, 1, out=mat, mode="clip")
        np.matmul(rows, v, out=vec)
        if rhs is not None:
            vec -= rhs
        c = solve(buffer)
        v -= c @ rows
        return c

    return project_block


def block_kernel(method: str, A: DenseMatrix, rhs: np.ndarray | None, beta, z, residual):
    """``method``'s block on (A, rhs) for one trial, bound to its state: returns block(draws, rows=None,
    drift=None, rhs=None), the block-exact form of B ``step_kernel`` steps.

    rhs is (m,) and beta, z and residual are the trial's (dim,) state
    (None where the method keeps none); draws are (B,) index arrays in
    draw order, and rows their ``gatherer`` rows (gathered by the block
    when None).  drift[s] is how far step s's right-hand side has dropped
    since the block began (None for a fixed one): rk and rek subtract it
    from rhs at the row draw; for rgs and regs, whose residual's inner
    product with the drawn column has grown by it, -drift[s] is the rhs
    of the residual's projection.  A block's own rhs, the (B,) right-hand
    sides at its row draws, replaces the bound one's, and the block
    overwrites it.  block returns what ``rewinder`` undoes the steps with: (c,
    A.data[i]), the row projections' (B,) coefficients and rows, for rk
    and rek; the (B,) coordinate moves of rgs; and for regs the
    coordinate moves and (c, A.data[i]) of z's row projections.
    """
    gather = gatherer(method, A)
    draws_rows, draws_cols = "row" in DRAWS[method], "col" in DRAWS[method]
    project_rows = _projector(A) if draws_rows else None
    project_cols = _projector(A.T) if draws_cols else None
    cross_sum = cross_summer() if draws_rows and draws_cols else None
    if method in ("rgs", "regs"):
        regs = method == "regs"

        def block(draws, rows=None, drift=None, rhs=None):
            if rows is None:
                rows = gather(draws)
            j = draws[-1]
            gamma = project_cols(residual, j, None if drift is None else -drift, rows[-1])
            moves = np.bincount(j, gamma, beta.size)
            np.add(beta, moves, out=beta)
            if regs:
                # Row step s projects z + sum_{r<=s} gamma_r e_{j_r}: the patches enter its rhs.
                i = draws[0]
                c = project_rows(z, i, -cross_sum(i, j, gamma, at_rows=rows[0]), rows[0])
                np.add(z, moves, out=z)
                return gamma, (c, rows[0])
            return gamma

        return block
    rek, bound_rhs = method == "rek", rhs

    def block(draws, rows=None, drift=None, rhs=None):
        if rows is None:
            rows = gather(draws)
        i = draws[0]
        target = bound_rhs.take(i) if rhs is None else rhs
        if drift is not None:
            target -= drift
        if rek:
            # Row step s reads z[i_s] after the column projections r <= s.
            z_rows = z.take(i)
            z_rows -= cross_sum(i, draws[1], project_cols(z, draws[1], None, rows[1]), at_rows=rows[0])
            target -= z_rows
        return project_rows(beta, i, target, rows[0]), rows[0]

    return block


@functools.cache
def _suffixes(b: int) -> np.ndarray:
    """The (b + 1, b) mask whose row s keeps the steps r >= s of a b-step block: row b, the block's end, keeps
    none."""
    return _read_only(np.triu(np.ones((b + 1, b))))


def _row_moves(coef, steps) -> np.ndarray:
    """For each s in steps, sum_{r >= s} c[r] rows[r] of a block's row steps coef = (c, rows), zero at the block's
    end: the (dim,) suffix product for one step, else one suffix-masked (R, B) @ (B, dim) product."""
    c, rows = coef
    if len(steps) == 1:
        s = steps[0]
        return c[s:] @ rows[s:]
    return (_suffixes(c.size).take(steps, 0) * c) @ rows


def _rewind_rows(v: np.ndarray, draws, coef, steps) -> np.ndarray:
    """(1, dim) v at each of steps into a block of row steps that ended at v: row step r took c[r] rows[r] off v."""
    return v + _row_moves(coef, steps)


def _rewind_coords(v: np.ndarray, draws, coef, steps) -> np.ndarray:
    """(1, dim) v at each of steps into a block of coordinate steps that ended at v: step r added coef[r] at
    draws[r].  Several steps scatter their masked moves into (R, dim) with one bincount."""
    n = v.shape[1]
    if len(steps) == 1:
        s = steps[0]
        return v - np.bincount(draws[s:], coef[s:], n)
    count = len(steps)
    weights = _suffixes(coef.size).take(steps, 0)
    weights *= coef
    at = draws + np.arange(0, count * n, n)[:, None]
    return v - np.bincount(at.ravel(), weights.ravel(), count * n).reshape(count, n)


def rewinder(method: str):
    """rewind(v, draws, coef, steps): the (1, dim) iterate v at each of steps (ascending, in [1, B]) into a block
    of ``method`` that ended at v and returned coef, as (R, dim) rows; step B, the block's end, moves nothing.
    draws are the block's (B,) column draws (read by rgs only)."""
    return _rewind_coords if method in ("rgs", "regs") else _rewind_rows


# --- state and binding ------------------------------------------------------


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


def tiled(state, trials: int):
    """``state`` (a SolverState or an InterlacedState) with each vector repeated as ``trials`` rows."""
    return type(state)(*(None if v is None else np.tile(v, (trials, 1)) for v in vars(state).values()))


class Binding(NamedTuple):
    """One run of one method on one target, bound when it starts (``SingleSystem.bind``, ``FactoredSystem.bind``).

    state holds the T trials' (T, dim) arrays.  advance(draws) runs a
    window of B steps and returns its step coefficients: at T = 1 the
    block kernel on the (dim,) rows of the state, with one (B,) index
    array per draw, and at T >= 2 one step (B = 1) of the per-step
    kernel, with one (T,) index array per draw.  The other two read the
    state at offsets s in [1, B] into the window that just ran, given its
    draws and coefficients: estimate_at(draws, coef, steps) gives the
    estimates at each of steps (ascending) as rows, (R, n) at T = 1 and
    (T, n) at T >= 2, and residuals_at(draws, coef, s) yields the (T,
    rows) residual parts at s in order (A estimate - y, or U x - y and
    then V b - x), each computed only when asked for.  Offset B is the
    window's end and moves nothing; at T >= 2 it is the only offset, and
    both read the live state.
    """

    state: object
    advance: Callable
    estimate_at: Callable
    residuals_at: Callable


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
        _require_matrix(self.A, "A")
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

    def bind(self, method: str, trials: int) -> Binding:
        """A run of ``trials`` lock-step ``method`` trials from the method's initial state, bound (``Binding``).

        At T = 1 estimate_at rewinds the estimate alone: beta, or regs's beta - z less z's row moves, as the
        coordinate moves, which beta and z share, cancel.  The residual is A estimate - y.
        """
        A, y = self.A, self.y
        state = tiled(init_state(method, A, y), trials)
        vectors = (state.beta, state.z, state.residual)
        beta, z, data_t = state.beta, state.z, A.data.T
        if trials > 1:
            advance = step_kernel(method, A, y, *vectors, np.arange(trials))
            estimate_at = lambda draws, coef, steps: estimate(method, state)
        else:
            advance = block_kernel(method, A, y, *(None if v is None else v[0] for v in vectors))
            if method == "regs":
                estimate_at = lambda draws, coef, steps: (beta - z) - _row_moves(coef[1], steps)
            else:
                rewind = rewinder(method)
                estimate_at = lambda draws, coef, steps: rewind(beta, draws[-1], coef, steps)

        def residuals_at(draws, coef, s):
            yield estimate_at(draws, coef, (s,)) @ data_t - y

        return Binding(state, advance, estimate_at, residuals_at)


def default_stride(budget: int) -> int:
    """Record every budget / 500 steps (at least every step) when no stride is given."""
    return max(1, budget // 500)
