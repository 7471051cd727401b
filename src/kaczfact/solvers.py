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
lock-step engine runs it on its T trials; the per-step functions and
``run`` run it at T = 1 on (1, dim) views of their state, so the two
paths perform the same floating-point operations.

Step costs follow a fixed flop model so trajectories-vs-flops are
bit-reproducible: a row action on a length-n row costs 4n + 2 (one dot,
one scalar divide and subtract, one scaled add), a column action
likewise 4m + 2, and composite steps add their parts.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dense import DenseMatrix
from .sampling import col_sampler, row_sampler

__all__ = [
    "METHODS",
    "SolverState",
    "init_state",
    "estimate",
    "rk_step",
    "rek_step",
    "rgs_step",
    "regs_step",
    "run",
    "rk_step_flops",
    "rek_step_flops",
    "rgs_step_flops",
    "regs_step_flops",
]

METHODS = ("rk", "rek", "rgs", "regs")

DEFAULT_TOLERANCE = 1e-12


@dataclass
class SolverState:
    """Mutable per-run state.

    beta is the current iterate; z is the rek residual estimate (length
    m) or the regs correction (length n); residual is the incrementally
    maintained y - A beta of the Gauss-Seidel methods.  t counts steps,
    flops accumulates the declared step costs.
    """

    beta: np.ndarray
    z: np.ndarray | None = None
    residual: np.ndarray | None = None
    t: int = 0
    flops: int = 0


def rk_step_flops(n: int) -> int:
    return 4 * n + 2


def rek_step_flops(m: int, n: int) -> int:
    return (4 * n + 2) + (4 * m + 2)


def rgs_step_flops(m: int) -> int:
    return 4 * m + 2


def regs_step_flops(m: int, n: int) -> int:
    return (4 * m + 2) + (4 * n + 2)


def step_cost(method: str, A: DenseMatrix) -> int:
    """Flops of one ``method`` step on A under the flop model."""
    m, n = A.shape
    return {
        "rk": rk_step_flops(n),
        "rek": rek_step_flops(m, n),
        "rgs": rgs_step_flops(m),
        "regs": regs_step_flops(m, n),
    }[method]


# Indices each step draws, in draw order: a row or a column of A.
DRAWS = {"rk": ("row",), "rek": ("row", "col"), "rgs": ("col",), "regs": ("row", "col")}


def samplers(method: str, A: DenseMatrix) -> tuple:
    """The samplers of one ``method`` step on A, one per uniform, in draw order."""
    return tuple(row_sampler(A) if d == "row" else col_sampler(A) for d in DRAWS[method])


# --- the per-step kernel ----------------------------------------------------
# One update per method, for T trials at once: state arrays are (T, dim),
# one row per trial.  ar selects the trials' rows and each draw holds one
# index per trial.  The lock-step engine passes arange(T) and (T,) index
# arrays.  The per-step functions and run() pass (1, dim) views of their
# state, ar = 0 and one-element slices, which read the same entries
# without a copy.  Either way each trial performs the same floating-point
# operations.


def apply_row_step(beta: np.ndarray, rows: np.ndarray, rhs: np.ndarray, sqnorms: np.ndarray) -> np.ndarray:
    """Kaczmarz projection of each beta[t] onto {b : rows[t] @ b = rhs[t]}."""
    coef = (rhs - np.einsum("ij,ij->i", rows, beta)) / sqnorms
    beta += coef[:, None] * rows
    return coef


def apply_col_project(z: np.ndarray, cols: np.ndarray, sqnorms: np.ndarray) -> np.ndarray:
    """Remove from each z[t] its component along cols[t]."""
    coef = np.einsum("ij,ij->i", cols, z) / sqnorms
    z -= coef[:, None] * cols
    return coef


def apply_coord_step(beta: np.ndarray, residual: np.ndarray, cols: np.ndarray, at, sqnorms: np.ndarray) -> np.ndarray:
    """One coordinate-descent step per trial, along beta[at], keeping residual in sync."""
    gamma = np.einsum("ij,ij->i", cols, residual) / sqnorms
    beta[at] += gamma
    residual -= gamma[:, None] * cols
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
        gamma = apply_coord_step(beta, residual, A.data_t[j], (ar, j), A.col_sqnorms[j])
        if method == "regs":
            # w = z + (beta_t - beta_{t-1}) differs from z only in coordinate j.
            z[ar, j] += gamma
            apply_col_project(z, A.data[draws[0]], A.row_sqnorms[draws[0]])
        return gamma
    i = draws[0]
    target = rhs[i] if rhs.ndim == 1 else rhs[ar, i]
    if method == "rek":
        j = draws[1]
        apply_col_project(z, A.data_t[j], A.col_sqnorms[j])
        target = target - z[ar, i]
    apply_row_step(beta, A.data[i], target, A.row_sqnorms[i])
    return None


# --- public single-step operations ------------------------------------------


def one_trial_step(kernel, args, vectors, step_samplers, cost: int, state, rng: np.random.Generator):
    """A callable that takes one T = 1 step: kernel(*args, *views, 0, draws).

    The views are (1, dim) views of state's vectors (None stays None).
    Each call draws one index per sampler from ``rng``, in order, passes
    them as one-element slices and returns them as ints.
    """
    kernel = functools.partial(kernel, *args, *(None if v is None else v[None] for v in vectors), 0)

    def step():
        drawn = tuple(s.draw(rng) for s in step_samplers)
        kernel([slice(d, d + 1) for d in drawn])
        state.t += 1
        state.flops += cost
        return drawn

    return step


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


def _trial_step(method: str, A: DenseMatrix, y: np.ndarray, state: SolverState, rng: np.random.Generator):
    vectors = (state.beta, state.z, state.residual)
    return one_trial_step(step_kernel, (method, A, y), vectors, samplers(method, A), step_cost(method, A), state, rng)


def rk_step(A: DenseMatrix, y: np.ndarray, state: SolverState, rng: np.random.Generator) -> int:
    """One rk update.  Returns the drawn row index."""
    return _trial_step("rk", A, y, state, rng)()[0]


def rek_step(A: DenseMatrix, y: np.ndarray, state: SolverState, rng: np.random.Generator) -> tuple[int, int]:
    """One rek update.  Returns (row index, column index)."""
    return _trial_step("rek", A, y, state, rng)()


def rgs_step(A: DenseMatrix, y: np.ndarray, state: SolverState, rng: np.random.Generator) -> int:
    """One rgs update.  Returns the drawn column index."""
    return _trial_step("rgs", A, y, state, rng)()[0]


def regs_step(A: DenseMatrix, y: np.ndarray, state: SolverState, rng: np.random.Generator) -> tuple[int, int]:
    """One regs update.  Returns (row index, column index)."""
    return _trial_step("regs", A, y, state, rng)()


def drive(state, step, residuals, reported, check_every: int, budget: int, *, recorder, stride, tolerance, error_fn):
    """The step loop of ``run`` and ``run_interlaced``.

    step() advances state by one step.  residuals() lists the residual
    vectors: the run stops at a check (every check_every steps) where
    each has norm at most tolerance, and their summed squares are the
    recorded value when no error_fn is given; error_fn sees reported().
    """
    if stride is None:
        stride = max(1, budget // 500)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    for t in range(1, budget + 1):
        step()
        stopped = tolerance is not None and t % check_every == 0 and all(
            np.linalg.norm(r) <= tolerance for r in residuals()
        )
        if recorder is not None and (t % stride == 0 or t == budget or stopped):
            if error_fn is not None:
                value = float(error_fn(reported()))
            else:
                value = float(sum(np.dot(r, r) for r in residuals()))
            recorder(t, value, state.flops)
        if stopped:
            break
    return state


def run(
    method: str,
    A: DenseMatrix,
    y: np.ndarray,
    budget: int,
    rng: np.random.Generator,
    *,
    recorder=None,
    stride: int | None = None,
    tolerance: float | None = DEFAULT_TOLERANCE,
    error_fn=None,
):
    """Run ``budget`` steps of one method, optionally recording a trajectory.

    recorder, when given, is called as ``recorder(t, value, flops)`` at
    every stride-th step and at the final step; value is
    ``error_fn(estimate)`` when error_fn is provided, else the squared
    residual norm.  Default stride is budget / 500 (at least 1).

    Every A.rows steps the true residual ||y - A beta|| is evaluated;
    if it falls to ``tolerance`` or below the run stops early (pass
    ``tolerance=None`` to disable).  Returns the final SolverState.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    state = init_state(method, A, y)
    return drive(
        state,
        _trial_step(method, A, y, state, rng),
        lambda: (y - A.data @ estimate(method, state),),
        lambda: estimate(method, state),
        A.rows,
        budget,
        recorder=recorder,
        stride=stride,
        tolerance=tolerance,
        error_fn=error_fn,
    )
