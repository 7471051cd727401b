"""Sequential reference: one trial, one step at a time.

The package runs trajectories only through the lock-step engine
(``bench.run_experiment`` -> ``_engine.run_trials``).  This module is the
independent side the tests hold it to.  It steps with the package's
per-step kernels (``solvers.step_kernel``, ``interlaced.pairing_kernel``)
on (1, dim) views of one trial's state, draws each index with
``NormSampler.draw`` (one uniform per draw, in ``DRAWS`` order), and
records and stops step by step, on a schedule of its own rather than the
engine's sub-blocks.

A target is a ``FactoredSystem`` (interlaced pairings) or a
``SingleSystem`` (single-system methods).

The per-side formulas at the end write each projection out for its own
side: the row step, which adds ``(rhs - row @ beta) / ||row||^2`` times
the row, the column projection and the coordinate step, and the row and
column block forms.  ``solvers.project`` and the block projection, one
for both sides, are held to them bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from kaczfact.interlaced import FactoredSystem, init_interlaced, pairing_kernel
from kaczfact.solvers import SingleSystem, default_stride, estimate, init_state, step_kernel


def _target(target):
    """target, with an ``(A, y)`` pair made a SingleSystem, as ``bench.run_experiment`` does."""
    return SingleSystem(*target) if isinstance(target, tuple) else target


def _stepper(method: str, target, state, rng: np.random.Generator):
    """A callable that takes one step of ``state`` and returns its draws as ints."""
    if isinstance(target, FactoredSystem):
        kernel, fixed = pairing_kernel, (method, target)
    else:
        kernel, fixed = step_kernel, (method, target.A, target.y)
    draw_from = target.samplers(method)
    views = (None if v is None else v[None] for v in (getattr(state, f.name) for f in dataclasses.fields(state)))
    kernel = functools.partial(kernel, *fixed, *views, 0)

    def one_step():
        drawn = tuple(s.draw(rng) for s in draw_from)
        kernel([np.array([d]) for d in drawn])
        return drawn

    return one_step


def step(method: str, target, state, rng: np.random.Generator) -> tuple:
    """One ``method`` step of ``state`` on ``target``.  Returns its draws in draw order."""
    return _stepper(method, _target(target), state, rng)()


def run(method: str, target, budget: int, rng: np.random.Generator, *, recorder=None, stride=None, tolerance=None,
        error_fn=None):
    """Run up to ``budget`` steps from the method's initial state.  Returns (final state, steps taken).

    recorder(t, value, flops) fires every stride-th step (default
    budget / 500, at least 1), at the final step and at a stop; value is
    error_fn(estimate) when error_fn is given, else the summed squared
    residuals: ||y - A estimate||^2, or ||y - U x||^2 + ||x - V b||^2.
    When a tolerance is given the residuals are checked every m steps
    (m the rows of A or U) and the run stops once each has norm at most
    tolerance.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if stride is None:
        stride = default_stride(budget)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    target = _target(target)
    if isinstance(target, FactoredSystem):
        state = init_interlaced(method, target)
        U, V, y = target.U.data, target.V.data, target.y
        residuals = lambda: (y - U @ state.x, state.x - V @ state.b)
        reported = lambda: state.b
    else:
        A, y = target.A, target.y
        state = init_state(method, A, y)
        residuals = lambda: (y - A.data @ estimate(method, state),)
        reported = lambda: estimate(method, state)
    check_every, cost = target.m, target.step_flops(method)
    one_step = _stepper(method, target, state, rng)
    t = 0
    while t < budget:
        one_step()
        t += 1
        stopped = tolerance is not None and t % check_every == 0 and all(
            np.linalg.norm(r) <= tolerance for r in residuals()
        )
        if recorder is not None and (t % stride == 0 or t == budget or stopped):
            if error_fn is not None:
                value = float(error_fn(reported()))
            else:
                value = float(sum(np.dot(r, r) for r in residuals()))
            recorder(t, value, t * cost)
        if stopped:
            break
    return state, t


# --- per-side projection formulas ---------------------------------------------
# One formula per side, on (T, dim) state for a step and (dim,) state for a
# block; each overwrites its gathered rows or columns, as the kernels do.


def row_step(beta, rows, rhs, sqnorms):
    """Kaczmarz projection of each beta[t] onto {b : rows[t] @ b = rhs[t]}."""
    coef = (rhs - np.einsum("ij,ij->i", rows, beta)) / sqnorms
    rows *= coef[:, None]
    beta += rows
    return coef


def col_project(z, cols, sqnorms):
    """Remove from each z[t] its component along cols[t]."""
    coef = np.einsum("ij,ij->i", cols, z) / sqnorms
    cols *= coef[:, None]
    z -= cols
    return coef


def coord_step(beta, residual, cols, at, sqnorms):
    """One coordinate-descent step per trial along beta[at], keeping residual in sync."""
    gamma = np.einsum("ij,ij->i", cols, residual) / sqnorms
    beta[at] += gamma
    cols *= gamma[:, None]
    residual -= cols
    return gamma


def _block_solve(side, vecs, idx, rhs, diag):
    """tril(G) c = rhs for the Gram matrix G of vecs = side[idx], read from side @ side.T when side has
    at most twice as many rows as columns."""
    b = idx.size
    gram = vecs @ vecs.T if side.shape[0] > 2 * side.shape[1] else (side @ side.T).take(idx, 0).take(idx, 1)
    gram = gram * np.tril(np.ones((b, b)))
    gram[np.diag_indices(b)] = diag
    return np.linalg.solve(gram, rhs)


def rows_block(A, beta, idx, rhs):
    """Row projections of beta onto rows idx[0], idx[1], ... of A against rhs[s]."""
    rows = A.data.take(idx, 0)
    coef = _block_solve(A.data, rows, idx, rhs - rows @ beta, A.row_sqnorms.take(idx))
    beta += coef @ rows
    return coef


def cols_block(A, z, idx, extra=None):
    """Column projections of z onto columns idx[s] of A, extra[s] (if given) joining step s's inner product."""
    side = np.ascontiguousarray(A.data.T)
    cols = side.take(idx, 0)
    rhs = cols @ z
    if extra is not None:
        rhs += extra
    coef = _block_solve(side, cols, idx, rhs, (A.data * A.data).sum(axis=0).take(idx))
    z -= coef @ cols
    return coef
