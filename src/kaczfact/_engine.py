"""Vectorized multi-trial runner used by the benchmark layer.

Runs T independent trials of one method in lock step, with every trial
consuming uniforms from its own ``trial_rng(seed, trial)`` stream in
exactly the order the sequential per-step functions would (row draw
before column draw, U-side before V-side).  Uniforms are drawn and mapped
to indices 1024 steps at a time (a sampling block), so index draws match
the sequential path bit-for-bit.

Each sampling block is advanced in sub-blocks of up to L(T) steps.  A
sub-block also ends at the next recorded iteration, at the next
tolerance check (every m steps, when a tolerance is set) and at the end
of the sampling block, so records and checks see the same iterate, at
the same step, as they would step by step.

A sub-block of B > 1 steps is block-exact (s-step) stepping: B
consecutive projections written as one triangular system per sketch
side.  For row projections onto rows I against right-hand sides r,

    tril(A_I A_I^T) c = r - A_I beta_0,    beta_B = beta_0 + A_I^T c,

and column projections of z onto columns J solve tril(A_J^T A_J) d =
A_J^T z_0 likewise.  The couplings between sides enter as inclusive
lower-triangular cross matrices: rek's z[i_s] (from U[I][:, J]), the
V subsystem's moving right-hand side x[p_s] (from U[I][:, P]^T), the
res_v patch of rgs-rgs (from V[J][:, Q]^T) and the coordinate patches
of the regs correction.  Each side thus costs one gather of the B rows
or columns, a Gram matrix and a (T, B, B) ``np.linalg.solve`` instead
of B rounds of per-step numpy calls (communication-avoiding block
coordinate descent, Devarakonda et al., arXiv:1612.04003).

L(T) is 32 at T = 1 and 1 at T >= 2.  A 1-step sub-block runs the
per-step kernel shared with ``run`` and ``run_interlaced``
(``solvers.step_kernel`` and ``interlaced.pairing_kernel``); this module
holds no per-step algebra of its own.  At T = 1 nearly all of a step's
time is interpreter overhead, which a sub-block pays once.  As T grows
the per-step loop spreads that overhead over the trials while the Gram
matrix and solve grow as B^2 per trial, so the gain shrinks (measured on
S3b 200x150x100: 1.4-5.8x at T = 2-8, 1.2-1.4x at T = 16).  Multi-trial
runs keep the per-step kernel anyway: each trial then performs the same
floating-point operations as the sequential functions, so at T >= 2 its
iterates, and errors computed by the same formula, equal theirs bit for
bit.  The block path's reordered sums would move errors near 1e-13 by
up to ~5e-9 relative (the float64 error of the sequential path itself is
~3e-9 there).

At T = 1 the two paths agree to rounding, not bit for bit.
The flop count is the per-step model however the steps are grouped.
"""
from __future__ import annotations

import functools

import numpy as np

from .dense import DenseMatrix
from .interlaced import FactoredSystem, init_interlaced, pairing_cost, pairing_kernel, pairing_samplers
from .sampling import trial_rng
from .solvers import init_state, samplers, step_cost, step_kernel

__all__ = ["run_trials", "step_flops"]

_BLOCK = 1024
# Longest sub-block (L at T = 1); see the module docstring.
_MAX_ROUND = 32
_LOWER = np.tril(np.ones((_MAX_ROUND, _MAX_ROUND)))


def _round_steps(trials: int) -> int:
    """L(T): the longest sub-block at ``trials`` lock-step trials (1: per-step path)."""
    return _MAX_ROUND if trials == 1 else 1


def _mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product: (T, p, q) with (T, q) gives (T, p)."""
    return (mat @ vec[..., None])[..., 0]


def _lower(mat: np.ndarray) -> np.ndarray:
    """Inclusive lower triangle of each (B, B) matrix in a stack."""
    b = mat.shape[-1]
    return mat * _LOWER[:b, :b]


def _solve_lower(gram: np.ndarray, rhs: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Solve tril(gram) c = rhs per trial, with the cached squared norms on the diagonal."""
    low = _lower(gram)
    r = np.arange(diag.shape[1])
    low[:, r, r] = diag
    return np.linalg.solve(low, rhs[..., None])[..., 0]


def step_flops(method: str, target) -> int:
    """Cost of one step of ``method`` on ``target`` under the flop model."""
    if isinstance(target, FactoredSystem):
        return pairing_cost(method, target)
    return step_cost(method, target[0])


def _tiled(vec: np.ndarray | None, trials: int) -> np.ndarray | None:
    return None if vec is None else np.tile(vec, (trials, 1))


class _Batch:
    """(T, dim) state arrays, one row per trial, the shared per-step kernel and the sub-block update."""

    def __init__(self, method: str, target, trials: int):
        self.method = method
        self.trials = trials
        self.ar = np.arange(trials)
        if isinstance(target, FactoredSystem):
            self.sys = target
            s = init_interlaced(method, target)
            state = tuple(_tiled(a, trials) for a in (s.x, s.b, s.z, s.zv, s.res_u, s.res_v))
            self.X, self.B, self.Z, self.ZV, self.RES_U, self.RES_V = state
            self.samplers = pairing_samplers(method, target)
            self.kernel = functools.partial(pairing_kernel, method, target, *state, self.ar)
        else:
            self.A, self.y = target
            s = init_state(method, self.A, self.y)
            self.B, self.Z, self.RES = (_tiled(a, trials) for a in (s.beta, s.z, s.residual))
            self.samplers = samplers(method, self.A)
            self.kernel = functools.partial(step_kernel, method, self.A, self.y, self.B, self.Z, self.RES, self.ar)

    # -- sub-block updates, one (T, B) index array per draw ----------------

    def _rows_block(self, M: DenseMatrix, iterate: np.ndarray, idx: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Row projections onto rows idx[:, 0], idx[:, 1], ... against rhs[:, s].

        Returns the (T, B) step coefficients.
        """
        rows = M.data[idx]
        coef = _solve_lower(rows @ rows.swapaxes(1, 2), rhs - _mv(rows, iterate), M.row_sqnorms[idx])
        iterate += (coef[:, None, :] @ rows)[:, 0]
        return coef

    def _cols_block(self, M: DenseMatrix, z: np.ndarray, idx: np.ndarray, extra=0.0) -> np.ndarray:
        """Column projections of z onto columns idx[:, s]; extra[:, s] joins step s's inner product.

        Returns the (T, B) step coefficients.
        """
        cols = M.data_t[idx]
        coef = _solve_lower(cols @ cols.swapaxes(1, 2), _mv(cols, z) + extra, M.col_sqnorms[idx])
        z -= (coef[:, None, :] @ cols)[:, 0]
        return coef

    def _rek_block(self, M, z, iterate, rows, cols, rhs) -> np.ndarray:
        """rek steps: project z onto column s, then the row step against rhs[:, s] - z[row s]."""
        z_rows = z[self.ar[:, None], rows]
        d = self._cols_block(M, z, cols)
        z_rows -= _mv(_lower(M.data[rows[:, :, None], cols[:, None, :]]), d)
        return self._rows_block(M, iterate, rows, rhs - z_rows)

    def advance(self, draws: tuple[np.ndarray, ...]) -> None:
        """B steps at once: the block-exact equivalent of B calls to ``kernel``."""
        method = self.method
        ar = self.ar[:, None]
        if method == "rk":
            (i,) = draws
            self._rows_block(self.A, self.B, i, self.y[i])
        elif method == "rek":
            i, j = draws
            self._rek_block(self.A, self.Z, self.B, i, j, self.y[i])
        elif method == "rgs":
            (j,) = draws
            np.add.at(self.B, (ar, j), self._cols_block(self.A, self.RES, j))
        elif method == "regs":
            i, j = draws
            gamma = self._cols_block(self.A, self.RES, j)
            np.add.at(self.B, (ar, j), gamma)
            # Row step s projects z + sum_{r<=s} gamma_r e_{j_r}: the patches enter its rhs.
            cross = _lower(self.A.data[i[:, :, None], j[:, None, :]])
            self._rows_block(self.A, self.Z, i, -_mv(cross, gamma))
            np.add.at(self.Z, (ar, j), gamma)
        elif method == "rgs-rgs":
            j, q = draws
            U, V = self.sys.U, self.sys.V
            gamma = self._cols_block(U, self.RES_U, j)
            np.add.at(self.X, (ar, j), gamma)
            # V-side step s sees the patches res_v[j_r] += gamma_r for r <= s.
            patch = _mv(_lower(V.data[j[:, None, :], q[:, :, None]]), gamma)
            eta = self._cols_block(V, self.RES_V, q, patch)
            np.add.at(self.RES_V, (ar, j), gamma)
            np.add.at(self.B, (ar, q), eta)
        else:  # rk-rk, rek-rk, rek-rek
            U, V = self.sys.U, self.sys.V
            # Draw order: U row, [U col], V row, [V col].
            i, p = draws[0], draws[1 if method == "rk-rk" else 2]
            x_p = self.X[ar, p]
            if method == "rk-rk":
                coef = self._rows_block(U, self.X, i, self.sys.y[i])
            else:
                coef = self._rek_block(U, self.Z, self.X, i, draws[1], self.sys.y[i])
            # V-side step s reads x[p_s] after U-side steps r <= s.
            x_p += _mv(_lower(U.data[i[:, None, :], p[:, :, None]]), coef)
            if method == "rek-rek":
                self._rek_block(V, self.ZV, self.B, p, draws[3], x_p)
            else:
                self._rows_block(V, self.B, p, x_p)

    def estimates(self) -> np.ndarray:
        if self.method == "regs":
            return self.B - self.Z
        return self.B

    def max_residual(self) -> float:
        """Largest residual norm across trials (joint for factored runs)."""
        if self.method in ("rk", "rek", "rgs", "regs"):
            res = self.estimates() @ self.A.data.T - self.y
            return float(np.sqrt((res * res).sum(axis=1).max()))
        res_u = self.X @ self.sys.U.data.T - self.sys.y
        res_v = self.B @ self.sys.V.data.T - self.X
        worst_u = np.sqrt((res_u * res_u).sum(axis=1).max())
        worst_v = np.sqrt((res_v * res_v).sum(axis=1).max())
        return float(max(worst_u, worst_v))


def run_trials(
    method: str,
    target,
    budget: int,
    seed: int,
    trials: int,
    record_ts,
    beta_star: np.ndarray,
    tolerance: float | None = None,
):
    """Run ``trials`` lock-step trials and sample errors at ``record_ts``.

    Returns (iters, flops, errors): recorded iteration numbers, the
    cumulative flop count at each, and an (trials, len(iters)) array of
    squared distances ||b_t - beta_star||^2.  With a tolerance set, the
    run halts at the first every-m-steps check where *all* trials are
    at or below it, recording that iteration; later scheduled records
    are dropped.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if trials < 1:
        raise ValueError("need at least one trial")
    batch = _Batch(method, target, trials)
    draws = len(batch.samplers)
    per_step = step_flops(method, target)
    check_every = target.m if isinstance(target, FactoredSystem) else target[0].rows

    schedule = sorted(set(int(t) for t in record_ts))
    if schedule and (schedule[0] < 1 or schedule[-1] > budget):
        raise ValueError("record iterations must lie in [1, budget]")
    rngs = [trial_rng(seed, tr) for tr in range(trials)]

    round_steps = _round_steps(trials)
    iters: list[int] = []
    errors: list[np.ndarray] = []
    next_rec = 0
    t = 0
    stopped = False
    while t < budget and not stopped:
        block = min(_BLOCK, budget - t)
        u = np.empty((trials, block, draws))
        for tr in range(trials):
            u[tr] = rngs[tr].random((block, draws))
        idx = tuple(s.draw_many(np.ascontiguousarray(u[:, :, d])) for d, s in enumerate(batch.samplers))
        start = t
        while t < start + block:
            # A sub-block ends at the next record, tolerance check or block end.
            end = min(t + round_steps, start + block)
            if next_rec < len(schedule):
                end = min(end, schedule[next_rec])
            if tolerance is not None:
                end = min(end, (t // check_every + 1) * check_every)
            if end - t == 1:
                batch.kernel(tuple(ix[:, t - start] for ix in idx))
            else:
                batch.advance(tuple(ix[:, t - start : end - start] for ix in idx))
            t = end
            if tolerance is not None and t % check_every == 0 and batch.max_residual() <= tolerance:
                stopped = True
            record_now = stopped
            if next_rec < len(schedule) and schedule[next_rec] == t:
                record_now = True
                next_rec += 1
            if record_now:
                diff = batch.estimates() - beta_star
                iters.append(t)
                errors.append(np.einsum("ij,ij->i", diff, diff))
            if stopped:
                break

    it = np.asarray(iters, dtype=np.int64)
    return it, it * per_step, (np.vstack(errors).T if errors else np.empty((trials, 0)))
