"""Vectorized multi-trial runner used by the benchmark layer.

Runs T independent trials of one method in lock step, with every trial
consuming uniforms from its own ``trial_rng(seed, trial)`` stream in
exactly the order a sequential run draws them (row draw before column
draw, U-side before V-side; ``tests/reference.py`` is that sequential
reference).  Uniforms are drawn and mapped to indices 1024 steps at a
time (a sampling block), so index draws match the sequential path
bit-for-bit.  A block's uniforms and indices are laid out as (draw,
step, trial): each trial's stream fills its trial column in (step,
draw) order, and a step's (T,) indices for one draw are one contiguous
row, as is a T = 1 window's run of steps.

Each sampling block is advanced in windows of L(T) steps, cut short only
at the sampling block's end (1024 = 32 x 32, so at T = 1 only the budget
does that).  The records and tolerance checks (every m steps, when a
tolerance is set) in a window are taken after it, in step order: one at
its end reads the live state, one at step s inside it the target's
snapshot, the end state rewound to step s by the step coefficients the
block kernel returned.  A passing check stops the run at its own step.

A target (``solvers.SingleSystem``, ``interlaced.FactoredSystem``) gives
the samplers, flops, state, kernels, snapshots, estimate and residuals.
A window of B > 1 steps runs its block kernel, and a 1-step window its
per-step kernel, the one the sequential reference steps with.  This
module holds no algebra and no branch on the target's type: it schedules
draws, windows, records and tolerance checks.

L(T) is ``solvers.MAX_BLOCK`` (32) at T = 1 and 1 at T >= 2, so the
block kernels take one trial.  At T = 1 nearly all of a step's time is
interpreter overhead, which a window pays once; its triangles go to
LAPACK's dgesv directly, past np.linalg.solve's wrapper and its errstate,
as their diagonals are drawn squared norms, all > 0.  At T >= 2 the
per-step loop spreads it over the trials, and block stepping is closed:
on S3b 120x75x50 the per-step kernels took 0.74-1.46 us per trial-step
at T = 40 and 0.44-0.97 at T = 200, against 0.82-1.80 and 0.68-1.52 at
the best block length.  Each trial of a multi-trial run thus performs
the same floating-point operations as a sequential run, and its
iterates, and errors computed by the same formula, equal the
reference's bit for bit.

At T = 1 the two paths agree to rounding, not bit for bit.
The flop count is the per-step model however the steps are grouped.
"""
from __future__ import annotations

import functools

import numpy as np

from .sampling import trial_rng
from .solvers import MAX_BLOCK

__all__ = ["run_trials"]

_BLOCK = 1024


def _round_steps(trials: int) -> int:
    """L(T): the window length at ``trials`` lock-step trials (1: per-step path)."""
    return MAX_BLOCK if trials == 1 else 1


class _Batch:
    """T trials' state as (T, dim) arrays, one row per trial, with the method's two kernels bound to it.

    kernel(draws) takes one step, with one (T,) index array per draw;
    advance(draws) takes B steps of a T = 1 batch on its (dim,) row
    views, with one (B,) index array per draw, and returns the step
    coefficients the target's snapshot rewinds with.
    """

    def __init__(self, method: str, target, trials: int):
        self.method = method
        self.target = target
        s = target.init(method)
        vectors = tuple(None if v is None else np.tile(v, (trials, 1)) for v in vars(s).values())
        self.state = type(s)(*vectors)
        self.samplers = target.samplers(method)
        kernel, block = target.kernels(method)
        self.kernel = functools.partial(kernel, *vectors, np.arange(trials))
        self.advance = functools.partial(block, *(None if v is None else v[0] for v in vectors))

    def max_residual(self, state) -> float:
        """Largest residual norm across the trials of ``state`` (joint over a pairing's two subsystems)."""
        parts = self.target.residuals(self.method, state)
        return float(max(np.sqrt((res * res).sum(axis=1).max()) for res in parts))


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
    per_step = target.step_flops(method)
    check_every = target.m if tolerance is not None else budget + 1  # without a tolerance no check is due

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
        # (draw, step, trial): each trial's uniforms in its stream's (step, draw) order.
        u = np.empty((draws, block, trials))
        for tr, rng in enumerate(rngs):
            u[:, :, tr] = rng.random((block, draws)).T
        idx = tuple(s.draw_many(u[d]) for d, s in enumerate(batch.samplers))
        start = t
        while t < start + block and not stopped:
            # A window (t, end] ends only at L(T) steps or at the sampling block's end.
            end = min(t + round_steps, start + block)
            if end - t == 1:
                batch.kernel(tuple(ix[t - start] for ix in idx))
            else:
                window = tuple(ix[t - start : end - start, 0] for ix in idx)
                coef = batch.advance(window)
            # Records and checks inside the window read a snapshot rewound from its end.
            e = t
            while not stopped:
                rec = schedule[next_rec] if next_rec < len(schedule) else budget + 1
                check = (e // check_every + 1) * check_every
                e = min(rec, check)
                if e > end:
                    break
                state = batch.state if e == end else target.snapshot(method, batch.state, window, coef, e - t)
                stopped = e == check and batch.max_residual(state) <= tolerance
                if e == rec:
                    next_rec += 1
                if stopped or e == rec:
                    diff = target.estimate(method, state) - beta_star
                    iters.append(e)
                    errors.append(np.einsum("ij,ij->i", diff, diff))
            t = end

    it = np.asarray(iters, dtype=np.int64)
    return it, it * per_step, (np.vstack(errors).T if errors else np.empty((trials, 0)))
