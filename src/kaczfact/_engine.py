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
row, as is a T = 1 sub-block's run of steps.

Each sampling block is advanced in sub-blocks of up to L(T) steps.  A
sub-block also ends at the next recorded iteration, at the next
tolerance check (every m steps, when a tolerance is set) and at the end
of the sampling block, so records and checks see the same iterate, at
the same step, as they would step by step.

A target (``solvers.SingleSystem``, ``interlaced.FactoredSystem``) gives
the samplers, flops, state, kernels, estimate and residuals.  A sub-block
of B > 1 steps runs its block kernel, and a 1-step sub-block its per-step
kernel, the one the sequential reference steps with.  This module holds
no algebra and no branch on the target's type: it schedules draws,
sub-blocks, records and tolerance checks.

L(T) is ``solvers.MAX_BLOCK`` (32) at T = 1 and 1 at T >= 2, so the
block kernels take one trial.  At T = 1 nearly all of a step's time is
interpreter overhead, which a sub-block pays once.  At T >= 2 the
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
    """L(T): the longest sub-block at ``trials`` lock-step trials (1: per-step path)."""
    return MAX_BLOCK if trials == 1 else 1


class _Batch:
    """T trials' state as (T, dim) arrays, one row per trial, with the method's two kernels bound to it.

    kernel(draws) takes one step, with one (T,) index array per draw;
    advance(draws) takes B steps of a T = 1 batch on its (dim,) row
    views, with one (B,) index array per draw.
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

    def max_residual(self) -> float:
        """Largest residual norm across trials (joint over a pairing's two subsystems)."""
        parts = self.target.residuals(self.method, self.state)
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
    check_every = target.m

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
        while t < start + block:
            # A sub-block ends at the next record, tolerance check or block end.
            end = min(t + round_steps, start + block)
            if next_rec < len(schedule):
                end = min(end, schedule[next_rec])
            if tolerance is not None:
                end = min(end, (t // check_every + 1) * check_every)
            if end - t == 1:
                batch.kernel(tuple(ix[t - start] for ix in idx))
            else:
                batch.advance(tuple(ix[t - start : end - start, 0] for ix in idx))
            t = end
            if tolerance is not None and t % check_every == 0 and batch.max_residual() <= tolerance:
                stopped = True
            record_now = stopped
            if next_rec < len(schedule) and schedule[next_rec] == t:
                record_now = True
                next_rec += 1
            if record_now:
                diff = target.estimate(method, batch.state) - beta_star
                iters.append(t)
                errors.append(np.einsum("ij,ij->i", diff, diff))
            if stopped:
                break

    it = np.asarray(iters, dtype=np.int64)
    return it, it * per_step, (np.vstack(errors).T if errors else np.empty((trials, 0)))
