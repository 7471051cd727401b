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

A sub-block of B > 1 steps runs the method's block kernel
(``solvers.block_kernel``, ``interlaced.pairing_block``), and a 1-step
sub-block its per-step kernel (``solvers.step_kernel``,
``interlaced.pairing_kernel``), the one the sequential reference steps
with.  This module holds no algebra of its own: it schedules draws,
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

from .interlaced import (
    FactoredSystem,
    InterlacedState,
    init_interlaced,
    pairing_block,
    pairing_cost,
    pairing_kernel,
    pairing_samplers,
)
from .sampling import trial_rng
from .solvers import MAX_BLOCK, block_kernel, estimate, init_state, samplers, step_cost, step_kernel

__all__ = ["run_trials", "step_flops"]

_BLOCK = 1024


def _round_steps(trials: int) -> int:
    """L(T): the longest sub-block at ``trials`` lock-step trials (1: per-step path)."""
    return MAX_BLOCK if trials == 1 else 1


def step_flops(method: str, target) -> int:
    """Cost of one step of ``method`` on ``target`` under the flop model."""
    if isinstance(target, FactoredSystem):
        return pairing_cost(method, target)
    return step_cost(method, target[0])


class _Batch:
    """T trials' state as (T, dim) arrays, one row per trial, with the method's two kernels bound to it.

    kernel(draws) takes one step, with one (T,) index array per draw;
    advance(draws) takes B steps of a T = 1 batch on its (dim,) row
    views, with one (B,) index array per draw.
    """

    def __init__(self, method: str, target, trials: int):
        self.method = method
        self.target = target
        if isinstance(target, FactoredSystem):
            s = init_interlaced(method, target)
            vectors = (s.x, s.b, s.z, s.zv, s.res_u, s.res_v)
            self.samplers = pairing_samplers(method, target)
            kernel, block, fixed = pairing_kernel, pairing_block, (method, target)
        else:
            s = init_state(method, *target)
            vectors = (s.beta, s.z, s.residual)
            self.samplers = samplers(method, target[0])
            kernel, block, fixed = step_kernel, block_kernel, (method, *target)
        vectors = tuple(None if v is None else np.tile(v, (trials, 1)) for v in vectors)
        self.state = type(s)(*vectors)
        self.kernel = functools.partial(kernel, *fixed, *vectors, np.arange(trials))
        self.advance = functools.partial(block, *fixed, *(None if v is None else v[0] for v in vectors))

    def estimates(self) -> np.ndarray:
        if isinstance(self.state, InterlacedState):
            return self.state.b
        return estimate(self.method, self.state)

    def max_residual(self) -> float:
        """Largest residual norm across trials (joint for factored runs)."""
        if isinstance(self.state, InterlacedState):
            sys, st = self.target, self.state
            parts = (st.x @ sys.U.data.T - sys.y, st.b @ sys.V.data.T - st.x)
        else:
            A, y = self.target
            parts = (self.estimates() @ A.data.T - y,)
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
                diff = batch.estimates() - beta_star
                iters.append(t)
                errors.append(np.einsum("ij,ij->i", diff, diff))
            if stopped:
                break

    it = np.asarray(iters, dtype=np.int64)
    return it, it * per_step, (np.vstack(errors).T if errors else np.empty((trials, 0)))
