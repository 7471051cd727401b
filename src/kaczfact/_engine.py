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
at the sampling block's end (the T = 1 window, 64 steps, divides 1024,
so at T = 1 only the budget does that).  Errors are
recorded at every multiple of the stride and at the budget, and with a
tolerance set the residuals are checked at every multiple of m.  The
engine keeps the next record and check step, so a window with neither
due costs no walk.  Those in a window are taken after it, in step order:
one at its end reads the live state, and one at step s inside it reads
the end state rewound to step s by the step coefficients and rows the
block kernel returned.  A check rewinds all that the residuals read (the
target's snapshot); a record that is not also a check rewinds only what
the estimate reads (``estimate_at``: b of a pairing, not x).  A passing
check stops the run at its own step.

A target (``solvers.SingleSystem``, ``interlaced.FactoredSystem``) gives
the samplers, flops, state, kernels, snapshots and rewound estimates,
estimate and residuals.  The trial count alone picks the kernel: every
T = 1 window runs the block kernel, however short, and every T >= 2
step the per-step kernel, the one the sequential reference steps with.
This module holds no algebra and no branch on the target's type: it
schedules draws, windows, records and tolerance checks.

L(T) is ``solvers.MAX_BLOCK`` (64) at T = 1 and 1 at T >= 2, so the
block kernels take one trial.  At T = 1 nearly all of a step's time is
interpreter overhead, which a window pays once.  Every target takes the
same window, whether its sides gather their Gram matrices from tables or
compute them as rows @ rows.T; 128-step windows measured no faster than
64-step ones on the full presets, and 32-step ones faster only on dense
baselines with rows of about 500 entries or more.  How a block solves
its window, from the rows it gathered and the Gram tables, in the
calling thread's triangle buffer, is ``solvers``' block section.  At
T >= 2 the per-step loop spreads the overhead over the trials, and block
stepping is closed: on S3b 120x75x50 the per-step kernels took 0.74-1.46
us per trial-step at T = 40 and 0.44-0.97 at T = 200, against 0.82-1.80
and 0.68-1.52 at the best block length.  Each trial of a multi-trial run thus performs the
same floating-point operations as a sequential run, and its iterates,
and errors computed by the same formula, equal the reference's bit for
bit.

At T = 1 the two paths agree to rounding, not bit for bit.
The flop count is the per-step model however the steps are grouped.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .sampling import trial_rng
from .solvers import MAX_BLOCK

__all__ = ["run_trials"]

_BLOCK = 1024


def _round_steps(trials: int) -> int:
    """L(T): the window length at ``trials`` lock-step trials (1: per-step path)."""
    return MAX_BLOCK if trials == 1 else 1


class _Batch:
    """T trials' state as (T, dim) arrays, one row per trial, with the kernel its run steps with bound to it.

    At T >= 2, advance(draws) takes one step with the per-step kernel,
    with one (T,) index array per draw.  At T = 1 it takes a window of B
    steps with the block kernel on the (dim,) row views, with one (B,)
    index array per draw, and returns the step coefficients the target's
    snapshot rewinds with.
    """

    def __init__(self, method: str, target, trials: int):
        self.method = method
        self.target = target
        s = target.init(method)
        vectors = tuple(None if v is None else np.tile(v, (trials, 1)) for v in vars(s).values())
        self.state = type(s)(*vectors)
        self.samplers = target.samplers(method)
        kernel, block = target.kernels(method)
        if trials == 1:
            self.advance = functools.partial(block, *(None if v is None else v[0] for v in vectors))
        else:
            self.advance = functools.partial(kernel, *vectors, np.arange(trials))

    def max_residual(self, state) -> float:
        """Largest residual norm across the trials of ``state`` (joint over a pairing's two subsystems)."""
        parts = self.target.residuals(self.method, state)
        # One sqrt of the largest square: sqrt is monotone and correctly rounded, so this is the largest norm.
        return math.sqrt(max(float((res * res).sum(axis=1).max()) for res in parts))


def run_trials(
    method: str,
    target,
    budget: int,
    seed: int,
    trials: int,
    stride: int,
    beta_star: np.ndarray,
    tolerance: float | None = None,
):
    """Run ``trials`` lock-step trials for ``budget`` steps, recording every ``stride`` steps and at the budget.

    Returns (iters, flops, errors): recorded iteration numbers, the
    cumulative flop count at each, and an (trials, len(iters)) array of
    squared distances ||b_t - beta_star||^2.  With a tolerance set, the
    run halts at the first every-m-steps check where *all* trials are
    at or below it, recording that iteration and no later one.  budget,
    trials and stride are positive, as ``bench.RunConfig`` checks.
    """
    batch = _Batch(method, target, trials)
    draws = len(batch.samplers)
    per_step = target.step_flops(method)
    check_every = target.m if tolerance is not None else budget + 1  # without a tolerance no check is due
    rngs = [trial_rng(seed, tr) for tr in range(trials)]

    round_steps = _round_steps(trials)
    iters: list[int] = []
    errors: list[np.ndarray] = []
    t = 0
    stopped = False
    # The next record and check steps, and the first of them.
    next_rec, next_check = min(stride, budget), check_every
    due = min(next_rec, next_check)
    while t < budget and not stopped:
        block = min(_BLOCK, budget - t)
        # (draw, step, trial): each trial's uniforms in its stream's (step, draw) order.
        u = np.empty((draws, block, trials))
        for tr, rng in enumerate(rngs):
            u[:, :, tr] = rng.random((block, draws)).T
        idx = [s.draw_many(u[d]) for d, s in enumerate(batch.samplers)]
        runs = [ix[:, 0] for ix in idx]  # the first trial's indices, which a T = 1 window slices
        start = t
        while t < start + block and not stopped:
            # A window (t, end] ends only at L(T) steps or at the sampling block's end.
            end = min(t + round_steps, start + block)
            window = tuple([r[t - start : end - start] for r in runs] if trials == 1 else [ix[t - start] for ix in idx])
            coef = batch.advance(window)
            # Records and checks due in the window, in step order.  Inside it a check reads the snapshot
            # rewound from its end, and a record that is not also a check only the rewound estimate.
            while due <= end and not stopped:
                e = due
                if e == next_check:
                    state = batch.state if e == end else target.snapshot(method, batch.state, window, coef, e - t)
                    stopped = batch.max_residual(state) <= tolerance
                    next_check += check_every
                    est = target.estimate(method, state) if stopped or e == next_rec else None
                elif e == end:
                    est = target.estimate(method, batch.state)
                else:
                    est = target.estimate_at(method, batch.state, window, coef, e - t)
                if est is not None:
                    diff = est - beta_star
                    iters.append(e)
                    errors.append(np.einsum("ij,ij->i", diff, diff))
                    next_rec = min(e + stride, budget) if e < budget else budget + 1
                due = min(next_rec, next_check)
            t = end

    it = np.asarray(iters, dtype=np.int64)
    return it, it * per_step, (np.vstack(errors).T if errors else np.empty((trials, 0)))
