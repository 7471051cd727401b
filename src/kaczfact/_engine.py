"""Vectorized multi-trial runner used by the benchmark layer.

Runs T independent trials of one method in lock step, with every trial
consuming uniforms from its own ``trial_rng(seed, trial)`` stream in
exactly the order a sequential run draws them (row draw before column
draw, U-side before V-side; ``tests/reference.py`` is that sequential
reference).  Uniforms are drawn and mapped to indices 1024 steps at a
time (a sampling block), so index draws match the sequential path
bit-for-bit.  A run keeps one (trial, step, draw) uniform buffer, each
trial's stream filling its own contiguous row in (step, draw) order;
each draw's indices come out as (step, trial), so a step's (T,)
indices for one draw are one contiguous row, as is a T = 1 window's
run of steps.

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
binding's snapshot); a record that is not also a check rewinds only what
the estimate reads (``estimate_at``: b of a pairing, not x).  A passing
check stops the run at its own step.

A target (``solvers.SingleSystem``, ``interlaced.FactoredSystem``) gives
the samplers, the flops and, once per run, a binding
(``target.bind(method, trials)``, a ``solvers.Binding``): the run's
state, the kernel bound to it and to the method's branches, the data
and, at T = 1, the Gram tables and this thread's triangle buffers, and
the estimate, residuals, snapshot and rewound estimate, each bound the
same way.  A window, a record and a check are then calls of these, with
no lookup by method name.  The trial count alone picks the kernel: every
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

import math

import numpy as np

from .sampling import trial_rng
from .solvers import MAX_BLOCK, _einsum

__all__ = ["run_trials"]

_BLOCK = 1024


def _round_steps(trials: int) -> int:
    """L(T): the window length at ``trials`` lock-step trials (1: per-step path)."""
    return MAX_BLOCK if trials == 1 else 1


class _Batch:
    """One run's binding (``target.bind``) and its tolerance check."""

    def __init__(self, binding):
        self.binding = binding

    def max_residual(self, state) -> float:
        """Largest residual norm across the trials of ``state`` (joint over a pairing's two subsystems)."""
        parts = self.binding.residuals(state)
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
    batch = _Batch(target.bind(method, trials))
    live, advance, estimate, _, snapshot, estimate_at = batch.binding
    samplers = target.samplers(method)
    per_step = target.step_flops(method)
    check_every = target.m if tolerance is not None else budget + 1  # without a tolerance no check is due
    rngs = [trial_rng(seed, tr) for tr in range(trials)]
    # The run's uniforms, (trial, step, draw): each trial's stream fills its own row in (step, draw) order.
    uniforms = np.empty((trials, min(_BLOCK, budget), len(samplers)))

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
        for tr, rng in enumerate(rngs):
            rng.random(out=uniforms[tr, :block])
        # (step, trial) indices per draw: a step's (T,) indices for one draw are one contiguous row.
        idx = [s.draw_many(uniforms[:, :block, d].T) for d, s in enumerate(samplers)]
        # The windows (t, end], of L(T) steps, cut short only at the sampling block's end, with their draws:
        # (B,) runs of the one trial's indices at T = 1, and at T >= 2 one (T,) row per draw.
        ends = [t + min(s + round_steps, block) for s in range(0, block, round_steps)]
        if trials == 1:
            runs = [ix[:, 0] for ix in idx]
            windows = [tuple([r[s : s + round_steps] for r in runs]) for s in range(0, block, round_steps)]
        else:
            windows = zip(*idx)
        for end, window in zip(ends, windows):
            coef = advance(window)
            # Records and checks due in the window, in step order.  Inside it a check reads the snapshot
            # rewound from its end, and a record that is not also a check only the rewound estimate.
            while due <= end and not stopped:
                e = due
                if e == next_check:
                    state = live if e == end else snapshot(window, coef, e - t)
                    stopped = batch.max_residual(state) <= tolerance
                    next_check += check_every
                    est = estimate(state) if stopped or e == next_rec else None
                elif e == end:
                    est = estimate(live)
                else:
                    est = estimate_at(window, coef, e - t)
                if est is not None:
                    diff = est - beta_star
                    iters.append(e)
                    errors.append(_einsum("ij,ij->i", diff, diff))
                    next_rec = min(e + stride, budget) if e < budget else budget + 1
                due = min(next_rec, next_check)
            t = end
            if stopped:
                break

    it = np.asarray(iters, dtype=np.int64)
    return it, it * per_step, (np.vstack(errors).T if errors else np.empty((trials, 0)))
