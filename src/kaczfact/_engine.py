"""Vectorized multi-trial runner used by the benchmark layer.

Runs T independent trials of one method in lock step, with every trial
consuming uniforms from its own ``trial_rng(seed, trial)`` stream in
exactly the order a sequential run draws them (row draw before column
draw, U-side before V-side; ``tests/reference.py`` is that sequential
reference).  Uniforms are drawn and mapped to indices 1024 steps at a
time (a sampling block), so index draws match the sequential path
bit-for-bit.  A run keeps one (trial, step, draw) uniform buffer, each
trial's stream filling its own contiguous row in (step, draw) order,
and per draw one (step, trial) index buffer, which ``draw_many`` fills
from the buffer's strided (step, trial) view; a step's (T,) indices for
one draw are one contiguous row, as is a T = 1 window's run of steps.

Each sampling block is advanced in windows of L(T) steps, cut short only
at the sampling block's end (the T = 1 window, 64 steps, divides 1024,
so at T = 1 only the budget does that).  Errors are
recorded at every multiple of the stride and at the budget, and with a
tolerance set the residuals are checked at every multiple of m.  The
engine keeps the next record and check step, so a window with neither
due costs no walk.  Those in a window of B steps are taken after it,
each at its offset s into the window, in [1, B], from the coefficients
the kernel returned; offset B is the window's end and moves nothing.
First its checks, in step order, up to the first that passes, which
stops the run at its own step.  A check reads the binding's residual
parts at s, which are computed in order, and stops at the first whose
norm is over the tolerance, so a pairing whose U x - y fails computes no
V b - x and rewinds no b.  At T = 1 a part is one row, whose norm is the
reference's, sqrt of ``np.dot`` (which takes one vector at a time); at
T >= 2 it is the square root of the largest row sum of squares.  Then
the records due up to the window's end or the stop, the multiples of
the stride and the budget or the stop, from one ``estimate_at`` call
with all their offsets: at T = 1 one rewind of what the estimate reads
(b of a pairing, not x), at T >= 2 the live estimates.  Each record
subtracts beta* into a run-owned buffer from a tile of beta* (one row
per trial, or per record at T = 1) and writes its squared norms into one
run-owned error buffer, which doubles when full, so a run that stops
early holds no buffer for its budget.

A target (``solvers.SingleSystem``, ``interlaced.FactoredSystem``) gives
the samplers, the flops and, once per run, a binding
(``target.bind(method, trials)``, a ``solvers.Binding``): the run's
state, the kernel bound to it and to the method's branches, the data
and, at T = 1, the Gram tables and this thread's triangle buffers, and
the estimates and residual parts at offsets into a window, bound the
same way.  A window, its records and a check are then calls of these,
with no lookup by method name.  The trial count alone picks the kernel: every
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
    """A run's tolerance check."""

    def max_residual(self, parts, tolerance: float) -> float:
        """Largest residual norm across the trials, joint over a pairing's two subsystems, or the first one not
        within ``tolerance`` (nan included).  parts yields the (T, rows) residual parts (``residuals_at``), each
        computed only when asked for, and none is asked for after a part that fails."""
        worst = 0.0
        for res in parts:
            if len(res) == 1:
                # One trial: the reference's norm.
                r = res[0]
                norm = math.sqrt(np.dot(r, r))
            else:
                # One sqrt of the largest square: sqrt is monotone and correctly rounded, so this is the largest norm.
                norm = math.sqrt(float((res * res).sum(axis=1).max()))
            if not norm <= tolerance:
                return norm
            worst = max(worst, norm)
        return worst


class _Errors:
    """A run's recorded squared errors, written in place into one buffer that doubles when full.

    add(estimates) records each (n,) row of estimates: at T = 1 one row
    per recorded step, at T >= 2 one row per trial of one step.  It
    subtracts beta* into a run-owned buffer from a tile of beta* as tall
    as the rows it takes, so no record broadcasts beta* or allocates.
    """

    def __init__(self, beta_star: np.ndarray, rows: int, capacity: int):
        tile = np.tile(beta_star, (rows, 1))
        diff = np.empty_like(tile)
        self.heads = [(tile[:count], diff[:count]) for count in range(rows + 1)]  # by the rows a record takes
        self.flat = np.empty(capacity)
        self.size = 0

    def add(self, estimates: np.ndarray) -> None:
        count = len(estimates)
        end = self.size + count
        if end > self.flat.size:
            grown = np.empty(max(2 * self.flat.size, end))
            grown[: self.size] = self.flat[: self.size]
            self.flat = grown
        tile, diff = self.heads[count]
        np.subtract(estimates, tile, diff)
        _einsum("ij,ij->i", diff, diff, out=self.flat[self.size : end])
        self.size = end


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
    batch = _Batch()
    _, advance, estimate_at, residuals_at = target.bind(method, trials)
    samplers = target.samplers(method)
    per_step = target.step_flops(method)
    check_every = target.m if tolerance is not None else budget + 1  # without a tolerance no check is due
    rngs = [trial_rng(seed, tr) for tr in range(trials)]
    rows = min(_BLOCK, budget)
    # The run's uniforms, (trial, step, draw): each trial's stream fills its own row in (step, draw) order.
    uniforms = np.empty((trials, rows, len(samplers)))
    # Per draw, its (step, trial) indices: a step's (T,) indices for one draw are one contiguous row.
    indices = [np.empty((rows, trials), dtype=np.intp) for _ in samplers]

    round_steps = _round_steps(trials)
    # Room for the run's records, or at first for _BLOCK of them if it has more: the record steps are the
    # multiples of stride below the budget, and the budget.
    records = (budget - 1) // stride + 1
    errors = _Errors(beta_star, max(trials, round_steps), min(records, _BLOCK) * trials)
    iters: list[int] = []
    t = 0
    stop = None
    # The next record and check steps, and the first of them.
    next_rec, next_check = min(stride, budget), check_every
    due = min(next_rec, next_check)
    while t < budget and stop is None:
        block = min(_BLOCK, budget - t)
        for tr, rng in enumerate(rngs):
            rng.random(out=uniforms[tr, :block])
        for d, sampler in enumerate(samplers):
            sampler.draw_many(uniforms[:, :block, d].T, out=indices[d][:block])
        # The windows (t, end], of L(T) steps, cut short only at the sampling block's end, with their draws: per
        # draw a row of its indices reshaped to L(T) T columns, which is a (B,) run of the one trial's indices at
        # T = 1 and one step's (T,) indices at T >= 2, and a last short run at T = 1.
        whole = block - block % round_steps
        ends = [*range(t + round_steps, t + whole + 1, round_steps)]
        windows = [*zip(*(ix[:whole].reshape(-1, round_steps * trials) for ix in indices))]
        if whole < block:
            ends.append(t + block)
            windows.append(tuple([ix[whole:block, 0] for ix in indices]))
        for end, window in zip(ends, windows):
            coef = advance(window)
            if due <= end:
                # Checks due in the window, in step order, up to the first that passes, then the records due up to
                # there: the multiples of stride, and the budget or the stop.  Each reads its offset into the window.
                last = end
                while next_check <= end:
                    e, next_check = next_check, next_check + check_every
                    if batch.max_residual(residuals_at(window, coef, e - t), tolerance) <= tolerance:
                        stop = last = e
                        break
                steps = range(next_rec, last + 1, stride)
                offsets = range(steps.start - t, steps.stop - t, stride)
                if last in (stop, budget) and last not in steps:
                    steps, offsets = [*steps, last], [*offsets, last - t]
                if steps:
                    errors.add(estimate_at(window, coef, offsets))
                    iters += steps
                next_rec = min((end // stride + 1) * stride, budget)
                due = min(next_rec, next_check)
            t = end
            if stop is not None:
                break

    it = np.asarray(iters, dtype=np.int64)
    return it, it * per_step, errors.flat[: errors.size].reshape(len(iters), trials).T
