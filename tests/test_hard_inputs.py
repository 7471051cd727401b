"""T = 1 runs on hard inputs, held to the sequential reference.

Every other check of T = 1 accuracy runs on Gaussian data.  Here A is 60 x 20
with near-parallel rows, rows or columns scaled over many decades, a
condition number of 1e8, or duplicated rows (rank 6), and y is consistent
or noisy; pairings take A as U with a Gaussian 20 x 30 V.  On such inputs
the block path's forward substitution on tril(A_I A_I^T) and the per-step
projections round differently, and residual norms sit near the tolerance
for many checks.  Each of the eight methods runs 4096 steps, without a
tolerance and with one that passes within the budget, and records the
steps the reference records and stops where it stops, with errors within
SINGLE_TRIAL_BOUND of the reference's over 1 + ||beta*||^2.

Each tolerance was chosen so that no check norm of the reference, up to
its stop, lies within 3e-4 of it (relative), so that rounding cannot make
the two runs disagree on a stop.
"""

import numpy as np
import pytest

from kaczfact.bench import RunConfig, oracle_solution, run_experiment
from kaczfact.dense import DenseMatrix
from kaczfact.interlaced import PAIRINGS, FactoredSystem
from kaczfact.sampling import master_rng, trial_rng
from kaczfact.solvers import METHODS, SingleSystem

import reference
from test_text_output import SINGLE_TRIAL_BOUND

BUDGET, STRIDE, SEED = 4096, 16, 3


def _near_parallel(spread):
    return lambda g, rng: rng.standard_normal(20) + spread * g


def _ill_conditioned(g, rng):
    left, right = np.linalg.qr(g)[0], np.linalg.qr(rng.standard_normal((20, 20)))[0]
    return (left * 10.0 ** np.linspace(0, -8, 20)) @ right.T


# name -> (A from a Gaussian 60 x 20 g and the case's generator, y consistent, tolerance)
CASES = {
    "gaussian-noisy": (lambda g, rng: g, False, 0.4),
    "parallel-1e-9": (_near_parallel(1e-9), True, 1e-2),
    "parallel-1e-6-noisy": (_near_parallel(1e-6), False, 0.5),
    "parallel-1e-3-noisy": (_near_parallel(1e-3), False, 0.5),
    "row-scales-1e4-noisy": (lambda g, rng: 10.0 ** np.linspace(-4, 4, 60)[:, None] * g, False, 3e3),
    "row-scales-1e7": (lambda g, rng: 10.0 ** np.linspace(-7, 7, 60)[:, None] * g, True, 2e6),
    "col-scales-1e6": (lambda g, rng: g * 10.0 ** np.linspace(-6, 6, 20), True, 5e4),
    "condition-1e8-noisy": (_ill_conditioned, False, 0.15),
    "duplicated-noisy": (lambda g, rng: rng.standard_normal((6, 20))[np.arange(60) % 6], False, 0.5),
    "duplicated": (lambda g, rng: rng.standard_normal((6, 20))[np.arange(60) % 6], True, 0.05),
}


def hard_target(name, method):
    """The case's (A, y), or for a pairing FactoredSystem(A, V, y) with a Gaussian 20 x 30 V: y is A w, plus
    noise of 1 % of its root-mean-square entry when the case is noisy."""
    make, consistent, _ = CASES[name]
    rng = master_rng(1000)
    a = make(rng.standard_normal((60, 20)), rng)
    clean = a @ rng.standard_normal(20)
    y = clean if consistent else clean + 1e-2 * np.linalg.norm(clean) / np.sqrt(60) * rng.standard_normal(60)
    v = rng.standard_normal((20, 30))
    return FactoredSystem(DenseMatrix(a), DenseMatrix(v), y) if method in PAIRINGS else (DenseMatrix(a), y)


@pytest.mark.parametrize("tolerance", [False, True], ids=["budget", "tolerance"])
@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_hard_input_matches_reference(method, name, tolerance):
    target = hard_target(name, method)
    star = oracle_solution(target)
    tol = CASES[name][2] if tolerance else None

    def error(b):
        diff = (b - star)[None]
        return np.einsum("ij,ij->i", diff, diff)[0]

    records = {}
    recorder = lambda t, value, flops: records.__setitem__(t, value)
    system = target if method in PAIRINGS else SingleSystem(*target)
    _, stop = reference.run(method, system, BUDGET, trial_rng(SEED, 0), recorder=recorder, stride=STRIDE,
                            tolerance=tol, error_fn=error)
    assert (stop < BUDGET) == tolerance
    config = RunConfig(method=method, seed=SEED, trials=1, budget=BUDGET, stride=STRIDE, tolerance=tol)
    traj = run_experiment(config, target, beta_star=star)
    assert traj.iters.tolist() == sorted(records) and traj.iters[-1] == stop
    want = np.array([records[t] for t in traj.iters.tolist()])
    assert np.abs(traj.errors[0] - want).max() <= SINGLE_TRIAL_BOUND * (1.0 + float(star @ star))
