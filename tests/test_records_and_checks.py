"""Records and tolerance checks of the lock-step engine, held to the sequential reference.

At T = 1 a window takes all its records from one rewind of its end state
(``estimate_at`` with every recorded step in it, its end included), up to
a passing check; a check computes its residual parts in order
(``residuals_at``) and stops at the first over the tolerance, so a
pairing's check rewinds b only when it reads V b - x.  At every T a
record writes its errors into one run-owned buffer, which grows as the
records come.
"""

import tracemalloc

import numpy as np
import pytest

from kaczfact import _engine, interlaced, solvers
from kaczfact.bench import RunConfig, oracle_solution, run_experiment
from kaczfact.interlaced import PAIRINGS, FactoredSystem
from kaczfact.solvers import METHODS

from test_engine_blocks import expected_run, make_target, sequential
from test_text_output import SINGLE_TRIAL_BOUND


def rhs(target):
    return target.y if isinstance(target, FactoredSystem) else target[1]


# Windows of 64 steps hold 64 records at stride 1, several at 3 and 16, one (now and then none or two) at 63, 64
# and 65, and none at 1000 but in the windows that end at 1000 and at the budget, 1100.
STRIDES = [1, 3, 16, 63, 64, 65, 1000]


@pytest.mark.parametrize("tolerance", [False, True], ids=["budget", "tolerance"])
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_one_trial_records_equal_reference(method, stride, tolerance):
    """A T = 1 run records the steps the reference records and stops where it stops, its errors within
    SINGLE_TRIAL_BOUND of the reference's, relative to 1 + ||beta*||^2; with a tolerance, which passes inside a
    window, the records stop at the passing check."""
    target = make_target(method, 9, 4, 6, seed=12, consistent=True)
    star = oracle_solution(target)
    tol = 1e-6 * (1.0 + float(np.linalg.norm(rhs(target)))) if tolerance else None
    config = RunConfig(method=method, seed=6, trials=1, budget=1100, stride=stride, tolerance=tol)
    traj = run_experiment(config, target, beta_star=star)
    records, _ = sequential(method, target, 1100, 6, 0, stride, tol, star)
    stop = max(records)
    assert (stop < 1100) == tolerance and stop % solvers.MAX_BLOCK != 0
    assert traj.iters.tolist() == sorted(records) and traj.iters[-1] == stop
    want = np.array([records[t] for t in traj.iters.tolist()])
    assert np.abs(traj.errors[0] - want).max() <= SINGLE_TRIAL_BOUND * (1.0 + float(star @ star))


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("tolerance", [1e-160, 1e160])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_extreme_tolerances_stop_where_the_reference_stops(method, tolerance, trials):
    """At tolerances whose squares underflow (1e-160) or overflow (1e160), a run stops where the reference, which
    compares norms, stops: at the budget, or at the first check, on step m = 9."""
    target = make_target(method, 9, 4, 6, seed=13, consistent=True)
    star = oracle_solution(target)
    config = RunConfig(method=method, seed=5, trials=trials, budget=300, stride=7, tolerance=tolerance)
    traj = run_experiment(config, target, beta_star=star)
    last, records = expected_run(method, target, 300, 5, trials, 7, tolerance, star)
    assert last == (9 if tolerance > 1.0 else 300)
    assert traj.iters[-1] == last
    for tr in range(trials):
        assert traj.iters.tolist() == sorted(records[tr])


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("method", ["rk", "rek-rk"])
def test_a_stop_at_the_first_check_holds_no_buffer_for_the_budget(method, trials):
    """A run with budget 10^9 and stride 1 that stops at its first check, on step m = 9, records steps 1 to 9 and
    holds well under 1 MB at its peak (tracemalloc): the error buffer grows with the records, and is not sized
    for 10^9 of them."""
    target = make_target(method, 9, 4, 6, seed=14, consistent=True)
    star = oracle_solution(target)
    config = RunConfig(method=method, seed=2, trials=trials, budget=10**9, stride=1, tolerance=1e160)
    run_experiment(config, target, beta_star=star)  # builds the samplers and Gram tables
    tracemalloc.start()
    try:
        traj = run_experiment(config, target, beta_star=star)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.iters.tolist() == list(range(1, 10)) and traj.errors.shape == (trials, 9)
    assert peak < 1 << 20


@pytest.mark.parametrize("trials", [1, 2])
def test_error_buffer_grows_past_its_first_size(trials):
    """Without a tolerance, 1100 records at stride 1, more than the buffer's first 1024, equal the reference's,
    the later ones written after the buffer has grown."""
    target = make_target("rk", 9, 4, 6, seed=15, consistent=True)
    star = oracle_solution(target)
    traj = run_experiment(RunConfig(method="rk", seed=3, trials=trials, budget=1100, stride=1), target, beta_star=star)
    _, records = expected_run("rk", target, 1100, 3, trials, 1, None, star)
    assert traj.iters.tolist() == list(range(1, 1101))
    for tr in range(trials):
        want = np.array([records[tr][t] for t in range(1, 1101)])
        assert np.abs(traj.errors[tr] - want).max() <= SINGLE_TRIAL_BOUND * (1.0 + float(star @ star))


@pytest.mark.parametrize("method", PAIRINGS)
def test_checks_read_no_inner_side_while_the_outer_one_fails(method, monkeypatch):
    """A T = 1 pairing whose U x - y never meets its tolerance (y outside range(U), 9 > k = 4) computes U x - y at
    each of its checks, every 9 steps, and no V b - x, and rewinds x at each check, to the window's last offset
    at its end, but no b: with the only record at the budget, no record rewinds b inside a window either."""
    target = make_target(method, 9, 4, 6, seed=16, consistent=False)
    star = oracle_solution(target)
    parts, rewound = [0, 0], {4: 0, 6: 0}  # residual parts computed; rewinds of x (k = 4) and b (n = 6)
    real_bind = FactoredSystem.bind

    def bind(self, method, trials):
        binding = real_bind(self, method, trials)

        def residuals_at(draws, coef, s):
            for k, part in enumerate(binding.residuals_at(draws, coef, s)):
                parts[k] += 1
                yield part

        return binding._replace(residuals_at=residuals_at)

    def counting(method):
        rewind = solvers.rewinder(method)

        def counted(v, draws, coef, steps):
            rewound[v.shape[1]] += len(steps)
            return rewind(v, draws, coef, steps)

        return counted

    monkeypatch.setattr(FactoredSystem, "bind", bind)
    monkeypatch.setattr(interlaced, "rewinder", counting)
    floor = np.linalg.norm(target.y - target.U.data @ np.linalg.lstsq(target.U.data, target.y, rcond=None)[0])
    config = RunConfig(method=method, seed=4, trials=1, budget=1024, stride=1024, tolerance=1e-3 * floor)
    traj = run_experiment(config, target, beta_star=star)
    assert traj.iters.tolist() == [1024]
    checks = 1024 // 9
    assert parts == [checks, 0]
    # One rewind of x per check, and of b only for the record at the budget, the last window's end.
    assert rewound == {4: checks, 6: 1}


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_tolerance_stops_equal_reference(method, trials):
    """With a tolerance that passes, every method stops at T = 1 and T = 3 where the reference's trials say the
    lock-step run must, and records what they record."""
    target = make_target(method, 9, 4, 6, seed=12, consistent=True)
    star = oracle_solution(target)
    tol = 1e-6 * (1.0 + float(np.linalg.norm(rhs(target))))
    config = RunConfig(method=method, seed=6, trials=trials, budget=2000, stride=5, tolerance=tol)
    traj = run_experiment(config, target, beta_star=star)
    last, records = expected_run(method, target, 2000, 6, trials, 5, tol, star)
    assert last < 2000 and traj.iters[-1] == last
    for tr in range(trials):
        assert traj.iters.tolist() == sorted(records[tr])
        want = np.array([records[tr][t] for t in traj.iters.tolist()])
        assert np.abs(traj.errors[tr] - want).max() <= 1e-10 * (1.0 + float(star @ star))


@pytest.mark.parametrize("part", ["x", "b"])
def test_a_nan_residual_never_passes_a_check(part):
    """max_residual of the residual parts of a pairing state with a nan in x or in b, whose residual part is then
    nan, is over any tolerance, as the reference's norm comparison is; the other part alone would pass.  The
    parts are read at the end of a one-step window, which is the live state."""
    target = make_target("rk-rk", 9, 4, 6, seed=18, consistent=True)
    binding = target.bind("rk-rk", 1)
    draws = tuple(sampler.draw_many(np.zeros(1)) for sampler in target.samplers("rk-rk"))
    coef = binding.advance(draws)
    x = np.linalg.lstsq(target.U.data, target.y, rcond=None)[0]
    binding.state.x[0], binding.state.b[0] = x, np.linalg.lstsq(target.V.data, x, rcond=None)[0]
    getattr(binding.state, part)[0, 0] = np.nan
    assert not _engine._Batch().max_residual(binding.residuals_at(draws, coef, 1), 1e300) <= 1e300
