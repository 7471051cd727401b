"""The lock-step engine against the per-step reference, block path included.

At T=1 the engine advances in windows of MAX_BLOCK (64) steps on every
target (block-exact stepping), and takes the records and checks due in
one at their offsets into it, rewound from its end state (the last offset
moves nothing); these tests hold it to the sequential reference
(``reference.run``) on recorded iterations, stop steps and errors.  At
T >= 2 it runs the same per-step kernel as the reference, and its errors
match it bit for bit.
Apart from the engine's scheduling, one block of each block kernel is
held to the same number of per-step kernel calls, a rewound block to a
shorter one, and a block read at its end to its live state.  Each
triangle path is held to np.linalg.solve and, through the engine, to the
reference, and concurrent T = 1 runs to the same runs made one after the
other.  A run looks up what it reads by name when it
starts, not at each window or step.
"""

import gc
import math
import sys
import threading
import weakref
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczfact import _engine, interlaced, solvers
from kaczfact.bench import RunConfig, oracle_solution, run_experiment
from kaczfact.dense import DenseMatrix
from kaczfact.interlaced import (
    PAIRINGS,
    FactoredSystem,
    bound_inputs,
    init_interlaced,
    pairing_block,
    pairing_kernel,
)
from kaczfact.sampling import master_rng, trial_rng
from kaczfact.solvers import (
    DRAWS,
    METHODS,
    SingleSystem,
    block_kernel,
    estimate,
    init_state,
    project,
    samplers,
    step_kernel,
)
from kaczfact.systems import ScenarioSpec, gen_gaussian_factored

from conftest import consistent_system, inconsistent_system, small_factored
from reference import col_project, cols_block, coord_step, row_step, rows_block, run, solve_in_buffers


def sequential(method, target, budget, seed, trial, stride, tolerance, star, err=None):
    """(records {t: error_sq}, final state) of one trial on the per-step path."""
    records = {}
    recorder = lambda t, value, flops: records.__setitem__(t, value)
    if err is None:
        err = lambda b: float(np.sum((b - star) ** 2))
    rng = trial_rng(seed, trial)
    state, _ = run(method, target, budget, rng, recorder=recorder, stride=stride, tolerance=tolerance, error_fn=err)
    return records, state


def stop_residual(method, target, state) -> float:
    """The quantity the tolerance check compares, for one trial."""
    if isinstance(target, FactoredSystem):
        res_u = target.y - target.U.data @ state.x
        res_v = state.x - target.V.data @ state.b
        return max(np.linalg.norm(res_u), np.linalg.norm(res_v))
    a, y = target
    return np.linalg.norm(y - a.data @ estimate(method, state))


def live_estimate(method, state):
    """The (T, n) estimates of a bound state, read from its arrays."""
    return state.b if isinstance(state, interlaced.InterlacedState) else estimate(method, state)


def live_parts(target, method, state):
    """The (T, rows) residual parts of a bound state, computed from its arrays: A estimate - y, or U x - y and
    then V b - x."""
    if isinstance(target, FactoredSystem):
        return [state.x @ target.U.data.T - target.y, state.b @ target.V.data.T - state.x]
    return [estimate(method, state) @ target.A.data.T - target.y]


def expected_run(method, target, budget, seed, trials, stride, tolerance, star):
    """Last step and per-trial records the engine must reproduce.

    Each trial alone stops at its first passing check; the lock-step run
    stops at the first check from there on at which every trial passes.
    """
    check_every = target.m if isinstance(target, FactoredSystem) else target[0].rows
    last = budget
    if tolerance is not None:
        first = max(max(sequential(method, target, budget, seed, tr, stride, tolerance, star)[0]) for tr in range(trials))
        last = first
        while last < budget:
            states = [sequential(method, target, last, seed, tr, stride, None, star)[1] for tr in range(trials)]
            if all(stop_residual(method, target, s) <= tolerance for s in states):
                break
            last = min(last + check_every, budget)
    return last, [sequential(method, target, last, seed, tr, stride, None, star)[0] for tr in range(trials)]


def make_target(method, m, k, n, seed, consistent):
    rng = master_rng(seed)
    if method in PAIRINGS:
        u = DenseMatrix(rng.standard_normal((m, k)))
        v = DenseMatrix(rng.standard_normal((k, n)))
        y = u.data @ (v.data @ rng.standard_normal(n)) if consistent else rng.standard_normal(m)
        return FactoredSystem(u, v, y)
    a = DenseMatrix(rng.standard_normal((m, n)))
    return a, (a.data @ rng.standard_normal(n) if consistent else rng.standard_normal(m))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    method=st.sampled_from(METHODS + PAIRINGS),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 2**16),
    consistent=st.booleans(),
    trials=st.sampled_from([1, 2, 3]),
    stride=st.sampled_from([1, 3, 7, 33]),
    budget=st.one_of(st.integers(1, 100), st.integers(1025, 1100)),
    tolerance=st.booleans(),
    # None keeps the engine's own sub-block rule; the others set the
    # block path's longest sub-block at one trial.
    round_steps=st.sampled_from([None, 2, 5, 32]),
)
def test_engine_matches_sequential_path(method, dims, seed, consistent, trials, stride, budget, tolerance, round_steps):
    target = make_target(method, *dims, seed, consistent)
    star = oracle_solution(target)
    y = target.y if isinstance(target, FactoredSystem) else target[1]
    tol = 1e-6 * (1.0 + float(np.linalg.norm(y))) if tolerance else None
    config = RunConfig(method=method, seed=seed, trials=trials, budget=budget, stride=stride, tolerance=tol)
    forced = mock.patch.object(_engine, "_round_steps", lambda t: round_steps) if round_steps and trials == 1 else nullcontext()
    with forced:
        traj = run_experiment(config, target, beta_star=star)
    last, records = expected_run(method, target, budget, seed, trials, stride, tol, star)
    assert traj.iters[-1] == last
    for tr in range(trials):
        assert traj.iters.tolist() == sorted(records[tr])
        reference = np.array([records[tr][t] for t in traj.iters])
        assert np.all(np.abs(traj.errors[tr] - reference) <= 1e-10 * (1.0 + float(star @ star)))


@pytest.mark.parametrize("block", [2, 5, 32, 64])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_block_kernel_equals_per_step_kernel(method, block, dims=(7, 4, 6)):
    """One block of B steps on (dim,) state equals B per-step kernel calls on (1, dim) views, on any state and any draws."""
    target = make_target(method, *dims, seed=block, consistent=False)
    if method in PAIRINGS:
        s = init_interlaced(method, target)
        vectors = (s.x, s.b, s.z, s.zv, s.res_u, s.res_v)
        fixed, kernel, block_step = (method, target), pairing_kernel, pairing_block
        step_samplers = target.samplers(method)
    else:
        a, y = target
        s = init_state(method, a, y)
        vectors = (s.beta, s.z, s.residual)
        fixed, kernel, block_step = (method, a, y), step_kernel, block_kernel
        step_samplers = samplers(method, a)
    rng = master_rng(100 + block)
    blocked = [None if v is None else rng.standard_normal(v.size) for v in vectors]
    stepped = [None if v is None else v.copy()[None] for v in blocked]
    # Few rows and columns, so the draws repeat indices within a block.
    draws = tuple(sampler.draw_many(rng.random(block)) for sampler in step_samplers)
    block_step(*fixed, *blocked)(draws)
    one_step = kernel(*fixed, *stepped, 0)
    for step in range(block):
        one_step(tuple(d[step : step + 1] for d in draws))
    for got, want in zip(blocked, stepped):
        if want is not None:
            assert np.all(np.abs(got - want[0]) <= 1e-10 * (1.0 + np.abs(want).max()))


@pytest.mark.parametrize("block", [2, 5, 32, 64])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_block_kernel_equals_per_step_kernel_wide_u(method, block):
    """As above on 4x7x6, where U is wide and V tall: U's row table, V's column table
    and the baseline's row table face the per-step kernel (7x4x6 covers the other sides)."""
    test_block_kernel_equals_per_step_kernel(method, block, dims=(4, 7, 6))


def gram_tables(matrix):
    """(row table, column table) memoized for matrix, held by it and its transpose; None where none is built."""
    return matrix._memo.get("gram"), matrix.T._memo.get("gram")


def sides(method, target):
    """(matrix, sides its block kernel projects on) for each matrix a method's steps act on."""
    if method in PAIRINGS:
        outer, inner = method.split("-")
        return [(target.U, DRAWS[outer]), (target.V, DRAWS[inner])]
    return [(target[0], DRAWS[method])]


def tabled(matrix) -> bool:
    """The table rule: a side gets a Gram table when it has at most twice as many rows as columns."""
    return matrix.rows <= 2 * matrix.cols


@pytest.mark.parametrize(
    "dims",
    [(13, 4, 6), (4, 13, 9), (5, 5, 5), (70, 10, 10), (20, 10, 10)],
    ids=["tall-u", "wide-u", "square", "70x10-u", "20x10-u"],
)
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_gram_tables_built_once_on_short_sides(method, dims):
    """A T = 1 run memoizes A A^T for a matrix's rows when A has at most twice as many rows as
    columns, and A^T A for its columns when A^T has, on the sides its method projects on, once
    each; a side longer than that gets no table.  The tall and wide cases hold one such side, a
    70 x 10 U or A gets no table on its rows and a 20 x 10 one, at the limit, does."""
    target = make_target(method, *dims, seed=3, consistent=False)
    config = RunConfig(method=method, seed=2, trials=1, budget=100, stride=50)
    run_experiment(config, target)
    built = [gram_tables(matrix) for matrix, _ in sides(method, target)]
    for (matrix, draws), (rows, cols) in zip(sides(method, target), built):
        a = matrix.data
        assert (rows is not None) == ("row" in draws and tabled(matrix))
        assert (cols is not None) == ("col" in draws and tabled(matrix.T))
        if rows is not None:
            assert np.allclose(rows, a @ a.T, rtol=1e-13, atol=1e-13)
        if cols is not None:
            assert np.allclose(cols, a.T @ a, rtol=1e-13, atol=1e-13)
    run_experiment(config, target)
    for (matrix, _), tables in zip(sides(method, target), built):
        assert all(again is first for again, first in zip(gram_tables(matrix), tables))


def held(matrix) -> list:
    """Weak references to matrix, its transpose and every sampler and Gram table the two memoize."""
    return [weakref.ref(x) for key in (matrix, matrix.T) for x in (key, *key._memo.values())]


def test_matrix_is_freed_by_refcounting():
    """A matrix, its transpose and the samplers and Gram tables memoized for both go with the last
    reference to the matrix, with no garbage-collection pass: nothing in them refers back to the matrix."""
    a = make_target("rek", 5, 1, 5, seed=6, consistent=False)[0]
    target = SingleSystem(a, np.ones(5))
    gc.collect()
    gc.disable()
    try:
        # rek draws rows and columns, and on a square matrix both sides get a Gram table.
        run_experiment(RunConfig(method="rek", seed=2, trials=1, budget=100, stride=50), target)
        for key in (a, a.T):
            assert set(key._memo) == {"sampler", "gram"}
        alive = held(a)
        del a, target, key
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()


def test_factors_are_freed_by_refcounting():
    """As above for a pairing: after a T = 1 rek-rk run, U, V, their transposes and what they memoize go
    with the last reference to the system, with no garbage-collection pass."""
    target = make_target("rek-rk", 6, 5, 6, seed=6, consistent=False)
    gc.collect()
    gc.disable()
    try:
        # rek on U draws its rows and columns, rk on V its rows; on these near-square factors each gets a table.
        run_experiment(RunConfig(method="rek-rk", seed=2, trials=1, budget=100, stride=50), target)
        assert [set(key._memo) for key in (target.U, target.U.T, target.V)] == [{"sampler", "gram"}] * 3
        alive = held(target.U) + held(target.V)
        del target
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()


@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_no_gram_table_without_block_kernel(method):
    """Multi-trial runs step per step and bound_inputs runs no solver, so neither builds a table."""
    target = make_target(method, 4, 7, 6, seed=4, consistent=False)
    run_experiment(RunConfig(method=method, seed=2, trials=3, budget=100, stride=50), target)
    if method in PAIRINGS:
        bound_inputs(target)
    for matrix, _ in sides(method, target):
        assert all(table is None for table in gram_tables(matrix))


@pytest.mark.parametrize("trials", [2, 3])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_multi_trial_errors_are_bit_identical(method, trials):
    """At T >= 2 the engine steps with the per-step path's kernel, so recorded errors match exactly."""
    if method in PAIRINGS:
        target, seed = gen_gaussian_factored(ScenarioSpec("S3b", m=24, n=15, k=8, seed=97)).system, 12
    else:
        a, y, _ = inconsistent_system(24, 9, seed=96)
        target, seed = (a, y), 11
    star = oracle_solution(target)

    def engine_error(b):
        # The engine's error formula, applied to one trial.
        diff = (b - star)[None]
        return np.einsum("ij,ij->i", diff, diff)[0]

    traj = run_experiment(RunConfig(method, seed, trials=trials, budget=300, stride=25), target, beta_star=star)
    for tr in range(trials):
        records, _ = sequential(method, target, 300, seed, tr, 25, None, star, err=engine_error)
        assert traj.errors[tr].tolist() == [records[t] for t in traj.iters.tolist()]


@pytest.fixture
def counted_calls(monkeypatch):
    """(steps, calls): the steps T = 1 runs have taken so far, and the per-step and block kernel calls."""
    steps, calls = [0], {"kernel": 0, "block": 0}

    def counted(bind, kind):
        def bound(*args):
            fn = bind(*args)

            def run_steps(*args):
                # The draws come first: (T,) arrays for one step, (B,) for a block.
                steps[0] += args[0][0].shape[0] if kind == "block" else 1
                calls[kind] += 1
                return fn(*args)

            return run_steps

        return bound

    # The targets' bind() binds the kernels from these names.
    monkeypatch.setattr(solvers, "step_kernel", counted(solvers.step_kernel, "kernel"))
    monkeypatch.setattr(interlaced, "pairing_kernel", counted(interlaced.pairing_kernel, "kernel"))
    monkeypatch.setattr(solvers, "block_kernel", counted(solvers.block_kernel, "block"))
    monkeypatch.setattr(interlaced, "pairing_block", counted(interlaced.pairing_block, "block"))
    return steps, calls


@pytest.mark.parametrize("trials, steps", [(1, solvers.MAX_BLOCK), (3, 1)], ids=["windows", "steps"])
@pytest.mark.parametrize("method", ["rek-rk", "rek"])
def test_a_run_resolves_its_names_once(method, trials, steps, monkeypatch):
    """What a run reads by name (``DenseMatrix.memo``, a matrix's ``T``, ``data`` and ``row_sqnorms``, and
    ``interlaced._split``) it reads when it starts: a run of 40 T = 1 windows, or of 40 T = 3 steps, with records
    every 7 steps and a tolerance that never passes, so that records and checks fall inside windows, makes as many
    of these calls as one of 20 on the same target.  Both sides of rek and the rows of V read Gram tables."""
    target = make_target(method, 9, 4, 6, seed=8, consistent=False)
    if method not in PAIRINGS:
        target = SingleSystem(*target)
    star = oracle_solution(target)
    calls = {}

    def counted(name, fn):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return call

    monkeypatch.setattr(DenseMatrix, "memo", counted("memo", DenseMatrix.memo))
    for name in ("T", "data", "row_sqnorms"):
        monkeypatch.setattr(DenseMatrix, name, property(counted(name, getattr(DenseMatrix, name).fget)))
    monkeypatch.setattr(interlaced, "_split", counted("_split", interlaced._split))
    seen = []
    for count in (20, 20, 40):  # the first run also builds the samplers and Gram tables
        calls.clear()
        config = RunConfig(method=method, seed=4, trials=trials, budget=count * steps, stride=7, tolerance=1e-300)
        run_experiment(config, target, beta_star=star)
        seen.append(dict(calls))
    assert seen[1] == seen[2]
    assert seen[1]["memo"] and seen[1]["data"] and ("_split" in seen[1]) == (method in PAIRINGS)


def assert_records_match(traj, records, star):
    assert traj.iters.tolist() == sorted(records)
    reference = np.array([records[t] for t in traj.iters])
    assert np.all(np.abs(traj.errors[0] - reference) <= 1e-10 * (1.0 + float(star @ star)))


@pytest.mark.parametrize("method", ["rk", "rk-rk"])
def test_one_trial_tolerance_checks_every_m_steps(method, counted_calls, monkeypatch):
    """A tolerance-stopped T=1 run checks at m, 2m, ... and stops where the per-step path does.

    Checks every 20 steps and records every 21 fall inside the target's
    windows, so they read residual parts rewound from the windows' ends, and
    no per-step kernel runs.
    """
    if method == "rk-rk":
        target, _ = small_factored(20, 5, 10, seed=94)
    else:
        a, y, _ = consistent_system(20, 6, seed=95)
        target = (a, y)
    star = oracle_solution(target)
    steps, calls = counted_calls
    checks = []

    def tagging(cls):
        real = cls.bind

        def bind(self, method, trials):
            binding = real(self, method, trials)

            def residuals_at(draws, coef, s):
                # The step s steps into the window that just ran, whose (B,) draws are given.
                checks.append(steps[0] - draws[0].size + s)
                return binding.residuals_at(draws, coef, s)

            return binding._replace(residuals_at=residuals_at)

        return bind

    for cls in (SingleSystem, FactoredSystem):
        monkeypatch.setattr(cls, "bind", tagging(cls))
    budget, tol, stride = 100_000, 1e-10, 21
    config = RunConfig(method=method, seed=9, trials=1, budget=budget, stride=stride, tolerance=tol)
    traj = run_experiment(config, target, beta_star=star)
    stop = int(traj.iters[-1])
    records, _ = sequential(method, target, budget, 9, 0, stride, tol, star)
    assert stop < budget and max(records) == stop
    assert checks == list(range(20, stop + 1, 20))
    assert calls == {"kernel": 0, "block": -(-stop // solvers.MAX_BLOCK)}
    assert_records_match(traj, records, star)


@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_records_and_checks_cut_no_block(method, counted_calls):
    """2048 T = 1 steps with records every 7 and a tolerance that never fires run as 32 blocks of MAX_BLOCK
    (64) steps, on pairings, whose U rows (9 > 2 x 4) compute their Gram matrix, as on baselines."""
    target = make_target(method, 9, 4, 6, seed=8, consistent=False)
    star = oracle_solution(target)
    steps, calls = counted_calls
    config = RunConfig(method=method, seed=4, trials=1, budget=2048, stride=7, tolerance=1e-300)
    traj = run_experiment(config, target, beta_star=star)
    assert calls == {"kernel": 0, "block": 2048 // solvers.MAX_BLOCK} and steps[0] == 2048
    records, _ = sequential(method, target, 2048, 4, 0, 7, None, star)
    assert_records_match(traj, records, star)


@pytest.mark.parametrize("method", PAIRINGS)
def test_records_rewind_only_the_estimate(method, counted_calls, monkeypatch):
    """A T = 1 pairing's records rewind b alone, in one call per window, those at a window's end to its last
    offset: with no tolerance no rewind acts on x, and with one x is rewound once at each check step and nowhere
    else.  b is rewound once per window that holds records, at all of them, and a check whose U x - y is over
    the tolerance (1e-300 here) rewinds no b.  x has k = 4 entries and b n = 6, which tells the rewinds apart;
    records fall every 7 steps and at the budget, and checks every m = 9."""
    target = make_target(method, 9, 4, 6, seed=8, consistent=False)
    star = oracle_solution(target)
    steps, _ = counted_calls

    def counting(method):
        rewind = solvers.rewinder(method)

        def counted(v, draws, coef, at):
            # The end state v rewound to the steps at of the block that just ran, whose (B,) draws are given.
            rewound[v.shape[1]].append([steps[0] - draws.size + s for s in at])
            return rewind(v, draws, coef, at)

        return counted

    monkeypatch.setattr(interlaced, "rewinder", counting)
    for tolerance in (None, 1e-300):
        rewound = {4: [], 6: []}  # length of the rewound vector -> the steps of each rewind call
        steps[0] = 0
        config = RunConfig(method=method, seed=4, trials=1, budget=2048, stride=7, tolerance=tolerance)
        traj = run_experiment(config, target, beta_star=star)
        checks = [] if tolerance is None else [*range(9, 2049, 9)]
        assert rewound[4] == [[e] for e in checks]
        windows = range(2048 // solvers.MAX_BLOCK)
        recorded = [*range(7, 2049, 7), 2048]
        by_window = [[e for e in recorded if (e - 1) // solvers.MAX_BLOCK == w] for w in windows]
        assert rewound[6] == [window for window in by_window if window]
        records, _ = sequential(method, target, 2048, 4, 0, 7, None, star)
        assert_records_match(traj, records, star)


# (method, dims): (m, k, n) for a pairing, (m, n) for a baseline.  The comments name the drawn side with
# more than twice as many rows as columns, which computes its Gram matrix instead of reading a table.
WINDOW_CASES = [
    ("rk-rk", (10, 8, 6)),
    ("rk-rk", (20, 8, 6)),  # U's rows
    ("rk-rk", (10, 8, 3)),  # V's rows
    ("rek-rk", (10, 8, 6)),
    ("rek-rk", (4, 10, 12)),  # U's columns
    ("rgs-rgs", (20, 5, 8)),  # none: tall U, but only its columns are drawn
    ("rgs-rgs", (10, 5, 12)),  # V's columns
    ("rk", (10, 8)),
    ("rk", (20, 8)),  # A's rows
    ("rgs", (20, 8)),
    ("rgs", (8, 20)),  # A's columns
    ("rek", (10, 8)),
    ("regs", (8, 20)),  # A's columns
]


@pytest.mark.parametrize("method, dims", WINDOW_CASES, ids=[f"{m}-{'x'.join(map(str, d))}" for m, d in WINDOW_CASES])
def test_window_follows_the_gram_rule(method, dims, counted_calls):
    """Whichever side of the Gram rule a T = 1 target's drawn sides fall on, gathering their Gram matrices
    from tables or computing them as rows @ rows.T, it runs MAX_BLOCK-step windows: 1024 steps take
    1024 / MAX_BLOCK block calls and no per-step call."""
    if method in PAIRINGS:
        target = make_target(method, *dims, seed=13, consistent=False)
    else:
        target = SingleSystem(*make_target(method, dims[0], 1, dims[1], seed=13, consistent=False))
    steps, calls = counted_calls
    run_experiment(RunConfig(method=method, seed=2, trials=1, budget=1024, stride=1024), target)
    assert calls == {"kernel": 0, "block": 1024 // solvers.MAX_BLOCK} and steps[0] == 1024


@pytest.mark.parametrize("tolerance", [None, 1e-300], ids=["no-tolerance", "tolerance"])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_one_step_window_runs_the_block_kernel(method, tolerance, counted_calls):
    """A T = 1 run of 1025 steps ends in a one-step window, the second sampling block's only step.  It runs
    as 1024 / MAX_BLOCK blocks and a block of one step, with no per-step kernel call, and records what the
    reference records.  With a tolerance that never passes, checks every m = 5 steps fall inside windows
    and on the last step, which reads the state the one-step block left."""
    target = make_target(method, 5, 4, 6, seed=15, consistent=False)
    star = oracle_solution(target)
    steps, calls = counted_calls
    config = RunConfig(method=method, seed=4, trials=1, budget=1025, stride=7, tolerance=tolerance)
    traj = run_experiment(config, target, beta_star=star)
    assert calls == {"kernel": 0, "block": 1024 // solvers.MAX_BLOCK + 1} and steps[0] == 1025
    records, _ = sequential(method, target, 1025, 4, 0, 7, None, star)
    assert_records_match(traj, records, star)


def test_window_lengths_divide_the_sampling_block():
    """The window length divides the 1024-step sampling block, so only the budget cuts a T = 1 window short."""
    assert _engine._BLOCK % solvers.MAX_BLOCK == 0


@pytest.mark.parametrize("b", [1, 7, 64])
@pytest.mark.parametrize("shape", [(5, 9), (9, 5), (6, 6)], ids=["wide", "tall", "square"])
def test_cross_sum_equals_its_definition(shape, b):
    """Entry s of cross_sum is the sum over r <= s of M[at[s], by[r]] coef[r], to within B eps of the sum
    of the terms' magnitudes, with the rows it reads given as at_rows = M[at] and as by_rows = M.T[by];
    the indices repeat."""
    rng = master_rng(400 + b)
    M = DenseMatrix(rng.standard_normal(shape))
    at, by, coef = rng.integers(0, shape[0], b), rng.integers(0, shape[1], b), rng.standard_normal(b)
    if b > 1:
        assert np.unique(at).size < b or np.unique(by).size < b
    terms = [[M.data[at[s], by[r]] * coef[r] for r in range(s + 1)] for s in range(b)]
    want = np.array([math.fsum(t) for t in terms])
    scale = np.array([math.fsum(abs(x) for x in t) for t in terms])
    for rows in ({"at_rows": M.data.take(at, 0)}, {"by_rows": M.T.data.take(by, 0)}):
        got = solvers.cross_summer()(at, by, coef, **rows)
        assert got.shape == (b,)
        assert np.all(np.abs(got - want) <= b * np.finfo(np.float64).eps * scale), list(rows)


@pytest.mark.parametrize("method", ["rk-rk", "rek-rk"])
def test_tall_factors_match_reference(method):
    """A T = 1 run on a tall 600 x 200 x 20 system records what the sequential reference records, to
    rounding.  U's and V's rows compute their Gram matrices in MAX_BLOCK-step windows, and the drift
    reads the rows of U (length 200) that the outer side gathered; no row of U.T (length 600) is read."""
    target = make_target(method, 600, 200, 20, seed=23, consistent=False)
    assert _engine._round_steps(1) == solvers.MAX_BLOCK
    star = oracle_solution(target)
    traj = run_experiment(RunConfig(method=method, seed=7, trials=1, budget=300, stride=10), target, beta_star=star)
    records, _ = sequential(method, target, 300, 7, 0, 10, None, star)
    assert_records_match(traj, records, star)


@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_block_rewound_equals_shorter_block(method):
    """A 32-step block read at offset s equals an s-step block from the same start, for s = 1..32, the block's
    end included: each residual part residuals_at yields equals the shorter block's live part, and so do the
    estimates at all 32 offsets from one estimate_at call; few rows and columns make the draws repeat."""
    target = make_target(method, 7, 4, 6, seed=10, consistent=False)
    if method not in PAIRINGS:
        target = SingleSystem(*target)
    rng = master_rng(300)
    start = [None if v is None else rng.standard_normal(v.shape[1]) for v in vars(target.bind(method, 1).state).values()]

    def bound_at_start():
        # A T = 1 binding whose state (the (1, dim) arrays its block kernel steps) holds start.
        binding = target.bind(method, 1)
        for v, value in zip(vars(binding.state).values(), start):
            if v is not None:
                v[0] = value
        return binding

    def close(got, want, what):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), what

    draws = tuple(sampler.draw_many(rng.random(32)) for sampler in target.samplers(method))
    assert all(np.unique(d).size < 32 for d in draws)
    ended = bound_at_start()
    coef = ended.advance(draws)
    estimates = ended.estimate_at(draws, coef, list(range(1, 33)))
    assert estimates.shape == (32, target.n)
    for s in range(1, 33):
        shorter = bound_at_start()
        shorter.advance(tuple(d[:s] for d in draws))
        got = [*ended.residuals_at(draws, coef, s)]
        live = live_parts(target, method, shorter.state)
        assert len(got) == len(live)
        for k, (part, want) in enumerate(zip(got, live)):
            close(part, want, (s, k))
        close(estimates[s - 1 : s], live_estimate(method, shorter.state), s)


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_end_offset_reads_the_live_state(method, trials):
    """Offset B, a window's end, moves nothing: after windows of 64, 37 and 1 steps at T = 1, estimate_at(...,
    [B]) and each part residuals_at yields at B equal the live estimate and residual parts, as do the estimates
    and parts after one step at T = 3."""
    target = make_target(method, 7, 4, 6, seed=19, consistent=False)
    if method not in PAIRINGS:
        target = SingleSystem(*target)
    rng = master_rng(301)
    binding = target.bind(method, trials)
    for size in (64, 37, 1) if trials == 1 else (1,):
        # (B,) draws of a window at T = 1, (T,) draws of a step at T = 3.
        draws = tuple(sampler.draw_many(rng.random(size * trials)) for sampler in target.samplers(method))
        coef = binding.advance(draws)
        got = [*binding.residuals_at(draws, coef, size)]
        live = live_parts(target, method, binding.state)
        assert len(got) == len(live)
        assert all(np.array_equal(part, want) for part, want in zip(got, live)), size
        assert np.array_equal(binding.estimate_at(draws, coef, [size]), live_estimate(method, binding.state)), size


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    count=st.sampled_from([1, 2, 5]),
    seed=st.integers(0, 2**16),
    with_rhs=st.booleans(),
    repeat=st.booleans(),
)
def test_projections_equal_per_side_formulas(shape, count, seed, with_rhs, repeat):
    """``project`` and the block projection, one for rows of A and of A.T, equal the per-side formulas in
    ``reference`` bit for bit (up to the sign of an exact zero): the row step's coefficient is negated,
    as (rhs - p) / s == -((p - rhs) / s) exactly, and everything else is the same sum.  count is the
    number of trials of a step and the length of a block; with repeat a block draws one index twice."""
    rng = master_rng(seed)
    a = DenseMatrix(rng.standard_normal(shape))
    m, n = shape
    col_sqnorms = (a.data * a.data).sum(axis=0)
    i, j = rng.integers(0, m, count), rng.integers(0, n, count)
    if repeat:
        i[-1], j[-1] = i[0], j[0]
    rhs = rng.standard_normal(count) if with_rhs else None

    def same(got, want):
        return got.shape == want.shape and np.array_equal(got, want)

    # Per step, on (count, dim) state: a row step (rk, rek) or a row projection of z (regs) on rows of A,
    # a column projection of z (rek) and a coordinate step (rgs, regs) on rows of A.T.
    beta, z, residual = (rng.standard_normal((count, dim)) for dim in (n, m, m))
    ours = [v.copy() for v in (beta, z, residual)]
    rows, sqnorms = a.data[i], a.row_sqnorms[i]
    if with_rhs:
        assert same(-project(ours[0], rows.copy(), sqnorms, rhs), row_step(beta, rows.copy(), rhs, sqnorms))
    else:
        assert same(project(ours[0], rows.copy(), sqnorms), col_project(beta, rows.copy(), sqnorms))
    assert same(project(ours[1], a.T.data[j], a.T.row_sqnorms[j]), col_project(z, a.data.T[j], col_sqnorms[j]))
    gamma = coord_step(beta, residual, a.data.T[j], (np.arange(count), j), col_sqnorms[j])
    c = project(ours[2], a.T.data[j], a.T.row_sqnorms[j])
    ours[0][np.arange(count), j] += c
    assert same(c, gamma)
    assert all(same(got, want) for got, want in zip(ours, (beta, z, residual)))

    # One block, on (dim,) state: rows of A against rhs, and columns of A with a drift, which the
    # column formula adds to the inner product and the block projection takes as its rhs negated.
    beta, z = rng.standard_normal(n), rng.standard_normal(m)
    ours = [beta.copy(), z.copy()]
    row_rhs = np.zeros(count) if rhs is None else rhs
    assert same(-solvers._projector(a)(ours[0], i, rhs, a.data.take(i, 0)), rows_block(a, beta, i, row_rhs))
    drift = None if rhs is None else -rhs
    assert same(solvers._projector(a.T)(ours[1], j, rhs, a.T.data.take(j, 0)), cols_block(a, z, j, drift))
    assert same(ours[0], beta) and same(ours[1], z)


def lower_cases(b):
    """(name, vecs, diag) per kind of block: distinct rows, a repeated index, and rows of growing
    norm along one direction, whose entry (s, r) exceeds diagonal r for s > r so that dgesv pivots."""
    rng = master_rng(200 + b)
    rows = solvers.MAX_BLOCK + 8
    a = DenseMatrix(rng.standard_normal((rows, 6)))
    distinct = rng.permutation(rows)[:b]
    repeated = np.append(distinct[: b - 1], distinct[0])
    aligned = DenseMatrix((rng.standard_normal(6) + 0.01 * rng.standard_normal((b, 6))) * 2.0 ** np.arange(b)[:, None])
    return [
        ("distinct", a.data[distinct], a.row_sqnorms[distinct]),
        ("repeated", a.data[repeated], a.row_sqnorms[repeated]),
        ("pivoting", aligned.data, aligned.row_sqnorms),
    ]


# The triangle paths by the name BLOCK_SOLVER gives them; dtrsv only where this numpy build exports it.
SOLVE_PATHS = {"dgesv": solvers._solve_lower_dgesv, "cblas_dtrsv": solvers._solve_lower_dtrsv}
needs_dtrsv = pytest.mark.skipif(solvers.BLOCK_SOLVER != "cblas_dtrsv", reason="numpy exports no CBLAS dtrsv")
EACH_PATH = ["dgesv", pytest.param("cblas_dtrsv", marks=needs_dtrsv)]


@pytest.fixture(params=EACH_PATH)
def solve_path(request, monkeypatch):
    """Each triangle path in turn, forced as the one the block projection and the reference call."""
    monkeypatch.setattr(solvers, "_solve_lower", SOLVE_PATHS[request.param])
    return request.param


def test_default_solve_path_is_named():
    """BLOCK_SOLVER, which single-trial manifests write, names the path that runs."""
    assert solvers._solve_lower is SOLVE_PATHS[solvers.BLOCK_SOLVER]


def substitution(lower, rhs):
    """Forward substitution on the lower triangle in long double, rounded back to float64 at the end."""
    lower, x = lower.astype(np.longdouble), np.zeros(rhs.size, dtype=np.longdouble)
    for s in range(rhs.size):
        x[s] = (rhs[s] - lower[s, :s] @ x[:s]) / lower[s, s]
    return x.astype(np.float64)


@pytest.mark.parametrize("b", range(1, solvers.MAX_BLOCK + 1))
def test_solve_lower_equals_linalg_solve(b):
    """Each path this numpy build has solves the masked triangle L x = rhs to rounding, pivoting-prone cases
    included.  dtrsv is within 4 B eps |L^-1| |L| |x| of forward substitution in long double, componentwise:
    a componentwise backward error of d |L| moves a solution by at most about d |L^-1| |L| |x|, and
    substitution's d is at most B eps (Higham, Thm 8.5), in either precision (measured 0.02 B eps).  dgesv
    makes np.linalg.solve's own call: equal bits.  np.linalg.solve is no yardstick for the substitution:
    partial-pivoting LU has no componentwise backward bound, and on the 64-step pivoting case here it is
    about 1e9 B eps |L^-1| |L| |x| off."""
    rng = master_rng(b)
    eps = np.finfo(np.float64).eps
    paths = sorted({"dgesv", solvers.BLOCK_SOLVER})
    for name, vecs, diag in lower_cases(b):
        gram = vecs @ vecs.T
        masked = gram * np.tril(np.ones((b, b)))
        masked[np.diag_indices(b)] = diag
        if name == "pivoting" and b > 1:
            assert np.any(np.tril(masked, -1) > diag[None, :])
        rhs = rng.standard_normal(b)
        want = substitution(masked, rhs)
        skeel = np.abs(np.linalg.inv(masked)) @ (np.abs(masked) @ np.abs(want))
        for path in paths:
            got = solve_in_buffers(SOLVE_PATHS[path], gram, rhs, diag)
            if path == "dgesv":
                assert np.array_equal(got, np.linalg.solve(masked, rhs)), name
            else:
                assert np.all(np.abs(got - want) <= 4 * b * eps * skeel), (name, path)


@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_block_path_calls_no_linalg_solve(method, monkeypatch):
    """A T = 1 run's sub-blocks solve their triangles without np.linalg.solve."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    target = make_target(method, 7, 4, 6, seed=5, consistent=False)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    run_experiment(RunConfig(method=method, seed=3, trials=1, budget=200, stride=100), target)


@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_one_trial_engine_matches_reference_on_each_solve_path(method, solve_path, monkeypatch):
    """On either triangle path, a tolerance-checked T = 1 run records and stops as the sequential
    reference does, its errors within the engine test's rounding bound; the forced path is the one
    the run's blocks called."""
    forced, calls = solvers._solve_lower, []
    monkeypatch.setattr(solvers, "_solve_lower", lambda b: calls.append(b) or forced(b))
    target = make_target(method, 9, 4, 6, seed=12, consistent=True)
    star = oracle_solution(target)
    y = target.y if isinstance(target, FactoredSystem) else target[1]
    tol = 1e-6 * (1.0 + float(np.linalg.norm(y)))
    config = RunConfig(method=method, seed=6, trials=1, budget=1100, stride=9, tolerance=tol)
    traj = run_experiment(config, target, beta_star=star)
    assert calls
    last, records = expected_run(method, target, 1100, 6, 1, 9, tol, star)
    assert traj.iters[-1] == last
    assert_records_match(traj, records[0], star)


# (m, k, n) of make_target, a baseline's A being m x n.  The first reads every Gram matrix from a table; in the
# second U's, V's and A's rows compute theirs, and in the third U.T's, V.T's and A.T's.  Every cross sum reads
# rows its block gathered: a row-outer pairing's the outer rows of U, rgs-rgs's the inner rows of V.T, and rek's
# and regs's the rows of A.
RANGE_DIMS = [(12, 8, 10), (30, 14, 6), (5, 12, 30)]


@pytest.mark.parametrize("dims", RANGE_DIMS, ids=["tabled", "long-rows", "long-columns"])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_out_of_range_draws_raise_in_a_block(method, dims):
    """A block whose draw d holds one index equal to the row count of the side it draws from raises
    IndexError, for every d: the Gram, norm and cross-sum gathers into the triangle buffers take, unchecked,
    only at draws that a checked take in the same block has read, and a cross sum reads only rows the block
    gathered."""
    target = make_target(method, *dims, seed=14, consistent=False)
    if method not in PAIRINGS:
        target = SingleSystem(*target)
    rng = master_rng(500)
    sides = target.samplers(method)
    draws = tuple(sampler.draw_many(rng.random(16)) for sampler in sides)
    for d, sampler in enumerate(sides):
        bad = [ix.copy() for ix in draws]
        bad[d][5] = sampler.size
        with pytest.raises(IndexError):
            target.bind(method, 1).advance(tuple(bad))


@pytest.mark.parametrize("shape", [(12, 5), (9, 5), (5, 9)], ids=["long", "tall", "wide"])
def test_block_results_are_not_views_of_the_buffers(shape, solve_path):
    """A block projection's coefficients and cross sums, from rows given either way, keep their values
    through block projections and cross sums of every length after them on the same thread, on either
    triangle path: none is a view of the buffers it was computed in."""
    rng = master_rng(600)
    M = DenseMatrix(rng.standard_normal(shape))

    def block(b):
        idx, by = rng.integers(0, shape[0], b), rng.integers(0, shape[1], b)
        v, rhs, rows = rng.standard_normal(shape[1]), rng.standard_normal(b), M.data.take(idx, 0)
        c, cross_sum = solvers._projector(M)(v, idx, rhs, rows), solvers.cross_summer()
        return c, cross_sum(idx, by, c, rows), cross_sum(idx, by, c, by_rows=M.T.data.take(by, 0))

    kept = block(solvers.MAX_BLOCK)
    want = [a.copy() for a in kept]
    for b in range(1, solvers.MAX_BLOCK + 1):
        block(b)
    assert all(np.array_equal(got, w) for got, w in zip(kept, want))


def solve_buffer_bytes() -> int:
    """Bytes of the arrays that own the memory of this thread's triangle-solve buffers."""
    owners, pending = {}, [vars(solvers._buffers)]
    while pending:
        item = pending.pop()
        if isinstance(item, np.ndarray):
            while item.base is not None:
                item = item.base
            owners[id(item)] = item
        elif isinstance(item, dict):
            pending.extend(item.values())
        elif isinstance(item, (list, tuple)):
            pending.extend(item)
    return sum(a.nbytes for a in owners.values())


@needs_dtrsv
def test_solve_buffers_are_one_matrix_and_one_vector_per_thread():
    """Each thread's triangle solves share one (MAX_BLOCK, MAX_BLOCK) matrix and one (MAX_BLOCK,) vector,
    whatever the block length: at most (MAX_BLOCK^2 + MAX_BLOCK) 8 bytes, in the main thread and in a new one."""
    limit = (solvers.MAX_BLOCK**2 + solvers.MAX_BLOCK) * 8
    assert solve_buffer_bytes() <= limit
    seen = []
    worker = threading.Thread(target=lambda: seen.append(solve_buffer_bytes()))
    worker.start()
    worker.join(timeout=60)
    assert seen and seen[0] <= limit


def test_concurrent_one_trial_runs_equal_runs_one_after_another():
    """Four threads, more than this suite's two cores, that each run a T = 1 rek-rk and a T = 1 regs run at
    once write the bytes that the same runs write one after the other.  The triangle solve releases the
    GIL, so each thread needs buffers of its own; a short switch interval makes the threads interleave."""
    runs = [
        ("rek-rk", make_target("rek-rk", 30, 12, 20, seed=21, consistent=False), 3),
        ("regs", SingleSystem(*make_target("regs", 30, 20, 20, seed=22, consistent=False)), 4),
    ]

    def solve(method, target, seed):
        traj = run_experiment(RunConfig(method=method, seed=seed, trials=1, budget=3000, stride=1), target)
        return traj.iters.tobytes() + traj.errors.tobytes()

    want = [solve(*run) for run in runs]
    orders = [(0, 1), (1, 0)] * 2
    got = [None] * len(orders)

    def worker(n):
        try:
            got[n] = [solve(*runs[k]) for k in orders[n]]
        except Exception as exc:  # handed to the main thread, which fails on it
            got[n] = exc

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for n, order in enumerate(orders):
        assert got[n] == [want[k] for k in order]
