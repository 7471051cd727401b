"""The lock-step engine against the per-step reference, block path included.

At T=1 the engine advances in 32-step blocks (block-exact stepping) and
takes the records and checks that fall inside one from a snapshot rewound
from its end; these tests hold it to the sequential reference
(``reference.run``) on recorded iterations, stop steps and errors.  At
T >= 2 it runs the same per-step kernel as the reference, and its errors
match it bit for bit.
Apart from the engine's scheduling, one block of each block kernel is
held to the same number of per-step kernel calls, and a rewound block to
a shorter one.
"""

import gc
import weakref
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczfact import _engine, interlaced, sampling, solvers
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
from reference import col_project, cols_block, coord_step, row_step, rows_block, run


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


@pytest.mark.parametrize("block", [2, 5, 32])
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
    block_step(*fixed, *blocked, draws)
    for step in range(block):
        kernel(*fixed, *stepped, 0, tuple(d[step : step + 1] for d in draws))
    for got, want in zip(blocked, stepped):
        if want is not None:
            assert np.all(np.abs(got - want[0]) <= 1e-10 * (1.0 + np.abs(want).max()))


@pytest.mark.parametrize("block", [2, 5, 32])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_block_kernel_equals_per_step_kernel_wide_u(method, block):
    """As above on 4x7x6, where U is wide and V tall: U's row table, V's column table
    and the baseline's row table face the per-step kernel (7x4x6 covers the other sides)."""
    test_block_kernel_equals_per_step_kernel(method, block, dims=(4, 7, 6))


def gram_tables(matrix):
    """(row table, column table) memoized for matrix, keyed by it and its transpose; None where none is built."""
    return solvers._grams.get(matrix), solvers._grams.get(matrix.T)


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


def test_matrix_is_freed_by_refcounting():
    """A matrix, its transpose and the samplers and Gram tables memoized for both go with the last
    reference to the matrix, with no garbage-collection pass: nothing in them refers back to the matrix."""
    a = make_target("rek", 5, 1, 5, seed=6, consistent=False)[0]
    target = SingleSystem(a, np.ones(5))
    gc.collect()
    gc.disable()
    try:
        before = len(sampling._cache), len(solvers._grams)
        # rek draws rows and columns, and on a square matrix both sides get a Gram table.
        run_experiment(RunConfig(method="rek", seed=2, trials=1, budget=100, stride=50), target)
        for key in (a, a.T):
            assert key in sampling._cache and key in solvers._grams
        alive = weakref.ref(a), weakref.ref(a.T)
        del a, target, key
        assert all(ref() is None for ref in alive)
        assert (len(sampling._cache), len(solvers._grams)) == before
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

    def counted(fn, kind):
        def run_steps(*args):
            # The draws come last: (T,) arrays for one step, (B,) for a block.
            steps[0] += args[-1][0].shape[0] if kind == "block" else 1
            calls[kind] += 1
            return fn(*args)

        return run_steps

    # The targets' kernels() bind the kernels from these names.
    monkeypatch.setattr(solvers, "step_kernel", counted(solvers.step_kernel, "kernel"))
    monkeypatch.setattr(interlaced, "pairing_kernel", counted(interlaced.pairing_kernel, "kernel"))
    monkeypatch.setattr(solvers, "block_kernel", counted(solvers.block_kernel, "block"))
    monkeypatch.setattr(interlaced, "pairing_block", counted(interlaced.pairing_block, "block"))
    return steps, calls


def assert_records_match(traj, records, star):
    assert traj.iters.tolist() == sorted(records)
    reference = np.array([records[t] for t in traj.iters])
    assert np.all(np.abs(traj.errors[0] - reference) <= 1e-10 * (1.0 + float(star @ star)))


@pytest.mark.parametrize("method", ["rk", "rk-rk"])
def test_one_trial_tolerance_checks_every_m_steps(method, counted_calls, monkeypatch):
    """A tolerance-stopped T=1 run checks at m, 2m, ... and stops where the per-step path does.

    Checks every 20 steps and records every 21 fall inside 32-step
    blocks, so they read snapshots rewound from the blocks' ends, and no
    per-step kernel runs.
    """
    if method == "rk-rk":
        target, _ = small_factored(20, 5, 10, seed=94)
    else:
        a, y, _ = consistent_system(20, 6, seed=95)
        target = (a, y)
    star = oracle_solution(target)
    steps, calls = counted_calls
    checks = []
    real_check = _engine._Batch.max_residual

    def snapshotting(cls):
        real = cls.snapshot

        def snapshot(self, method, state, draws, coef, s):
            snap = real(self, method, state, draws, coef, s)
            snap.step = steps[0] - draws[0].size + s
            return snap

        return snapshot

    def max_residual(self, state):
        # A check at a block's end reads the live state, which has no step of its own.
        checks.append(getattr(state, "step", steps[0]))
        return real_check(self, state)

    for cls in (SingleSystem, FactoredSystem):
        monkeypatch.setattr(cls, "snapshot", snapshotting(cls))
    monkeypatch.setattr(_engine._Batch, "max_residual", max_residual)
    budget, tol, stride = 100_000, 1e-10, 21
    config = RunConfig(method=method, seed=9, trials=1, budget=budget, stride=stride, tolerance=tol)
    traj = run_experiment(config, target, beta_star=star)
    stop = int(traj.iters[-1])
    records, _ = sequential(method, target, budget, 9, 0, stride, tol, star)
    assert stop < budget and max(records) == stop
    assert checks == list(range(20, stop + 1, 20))
    assert calls == {"kernel": 0, "block": -(-stop // 32)}
    assert_records_match(traj, records, star)


@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_records_and_checks_cut_no_block(method, counted_calls):
    """2048 T = 1 steps with records every 7 and a tolerance that never fires run as 64 blocks of 32."""
    target = make_target(method, 9, 4, 6, seed=8, consistent=False)
    star = oracle_solution(target)
    steps, calls = counted_calls
    config = RunConfig(method=method, seed=4, trials=1, budget=2048, stride=7, tolerance=1e-300)
    traj = run_experiment(config, target, beta_star=star)
    assert calls == {"kernel": 0, "block": 64} and steps[0] == 2048
    records, _ = sequential(method, target, 2048, 4, 0, 7, None, star)
    assert_records_match(traj, records, star)


@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_block_rewound_equals_shorter_block(method):
    """A 32-step block rewound to offset s equals an s-step block from the same start, for s = 1..31,
    on the state that estimate and residuals read; few rows and columns make the draws repeat."""
    target = make_target(method, 7, 4, 6, seed=10, consistent=False)
    if method not in PAIRINGS:
        target = SingleSystem(*target)
    block = target.kernels(method)[1]
    rng = master_rng(300)
    start = [None if v is None else rng.standard_normal(v.size) for v in vars(target.init(method)).values()]
    draws = tuple(sampler.draw_many(rng.random(32)) for sampler in target.samplers(method))
    assert all(np.unique(d).size < 32 for d in draws)
    ended = [None if v is None else v.copy() for v in start]
    coef = block(*ended, draws)
    end_state = type(target.init(method))(*(None if v is None else v[None] for v in ended))
    for s in range(1, 32):
        shorter = [None if v is None else v.copy() for v in start]
        block(*shorter, tuple(d[:s] for d in draws))
        want = vars(type(end_state)(*shorter))
        for name, got in vars(target.snapshot(method, end_state, draws, coef, s)).items():
            if got is not None:
                assert got.shape == (1, want[name].size)
                assert np.abs(got[0] - want[name]).max() <= 1e-12 * np.abs(want[name]).max(), (s, name)


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
    assert same(-solvers._project_block(a, ours[0], i, rhs), rows_block(a, beta, i, row_rhs))
    drift = None if rhs is None else -rhs
    assert same(solvers._project_block(a.T, ours[1], j, rhs), cols_block(a, z, j, drift))
    assert same(ours[0], beta) and same(ours[1], z)


def lower_cases(b):
    """(name, vecs, diag) per kind of block: distinct rows, a repeated index, and rows of growing
    norm along one direction, whose entry (s, r) exceeds diagonal r for s > r so that dgesv pivots."""
    rng = master_rng(200 + b)
    a = DenseMatrix(rng.standard_normal((40, 6)))
    distinct = rng.permutation(40)[:b]
    repeated = np.append(distinct[: b - 1], distinct[0])
    aligned = DenseMatrix((rng.standard_normal(6) + 0.01 * rng.standard_normal((b, 6))) * 2.0 ** np.arange(b)[:, None])
    return [
        ("distinct", a.data[distinct], a.row_sqnorms[distinct]),
        ("repeated", a.data[repeated], a.row_sqnorms[repeated]),
        ("pivoting", aligned.data, aligned.row_sqnorms),
    ]


@pytest.mark.parametrize("b", range(1, solvers.MAX_BLOCK + 1))
def test_solve_lower_equals_linalg_solve(b):
    """The block solve calls np.linalg.solve's dgesv gufunc directly, so it returns np.linalg.solve's
    bits on the same masked triangle, pivoting included."""
    rng = master_rng(b)
    for name, vecs, diag in lower_cases(b):
        gram = vecs @ vecs.T
        masked = gram * np.tril(np.ones((b, b)))
        masked[np.diag_indices(b)] = diag
        if name == "pivoting" and b > 1:
            assert np.any(np.tril(masked, -1) > diag[None, :])
        rhs = rng.standard_normal(b)
        got = solvers._solve_lower(gram, rhs, diag)
        assert np.array_equal(gram, masked)
        assert np.array_equal(got, np.linalg.solve(masked, rhs)), name


@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_block_path_calls_no_linalg_solve(method, monkeypatch):
    """A T = 1 run's sub-blocks solve their triangles without np.linalg.solve."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    target = make_target(method, 7, 4, 6, seed=5, consistent=False)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    run_experiment(RunConfig(method=method, seed=3, trials=1, budget=200, stride=100), target)
