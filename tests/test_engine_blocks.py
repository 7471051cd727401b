"""The lock-step engine against the per-step reference, block path included.

At T=1 the engine advances in sub-blocks (block-exact stepping); these
tests hold it to the sequential reference (``reference.run``) on
recorded iterations, stop steps and errors.  At T >= 2 it runs the same
per-step kernel as the reference, and its errors match it bit for bit.
Apart from the engine's scheduling, one block of each block kernel is
held to the same number of per-step kernel calls.
"""

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
from kaczfact.solvers import DRAWS, METHODS, block_kernel, estimate, init_state, samplers, step_kernel
from kaczfact.systems import ScenarioSpec, gen_gaussian_factored

from conftest import consistent_system, inconsistent_system, small_factored
from reference import run


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
    """(row table, column table) memoized for matrix; None where none is built."""
    return solvers._row_grams.get(matrix), solvers._col_grams.get(matrix)


def sides(method, target):
    """(matrix, sides its block kernel projects on) for each matrix a method's steps act on."""
    if method in PAIRINGS:
        outer, inner = method.split("-")
        return [(target.U, DRAWS[outer]), (target.V, DRAWS[inner])]
    return [(target[0], DRAWS[method])]


@pytest.mark.parametrize("dims", [(7, 4, 6), (4, 7, 6), (5, 5, 5)], ids=["tall-u", "wide-u", "square"])
@pytest.mark.parametrize("method", METHODS + PAIRINGS)
def test_gram_tables_built_once_on_short_sides(method, dims):
    """A T = 1 run memoizes A A^T for a matrix's rows when rows <= cols and A^T A for its
    columns when cols <= rows, on the sides its method projects on, once each; the long
    side never gets a table."""
    target = make_target(method, *dims, seed=3, consistent=False)
    config = RunConfig(method=method, seed=2, trials=1, budget=100, stride=50)
    run_experiment(config, target)
    built = [gram_tables(matrix) for matrix, _ in sides(method, target)]
    for (matrix, draws), (rows, cols) in zip(sides(method, target), built):
        a = matrix.data
        assert (rows is not None) == ("row" in draws and a.shape[0] <= a.shape[1])
        assert (cols is not None) == ("col" in draws and a.shape[1] <= a.shape[0])
        if rows is not None:
            assert np.allclose(rows, a @ a.T, rtol=1e-13, atol=1e-13)
        if cols is not None:
            assert np.allclose(cols, a.T @ a, rtol=1e-13, atol=1e-13)
    run_experiment(config, target)
    for (matrix, _), tables in zip(sides(method, target), built):
        assert all(again is first for again, first in zip(gram_tables(matrix), tables))


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


@pytest.mark.parametrize("method", ["rk", "rk-rk"])
def test_one_trial_tolerance_checks_every_m_steps(method, monkeypatch):
    """A tolerance-stopped T=1 run checks at m, 2m, ... and stops where the per-step path does.

    Records every m + 1 steps put a 1-step sub-block right after each
    check, so both the block path and the per-step kernel run.
    """
    if method == "rk-rk":
        target, _ = small_factored(20, 5, 10, seed=94)
    else:
        a, y, _ = consistent_system(20, 6, seed=95)
        target = (a, y)
    star = oracle_solution(target)
    steps, checks, calls = [0], [], {"kernel": 0, "block": 0}
    real_check = _engine._Batch.max_residual

    def counted(fn, kind):
        def run_steps(*args):
            # The draws come last: (T,) arrays for one step, (B,) for a block.
            draws = args[-1]
            steps[0] += draws[0].shape[0] if kind == "block" else 1
            calls[kind] += 1
            fn(*args)

        return run_steps

    def max_residual(self):
        checks.append(steps[0])
        return real_check(self)

    # The targets' kernels() bind the kernels from these names.
    monkeypatch.setattr(solvers, "step_kernel", counted(solvers.step_kernel, "kernel"))
    monkeypatch.setattr(interlaced, "pairing_kernel", counted(interlaced.pairing_kernel, "kernel"))
    monkeypatch.setattr(solvers, "block_kernel", counted(solvers.block_kernel, "block"))
    monkeypatch.setattr(interlaced, "pairing_block", counted(interlaced.pairing_block, "block"))
    monkeypatch.setattr(_engine._Batch, "max_residual", max_residual)
    budget, tol, stride = 100_000, 1e-10, 21
    config = RunConfig(method=method, seed=9, trials=1, budget=budget, stride=stride, tolerance=tol)
    traj = run_experiment(config, target, beta_star=star)
    stop = int(traj.iters[-1])
    assert stop < budget
    assert checks == list(range(20, stop + 1, 20))
    assert calls["kernel"] > 0 and calls["block"] > 0
    records, _ = sequential(method, target, budget, 9, 0, stride, tol, star)
    assert max(records) == stop
    assert traj.iters.tolist() == sorted(records)
    reference = np.array([records[t] for t in traj.iters])
    assert np.all(np.abs(traj.errors[0] - reference) <= 1e-10 * (1.0 + float(star @ star)))


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
