"""Benchmark driver: schedules, multi-trial engine, CSV and manifest output."""

import json

import numpy as np
import pytest

from kaczfact import _engine
from kaczfact.bench import (
    DEFAULT_BUDGET,
    DEFAULT_TRIALS,
    RunConfig,
    Trajectory,
    bound_variant_for,
    emit_csv,
    emit_summary_csv,
    oracle_solution,
    record_schedule,
    run_experiment,
    write_run_manifest,
)
from kaczfact.dense import DenseMatrix
from kaczfact.interlaced import PAIRINGS, FactoredSystem, bound_inputs, expected_error_bound
from kaczfact.oracle import factored_full_solution, pinv_solve, svd
from kaczfact.sampling import trial_rng
from kaczfact.solvers import METHODS, SingleSystem
from kaczfact.systems import ScenarioSpec, gen_gaussian_factored

from conftest import inconsistent_system, random_dense, small_factored
from reference import run


def target_kinds(method: str, u: DenseMatrix, v: DenseMatrix) -> tuple:
    """Constructors, from y, of each target kind that runs ``method`` on U V b = y: a FactoredSystem
    for a pairing; an (A, y) pair and a SingleSystem of the assembled A for a single-system method."""
    if method in PAIRINGS:
        return (lambda y: FactoredSystem(u, v, y),)
    a = DenseMatrix(u.data @ v.data)
    return (lambda y: (a, y), lambda y: SingleSystem(a, y))


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig(method="rk-rk", seed=1)
        assert config.trials == DEFAULT_TRIALS == 40
        assert config.budget == DEFAULT_BUDGET == 70_000
        assert config.effective_stride == 70_000 // 500

    def test_explicit_stride_wins(self):
        assert RunConfig(method="rk", seed=1, stride=7).effective_stride == 7

    def test_small_budget_stride_floors_at_one(self):
        assert RunConfig(method="rk", seed=1, budget=100).effective_stride == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(method="sgd", seed=1)
        with pytest.raises(ValueError):
            RunConfig(method="rk", seed=-1)
        with pytest.raises(ValueError):
            RunConfig(method="rk", seed=1, trials=0)
        with pytest.raises(ValueError):
            RunConfig(method="rk", seed=1, budget=0)
        with pytest.raises(ValueError):
            RunConfig(method="rk", seed=1, stride=0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig(method="rk", seed=1, tolerance=tolerance)

    def test_zero_tolerance_accepted(self):
        assert RunConfig(method="rk", seed=1, tolerance=0.0).tolerance == 0.0


class TestRecordSchedule:
    def test_exact_multiples(self):
        assert record_schedule(1000, 100) == list(range(100, 1001, 100))

    def test_off_stride_budget_appends_final(self):
        assert record_schedule(1050, 100) == list(range(100, 1001, 100)) + [1050]

    def test_budget_below_stride(self):
        assert record_schedule(5, 10) == [5]

    def test_stride_one(self):
        assert record_schedule(4, 1) == [1, 2, 3, 4]


class TestRunExperiment:
    def test_shapes_and_flop_column(self):
        sys_, _ = small_factored(10, 4, 6, seed=90)
        config = RunConfig(method="rk-rk", seed=7, trials=3, budget=50, stride=10)
        traj = run_experiment(config, sys_)
        assert traj.iters.tolist() == [10, 20, 30, 40, 50]
        assert traj.errors.shape == (3, 5)
        per_step = sys_.step_flops("rk-rk")
        assert traj.flops.tolist() == [t * per_step for t in traj.iters]
        assert traj.trials == 3

    def test_errors_measured_against_full_system_optimum(self):
        sys_, _ = small_factored(10, 4, 6, seed=91)
        config = RunConfig(method="rk-rk", seed=8, trials=2, budget=400, stride=400)
        traj = run_experiment(config, sys_)
        star = factored_full_solution(sys_.U, sys_.V, sys_.y)
        state, _ = run("rk-rk", sys_, 400, trial_rng(8, 0))
        assert traj.errors[0, -1] == pytest.approx(float(np.sum((state.b - star) ** 2)), rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", METHODS + PAIRINGS)
    def test_non_finite_rhs_rejected(self, method, bad):
        u, v = random_dense(6, 3, seed=1), random_dense(3, 4, seed=2)
        y = np.ones(6)
        y[2] = bad
        for make in target_kinds(method, u, v):
            with pytest.raises(ValueError, match="non-finite"):
                run_experiment(RunConfig(method=method, seed=1, trials=1, budget=10), make(y))

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("method", METHODS + PAIRINGS)
    def test_rhs_of_any_dtype_runs_as_its_float64_values(self, method, trials):
        """An integer, float32 or list y is converted to a float64 vector once, at entry,
        so the run equals the run on its float64 values bit for bit."""
        u, v = random_dense(6, 3, seed=1), random_dense(3, 4, seed=2)
        ints = np.array([3, -1, 4, 1, -5, 9])
        floats = np.linspace(-1.0, 2.0, 6).astype(np.float32)
        config = RunConfig(method=method, seed=4, trials=trials, budget=60, stride=20)
        for make in target_kinds(method, u, v):
            for y in (ints, floats, ints.tolist()):
                got = run_experiment(config, make(y))
                want = run_experiment(config, make(np.array(y, dtype=np.float64)))
                assert got.iters.tolist() == want.iters.tolist() == [20, 40, 60]
                assert got.errors.tobytes() == want.errors.tobytes()

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("method", METHODS)
    def test_pair_and_single_system_run_alike(self, method, trials):
        """An (A, y) pair is a SingleSystem of the same data: equal oracle bits, equal trajectories,
        tolerance stop included."""
        a, y, _ = inconsistent_system(10, 4, seed=95)
        assert oracle_solution((a, y)).tobytes() == oracle_solution(SingleSystem(a, y)).tobytes()
        for tolerance in (None, 6.0):
            config = RunConfig(method=method, seed=6, trials=trials, budget=300, stride=30, tolerance=tolerance)
            pair = run_experiment(config, (a, y))
            single = run_experiment(config, SingleSystem(a, y, "S3b"))
            assert (single.iters[-1] < 300) == (tolerance is not None)
            for got, want in zip((single.iters, single.flops, single.errors), (pair.iters, pair.flops, pair.errors)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(6, 1), (1, 6)])
    @pytest.mark.parametrize("method", METHODS + PAIRINGS)
    def test_two_dimensional_rhs_rejected(self, method, shape):
        u, v = random_dense(6, 3, seed=1), random_dense(3, 4, seed=2)
        y = np.ones(shape)
        for make in target_kinds(method, u, v):
            with pytest.raises(ValueError):
                run_experiment(RunConfig(method=method, seed=1, trials=1, budget=10), make(y))

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("method", ["rk-rk", "rek"])
    @pytest.mark.parametrize(
        "shape, fill",
        [((1,), 1.0), ((5,), 1.0), ((2, 4), 1.0), ((4,), np.nan), ((4,), np.inf)],
        ids=["len-1", "len-n+1", "per-trial", "nan", "inf"],
    )
    def test_bad_beta_star_rejected(self, method, shape, fill, trials):
        """A beta_star that is not a finite vector of length n (here 4) is rejected,
        not broadcast into the recorded errors."""
        u, v = random_dense(6, 3, seed=1), random_dense(3, 4, seed=2)
        y = np.linspace(1.0, 2.0, 6)
        target = FactoredSystem(u, v, y) if method in PAIRINGS else (DenseMatrix(u.data @ v.data), y)
        with pytest.raises(ValueError, match="beta_star"):
            run_experiment(RunConfig(method=method, seed=1, trials=trials, budget=10), target, beta_star=np.full(shape, fill))

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("axis", ["row", "column"])
    @pytest.mark.parametrize("method, side", [(m, s) for m in PAIRINGS for s in "UV"] + [(m, "A") for m in METHODS])
    def test_zero_row_or_column_runs(self, method, side, axis, trials):
        """A zero row or column of U, V or A is never drawn, whichever samplers the method builds."""
        data = {"U": random_dense(6, 3, seed=1).data.copy(), "V": random_dense(3, 4, seed=2).data.copy()}
        data["A"] = data["U"] @ data["V"]
        if axis == "row":
            data[side][1] = 0.0
        else:
            data[side][:, 1] = 0.0
        y = np.linspace(1.0, 2.0, 6)
        if side == "A":
            target = (DenseMatrix(data["A"]), y)
        else:
            target = FactoredSystem(DenseMatrix(data["U"]), DenseMatrix(data["V"]), y)
        traj = run_experiment(RunConfig(method=method, seed=1, trials=trials, budget=50, stride=25), target)
        assert traj.iters.tolist() == [25, 50]
        assert np.all(np.isfinite(traj.errors))

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize(
        "method, dims",
        [(m, d) for m in PAIRINGS for d in ((1, 3, 4), (6, 1, 4), (6, 3, 1), (1, 1, 1))]
        + [(m, d) for m in METHODS for d in ((1, 4), (6, 1), (1, 1))],
    )
    def test_one_wide_dimension_matches_reference(self, method, dims, trials):
        """m, k or n = 1 (pairings, as (m, k, n)) or a 1 x n or m x 1 matrix runs with finite errors,
        and each lock-step trial equals its own reference run: bit for bit at T >= 2, to rounding at T = 1."""
        rng = np.random.default_rng(7)
        if method in PAIRINGS:
            m, k, n = dims
            u, v = DenseMatrix(rng.standard_normal((m, k))), DenseMatrix(rng.standard_normal((k, n)))
            target = FactoredSystem(u, v, rng.standard_normal(m))
        else:
            m, n = dims
            target = (DenseMatrix(rng.standard_normal((m, n))), rng.standard_normal(m))
        star = oracle_solution(target)
        traj = run_experiment(RunConfig(method=method, seed=1, trials=trials, budget=50, stride=25), target, beta_star=star)
        assert traj.iters.tolist() == [25, 50]
        assert np.all(np.isfinite(traj.errors))

        def engine_error(b):
            diff = (b - star)[None]
            return np.einsum("ij,ij->i", diff, diff)[0]

        for tr in range(trials):
            values = {}
            recorder = lambda t, value, flops: values.__setitem__(t, value)
            run(method, target, 50, trial_rng(1, tr), recorder=recorder, stride=25, error_fn=engine_error)
            reference = [values[25], values[50]]
            if trials == 1:
                assert np.all(np.abs(traj.errors[tr] - reference) <= 1e-10 * (1.0 + np.dot(star, star)))
            else:
                assert traj.errors[tr].tolist() == reference

    def test_pairing_target_mismatch_rejected(self):
        sys_, _ = small_factored(10, 4, 6, seed=92)
        a, y, _ = inconsistent_system(10, 4, seed=93)
        with pytest.raises(ValueError):
            run_experiment(RunConfig(method="rk", seed=1, trials=1, budget=10), sys_)
        with pytest.raises(ValueError):
            run_experiment(RunConfig(method="rk-rk", seed=1, trials=1, budget=10), (a, y))
        with pytest.raises(ValueError):
            run_experiment(RunConfig(method="rk-rk", seed=1, trials=1, budget=10), SingleSystem(a, y))
        with pytest.raises(ValueError):
            SingleSystem(a, y[:-1])

    def test_tolerance_stops_all_trials_early(self):
        sys_, _ = small_factored(20, 5, 10, seed=94)
        config = RunConfig(method="rk-rk", seed=9, trials=3, budget=100_000, stride=10_000, tolerance=1e-12)
        traj = run_experiment(config, sys_)
        assert traj.iters[-1] < 100_000
        assert traj.iters[-1] % sys_.m == 0

    def test_statistics_columns(self):
        sys_, _ = small_factored(10, 4, 6, seed=95)
        traj = run_experiment(RunConfig(method="rk-rk", seed=10, trials=4, budget=60, stride=20), sys_)
        assert np.allclose(traj.mean_errors(), traj.errors.mean(axis=0), rtol=1e-15)
        assert np.allclose(traj.std_errors(), traj.errors.std(axis=0, ddof=1), rtol=1e-15)
        single = Trajectory(method="rk-rk", iters=traj.iters, flops=traj.flops, errors=traj.errors[:1])
        assert np.array_equal(single.std_errors(), np.zeros(traj.iters.size))


class TestEngineMatchesSequentialPath:
    """The vectorized runner must reproduce the per-step reference."""

    GRID = list(range(25, 301, 25))

    def sequential_errors(self, method, target, star, seed, trials):
        rows = []
        for tr in range(trials):
            values = {}
            recorder = lambda t, v, f: values.__setitem__(t, v)
            err = lambda b: float(np.sum((b - star) ** 2))
            run(method, target, 300, trial_rng(seed, tr), recorder=recorder, stride=25, error_fn=err)
            rows.append([values[t] for t in self.GRID])
        return np.array(rows)

    def check_single_system(self, method, trials):
        a, y, _ = inconsistent_system(24, 9, seed=96)
        star = pinv_solve(a, y)
        config = RunConfig(method=method, seed=11, trials=trials, budget=300, stride=25)
        traj = run_experiment(config, (a, y), beta_star=star)
        reference = self.sequential_errors(method, (a, y), star, seed=11, trials=trials)
        assert traj.iters.tolist() == self.GRID
        assert np.allclose(traj.errors, reference, rtol=1e-9, atol=1e-300)

    def check_interlaced(self, method, trials):
        inst = gen_gaussian_factored(ScenarioSpec("S3b", m=24, n=15, k=8, seed=97))
        sys_ = inst.system
        star = factored_full_solution(sys_.U, sys_.V, sys_.y)
        config = RunConfig(method=method, seed=12, trials=trials, budget=300, stride=25)
        traj = run_experiment(config, sys_, beta_star=star)
        reference = self.sequential_errors(method, sys_, star, seed=12, trials=trials)
        assert np.allclose(traj.errors, reference, rtol=1e-9, atol=1e-300)

    @pytest.mark.parametrize("method", ["rk", "rek", "rgs", "regs"])
    def test_single_system_methods(self, method):
        self.check_single_system(method, trials=2)

    @pytest.mark.parametrize("method", ["rk-rk", "rek-rk", "rek-rek", "rgs-rgs"])
    def test_interlaced_methods(self, method):
        self.check_interlaced(method, trials=2)

    # T=1 runs in sub-blocks (block-exact stepping), T=16 one step at a time.
    @pytest.mark.parametrize("trials", [1, 16])
    @pytest.mark.parametrize("method", ["rk", "rek", "rgs", "regs"])
    def test_single_system_methods_at_trial_counts(self, method, trials):
        self.check_single_system(method, trials)

    @pytest.mark.parametrize("trials", [1, 16])
    @pytest.mark.parametrize("method", ["rk-rk", "rek-rk", "rek-rek", "rgs-rgs"])
    def test_interlaced_methods_at_trial_counts(self, method, trials):
        self.check_interlaced(method, trials)

    def test_record_ts_must_lie_in_budget(self):
        sys_, _ = small_factored(8, 3, 5, seed=98)
        star = factored_full_solution(sys_.U, sys_.V, sys_.y)
        with pytest.raises(ValueError):
            _engine.run_trials("rk-rk", sys_, 10, 1, 1, [0, 5], star)
        with pytest.raises(ValueError):
            _engine.run_trials("rk-rk", sys_, 10, 1, 1, [5, 11], star)

    def test_step_flops_table(self):
        sys_, _ = small_factored(9, 3, 5, seed=99)
        assert sys_.step_flops("rk-rk") == (4 * 3 + 2) + (4 * 5 + 2)
        assert sys_.step_flops("rek-rk") == (4 * 3 + 2) + (4 * 9 + 2) + (4 * 5 + 2)
        assert sys_.step_flops("rek-rek") == (4 * 3 + 2) + (4 * 9 + 2) + (4 * 5 + 2) + (4 * 3 + 2)
        assert sys_.step_flops("rgs-rgs") == (4 * 9 + 2) + (4 * 3 + 2)
        a, y, _ = inconsistent_system(9, 4, seed=100)
        assert SingleSystem(a, y).step_flops("rk") == 4 * 4 + 2
        assert SingleSystem(a, y).step_flops("rek") == (4 * 4 + 2) + (4 * 9 + 2)
        assert SingleSystem(a, y).step_flops("rgs") == 4 * 9 + 2
        assert SingleSystem(a, y).step_flops("regs") == (4 * 9 + 2) + (4 * 4 + 2)


class TestOracleSolution:
    def test_factored_target(self):
        sys_, _ = small_factored(10, 4, 6, seed=101)
        assert np.allclose(
            oracle_solution(sys_), factored_full_solution(sys_.U, sys_.V, sys_.y), rtol=1e-14
        )

    def test_plain_target(self):
        a, y, _ = inconsistent_system(10, 4, seed=102)
        assert np.allclose(oracle_solution((a, y)), pinv_solve(a, y), rtol=1e-14)


class TestBoundVariantSelection:
    def test_selection_table(self):
        s1 = gen_gaussian_factored(ScenarioSpec("S1", m=20, n=12, k=6, seed=103)).system
        s3b = gen_gaussian_factored(ScenarioSpec("S3b", m=24, n=15, k=8, seed=104)).system
        assert bound_variant_for("rk-rk", s1) == "a"
        assert bound_variant_for("rek-rk", s3b) == "b"
        assert bound_variant_for("rek-rk", s1) is None
        assert bound_variant_for("rk-rk", s3b) is None
        assert bound_variant_for("rek-rek", s3b) is None
        a, y, _ = inconsistent_system(10, 4, seed=105)
        assert bound_variant_for("rk", (a, y)) is None


class TestOutputFiles:
    def make_traj(self, seed=13):
        sys_, _ = small_factored(10, 4, 6, seed=106)
        config = RunConfig(method="rk-rk", seed=seed, trials=3, budget=40, stride=10)
        return sys_, config, run_experiment(config, sys_)

    def test_trajectory_csv_schema(self, tmp_path):
        _, config, traj = self.make_traj()
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,iter,error_sq,flops"
        assert len(lines) == 1 + 3 * 4
        trial, it, err, flops = lines[1].split(",")
        assert (trial, it) == ("0", "10")
        assert float(err) == traj.errors[0, 0]
        assert int(flops) == traj.flops[0]

    def test_csv_values_round_trip_exactly(self, tmp_path):
        _, _, traj = self.make_traj()
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        parsed = np.array([float(err) for _, _, err, _ in rows]).reshape(3, 4)
        assert np.array_equal(parsed, traj.errors)

    def test_identical_runs_are_byte_identical(self, tmp_path):
        sys_, config, _ = self.make_traj()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(config, sys_), first)
        emit_csv(run_experiment(config, sys_), second)
        assert first.read_bytes() == second.read_bytes()

    def test_summary_csv_without_bound(self, tmp_path):
        _, _, traj = self.make_traj()
        path = tmp_path / "summary.csv"
        emit_summary_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,mean_error_sq,std_error_sq,bound"
        assert len(lines) == 5
        t, mean, std, bound = lines[1].split(",")
        assert (t, bound) == ("10", "")
        assert float(mean) == traj.mean_errors()[0]
        assert float(std) == traj.std_errors()[0]

    def test_summary_csv_with_bound_column(self, tmp_path):
        s1 = gen_gaussian_factored(ScenarioSpec("S1", m=20, n=12, k=6, seed=107)).system
        config = RunConfig(method="rk-rk", seed=14, trials=2, budget=30, stride=10)
        traj = run_experiment(config, s1)
        path = tmp_path / "summary.csv"
        emit_summary_csv(traj, path, target=s1)
        inputs = bound_inputs(s1)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        for t_str, _, _, bound_str in rows:
            assert float(bound_str) == expected_error_bound(inputs, "a", int(t_str))

    def test_manifest_with_precomputed_inputs_is_byte_identical(self, tmp_path):
        sys_, config, _ = self.make_traj()
        computed, passed = tmp_path / "computed.jsonl", tmp_path / "passed.jsonl"
        write_run_manifest(computed, config, sys_)
        write_run_manifest(passed, config, sys_, inputs=bound_inputs(sys_))
        assert passed.read_bytes() == computed.read_bytes()

    def test_manifest_lines(self, tmp_path):
        sys_, config, _ = self.make_traj()
        path = tmp_path / "runs.jsonl"
        write_run_manifest(path, config, sys_)
        a, y, _ = inconsistent_system(10, 4, seed=108)
        write_run_manifest(path, RunConfig(method="rek", seed=2, trials=1, budget=5), (a, y))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        factored = json.loads(lines[0])
        assert factored["method"] == "rk-rk"
        assert (factored["m"], factored["n"], factored["k"]) == (10, 6, 4)
        assert {"alpha_u", "alpha_v", "theta_v", "kappa_sq_u", "scenario"} <= set(factored)
        plain = json.loads(lines[1])
        assert plain["scenario"] == "plain"
        assert (plain["m"], plain["n"]) == (10, 4)
        assert "k" not in plain

    def test_manifest_of_single_system(self, tmp_path):
        """An (A, y) pair writes the line of SingleSystem(A, y); a SingleSystem's scenario tag is written."""
        a, y, _ = inconsistent_system(10, 4, seed=108)
        config = RunConfig(method="rek", seed=2, trials=1, budget=5)
        for i, target in enumerate([(a, y), SingleSystem(a, y), SingleSystem(a, y, "S3b")]):
            write_run_manifest(tmp_path / f"{i}.jsonl", config, target)
        assert (tmp_path / "0.jsonl").read_bytes() == (tmp_path / "1.jsonl").read_bytes()
        tagged = json.loads((tmp_path / "2.jsonl").read_text())
        assert (tagged["scenario"], tagged["m"], tagged["n"]) == ("S3b", 10, 4)


def _array_holders():
    """One of each frozen dataclass that holds arrays, twice over, built from equal inputs."""
    sys_, _ = small_factored(4, 3, 5, seed=8)
    a = DenseMatrix(sys_.U.data @ sys_.V.data)
    it = np.arange(1, 4)
    spec = ScenarioSpec("S1", m=6, n=4, k=3, seed=2)
    return {
        "FactoredSystem": lambda: FactoredSystem(sys_.U, sys_.V, sys_.y),
        "SingleSystem": lambda: SingleSystem(a, sys_.y),
        "Trajectory": lambda: Trajectory(method="rk", iters=it, flops=it * 7, errors=np.ones((2, 3))),
        "SvdFactors": lambda: svd(a),
        "GeneratedInstance": lambda: gen_gaussian_factored(spec),
    }


@pytest.mark.parametrize("kind", list(_array_holders()))
def test_array_holders_compare_by_identity_and_hash(kind):
    """== on two objects built from equal inputs is False, not a ValueError on an array, and an object is a dict key."""
    make = _array_holders()[kind]
    first, second = make(), make()
    assert first == first and not (first == second) and first != second
    assert {first: 1, second: 2}[first] == 1
    assert hash(first) == hash(first) != hash(second)
