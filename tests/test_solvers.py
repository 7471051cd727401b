"""Single-system solvers: update algebra, invariants, limits, rates."""

import numpy as np
import pytest

from kaczfact.bench import RunConfig, run_experiment
from kaczfact.dense import DenseMatrix
from kaczfact.oracle import pinv_solve, rate_constants_of, svd
from kaczfact.sampling import master_rng
from kaczfact.solvers import METHODS, estimate, init_state, project, step_cost, step_kernel

from conftest import FixedUniforms, consistent_system, inconsistent_system
from reference import run, step


def example_system():
    """2x2 system with distinct row and column weights.

    Row squared norms are (25, 25), so each row is drawn with
    probability 1/2; column squared norms are (9, 41), so column 0 is
    drawn when the uniform is below 0.18.
    """
    a = DenseMatrix([[3.0, 4.0], [0.0, 5.0]])
    return a, np.array([10.0, 5.0])


class TestUpdateAlgebra:
    def test_rk_single_projection(self):
        a, y = example_system()
        state = init_state("rk", a, y)
        (i,) = step("rk", (a, y), state, FixedUniforms([0.2]))
        assert i == 0
        # beta_1 = (10 / 25) * (3, 4)
        assert np.allclose(state.beta, [1.2, 1.6], rtol=1e-15)
        assert step_cost("rk", a) == 4 * 2 + 2 == 10

    def test_rk_second_row(self):
        a, y = example_system()
        state = init_state("rk", a, y)
        assert step("rk", (a, y), state, FixedUniforms([0.7])) == (1,)
        assert np.allclose(state.beta, [0.0, 1.0], rtol=1e-15)

    def test_rgs_single_coordinate_step(self):
        a, y = example_system()
        state = init_state("rgs", a, y)
        (j,) = step("rgs", (a, y), state, FixedUniforms([0.1]))
        assert j == 0
        # gamma = (3 * 10 + 0 * 5) / 9 = 10/3 along e_0.
        assert np.allclose(state.beta, [10.0 / 3.0, 0.0], rtol=1e-15)
        assert np.allclose(state.residual, [0.0, 5.0], atol=1e-14)
        assert step_cost("rgs", a) == 4 * 2 + 2 == 10

    def test_rek_consumes_row_then_column(self):
        a, y = example_system()
        state = init_state("rek", a, y)
        i, j = step("rek", (a, y), state, FixedUniforms([0.7, 0.1]))
        assert (i, j) == (1, 0)
        # z starts at y; projecting out column 0 = (3, 0):
        #   coef = 30 / 9, z = (10, 5) - coef * (3, 0) = (0, 5)
        # then row 1 with rhs y_1 - z_1 = 0 leaves beta unchanged.
        assert np.allclose(state.z, [0.0, 5.0], atol=1e-14)
        assert np.allclose(state.beta, [0.0, 0.0], atol=1e-15)
        assert step_cost("rek", a) == (4 * 2 + 2) + (4 * 2 + 2)

    def test_regs_flop_charge(self):
        a, y = example_system()
        state = init_state("regs", a, y)
        assert step("regs", (a, y), state, FixedUniforms([0.2, 0.5])) == (0, 1)
        assert step_cost("regs", a) == (4 * 2 + 2) + (4 * 2 + 2) == 20

    def test_regs_identity_correction_vanishes_for_matching_draws(self):
        # On the identity, a coordinate step along e_j followed by
        # projecting out row i = j cancels the correction exactly,
        # so the reported estimate equals the plain iterate.
        a = DenseMatrix(np.eye(2))
        y = np.array([1.0, 2.0])
        beta = np.zeros((1, 2))
        z = np.zeros((1, 2))
        residual = y[None].copy()
        for j in (0, 1, 0):
            draw = np.array([j])
            gamma = step_kernel("regs", a, y, beta, z, residual, np.arange(1))((draw, draw))
            assert gamma.shape == (1,)
            assert np.allclose(z, 0.0, atol=1e-15)
        assert np.allclose(beta[0], y, atol=1e-15)

    def test_kernel_return_values(self):
        # Two trials at once: each row is its own projection.
        beta = np.zeros((2, 2))
        coef = project(beta, np.array([[3.0, 4.0], [0.0, 5.0]]), np.array([25.0, 25.0]), np.array([10.0, 5.0]))
        assert coef == pytest.approx([-0.4, -0.2], rel=1e-15)
        assert np.allclose(beta, [[1.2, 1.6], [0.0, 1.0]], rtol=1e-15)
        z = np.array([[10.0, 5.0], [10.0, 5.0]])
        coef = project(z, np.array([[3.0, 0.0], [0.0, 5.0]]), np.array([9.0, 25.0]))
        assert coef == pytest.approx([10.0 / 3.0, 1.0], rel=1e-15)
        assert np.allclose(z, [[0.0, 5.0], [10.0, 0.0]], atol=1e-14)


class TestStateManagement:
    def test_init_state_shapes(self):
        a, y = example_system()
        assert init_state("rk", a, y).z is None
        assert np.array_equal(init_state("rek", a, y).z, y)
        assert np.array_equal(init_state("rgs", a, y).residual, y)
        regs = init_state("regs", a, y)
        assert np.array_equal(regs.z, np.zeros(2))
        assert np.array_equal(regs.residual, y)

    def test_init_state_rejects_bad_input(self):
        a, y = example_system()
        with pytest.raises(ValueError):
            init_state("cg", a, y)
        with pytest.raises(ValueError):
            init_state("rk", a, np.zeros(3))

    def test_estimate_is_beta_except_regs(self):
        a, y = example_system()
        state = init_state("regs", a, y)
        state.beta = np.array([3.0, 1.0])
        state.z = np.array([1.0, 1.0])
        assert np.array_equal(estimate("regs", state), [2.0, 0.0])
        rk = init_state("rk", a, y)
        rk.beta = np.array([5.0, 6.0])
        assert estimate("rk", rk) is rk.beta

    def test_methods_tuple(self):
        assert METHODS == ("rk", "rek", "rgs", "regs")


class TestPerStepInvariants:
    def test_rk_drawn_equation_becomes_exact(self, rng):
        a, y, _ = consistent_system(12, 6, seed=31)
        state = init_state("rk", a, y)
        for _ in range(40):
            (i,) = step("rk", (a, y), state, rng)
            assert abs(y[i] - a.data[i] @ state.beta) < 1e-10 * (1.0 + abs(y[i]))

    def test_rek_drawn_column_orthogonal_to_z(self, rng):
        a, y, _ = inconsistent_system(12, 6, seed=32)
        state = init_state("rek", a, y)
        for _ in range(40):
            _, j = step("rek", (a, y), state, rng)
            scale = np.linalg.norm(a.T.data[j]) * (1.0 + np.linalg.norm(state.z))
            assert abs(a.T.data[j] @ state.z) < 1e-10 * scale

    def test_rgs_residual_stays_in_sync(self, rng):
        a, y, _ = inconsistent_system(12, 6, seed=33)
        state = init_state("rgs", a, y)
        for _ in range(60):
            step("rgs", (a, y), state, rng)
        assert np.allclose(state.residual, y - a.data @ state.beta, atol=1e-10)

    def test_regs_residual_and_row_annihilation(self, rng):
        a, y, _ = inconsistent_system(12, 6, seed=34)
        state = init_state("regs", a, y)
        for _ in range(60):
            i, _ = step("regs", (a, y), state, rng)
            scale = np.linalg.norm(a.data[i]) * (1.0 + np.linalg.norm(state.z))
            assert abs(a.data[i] @ state.z) < 1e-10 * scale
        assert np.allclose(state.residual, y - a.data @ state.beta, atol=1e-10)

    def test_rk_error_never_increases_on_consistent_data(self, rng):
        a, y, _ = consistent_system(15, 6, seed=35)
        star = pinv_solve(a, y)
        state = init_state("rk", a, y)
        prev = float(star @ star)
        for _ in range(300):
            step("rk", (a, y), state, rng)
            err = float(np.sum((state.beta - star) ** 2))
            assert err <= prev * (1.0 + 1e-12)
            prev = err

    def test_flops_scale_linearly_with_steps(self, rng):
        a, y, _ = consistent_system(9, 4, seed=36)
        for method, per_step in [
            ("rk", 4 * 4 + 2),
            ("rek", (4 * 4 + 2) + (4 * 9 + 2)),
            ("rgs", 4 * 9 + 2),
            ("regs", (4 * 9 + 2) + (4 * 4 + 2)),
        ]:
            seen = []
            _, t = run(method, (a, y), 57, master_rng(5), recorder=lambda t, v, f: seen.append(f), stride=57)
            assert t == 57
            assert step_cost(method, a) == per_step
            assert seen == [57 * per_step]


class TestLimits:
    """Which optimum each method reaches, per data regime."""

    def rel_sq_error(self, beta, star):
        return float(np.sum((beta - star) ** 2) / np.sum(star**2))

    def test_rk_consistent_overdetermined(self):
        a, y, _ = consistent_system(30, 10, seed=11)
        star = pinv_solve(a, y)
        state, _ = run("rk", (a, y), 5000, master_rng(90))
        assert self.rel_sq_error(state.beta, star) < 1e-8

    def test_rk_consistent_underdetermined_reaches_least_norm(self):
        a, y, _ = consistent_system(10, 30, seed=13)
        star = pinv_solve(a, y)
        state, _ = run("rk", (a, y), 5000, master_rng(91))
        assert self.rel_sq_error(state.beta, star) < 1e-8

    def test_rk_stalls_on_inconsistent_data(self):
        a, y, _ = inconsistent_system(30, 10, seed=12)
        star = pinv_solve(a, y)
        state, _ = run("rk", (a, y), 20000, master_rng(92))
        assert self.rel_sq_error(state.beta, star) > 1e-2

    def test_rek_reaches_least_squares_on_inconsistent_data(self):
        a, y, _ = inconsistent_system(30, 5, seed=21)
        star = pinv_solve(a, y)
        state, _ = run("rek", (a, y), 20000, master_rng(93))
        assert self.rel_sq_error(state.beta, star) < 1e-6

    def test_rek_z_converges_to_orthogonal_residual(self):
        a, y, resid = inconsistent_system(30, 5, seed=21)
        star = pinv_solve(a, y)
        best_residual = y - a.data @ star
        # The planted component equals the least-squares residual here
        # because the planting projected it off range(A).
        assert np.allclose(best_residual, resid, atol=1e-10)
        state, _ = run("rek", (a, y), 20000, master_rng(94))
        gap = np.linalg.norm(state.z - best_residual) / np.linalg.norm(best_residual)
        assert gap < 1e-4

    def test_rgs_reaches_least_squares_overdetermined(self):
        a, y, _ = inconsistent_system(30, 5, seed=22)
        star = pinv_solve(a, y)
        state, _ = run("rgs", (a, y), 20000, master_rng(95))
        assert self.rel_sq_error(state.beta, star) < 1e-6

    def test_rgs_misses_least_norm_underdetermined(self):
        a, y, _ = consistent_system(10, 30, seed=13)
        star = pinv_solve(a, y)
        state, _ = run("rgs", (a, y), 20000, master_rng(96))
        assert self.rel_sq_error(state.beta, star) > 1e-2

    def test_regs_reaches_optimum_in_all_regimes(self):
        cases = [
            consistent_system(30, 10, seed=11),
            inconsistent_system(30, 10, seed=12),
            consistent_system(10, 30, seed=13),
        ]
        for idx, (a, y, _) in enumerate(cases):
            star = pinv_solve(a, y)
            state, _ = run("regs", (a, y), 20000, master_rng(97 + idx))
            est = estimate("regs", state)
            assert self.rel_sq_error(est, star) < 1e-8


class TestExpectedRates:
    """Sample means over 200 trials stay under the guaranteed curves."""

    def test_rk_mean_error_dominated_by_contraction_curve(self):
        a, y, _ = consistent_system(20, 5, seed=7)
        c = rate_constants_of(svd(a), a.frob_sq)
        star = pinv_solve(a, y)
        traj = run_experiment(
            RunConfig(method="rk", seed=301, trials=200, budget=1000, stride=50),
            (a, y),
            beta_star=star,
        )
        bound = c.alpha ** traj.iters.astype(float) * float(star @ star)
        assert np.all(traj.mean_errors() <= 1.15 * bound)

    def test_rek_mean_error_dominated_by_half_rate_curve(self):
        a, y, _ = inconsistent_system(60, 20, seed=8)
        c = rate_constants_of(svd(a), a.frob_sq)
        star = pinv_solve(a, y)
        traj = run_experiment(
            RunConfig(method="rek", seed=302, trials=200, budget=3000, stride=100),
            (a, y),
            beta_star=star,
        )
        bound = (1.0 + 2.0 * c.kappa_sq) * c.alpha ** (traj.iters // 2).astype(float) * float(star @ star)
        assert np.all(traj.mean_errors() <= 1.15 * bound)


class TestRunHarness:
    def test_recorder_schedule_and_final_step(self):
        a, y, _ = consistent_system(8, 4, seed=41)
        seen = []
        run("rk", (a, y), 1000, master_rng(50), recorder=lambda t, v, f: seen.append((t, v, f)), stride=100)
        assert [t for t, _, _ in seen] == list(range(100, 1001, 100))
        assert all(f == t * (4 * 4 + 2) for t, _, f in seen)

    def test_recorder_includes_off_stride_final_step(self):
        a, y, _ = consistent_system(8, 4, seed=41)
        seen = []
        run("rk", (a, y), 1050, master_rng(50), recorder=lambda t, v, f: seen.append(t), stride=100)
        assert seen == list(range(100, 1001, 100)) + [1050]

    def test_default_recorder_value_is_squared_residual(self):
        a, y, _ = inconsistent_system(8, 3, seed=42)
        seen = []
        state, _ = run("rk", (a, y), 40, master_rng(51), recorder=lambda t, v, f: seen.append(v), stride=40)
        resid = y - a.data @ state.beta
        assert seen[-1] == pytest.approx(float(resid @ resid), rel=1e-12)

    def test_error_fn_recorder_value(self):
        a, y, _ = consistent_system(8, 4, seed=43)
        star = pinv_solve(a, y)
        seen = []
        state, _ = run(
            "rk", (a, y), 40, master_rng(52),
            recorder=lambda t, v, f: seen.append(v), stride=40,
            tolerance=None, error_fn=lambda b: float(np.sum((b - star) ** 2)),
        )
        assert seen[-1] == pytest.approx(float(np.sum((state.beta - star) ** 2)), rel=1e-12)

    def test_early_stop_on_residual_tolerance(self):
        a, y, _ = consistent_system(20, 5, seed=44)
        state, t = run("rk", (a, y), 50000, master_rng(53), tolerance=1e-12)
        assert t < 50000
        assert t % a.rows == 0
        assert np.linalg.norm(y - a.data @ state.beta) <= 1e-12

    def test_tolerance_none_disables_early_stop(self):
        a, y, _ = consistent_system(20, 5, seed=44)
        _, t = run("rk", (a, y), 3000, master_rng(53))
        assert t == 3000

    def test_run_rejects_bad_arguments(self):
        a, y, _ = consistent_system(8, 4, seed=45)
        with pytest.raises(ValueError):
            run("rk", (a, y), -1, master_rng(1))
        with pytest.raises(ValueError):
            run("rk", (a, y), 10, master_rng(1), stride=0)

    def test_same_seed_reproduces_trajectory(self):
        a, y, _ = inconsistent_system(12, 5, seed=46)
        first, _ = run("rek", (a, y), 500, master_rng(54))
        second, _ = run("rek", (a, y), 500, master_rng(54))
        assert np.array_equal(first.beta, second.beta)
        assert np.array_equal(first.z, second.z)
