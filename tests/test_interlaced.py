"""Interlaced pairings: stepping algebra, limits, and error bounds."""

import numpy as np
import pytest

from kaczfact.dense import DenseMatrix
from kaczfact.interlaced import (
    PAIRINGS,
    BoundInputs,
    FactoredSystem,
    bound_inputs,
    expected_error_bound,
    init_interlaced,
)
from kaczfact.bench import oracle_solution
from kaczfact.oracle import pinv_solve, rate_constants_of, svd
from kaczfact.sampling import master_rng
from kaczfact.solvers import init_state
from kaczfact.systems import SCENARIO_PRESETS, SCENARIOS, ScenarioSpec, gen_gaussian_factored

from conftest import FixedUniforms, projector_rowspace, small_factored
from reference import run, step


def identity_system():
    eye = DenseMatrix(np.eye(2))
    return FactoredSystem(U=eye, V=eye, y=np.array([1.0, 2.0]))


class TestSystemValidation:
    def test_factor_dimension_mismatch(self):
        u = DenseMatrix(np.ones((3, 2)))
        v = DenseMatrix(np.ones((3, 2)))
        with pytest.raises(ValueError):
            FactoredSystem(U=u, V=v, y=np.zeros(3))

    def test_rhs_shape_mismatch(self):
        u = DenseMatrix(np.ones((3, 2)))
        v = DenseMatrix(np.ones((2, 4)))
        with pytest.raises(ValueError):
            FactoredSystem(U=u, V=v, y=np.zeros(4))

    def test_dimension_properties(self):
        sys_, _ = small_factored(5, 3, 4, seed=1)
        assert (sys_.m, sys_.k, sys_.n) == (5, 3, 4)

    def test_unsupported_pairings_rejected(self):
        sys_ = identity_system()
        for bad in ("rk-rek", "rgs-rk", "rek", "kaczmarz"):
            with pytest.raises(ValueError):
                init_interlaced(bad, sys_)
            with pytest.raises(ValueError):
                step(bad, sys_, init_interlaced("rk-rk", sys_), master_rng(0))
        assert PAIRINGS == ("rk-rk", "rek-rk", "rek-rek", "rgs-rgs")


class TestStepAlgebra:
    def test_rkrk_identity_step(self):
        sys_ = identity_system()
        state = init_interlaced("rk-rk", sys_)
        # Both samplers are uniform over two indices, so 0.1 -> index 0.
        i, p = step("rk-rk", sys_, state, FixedUniforms([0.1, 0.1]))
        assert (i, p) == (0, 0)
        assert np.allclose(state.x, [1.0, 0.0], atol=1e-15)
        assert np.allclose(state.b, [1.0, 0.0], atol=1e-15)
        assert sys_.step_flops("rk-rk") == (4 * 2 + 2) + (4 * 2 + 2) == 20

    def test_rkrk_second_draw_pair(self):
        sys_ = identity_system()
        state = init_interlaced("rk-rk", sys_)
        i, p = step("rk-rk", sys_, state, FixedUniforms([0.9, 0.6]))
        assert (i, p) == (1, 1)
        assert np.allclose(state.x, [0.0, 2.0], atol=1e-15)
        assert np.allclose(state.b, [0.0, 2.0], atol=1e-15)

    def test_v_side_reads_just_updated_x(self):
        # Drawing U row 0 then V row 0 must propagate y_0 into b within
        # a single step; a stale x would leave b at zero.
        sys_ = identity_system()
        state = init_interlaced("rk-rk", sys_)
        step("rk-rk", sys_, state, FixedUniforms([0.1, 0.1]))
        assert state.b[0] == pytest.approx(1.0)

    def test_rekrk_with_zero_z_matches_rkrk(self):
        sys_, _ = small_factored(8, 4, 6, seed=5)
        plain = init_interlaced("rk-rk", sys_)
        ext = init_interlaced("rek-rk", sys_)
        ext.z[:] = 0.0
        uniforms = master_rng(17).random(60)
        pos = 0
        for _ in range(20):
            u_row, u_col, v_row = uniforms[pos], uniforms[pos + 1], uniforms[pos + 2]
            pos += 3
            step("rk-rk", sys_, plain, FixedUniforms([u_row, v_row]))
            step("rek-rk", sys_, ext, FixedUniforms([u_row, u_col, v_row]))
            assert np.allclose(ext.z, 0.0, atol=1e-15)
            assert np.array_equal(ext.x, plain.x)
            assert np.array_equal(ext.b, plain.b)

    def test_rekrek_v_side_estimate_stays_zero(self, rng):
        sys_, _ = small_factored(10, 4, 7, seed=6)
        state = init_interlaced("rek-rek", sys_)
        for _ in range(200):
            step("rek-rek", sys_, state, rng)
        # x starts at zero, so the V-side residual estimate starts at
        # zero and column projections keep it there exactly.
        assert np.array_equal(state.zv, np.zeros(sys_.k))

    def test_rgsrgs_keeps_both_residuals_in_sync(self, rng):
        sys_, _ = small_factored(10, 4, 7, seed=7)
        state = init_interlaced("rgs-rgs", sys_)
        for _ in range(200):
            step("rgs-rgs", sys_, state, rng)
        assert np.allclose(state.res_u, sys_.y - sys_.U.data @ state.x, atol=1e-10)
        assert np.allclose(state.res_v, state.x - sys_.V.data @ state.b, atol=1e-10)

    def test_step_flop_charges(self, rng):
        sys_, _ = small_factored(9, 3, 5, seed=8)
        m, k, n = 9, 3, 5
        expected = {
            "rk-rk": (4 * k + 2) + (4 * n + 2),
            "rek-rk": (4 * k + 2) + (4 * m + 2) + (4 * n + 2),
            "rek-rek": (4 * k + 2) + (4 * m + 2) + (4 * n + 2) + (4 * k + 2),
            "rgs-rgs": (4 * m + 2) + (4 * k + 2),
        }
        for method, per_step in expected.items():
            seen = []
            _, t = run(method, sys_, 33, master_rng(9), recorder=lambda t, v, f: seen.append(f), stride=33)
            assert t == 33
            assert sys_.step_flops(method) == per_step
            assert seen == [33 * per_step]

    def test_dispatch_matches_direct_step(self):
        # A pairing step is its outer method's step on (U, y, x), then its inner one's on (V, x, b).
        sys_, _ = small_factored(6, 3, 4, seed=10)
        direct_u = init_state("rek", sys_.U, sys_.y)
        direct_v = init_state("rk", sys_.V, direct_u.beta)
        routed = init_interlaced("rek-rk", sys_)
        for step_idx in range(25):
            rng = master_rng(100 + step_idx)
            step("rek", (sys_.U, sys_.y), direct_u, rng)
            step("rk", (sys_.V, direct_u.beta), direct_v, rng)
            step("rek-rk", sys_, routed, master_rng(100 + step_idx))
        assert np.array_equal(direct_u.beta, routed.x)
        assert np.array_equal(direct_v.beta, routed.b)
        assert np.array_equal(direct_u.z, routed.z)

    def test_returned_index_counts(self, rng):
        sys_, _ = small_factored(6, 3, 4, seed=11)
        assert len(step("rk-rk", sys_, init_interlaced("rk-rk", sys_), rng)) == 2
        assert len(step("rek-rk", sys_, init_interlaced("rek-rk", sys_), rng)) == 3
        assert len(step("rek-rek", sys_, init_interlaced("rek-rek", sys_), rng)) == 4
        assert len(step("rgs-rgs", sys_, init_interlaced("rgs-rgs", sys_), rng)) == 2


class TestLimits:
    def rel_sq_error(self, b, star):
        return float(np.sum((b - star) ** 2) / np.sum(star**2))

    def test_rkrk_converges_on_consistent_data(self):
        sys_, _ = small_factored(30, 10, 20, seed=61)
        star = oracle_solution(sys_)
        state, _ = run("rk-rk", sys_, 4000, master_rng(62))
        assert self.rel_sq_error(state.b, star) < 1e-8

    def test_rekrk_converges_on_inconsistent_data(self):
        inst = gen_gaussian_factored(ScenarioSpec("S3b", 40, 25, 10, seed=63))
        star = oracle_solution(inst.system)
        state, _ = run("rek-rk", inst.system, 8000, master_rng(64))
        assert self.rel_sq_error(state.b, star) < 1e-8

    def test_rkrk_stalls_on_inconsistent_data(self):
        inst = gen_gaussian_factored(ScenarioSpec("S3b", 40, 25, 10, seed=63))
        star = oracle_solution(inst.system)
        state, _ = run("rk-rk", inst.system, 8000, master_rng(64))
        assert self.rel_sq_error(state.b, star) > 1e-2

    def test_iterate_stays_in_v_rowspace(self, rng):
        sys_, _ = small_factored(12, 4, 9, seed=65)
        project = projector_rowspace(sys_.V)
        for method in ("rk-rk", "rek-rk"):
            state = init_interlaced(method, sys_)
            for _ in range(150):
                step(method, sys_, state, rng)
            norm = np.linalg.norm(state.b)
            assert norm > 0.0
            assert np.linalg.norm(state.b - project(state.b)) < 1e-10 * norm


class TestRunHarness:
    def test_recorder_schedule(self):
        sys_, _ = small_factored(8, 3, 5, seed=70)
        seen = []
        run("rk-rk", sys_, 1050, master_rng(71), recorder=lambda t, v, f: seen.append(t), stride=100)
        assert seen == list(range(100, 1001, 100)) + [1050]

    def test_default_recorder_value_is_joint_squared_residual(self):
        sys_, _ = small_factored(8, 3, 5, seed=72)
        seen = []
        state, _ = run("rk-rk", sys_, 37, master_rng(73), recorder=lambda t, v, f: seen.append(v), stride=37)
        res_u = sys_.y - sys_.U.data @ state.x
        res_v = state.x - sys_.V.data @ state.b
        assert seen[-1] == pytest.approx(float(res_u @ res_u + res_v @ res_v), rel=1e-12)

    def test_joint_tolerance_early_stop(self):
        sys_, _ = small_factored(20, 5, 10, seed=74)
        state, t = run("rk-rk", sys_, 100000, master_rng(75), tolerance=1e-12)
        assert t < 100000
        assert t % sys_.m == 0
        assert np.linalg.norm(sys_.y - sys_.U.data @ state.x) <= 1e-12
        assert np.linalg.norm(state.x - sys_.V.data @ state.b) <= 1e-12

    def test_budget_stopping_is_default(self):
        sys_, _ = small_factored(8, 3, 5, seed=76)
        assert run("rk-rk", sys_, 500, master_rng(77))[1] == 500

    def test_rejects_bad_arguments(self):
        sys_, _ = small_factored(8, 3, 5, seed=78)
        with pytest.raises(ValueError):
            run("rk-rk", sys_, -2, master_rng(1))
        with pytest.raises(ValueError):
            run("rk-rk", sys_, 10, master_rng(1), stride=0)


class TestExpectedErrorBound:
    INPUTS = BoundInputs(
        alpha_u=0.9, alpha_v=0.8, theta_v=2.0, kappa_sq_u=3.0, b_star_sq=4.0, x_star_sq=5.0
    )

    def test_variant_a_hand_computed_values(self):
        assert expected_error_bound(self.INPUTS, "a", 0) == pytest.approx(14.0, rel=1e-15)
        assert expected_error_bound(self.INPUTS, "a", 1) == pytest.approx(12.2, rel=1e-15)
        assert expected_error_bound(self.INPUTS, "a", 3) == pytest.approx(9.338, rel=1e-15)

    def test_variant_b_hand_computed_values(self):
        # 1 + 2 kappa_sq_u = 7; the second term decays once per two steps.
        assert expected_error_bound(self.INPUTS, "b", 0) == pytest.approx(74.0, rel=1e-15)
        assert expected_error_bound(self.INPUTS, "b", 1) == pytest.approx(73.2, rel=1e-15)
        assert expected_error_bound(self.INPUTS, "b", 3) == pytest.approx(65.048, rel=1e-15)

    def test_variant_a_strictly_decreasing(self):
        values = [expected_error_bound(self.INPUTS, "a", t) for t in range(30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_variant_b_non_increasing_and_two_step_decreasing(self):
        values = [expected_error_bound(self.INPUTS, "b", t) for t in range(30)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(values[t + 2] < values[t] for t in range(28))

    def test_rejects_bad_variant_and_negative_t(self):
        with pytest.raises(ValueError):
            expected_error_bound(self.INPUTS, "c", 1)
        with pytest.raises(ValueError):
            expected_error_bound(self.INPUTS, "a", -1)

    def test_bound_inputs_built_from_factor_constants(self):
        """bound_inputs (one SVD per factor) equals the four-SVD formula bit for bit: each factor's rate
        constants and pseudo-inverse solve taking their own SVD."""

        def four_svd_formula(sys_):
            cu, cv = rate_constants_of(svd(sys_.U), sys_.U.frob_sq), rate_constants_of(svd(sys_.V), sys_.V.frob_sq)
            x_star = pinv_solve(sys_.U, sys_.y)
            b_star = pinv_solve(sys_.V, x_star)
            return BoundInputs(
                alpha_u=cu.alpha,
                alpha_v=cv.alpha,
                theta_v=cv.theta,
                kappa_sq_u=cu.kappa_sq,
                b_star_sq=float(np.dot(b_star, b_star)),
                x_star_sq=float(np.dot(x_star, x_star)),
            )

        rng = master_rng(80)
        normal = rng.standard_normal

        def system(u, v):
            return FactoredSystem(DenseMatrix(u), DenseMatrix(v), normal(u.shape[0]))

        cases = {s: gen_gaussian_factored(ScenarioSpec(s, *SCENARIO_PRESETS[s]["desk"], seed=0)).system for s in SCENARIOS}
        cases["small"] = small_factored(12, 5, 8, seed=80)[0]
        cases["rank-deficient U"] = system(normal((12, 2)) @ normal((2, 5)), normal((5, 8)))
        cases["rank-deficient V"] = system(normal((12, 5)), normal((5, 3)) @ normal((3, 8)))
        cases["k > m"] = system(normal((4, 7)), normal((7, 6)))
        cases["k = 1"] = system(normal((6, 1)), normal((1, 5)))
        cases["n = 1"] = system(normal((6, 3)), normal((3, 1)))
        assert [name for name, sys_ in cases.items() if bound_inputs(sys_) != four_svd_formula(sys_)] == []

    def test_bound_solution_matches_full_system_on_clean_split(self):
        # When the factored optimum exists, the two-stage solution used
        # by the bound equals the full-system optimum.
        inst = gen_gaussian_factored(ScenarioSpec("S3b", 40, 25, 10, seed=81))
        sys_ = inst.system
        x_star = pinv_solve(sys_.U, sys_.y)
        b_star = pinv_solve(sys_.V, x_star)
        star = oracle_solution(sys_)
        assert np.allclose(b_star, star, atol=1e-9 * (1.0 + np.linalg.norm(star)))
