"""Scenario taxonomy, Gaussian instance generation, disk round-trips."""

import json
import tracemalloc

import numpy as np
import pytest

from kaczfact.bench import RunConfig, oracle_solution, run_experiment
from kaczfact.dense import DenseMatrix
from kaczfact.interlaced import bound_inputs
from kaczfact.oracle import pinv_solve, svd
from kaczfact.sampling import master_rng
from kaczfact.systems import (
    RESIDUAL_RATIO,
    SCENARIO_PRESETS,
    SCENARIOS,
    ScenarioSpec,
    gen_gaussian_factored,
    load_factored,
    load_instance,
    make_inconsistent_rhs,
    save_instance,
)


class TestScenarioSpec:
    def test_scenario_set(self):
        assert SCENARIOS == ("S1", "S2", "S3a", "S3b")
        for name in SCENARIOS:
            assert {"full", "desk"} <= set(SCENARIO_PRESETS[name])

    def test_presets_satisfy_their_own_constraints(self):
        for name, presets in SCENARIO_PRESETS.items():
            for size, (m, n, k) in presets.items():
                ScenarioSpec(scenario=name, m=m, n=n, k=k, seed=0)

    def test_s1_shape_rules(self):
        ScenarioSpec("S1", m=60, n=40, k=20, seed=0)
        ScenarioSpec("S1", m=60, n=20, k=40, seed=0)  # n < k < m corner
        with pytest.raises(ValueError):
            ScenarioSpec("S1", m=60, n=40, k=60, seed=0)  # k not below m
        with pytest.raises(ValueError):
            ScenarioSpec("S1", m=40, n=60, k=40, seed=0)  # k = m, n > k

    def test_s2_needs_wide_u(self):
        ScenarioSpec("S2", m=40, n=60, k=50, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec("S2", m=50, n=60, k=50, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec("S2", m=60, n=40, k=20, seed=0)

    def test_s3a_needs_middle_k(self):
        ScenarioSpec("S3a", m=120, n=75, k=90, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec("S3a", m=120, n=75, k=60, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec("S3a", m=120, n=75, k=120, seed=0)

    def test_s3b_needs_tall_shape_and_small_k(self):
        ScenarioSpec("S3b", m=120, n=75, k=50, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec("S3b", m=75, n=120, k=50, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec("S3b", m=120, n=75, k=80, seed=0)

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec("S9", m=10, n=5, k=3, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec("S1", m=0, n=5, k=3, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec("S1", m=10, n=5, k=3, seed=-1)

    @pytest.mark.parametrize("field, value", [("m", 60.0), ("n", np.float64(40)), ("k", "20"), ("seed", 1.5), ("k", True),
                                              ("seed", False)])
    def test_sizes_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ScenarioSpec(**{"scenario": "S1", "m": 60, "n": 40, "k": 20, "seed": 0, field: value})

    def test_numpy_integers_are_generated_saved_and_loaded_as_ints(self, tmp_path):
        spec = ScenarioSpec("S1", np.int64(60), np.int32(40), np.int64(20), seed=np.uint8(0))
        assert all(type(getattr(spec, name)) is int for name in ("m", "n", "k", "seed"))
        inst = gen_gaussian_factored(spec)
        save_instance(inst, spec, tmp_path)
        assert [json.loads((tmp_path / "manifest.json").read_text())[name] for name in "mnk"] == [60, 40, 20]
        back = load_instance(tmp_path)
        assert (back.U.rows, back.U.cols, back.V.cols) == (60, 20, 40)
        assert np.array_equal(back.y, inst.system.y)

    def test_consistency_flag(self):
        assert ScenarioSpec("S1", m=10, n=8, k=4, seed=0).consistent
        assert ScenarioSpec("S2", m=4, n=8, k=6, seed=0).consistent
        assert not ScenarioSpec("S3a", m=12, n=5, k=8, seed=0).consistent
        assert not ScenarioSpec("S3b", m=12, n=8, k=4, seed=0).consistent


class TestGeneration:
    def test_consistent_rhs_is_exact(self):
        inst = gen_gaussian_factored(ScenarioSpec("S1", m=20, n=12, k=6, seed=3))
        sys_ = inst.system
        assert np.array_equal(sys_.y, sys_.U.data @ (sys_.V.data @ inst.beta))
        assert inst.residual_ratio == 0.0
        assert sys_.scenario == "S1"

    def test_factors_have_full_inner_rank(self):
        inst = gen_gaussian_factored(ScenarioSpec("S3b", m=24, n=15, k=8, seed=4))
        assert svd(inst.system.U).rank == 8
        assert svd(inst.system.V).rank == 8

    def test_same_seed_is_bit_reproducible(self):
        spec = ScenarioSpec("S3b", m=24, n=15, k=8, seed=5)
        a, b = gen_gaussian_factored(spec), gen_gaussian_factored(spec)
        assert np.array_equal(a.system.U.data, b.system.U.data)
        assert np.array_equal(a.system.V.data, b.system.V.data)
        assert np.array_equal(a.system.y, b.system.y)
        other = gen_gaussian_factored(ScenarioSpec("S3b", m=24, n=15, k=8, seed=6))
        assert not np.array_equal(a.system.y, other.system.y)

    def test_inconsistent_residual_geometry(self):
        inst = gen_gaussian_factored(ScenarioSpec("S3b", m=24, n=15, k=8, seed=7))
        sys_ = inst.system
        signal = sys_.U.data @ (sys_.V.data @ inst.beta)
        r = sys_.y - signal
        # Planted residual has the declared size...
        assert np.linalg.norm(r) == pytest.approx(
            RESIDUAL_RATIO * np.linalg.norm(signal), rel=1e-12
        )
        # ...and is orthogonal to range(U) (for S3b, range(U V) = range(U)).
        assert np.linalg.norm(sys_.U.data.T @ r) < 1e-9 * np.linalg.norm(r)
        # No part of it is reachable: projecting onto range(U) removes nothing.
        f = svd(sys_.U)
        basis = f.left[:, : f.rank]
        assert np.linalg.norm(r - basis @ (basis.T @ r)) == pytest.approx(
            np.linalg.norm(r), rel=1e-9
        )

    def test_s3b_optimum_splits_through_the_factors(self):
        inst = gen_gaussian_factored(ScenarioSpec("S3b", m=24, n=15, k=8, seed=8))
        sys_ = inst.system
        x_star = pinv_solve(sys_.U, sys_.y)
        # x_star is reachable by the V subsystem...
        f = svd(sys_.V)
        row_basis = f.left[:, : f.rank]  # range of V as a map to R^k
        assert np.linalg.norm(x_star - row_basis @ (row_basis.T @ x_star)) < 1e-9 * np.linalg.norm(x_star)
        # ...so solving the two stages in sequence hits the full optimum.
        assert np.allclose(
            pinv_solve(sys_.V, x_star),
            oracle_solution(sys_),
            atol=1e-9,
        )

    def test_s3a_breaks_the_split(self):
        inst = gen_gaussian_factored(ScenarioSpec("S3a", m=30, n=10, k=16, seed=9))
        sys_ = inst.system
        x_star = pinv_solve(sys_.U, sys_.y)
        # V is overdetermined as a system V b = x_star, and x_star has a
        # component outside range(V), so the stage-wise optimum differs
        # from the full-system optimum.
        b_star = pinv_solve(sys_.V, x_star)
        full = oracle_solution(sys_)
        assert np.linalg.norm(b_star - full) > 1e-3 * np.linalg.norm(full)

    def test_make_inconsistent_rhs_rejects_full_row_rank(self):
        u = DenseMatrix(master_rng(1).standard_normal((3, 3)))
        v = DenseMatrix(master_rng(2).standard_normal((3, 4)))
        with pytest.raises(ValueError):
            make_inconsistent_rhs(u, v, np.ones(4), master_rng(3))

    def test_make_inconsistent_rhs_rejects_zero_signal(self):
        u = DenseMatrix(master_rng(4).standard_normal((5, 2)))
        v = DenseMatrix(master_rng(5).standard_normal((2, 3)))
        with pytest.raises(ValueError):
            make_inconsistent_rhs(u, v, np.zeros(3), master_rng(6))

    def test_make_inconsistent_rhs_validates_beta_shape(self):
        u = DenseMatrix(master_rng(7).standard_normal((5, 2)))
        v = DenseMatrix(master_rng(8).standard_normal((2, 3)))
        with pytest.raises(ValueError):
            make_inconsistent_rhs(u, v, np.ones(2), master_rng(9))

    def test_s3b_pipeline_at_scale_never_forms_the_product(self):
        """Generation, the error reference of a 2000-step T = 1 rek-rk run and bound_inputs on an S3b
        4000x20x3000 instance peak under tracemalloc below a quarter of the 96 MB that U V would take."""
        m, n, k = 4000, 3000, 20
        tracemalloc.start()
        try:
            sys_ = gen_gaussian_factored(ScenarioSpec("S3b", m, n, k, seed=0)).system
            traj = run_experiment(RunConfig(method="rek-rk", seed=0, trials=1, budget=2000), sys_)
            bound_inputs(sys_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.iters[-1] == 2000 and np.all(np.isfinite(traj.errors))
        assert peak < m * n * 8 / 4


class TestDiskRoundTrip:
    def test_save_and_load_instance(self, tmp_path):
        spec = ScenarioSpec("S3b", m=24, n=15, k=8, seed=10)
        inst = gen_gaussian_factored(spec)
        save_instance(inst, spec, tmp_path / "inst")
        back = load_instance(tmp_path / "inst")
        assert np.array_equal(back.U.data, inst.system.U.data)
        assert np.array_equal(back.V.data, inst.system.V.data)
        assert np.array_equal(back.y, inst.system.y)
        assert back.scenario == "S3b"

    def test_manifest_contents(self, tmp_path):
        spec = ScenarioSpec("S1", m=20, n=12, k=6, seed=11)
        save_instance(gen_gaussian_factored(spec), spec, tmp_path / "inst")
        manifest = json.loads((tmp_path / "inst" / "manifest.json").read_text())
        assert manifest == {
            "scenario": "S1",
            "m": 20,
            "n": 12,
            "k": 6,
            "seed": 11,
            "consistent": True,
            "residual_ratio": 0.0,
        }

    def test_load_without_manifest_tags_custom(self, tmp_path):
        spec = ScenarioSpec("S1", m=20, n=12, k=6, seed=12)
        save_instance(gen_gaussian_factored(spec), spec, tmp_path / "inst")
        (tmp_path / "inst" / "manifest.json").unlink()
        assert load_instance(tmp_path / "inst").scenario == "custom"

    def test_load_factored_direct_paths(self, tmp_path):
        spec = ScenarioSpec("S1", m=10, n=8, k=4, seed=13)
        inst = gen_gaussian_factored(spec)
        save_instance(inst, spec, tmp_path)
        sys_ = load_factored(tmp_path / "U.mat", tmp_path / "V.mat", tmp_path / "y.vec")
        assert sys_.scenario == "custom"
        assert np.array_equal(sys_.y, inst.system.y)
