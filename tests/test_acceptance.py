"""Acceptance suite: one check per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Every quantitative check uses frozen instance seeds and run seeds so the
numbers it prints are reproducible bit-for-bit.
"""

import time

import numpy as np
import pytest

from kaczfact.bench import RunConfig, emit_csv, oracle_solution, run_experiment
from kaczfact.dense import DenseMatrix
from kaczfact.interlaced import FactoredSystem, bound_inputs, expected_error_bound, init_interlaced
from kaczfact.oracle import pinv_solve, rate_constants_of, svd
from kaczfact.sampling import master_rng
from kaczfact.solvers import init_state
from kaczfact.systems import ScenarioSpec, gen_gaussian_factored

from conftest import consistent_system, inconsistent_system, jacobi_eigvalsh, projector_rowspace
from reference import step


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}"
    print("\n" + line)
    assert ok, line


def rel_sq(err_sq: float, star: np.ndarray) -> float:
    return float(err_sq) / float(star @ star)


@pytest.fixture(scope="module")
def s1_instance():
    sys_ = gen_gaussian_factored(ScenarioSpec("S1", 60, 40, 20, seed=220)).system
    star = oracle_solution(sys_)
    return sys_, star


@pytest.fixture(scope="module")
def s3b_instance():
    sys_ = gen_gaussian_factored(ScenarioSpec("S3b", 120, 75, 50, seed=5)).system
    star = oracle_solution(sys_)
    return sys_, star


@pytest.fixture(scope="module")
def rkrk_s1_run(s1_instance):
    sys_, star = s1_instance
    start = time.perf_counter()
    traj = run_experiment(
        RunConfig(method="rk-rk", seed=0, trials=200, budget=20_000), sys_, beta_star=star
    )
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def rekrk_s3b_run(s3b_instance):
    sys_, star = s3b_instance
    start = time.perf_counter()
    traj = run_experiment(
        RunConfig(method="rek-rk", seed=0, trials=200, budget=50_000), sys_, beta_star=star
    )
    return traj, time.perf_counter() - start


def test_criterion_1_consistent_bound_domination(s1_instance, rkrk_s1_run):
    sys_, star = s1_instance
    traj, runtime = rkrk_s1_run
    inputs = bound_inputs(sys_)
    bounds = np.array([expected_error_bound(inputs, "a", int(t)) for t in traj.iters])
    ratios = traj.mean_errors() / bounds
    worst = float(ratios.max())
    ok = bool(np.all(ratios <= 1.15)) and runtime < 30.0
    report(
        1,
        "interlaced rk-rk mean error under the consistent-data curve",
        ok,
        f"200 trials x 20000 iters on 60x40 (inner 20) data, max mean/bound ratio "
        f"{worst:.4f} over {traj.iters.size} recorded points (limit 1.15), runtime {runtime:.1f}s (limit 30s)",
    )


def test_criterion_2_inconsistent_bound_domination(s3b_instance, rekrk_s3b_run):
    sys_, star = s3b_instance
    traj, runtime = rekrk_s3b_run
    inputs = bound_inputs(sys_)
    bounds = np.array([expected_error_bound(inputs, "b", int(t)) for t in traj.iters])
    ratios = traj.mean_errors() / bounds
    worst = float(ratios.max())
    ok = bool(np.all(ratios <= 1.15)) and runtime < 120.0
    report(
        2,
        "interlaced rek-rk mean error under the inconsistent-data curve",
        ok,
        f"200 trials x 50000 iters on 120x75 (inner 50) data, max mean/bound ratio "
        f"{worst:.6f} (limit 1.15), runtime {runtime:.1f}s (limit 120s)",
    )


def test_criterion_3_scenario_convergence_classification(s1_instance, s3b_instance, rkrk_s1_run, rekrk_s3b_run):
    _, star1 = s1_instance
    _, star2 = s3b_instance
    white_s1 = rel_sq(rkrk_s1_run[0].mean_errors()[-1], star1)
    white_s3b = rel_sq(rekrk_s3b_run[0].mean_errors()[-1], star2)

    s2 = gen_gaussian_factored(ScenarioSpec("S2", 40, 60, 50, seed=0)).system
    star_s2 = oracle_solution(s2)
    gray_s2 = rel_sq(
        run_experiment(RunConfig(method="rk-rk", seed=0, trials=40, budget=20_000), s2, beta_star=star_s2)
        .mean_errors()[-1],
        star_s2,
    )
    s3a = gen_gaussian_factored(ScenarioSpec("S3a", 120, 75, 90, seed=0)).system
    star_s3a = oracle_solution(s3a)
    gray_s3a = rel_sq(
        run_experiment(RunConfig(method="rek-rk", seed=0, trials=40, budget=50_000), s3a, beta_star=star_s3a)
        .mean_errors()[-1],
        star_s3a,
    )
    ok = white_s1 < 1e-6 and white_s3b < 1e-6 and gray_s2 > 1e-2 and gray_s3a > 1e-2
    report(
        3,
        "scenario white/gray classification",
        ok,
        f"relative squared error: S1 rk-rk {white_s1:.2e} and S3b rek-rk {white_s3b:.2e} (< 1e-6); "
        f"S2 rk-rk {gray_s2:.2e} and S3a rek-rk {gray_s3a:.2e} (> 1e-2)",
    )


def test_criterion_4_baseline_method_regimes():
    systems = {
        "overdet-consistent": consistent_system(30, 10, seed=11)[:2],
        "overdet-inconsistent": inconsistent_system(30, 10, seed=12)[:2],
        "underdet-consistent": consistent_system(10, 30, seed=13)[:2],
    }
    # True = converges to the pseudo-inverse solution, False = stays off it.
    expected = {
        "rk": {"overdet-consistent": True, "overdet-inconsistent": False, "underdet-consistent": True},
        "rek": {"overdet-consistent": True, "overdet-inconsistent": True, "underdet-consistent": True},
        "rgs": {"overdet-consistent": True, "overdet-inconsistent": True, "underdet-consistent": False},
        "regs": {"overdet-consistent": True, "overdet-inconsistent": True, "underdet-consistent": True},
    }
    results = {}
    ok = True
    for method, regime_expectations in expected.items():
        for regime, should_converge in regime_expectations.items():
            a, y = systems[regime]
            star = pinv_solve(a, y)
            traj = run_experiment(
                RunConfig(method=method, seed=97, trials=4, budget=20_000), (a, y), beta_star=star
            )
            rel = rel_sq(traj.mean_errors()[-1], star)
            results[(method, regime)] = rel
            ok = ok and (rel < 1e-6 if should_converge else rel > 1e-2)
    converged = {k: f"{v:.1e}" for k, v in results.items() if expected[k[0]][k[1]]}
    failed = {k: f"{v:.1e}" for k, v in results.items() if not expected[k[0]][k[1]]}
    report(
        4,
        "single-system method regime table",
        ok,
        f"12 method/regime pairs; worst converging relative squared error "
        f"{max(float(v) for v in converged.values()):.1e} (< 1e-6); "
        f"off-target cases rk/inconsistent {results[('rk', 'overdet-inconsistent')]:.2f} and "
        f"rgs/underdetermined {results[('rgs', 'underdet-consistent')]:.2f} (> 1e-2)",
    )


def first_flops_at(traj, threshold):
    means = traj.mean_errors()
    hit = np.nonzero(means <= threshold)[0]
    return int(traj.flops[hit[0]]) if hit.size else None


def test_criterion_5_flop_ordering(s3b_instance):
    sys_, star = s3b_instance
    threshold = 1e-4 * float(star @ star)
    rekrk = run_experiment(
        RunConfig(method="rek-rk", seed=41, trials=40, budget=50_000, stride=50), sys_, beta_star=star
    )
    rekrek = run_experiment(
        RunConfig(method="rek-rek", seed=41, trials=40, budget=50_000, stride=50), sys_, beta_star=star
    )
    f_rekrk = first_flops_at(rekrk, threshold)
    f_rekrek = first_flops_at(rekrek, threshold)
    part1 = f_rekrk is not None and f_rekrek is not None and f_rekrk < f_rekrek

    # Ill-conditioned instance with a controlled spectrum: orthonormal
    # outer factors and a geometric singular-value profile split evenly
    # across U and V, so the product squares the condition number.
    g = master_rng(77)
    s = np.geomspace(1.0, 1.0 / 7.0, 50)
    p_factor, _ = np.linalg.qr(g.standard_normal((120, 50)))
    q_factor, _ = np.linalg.qr(g.standard_normal((75, 50)))
    u_ill = DenseMatrix(p_factor * s)
    v_ill = DenseMatrix(s[:, None] * q_factor.T)
    beta = g.standard_normal(75)
    y_ill = u_ill.data @ (v_ill.data @ beta)
    ill = FactoredSystem(U=u_ill, V=v_ill, y=y_ill)
    x_ill = DenseMatrix(u_ill.data @ v_ill.data)
    kappa_u = rate_constants_of(svd(u_ill), u_ill.frob_sq).kappa_sq
    kappa_x = rate_constants_of(svd(x_ill), x_ill.frob_sq).kappa_sq
    star_ill = oracle_solution(ill)
    thr_ill = 1e-4 * float(star_ill @ star_ill)
    e_rekrk = run_experiment(
        RunConfig(method="rek-rk", seed=42, trials=40, budget=60_000, stride=200), ill, beta_star=star_ill
    )
    e_rekrek = run_experiment(
        RunConfig(method="rek-rek", seed=42, trials=40, budget=60_000, stride=200), ill, beta_star=star_ill
    )
    e_full = run_experiment(
        RunConfig(method="rek", seed=42, trials=40, budget=150_000, stride=200), (x_ill, y_ill), beta_star=star_ill
    )
    fe_rekrk = first_flops_at(e_rekrk, thr_ill)
    fe_rekrek = first_flops_at(e_rekrek, thr_ill)
    fe_full = first_flops_at(e_full, thr_ill)
    part2 = (
        None not in (fe_rekrk, fe_rekrek, fe_full)
        and fe_rekrk < fe_rekrek < fe_full
        and kappa_x > 10 * kappa_u
    )
    report(
        5,
        "flops-to-threshold ordering",
        part1 and part2,
        f"S3b data: rek-rk {f_rekrk} < rek-rek {f_rekrek} flops to reach 1e-4 relative mean error; "
        f"ill-conditioned data (kappa_sq {kappa_u:.0f} per factor vs {kappa_x:.0f} assembled): "
        f"rek-rk {fe_rekrk} < rek-rek {fe_rekrek} < full-system rek {fe_full}",
    )


def test_criterion_6_factor_contraction_dominates_full_system():
    s1_dims = [(60, 40, 20), (90, 60, 30), (120, 80, 40), (45, 30, 15)]
    s3a_dims = [(120, 75, 90), (80, 50, 60), (160, 100, 120), (100, 60, 75)]
    s3b_dims = [(120, 75, 50), (96, 60, 40), (72, 45, 30), (60, 40, 25)]
    dims_for = {"S1": s1_dims, "S3a": s3a_dims, "S3b": s3b_dims}
    violations = 0
    worst_margin = np.inf
    for i in range(50):
        family = ("S1", "S3a", "S3b")[i % 3]
        dims = dims_for[family][(i // 3) % 4]
        sys_ = gen_gaussian_factored(ScenarioSpec(family, *dims, seed=1000 + i)).system
        alpha_u = rate_constants_of(svd(sys_.U), sys_.U.frob_sq).alpha
        alpha_v = rate_constants_of(svd(sys_.V), sys_.V.frob_sq).alpha
        x = DenseMatrix(sys_.U.data @ sys_.V.data)
        alpha_x = rate_constants_of(svd(x), x.frob_sq).alpha
        margin = min(alpha_x - alpha_u, alpha_x - alpha_v)
        worst_margin = min(worst_margin, margin)
        violations += margin < 0
    ok = violations == 0
    report(
        6,
        "factors contract at least as fast as the assembled system",
        ok,
        f"50 benchmark-family instances, {violations} violations of "
        f"alpha_U, alpha_V <= alpha_X, worst margin {worst_margin:.2e}",
    )


def test_criterion_7_oracle_correctness():
    rng = master_rng(700)
    shapes = [(6, 4), (4, 6), (5, 5), (12, 7), (7, 12), (9, 9), (20, 8), (8, 20), (15, 10), (10, 15)]
    max_identity_gap = 0.0
    max_orthogonality = 0.0
    checked = 0
    for idx in range(24):
        rows, cols = shapes[idx % len(shapes)]
        if idx % 3 == 2:
            inner = max(1, min(rows, cols) - 2)
            dense = rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
        else:
            dense = rng.standard_normal((rows, cols))
        a = DenseMatrix(dense)
        f = svd(a)
        pinv = f.right[:, : f.rank] @ (f.left[:, : f.rank].T / f.singular_values[: f.rank, None])
        scale = float(np.linalg.norm(dense))
        gaps = [
            np.linalg.norm(dense @ pinv @ dense - dense) / scale,
            np.linalg.norm(pinv @ dense @ pinv - pinv) / np.linalg.norm(pinv),
            np.linalg.norm((dense @ pinv).T - dense @ pinv) / max(1.0, np.linalg.norm(dense @ pinv)),
            np.linalg.norm((pinv @ dense).T - pinv @ dense) / max(1.0, np.linalg.norm(pinv @ dense)),
        ]
        max_identity_gap = max(max_identity_gap, *[float(gp) for gp in gaps])
        y = rng.standard_normal(rows)
        beta = pinv_solve(a, y)
        resid = y - dense @ beta
        ortho = np.linalg.norm(dense.T @ resid) / (scale * (1.0 + np.linalg.norm(resid)))
        max_orthogonality = max(max_orthogonality, float(ortho))
        checked += 1

    max_sigma_gap = 0.0
    for rows, cols, seed in [(6, 4, 20), (5, 5, 21), (4, 7, 22), (12, 9, 23), (12, 12, 24), (3, 12, 25)]:
        a = DenseMatrix(master_rng(seed).standard_normal((rows, cols)))
        sigma_sq = np.sort(svd(a).singular_values ** 2)
        eigs = np.sort(jacobi_eigvalsh(a.data.T @ a.data))[-min(rows, cols):]
        gap = np.max(np.abs(sigma_sq - eigs)) / eigs.max()
        max_sigma_gap = max(max_sigma_gap, float(gap))
    ok = max_identity_gap < 1e-9 and max_orthogonality < 1e-9 and max_sigma_gap < 1e-8
    report(
        7,
        "pseudo-inverse oracle",
        ok,
        f"{checked} instances: worst Moore-Penrose identity gap {max_identity_gap:.1e} (< 1e-9), "
        f"worst normal-equation residual {max_orthogonality:.1e} (< 1e-9), "
        f"worst spectrum gap vs independent Jacobi eigensolver {max_sigma_gap:.1e} (< 1e-8)",
    )


def test_criterion_8_per_step_invariants(s3b_instance):
    # (i) drawn-row exactness after each rk step
    a, y, _ = consistent_system(15, 6, seed=800)
    state = init_state("rk", a, y)
    rng = master_rng(801)
    row_gap = 0.0
    for _ in range(100):
        (i,) = step("rk", (a, y), state, rng)
        row_gap = max(row_gap, abs(y[i] - a.data[i] @ state.beta) / (1.0 + abs(y[i])))

    # (ii) drawn-column orthogonality of z after each rek step
    ai, yi, _ = inconsistent_system(15, 6, seed=802)
    state = init_state("rek", ai, yi)
    col_gap = 0.0
    for _ in range(100):
        _, j = step("rek", (ai, yi), state, rng)
        col_gap = max(
            col_gap,
            abs(ai.T.data[j] @ state.z) / (np.linalg.norm(ai.T.data[j]) * (1.0 + np.linalg.norm(state.z))),
        )

    # (iii) drawn-row annihilation of the regs correction
    state = init_state("regs", ai, yi)
    ann_gap = 0.0
    for _ in range(100):
        i, _ = step("regs", (ai, yi), state, rng)
        ann_gap = max(
            ann_gap,
            abs(ai.data[i] @ state.z) / (np.linalg.norm(ai.data[i]) * (1.0 + np.linalg.norm(state.z))),
        )

    # (iv) rk error monotone along one consistent trajectory
    star = pinv_solve(a, y)
    state = init_state("rk", a, y)
    prev = float(star @ star)
    monotone = True
    for _ in range(400):
        step("rk", (a, y), state, rng)
        err = float(np.sum((state.beta - star) ** 2))
        monotone = monotone and err <= prev * (1.0 + 1e-12)
        prev = err

    # (v) interlaced iterate confined to the row space of V
    sys_, _ = s3b_instance
    project = projector_rowspace(sys_.V)
    confinement = 0.0
    for method in ("rk-rk", "rek-rk"):
        istate = init_interlaced(method, sys_)
        for _ in range(300):
            step(method, sys_, istate, rng)
        confinement = max(
            confinement, float(np.linalg.norm(istate.b - project(istate.b)) / np.linalg.norm(istate.b))
        )

    ok = row_gap < 1e-10 and col_gap < 1e-10 and ann_gap < 1e-10 and monotone and confinement < 1e-10
    report(
        8,
        "per-step invariants",
        ok,
        f"row exactness {row_gap:.1e}, column orthogonality {col_gap:.1e}, "
        f"row annihilation {ann_gap:.1e} (all < 1e-10), error monotone {monotone}, "
        f"row-space confinement {confinement:.1e} (< 1e-10)",
    )


def test_criterion_9_byte_identical_reruns(s3b_instance, tmp_path):
    sys_, star = s3b_instance
    config = RunConfig(method="rek-rk", seed=900, trials=5, budget=2000, stride=100)
    paths = []
    for tag in ("first", "second"):
        traj = run_experiment(config, sys_, beta_star=star)
        path = tmp_path / f"{tag}.csv"
        emit_csv(traj, path)
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1] and len(paths[0]) > 0
    report(
        9,
        "determinism",
        ok,
        f"two identically configured runs wrote byte-identical trajectory CSVs ({len(paths[0])} bytes)",
    )


def test_criterion_10_convergence_horizon(s3b_instance):
    sys_, star = s3b_instance
    traj = run_experiment(
        RunConfig(method="rk-rk", seed=0, trials=40, budget=20_000), sys_, beta_star=star
    )
    last10 = traj.mean_errors()[-10:]
    median = float(np.median(last10))
    spread_lo = float(last10.min() / median)
    spread_hi = float(last10.max() / median)
    floor = 1e-3 * float(star @ star)
    ok = spread_hi <= 2.0 and spread_lo >= 0.5 and median > floor
    report(
        10,
        "plain interlacing plateaus on inconsistent data",
        ok,
        f"last 10 recorded means span {spread_lo:.3f}x-{spread_hi:.3f}x their median "
        f"(within 2x), median relative squared error {median / float(star @ star):.3f} (> 1e-3)",
    )
