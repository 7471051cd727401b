"""Direct SVD-based reference solutions and spectral rate constants."""

import numpy as np
import pytest

from kaczfact.dense import DenseMatrix
from kaczfact.bench import oracle_solution
from kaczfact.interlaced import FactoredSystem
from kaczfact.oracle import DEFAULT_RANK_TOL, pinv_solve, qr_reduce, rate_constants_of, svd
from kaczfact.sampling import master_rng
from kaczfact.systems import RESIDUAL_RATIO, make_inconsistent_rhs

from conftest import jacobi_eigvalsh, projector_rowspace, random_dense
from reference import product_solution


def rank_deficient(rows: int, cols: int, rank: int, seed: int) -> DenseMatrix:
    rng = master_rng(seed)
    left = rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols))
    return DenseMatrix(left @ right)


class TestSvd:
    def test_orthonormal_factors_and_reconstruction(self):
        a = random_dense(7, 5, seed=11)
        f = svd(a)
        left, right = f.left, f.right
        assert np.allclose(left.T @ left, np.eye(left.shape[1]), atol=1e-12)
        assert np.allclose(right.T @ right, np.eye(right.shape[1]), atol=1e-12)
        assert np.allclose(left @ np.diag(f.singular_values) @ right.T, a.data, atol=1e-12)
        assert np.all(np.diff(f.singular_values) <= 0.0)

    def test_rank_detection(self):
        a = rank_deficient(8, 6, rank=3, seed=12)
        assert svd(a).rank == 3
        assert svd(random_dense(4, 9, seed=13)).rank == 4

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            svd(DenseMatrix([[0.0, 0.0], [0.0, 0.0]]))

    def test_singular_values_match_jacobi_eigenvalues(self):
        # Independent route: squared singular values are the eigenvalues of
        # the Gram matrix, computed here with hand-rolled Jacobi rotations.
        for rows, cols, seed in [(6, 4, 20), (5, 5, 21), (4, 7, 22), (12, 9, 23)]:
            a = random_dense(rows, cols, seed=seed)
            sigma_sq = np.sort(svd(a).singular_values ** 2)
            gram_eigs = jacobi_eigvalsh(a.data.T @ a.data)
            width = min(rows, cols)
            expected = np.sort(gram_eigs)[-width:]
            assert np.allclose(sigma_sq, expected, rtol=1e-8, atol=1e-8 * expected.max())


class TestPinvSolve:
    def test_diagonal_system(self):
        a = DenseMatrix([[2.0, 0.0], [0.0, 4.0]])
        assert np.allclose(pinv_solve(a, np.array([2.0, 8.0])), [1.0, 2.0], rtol=1e-14)

    def test_underdetermined_least_norm(self):
        a = DenseMatrix([[1.0, 1.0]])
        assert np.allclose(pinv_solve(a, np.array([2.0])), [1.0, 1.0], rtol=1e-14)

    def test_moore_penrose_identities(self):
        shapes = [(6, 4, None), (4, 6, None), (5, 5, None), (8, 6, 3), (6, 9, 4)]
        for idx, (rows, cols, rank) in enumerate(shapes):
            if rank is None:
                a = random_dense(rows, cols, seed=30 + idx)
            else:
                a = rank_deficient(rows, cols, rank, seed=30 + idx)
            dense = a.data
            f = svd(a)
            pinv = f.right[:, : f.rank] @ (f.left[:, : f.rank].T / f.singular_values[: f.rank, None])
            scale = np.abs(dense).max()
            assert np.allclose(dense @ pinv @ dense, dense, atol=1e-10 * scale)
            assert np.allclose(pinv @ dense @ pinv, pinv, atol=1e-10 / scale)
            assert np.allclose((dense @ pinv).T, dense @ pinv, atol=1e-11)
            assert np.allclose((pinv @ dense).T, pinv @ dense, atol=1e-11)
            # The solver route agrees with the explicit pseudo-inverse.
            y = master_rng(60 + idx).standard_normal(rows)
            assert np.allclose(pinv_solve(a, y), pinv @ y, atol=1e-11)

    def test_normal_equations_hold(self, rng):
        a = random_dense(12, 5, seed=40)
        y = rng.standard_normal(12)
        beta = pinv_solve(a, y)
        assert np.linalg.norm(a.data.T @ (a.data @ beta - y)) < 1e-10

    def test_solution_lies_in_rowspace(self, rng):
        a = rank_deficient(6, 8, rank=3, seed=41)
        y = rng.standard_normal(6)
        beta = pinv_solve(a, y)
        project = projector_rowspace(a)
        assert np.allclose(project(beta), beta, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pinv_solve(random_dense(3, 2, seed=1), np.zeros(2))


class TestRateConstants:
    def test_diagonal_example(self):
        a = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
        c = rate_constants_of(svd(a), a.frob_sq)
        assert c.sigma_min_sq == pytest.approx(1.0, rel=1e-12)
        assert c.sigma_max_sq == pytest.approx(4.0, rel=1e-12)
        assert c.frob_sq == pytest.approx(5.0, rel=1e-15)
        assert c.alpha == pytest.approx(1.0 - 1.0 / 5.0, rel=1e-12)
        assert c.kappa_sq == pytest.approx(4.0, rel=1e-12)
        assert c.theta == pytest.approx(1.0, rel=1e-12)

    def test_rank_deficient_uses_smallest_nonzero_singular_value(self):
        a = DenseMatrix([[3.0, 0.0], [0.0, 0.0]])
        c = rate_constants_of(svd(a), a.frob_sq)
        assert c.sigma_min_sq == pytest.approx(9.0, rel=1e-12)
        assert c.alpha == pytest.approx(0.0, abs=1e-15)
        assert c.kappa_sq == pytest.approx(1.0, rel=1e-12)
        assert c.theta == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_identity_contraction_rate(self):
        a = DenseMatrix([[1.0, 0.0], [0.0, 1.0]])
        c = rate_constants_of(svd(a), a.frob_sq)
        assert c.alpha == pytest.approx(0.5, rel=1e-14)

    def test_alpha_always_a_valid_contraction_factor(self):
        for seed in range(8):
            rows = 4 + seed
            cols = 3 + (seed % 4)
            a = random_dense(rows, cols, seed=80 + seed)
            c = rate_constants_of(svd(a), a.frob_sq)
            assert 0.0 <= c.alpha < 1.0
            assert c.kappa_sq >= 1.0
            assert c.theta > 0.0

    def test_rank_tolerance_is_relative(self):
        a = DenseMatrix([[1e6, 0.0], [0.0, 1e-6]])
        # 1e-6 / 1e6 = 1e-12 < DEFAULT_RANK_TOL, so the tiny value is noise.
        assert rate_constants_of(svd(a), a.frob_sq).sigma_min_sq == pytest.approx(1e12, rel=1e-9)
        assert DEFAULT_RANK_TOL == 1e-10


class TestProjectorAndResiduals:
    def test_projector_is_idempotent(self, rng):
        a = rank_deficient(5, 7, rank=3, seed=50)
        project = projector_rowspace(a)
        v = rng.standard_normal(7)
        once = project(v)
        assert np.allclose(project(once), once, atol=1e-12)

    def test_projector_fixes_rows_and_kills_complement(self, rng):
        a = rank_deficient(5, 7, rank=3, seed=51)
        project = projector_rowspace(a)
        row_combo = a.data.T @ rng.standard_normal(5)
        assert np.allclose(project(row_combo), row_combo, atol=1e-10)
        v = rng.standard_normal(7)
        complement = v - project(v)
        assert np.linalg.norm(project(complement)) < 1e-10


# (U, V) pairs on which the QR route is held to the formed product U @ V.
QR_CASES = {
    "k-lt-min-m-n": lambda: (random_dense(9, 4, seed=52), random_dense(4, 6, seed=53)),
    "rank-deficient": lambda: (rank_deficient(12, 6, rank=3, seed=54), rank_deficient(6, 9, rank=4, seed=55)),
    "k-gt-m": lambda: (random_dense(7, 9, seed=56), random_dense(9, 4, seed=57)),
    "n-lt-k-lt-m": lambda: (random_dense(14, 9, seed=58), random_dense(9, 5, seed=59)),
    "one-wide": lambda: (random_dense(10, 1, seed=60), random_dense(1, 6, seed=61)),
}


def product_inconsistent_rhs(U, V, beta, rng):
    """``systems.make_inconsistent_rhs`` with range(U V) read from an SVD of the formed product."""
    signal = U.data @ (V.data @ beta)
    f = svd(DenseMatrix(U.data @ V.data))
    w = rng.standard_normal(U.rows)
    basis = f.left[:, : f.rank]
    r = w - basis @ (basis.T @ w)
    return signal + r * (RESIDUAL_RATIO * np.linalg.norm(signal) / np.linalg.norm(r))


@pytest.mark.parametrize("case", sorted(QR_CASES))
class TestQrReduce:
    """U = Q R stands for U V through Q and R V: same spectrum, same solution, same planted residual."""

    def test_r_v_has_the_product_spectrum(self, case):
        u, v = QR_CASES[case]()
        q, rv = qr_reduce(u, v)
        assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-14)
        assert np.allclose(q @ rv.data, u.data @ v.data, rtol=0, atol=1e-13 * np.abs(u.data @ v.data).max())
        ours, product = svd(rv), svd(DenseMatrix(u.data @ v.data))
        assert ours.rank == product.rank
        r = min(ours.singular_values.size, product.singular_values.size)
        scale = product.singular_values[0]
        assert np.abs(ours.singular_values[:r] - product.singular_values[:r]).max() <= 1e-12 * scale

    def test_solution_matches_product_pinv(self, case, rng):
        u, v = QR_CASES[case]()
        y = rng.standard_normal(u.rows)
        expected = product_solution(u, v, y)
        got = oracle_solution(FactoredSystem(U=u, V=v, y=y))
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_planted_residual_matches_product_route(self, case, rng):
        u, v = QR_CASES[case]()
        beta = rng.standard_normal(v.cols)
        expected = product_inconsistent_rhs(u, v, beta, master_rng(62))
        got = make_inconsistent_rhs(u, v, beta, master_rng(62))
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_qr_reduce_rejects_mismatched_factors():
    with pytest.raises(ValueError, match="factor dimension mismatch"):
        qr_reduce(random_dense(5, 3, seed=63), random_dense(4, 2, seed=64))
