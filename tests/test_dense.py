"""Dense matrix container and text serialization."""

import re

import numpy as np
import pytest

from kaczfact.dense import (
    DenseMatrix,
    load_matrix,
    load_vector,
    save_matrix,
    save_vector,
)

from conftest import random_dense


class TestConstruction:
    def test_known_norm_caches(self):
        a = DenseMatrix([[3.0, 4.0], [0.0, 1e-4]])
        assert a.row_sqnorms.tolist() == [25.0, 1e-8]
        assert a.T.row_sqnorms.tolist() == [9.0, 16.0 + 1e-8]
        assert a.frob_sq == 25.0 + 1e-8

    def test_rejects_wrong_entry_count(self):
        # A ragged row is not a matrix.
        with pytest.raises(ValueError):
            DenseMatrix([[1.0, 2.0], [3.0]])

    def test_rejects_non_finite_entries(self, tmp_path):
        with pytest.raises(ValueError):
            DenseMatrix([[1.0, float("nan")], [0.0, 1.0]])
        with pytest.raises(ValueError):
            DenseMatrix([[np.inf, 0.0]])
        with pytest.raises(ValueError):
            save_vector(np.array([1.0, float("inf")]), tmp_path / "v.vec")

    def test_rejects_complex_entries(self, tmp_path):
        # numpy would drop the imaginary parts with only a warning, and the solve would run on another system.
        for data in ([[1 + 2j, 3.0]], np.array([[1.0, 3.0]], dtype=complex)):
            with pytest.raises(ValueError, match="complex"):
                DenseMatrix(data)
        with pytest.raises(ValueError, match="complex"):
            save_vector(np.array([1.0, 2j]), tmp_path / "v.vec")

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros(3))
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((4, 0)))

    def test_data_is_immutable(self):
        a = random_dense(3, 4, seed=7)
        with pytest.raises(ValueError):
            a.data[0, 0] = 99.0

    def test_transposed_copy_is_contiguous_and_read_only(self):
        a = random_dense(3, 4, seed=9)
        assert np.array_equal(a.T.data, a.data.T)
        assert a.T.data.flags.c_contiguous
        with pytest.raises(ValueError):
            a.T.data[0, 0] = 99.0
        # Column gathers read the transposed copy.
        assert a.T.data[1].flags.c_contiguous

    def test_transpose_is_the_same_matrix_turned(self):
        a = random_dense(3, 4, seed=9)
        t = a.T
        assert t is a.T and t.T is a
        assert (t.rows, t.cols) == (a.cols, a.rows)
        # The column norms are A's cached ones, and the Frobenius norm is the same float.
        assert t.frob_sq == a.frob_sq
        assert np.array_equal(t.row_sqnorms, (a.data * a.data).sum(axis=0))
        with pytest.raises(ValueError):
            t.row_sqnorms[0] = 1.0

    def test_transpose_outliving_its_matrix_rebuilds_it(self):
        """A transpose whose matrix was freed rebuilds that matrix once and holds it: it has A's bytes and
        norms, and the two turn into each other for as long as the transpose lives."""
        x = np.random.default_rng(3).standard_normal((5, 3))
        t = DenseMatrix(x).T
        a = t.T
        assert a is not None and a.T is t and t.T is a
        want = DenseMatrix(x)
        for got_arr, want_arr in ((a.data, x), (a.row_sqnorms, want.row_sqnorms), (t.row_sqnorms, want.T.row_sqnorms)):
            assert got_arr.tobytes() == want_arr.tobytes()
        assert a.frob_sq == t.frob_sq == want.frob_sq

    @pytest.mark.parametrize(
        "data",
        [[[1.3e154, 0.0], [0.0, 1.3e154], [1e-3, 1.0]], [[1e200, 0.0]], [[1e154], [1e154]]],
        ids=["total", "entry", "column"],
    )
    def test_rejects_overflowing_squared_norms(self, data):
        """Squared norms past the largest double would break the samplers; the matrix is rejected
        up front, with no overflow warning on the way."""
        with pytest.raises(ValueError, match="overflow"):
            DenseMatrix(data)
        assert DenseMatrix(np.array(data) * 1e-60).frob_sq < np.inf

    def test_norm_caches_match_direct_computation(self):
        for seed in range(5):
            a = random_dense(6 + seed, 4 + seed, seed=seed)
            dense = a.data
            assert np.allclose(a.row_sqnorms, (dense * dense).sum(axis=1), rtol=1e-14)
            assert np.allclose(a.T.row_sqnorms, (dense * dense).sum(axis=0), rtol=1e-14)
            assert np.isclose(a.frob_sq, (dense * dense).sum(), rtol=1e-14)


class TestSerialization:
    AWKWARD = [1.0 / 3.0, -0.0, 1e-300, -1.5e150, 5.0e-324, 12345.6789]

    def test_matrix_round_trip_is_exact(self, tmp_path):
        a = DenseMatrix(np.reshape(self.AWKWARD, (2, 3)))
        path = tmp_path / "a.mat"
        save_matrix(a, path)
        back = load_matrix(path)
        assert back.rows == 2 and back.cols == 3
        assert np.array_equal(back.data, a.data)

    def test_vector_round_trip_is_exact(self, tmp_path):
        v = np.array(self.AWKWARD)
        path = tmp_path / "v.vec"
        save_vector(v, path)
        back = load_vector(path)
        assert np.array_equal(back, v)

    def test_matrix_header_and_layout(self, tmp_path):
        a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "a.mat"
        save_matrix(a, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2"
        assert len(lines) == 3

    def test_vector_header_and_layout(self, tmp_path):
        path = tmp_path / "v.vec"
        save_vector(np.array([7.0, 8.0]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2"
        assert len(lines) == 3

    def test_load_matrix_rejects_malformed_input(self, tmp_path):
        bad_header = tmp_path / "bad1.mat"
        bad_header.write_text("2\n1 2\n3 4\n")
        with pytest.raises(ValueError):
            load_matrix(bad_header)

        wrong_width = tmp_path / "bad2.mat"
        wrong_width.write_text("2 2\n1 2 3\n4 5\n")
        with pytest.raises(ValueError):
            load_matrix(wrong_width)

        missing_row = tmp_path / "bad3.mat"
        missing_row.write_text("2 2\n1 2\n")
        with pytest.raises(ValueError):
            load_matrix(missing_row)

        not_numbers = tmp_path / "bad4.mat"
        not_numbers.write_text("1 2\nfoo bar\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(not_numbers))}$"):
            load_matrix(not_numbers)

        not_finite = tmp_path / "bad5.mat"
        not_finite.write_text("1 2\nnan 1\n")
        with pytest.raises(ValueError, match=f"non-finite .* in {re.escape(str(not_finite))}$"):
            load_matrix(not_finite)

        header_not_integers = tmp_path / "U.mat"
        header_not_integers.write_text("2 x\n1 2\n3 4\n")
        with pytest.raises(ValueError, match=f"malformed matrix header .* in {re.escape(str(header_not_integers))}$"):
            load_matrix(header_not_integers)

    def test_load_vector_rejects_malformed_input(self, tmp_path):
        bad_len = tmp_path / "bad.vec"
        bad_len.write_text("3\n1.0\n2.0\n")
        with pytest.raises(ValueError):
            load_vector(bad_len)

        header_not_integer = tmp_path / "y.vec"
        header_not_integer.write_text("two\n1.0\n2.0\n")
        with pytest.raises(ValueError, match=f"malformed vector header .* in {re.escape(str(header_not_integer))}$"):
            load_vector(header_not_integer)

        not_numbers = tmp_path / "bad2.vec"
        not_numbers.write_text("2\n1.0\nfoo\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(not_numbers))}$"):
            load_vector(not_numbers)
