"""Squared-norm-weighted index sampling and stream management."""

import numpy as np
import pytest

from kaczfact.dense import DenseMatrix
from kaczfact.sampling import NormSampler, col_sampler, master_rng, row_sampler, trial_rng

from conftest import FixedUniforms, random_dense


class TestNormSampler:
    def test_probabilities_match_weight_ratios(self):
        # Row weights (25, 1e-8): row 1 owns the top 1e-8 / (25 + 1e-8) = 4e-10 of [0, 1).
        sampler = row_sampler(DenseMatrix([[3.0, 4.0], [0.0, 1e-4]]))
        assert sampler.draw_many(np.array([0.0, 1.0 - 1e-9, 1.0 - 1e-10])).tolist() == [0, 0, 1]

    def test_column_weights(self):
        # Column weights (9, 16 + 1e-8): column 0 owns [0, 9 / (25 + 1e-8)) = [0, 0.36).
        sampler = col_sampler(DenseMatrix([[3.0, 4.0], [0.0, 1e-4]]))
        assert sampler.draw_many(np.array([0.0, 0.3599, 0.3601, 0.9999])).tolist() == [0, 0, 1, 1]

    def test_rejects_zero_weight(self):
        """Negative or all-zero weights are rejected; a zero weight among positive ones is never drawn."""
        with pytest.raises(ValueError, match="non-negative"):
            NormSampler(np.array([1.0, -1.0, 2.0]))
        with pytest.raises(ValueError, match="not all zero"):
            NormSampler(np.zeros(3))
        with pytest.raises(ValueError, match="not all zero"):
            row_sampler(DenseMatrix([[0.0, 0.0], [0.0, 0.0]]))
        sampler = NormSampler(np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]))
        uniforms = [0.0, 0.4999, 0.5, np.nextafter(1.0, 0.0)]
        assert sampler.draw_many(np.array(uniforms)).tolist() == [1, 1, 4, 4]
        assert [sampler.draw(FixedUniforms([u])) for u in uniforms] == [1, 1, 4, 4]

    def test_rejects_empty_or_non_finite_weights(self):
        with pytest.raises(ValueError):
            NormSampler(np.array([]))
        with pytest.raises(ValueError):
            NormSampler(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            NormSampler(np.array([1.0, np.inf]))

    def test_draw_boundaries(self):
        sampler = NormSampler(np.array([1.0, 1.0]))
        assert sampler.draw(FixedUniforms([0.0])) == 0
        assert sampler.draw(FixedUniforms([0.4999])) == 0
        assert sampler.draw(FixedUniforms([0.5])) == 1
        assert sampler.draw(FixedUniforms([0.9999])) == 1

    def test_draw_many_matches_repeated_draw(self):
        sampler = NormSampler(np.array([0.5, 2.5, 1.0, 3.0]))
        uniforms = master_rng(9).random(64)
        sequential = [sampler.draw(FixedUniforms([u])) for u in uniforms]
        assert sampler.draw_many(uniforms).tolist() == sequential

    def test_same_seed_reproduces_draws(self):
        sampler = NormSampler(np.array([1.0, 2.0, 3.0]))
        first = [sampler.draw(master_rng(5)) for _ in range(1)]
        second = [sampler.draw(master_rng(5)) for _ in range(1)]
        assert first == second
        g1, g2 = master_rng(6), master_rng(6)
        assert [sampler.draw(g1) for _ in range(50)] == [sampler.draw(g2) for _ in range(50)]

    def test_empirical_frequencies_match_probabilities(self):
        weights = np.array([4.0, 1.0, 9.0, 2.0, 0.5])
        sampler = NormSampler(weights)
        draws = 200_000
        counts = np.bincount(sampler.draw_many(master_rng(42).random(draws)), minlength=5)
        probs = weights / weights.sum()
        # Each bin count is Binomial(draws, p): stay within four standard deviations.
        sigma = np.sqrt(draws * probs * (1.0 - probs))
        assert np.all(np.abs(counts - draws * probs) < 4.0 * sigma)

    def test_chi_square_goodness_of_fit(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        weights = np.array([4.0, 1.0, 9.0, 2.0, 0.5])
        sampler = NormSampler(weights)
        draws = 200_000
        counts = np.bincount(sampler.draw_many(master_rng(43).random(draws)), minlength=5)
        expected = draws * weights / weights.sum()
        result = scipy_stats.chisquare(counts, expected)
        assert result.pvalue > 1e-3


class TestSamplerCache:
    def test_row_sampler_is_memoized_per_matrix(self):
        a = random_dense(4, 3, seed=1)
        assert row_sampler(a) is row_sampler(a)
        assert col_sampler(a) is col_sampler(a)
        b = random_dense(4, 3, seed=1)
        assert row_sampler(a) is not row_sampler(b)

    def test_cached_sampler_uses_matrix_norms(self):
        a = random_dense(5, 2, seed=2)
        uniforms = master_rng(3).random(256)
        assert np.array_equal(row_sampler(a).draw_many(uniforms), NormSampler(a.row_sqnorms).draw_many(uniforms))
        assert np.array_equal(col_sampler(a).draw_many(uniforms), NormSampler(a.col_sqnorms).draw_many(uniforms))


class TestStreams:
    def test_trial_streams_are_reproducible(self):
        a = trial_rng(100, 3).random(20)
        b = trial_rng(100, 3).random(20)
        assert np.array_equal(a, b)

    def test_trial_streams_differ_across_trials_and_seeds(self):
        base = trial_rng(100, 0).random(20)
        assert not np.array_equal(base, trial_rng(100, 1).random(20))
        assert not np.array_equal(base, trial_rng(101, 0).random(20))

    def test_trial_stream_differs_from_master(self):
        assert not np.array_equal(master_rng(100).random(20), trial_rng(100, 0).random(20))
