"""Squared-norm-weighted index sampling and stream management."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczfact.dense import DenseMatrix
from kaczfact.sampling import NormSampler, master_rng, row_sampler, trial_rng

from conftest import FixedUniforms, random_dense


class TestNormSampler:
    def test_probabilities_match_weight_ratios(self):
        # Row weights (25, 1e-8): row 1 owns the top 1e-8 / (25 + 1e-8) = 4e-10 of [0, 1).
        sampler = row_sampler(DenseMatrix([[3.0, 4.0], [0.0, 1e-4]]))
        assert sampler.draw_many(np.array([0.0, 1.0 - 1e-9, 1.0 - 1e-10])).tolist() == [0, 0, 1]

    def test_column_weights(self):
        # Column weights (9, 16 + 1e-8): column 0 owns [0, 9 / (25 + 1e-8)) = [0, 0.36).
        sampler = row_sampler(DenseMatrix([[3.0, 4.0], [0.0, 1e-4]]).T)
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

    def test_rejects_subnormal_total(self):
        """A subnormal total would let u * total round up to it and draw past the last index."""
        with pytest.raises(ValueError, match="subnormal"):
            NormSampler(np.array([2.2e-313]))
        with pytest.raises(ValueError, match="subnormal"):
            row_sampler(DenseMatrix([[1e-160, 0.0], [0.0, 1e-160]]))
        assert NormSampler(np.array([2.2e-313, np.finfo(np.float64).tiny])).draw_many(np.array([0.9])).tolist() == [1]

    def test_rejects_overflowing_total(self):
        """Finite weights whose sum overflows would draw past the last index."""
        with pytest.raises(ValueError, match="overflow"):
            NormSampler(np.array([1e308, 1e308]))
        assert NormSampler(np.array([1e308, 7e307])).draw_many(np.array([0.2, 0.7])).tolist() == [0, 1]

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


@st.composite
def weight_vectors(draw):
    """Squared norms of the shapes a sampler meets, zero weights included."""
    kind = draw(st.sampled_from(["mixed", "single", "skewed", "geometric", "gaussian"]))
    size = draw(st.integers(1, 300))
    if kind == "single":
        return np.array([draw(st.floats(1e-300, 1e300))])
    if kind == "skewed":
        w = np.ones(size + 1)
        w[0] = 1e6
    elif kind == "geometric":
        w = draw(st.floats(0.05, 0.95)) ** np.arange(size)
    elif kind == "gaussian":
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((size, draw(st.integers(1, 80))))
        w = (g * g).sum(axis=1)
    else:
        w = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=size, max_size=size)))
    # Zeros: leading, interior and trailing runs.
    zeros = draw(st.lists(st.integers(0, w.size - 1), max_size=w.size // 2))
    w[zeros] = 0.0
    lead, trail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    w = np.concatenate([np.zeros(lead), w, np.zeros(trail)])
    # A total below the smallest normal double is rejected (test_rejects_subnormal_total).
    return w if np.cumsum(w)[-1] >= np.finfo(np.float64).tiny else np.append(w, 1.0)


def edge_uniforms(size: int) -> np.ndarray:
    """0, the largest double below 1, and every k / 2K (K = 2^ceil(log2(2 size))) with the double below it."""
    grid = 2 << (2 * size - 1).bit_length()
    edges = np.arange(grid) / grid
    return np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges[1:], 0.0)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(w=weight_vectors(), seed=st.integers(0, 2**32 - 1), two_d=st.booleans())
def test_draw_many_is_exact_inverse_cdf(w, seed, two_d):
    """draw_many returns searchsorted's index on every uniform, at every bucket edge and beside it."""
    sampler = NormSampler(w)
    u = np.concatenate([edge_uniforms(w.size), np.random.default_rng(seed).random(1000)])
    if two_d:
        u = u[: u.size // 4 * 4].reshape(-1, 4)
    cum = np.cumsum(w)
    got = sampler.draw_many(u)
    assert got.shape == u.shape
    assert np.array_equal(got, np.searchsorted(cum, u * cum[-1], side="right"))
    assert got.ravel().tolist() == [sampler.draw(FixedUniforms([x])) for x in u.ravel().tolist()]
    assert not np.any(w[got] == 0.0)


class TestSamplerCache:
    def test_row_sampler_is_memoized_per_matrix(self):
        a = random_dense(4, 3, seed=1)
        assert row_sampler(a) is row_sampler(a)
        assert row_sampler(a.T) is row_sampler(a.T)
        b = random_dense(4, 3, seed=1)
        assert row_sampler(a) is not row_sampler(b)

    def test_cached_sampler_uses_matrix_norms(self):
        a = random_dense(5, 2, seed=2)
        uniforms = master_rng(3).random(256)
        assert np.array_equal(row_sampler(a).draw_many(uniforms), NormSampler(a.row_sqnorms).draw_many(uniforms))
        assert np.array_equal(row_sampler(a.T).draw_many(uniforms), NormSampler(a.T.row_sqnorms).draw_many(uniforms))


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
