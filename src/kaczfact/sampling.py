"""Norm-proportional index sampling and reproducible random streams.

The solvers draw row index i with probability ||A^i||^2 / ||A||_F^2 and
column index j with probability ||A_(j)||^2 / ||A||_F^2.  Sampling uses
inverse-CDF lookup: a prefix-sum table over the squared norms plus a
binary search per draw, so construction is O(size) and each draw is
O(log size).

Randomness comes from numpy's PCG64 generator.  Benchmark trials get
independent streams derived from ``(master_seed, trial_index)`` via
``SeedSequence(entropy=master_seed, spawn_key=(trial_index,))``, which
is deterministic across platforms and runs.
"""
from __future__ import annotations

import weakref

import numpy as np

from .dense import DenseMatrix

__all__ = ["NormSampler", "master_rng", "trial_rng"]


class NormSampler:
    """Draws indices with probability proportional to fixed weights.

    Weights are squared norms: non-negative and not all zero.  A zero
    weight (a zero row or column) is never drawn, since the prefix sum
    does not grow there; such a row or column does not change the
    least-norm least-squares solution, so skipping it keeps the answer.
    """

    def __init__(self, sqnorms) -> None:
        w = np.asarray(sqnorms, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("sampler needs a non-empty 1-D weight array")
        if not np.all(np.isfinite(w)):
            raise ValueError("sampler weights contain a non-finite entry")
        if np.any(w < 0.0) or not np.any(w > 0.0):
            raise ValueError("sampler weights must be non-negative and not all zero (zero matrix?)")
        self._cumulative = np.cumsum(w)
        self._total = float(self._cumulative[-1])

    @property
    def size(self) -> int:
        return self._cumulative.size

    def draw(self, rng: np.random.Generator) -> int:
        """Draw one index using a single uniform from ``rng``."""
        u = rng.random()
        return int(np.searchsorted(self._cumulative, u * self._total, side="right"))

    def draw_many(self, uniforms: np.ndarray) -> np.ndarray:
        """Map an array of uniforms in [0, 1) to index draws."""
        return np.searchsorted(self._cumulative, uniforms * self._total, side="right")


# Matrices are immutable, so samplers can be memoized per matrix.  The
# weak keys keep cached samplers from outliving their matrix.
_row_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_col_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def row_sampler(A: DenseMatrix) -> NormSampler:
    """Sampler over A's rows, weighted by their squared norms; memoized per matrix."""
    s = _row_cache.get(A)
    if s is None:
        s = NormSampler(A.row_sqnorms)
        _row_cache[A] = s
    return s


def col_sampler(A: DenseMatrix) -> NormSampler:
    """Sampler over A's columns, weighted by their squared norms; memoized per matrix."""
    s = _col_cache.get(A)
    if s is None:
        s = NormSampler(A.col_sqnorms)
        _col_cache[A] = s
    return s


def master_rng(seed: int) -> np.random.Generator:
    """Generator for single-run use (instance generation, ad-hoc runs)."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(seed))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent stream for one benchmark trial.

    Identical ``(master_seed, trial_index)`` always yields the identical
    stream, regardless of how many other trials run or in what order.
    """
    if master_seed < 0:
        raise ValueError("seed must be non-negative")
    if trial_index < 0:
        raise ValueError("trial index must be non-negative")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index,))
    return np.random.default_rng(seq)
