"""Norm-proportional index sampling and reproducible random streams.

The solvers draw row index i with probability ||A^i||^2 / ||A||_F^2.
A column draw is a row draw on ``A.T``, whose row norms are A's column
norms and whose Frobenius norm is A's, so ``row_sampler`` serves both
sides, and A and A.T each hold their own sampler (``DenseMatrix.memo``).
Sampling uses inverse-CDF lookup over a prefix-sum table of the squared
norms: index ``searchsorted(cum, u * total, side="right")`` for a
uniform u.

``draw`` runs that binary search on one uniform.  ``draw_many`` finds
the same index through a guide table (Chen & Asau, 1974) of K + 1
entries, K = 2^ceil(log2(2 size)).  A uniform goes to entry r, u * K
rounded to the nearest integer (read from the low mantissa bits of
u + 2^52 / K), so (r - 1/2) / K <= u <= (r + 1/2) / K.  Rounding is
monotone, so the answers at those two edges bound the answer for every
u sent to entry r; the table stores the lower one.  Up to two
vectorized passes advance each draw while ``cum[idx] <= u * total``
(a pass is made when at least a twentieth of the entries need it), and
draws at entries whose bounds lie further apart than the passes reach
(several prefix sums in one entry, as under skewed weights) fall back
to ``searchsorted``; a sampler with no such entry skips that lookup.
Draws are made in chunks of rows of at most _CHUNK uniforms, into the
caller's index buffer when it gives one.  Construction is O(size), a draw costs a fixed
number of numpy passes, and the result equals the binary search's
exactly.

Randomness comes from numpy's PCG64 generator.  Benchmark trials get
independent streams derived from ``(master_seed, trial_index)`` via
``SeedSequence(entropy=master_seed, spawn_key=(trial_index,))``, which
is deterministic across platforms and runs.
"""
from __future__ import annotations

import numpy as np

from .dense import DenseMatrix

__all__ = ["NormSampler", "master_rng", "trial_rng"]

# The most uniforms ``draw_many`` maps at once: its temporaries then stay far below glibc's 128 KB mmap
# threshold, so their pages are reused, not faulted in afresh on every call.
_CHUNK = 8192


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
        with np.errstate(over="ignore"):
            self._cumulative = np.cumsum(w)
        self._total = float(self._cumulative[-1])
        if not np.finfo(np.float64).tiny <= self._total < np.inf:
            # u * total could round up to a subnormal total, or be inf or nan, and draw index size.
            raise ValueError("sampler weights sum to a subnormal number or overflow (matrix entries near 1e-160 or 1e154?)")
        # u + 2^52 / K holds round(u * K) in its low mantissa bits (K = 2^p < 2^51).
        buckets = 1 << (2 * w.size - 1).bit_length()
        self._shift = np.float64(2.0**52 / buckets)
        self._shift_bits = self._shift.view(np.int64)
        # Entry r serves u in [(r - 1/2) / K, (r + 1/2) / K]: the answers at
        # edges r and r + 1 bound its draws.
        edges = np.arange(-1, 2 * buckets + 2, 2).clip(0, 2 * buckets) / (2 * buckets)
        at_edges = np.searchsorted(self._cumulative, edges * self._total, side="right")
        self._guide, span = at_edges[:-1], np.diff(at_edges)
        # A pass costs about as much as a binary search on a twentieth of the draws.
        self._passes = sum(int(np.mean(span > p) > 0.05) for p in (0, 1))
        open_ = span > self._passes
        self._open = open_ if open_.any() else None  # None: no draw needs the binary search
        self._bounded = np.append(self._cumulative, np.inf)

    @property
    def size(self) -> int:
        return self._cumulative.size

    def draw(self, rng: np.random.Generator) -> int:
        """Draw one index using a single uniform from ``rng``."""
        u = rng.random()
        return int(np.searchsorted(self._cumulative, u * self._total, side="right"))

    def draw_many(self, uniforms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map an array of uniforms in [0, 1) to index draws, equal to ``draw`` uniform by uniform.

        The draws go to ``out`` when given, a C-contiguous intp array of
        the uniforms' shape, and to a new array otherwise.  uniforms may
        be a strided view, such as the engine's (step, trial) view of its
        uniform buffer: it is read in chunks of leading rows, so that each
        temporary holds at most _CHUNK entries.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        if out is None:
            out = np.empty(u.shape, dtype=np.intp)
        flat = out.reshape(-1)
        if u.size <= _CHUNK:
            self._draw_into(u, flat)
            return out
        lead = u.reshape(len(u), -1)
        width = lead.shape[1]
        rows = max(1, _CHUNK // width)
        for r in range(0, len(lead), rows):
            self._draw_into(lead[r : r + rows], flat[r * width : (r + rows) * width])
        return out

    def _draw_into(self, u: np.ndarray, idx: np.ndarray) -> None:
        """Write the draws of the uniforms u, in C order, into the contiguous (u.size,) idx."""
        u = np.ascontiguousarray(u)  # one strided read, not one per use
        v = (u * self._total).reshape(-1)
        bucket = (u + self._shift).view(np.int64).reshape(-1)
        bucket -= self._shift_bits
        # Unchecked: a uniform in [0, 1) rounds to an entry in [0, K], and the table has K + 1.
        self._guide.take(bucket, out=idx, mode="clip")
        for _ in range(self._passes):
            idx += self._bounded.take(idx) <= v
        # Entries whose answers span more than the passes: binary search on just those draws.
        at = None if self._open is None else np.flatnonzero(self._open.take(bucket))
        if at is not None and at.size:
            idx[at] = np.searchsorted(self._cumulative, v[at], side="right")


def row_sampler(A: DenseMatrix) -> NormSampler:
    """Sampler over A's rows, weighted by their squared norms; built once and held in A's memo."""
    return A.memo("sampler", lambda: NormSampler(A.row_sqnorms))


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
