"""Dense real matrices and vectors with eagerly cached row norms.

Every solver in this package samples rows proportionally to their
squared Euclidean norms, so the norms are computed once at construction
and reused for the whole run.  A column of A is a row of ``A.T``, the
transpose as a ``DenseMatrix`` (a contiguous transposed copy and the
column norms, built with A), so no other module handles columns.
Matrices are immutable: both copies are marked read-only.

All data is 64-bit real floating point; complex input is rejected.  The
adjoint of a real matrix is its transpose.
"""
from __future__ import annotations

import json
import numbers
import weakref
from pathlib import Path

import numpy as np

__all__ = ["DenseMatrix", "save_matrix", "load_matrix", "save_vector", "load_vector"]

# Number of significant digits that round-trips a float64 through text.
_FLOAT_FMT = "%.17g"


def _as_real(data, what: str) -> np.ndarray:
    """data as an array, rejected if complex: a cast to float64 would drop the imaginary part."""
    arr = np.asarray(data)
    if np.iscomplexobj(arr):
        raise ValueError(f"{what} is complex; only real data is supported")
    return arr


def _as_float_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(_as_real(v, name), dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains a non-finite entry")
    return arr


def _as_count(value, name: str, least: int) -> int:
    """value as an int of at least ``least`` (numpy integers are taken, bools are not), else a ValueError naming
    the field."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


class DenseMatrix:
    """Immutable row-major dense matrix with cached squared row norms.

    ``memo(key, build)`` holds what is derived from the matrix, such as its
    row sampler and Gram table, and frees it with the matrix.

    Attributes
    ----------
    data : np.ndarray
        Read-only C-contiguous (rows, cols) float64 array.
    row_sqnorms : np.ndarray
        ``row_sqnorms[i] == ||data[i, :]||^2``.
    frob_sq : float
        Squared Frobenius norm, equal to ``row_sqnorms.sum()``.
    T : DenseMatrix
        The transpose, whose ``data`` is a C-contiguous copy of
        ``data.T``; its row norms are A's column norms and its
        ``frob_sq`` is A's.  It refers back to A weakly, so dropping A
        frees both at once, and ``A.T.T`` is A while A lives.  A
        transpose that outlives A rebuilds it on first use and holds it.
    """

    def __init__(self, data) -> None:
        arr = np.array(_as_real(data, "matrix data"), dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be two-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix contains a non-finite entry")
        t = self._T = object.__new__(DenseMatrix)
        t._data, t._T = np.ascontiguousarray(arr.T), weakref.ref(self)
        self._memo, t._memo = {}, {}
        with np.errstate(over="ignore"):
            sq = arr * arr
            self._data, self._row_sqnorms, t._row_sqnorms = arr, sq.sum(axis=1), sq.sum(axis=0)
            self._frob_sq = t._frob_sq = float(self._row_sqnorms.sum())
        # Sums of non-negative terms: a finite total and largest column norm bound every square and norm.
        if not max(self._frob_sq, t._row_sqnorms.max()) < np.inf:
            raise ValueError("matrix squared norms overflow float64 (entries near 1e154 or larger?)")
        for a in (arr, self._row_sqnorms, t._data, t._row_sqnorms):
            a.setflags(write=False)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def T(self) -> DenseMatrix:
        t = self._T() if isinstance(self._T, weakref.ref) else self._T
        if t is None:  # the matrix this transposes was freed: rebuild it once and hold it; it refers back weakly
            t = self._T = DenseMatrix(self._data.T)
            t._T = weakref.ref(self)
        return t

    def memo(self, key: str, build):
        """build()'s value, computed on the first call with key and held by the matrix (immutable) from then on.
        Threads that race on a first call may each build; the values are equal and one is kept."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def row_sqnorms(self) -> np.ndarray:
        return self._row_sqnorms

    @property
    def frob_sq(self) -> float:
        return self._frob_sq

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols}, frob_sq={self._frob_sq:.6g})"


def _require_matrix(value, name: str) -> None:
    """Reject a system's matrix field unless it is a DenseMatrix: a raw array has no cached norms or transpose."""
    if not isinstance(value, DenseMatrix):
        raise TypeError(f"{name} must be a DenseMatrix, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Text file formats.
#
# Matrix: first line "rows cols", then one line of space-separated values
# per row.  Vector: first line "len", then one value per line.  Values are
# written with 17 significant digits so that float64 round-trips exactly,
# the whole file by one ``%`` template.
# ---------------------------------------------------------------------------


def _read_sized(path, count: int, what: str) -> tuple:
    """(the ``count`` integers on a text file's first line, its other lines); the caller names the file."""
    header, *lines = Path(path).read_text().strip().split("\n")
    sizes = header.split()
    if not sizes:
        raise ValueError(f"empty {what} file")
    if len(sizes) != count or not all(v.isdecimal() for v in sizes):
        raise ValueError(f"malformed {what} header {header!r}")
    return [int(v) for v in sizes], lines


def save_matrix(A: DenseMatrix, path) -> None:
    row = " ".join([_FLOAT_FMT] * A.cols)
    template = "\n".join([f"{A.rows} {A.cols}"] + [row] * A.rows)
    Path(path).write_text(template % tuple(A.data.ravel().tolist()) + "\n")


def load_matrix(path) -> DenseMatrix:
    try:
        (rows, cols), lines = _read_sized(path, 2, "matrix")
        if len(lines) != rows:
            raise ValueError(f"{len(lines)} data lines where the header gives {rows}")
        data = np.empty((rows, cols), dtype=np.float64)
        for i, line in enumerate(lines):
            vals = line.split()
            if len(vals) != cols:
                raise ValueError(f"row {i} has {len(vals)} values where the header gives {cols}")
            data[i, :] = [float(v) for v in vals]
        return DenseMatrix(data)
    except ValueError as exc:  # every one names the file
        raise ValueError(f"{exc} in {path}") from exc


def save_vector(v: np.ndarray, path) -> None:
    v = _as_float_vector(v)
    template = "\n".join([str(v.size)] + [_FLOAT_FMT] * v.size)
    Path(path).write_text(template % tuple(v.tolist()) + "\n")


def load_vector(path) -> np.ndarray:
    try:
        (size,), lines = _read_sized(path, 1, "vector")
        if len(lines) != size:
            raise ValueError(f"{len(lines)} values where the header gives {size}")
        return _as_float_vector([float(line) for line in lines])
    except ValueError as exc:  # every one names the file
        raise ValueError(f"{exc} in {path}") from exc


def save_json(obj: dict, path) -> None:
    """Write a manifest-style dict as deterministic JSON."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
