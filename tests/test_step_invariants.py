"""Per-step invariants on tiny, 1-wide and rank-deficient shapes.

Each example builds a matrix A, or factors U and V, with every dimension
in 1-5: Gaussian, small integers (zero rows, zero columns and low rank
are common) or rank-1 ``u vᵀ``.  It takes a few ``reference.step`` calls
from the method's initial state and, after each, checks what that step's
projections guarantee, to rounding:

rk    row i's equation holds, A_i beta = y_i, and beta moved along A_i;
rek   the column projection leaves A_jᵀ z = 0 and moved z along A_j,
      and the row step then gives A_i beta = y_i - z_i, as rk;
rgs   beta moved in coordinate j only, residual = y - A beta, and
      A_jᵀ residual = 0;
regs  as rgs, and the row projection leaves A_i z = 0, having moved z
      by beta's coordinate step plus a multiple of A_i.

A pairing's outer side is checked on (U, y, x, z, res_u) and its inner
side on (V, x, b, zv, res_v), with the x the inner step read.
"""

from typing import NamedTuple

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kaczfact.dense import DenseMatrix
from kaczfact.interlaced import PAIRINGS, FactoredSystem, init_interlaced
from kaczfact.sampling import master_rng
from kaczfact.solvers import DRAWS, METHODS, init_state

from reference import step

# Each gap is divided by the scale its rounding error is proportional to.
RTOL = 1e-12


class Side(NamedTuple):
    """One solver's view of the state: iterate, rhs and auxiliary vectors (None where it keeps none)."""

    beta: np.ndarray
    rhs: np.ndarray
    z: np.ndarray | None
    residual: np.ndarray | None


def sides(target, state) -> list:
    """Copies of each side's vectors: the one system's, or a pairing's outer then inner side."""
    copy = lambda v: None if v is None else v.copy()
    if isinstance(target, FactoredSystem):
        x = copy(state.x)
        return [
            Side(x, target.y, copy(state.z), copy(state.res_u)),
            Side(copy(state.b), x, copy(state.zv), copy(state.res_v)),
        ]
    return [Side(copy(state.beta), target[1], copy(state.z), copy(state.residual))]


def relative(gap: float, scale: float) -> float:
    return gap / scale if scale > 0.0 else gap


def off_line(d: np.ndarray, direction: np.ndarray) -> float:
    """Norm of the part of d that is not along direction."""
    return float(np.linalg.norm(d - (direction @ d) / (direction @ direction) * direction))


def side_gaps(method: str, A: DenseMatrix, old: Side, new: Side, draws, residual_scale: float) -> dict:
    """Relative gaps of the invariants one ``method`` step on A leaves, from the side before and after it."""
    a, norm = A.data, np.linalg.norm
    moved = new.beta - old.beta
    gaps = {}
    if method in ("rgs", "regs"):
        j = draws[-1]
        col = a[:, j]
        gaps["beta moves in coordinate j only"] = relative(norm(np.delete(moved, j)), norm(old.beta) + norm(new.beta))
        gaps["residual = rhs - A beta"] = relative(norm(new.residual - (new.rhs - a @ new.beta)), residual_scale)
        # An inner rgs side starts from its residual patched by the outer step's move of its rhs x.
        start = norm(old.residual) + norm(new.rhs - old.rhs)
        gaps["A_j' residual = 0"] = relative(abs(col @ new.residual), norm(col) * (start + norm(new.residual)))
        if method == "regs":
            # z moves by the coordinate step, then along row i (its projection).
            row = a[draws[0]]
            scale = norm(old.z) + norm(moved) + norm(new.z)
            gaps["A_i z = 0"] = relative(abs(row @ new.z), norm(row) * scale)
            gaps["z - beta moves along A_i"] = relative(off_line(new.z - old.z - moved, row), scale)
        return gaps
    row, target = a[draws[0]], new.rhs[draws[0]]
    if method == "rek":
        col = a[:, draws[1]]
        gaps["A_j' z = 0"] = relative(abs(col @ new.z), norm(col) * (norm(old.z) + norm(new.z)))
        gaps["z moves along A_j"] = relative(off_line(new.z - old.z, col), norm(old.z) + norm(new.z))
        target = target - new.z[draws[0]]
    scale = norm(row) * (norm(old.beta) + norm(new.beta)) + abs(target)
    gaps["A_i beta = rhs_i"] = relative(abs(row @ new.beta - target), scale)
    gaps["beta moves along A_i"] = relative(off_line(moved, row), norm(old.beta) + norm(new.beta))
    return gaps


def matrix(kind: str, rows: int, cols: int, rng: np.random.Generator) -> DenseMatrix:
    if kind == "gaussian":
        data = rng.standard_normal((rows, cols))
    elif kind == "integer":
        data = rng.integers(-2, 3, size=(rows, cols)).astype(np.float64)
    else:
        data = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    assume(np.any(data))  # an all-zero matrix has nothing to sample
    return DenseMatrix(data)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    method=st.sampled_from(METHODS + PAIRINGS),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    kinds=st.tuples(*[st.sampled_from(["gaussian", "integer", "rank-1"])] * 2),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 8),
)
def test_each_step_keeps_its_invariants(method, dims, kinds, seed, steps):
    rng = master_rng(seed)
    m, k, n = dims
    if method in PAIRINGS:
        outer, inner = method.split("-")
        U, V = matrix(kinds[0], m, k, rng), matrix(kinds[1], k, n, rng)
        target = FactoredSystem(U, V, rng.standard_normal(m))
        state = init_interlaced(method, target)
        parts = [(outer, U), (inner, V)]
    else:
        A = matrix(kinds[0], m, n, rng)
        target = (A, rng.standard_normal(m))
        state = init_state(method, *target)
        parts = [(method, A)]
    # residual = rhs - A beta is kept by increments, so its rounding grows with the largest rhs and iterate seen.
    seen = [0.0] * len(parts)
    now = sides(target, state)
    for _ in range(steps):
        before = now
        draws = step(method, target, state, rng)
        now = sides(target, state)
        at = 0
        for s, ((side_method, mat), old, new) in enumerate(zip(parts, before, now)):
            side_draws = draws[at : at + len(DRAWS[side_method])]
            at += len(side_draws)
            for v in (old, new):
                seen[s] = max(seen[s], np.linalg.norm(v.rhs) + np.sqrt(mat.frob_sq) * np.linalg.norm(v.beta))
            gaps = side_gaps(side_method, mat, old, new, side_draws, steps * seen[s])
            assert {name: gap for name, gap in gaps.items() if not gap <= RTOL} == {}, (s, side_draws)
