"""Interlaced randomized solvers for systems in factored form U @ V @ b = y.

The system matrix is never materialized.  Writing x = V b splits the
problem into two coupled subsystems

    U x = y        (m equations, k unknowns)
    V b = x        (k equations, n unknowns)

and each interlaced step advances both.  A pairing "outer-inner" is
the outer method's step on (U, y, x), which updates x, followed by the
inner method's step on (V, x, b), which updates b against the *current*
x; both are ``solvers.step_kernel`` (``pairing_kernel``).  B steps of
one trial are the outer method's ``solvers.block_kernel`` on (U, y, x),
then the inner one's on (V, x, b) (``pairing_block``).  Each side starts
from its method's initial state (on (V, x_0 = 0) for the inner one),
and a pairing's draws, samplers and flops (``FactoredSystem.samplers``,
``.step_flops``) are the outer method's followed by the inner one's.
Both kernels are bound to a trial state, both sides' kernels and the
pairing's split once, when a run starts; the engine gets the one its
run steps with from ``FactoredSystem.bind``, with b and the residual
parts, U x - y and then V b - x, at offsets into the window that just
ran, and ``tests/reference.py`` binds ``pairing_kernel`` as the
reference.

Two rules carry the outer side's moves of x to the inner side:

- an inner row draw p reads x.  Per step that is the shared x; in a
  block, inner step s reads x[p_s] moved by the outer row steps r <= s
  (through U[i_r, p_s]).
- an inner rgs step reads res_v = x - V b.  Per step, res_v is patched
  in the outer rgs step's coordinate before the inner step; in a block,
  inner step s's inner product gains the outer moves r <= s (through
  V[j_r, q_s]) and the patches are applied to res_v after the block.

In a block both reach the inner ``block_kernel`` as one drift, the
drop in each step's right-hand side.

Supported pairings:

rk-rk     rk on U, rk on V.  Converges when both subsystems behave as
          consistent systems (U overdetermined with consistent data).
rek-rk    rek on U, rk on V.  The residual estimate z de-noises the
          first subsystem, so b converges even when U x = y is
          inconsistent, provided the V subsystem stays consistent
          (V underdetermined).  On consistent data z decays to zero
          and the method behaves like rk-rk.
rek-rek   rek on both.  The V-side residual estimate starts at the
          initial right-hand side x_0 = 0 and stays zero under column
          projections, so its updates match rk on V while paying the
          full rek step cost; kept because it is a natural pairing to
          benchmark against rek-rk.
rgs-rgs   rgs on both.  The V-side residual x - V b is kept in sync
          when the U-side step changes a coordinate of x.

Any other pairing is rejected loudly.

Step costs add the two methods' costs from the flop model in
``solvers``: a row draw on U costs 4k + 2, a column draw on U 4m + 2,
a row draw on V 4n + 2 and a column draw on V 4k + 2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .dense import DenseMatrix, _as_float_vector, _require_matrix
from .solvers import (
    DRAWS,
    Binding,
    block_kernel,
    cross_summer,
    gatherer,
    init_state,
    rewinder,
    samplers,
    step_cost,
    step_kernel,
    tiled,
)

__all__ = [
    "PAIRINGS",
    "FactoredSystem",
    "InterlacedState",
    "init_interlaced",
    "BoundInputs",
    "bound_inputs",
    "expected_error_bound",
]

PAIRINGS = ("rk-rk", "rek-rk", "rek-rek", "rgs-rgs")

# pairing -> (outer method, inner method, number of outer draws)
_PARTS = {p: (*p.split("-"), len(DRAWS[p.split("-")[0]])) for p in PAIRINGS}


@dataclass(frozen=True, eq=False)
class FactoredSystem:
    """A system U @ V @ b = y held in factored form.

    y is stored as a float64 vector, whatever array-like was passed.
    scenario is a free-form tag; the generators in ``systems`` use
    S1/S2/S3a/S3b, hand-loaded data uses "custom".
    """

    U: DenseMatrix
    V: DenseMatrix
    y: np.ndarray
    scenario: str = "custom"

    methods = PAIRINGS

    def __post_init__(self):
        _require_matrix(self.U, "U")
        _require_matrix(self.V, "V")
        if self.U.cols != self.V.rows:
            raise ValueError(
                f"factor dimension mismatch: U is {self.U.rows}x{self.U.cols}, V is {self.V.rows}x{self.V.cols}"
            )
        # The class is frozen, so y is replaced by its float64 vector through object.__setattr__.
        object.__setattr__(self, "y", _as_float_vector(self.y, "rhs"))
        if self.y.shape != (self.U.rows,):
            raise ValueError(f"rhs shape {self.y.shape} does not match U with {self.U.rows} rows")

    @property
    def m(self) -> int:
        return self.U.rows

    @property
    def k(self) -> int:
        return self.U.cols

    @property
    def n(self) -> int:
        return self.V.cols

    def step_flops(self, method: str) -> int:
        """Flops of one interlaced step: its outer step on U plus its inner step on V."""
        outer, inner, _ = _split(method)
        return step_cost(outer, self.U) + step_cost(inner, self.V)

    def samplers(self, method: str) -> tuple:
        """The samplers of one interlaced step in draw order: the outer method's on U, then the inner's on V."""
        outer, inner, _ = _split(method)
        return samplers(outer, self.U) + samplers(inner, self.V)

    def bind(self, method: str, trials: int) -> Binding:
        """A run of ``trials`` lock-step trials of the pairing from its initial state, bound (``Binding``).

        The estimate is b, and the residuals are U x - y and then V b - x.  At T = 1 estimate_at rewinds b
        alone, and residuals_at rewinds x for U x - y and b only when V b - x is asked for, which a check does
        only once U x - y is within its tolerance.
        """
        outer, inner, split = _split(method)
        state = tiled(init_interlaced(method, self), trials)
        vectors = (state.x, state.b, state.z, state.zv, state.res_u, state.res_v)
        x, b, ut, vt, y = state.x, state.b, self.U.data.T, self.V.data.T, self.y
        if trials > 1:
            advance = pairing_kernel(method, self, *vectors, np.arange(trials))
            x_at = lambda draws, coef, s: x
            estimate_at = lambda draws, coef, steps: b
        else:
            advance = pairing_block(method, self, *(None if v is None else v[0] for v in vectors))
            rewind_outer, rewind_inner = rewinder(outer), rewinder(inner)
            x_at = lambda draws, coef, s: rewind_outer(x, draws[split - 1], coef[0], (s,))
            estimate_at = lambda draws, coef, steps: rewind_inner(b, draws[-1], coef[1], steps)

        def residuals_at(draws, coef, s):
            x_s = x_at(draws, coef, s)
            yield x_s @ ut - y
            yield estimate_at(draws, coef, (s,)) @ vt - x_s

        return Binding(state, advance, estimate_at, residuals_at)


@dataclass
class InterlacedState:
    """x is the inner-variable iterate, b the reported solution iterate.

    z is the U-side residual estimate (rek pairings), zv the V-side one
    (rek-rek only); res_u and res_v are the incrementally maintained
    subsystem residuals of rgs-rgs.
    """

    x: np.ndarray
    b: np.ndarray
    z: np.ndarray | None = None
    zv: np.ndarray | None = None
    res_u: np.ndarray | None = None
    res_v: np.ndarray | None = None


def _split(method: str) -> tuple[str, str, int]:
    """(outer method, inner method, number of outer draws) of a supported pairing."""
    parts = _PARTS.get(method)
    if parts is None:
        raise ValueError(f"unsupported pairing {method!r}; supported pairings are {PAIRINGS}")
    return parts


def init_interlaced(method: str, sys: FactoredSystem) -> InterlacedState:
    """The outer method's initial state on (U, y) and the inner one's on (V, x_0 = 0)."""
    outer, inner, _ = _split(method)
    u = init_state(outer, sys.U, sys.y)
    v = init_state(inner, sys.V, np.zeros(sys.k))
    return InterlacedState(x=u.beta, b=v.beta, z=u.z, zv=v.z, res_u=u.residual, res_v=v.residual)


def pairing_kernel(method: str, sys: FactoredSystem, x, b, z, zv, res_u, res_v, ar):
    """An interlaced step for every trial, bound to their state: returns step(draws), the outer method on
    (U, y, x), then the inner one on (V, x, b).

    State arrays and ar are as in ``step_kernel``; draws are the
    pairing's, in draw order.
    """
    outer, inner, split = _split(method)
    outer_step = step_kernel(outer, sys.U, sys.y, x, z, res_u, ar)
    inner_step = step_kernel(inner, sys.V, x, b, zv, res_v, ar)

    def step(draws):
        gamma = outer_step(draws[:split])
        if res_v is not None:
            # The outer rgs step moved x along its column draw: patch x - V b there.
            res_v[ar, draws[split - 1]] += gamma
        inner_step(draws[split:])

    return step


def pairing_block(method: str, sys: FactoredSystem, x, b, z, zv, res_u, res_v):
    """B interlaced steps for one trial, bound to its state: returns block(draws), the block-exact form of B
    ``pairing_kernel`` steps.

    State arrays are the trial's (dim,) vectors and draws the pairing's
    (B,) index arrays, in draw order, as in ``block_kernel``.  block
    returns the outer and the inner side's step coefficients.
    """
    outer_method, inner_method, split = _split(method)
    outer = block_kernel(outer_method, sys.U, sys.y, x, z, res_u)
    inner = block_kernel(inner_method, sys.V, None, b, zv, res_v)
    gather_inner, cross_sum = gatherer(inner_method, sys.V), cross_summer()

    def block(draws):
        inner_draws = draws[split:]
        inner_rows = gather_inner(inner_draws)
        # An inner row side reads x at its row draws as the block began; an inner rgs side reads res_v instead.
        rhs = x.take(inner_draws[0]) if res_v is None else None
        coef = outer(draws[:split])
        # Inner step s's rhs dropped with the outer steps r <= s: x[p_s] by U[i_r, p_s] c_r (row side, from
        # the outer rows U[i_r]), or, as the rgs residual's inner product grew, by V[j_r, q_s] gamma_r (from
        # the inner rows V.T[q_s]).
        if res_v is None:
            c, rows = coef
            drift = cross_sum(inner_draws[0], draws[0], c, by_rows=rows)
        else:
            drift = cross_sum(inner_draws[0], draws[split - 1], coef, at_rows=inner_rows[0])
        inner_coef = inner(inner_draws, inner_rows, drift, rhs)
        if res_v is not None:
            np.add(res_v, np.bincount(draws[split - 1], coef, res_v.size), out=res_v)
        return coef, inner_coef

    return block


# --- expected-error bounds ---------------------------------------------------


@dataclass(frozen=True)
class BoundInputs:
    """Everything the expected-error bounds need, computed from the factors.

    alpha_u / alpha_v are the per-step contraction factors of U and V,
    theta_v = 1 / sigma_min^2(V), kappa_sq_u the squared condition
    number of U; x_star is the optimal solution of (U, y) and b_star
    the least-norm solution of V b = x_star, with their squared norms
    stored.  No product U @ V is formed.
    """

    alpha_u: float
    alpha_v: float
    theta_v: float
    kappa_sq_u: float
    b_star_sq: float
    x_star_sq: float


def _factor_side(A: DenseMatrix, rhs: np.ndarray):
    """A's rate constants and pinv(A) @ rhs from one SVD of A.

    The SVD is dropped on return, so the two factors' singular vectors
    are never held at once.
    """
    f = oracle.svd(A)
    return oracle.rate_constants_of(f, A.frob_sq), oracle.pinv_apply(f, rhs)


def bound_inputs(sys: FactoredSystem) -> BoundInputs:
    """The bound inputs of sys from one SVD of U, then one of V."""
    cu, x_star = _factor_side(sys.U, sys.y)
    cv, b_star = _factor_side(sys.V, x_star)
    return BoundInputs(
        alpha_u=cu.alpha,
        alpha_v=cv.alpha,
        theta_v=cv.theta,
        kappa_sq_u=cu.kappa_sq,
        b_star_sq=float(np.dot(b_star, b_star)),
        x_star_sq=float(np.dot(x_star, x_star)),
    )


def expected_error_bound(inputs: BoundInputs, variant: str, t: int) -> float:
    """Upper bound on E ||b_t - b_star||^2 after t interlaced steps.

    variant "a" is the consistent-data rk-rk bound

        alpha_v^t ||b_star||^2 + theta_v alpha_u^t ||x_star||^2

    and variant "b" the inconsistent-data rek-rk bound

        alpha_v^t ||b_star||^2
            + theta_v alpha_u^floor(t/2) (1 + 2 kappa_sq_u) ||x_star||^2.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if variant == "a":
        return inputs.alpha_v**t * inputs.b_star_sq + inputs.theta_v * inputs.alpha_u**t * inputs.x_star_sq
    if variant == "b":
        return (
            inputs.alpha_v**t * inputs.b_star_sq
            + inputs.theta_v * inputs.alpha_u ** (t // 2) * (1.0 + 2.0 * inputs.kappa_sq_u) * inputs.x_star_sq
        )
    raise ValueError(f"unknown bound variant {variant!r}; expected 'a' or 'b'")
