"""Scenario taxonomy and instance generation for factored benchmark systems.

A scenario pins down the shape regime of U (m x k) and V (k x n) and
whether the assembled data U V b = y is consistent:

S1   U overdetermined with consistent data: k < min(m, n), or the
     n < k < m corner where both subsystems are overdetermined but
     remain consistent.  Plain interlacing (rk-rk) converges.
S2   U underdetermined (k > m).  The inner subsystem has many
     solutions and the interlaced iterate is not pulled toward the
     least-norm solution of the full system, so all pairings miss it.
S3a  Inconsistent data with n < k < m.  The V subsystem is
     overdetermined and V b = x_star generally has no solution, so
     even rek-rk misses the full-system optimum.
S3b  Inconsistent data with k < min(m, n) and m > n.  The entire
     inconsistency lands in the U subsystem (the planted residual is
     orthogonal to range(U)) while the V subsystem stays consistent;
     rek-rk converges to the full-system optimum.

Generation follows a fixed protocol: standard Gaussian U, V and
coefficient vector beta, consistent right-hand side y = U (V beta)
computed factor-by-factor, and for inconsistent scenarios an added
residual r drawn Gaussian, projected onto the orthogonal complement of
range(U V), and scaled to half the norm of U V beta.  The projection
reads range(U V) = Q range(R V) from the thin QR U = Q R
(``oracle.qr_reduce``), so generation never forms U V.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import json

import numpy as np

from .dense import DenseMatrix, _as_count, load_matrix, load_vector, save_json, save_matrix, save_vector
from .interlaced import FactoredSystem
from .oracle import qr_reduce, svd
from .sampling import master_rng

__all__ = [
    "SCENARIOS",
    "SCENARIO_PRESETS",
    "ScenarioSpec",
    "GeneratedInstance",
    "gen_gaussian_factored",
    "make_inconsistent_rhs",
    "save_instance",
    "load_instance",
    "load_factored",
]

SCENARIOS = ("S1", "S2", "S3a", "S3b")

# Default (m, n, k) per scenario: "full" mirrors the headline benchmark
# shapes, "desk" is small enough for test suites.
SCENARIO_PRESETS = {
    "S1": {"full": (200, 150, 100), "desk": (60, 40, 20)},
    "S2": {"full": (150, 200, 170), "desk": (40, 60, 50)},
    "S3a": {"full": (200, 150, 170), "desk": (120, 75, 90)},
    "S3b": {"full": (200, 150, 100), "desk": (120, 75, 50)},
}

# Planted residual size for inconsistent scenarios: ||r|| = 0.5 ||U V beta||.
RESIDUAL_RATIO = 0.5


@dataclass(frozen=True)
class ScenarioSpec:
    """Validated description of one benchmark instance; m, n, k and seed are ints (numpy integers are taken)."""

    scenario: str
    m: int
    n: int
    k: int
    seed: int

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        for name, least in (("m", 1), ("n", 1), ("k", 1), ("seed", 0)):
            object.__setattr__(self, name, _as_count(getattr(self, name), name, least))
        m, n, k = self.m, self.n, self.k
        if self.scenario == "S1":
            if not (k < min(m, n) or n < k < m):
                raise ValueError(f"S1 needs k < min(m, n) or n < k < m, got m={m}, n={n}, k={k}")
        elif self.scenario == "S2":
            if not k > m:
                raise ValueError(f"S2 needs an underdetermined U (k > m), got m={m}, k={k}")
        elif self.scenario == "S3a":
            if not n < k < m:
                raise ValueError(f"S3a needs n < k < m, got m={m}, n={n}, k={k}")
        else:  # S3b
            if not (k < min(m, n) and m > n):
                raise ValueError(f"S3b needs k < min(m, n) and m > n, got m={m}, n={n}, k={k}")

    @property
    def consistent(self) -> bool:
        return self.scenario in ("S1", "S2")


@dataclass(frozen=True, eq=False)
class GeneratedInstance:
    """A generated system plus the quantities generation controlled."""

    system: FactoredSystem
    beta: np.ndarray
    residual_ratio: float


def make_inconsistent_rhs(U: DenseMatrix, V: DenseMatrix, beta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """y = U V beta + r with r orthogonal to range(U V), ||r|| = 0.5 ||U V beta||.

    Draws a Gaussian direction, removes its range(U V) component, spanned
    by Q times the left singular vectors of R V (U = Q R), and rescales.
    Fails if the product has no left null space (full row rank) or the
    projected direction vanishes.
    """
    if beta.shape != (V.cols,):
        raise ValueError(f"beta shape {beta.shape} does not match V with {V.cols} columns")
    signal = U.data @ (V.data @ beta)
    signal_norm = float(np.linalg.norm(signal))
    if signal_norm == 0.0:
        raise ValueError("U V beta is zero; cannot scale a residual against it")
    q, rv = qr_reduce(U, V)
    f = svd(rv)
    if f.rank >= U.rows:
        raise ValueError("product has full row rank; no left null space to place a residual in")
    w = rng.standard_normal(U.rows)
    left = f.left[:, : f.rank]
    r = w - np.einsum("ij,j->i", q, left @ (left.T @ np.einsum("ij,i->j", q, w)))
    r_norm = float(np.linalg.norm(r))
    if r_norm < 1e-12 * float(np.linalg.norm(w)):
        raise ValueError("random direction had no component outside range(U V)")
    r *= RESIDUAL_RATIO * signal_norm / r_norm
    return signal + r


def gen_gaussian_factored(spec: ScenarioSpec) -> GeneratedInstance:
    """Draw a standard Gaussian instance of the given scenario.

    Draw order is fixed (U entries, V entries, beta, then the residual
    direction if any) so a seed pins the instance bit-for-bit.  The
    consistent right-hand side is assembled as U @ (V @ beta).
    """
    rng = master_rng(spec.seed)
    U = DenseMatrix(rng.standard_normal((spec.m, spec.k)))
    V = DenseMatrix(rng.standard_normal((spec.k, spec.n)))
    beta = rng.standard_normal(spec.n)
    if spec.consistent:
        y = U.data @ (V.data @ beta)
        ratio = 0.0
    else:
        y = make_inconsistent_rhs(U, V, beta, rng)
        ratio = RESIDUAL_RATIO
    system = FactoredSystem(U=U, V=V, y=y, scenario=spec.scenario)
    return GeneratedInstance(system=system, beta=beta, residual_ratio=ratio)


# --- on-disk layout -----------------------------------------------------------

_U_NAME = "U.mat"
_V_NAME = "V.mat"
_Y_NAME = "y.vec"
_MANIFEST_NAME = "manifest.json"


def save_instance(inst: GeneratedInstance, spec: ScenarioSpec, out_dir) -> None:
    """Write U.mat, V.mat, y.vec and manifest.json into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(inst.system.U, out / _U_NAME)
    save_matrix(inst.system.V, out / _V_NAME)
    save_vector(inst.system.y, out / _Y_NAME)
    manifest = {
        "scenario": spec.scenario,
        "m": spec.m,
        "n": spec.n,
        "k": spec.k,
        "seed": spec.seed,
        "consistent": spec.consistent,
        "residual_ratio": inst.residual_ratio,
    }
    save_json(manifest, out / _MANIFEST_NAME)


def load_instance(in_dir) -> FactoredSystem:
    """Load a directory written by ``save_instance`` (manifest optional)."""
    src = Path(in_dir)
    manifest_path = src / _MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    scenario = manifest.get("scenario", "custom") if isinstance(manifest, dict) else None
    if not isinstance(scenario, str):
        raise ValueError(f"{manifest_path} must hold a JSON object whose scenario, if given, is a string")
    return load_factored(src / _U_NAME, src / _V_NAME, src / _Y_NAME, scenario=scenario)


def load_factored(u_path, v_path, y_path, scenario: str = "custom") -> FactoredSystem:
    U = load_matrix(u_path)
    V = load_matrix(v_path)
    y = load_vector(y_path)
    return FactoredSystem(U=U, V=V, y=y, scenario=scenario)
