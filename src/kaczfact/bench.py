"""Benchmark driver: multi-trial runs, trajectory CSVs, summary curves.

A run is specified by a RunConfig (method, trials, budget, seed, record
stride) and a target: a FactoredSystem for the pairings, a SingleSystem
for the single-system methods (an ``(A, y)`` pair is made one at entry).
Errors are the squared distance to the oracle solution of the *full*
system.  For a factored target it is pinv(R V) Qᵀ y from the thin QR
U = Q R (``oracle.qr_reduce``), so U @ V is never formed.

Trial j draws from the stream ``trial_rng(config.seed, j)``, so a
(config, seed) pair pins every number in the output.  CSV values are
written with ``repr``, the shortest exact float64 representation, which
makes identical runs byte-identical.  Each trial's rows (and the whole
summary) are formatted by one ``%`` template, whose ``%r`` gives the
same bytes as ``repr`` value by value.

Output schema:
  trajectory CSV    trial,iter,error_sq,flops      one row per sample
  summary CSV       iter,mean_error_sq,std_error_sq,bound
                    (std is the sample standard deviation across
                    trials; bound is filled only where an expected-
                    error bound applies: rk-rk on S1 data, rek-rk on
                    S3b data, and empty otherwise)
  run manifest      one JSON line per invocation: scenario, dims,
                    seed, method, budget, and a factored target's
                    oracle rate constants.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import json
import math

import numpy as np

from . import _engine
from .dense import _as_count, _as_float_vector
from .interlaced import PAIRINGS, BoundInputs, FactoredSystem, bound_inputs, expected_error_bound
from .oracle import pinv_solve, qr_reduce
from .solvers import BLOCK_SOLVER, METHODS, SingleSystem, default_stride

__all__ = [
    "RunConfig",
    "Trajectory",
    "run_experiment",
    "oracle_solution",
    "bound_variant_for",
    "emit_csv",
    "emit_summary_csv",
    "write_run_manifest",
]

DEFAULT_TRIALS = 40
DEFAULT_BUDGET = 70_000


@dataclass(frozen=True)
class RunConfig:
    """What to run and how to record it.

    trials, budget, seed and stride are ints (numpy integers are taken,
    bools are not); stride defaults to budget / 500 samples (at least
    every step);
    tolerance, when set, stops the run early once every trial's
    residual passes it (checked every m iterations).
    """

    method: str
    seed: int
    trials: int = DEFAULT_TRIALS
    budget: int = DEFAULT_BUDGET
    stride: int | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if self.method not in METHODS + PAIRINGS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS + PAIRINGS}")
        for name, least in (("trials", 1), ("budget", 1), ("seed", 0), ("stride", 1)):
            value = getattr(self, name)
            if value is not None or name != "stride":
                object.__setattr__(self, name, _as_count(value, name, least))
        if self.tolerance is not None and (
            isinstance(self.tolerance, (bool, np.bool_)) or not (math.isfinite(self.tolerance) and self.tolerance >= 0)
        ):
            raise ValueError(f"tolerance must be finite and non-negative, got {self.tolerance!r}")

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride is not None else default_stride(self.budget)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded error trajectories of one experiment.

    iters holds the recorded iteration numbers, flops the cumulative
    flop count at each (identical across trials under the fixed step
    cost model), errors the (trials, len(iters)) squared distances to
    the oracle solution.
    """

    method: str
    iters: np.ndarray
    flops: np.ndarray
    errors: np.ndarray

    @property
    def trials(self) -> int:
        return self.errors.shape[0]

    def mean_errors(self) -> np.ndarray:
        return self.errors.mean(axis=0)

    def std_errors(self) -> np.ndarray:
        if self.trials < 2:
            return np.zeros(self.errors.shape[1])
        return self.errors.std(axis=0, ddof=1)


def _as_target(target):
    """target, with an ``(A, y)`` pair made a SingleSystem (which checks y)."""
    return SingleSystem(*target) if isinstance(target, tuple) else target


def oracle_solution(target) -> np.ndarray:
    """Optimal solution pinv(X) y of the full system X b = y; for X = U V, pinv(R V) Qᵀ y with U = Q R."""
    target = _as_target(target)
    if isinstance(target, FactoredSystem):
        q, rv = qr_reduce(target.U, target.V)
        return pinv_solve(rv, np.einsum("ij,i->j", q, target.y))
    return pinv_solve(target.A, target.y)


def run_experiment(config: RunConfig, target, beta_star: np.ndarray | None = None) -> Trajectory:
    """Run config.trials independent trials against one target.

    target is a FactoredSystem (interlaced methods), or a SingleSystem
    or an ``(A, y)`` pair (single-system methods).  beta_star overrides
    the oracle solution, e.g. to reuse one across several configs; it
    must be a finite vector of length n.
    """
    target = _as_target(target)
    if config.method not in target.methods:
        raise ValueError(f"{config.method!r} does not run on a {type(target).__name__}; it takes {target.methods}")
    if beta_star is None:
        beta_star = oracle_solution(target)
    else:
        beta_star = _as_float_vector(beta_star, "beta_star")
        if beta_star.shape != (target.n,):
            raise ValueError(f"beta_star has shape {beta_star.shape}, expected ({target.n},)")
    iters, flops, errors = _engine.run_trials(
        config.method,
        target,
        config.budget,
        config.seed,
        config.trials,
        config.effective_stride,
        beta_star,
        tolerance=config.tolerance,
    )
    return Trajectory(method=config.method, iters=iters, flops=flops, errors=errors)


def bound_variant_for(method: str, target) -> str | None:
    """Which expected-error bound, if any, covers this run.

    Variant "a" holds for rk-rk on consistent S1 data, variant "b" for
    rek-rk on S3b data; nothing is claimed for other combinations.
    """
    target = _as_target(target)
    if method == "rk-rk" and target.scenario == "S1":
        return "a"
    if method == "rek-rk" and target.scenario == "S3b":
        return "b"
    return None


def emit_csv(traj: Trajectory, path) -> None:
    """Write the per-trial trajectory table (trial-major, iter-minor).

    Each trial's rows are one ``%`` template over its errors; ``%r`` of a
    Python float is its ``repr``.
    """
    suffixes = [f",{t},%r,{f}" for t, f in zip(traj.iters.tolist(), traj.flops.tolist())]
    with open(path, "w") as fh:
        fh.write("trial,iter,error_sq,flops\n")
        if not suffixes:
            return
        for tr in range(traj.trials):
            prefix = str(tr)
            template = prefix + ("\n" + prefix).join(suffixes) + "\n"
            fh.write(template % tuple(traj.errors[tr].tolist()))


def emit_summary_csv(traj: Trajectory, path, target=None, inputs: BoundInputs | None = None) -> None:
    """Write the cross-trial summary with the bound column when it applies."""
    variant = bound_variant_for(traj.method, target) if target is not None else None
    if variant is not None and inputs is None:
        inputs = bound_inputs(target)
    rows = ["iter,mean_error_sq,std_error_sq,bound"]
    for t in traj.iters.tolist():
        bound = repr(float(expected_error_bound(inputs, variant, t))) if variant is not None else ""
        rows.append(f"{t},%r,%r,{bound}")
    template = "\n".join(rows)
    values = np.column_stack((traj.mean_errors(), traj.std_errors())).ravel().tolist()
    Path(path).write_text(template % tuple(values) + "\n")


def write_run_manifest(path, config: RunConfig, target, inputs: BoundInputs | None = None) -> None:
    """Append one JSON line describing the invocation.

    inputs, when given, are ``bound_inputs(target)`` computed by the caller.
    """
    target = _as_target(target)
    entry: dict = {
        "method": config.method,
        "trials": config.trials,
        "budget": config.budget,
        "seed": config.seed,
        "stride": config.effective_stride,
        "scenario": target.scenario,
        "m": target.m,
        "n": target.n,
    }
    if config.trials == 1:  # only single-trial runs solve triangles
        entry["block_solver"] = BLOCK_SOLVER
    if isinstance(target, FactoredSystem):
        if inputs is None:
            inputs = bound_inputs(target)
        entry.update(
            k=target.k,
            alpha_u=inputs.alpha_u,
            alpha_v=inputs.alpha_v,
            theta_v=inputs.theta_v,
            kappa_sq_u=inputs.kappa_sq_u,
        )
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
