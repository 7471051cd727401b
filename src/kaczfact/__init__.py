"""Randomized Kaczmarz-family solvers for linear systems in factored form.

The package solves U @ V @ b = y without ever forming the product
U @ V: interlaced methods advance the inner variable x = V b on the
(U, y) subsystem and the solution iterate b on the (V, x) subsystem in
alternation.  Alongside the interlaced pairings it ships the four
single-system baselines (rk, rek, rgs, regs), a pseudo-inverse oracle,
scenario generators, expected-error bound curves, and a benchmark CLI.
Every trajectory runs through ``run_experiment`` (``trials=1`` for a
single run).
"""
from .dense import DenseMatrix, load_matrix, load_vector, save_matrix, save_vector
from .sampling import NormSampler, master_rng, trial_rng
from .oracle import RateConstants, SvdFactors, pinv_solve, svd
from .solvers import METHODS, SingleSystem, SolverState, estimate, init_state
from .interlaced import (
    PAIRINGS,
    BoundInputs,
    FactoredSystem,
    InterlacedState,
    bound_inputs,
    expected_error_bound,
    init_interlaced,
)
from .systems import (
    SCENARIO_PRESETS,
    SCENARIOS,
    GeneratedInstance,
    ScenarioSpec,
    gen_gaussian_factored,
    load_factored,
    load_instance,
    make_inconsistent_rhs,
    save_instance,
)
from .bench import RunConfig, Trajectory, emit_csv, emit_summary_csv, run_experiment, write_run_manifest

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "save_matrix",
    "load_matrix",
    "save_vector",
    "load_vector",
    "NormSampler",
    "master_rng",
    "trial_rng",
    "SvdFactors",
    "RateConstants",
    "svd",
    "pinv_solve",
    "METHODS",
    "SingleSystem",
    "SolverState",
    "init_state",
    "estimate",
    "PAIRINGS",
    "FactoredSystem",
    "InterlacedState",
    "init_interlaced",
    "BoundInputs",
    "bound_inputs",
    "expected_error_bound",
    "SCENARIOS",
    "SCENARIO_PRESETS",
    "ScenarioSpec",
    "GeneratedInstance",
    "gen_gaussian_factored",
    "make_inconsistent_rhs",
    "save_instance",
    "load_instance",
    "load_factored",
    "RunConfig",
    "Trajectory",
    "run_experiment",
    "emit_csv",
    "emit_summary_csv",
    "write_run_manifest",
    "__version__",
]
