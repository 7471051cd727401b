"""Command-line benchmark front end.

Subcommands:
  gen      generate a scenario instance into a directory
  solve    run a solver against a generated instance, writing a
           trajectory CSV, a summary CSV and a JSON-lines run manifest
  bound    print an expected-error bound curve for an instance
  version  print the package version

``solve`` accepts the interlaced pairings (rk-rk, rek-rk, rek-rek,
rgs-rgs), which run on the factors directly, and the single-system
methods (rk, rek, rgs, regs), for which the harness materializes the
full product once as the benchmark baseline target.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys as _sys
from pathlib import Path

from . import __version__
from .bench import (
    DEFAULT_BUDGET,
    DEFAULT_TRIALS,
    RunConfig,
    bound_inputs,
    emit_csv,
    emit_summary_csv,
    run_experiment,
    write_run_manifest,
)
from .dense import DenseMatrix
from .interlaced import PAIRINGS, expected_error_bound
from .solvers import METHODS, SingleSystem
from .systems import SCENARIO_PRESETS, SCENARIOS, ScenarioSpec, gen_gaussian_factored, load_instance, save_instance


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kaczfact", description="Randomized solvers for factored linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark instance")
    gen.add_argument("--scenario", required=True, choices=SCENARIOS)
    gen.add_argument("--m", type=int, default=None, help="rows of U (defaults to the scenario preset)")
    gen.add_argument("--n", type=int, default=None, help="columns of V")
    gen.add_argument("--k", type=int, default=None, help="inner dimension")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", required=True)

    solve = sub.add_parser("solve", help="run a solver on a generated instance")
    solve.add_argument("--method", required=True, choices=list(PAIRINGS) + list(METHODS))
    solve.add_argument("--dir", required=True, help="instance directory written by gen")
    solve.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--stride", type=int, default=None, help="record every stride-th iteration (default budget/500)")
    solve.add_argument("--tolerance", type=float, default=None, help="optional residual early-stop threshold")
    solve.add_argument("--out", required=True, help="trajectory CSV path; summary and manifest are written beside it")

    bound = sub.add_parser("bound", help="print an expected-error bound curve as CSV")
    bound.add_argument("--dir", required=True)
    bound.add_argument("--variant", required=True, choices=["a", "b"], help="a: consistent rk-rk bound; b: inconsistent rek-rk bound")
    bound.add_argument("--tmax", type=int, required=True)
    bound.add_argument("--stride", type=int, default=1)
    bound.add_argument("--out", default=None, help="write to a file instead of stdout")

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_gen(args) -> int:
    preset = SCENARIO_PRESETS[args.scenario]["full"]
    m = args.m if args.m is not None else preset[0]
    n = args.n if args.n is not None else preset[1]
    k = args.k if args.k is not None else preset[2]
    spec = ScenarioSpec(scenario=args.scenario, m=m, n=n, k=k, seed=args.seed)
    inst = gen_gaussian_factored(spec)
    save_instance(inst, spec, args.out_dir)
    print(f"wrote {args.scenario} instance (m={m}, n={n}, k={k}, seed={args.seed}) to {args.out_dir}")
    return 0


def _cmd_solve(args) -> int:
    system = load_instance(args.dir)
    target = system
    if args.method in METHODS:
        # Baseline methods run on the assembled system; forming the
        # product here is the harness's job, not the solver's.
        target = SingleSystem(DenseMatrix(system.U.data @ system.V.data), system.y, system.scenario)
    config = RunConfig(
        method=args.method,
        seed=args.seed,
        trials=args.trials,
        budget=args.budget,
        stride=args.stride,
        tolerance=args.tolerance,
    )
    traj = run_experiment(config, target)
    # One set of oracle constants serves both the bound column and the manifest.
    inputs = bound_inputs(system) if args.method in PAIRINGS else None
    out = Path(args.out)
    emit_csv(traj, out)
    summary_path = out.with_name(out.stem + "_summary.csv")
    emit_summary_csv(traj, summary_path, target=target, inputs=inputs)
    manifest_path = out.with_name(out.stem + "_manifest.jsonl")
    write_run_manifest(manifest_path, config, target, inputs=inputs)
    final_mean = traj.mean_errors()[-1] if traj.iters.size else float("nan")
    print(f"{args.method} on {args.dir}: {args.trials} trials x {args.budget} iterations, final mean error_sq {final_mean:.6e}")
    print(f"wrote {out}, {summary_path}, {manifest_path}")
    return 0


def _cmd_bound(args) -> int:
    if args.tmax < 0:
        raise ValueError("--tmax must be non-negative")
    if args.stride < 1:
        raise ValueError("--stride must be at least 1")
    system = load_instance(args.dir)
    inputs = bound_inputs(system)
    lines = [f"# {f.name}={getattr(inputs, f.name)!r}" for f in dataclasses.fields(inputs)] + ["t,bound"]
    ts = list(range(0, args.tmax + 1, args.stride))
    if ts[-1] != args.tmax:
        ts.append(args.tmax)
    for t in ts:
        lines.append(f"{t},{expected_error_bound(inputs, args.variant, t)!r}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        _sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "version":
            print(__version__)
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
