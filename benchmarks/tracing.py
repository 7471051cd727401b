"""Spans around kaczfact's public callables, recorded from outside the package.

Each callable is wrapped at the name its caller looks up (``cli`` imports
``emit_csv`` from ``bench``, so the wrapper goes on ``kaczfact.cli``).  A
span is [name, start, end, parent index, attributes]; spans stay in memory
until the run writes them out.  Calls are single-threaded, so a stack gives
each span its parent, and a span's self time is its duration minus that of
its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
from collections import defaultdict
from time import perf_counter

from kaczfact import METHODS, PAIRINGS


def _run_trials(args, kwargs, result, fn):
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    iters, flops, _ = result
    steps = int(iters[-1]) if len(iters) else 0
    return {
        "method": a["method"],
        "steps": steps,
        "trial_steps": steps * a["trials"],
        "records": len(iters),
        "flops": (int(flops[-1]) if len(flops) else 0) * a["trials"],
    }


def _file_bytes(args, kwargs, result, fn):
    return {"bytes": os.path.getsize(args[1])}


def _instance_bytes(args, kwargs, result, fn):
    s = result.system
    return {"bytes": s.U.data.nbytes + s.V.data.nbytes + s.y.nbytes}


# (module, attribute path, span name, attribute recorder)
TRACED = (
    ("kaczfact.cli", "main", "cli.main", lambda args, kwargs, result, fn: {"command": args[0][0]}),
    ("kaczfact._engine", "run_trials", "_engine.run_trials", _run_trials),
    ("kaczfact._engine", "_Batch.max_residual", "_engine.max_residual", None),
    ("kaczfact.sampling", "NormSampler.draw_many", "sampling.draw_many",
     lambda args, kwargs, result, fn: {"draws": int(args[1].size)}),
    ("kaczfact.bench", "oracle_solution", "bench.oracle_solution", None),
    ("kaczfact.bench", "bound_inputs", "bound_inputs", None),
    ("kaczfact.cli", "bound_inputs", "bound_inputs", None),
    ("kaczfact.oracle", "svd", "oracle.svd", None),
    ("kaczfact.systems", "svd", "oracle.svd", None),
    ("kaczfact.systems", "gen_gaussian_factored", "systems.gen", _instance_bytes),
    ("kaczfact.cli", "gen_gaussian_factored", "systems.gen", _instance_bytes),
    ("kaczfact.cli", "save_instance", "systems.save", None),
    ("kaczfact.systems", "load_instance", "systems.load", None),
    ("kaczfact.cli", "load_instance", "systems.load", None),
    ("kaczfact.cli", "emit_csv", "bench.emit_csv", _file_bytes),
    ("kaczfact.cli", "emit_summary_csv", "bench.emit_summary_csv", _file_bytes),
    ("kaczfact.cli", "write_run_manifest", "bench.write_run_manifest", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, path, name, describe in TRACED:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, describe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if describe is not None:
                span[4] = describe(args, kwargs, result, fn)
            return result

        return traced


_SECONDS = {
    "systems.gen": "systems.gen_s",
    "systems.save": "systems.save_s",
    "systems.load": "systems.load_s",
    "bench.oracle_solution": "oracle.reference_s",
    "bound_inputs": "oracle.bound_inputs_s",
    "oracle.svd": "oracle.svd_s",
    "sampling.draw_many": "sampling.draw_many_s",
    "_engine.run_trials": "engine.run_trials_s",
    "_engine.max_residual": "engine.tol_check_s",
    "bench.emit_csv": "bench.emit_csv_s",
    "bench.emit_summary_csv": "bench.emit_summary_s",
    "bench.write_run_manifest": "bench.manifest_s",
}
_CALLS = {"bound_inputs": "oracle.bound_inputs_calls", "oracle.svd": "oracle.svd_calls",
          "sampling.draw_many": "sampling.draw_many_calls", "_engine.max_residual": "engine.tol_checks"}


def segment_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer sums over the spans of one setup or one pass."""
    t: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _, attrs) in enumerate(spans):
        dur = end - start
        if name in _SECONDS:
            t[_SECONDS[name]] += dur
        if name in _CALLS:
            t[_CALLS[name]] += 1
        if name == "cli.main":
            t[f"cli.{attrs['command']}_s"] += dur
        elif name == "systems.gen":
            t["systems.instance_bytes"] += attrs["bytes"]
        elif name == "sampling.draw_many":
            t["draws"] += attrs["draws"]
        elif name in ("bench.emit_csv", "bench.emit_summary_csv"):
            t["bench.csv_bytes"] += attrs["bytes"]
        elif name == "_engine.run_trials":
            t["engine.self_s"] += dur - child_time[i]
            for key in ("steps", "trial_steps", "records"):
                t[f"engine.{key}"] += attrs[key]
            m = attrs["method"]
            t[f"time.{m}"] += dur
            t[f"trial_steps.{m}"] += attrs["trial_steps"]
            t[f"flops.{m}"] += attrs["flops"]
    return t


def layer_metrics(setups: list[dict], passes: list[dict]) -> dict[str, float]:
    """One setup plus one pass: the median of each total over traced segments."""
    keys = set().union(*setups, *passes)
    t = {
        k: statistics.median(s.get(k, 0.0) for s in setups) + statistics.median(p.get(k, 0.0) for p in passes)
        for k in keys
    }

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    out = {k: t.get(k, 0.0) for k in (
        "systems.gen_s", "systems.save_s", "systems.load_s", "systems.instance_bytes",
        "oracle.reference_s", "oracle.bound_inputs_s", "oracle.bound_inputs_calls", "oracle.svd_s",
        "oracle.svd_calls", "sampling.draw_many_s", "sampling.draw_many_calls", "engine.run_trials_s",
        "engine.self_s", "engine.steps", "engine.trial_steps", "engine.tol_checks", "engine.tol_check_s",
        "engine.records",
        "bench.emit_csv_s", "bench.emit_summary_s", "bench.manifest_s", "bench.csv_bytes",
        "cli.gen_s", "cli.solve_s", "cli.bound_s",
    )}
    out["sampling.ns_per_draw"] = ratio(t.get("sampling.draw_many_s", 0.0), t.get("draws", 0.0), 1e9)
    out["bench.csv_mb_per_s"] = ratio(out["bench.csv_bytes"], out["bench.emit_csv_s"] + out["bench.emit_summary_s"], 1e-6)
    for m in PAIRINGS + METHODS:
        seconds = t.get(f"time.{m}", 0.0)
        out[f"engine.us_per_trial_step.{m}"] = ratio(seconds, t.get(f"trial_steps.{m}", 0.0), 1e6)
        out[f"engine.mflops.{m}"] = ratio(t.get(f"flops.{m}", 0.0), seconds, 1e-6)
    return out

