"""kaczfact benchmark: one workload, one seed, one process.

    python3 benchmarks/run.py --workload single-trial --seed 1 --seconds 40 --trace 0

Sets up the workload several times (``setup_s`` comes from the median),
then runs passes over its operations for ``--seconds``, and at least two so
that every output is checked against a rerun with the same seed.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it carries the per-layer metrics instead.  Metric names and
units come from BENCHMARK.json at the root of the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 61
MIN_PASSES = 2
# setup_s is the setup's time in reference-kernel units times this: the
# kernel's time on the machine the bounds were set on (see README).
REF_SECONDS = 0.010
# After each setup and each operation the reference kernel runs for this
# share of its time, and at least REF_MIN_SAMPLES times.
REF_SHARE = 0.25
REF_MIN_SAMPLES = 3
# Printed beside the BENCHMARK.json metrics: the times in seconds that the
# _ref metrics and setup_s normalize, and the reference kernel's mean time.
REPORT_ONLY = {"setup_wall_s": "s", "wall_s": "s", "trial_steps_per_s": "1/s", "time_to_tol_s": "s",
               "reference_ms": "ms"}

# One BLAS thread (at most nproc): no pool threads spinning beside the
# single-threaded engine.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full", help="small: the reduced smoke-test size")
    return p.parse_args(argv)


def _import_package():
    sys.path.insert(0, str(SRC))
    import kaczfact

    if Path(kaczfact.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"kaczfact was imported from {kaczfact.__file__}, not from {SRC}")


def _environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": hashlib.sha256(
            b"".join(p.name.encode() + p.read_bytes() for p in sorted((SRC / "kaczfact").glob("*.py")))
        ).hexdigest(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes

    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


@dataclass
class Run:
    setup_times: list = field(default_factory=list)  # untraced setups, seconds
    setup_refs: list = field(default_factory=list)  # reference-kernel times after the untraced setups
    passes: list = field(default_factory=list)  # untraced passes, each a list of Outcome
    traced_setups: list = field(default_factory=list)  # per-layer totals of each traced setup
    traced_passes: list = field(default_factory=list)  # (outcomes, per-layer totals) of each traced pass
    spans: list = field(default_factory=list)  # (segment label, spans) of each traced segment
    untimed: list = field(default_factory=list)  # Outcome of each of the workload's untimed operations
    refs: list = field(default_factory=list)  # per untraced pass: reference-kernel times after its operations
    attempted: int = 0
    failures: list = field(default_factory=list)


def reference_seconds(rows) -> float:
    """Time of a fixed kernel that does no kaczfact work: 3000 small numpy
    row updates in a Python loop, the same mix as a T=1 solver step."""
    x = np.zeros(rows.shape[1])
    t0 = perf_counter()
    for i in range(3000):
        r = rows[(i * 37) % rows.shape[0]]
        x += (1.0 - float(r @ x)) / rows.shape[1] * r
    return perf_counter() - t0


def reference_samples(rows, busy: float) -> list[float]:
    """Reference-kernel times after ``busy`` seconds of work: REF_SHARE of
    ``busy`` in all, and at least REF_MIN_SAMPLES of them."""
    times = [reference_seconds(rows) for _ in range(REF_MIN_SAMPLES)]
    while sum(times) < REF_SHARE * busy:
        times.append(reference_seconds(rows))
    return times


def measure(wl, seconds: float, trace: bool) -> Run:
    """Set up SETUP_REPEATS times, then run passes for ``seconds`` (at least MIN_PASSES).

    With ``trace``, every second setup and pass is traced.
    """
    import tracing
    from workloads import Outcome

    tracer = tracing.Tracer()
    run = Run()

    def segment(label: str, traced: bool, body):
        if traced:
            tracer.install()
        try:
            t0 = perf_counter()
            value = body()
            elapsed = perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        spans = tracer.take()
        if traced:
            run.spans.append((label, spans))
        return value, elapsed, tracing.segment_totals(spans) if traced else None

    def run_op(op):
        try:
            return wl.run(op, ctx)
        except Exception as exc:  # an operation that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            return Outcome(0.0, "", problem=f"raised {exc!r}")

    ref_rows = np.random.default_rng(0).standard_normal((200, 150))
    first_setup = None
    for r in range(SETUP_REPEATS):
        ctx, elapsed, totals = segment(f"setup{r}", trace and r % 2 == 1, wl.setup)
        refs = reference_samples(ref_rows, elapsed)
        run.attempted += 1
        first_setup = first_setup or ctx["digest"]
        problems = ctx.get("problems", []) + ([] if ctx["digest"] == first_setup else ["instances differ between setups"])
        if problems:
            run.failures.append(f"setup {r}: {'; '.join(problems)}")
        if totals is None:
            run.setup_times.append(elapsed)
            run.setup_refs += refs
        else:
            run.traced_setups.append(totals)

    untimed_ops = getattr(wl, "untimed", ())
    untimed = [run_op(op) for op in untimed_ops]
    first = None
    start = perf_counter()
    p = 0
    while p < MIN_PASSES or perf_counter() - start < seconds:
        def body():
            outs, refs = [], []
            for op in wl.ops:
                outs.append(run_op(op))
                refs += reference_samples(ref_rows, outs[-1].seconds)
            return outs, refs

        (outcomes, refs), _, totals = segment(f"pass{p}", trace and p % 2 == 1, body)
        first = first or [o.digest for o in outcomes]
        for op, o, digest in zip(wl.ops, outcomes, first):
            run.attempted += 1
            if o.problem is None and o.digest != digest:
                o.problem = "output differs from the first pass with the same seed"
            if o.problem is not None:
                run.failures.append(f"pass {p} {op}: {o.problem}")
        if totals is None:
            run.passes.append(outcomes)
            run.refs.append(refs)
        else:
            run.traced_passes.append((outcomes, totals))
        p += 1
    # Untimed operations run once more, after the passes, for the rerun check.
    for op, o, again in zip(untimed_ops, untimed, [run_op(op) for op in untimed_ops]):
        run.attempted += 2
        problem = o.problem or again.problem or (None if o.digest == again.digest else "output differs on rerun")
        if problem is not None:
            run.failures.append(f"untimed {op}: {problem}")
    run.untimed = untimed
    return run


def end_to_end(wl, run: Run) -> dict[str, float]:
    """End-to-end metrics of the untraced passes.

    Seconds are sums over operations of each one's median over the passes.
    A ``_ref`` time divides each operation's time by the mean
    reference-kernel time of its pass, then takes the median over the
    passes; the machine's speed changes cancel (see README).  ``setup_s``
    is the median setup time over the mean reference-kernel time of the
    setups, times REF_SECONDS.
    """
    med = statistics.median
    first = run.passes[0]
    ops = range(len(wl.ops))
    seconds = [med(outcomes[i].seconds for outcomes in run.passes) for i in ops]
    refs = [med(outcomes[i].seconds / statistics.fmean(r) for outcomes, r in zip(run.passes, run.refs)) for i in ops]
    tol_ops = [i for i in ops if getattr(wl.ops[i], "tolerance", False)]
    solves = [i for i in ops if first[i].trial_steps]
    trial_steps = sum(first[i].trial_steps for i in solves)
    return {
        "setup_s": REF_SECONDS * med(run.setup_times) / statistics.fmean(run.setup_refs),
        "setup_wall_s": med(run.setup_times),
        "wall_s": sum(seconds),
        "wall_ref": sum(refs),
        "trial_steps_per_s": trial_steps / sum(seconds[i] for i in solves),
        "trial_steps_per_ref": trial_steps / sum(refs[i] for i in solves),
        "time_to_tol_s": sum(seconds[i] for i in tol_ops),
        "time_to_tol_ref": sum(refs[i] for i in tol_ops),
        "reference_ms": 1e3 * statistics.fmean(x for r in run.refs for x in r),
        "flops_to_target": sum(o.flops_at_target or 0 for o in first + run.untimed),
        "steps_to_tol": sum(first[i].stop or 0 for i in tol_ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _pass_wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def _write_spans(path: Path, segments) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for label, spans in segments:
            for i, (name, start, end, parent, attrs) in enumerate(spans):
                fh.write(json.dumps({"segment": label, "id": i, "parent": parent, "name": name,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_package()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.NAMES}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, args.size == "small", work)
    try:
        run = measure(wl, args.seconds, bool(args.trace))
    finally:
        wl.close()
    for line in run.failures:
        print(f"FAILED {line}", file=sys.stderr)

    e2e = end_to_end(wl, run)
    first = run.passes[0]
    failed = len(run.failures)
    report = {
        "workload": args.workload,
        "size": args.size,
        "env": _environment(args.seed),
        "passes": len(run.passes) + len(run.traced_passes),
        "failed_frac": {"value": failed / run.attempted, "unit": "ratio", "failed": failed, "attempted": run.attempted},
        "ops": [
            {"op": str(op), "min_s": min(o.seconds for o in samples),
             "median_s": statistics.median(o.seconds for o in samples),
             "stop": samples[0].stop, "flops_at_target": samples[0].flops_at_target}
            for op, samples in zip(wl.ops, zip(*run.passes))
        ] + [
            {"op": str(op), "untimed_s": o.seconds, "flops_at_target": o.flops_at_target}
            for op, o in zip(getattr(wl, "untimed", ()), run.untimed)
        ],
    }
    if hasattr(wl, "ratio"):
        flops = {op.method: o.flops_at_target for op, o in zip(wl.ops + wl.untimed, first + run.untimed) if o.flops_at_target}
        num, base = wl.ratio
        report["ratio"] = {
            "name": f"flops_to_target {num} / {base}",
            "value": flops[num] / flops[base] if num in flops and base in flops else None,
            num: flops.get(num),
            base: flops.get(base),
        }
    if args.trace:
        values = tracing.layer_metrics(run.traced_setups, [totals for _, totals in run.traced_passes])
        untraced = statistics.median(map(_pass_wall, run.passes))
        traced = statistics.median(_pass_wall(outcomes) for outcomes, _ in run.traced_passes)
        values["trace.overhead_frac"] = (traced - untraced) / untraced
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        _write_spans(trace_path, run.spans)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values = e2e

    print("# " + json.dumps(report))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | REPORT_ONLY
    for name, value in e2e.items():
        print(f"# {name:<20} {value:>16.6g} {units[name]}")
    print(f"# {'failed_frac':<20} {failed / run.attempted:>16.6g} ratio ({failed} of {run.attempted} operations)")
    names = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
