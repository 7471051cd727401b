"""Smoke check of the benchmark at a reduced size; not part of the test suite.

    python3 benchmarks/smoke.py

Runs every workload of BENCHMARK.json with ``--size small`` (desk presets,
a tenth of the trials, two passes), once untraced and once traced.  It
checks that each run is correct, that its last line carries every metric
with the unit BENCHMARK.json gives, that each end-to-end metric is also
printed by name with its unit, that every traced child span lies inside
its parent, and that layers.json names exactly the per-layer metrics.
"""
from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that end before they start or leave their parent's interval."""
    by_id = {s["id"]: s for s in spans}
    bad = []
    for s in spans:
        if not s["start"] <= s["end"]:
            bad.append(f"{s['name']} ends before it starts")
        parent = by_id.get(s["parent"])
        if s["parent"] >= 0 and not (parent and parent["start"] <= s["start"] and s["end"] <= parent["end"]):
            bad.append(f"{s['name']} (span {s['id']}) is not inside its parent span {s['parent']}")
    return bad


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "small"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed: {done.stderr.strip()[-500:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics or units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")
    for m in spec["end_to_end"]:
        if not any(line.startswith("# " + m["name"] + " ") and line.endswith(" " + m["unit"]) for line in lines):
            problems.append(f"no report line for {m['name']} in {m['unit']}")
    if trace:
        report = json.loads(next(line[2:] for line in lines if line.startswith("# {")))
        segments = defaultdict(list)
        for line in (ROOT / report["trace_file"]).read_text().splitlines():
            span = json.loads(line)
            segments[span["segment"]].append(span)
        if not any(s["parent"] >= 0 for spans in segments.values() for s in spans):
            problems.append("no child spans recorded")
        for spans in segments.values():
            problems += nesting_errors(spans)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    failed = False
    mismatch = sorted(set(layers) ^ {m["name"] for m in spec["per_layer"]})
    if mismatch:
        print(f"FAIL layers.json and BENCHMARK.json disagree on {mismatch}")
        failed = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], trace)
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
