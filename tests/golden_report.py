"""Print, for every solver golden id, its pinned hash, the hash the current code writes, and whether it moved.

The ids and hashes are ``test_text_output``'s SOLVE_GOLDEN, SOLVE_GOLDEN_SIDE, TOLERANCE_GOLDEN and
SINGLE_TRIAL_GOLDEN, and each case is written by the ``kaczfact`` commands its test runs.  A case with
several pinned hashes (a summary and a manifest, or a tolerance stop's step and three files) prints
them comma-separated.  Not collected by pytest; run from the repository root as

    PYTHONPATH=src python tests/golden_report.py

It exits 1 when an id moved.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from kaczfact.cli import main
from test_text_output import (
    SINGLE_TRIAL_GOLDEN,
    SOLVE_GOLDEN,
    SOLVE_GOLDEN_SIDE,
    TOLERANCE_GOLDEN,
    solve_outputs,
    write_gaussian_instance,
)

# (m, n, k) of the generated desk instances, seed 0; TOLERANCE_GOLDEN solves on the S1 one.
DESK = {"S1": (60, 40, 20), "S2": (40, 60, 50)}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(args: list[str]) -> None:
    if main(args) != 0:
        raise SystemExit(f"kaczfact {' '.join(args)} failed")


def traj(root: Path, case: str) -> Path:
    """A trajectory path in a directory of its own, named as the tests name it (the summary and manifest
    names follow from it)."""
    (root / case).mkdir()
    return root / case / "traj.csv"


def cases(root: Path):
    """(id, pinned, current) for every golden id, each a tuple of strings."""
    gaussian = root / "gaussian"
    write_gaussian_instance(gaussian)
    for method in sorted(SOLVE_GOLDEN):
        outputs = solve_outputs(method, gaussian, traj(root, method), "--budget", "300", "--stride", "1")
        yield f"SOLVE_GOLDEN[{method}]", (SOLVE_GOLDEN[method],), (sha(outputs[0]),)
        yield f"SOLVE_GOLDEN_SIDE[{method}]", SOLVE_GOLDEN_SIDE[method], tuple(map(sha, outputs[1:]))
    for scenario, (m, n, k) in DESK.items():
        args = ["--scenario", scenario, "--m", str(m), "--n", str(n), "--k", str(k), "--seed", "0"]
        run(["gen", *args, "--out-dir", str(root / scenario)])
    for method in sorted(TOLERANCE_GOLDEN):
        tolerance, stop, golden = TOLERANCE_GOLDEN[method]
        options = ("--budget", "3000", "--stride", "7", "--tolerance", tolerance)
        outputs = solve_outputs(method, root / "S1", traj(root, f"tol-{method}"), *options)
        last = outputs[0].splitlines()[-1].split(b",")[1].decode()
        yield f"TOLERANCE_GOLDEN[{method}]", (str(stop), *golden), (last, *map(sha, outputs))
    for scenario, method in sorted(SINGLE_TRIAL_GOLDEN):
        out = traj(root, f"{scenario}-{method}")
        args = ["solve", "--method", method, "--dir", str(root / scenario), "--trials", "1", "--seed", "5"]
        run(args + ["--budget", "1500", "--stride", "50", "--out", str(out)])
        yield f"SINGLE_TRIAL_GOLDEN[{scenario}, {method}]", (SINGLE_TRIAL_GOLDEN[(scenario, method)],), (sha(out.read_bytes()),)


def main_report() -> int:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):  # the CLI's own messages
        found = list(cases(Path(tmp)))
    for name, pinned, current in found:
        print(f"{'same' if pinned == current else 'moved'}  {name}")
        print(f"    pinned  {','.join(pinned)}")
        print(f"    current {','.join(current)}")
    same = sum(pinned == current for _, pinned, current in found)
    print(f"{same} of {len(found)} the same")
    return 0 if same == len(found) else 1


if __name__ == "__main__":
    sys.exit(main_report())
