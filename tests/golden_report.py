"""Print, for every solver golden id, its pinned hash, the hash the current code writes, whether it moved,
and its sibling's verdict.

The ids and hashes are ``test_text_output``'s SOLVE_GOLDEN, SOLVE_GOLDEN_SIDE, TOLERANCE_GOLDEN and
SINGLE_TRIAL_GOLDEN, and each case is written by the ``kaczfact`` commands its test runs.  A case with
several pinned hashes (a summary and a manifest, or a tolerance stop's step and three files) prints
them comma-separated.  The sibling holds the case's trajectory to the sequential reference
(``test_text_output.reference_deviation``, shared by a SOLVE_GOLDEN id and its SOLVE_GOLDEN_SIDE id)
and prints its worst error deviation over 1 + ||beta*||^2, or why it failed.  Not collected by pytest;
run from the repository root as

    PYTHONPATH=src python tests/golden_report.py

It exits 1 when a sibling fails, whether or not its id moved; a moved id whose sibling passes may be
re-pinned.
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
    reference_deviation,
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


def sibling(*args, **kwargs) -> str:
    """``reference_deviation``'s verdict: the worst deviation, or "FAILED" and why."""
    try:
        return f"{reference_deviation(*args, **kwargs):.2g}"
    except AssertionError as exc:
        return f"FAILED {exc!r}"


def cases(root: Path):
    """(id, pinned, current, sibling) for every golden id: hashes as tuples of strings, the sibling's verdict."""
    gaussian = root / "gaussian"
    write_gaussian_instance(gaussian)
    for method in sorted(SOLVE_GOLDEN):
        outputs = solve_outputs(method, gaussian, traj(root, method), "--budget", "300", "--stride", "1")
        verdict = sibling(method, gaussian, outputs[0], trials=4, budget=300, stride=1)
        yield f"SOLVE_GOLDEN[{method}]", (SOLVE_GOLDEN[method],), (sha(outputs[0]),), verdict
        yield f"SOLVE_GOLDEN_SIDE[{method}]", SOLVE_GOLDEN_SIDE[method], tuple(map(sha, outputs[1:])), verdict
    for scenario, (m, n, k) in DESK.items():
        args = ["--scenario", scenario, "--m", str(m), "--n", str(n), "--k", str(k), "--seed", "0"]
        run(["gen", *args, "--out-dir", str(root / scenario)])
    for method in sorted(TOLERANCE_GOLDEN):
        tolerance, stop, golden = TOLERANCE_GOLDEN[method]
        options = ("--budget", "3000", "--stride", "7", "--tolerance", tolerance)
        outputs = solve_outputs(method, root / "S1", traj(root, f"tol-{method}"), *options)
        last = outputs[0].splitlines()[-1].split(b",")[1].decode()
        verdict = sibling(method, root / "S1", outputs[0], trials=4, budget=3000, stride=7, tolerance=float(tolerance))
        yield f"TOLERANCE_GOLDEN[{method}]", (str(stop), *golden), (last, *map(sha, outputs)), verdict
    for scenario, method in sorted(SINGLE_TRIAL_GOLDEN):
        out = traj(root, f"{scenario}-{method}")
        args = ["solve", "--method", method, "--dir", str(root / scenario), "--trials", "1", "--seed", "5"]
        run(args + ["--budget", "1500", "--stride", "50", "--out", str(out)])
        verdict = sibling(method, root / scenario, out.read_bytes(), trials=1, budget=1500, stride=50)
        yield f"SINGLE_TRIAL_GOLDEN[{scenario}, {method}]", (SINGLE_TRIAL_GOLDEN[(scenario, method)],), (sha(out.read_bytes()),), verdict


def main_report() -> int:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):  # the CLI's own messages
        found = list(cases(Path(tmp)))
    for name, pinned, current, verdict in found:
        print(f"{'same' if pinned == current else 'moved'}  {name}")
        print(f"    pinned  {','.join(pinned)}")
        print(f"    current {','.join(current)}")
        print(f"    sibling {verdict}")
    same = sum(pinned == current for _, pinned, current, _ in found)
    failed = sum(verdict.startswith("FAILED") for *_, verdict in found)
    print(f"{same} of {len(found)} the same; {failed} sibling(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_report())
