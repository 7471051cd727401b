"""The text writers, byte for byte.

Trajectory and summary CSVs, instance files and the ``bound`` curve are
the package's output formats, and reruns must reproduce them exactly.
The golden cases pin the SHA-256 of what each writer produces on fixed
inputs, edge floats included.  The property tests hold the writers to
plain per-value loops, kept here as the reference.  The solver golden
cases pin the trajectory, summary and manifest that ``kaczfact solve``
writes for every method at T >= 2, the trajectory of every method at
T = 1 (the block path) on two generated instances, and one
tolerance-stopped solve of each target kind, so a change to the engine,
the kernels, the sampler or the oracle that moves one bit of one output
shows here.  Each solver golden case has a sibling that holds the same
solve to the sequential reference (``tests/reference.py``), so that moved
bytes can be told right or wrong.  One more case checks that T = 1 bytes
at the full presets do not depend on the BLAS thread count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaczfact
import reference
from kaczfact.bench import Trajectory, bound_variant_for, emit_csv, emit_summary_csv, oracle_solution
from kaczfact.cli import main
from kaczfact.dense import DenseMatrix, save_matrix, save_vector
from kaczfact.interlaced import PAIRINGS, BoundInputs, FactoredSystem, expected_error_bound
from kaczfact.sampling import trial_rng
from kaczfact.solvers import SingleSystem, estimate
from kaczfact.systems import SCENARIOS, load_instance

EDGE = [0.0, -0.0, 5e-324, 1e-5, 9.999999999999998e15, 1e16, 0.1]
INPUTS = BoundInputs(alpha_u=0.9, alpha_v=0.75, theta_v=2.0, kappa_sq_u=3.5, b_star_sq=1.25, x_star_sq=0.1)


def trajectory(method: str, iters: list[int], per_step: int, errors) -> Trajectory:
    it = np.asarray(iters, dtype=np.int64)
    return Trajectory(method=method, iters=it, flops=it * per_step, errors=np.asarray(errors, dtype=np.float64))


def tagged_system(scenario: str) -> FactoredSystem:
    one = DenseMatrix([[1.0]])
    return FactoredSystem(one, one, np.array([1.0]), scenario=scenario)


TRAJECTORIES = {
    "edge": trajectory(
        "rk-rk",
        [1, 7, 500, 70_000, 10**6],
        1234,
        np.array(EDGE + [float("nan"), float("inf"), 1 / 3, 2.5e-300, 123456.789, 7e22, 1.0, 0.5]).reshape(3, 5),
    ),
    "t1": trajectory("rek-rk", [10, 20, 30], 17, [[1e16, 0.1, 5e-324]]),
    "one-record": trajectory("rk", [70_000], 96, [[0.1], [1e-5]]),
    "zero-records": trajectory("rk", [], 96, np.empty((2, 0))),
}


def write_instance(out_dir) -> None:
    """A diagonal 2x2x2 instance whose oracle constants are exact."""
    out_dir.mkdir(exist_ok=True)
    (out_dir / "U.mat").write_text("2 2\n2 0\n0 1\n")
    (out_dir / "V.mat").write_text("2 2\n1 0\n0 0.5\n")
    (out_dir / "y.vec").write_text("2\n2\n3\n")


def bound_case(variant: str):
    def write(path):
        write_instance(path.parent / "instance")
        args = ["bound", "--dir", str(path.parent / "instance"), "--variant", variant]
        assert main(args + ["--tmax", "10", "--stride", "3", "--out", str(path)]) == 0

    return write


CASES = {
    **{f"csv-{name}": (lambda p, t=traj: emit_csv(t, p)) for name, traj in TRAJECTORIES.items()},
    **{f"summary-{name}": (lambda p, t=traj: emit_summary_csv(t, p)) for name, traj in TRAJECTORIES.items()},
    "summary-bound-a": lambda p: emit_summary_csv(TRAJECTORIES["edge"], p, target=tagged_system("S1"), inputs=INPUTS),
    "summary-bound-b": lambda p: emit_summary_csv(TRAJECTORIES["t1"], p, target=tagged_system("S3b"), inputs=INPUTS),
    "matrix-edge": lambda p: save_matrix(DenseMatrix(np.array(EDGE + [1.5, -2.0]).reshape(3, 3)), p),
    "matrix-1x1": lambda p: save_matrix(DenseMatrix([[9.999999999999998e15]]), p),
    "vector-edge": lambda p: save_vector(np.array(EDGE + [-7.25]), p),
    "vector-1": lambda p: save_vector(np.array([5e-324]), p),
    "bound-a": bound_case("a"),
    "bound-b": bound_case("b"),
}

# SHA-256 of each case's bytes.
GOLDEN = {
    "bound-a": "e48271552582c3b6c1ec5ed9357bdce0678f010d2ce5a5656f79e4fe12845ddf",
    "bound-b": "b8435b50d853a75641755062d01601e6b94571653d33d6895bfb7643f0641905",
    "csv-edge": "1a252f7f28ab34396fe4aaa52b72476debf57a6b3720e388bee59fdd7c8de818",
    "csv-one-record": "a612d68e0f40057699386c33493cbbc2731d1d19b10a29168af0ccf38fe452d1",
    "csv-t1": "b873588fabf04a51cb8099d8f52291b83b90f4d04d8bfa91e92c7c956b19f8c1",
    "csv-zero-records": "5c98f3f980b898c0be43244d4e90fc8b5f0b8151f4514cc77a746145815a94a0",
    "matrix-1x1": "0a1b7af79433b94c21173cb3d6817773cb570adb2fdb9fb03ea55c7f6860da8a",
    "matrix-edge": "2d1565cf63c7e0d027be152c0c3258e80dc5b8b9c92337686493e0076329d517",
    "summary-bound-a": "922daaa7b179ca47404cb97b1fa5e8ee366ef39a5979074c6f5689130ce1797c",
    "summary-bound-b": "2b9a1f5597ed5f3e5bd80b4afa61d52620bc202f7cd9e7f4dfe6f5e767425193",
    "summary-edge": "f1c549d046d84e2dfed9c892433193a513ff7c27ded67adb12e408e166f5748b",
    "summary-one-record": "58e0ebae8ec70a075433e7dfa1d025f5aa9a5d9f2230e5e827715958da6e827e",
    "summary-t1": "c20a48d5ca5248ef98803d7f21e3933fee79661366b8e0c85b6b33e2fcf6b0cb",
    "summary-zero-records": "60fd035f3c57983e5a4fa5ac3032737f00da7c82e6ce7fa552a19a718ce9eec2",
    "vector-1": "f60dc5a4f61f0132ccf4b9c2e837698b2c59f2a093fd56e5803d5d4bc6a0e2a1",
    "vector-edge": "f2afb4573061aa6ddf23d4a73cca3441807eac224865cb7768b28516b260407b",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case, tmp_path):
    path = tmp_path / "out.txt"
    with np.errstate(invalid="ignore"):
        CASES[case](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[case]


# ---------------------------------------------------------------------------
# Reference writers: one formatted value at a time.
# ---------------------------------------------------------------------------


def reference_csv(traj: Trajectory) -> str:
    lines = ["trial,iter,error_sq,flops"]
    for tr in range(traj.trials):
        row_err = traj.errors[tr]
        for r in range(traj.iters.size):
            lines.append(f"{tr},{traj.iters[r]},{float(row_err[r])!r},{traj.flops[r]}")
    return "\n".join(lines) + "\n"


def reference_summary(traj: Trajectory, target, inputs) -> str:
    variant = bound_variant_for(traj.method, target) if target is not None else None
    means = traj.mean_errors()
    stds = traj.std_errors()
    lines = ["iter,mean_error_sq,std_error_sq,bound"]
    for r in range(traj.iters.size):
        t = int(traj.iters[r])
        bound = repr(float(expected_error_bound(inputs, variant, t))) if variant is not None else ""
        lines.append(f"{t},{float(means[r])!r},{float(stds[r])!r},{bound}")
    return "\n".join(lines) + "\n"


def reference_matrix(A: DenseMatrix) -> str:
    lines = [f"{A.rows} {A.cols}"]
    for i in range(A.rows):
        lines.append(" ".join("%.17g" % x for x in A.data[i, :]))
    return "\n".join(lines) + "\n"


def reference_vector(v: np.ndarray) -> str:
    return "\n".join([str(v.size)] + ["%.17g" % x for x in v]) + "\n"


any_float = st.floats(allow_nan=True, allow_infinity=True)
finite_float = st.floats(allow_nan=False, allow_infinity=False)
# Sixteen squares below 1e300 sum to a finite norm; DenseMatrix rejects an overflowing one (tests/test_dense.py).
matrix_float = st.floats(-1e150, 1e150)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def trajectories(draw, method: str = "rk"):
    trials = draw(st.integers(1, 4))
    records = draw(st.integers(0, 6))
    iters = sorted(draw(st.lists(st.integers(1, 10**7), min_size=records, max_size=records, unique=True)))
    errors = draw(st.lists(any_float, min_size=trials * records, max_size=trials * records))
    return trajectory(method, iters, draw(st.integers(1, 10**6)), np.reshape(errors, (trials, records)))


@PROPERTY
@given(traj=trajectories())
def test_emit_csv_matches_reference(traj, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    emit_csv(traj, path)
    assert path.read_text() == reference_csv(traj)


@PROPERTY
@given(
    data=st.data(),
    scenario=st.sampled_from([None, "S1", "S3b"]),
    alphas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    scales=st.tuples(*[st.floats(0.0, 1e300)] * 4),
)
def test_emit_summary_csv_matches_reference(data, scenario, alphas, scales, tmp_path_factory):
    method = {None: "rk-rk", "S1": "rk-rk", "S3b": "rek-rk"}[scenario]
    traj = data.draw(trajectories(method))
    target = tagged_system(scenario) if scenario else None
    inputs = BoundInputs(*alphas, *scales)
    path = tmp_path_factory.mktemp("summary") / "summary.csv"
    with np.errstate(all="ignore"):
        emit_summary_csv(traj, path, target=target, inputs=inputs)
        expected = reference_summary(traj, target, inputs)
    assert path.read_text() == expected


@PROPERTY
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), data=st.data())
def test_save_matrix_matches_reference(rows, cols, data, tmp_path_factory):
    values = data.draw(st.lists(matrix_float, min_size=rows * cols, max_size=rows * cols))
    A = DenseMatrix(np.reshape(values, (rows, cols)))
    path = tmp_path_factory.mktemp("matrix") / "A.mat"
    save_matrix(A, path)
    assert path.read_text() == reference_matrix(A)


@PROPERTY
@given(values=st.lists(finite_float, max_size=8))
def test_save_vector_matches_reference(values, tmp_path_factory):
    v = np.asarray(values, dtype=np.float64)
    path = tmp_path_factory.mktemp("vector") / "v.vec"
    save_vector(v, path)
    assert path.read_text() == reference_vector(v)


# ---------------------------------------------------------------------------
# Solver output: ``kaczfact solve`` of every method, at T >= 2 and at T = 1.
# ---------------------------------------------------------------------------


def write_gaussian_instance(out_dir) -> None:
    """A 12x6x9 instance from seeded standard-normal factors and right-hand side."""
    rng = np.random.default_rng(20171)
    out_dir.mkdir(exist_ok=True)
    save_matrix(DenseMatrix(rng.standard_normal((12, 6))), out_dir / "U.mat")
    save_matrix(DenseMatrix(rng.standard_normal((6, 9))), out_dir / "V.mat")
    save_vector(rng.standard_normal(12), out_dir / "y.vec")


# SHA-256 of the trajectory CSV: 4 trials x 300 steps, every step recorded.
SOLVE_GOLDEN = {
    "rk-rk": "b5036062bf7143d5f130f7000d1e10cfe953c6a148277e7e4026365da3188090",
    "rek-rk": "a30ec879fa77aefd896a30192c2d3c24987b59524cdb601933d1a2d0fd17e346",
    "rek-rek": "9d14b84138e27f22a7ccc8ce32b25bc43744d8d525ef30036b7701e8bd8618ee",
    "rgs-rgs": "1169a84399936bdbd91634299d7930e4b94cb8f0b49f2dbc9790c7e7e89e8de5",
    "rk": "480e4086e9c214d7c27a6b3bb183f6e570b3237bbef9f2f7431fe70fe3d7a5df",
    "rek": "4dcf4193f2a305eebe804105d8cbd569e29dc2ac3b05100f479af3f855226533",
    "rgs": "7ad5b1cb7490e45c489fb9c4318ce9da2d8104f51981bf88948fa2341daeff8c",
    "regs": "5d19abe55936846a4e44a7aa6c615da9d33668ab68e217f680ea0529006975f9",
}


@pytest.mark.parametrize("method", sorted(SOLVE_GOLDEN))
def test_solve_golden_bytes(method, tmp_path):
    write_gaussian_instance(tmp_path / "instance")
    out = tmp_path / "traj.csv"
    args = ["solve", "--method", method, "--dir", str(tmp_path / "instance"), "--trials", "4"]
    assert main(args + ["--budget", "300", "--stride", "1", "--seed", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SOLVE_GOLDEN[method]


def solve_outputs(method: str, instance, out, *options: str) -> list[bytes]:
    """The trajectory, summary and manifest bytes of one ``kaczfact solve`` of ``method`` at T = 4."""
    args = ["solve", "--method", method, "--dir", str(instance), "--trials", "4", "--seed", "5", "--out", str(out)]
    assert main(args + list(options)) == 0
    return [p.read_bytes() for p in (out, out.with_name("traj_summary.csv"), out.with_name("traj_manifest.jsonl"))]


# SHA-256 of the summary CSV and of the manifest line that the solves above write.
SOLVE_GOLDEN_SIDE = {
    "rk-rk": (
        "637a3a866fd77fb470cde3c9a2e1132ae49047246864bb7da6ba8348f42aa3eb",
        "feb991eb604a21e15f70eaacadef4ef803ac05b260b496cd1c89fcd64c3a1956",
    ),
    "rek-rk": (
        "30bd0af9cfd70083687d2e8988dafd72d3137782b39e094344f9638690a371ab",
        "be2c2f420c60e46d76947223f3164cd83ac433f5a19176a6c1a6c3f33f5cfcfe",
    ),
    "rek-rek": (
        "37a1037aff6ae28701c4eeffc5864bee14520d26f6f9bace6eea4d300bdd6553",
        "cb07cb19aa2d0a8963839d59867266d4897891c3c1a4aa5a8fdca3964e89ca0b",
    ),
    "rgs-rgs": (
        "48f3c58999f2069f2598b2d3fe4ed514bbf85b7ed6c63709399bb798230ac562",
        "f309b1cc508af3cdcd165a2eb17ad92083a798175ec0aef3211d6d787e436392",
    ),
    "rk": (
        "06cc64f308646eb6f73194c8db8bc21f940a1623c160fc3c476caf62073a57ac",
        "cc469a90071faa7eac5b5f294c0571c6c4fe6f1d7fc9ca7d714f778aec037470",
    ),
    "rek": (
        "d859e5748a7feea545f51a842b11e2ac23f0177c54a74ddae573228b38ccb16c",
        "4137719a3e4917500cc2293dbd0169d971c130523b9ea2138ac70bccfee186ff",
    ),
    "rgs": (
        "7cf490c4928f4a168c2f38b51ad53bfc23cd4843007295086e27ce395e2ba861",
        "c3f5eb9dea37e044d747380dfc2527e5ee9773977a49f8124940b69f87c237c9",
    ),
    "regs": (
        "199f267b5d059c1ad264d5a885cadb3ecfd823284322c9324b60e9a9951dc727",
        "83d6d74c55537f8df2bd88e9902d53b4c97d1187eb11bb3fe0263b93f81b0e6b",
    ),
}


@pytest.mark.parametrize("method", sorted(SOLVE_GOLDEN_SIDE))
def test_solve_golden_summary_and_manifest(method, tmp_path):
    write_gaussian_instance(tmp_path / "instance")
    outputs = solve_outputs(method, tmp_path / "instance", tmp_path / "traj.csv", "--budget", "300", "--stride", "1")
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs[1:]) == SOLVE_GOLDEN_SIDE[method]


# SHA-256 of the trajectory, summary and manifest of a tolerance-stopped solve on a generated S1
# instance (60x40x20, seed 0), and the step it stops at.  The stop is off the stride, and rk-rk's
# summary carries the bound column.
TOLERANCE_GOLDEN = {
    "rk-rk": ("1e-3", 1800, (
        "67bd6b99cf69d2961b6e1da5c60670da9abf1f4b7f1195ac9bfde4f9876e0a70",
        "867bb11dce0219a5a28d88dd2f584b556a14cbffa2b1b3e6dfa5cf18ff2c6769",
        "deda4c5892ad9f2a86d192ad57b8248cc954d4c8c049dc2880ee2dcb04187513",
    )),
    "rk": ("1e-2", 2580, (
        "1eeb4de5b24846bdfb9d353954867dbc890d7114c2cdcc932f989f42149ee64a",
        "cf90dbdf293eb1b523fe50ea0117a403198a418c117ec58bc55b525786989e88",
        "9a2ef50dc26aded944dd27f0ecc8d3ab0a7b089b79e4ade3d593972097244bc7",
    )),
}


@pytest.mark.parametrize("method", sorted(TOLERANCE_GOLDEN))
def test_tolerance_stopped_solve_golden_bytes(method, tmp_path):
    tolerance, stop, golden = TOLERANCE_GOLDEN[method]
    gen = ["gen", "--scenario", "S1", "--m", "60", "--n", "40", "--k", "20", "--seed", "0"]
    assert main(gen + ["--out-dir", str(tmp_path / "instance")]) == 0
    options = ("--budget", "3000", "--stride", "7", "--tolerance", tolerance)
    outputs = solve_outputs(method, tmp_path / "instance", tmp_path / "traj.csv", *options)
    assert outputs[0].splitlines()[-1].split(b",")[1] == str(stop).encode()
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == golden


# SHA-256 of the trajectory CSV of a one-trial solve on the generated S1 (60x40x20) and S2 (40x60x50)
# desk instances, seed 0: 1500 steps recorded every 50, so records fall inside the T = 1 path's windows
# and are rewound from their ends.  Every run takes 64-step windows; the Gram entries come
# from tables on every side but S1's U rows (60 > 2 x 20), where they are computed.
SINGLE_TRIAL_GOLDEN = {
    ("S1", "rk-rk"): "0c33c457b8debd52aaac6f59769afde5c0d8d47f9c5b63db680ea41b07dd78bf",
    ("S1", "rek-rk"): "95bdbe1ee5c13f1900adb103d30e41bed55652e48574945d6027f40ecf84517a",
    ("S1", "rek-rek"): "7f63757480ac2b9d3d497ae382ebc8af98fe030a3673ddedaffc5ce675d36e55",
    ("S1", "rgs-rgs"): "dea7d4fbd71135d177969a8dbf76a513ad198aa241c6e50400ff5f56e3446647",
    ("S1", "rk"): "6f2b42f53dc66728967b21acc9689b1edbc6e7161f88b4e9f1d84d6521dc9d61",
    ("S1", "rek"): "5f80a21991292c73ee54bcab60d07816225c4d9fa50b86132bf90138be589cb4",
    ("S1", "rgs"): "9700913b5b1ee013cffd023f8228fd5310ee5781e2d177df8b89c6aa03eb2485",
    ("S1", "regs"): "c6ad6bdbc0a6bff2a03b80be76d796027e93e1c69135f680b4f9fb6d6c4cd9b9",
    ("S2", "rk-rk"): "9975ff6da15253d83d0ceeb142d1cb808a0743cd86ef4982858fc7218f47dcc1",
    ("S2", "rek-rk"): "d83b56f2a3c2fbcd834d49e40d1e68aaa500756f62e322bddede55676e867d82",
    ("S2", "rek-rek"): "628ff94c22cc8a97f1fad547c6b8e9b34096766321a554c2c3ed3fae9fee5da4",
    ("S2", "rgs-rgs"): "904404766aa13d0f4d6a23852fc77a8fcf6734e9ac8199380721e075f6fededd",
    ("S2", "rk"): "4f9e22a95ef94e4244c16a3890b8e14544f84c7e2b4d6fef5bcba819fb1aec04",
    ("S2", "rek"): "956a4265f28baf54f6bd4c1985d22acd8a44c4ff3f25272e301a3cf61192f774",
    ("S2", "rgs"): "de33f1635e646a33f32cfdc1dc43587f49fbea1741dcff840d8fde5acc89228e",
    ("S2", "regs"): "ec2589775369407a306fd2417d46247319812a111029a4131ea74f8c6bcdca8a",
}


@pytest.fixture(scope="module")
def desk_instances(tmp_path_factory):
    """Directories of the generated S1 and S2 desk instances, seed 0."""
    out = {}
    for scenario, (m, n, k) in {"S1": (60, 40, 20), "S2": (40, 60, 50)}.items():
        out[scenario] = tmp_path_factory.mktemp(scenario)
        gen = ["gen", "--scenario", scenario, "--m", str(m), "--n", str(n), "--k", str(k), "--seed", "0"]
        assert main(gen + ["--out-dir", str(out[scenario])]) == 0
    return out


@pytest.mark.parametrize("scenario, method", sorted(SINGLE_TRIAL_GOLDEN))
def test_single_trial_solve_golden_bytes(scenario, method, desk_instances, tmp_path):
    out = tmp_path / "traj.csv"
    args = ["solve", "--method", method, "--dir", str(desk_instances[scenario]), "--trials", "1", "--seed", "5"]
    assert main(args + ["--budget", "1500", "--stride", "50", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SINGLE_TRIAL_GOLDEN[(scenario, method)]


# ---------------------------------------------------------------------------
# Golden siblings: each pinned solve held to the sequential reference.
# ---------------------------------------------------------------------------

# The most a T = 1 error may differ from the reference's, over 1 + ||beta*||^2: the worst deviation of a
# re-pinned T = 1 case so far, 1.8e-15, with a margin of about 5.  At T >= 2 the errors are equal.
SINGLE_TRIAL_BOUND = 1e-14


def reference_records(method, target, budget, seed, trials, stride, star, tolerance=None):
    """One {step: error_sq} per trial of the lock-step run, from ``reference.run`` of each trial on
    trial_rng(seed, j), with the engine's error formula.  With a tolerance the run stops at the first check,
    every m steps, at which every trial's residuals have norm at most the tolerance."""

    def error(b):
        diff = (b - star)[None]
        return np.einsum("ij,ij->i", diff, diff)[0]

    def passes(state):
        if isinstance(target, FactoredSystem):
            parts = (target.y - target.U.data @ state.x, state.x - target.V.data @ state.b)
        else:
            parts = (target.y - target.A.data @ estimate(method, state),)
        return all(np.linalg.norm(r) <= tolerance for r in parts)

    last = budget
    if tolerance is not None:
        last = max(reference.run(method, target, budget, trial_rng(seed, j), tolerance=tolerance)[1] for j in range(trials))
    while True:
        records, states = [{} for _ in range(trials)], []
        for j, rec in enumerate(records):
            recorder = lambda t, value, flops, rec=rec: rec.__setitem__(t, value)
            states.append(reference.run(method, target, last, trial_rng(seed, j), recorder=recorder, stride=stride,
                                        error_fn=error)[0])
        if tolerance is None or last == budget or all(map(passes, states)):
            return records
        last = min(last + target.m, budget)


def reference_deviation(method, instance, trajectory: bytes, trials, budget, stride, tolerance=None, seed=5) -> float:
    """The worst |error_sq - reference's| / (1 + ||beta*||^2) of a ``kaczfact solve`` trajectory CSV written from
    ``instance``, after asserting that it matches the reference run on the same target, seeds and stride.

    Asserts the same recorded steps and stop in every trial, errors equal at T >= 2 and within
    SINGLE_TRIAL_BOUND at T = 1, and, for a pairing, the error reference beta* within 1e-14 (relative, in
    norm) of ``reference.product_solution``, which forms U V.
    """
    system = load_instance(instance)
    target = system
    if method not in PAIRINGS:
        target = SingleSystem(DenseMatrix(system.U.data @ system.V.data), system.y, system.scenario)
    star = oracle_solution(target)
    if method in PAIRINGS:
        product = reference.product_solution(system.U, system.V, system.y)
        assert np.linalg.norm(star - product) <= 1e-14 * np.linalg.norm(product)
    want = reference_records(method, target, budget, seed, trials, stride, star, tolerance)
    got = [{} for _ in range(trials)]
    for line in trajectory.decode().splitlines()[1:]:
        trial, step, error, _ = line.split(",")
        got[int(trial)][int(step)] = float(error)
    assert [sorted(g) for g in got] == [sorted(w) for w in want]  # the same records, so the same stop
    deviation = max(abs(g[t] - w[t]) for g, w in zip(got, want) for t in w) / (1.0 + float(star @ star))
    if trials > 1:
        assert got == want
    assert deviation <= SINGLE_TRIAL_BOUND
    return deviation


@pytest.mark.parametrize("method", sorted(SOLVE_GOLDEN))
def test_solve_golden_sibling(method, tmp_path):
    """The SOLVE_GOLDEN solve of ``method``, whose summary and manifest SOLVE_GOLDEN_SIDE pins, records at T = 4
    what the reference records, bit for bit."""
    write_gaussian_instance(tmp_path / "instance")
    outputs = solve_outputs(method, tmp_path / "instance", tmp_path / "traj.csv", "--budget", "300", "--stride", "1")
    assert reference_deviation(method, tmp_path / "instance", outputs[0], trials=4, budget=300, stride=1) == 0.0


@pytest.mark.parametrize("method", sorted(TOLERANCE_GOLDEN))
def test_tolerance_golden_sibling(method, tmp_path):
    """The TOLERANCE_GOLDEN solve of ``method`` stops where the reference stops and records what it records,
    bit for bit."""
    tolerance = TOLERANCE_GOLDEN[method][0]
    gen = ["gen", "--scenario", "S1", "--m", "60", "--n", "40", "--k", "20", "--seed", "0"]
    assert main(gen + ["--out-dir", str(tmp_path / "instance")]) == 0
    options = ("--budget", "3000", "--stride", "7", "--tolerance", tolerance)
    outputs = solve_outputs(method, tmp_path / "instance", tmp_path / "traj.csv", *options)
    instance = tmp_path / "instance"
    assert reference_deviation(method, instance, outputs[0], trials=4, budget=3000, stride=7, tolerance=float(tolerance)) == 0.0


@pytest.mark.parametrize("scenario, method", sorted(SINGLE_TRIAL_GOLDEN))
def test_single_trial_golden_sibling(scenario, method, desk_instances, tmp_path):
    """The SINGLE_TRIAL_GOLDEN solve records what the reference records, within SINGLE_TRIAL_BOUND."""
    out = tmp_path / "traj.csv"
    args = ["solve", "--method", method, "--dir", str(desk_instances[scenario]), "--trials", "1", "--seed", "5"]
    assert main(args + ["--budget", "1500", "--stride", "50", "--out", str(out)]) == 0
    reference_deviation(method, desk_instances[scenario], out.read_bytes(), trials=1, budget=1500, stride=50)


# One process per BLAS thread count runs these solves through ``kaczfact.cli.main``, as BLAS reads its
# thread count once, when numpy loads.
SOLVES_IN_ONE_PROCESS = "import json, sys\nfrom kaczfact.cli import main\nsys.exit(max(main(a) for a in json.loads(sys.argv[1])))"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_single_trial_bytes_do_not_depend_on_blas_threads(tmp_path):
    """``kaczfact solve --trials 1 --budget 4000`` on the full S1 and S3b instances writes the same
    trajectory and summary bytes at OPENBLAS_NUM_THREADS=1 and =2, and ``kaczfact gen`` of each
    scenario at its full preset the same ``y.vec``."""
    solves = {}
    for scenario in ("S1", "S3b"):
        instance = tmp_path / scenario
        assert main(["gen", "--scenario", scenario, "--seed", "0", "--out-dir", str(instance)]) == 0
        for method in ("rk-rk", "rek-rk", "rgs-rgs", "rek"):
            args = ["solve", "--method", method, "--dir", str(instance), "--trials", "1", "--budget", "4000"]
            solves[f"{scenario}-{method}"] = args + ["--seed", "3"]
    src = str(Path(kaczfact.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        gens = [["gen", "--scenario", scenario, "--seed", "0", "--out-dir", str(out / scenario)] for scenario in SCENARIOS]
        calls = gens + [args + ["--out", str(out / f"{case}.csv")] for case, args in solves.items()]
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", SOLVES_IN_ONE_PROCESS, json.dumps(calls)], env=env, timeout=600)
        assert proc.returncode == 0
        outputs.append({case: [(out / f"{case}{tail}").read_bytes() for tail in (".csv", "_summary.csv")] for case in solves})
        outputs[-1].update({scenario: [(out / scenario / "y.vec").read_bytes()] for scenario in SCENARIOS})
    assert [case for case in outputs[0] if outputs[0][case] != outputs[1][case]] == []
