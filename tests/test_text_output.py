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
shows here.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczfact.bench import Trajectory, bound_variant_for, emit_csv, emit_summary_csv
from kaczfact.cli import main
from kaczfact.dense import DenseMatrix, save_matrix, save_vector
from kaczfact.interlaced import BoundInputs, FactoredSystem, expected_error_bound

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
    values = data.draw(st.lists(finite_float, min_size=rows * cols, max_size=rows * cols))
    with np.errstate(over="ignore"):
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
    "rk-rk": "837aeecc0366a92d20fb11c36e40ba775cbec1ad9a31fa2b641fd3a6caa49b16",
    "rek-rk": "d21919d150c7d7436c12cfb5e83ea699e63aa156423e85a0a27cca1ee0154621",
    "rek-rek": "74a794532fadf226f4c2050049beffe0444fd0a8e0aa73ff5f63f7aa8f42f8d7",
    "rgs-rgs": "57d5e8627a6a2b062bfe5ff3f138abd0e99f0516159cd7f5995d8468d7efcc6f",
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
        "9be76ce50f49e37163f03b652ba195e56c0471012a26eb5ab9d17106a39359b2",
        "feb991eb604a21e15f70eaacadef4ef803ac05b260b496cd1c89fcd64c3a1956",
    ),
    "rek-rk": (
        "4ee2392e01d3099c3c84cb1a2c90f0354ba00d51beae0acf4226fafbf1bdd716",
        "be2c2f420c60e46d76947223f3164cd83ac433f5a19176a6c1a6c3f33f5cfcfe",
    ),
    "rek-rek": (
        "efb5f5505227df45ab30fda8c50a8c439a7829a589b6755667ca5e317993b263",
        "cb07cb19aa2d0a8963839d59867266d4897891c3c1a4aa5a8fdca3964e89ca0b",
    ),
    "rgs-rgs": (
        "a923c681c98460b52d50a609f14a7f210cacb02f284d978bc34716ef196297af",
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
        "cad6ef8f05fa3b95bd6ce7f86b52c7bb4dfe4c1af9cb0530b5a7457f2d507919",
        "1bd04ee57f311b43a1319012f4b4ce89185fdd3fe8a16751ceb2d30e3f5207ea",
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
# desk instances, seed 0: 1500 steps recorded every 50, so records fall inside the T = 1 path's 32-step
# blocks and read snapshots rewound from their ends.  The Gram entries come from tables on every side
# but S1's U rows (60 > 2 x 20), where they are computed.
SINGLE_TRIAL_GOLDEN = {
    ("S1", "rk-rk"): "5f0531b395162fd94f0f3c6b8e5dbcbc1b8922f0efcdb8c6918537a7109e989a",
    ("S1", "rek-rk"): "4a72958c290b877848d6b7fa9bd1b91c4e18f0f7a7a51d936247098c084902f5",
    ("S1", "rek-rek"): "289fc243ebca2232ae45a1f112a751208a5917ba1027ce066afed11486263102",
    ("S1", "rgs-rgs"): "b0c9a69a90a153f54ee9283d8d609d8f8453e426db6d6eb3c0b38b089f8a5c71",
    ("S1", "rk"): "93079d9cb1ec5117dc72b094cf3e4606b19b5ce306f31e81a05381027bfd7031",
    ("S1", "rek"): "21293cce544d50af0d044b221bfc537e0d56c39b020d2aa13d6583091cc4786b",
    ("S1", "rgs"): "a6773a249ab51293098b3e50a8ced2e4fe392cc812dcfba6c86997b55e020c1a",
    ("S1", "regs"): "0f613f616df131928ab8585865d717944cb01644ef76cb8532e72a8f96214330",
    ("S2", "rk-rk"): "8eb271146a7f69b9ddac75e84419dab07b132f6cdab3983178ce3fb63a962b48",
    ("S2", "rek-rk"): "c01979b802378f730bb96bc802bb22434b21977603cee78d377b535570b14d72",
    ("S2", "rek-rek"): "fb4d07d55f19d4033b048306d4894fa620f358f90caa0afc9a2647224a9cd885",
    ("S2", "rgs-rgs"): "27cd1fde6e242463a5f3fc5d4418b5746a3a10ca041b04ca772cd86ea22426b0",
    ("S2", "rk"): "90bc37809e4540e439df0df363020e293629dce269e3d45442193a71d9d4a93e",
    ("S2", "rek"): "c406b2678342ef4de110f481f7201054be968ca6d88de07c721b04d8ae87c15a",
    ("S2", "rgs"): "925b22a64ec926282517c7cff81b5eee9c0f0ba1a0c0bb6a251355bb4ddc5373",
    ("S2", "regs"): "4f0c28d79e4e9a1418328baa05954676581aa7648a0af51b2950f4ed88ca049b",
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
