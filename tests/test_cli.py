"""End-to-end command-line interface checks."""

import json
from pathlib import Path

import pytest

import kaczfact
from kaczfact import oracle
from kaczfact.bench import DEFAULT_BUDGET, DEFAULT_TRIALS
from kaczfact.cli import _build_parser, main
from kaczfact.interlaced import bound_inputs, expected_error_bound
from kaczfact.systems import load_instance

from conftest import small_factored


def gen_args(tmp_path, scenario="S3b", m=24, n=15, k=8, seed=3):
    out = tmp_path / "inst"
    return [
        "gen", "--scenario", scenario,
        "--m", str(m), "--n", str(n), "--k", str(k),
        "--seed", str(seed), "--out-dir", str(out),
    ], out


class TestGen:
    def test_writes_instance_files(self, tmp_path, capsys):
        args, out = gen_args(tmp_path)
        assert main(args) == 0
        for name in ("U.mat", "V.mat", "y.vec", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "S3b"
        assert manifest["consistent"] is False
        assert "wrote S3b instance" in capsys.readouterr().out

    def test_defaults_to_full_preset_dimensions(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert main(["gen", "--scenario", "S1", "--out-dir", str(out), "--seed", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["m"], manifest["n"], manifest["k"]) == (200, 150, 100)

    def test_invalid_dimensions_exit_2(self, tmp_path, capsys):
        args, _ = gen_args(tmp_path, scenario="S2", m=24, n=15, k=8)
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "--scenario", "S9", "--out-dir", str(tmp_path)])


class TestSolve:
    def run_solve(self, tmp_path, method, extra=()):
        args, out_dir = gen_args(tmp_path)
        if not (out_dir / "manifest.json").exists():
            assert main(args) == 0
        csv = tmp_path / f"{method}.csv"
        code = main([
            "solve", "--method", method, "--dir", str(out_dir),
            "--trials", "3", "--budget", "60", "--stride", "20",
            "--seed", "5", "--out", str(csv), *extra,
        ])
        return code, csv

    def test_interlaced_run_writes_all_outputs(self, tmp_path, capsys):
        code, csv = self.run_solve(tmp_path, "rek-rk")
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "trial,iter,error_sq,flops"
        assert len(lines) == 1 + 3 * 3  # trials x recorded iterations
        summary = csv.with_name("rek-rk_summary.csv")
        assert summary.read_text().splitlines()[0] == "iter,mean_error_sq,std_error_sq,bound"
        manifest = csv.with_name("rek-rk_manifest.jsonl")
        entry = json.loads(manifest.read_text().splitlines()[0])
        assert entry["method"] == "rek-rk"
        assert entry["scenario"] == "S3b"
        assert entry["budget"] == 60
        out = capsys.readouterr().out
        assert "final mean error_sq" in out

    def test_summary_bound_column_filled_for_covered_pairing(self, tmp_path, capsys):
        code, csv = self.run_solve(tmp_path, "rek-rk")
        assert code == 0
        rows = csv.with_name("rek-rk_summary.csv").read_text().splitlines()[1:]
        inputs = bound_inputs(load_instance(tmp_path / "inst"))
        for row in rows:
            t_str, _, _, bound_str = row.split(",")
            assert float(bound_str) == expected_error_bound(inputs, "b", int(t_str))

    def test_baseline_method_runs_on_materialized_product(self, tmp_path, capsys):
        code, csv = self.run_solve(tmp_path, "regs")
        assert code == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 1 + 3 * 3
        # Baselines carry no factored bound: the column stays empty.
        rows = csv.with_name("regs_summary.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",") for row in rows)
        entry = json.loads(csv.with_name("regs_manifest.jsonl").read_text())
        assert entry["scenario"] == "S3b"
        assert (entry["m"], entry["n"]) == (24, 15)

    def test_bound_inputs_computed_once_per_factored_solve(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(system):
            calls.append(system)
            return bound_inputs(system)

        monkeypatch.setattr("kaczfact.cli.bound_inputs", counted)
        monkeypatch.setattr("kaczfact.bench.bound_inputs", counted)
        code, csv = self.run_solve(tmp_path, "rek-rk")  # S3b: bound column and manifest
        assert code == 0
        assert len(calls) == 1
        entry = json.loads(csv.with_name("rek-rk_manifest.jsonl").read_text())
        assert entry["alpha_u"] == bound_inputs(load_instance(tmp_path / "inst")).alpha_u
        calls.clear()
        assert self.run_solve(tmp_path, "rek")[0] == 0
        assert calls == []

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        code, first = self.run_solve(tmp_path, "rk-rk")
        assert code == 0
        first_bytes = first.read_bytes()
        code, second = self.run_solve(tmp_path, "rk-rk")
        assert code == 0
        assert second.read_bytes() == first_bytes

    def test_missing_instance_dir_exits_2(self, tmp_path, capsys):
        code = main([
            "solve", "--method", "rk-rk", "--dir", str(tmp_path / "nope"),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "-1e-3"])
    def test_invalid_tolerance_exits_2(self, tmp_path, capsys, tolerance):
        code, csv = self.run_solve(tmp_path, "rk-rk", extra=(f"--tolerance={tolerance}",))
        assert code == 2
        assert "error: tolerance" in capsys.readouterr().err
        assert not csv.exists()

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve", "--method", "cg", "--dir", str(tmp_path), "--out", "x.csv"])


@pytest.mark.parametrize("command", ["solve", "bound"])
@pytest.mark.parametrize("manifest", ["[]", '{"scenario": 5}'], ids=["list", "number-scenario"])
def test_malformed_instance_manifest_exits_2(tmp_path, capsys, manifest, command):
    """An instance manifest that is not a JSON object, or whose scenario is not a string, is an error, not a traceback."""
    args, out_dir = gen_args(tmp_path)
    assert main(args) == 0
    (out_dir / "manifest.json").write_text(manifest)
    rest = {"solve": ["--method", "rk-rk", "--out", str(tmp_path / "x.csv")], "bound": ["--variant", "a", "--tmax", "3"]}
    assert main([command, "--dir", str(out_dir), *rest[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "manifest.json" in err


class TestBound:
    def test_curve_matches_library_values(self, tmp_path, capsys):
        args, out_dir = gen_args(tmp_path)
        assert main(args) == 0
        capsys.readouterr()
        assert main(["bound", "--dir", str(out_dir), "--variant", "b", "--tmax", "10", "--stride", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = [line for line in lines if line.startswith("#")]
        assert len(header) == 6
        table = lines[len(header):]
        assert table[0] == "t,bound"
        inputs = bound_inputs(load_instance(out_dir))
        ts = [int(row.split(",")[0]) for row in table[1:]]
        assert ts == [0, 3, 6, 9, 10]
        for row in table[1:]:
            t_str, value = row.split(",")
            assert float(value) == expected_error_bound(inputs, "b", int(t_str))

    def test_write_to_file(self, tmp_path, capsys):
        args, out_dir = gen_args(tmp_path)
        assert main(args) == 0
        target = tmp_path / "curve.csv"
        assert main(["bound", "--dir", str(out_dir), "--variant", "a", "--tmax", "5", "--out", str(target)]) == 0
        assert target.read_text().splitlines()[6] == "t,bound"

    def test_negative_tmax_exits_2(self, tmp_path, capsys):
        args, out_dir = gen_args(tmp_path)
        assert main(args) == 0
        assert main(["bound", "--dir", str(out_dir), "--variant", "a", "--tmax", "-1"]) == 2

    def test_bad_variant_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bound", "--dir", str(tmp_path), "--variant", "c", "--tmax", "5"])


class TestOracleSvdCount:
    """SVDs per command, counted at ``kaczfact.oracle.svd``, the name the benchmark tracer wraps.

    ``bound_inputs`` takes one SVD of U and one of V; a pairing's solve adds
    one of R V (U = Q R, min(m, k) x n) for the error reference, and a
    baseline's solve takes one of the assembled matrix.  The count rises if an SVD comes back and drops if
    a call stops going through ``oracle.svd``.
    """

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes = []
        real = oracle.svd

        def counted(A):
            shapes.append(A.data.shape)
            return real(A)

        monkeypatch.setattr(oracle, "svd", counted)
        return shapes

    def test_bound_inputs_takes_one_svd_per_factor(self, svd_shapes):
        sys_, _ = small_factored(9, 4, 6, seed=5)
        bound_inputs(sys_)
        assert svd_shapes == [(9, 4), (4, 6)]

    def test_bound_command(self, tmp_path, capsys, svd_shapes):
        args, out_dir = gen_args(tmp_path)
        assert main(args) == 0
        svd_shapes.clear()
        assert main(["bound", "--dir", str(out_dir), "--variant", "b", "--tmax", "10"]) == 0
        assert svd_shapes == [(24, 8), (8, 15)]

    @pytest.mark.parametrize(
        "method, shapes",
        [(m, [(8, 15), (24, 8), (8, 15)]) for m in ("rk-rk", "rek-rk")] + [(m, [(24, 15)]) for m in ("rk", "rek")],
    )
    def test_solve_command(self, tmp_path, capsys, svd_shapes, method, shapes):
        args, out_dir = gen_args(tmp_path)
        assert main(args) == 0
        svd_shapes.clear()
        solve = ["solve", "--method", method, "--dir", str(out_dir), "--trials", "2", "--budget", "20"]
        assert main([*solve, "--out", str(tmp_path / "run.csv")]) == 0
        assert svd_shapes == shapes


class TestVersion:
    def test_prints_package_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == kaczfact.__version__

    def test_console_script_is_installed(self):
        """The installed script, or ``python -m kaczfact.cli`` without one."""
        import os
        import shutil
        import subprocess
        import sys

        exe = shutil.which("kaczfact")
        env = None
        if exe is None:
            src = str(Path(kaczfact.__file__).resolve().parents[1])
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            cmd = [sys.executable, "-m", "kaczfact.cli", "version"]
        else:
            cmd = [exe, "version"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.strip() == kaczfact.__version__


class TestArgumentParsing:
    def test_no_command_exits_with_usage(self):
        with pytest.raises(SystemExit):
            main([])

    def test_solve_defaults_are_the_bench_defaults(self):
        args = _build_parser().parse_args(["solve", "--method", "rk-rk", "--dir", "inst", "--out", "run.csv"])
        assert (args.trials, args.budget) == (DEFAULT_TRIALS, DEFAULT_BUDGET)
