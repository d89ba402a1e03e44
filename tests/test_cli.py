"""Command-line interface: exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracfite
from fracfite.cli import main

SOLVE_CONFIG = {
    "alpha": 0.75, "a": 0.0, "b": 0.01, "c": 1.0,
    "P": {"const": 1.0}, "f_a": 0.0, "g_a": 1.0,
    "n": 128, "grading": 2.0,
}

# A valid config whose solve overflows double precision.
OVERFLOW_CONFIG = {"alpha": 0.9, "a": 0.0, "c": 1e8, "P": {"const": 1e300},
                   "n": 64}

SWEEP_CONFIG = {
    "sweep": {
        "alphas": [0.75], "p_infs": [1.0], "lengths": [0.5, 3.0],
        "directions": 4, "seed": 42, "n": 96,
    }
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestSolve:
    def test_writes_trace_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,w_f,f,w_g,g"
        assert len(lines) == 1 + SOLVE_CONFIG["n"] + 1  # header + n+1 rows
        first = lines[1].split(",")
        assert first[2] == "NA" and first[4] == "NA"  # raw f, g singular at a
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["config"]["alpha"] == 0.75
        assert summary["residual"] < 1e-8

    def test_invalid_interval_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SOLVE_CONFIG, "a": 2.0})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'a'" in capsys.readouterr().err

    def test_missing_field_rejected(self, tmp_path, capsys):
        bad = {k: v for k, v in SOLVE_CONFIG.items() if k != "alpha"}
        cfg = write_config(tmp_path, bad)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_unreachable_tolerance_flagged(self, tmp_path):
        cfg = write_config(tmp_path, {**SOLVE_CONFIG, "c": 10.0, "max_iter": 3,
                                      "scheme": "picard", "P": {"const": 4.0}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        assert not (out / "trace.csv").exists()  # no trace of an unsolved run

    def test_overflowing_solve_is_a_solver_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, OVERFLOW_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert "solver failure" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"config", "converged", "detail"}
        assert summary["converged"] is False
        assert not (out / "trace.csv").exists()

    def test_overflowing_solve_prints_no_warnings(self, tmp_path):
        cfg = write_config(tmp_path, {**OVERFLOW_CONFIG, "f_a": 0.0, "g_a": 1.0})
        src = str(Path(fracfite.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "fracfite.cli", "solve", "--config", cfg,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 3
        assert ("solver failure: marching solve produced non-finite samples"
                in proc.stderr)
        assert "RuntimeWarning" not in proc.stderr

    def test_json_trace_format(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        rows = json.loads((out / "trace.json").read_text())
        assert len(rows) == SOLVE_CONFIG["n"] + 1
        assert rows[0]["f"] is None

    def test_relax_osc_config(self, tmp_path):
        cfg = write_config(tmp_path, {**SOLVE_CONFIG, "V": {"const": 1.0},
                                      "f_a": 1.0, "g_a": 0.0})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestBound:
    def test_optimized_record(self, capsys):
        assert main(["bound", "--alpha", "0.75", "--m", "1.0"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["rhs"] == pytest.approx(0.16669432161567304, rel=1e-10)
        assert rec["min_length"] == pytest.approx(0.0917404940592728, abs=1e-6)
        assert rec["p"] == pytest.approx(4.0 / 3.0, abs=1e-4)

    def test_fixed_p_record(self, capsys):
        assert main(["bound", "--alpha", "0.75", "--m", "1.0", "--p", "1.5"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["min_length"] == pytest.approx(0.06805831757494999, abs=1e-6)

    def test_alpha_out_of_range(self, capsys):
        assert main(["bound", "--alpha", "0.4", "--m", "1.0"]) == 2

    def test_inadmissible_p(self, capsys):
        assert main(["bound", "--alpha", "0.75", "--m", "1.0", "--p", "2.5"]) == 2


class TestVerify:
    def test_sweep_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        agg = json.loads((out / "verify.json").read_text())
        assert agg["counts"]["COUNTEREXAMPLE"] == 0
        assert len(agg["scenarios"]) == 8
        assert agg["spec"]["seed"] == 42

    def test_empty_sweep(self, tmp_path):
        # a sweep that checks nothing is a config error, not a clean pass
        cfg = write_config(tmp_path, {"sweep": {"alphas": [], "p_infs": [],
                                                "lengths": []}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "verify.json").exists()

    def test_corrupted_rhs_fails(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--rhs-scale", "1000.0"]) == 4
        agg = json.loads((out / "verify.json").read_text())
        assert agg["counts"]["COUNTEREXAMPLE"] > 0
        assert agg["counterexamples"]

    def test_single_scenario_config(self, tmp_path):
        cfg = write_config(tmp_path, {**SOLVE_CONFIG, "c": 10.0, "n": 256})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        agg = json.loads((out / "verify.json").read_text())
        assert agg["scenarios"][0]["verdict"] == "BOUND_HOLDS"

    def test_overflowing_scenario_is_solver_failed(self, tmp_path):
        cfg = write_config(tmp_path, OVERFLOW_CONFIG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        agg = json.loads((out / "verify.json").read_text())
        assert agg["scenarios"][0]["verdict"] == "SOLVER_FAILED"

    def test_determinism_including_parallel(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        outs = [tmp_path / f"out{k}" for k in range(3)]
        for out, workers in zip(outs, ("1", "1", "2")):
            assert main(["verify", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == 0
        blobs = [(o / "verify.json").read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]


# Each reproduced a traceback (exit 1) from `solve`, a SOLVER_FAILED verdict
# with exit 0 from `verify`, or a silent fallback to marching (max_iter 0).
# "auto" is the retired Picard-then-marching scheme. The V table covers
# [0, 0.5] of [0, 1] and was clamped silently.
BAD_SCENARIO_FIELDS = [("n", 1), ("tol", -1.0), ("scheme", "bogus"),
                       ("scheme", "auto"), ("grading", 0.5), ("max_iter", 0),
                       ("c", math.inf), ("f_a", math.nan), ("g_a", math.inf),
                       ("P", {"const": math.nan}), ("P", {"const": math.inf}),
                       ("V", {"table": [[0.0, 1.0], [0.5, 2.0]]})]
# Sweep configs carry no scheme, c, f_a, g_a, P or V field. A non-numeric
# list entry gave a traceback (exit 1); an empty list or no directions wrote
# a verify.json with zero scenarios and exited 0; a non-finite P gave
# SOLVER_FAILED verdicts and exit 0.
BAD_SWEEP_FIELDS = [fv for fv in BAD_SCENARIO_FIELDS
                    if fv[0] not in ("scheme", "c", "f_a", "g_a", "P", "V")] \
    + [("alphas", ["x"]), ("alphas", []), ("p_infs", []), ("lengths", []),
       ("directions", 0), ("p_infs", [math.nan]), ("p_infs", [math.inf]),
       ("b_fraction", math.nan), ("b_fraction", 0.0), ("b_fraction", 1.5)]


def names_field(err: str, field: str) -> bool:
    """Scenario validation says `field: ...`, ConfigError says
    `config field 'field': ...`."""
    return f"{field}:" in err or f"config field '{field}':" in err


class TestInvalidScenarioConfig:
    @pytest.mark.parametrize("field,value", BAD_SCENARIO_FIELDS)
    def test_solve_rejects(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, {**SOLVE_CONFIG, field: value})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("field,value", BAD_SCENARIO_FIELDS)
    def test_verify_single_rejects(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, {**SOLVE_CONFIG, field: value})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not (out / "verify.json").exists()

    @pytest.mark.parametrize("field,value", BAD_SWEEP_FIELDS)
    def test_verify_sweep_rejects(self, tmp_path, capsys, field, value):
        sweep = {**SWEEP_CONFIG["sweep"], field: value}
        cfg = write_config(tmp_path, {"sweep": sweep})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert names_field(capsys.readouterr().err, field)
        assert not (out / "verify.json").exists()


class TestAudit:
    def test_small_audit_ok(self, capsys):
        assert main(["audit", "--alpha", "0.75", "--p", "1.5",
                     "--trials", "20", "--seed", "42"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert all(v == 20 for v in rec["passes"].values())

    def test_zero_trials(self, capsys):
        assert main(["audit", "--trials", "0"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert all(v == 0 for v in rec["passes"].values())

    def test_inadmissible_p(self):
        assert main(["audit", "--alpha", "0.75", "--p", "2.5",
                     "--trials", "5"]) == 2


class TestZeros:
    def test_zeros_of_solution_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SOLVE_CONFIG, "c": 10.0, "n": 512})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["zeros", "--trace", str(out / "trace.csv"),
                     "--column", "f", "--b", "0.01", "--c", "10.0"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["count"] >= 1
        assert rec["zeros"] == sorted(rec["zeros"])

    def test_missing_trace(self):
        assert main(["zeros", "--trace", "/nonexistent/trace.csv"]) == 2


class TestImports:
    def test_cli_import_leaves_mpmath_unloaded(self):
        # mpmath is a test-only dependency (tests/oracles.py)
        src = str(Path(fracfite.__file__).resolve().parents[1])
        code = "import sys, fracfite.cli; assert 'mpmath' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestDeterminism:
    def test_solve_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        s1 = (out1 / "summary.json").read_bytes()
        s2 = (out2 / "summary.json").read_bytes()
        assert s1 == s2
