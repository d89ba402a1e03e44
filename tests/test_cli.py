"""Command-line interface: exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracfite
from fracfite import AuditFailure, bounds, cli, rlops, verify
from fracfite.cli import main

SOLVE_CONFIG = {
    "alpha": 0.75, "a": 0.0, "b": 0.01, "c": 1.0,
    "P": {"const": 1.0}, "f_a": 0.0, "g_a": 1.0,
    "n": 128, "grading": 2.0,
}

# The keys of a verify.json scenario record, without the optional "detail".
SCENARIO_KEYS = {"scenario", "label", "verdict", "residual", "zero_pair", "m",
                 "p_star", "min_length", "lhs", "rhs"}

# A valid config whose solve overflows double precision.
OVERFLOW_CONFIG = {"alpha": 0.9, "a": 0.0, "c": 1e8, "P": {"const": 1e300},
                   "n": 64}

# A valid config whose march stays finite but whose residual overflows.
HUGE_DATA_CONFIG = {"alpha": 0.75, "a": 0, "c": 1, "P": {"const": 1},
                    "f_a": 1e308, "g_a": 1e308, "n": 64}

# A valid config whose first marching block is finite and passes the
# diagonal check, yet is singular to the pivoted solve.
SINGULAR_BLOCK_CONFIG = {"alpha": 0.999999, "a": 1e-150, "c": 0.55,
                         "P": {"poly": [1e308, 0.999, 1e-150, 0.5]},
                         "f_a": -1, "g_a": 0, "n": 64, "grading": 30}

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
        assert set(summary) == {"config", "converged", "residual", "trace"}
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

    def test_overflowing_solve_is_a_solver_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, OVERFLOW_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert "solver failure" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"config", "converged", "detail"}
        assert summary["converged"] is False
        assert not (out / "trace.csv").exists()  # no trace of an unsolved run

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

    def test_non_finite_residual_is_a_solver_failure(self, tmp_path):
        cfg = write_config(tmp_path, HUGE_DATA_CONFIG)
        src = str(Path(fracfite.__file__).resolve().parents[1])
        procs = {cmd: subprocess.run(
            [sys.executable, "-m", "fracfite.cli", cmd, "--config", cfg,
             "--out", str(tmp_path / cmd)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
            for cmd in ("solve", "verify")}
        assert procs["solve"].returncode == 3
        assert "non-finite residual" in procs["solve"].stderr
        summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
        assert summary["converged"] is False
        assert not (tmp_path / "solve" / "trace.csv").exists()
        verdicts = json.loads((tmp_path / "verify" / "verify.json").read_text())
        assert verdicts["scenarios"][0]["verdict"] == "SOLVER_FAILED"
        assert set(verdicts["scenarios"][0]) == SCENARIO_KEYS | {"detail"}
        for proc in procs.values():
            assert "RuntimeWarning" not in proc.stderr
        for path in tmp_path.rglob("*.json"):
            assert "Infinity" not in path.read_text(), path


    def test_singular_block_is_a_solver_failure(self, tmp_path, capsys):
        # it was a LinAlgError traceback, and verify wrote no verify.json
        cfg = write_config(tmp_path, SINGULAR_BLOCK_CONFIG)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")]) == 3
        assert "solver failure: marching step singular" in capsys.readouterr().err
        assert not (tmp_path / "solve" / "trace.csv").exists()
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "verify")]) == 0
        agg = json.loads((tmp_path / "verify" / "verify.json").read_text())
        assert agg["scenarios"][0]["verdict"] == "SOLVER_FAILED"

    def test_overflowing_raw_value_is_written_inf(self, tmp_path):
        # W / (t - a)^gamma overflows next to a = 5e-324; it was a
        # RuntimeWarning, an error in this suite and in the CI's console runs
        cfg = write_config(tmp_path, {"alpha": 0.75, "a": 5e-324, "c": 3.5,
                                      "P": {"poly": [0, 1e-150]}, "f_a": -1e308,
                                      "g_a": 1, "n": 64, "grading": 5})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        second = (out / "trace.csv").read_text().splitlines()[2].split(",")
        assert second[1:3] == ["-1e+308", "-inf"]


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

    # every constant as the chain record printed it before the record type
    # went, to 17 significant digits
    @pytest.mark.parametrize("argv, constants", [
        (["--alpha", "0.75", "--m", "1"],
         {"small_c": 1.1397535284773885, "big_C": 4.5590141139095541,
          "big_D_at_min_length": 1.8940853468987799,
          "big_E_at_min_length": 0.85066001118208379,
          "beta_value": 1.6944261695879572}),
        (["--alpha", "0.75", "--m", "1", "--p", "1.5"],
         {"small_c": 1.2187323031560660, "big_C": 4.8749292126242638,
          "big_D_at_min_length": 2.0330367247196106,
          "big_E_at_min_length": 0.84738687019228243,
          "beta_value": 1.6944261695879572}),
        (["--alpha", "0.6", "--m", "10"],
         {"small_c": 1.7410997337112073, "big_C": 6.9643989348448292,
          "big_D_at_min_length": 0.41490825030467188,
          "big_E_at_min_length": 0.035106124168822771,
          "beta_value": 2.4153442080024723}),
    ])
    def test_constants_record_frozen(self, capsys, argv, constants):
        assert main(["bound", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["constants"] == constants

    def test_alpha_next_to_one_half(self, capsys):
        # the clamped p-range is empty there: a ValueError traceback before;
        # then exit 0 with min_length 0.0, the root being far below the
        # float range
        assert main(["bound", "--alpha", "0.5000001", "--m", "1"]) == 2
        captured = capsys.readouterr()
        assert "m: the minimal length for m=1.0 underflows" in captured.err
        assert captured.out == ""

    def test_alpha_out_of_range(self, capsys):
        assert main(["bound", "--alpha", "0.4", "--m", "1.0"]) == 2

    def test_inadmissible_p(self, capsys):
        assert main(["bound", "--alpha", "0.75", "--m", "1.0", "--p", "2.5"]) == 2

    def test_infinite_m(self, capsys):
        # exited 0 with non-strict `Infinity` in the record and min_length 0.0
        assert main(["bound", "--alpha", "0.75", "--m", "inf"]) == 2
        captured = capsys.readouterr()
        assert "m: must be positive and finite" in captured.err
        assert captured.out == ""

    def test_overflowing_min_length(self, capsys):
        # (rhs/m)^(1/alpha) overflows: an OverflowError traceback before
        assert main(["bound", "--alpha", "0.75", "--m", "1e-300"]) == 2
        assert "m: the minimal length for m=1e-300 overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--alpha", "0.55", "--m", "1e300"],
                                      ["--alpha", "0.75", "--m", "1e300", "--p", "1.5"]])
    def test_underflowing_min_length(self, capsys, argv):
        # the roots, about 1e-1504 and 1e-451, rounded to 0.0: exit 0 with
        # min_length and the constants at it 0.0
        assert main(["bound", *argv]) == 2
        captured = capsys.readouterr()
        assert "m: the minimal length for m=1e+300 underflows" in captured.err
        assert captured.out == ""

    def test_min_length_overflowing_by_division(self, capsys):
        # rhs/m overflowed to inf without an OverflowError: exit 0 with
        # non-strict `Infinity` for min_length and big_D
        assert main(["bound", "--alpha", "0.75", "--m", "1e-320"]) == 2
        captured = capsys.readouterr()
        assert "m: the minimal length for m=1e-320 overflows" in captured.err
        assert captured.out == ""


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

    def test_corrupted_rhs_fails(self, tmp_path, monkeypatch):
        # fault injection: the bound's right side inflated 1e3 times
        monkeypatch.setattr(verify, "fite_rhs", lambda order: bounds.fite_rhs(order) * 1e3)
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 4
        agg = json.loads((out / "verify.json").read_text())
        assert agg["counts"]["COUNTEREXAMPLE"] > 0
        assert agg["counterexamples"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_invalid_workers_rejected(self, tmp_path, capsys, workers):
        # ran serially without a word
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 2
        assert "error: workers:" in capsys.readouterr().err
        assert not (out / "verify.json").exists()

    def test_single_scenario_config(self, tmp_path):
        cfg = write_config(tmp_path, {**SOLVE_CONFIG, "c": 10.0, "n": 256})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        agg = json.loads((out / "verify.json").read_text())
        rep = agg["scenarios"][0]
        assert rep["verdict"] == "BOUND_HOLDS"
        assert set(rep) == SCENARIO_KEYS
        # a single scenario runs as a sweep of one and reports its ratio
        assert agg["counts"]["BOUND_HOLDS"] == 1
        assert agg["min_ratio"] == rep["lhs"] / rep["rhs"]

    # a P spike narrower than the 2049-point sampling of the range: the
    # dip passed validation and gave BOUND_HOLDS, the peak reported m = 1
    @staticmethod
    def _spike_config(value):
        return {"alpha": 0.75, "a": 0, "c": 10, "f_a": 0, "g_a": 1, "n": 256,
                "P": {"table": [[0, 1], [5.001, 1], [5.0015, value],
                                [5.002, 1], [10, 1]]}}

    def test_table_dip_below_zero_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self._spike_config(-1))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert "error: P:" in capsys.readouterr().err
        assert not (out / "verify.json").exists()

    def test_table_peak_sets_m(self, tmp_path):
        cfg = write_config(tmp_path, self._spike_config(50))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        agg = json.loads((out / "verify.json").read_text())
        assert agg["scenarios"][0]["m"] == 50.0

    # best_min_length raised ValueError there (exit 1), in a sweep mid-run
    @pytest.mark.parametrize("config", [
        {**SOLVE_CONFIG, "alpha": 0.5000001, "c": 10.0, "n": 64},
        {"sweep": {**SWEEP_CONFIG["sweep"], "alphas": [0.5000001, 0.75]}},
    ], ids=["scenario", "sweep"])
    def test_alpha_next_to_one_half(self, tmp_path, config):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        agg = json.loads((out / "verify.json").read_text())
        assert agg["counts"]["SOLVER_FAILED"] == 0

    def test_overflowing_scenario_is_solver_failed(self, tmp_path):
        cfg = write_config(tmp_path, OVERFLOW_CONFIG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        agg = json.loads((out / "verify.json").read_text())
        assert agg["scenarios"][0]["verdict"] == "SOLVER_FAILED"
        assert agg["min_ratio"] is None  # no zero pair, no ratio

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
# The tables exited 0: infinite knots or a NaN value were written into the
# reports as non-strict JSON, and a knot gap of 2e308 overflowed, so P was
# interpolated as a constant.
# scheme and max_iter are retired keys, rejected as unknown ("auto" was the
# Picard-then-marching scheme).
BAD_SCENARIO_FIELDS = [("n", 1), ("tol", -1.0), ("scheme", "bogus"),
                       ("scheme", "auto"), ("grading", 0.5), ("max_iter", 0),
                       ("c", math.inf), ("f_a", math.nan), ("g_a", math.inf),
                       ("P", {"const": math.nan}), ("P", {"const": math.inf}),
                       ("P", {"table": [[-math.inf, 1], [math.inf, 1]]}),
                       ("P", {"table": [[-1, math.nan], [0, 1], [10, 1]]}),
                       ("P", {"table": [[-1e308, 1], [1e308, 2]]})]
# Sweep configs carry no scheme, c, f_a, g_a or P field. A non-numeric
# list entry gave a traceback (exit 1); an empty list or no directions wrote
# a verify.json with zero scenarios and exited 0; a non-finite P gave
# SOLVER_FAILED verdicts and exit 0; 1e13 directions died with a numpy
# MemoryError traceback (exit 1).
BAD_SWEEP_FIELDS = [fv for fv in BAD_SCENARIO_FIELDS
                    if fv[0] not in ("scheme", "c", "f_a", "g_a", "P")] \
    + [("alphas", ["x"]), ("alphas", []), ("p_infs", []), ("lengths", []),
       ("directions", 0), ("p_infs", [math.nan]), ("p_infs", [math.inf]),
       ("b_fraction", math.nan), ("b_fraction", 0.0), ("b_fraction", 1.5),
       ("directions", 1e13)]


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


# Each gave a TypeError traceback (exit 1), or exit 0 with a config other
# than the one written: an ignored key, a bool read as a number, the string
# "false" read as true, 2.9 truncated to 2. A sweep's tol and max_iter were
# never used, since sweeps always march. Entries are (key named, config).
MALFORMED_SCENARIOS = [
    ("P", {**SOLVE_CONFIG, "P": {"const": [1]}}),
    ("P", {**SOLVE_CONFIG, "P": {"poly": 5}}),
    ("P", {**SOLVE_CONFIG, "P": {"table": [1, 2]}}),
    ("grade", {**SOLVE_CONFIG, "grade": 3}),
    ("n", {**SOLVE_CONFIG, "n": True}),
    ("f_a", {**SOLVE_CONFIG, "f_a": True}),
    ("n", {**SOLVE_CONFIG, "n": 2.9}),
    ("config", 5),
    ("sweep", {"sweep": 5})]
MALFORMED_SWEEPS = [
    ("direction", {"direction": 16}),
    ("random_directions", {"random_directions": "false"}),
    ("directions", {"directions": 2.9}),
    ("n", {"n": True}),
    ("f_a", {"f_a": True}),
    ("tol", {"tol": 1e-10}),
    ("max_iter", {"max_iter": 5})]


# The bound is proved for D^a(D^a f) + P f = V with V = 0 only, so V is not
# a key: with V = -1000 this window holds a zero pair below the bound's
# length, a COUNTEREXAMPLE that would be no bug.
FORCED_CONFIG = {"alpha": 0.75, "a": 0, "c": 0.01, "P": {"const": 1},
                 "V": {"const": -1000}, "f_a": 0, "g_a": 1, "n": 512}


class TestForcingRejected:
    @pytest.mark.parametrize("command,report", [("solve", "summary.json"),
                                                ("verify", "verify.json")])
    @pytest.mark.parametrize("v", [{"const": -1000}, None], ids=["const", "null"])
    def test_v_is_an_unknown_key(self, tmp_path, capsys, command, report, v):
        cfg = write_config(tmp_path, {**FORCED_CONFIG, "V": v})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "error: V: unknown key" in capsys.readouterr().err
        assert not (out / report).exists()


class TestMalformedConfig:
    """Every malformed config exits 2, names its key and writes no report."""

    @pytest.mark.parametrize("command,report", [("solve", "summary.json"),
                                                ("verify", "verify.json")])
    @pytest.mark.parametrize("field,cfg_obj", MALFORMED_SCENARIOS)
    def test_scenario(self, tmp_path, capsys, command, report, field, cfg_obj):
        cfg = write_config(tmp_path, cfg_obj)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {field}:" in capsys.readouterr().err
        assert not (out / report).exists()

    @pytest.mark.parametrize("field,change", MALFORMED_SWEEPS)
    def test_sweep(self, tmp_path, capsys, field, change):
        cfg = write_config(tmp_path, {"sweep": {**SWEEP_CONFIG["sweep"], **change}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {field}:" in capsys.readouterr().err
        assert not (out / "verify.json").exists()


class TestGridNodesRoundTogether:
    """On [1.3, 2.3] with n = 513 and grading 6, t_1 and t_2 round to a.
    `solve` wrote nan/inf into the trace, printed RuntimeWarnings and
    exited 0; `verify` gave NO_ZERO_PAIR. In a sweep (a = 0), grading 200
    underflows the first nodes to 0."""

    GRID = {**SOLVE_CONFIG, "a": 1.3, "b": 1.31, "c": 2.3, "n": 513, "grading": 6}

    @pytest.mark.parametrize("command,cfg_obj,report", [
        ("solve", GRID, "summary.json"), ("verify", GRID, "verify.json"),
        ("verify", {"sweep": {**SWEEP_CONFIG["sweep"], "grading": 200}}, "verify.json")])
    def test_is_a_config_error(self, tmp_path, capsys, command, cfg_obj, report):
        cfg = write_config(tmp_path, cfg_obj)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "grading: nodes not strictly increasing" in capsys.readouterr().err
        assert not (out / report).exists()


class TestKernelNodesOverflow:
    """The kernel matrix is built on the nodes j^r, and 512^116 overflows;
    n = 512 at grading 116 is otherwise a valid grid. Its cell weights are
    products of two node spacings, so the squares of the nodes must not
    overflow either: at n = 512, grading 60 and 90 warned inside the build
    (at 90 `verify` gave SOLVER_FAILED and exited 0)."""

    @pytest.mark.parametrize("command,cfg_obj,report", [
        ("solve", {**SOLVE_CONFIG, "n": 512, "grading": 116}, "summary.json"),
        ("verify", {**SOLVE_CONFIG, "n": 512, "grading": 116}, "verify.json"),
        ("verify", {"sweep": {**SWEEP_CONFIG["sweep"], "n": 512, "grading": 116}},
         "verify.json"),
        ("solve", {**SOLVE_CONFIG, "n": 512, "grading": 60}, "summary.json"),
        ("verify", {**SOLVE_CONFIG, "n": 512, "grading": 60}, "verify.json"),
        ("solve", {**SOLVE_CONFIG, "n": 512, "grading": 90}, "summary.json"),
        ("verify", {**SOLVE_CONFIG, "n": 512, "grading": 90}, "verify.json")])
    def test_is_a_config_error(self, tmp_path, capsys, command, cfg_obj, report):
        cfg = write_config(tmp_path, cfg_obj)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "grading: the kernel nodes j^r overflow" in capsys.readouterr().err
        assert not (out / report).exists()


class TestIntervalLengthOverflow:
    """c - a overflows for a = -1e308, c = 1e308: without b the error named
    b (its default is a + 0.01 (c - a)), with b = 0 it named the grading
    (build_grid's nodes are a + (c - a) (j/n)^r)."""

    CONFIGS = [{**SOLVE_CONFIG, "a": -1e308, "c": 1e308, "b": None},
               {**SOLVE_CONFIG, "a": -1e308, "c": 1e308, "b": 0}]

    @pytest.mark.parametrize("command,report", [("solve", "summary.json"),
                                                ("verify", "verify.json")])
    @pytest.mark.parametrize("cfg_obj", CONFIGS, ids=["no_b", "b_0"])
    def test_names_c(self, tmp_path, capsys, command, report, cfg_obj):
        cfg = write_config(tmp_path, {k: v for k, v in cfg_obj.items() if v is not None})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "error: c: the length c - a must be finite" in capsys.readouterr().err
        assert not (out / report).exists()


@pytest.mark.parametrize("cfg_obj", [
    {**SOLVE_CONFIG, "n": 512, "grading": 90},
    TestIntervalLengthOverflow.CONFIGS[1]],
    ids=["grading_90", "length"])
def test_config_errors_raise_no_warning(tmp_path, cfg_obj):
    # the CI runs the console script with RuntimeWarnings as errors
    cfg = write_config(tmp_path, cfg_obj)
    src = str(Path(fracfite.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fracfite.cli", "verify", "--config", cfg,
         "--out", str(tmp_path / "out")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "error::RuntimeWarning"})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "verify.json").exists()


class TestSteepWindowStart:
    """A short graded cell with samples near 1e297 put an overflowing slope
    into the interpolant at the window start b: find_zeros saw a false sign
    change and took inf/inf, so verify wrote BOUND_HOLDS with a NaN zero."""

    CONFIGS = [
        {"alpha": 0.55, "a": 0, "c": 1e-12, "P": {"poly": [1, 1e300]},
         "f_a": 1, "g_a": 1e300, "n": 100},
        {"alpha": 0.51, "a": 0, "c": 1e-10, "P": {"poly": [1, 1.7e308]},
         "f_a": 1e-320, "g_a": 1e300, "n": 100},
        {"alpha": 0.99, "a": 1e-300, "c": 2e-300,
         "P": {"table": [[-1, 1.7e308], [1.3333333333333334e-300, 0], [2.01e-300, 1]]},
         "f_a": 1e20, "g_a": -1.7e308, "n": 2, "grading": 7}]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cfg_obj", CONFIGS, ids=["poly", "poly_max", "table"])
    def test_no_zero_pair_in_strict_json(self, tmp_path, cfg_obj):
        cfg = write_config(tmp_path, cfg_obj)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"verify.json holds {name}")

        report = json.loads((out / "verify.json").read_text(), parse_constant=reject)
        [rep] = report["scenarios"]
        assert rep["verdict"] == "NO_ZERO_PAIR"
        assert rep["zero_pair"] is None


class TestOutIsAFile:
    """--out naming an existing file, or a path under one, is a config error
    found before any run (it was a FileExistsError traceback, and verify ran
    its whole sweep first)."""

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("argv,run", [
        (["solve", "--config", "{cfg}"], "solve_batch"),
        (["verify", "--config", "{cfg}"], "sweep"),
        (["bound", "--alpha", "0.75", "--m", "1"], "best_min_length"),
        (["audit", "--trials", "5"], "audit_estimates")],
        ids=["solve", "verify", "bound", "audit"])
    def test_is_a_config_error(self, tmp_path, capsys, monkeypatch, argv, run, under):
        def unreached(*args, **kwargs):
            raise AssertionError(f"{run} ran")

        monkeypatch.setattr(cli, run, unreached)
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if under else taken
        argv = [arg.format(cfg=cfg) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 2
        assert f"error: out: cannot make directory {out}" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"


class TestEmptyOut:
    """An empty --out is a config error before any run (solve and verify
    wrote into the working directory, bound and audit wrote no record)."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--config", "{cfg}"], ["verify", "--config", "{cfg}"],
        ["bound", "--alpha", "0.75", "--m", "1"], ["audit", "--trials", "5"]],
        ids=["solve", "verify", "bound", "audit"])
    def test_is_a_config_error(self, tmp_path, capsys, monkeypatch, argv):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main([*(arg.format(cfg=cfg) for arg in argv), "--out", ""]) == 2
        assert "error: out: must not be empty" in capsys.readouterr().err
        assert not any(cwd.iterdir())


class TestMatrixCap:
    """n is at most 16383; a larger n is a config error before anything is
    built (when the solver held a dense (n+1)^2 kernel matrix, it gave a
    MemoryError traceback or an OOM kill)."""

    @pytest.mark.parametrize("n", [16384, 1_000_000])
    @pytest.mark.parametrize("command,sweep", [("solve", False), ("verify", False),
                                               ("verify", True)])
    @pytest.mark.parametrize("via_flag", [True, False])
    def test_over_cap_is_a_config_error(self, tmp_path, capsys, command, sweep,
                                        via_flag, n):
        extra = [] if not via_flag else ["--n", str(n)]
        cfg_obj = dict(SWEEP_CONFIG["sweep"] if sweep else SOLVE_CONFIG)
        if not via_flag:
            cfg_obj["n"] = n
        cfg = write_config(tmp_path, {"sweep": cfg_obj} if sweep else cfg_obj)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 2
        assert f"n: must be at most 16383, got {n}" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
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

    def test_audit_failure_exits_4(self, monkeypatch, capsys, tmp_path):
        # a violated inequality is a verification failure: exit 4, the
        # failure on stderr, no record written
        def failing(order, p, trials, seed):
            raise AuditFailure("chain_D", seed, 3, "lhs 2 > rhs 1")
        monkeypatch.setattr(cli, "audit_estimates", failing)
        out = tmp_path / "audit"
        assert main(["audit", "--trials", "5", "--out", str(out)]) == 4
        assert "chain_D" in capsys.readouterr().err
        assert not (out / "audit.json").exists()


class TestImports:
    def test_cli_import_leaves_mpmath_unloaded(self):
        # mpmath is a test-only dependency (tests/oracles.py)
        src = str(Path(fracfite.__file__).resolve().parents[1])
        code = "import sys, fracfite.cli; assert 'mpmath' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestDeterminism:
    def test_verify_bytes_do_not_depend_on_a_larger_n_run_first(self, tmp_path):
        # the second n = 128 run reads the leading block of the n = 300 matrix
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        rlops._matrix_cached.cache_clear()
        for name, n in (("fresh", 128), ("larger", 300), ("after", 128)):
            out = tmp_path / name
            assert main(["verify", "--config", cfg, "--n", str(n), "--out", str(out)]) == 0
        assert rlops._matrix_cached.cache_info().misses == 1
        fresh, after = ((tmp_path / k / "verify.json").read_bytes() for k in ("fresh", "after"))
        assert fresh == after

    def test_solve_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        s1 = (out1 / "summary.json").read_bytes()
        s2 = (out2 / "summary.json").read_bytes()
        assert s1 == s2
