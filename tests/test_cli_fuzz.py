"""Random configs and flags through cli.main. Every run ends in a documented
exit code, a config error (exit 2) leaves the filesystem as it was (no
output file, no --out directory) and names a key of the input, every JSON
the run writes is strict (no NaN or Infinity), and no RuntimeWarning
escapes.
The draws mix random values with the float extremes, where overflow,
underflow and NaN start. The runs are derandomized, so a failure
reproduces; a config that failed once stays as an explicit example."""

import contextlib
import io
import json
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracfite.cli import main
from fracfite.verify import Scenario, SweepSpec

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-150, -1e-150, 1e300, -1e300,
            1.7e308, -1.7e308, math.inf, -math.inf, math.nan)
OUTPUTS = ("summary.json", "trace.csv", "verify.json", "bound.json", "audit.json")

# The history's row 0 overflowed before the march's overflow guard: scale
# times P = 1e300 on a grid of length 1e100. Its length-1 twin solves.
ROW0 = {"sweep": {"alphas": [0.75], "p_infs": [1e300], "lengths": [1e100],
                  "directions": 3, "n": 16}}
ROW0_SHORT = {"sweep": {**ROW0["sweep"], "lengths": [1.0]}}

# The float next to 1/2, where p* rounded to 1.0: exit 2 named p, which no
# config has and no bound flag set gave.
EDGE = 0.5000000000000001
EDGE_SCENARIO = {"alpha": EDGE, "a": 0.0, "c": 10.0, "P": {"const": 1.0}, "n": 64}
EDGE_SWEEP = {"sweep": {"alphas": [EDGE], "p_infs": [1.0], "lengths": [10.0],
                        "directions": 1, "n": 16}}

# Poly P at the edges of range_on's stationary points: trailing zero
# coefficients (solved), a derivative that overflows and a companion
# matrix that overflows (config errors naming P).
POLY_TRAILING = {"alpha": 0.75, "a": 0.0, "c": 1.2, "f_a": 0.0, "g_a": 1.0, "n": 32,
                 "P": {"poly": [1.0, 1.0, 0.0, -1.0, 0.0, 0.0]}}
POLY_STEEP = {"alpha": 0.75, "a": 0.0, "c": 1.0, "n": 32, "P": {"poly": [0.0, 0.0, 1e308]}}
POLY_COMPANION = {"alpha": 0.75, "a": 0.0, "c": 2.0, "n": 32,
                  "P": {"poly": [1.0, 2.0, -1.0, 1e-320]}}

# What an exit 2 may name: a key of either config schema or an option of
# solve/verify; for audit, any of its flags (a default may be at fault).
CONFIG_FIELDS = {f.metadata["key"] for schema in (Scenario, SweepSpec)
                 for f in fields(schema) if "key" in f.metadata} | {
                     "config", "sweep", "out", "workers"}
AUDIT_FIELDS = {"alpha", "p", "trials", "seed", "out"}

FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def mostly(common, rare=st.sampled_from(EXTREMES)):
    """A draw of common, or about one time in fifteen of rare (an extreme)."""
    return st.integers(0, 14).flatmap(lambda k: common if k else rare)


def reals(lo=-10.0, hi=10.0):
    """A random value in [lo, hi], or an extreme."""
    return mostly(st.floats(lo, hi))


alphas = mostly(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
nonnegative = reals(0.0, 10.0)
exponents = mostly(st.floats(1.0, 3.0, exclude_min=True))  # Hoelder p
sizes = mostly(st.integers(2, 48), st.sampled_from((-1, 0, 1, *EXTREMES)))  # n


@st.composite
def tables(draw):
    """Increasing knots, one of them an extreme half of the time."""
    knots = sorted(draw(st.lists(st.floats(-1.0, 20.0), min_size=2, max_size=5,
                                 unique=True)))
    if draw(st.booleans()):
        knots[draw(st.integers(0, len(knots) - 1))] = draw(st.sampled_from(EXTREMES))
    return {"table": [[t, draw(nonnegative)] for t in knots]}


coefficients = st.one_of(
    nonnegative.map(lambda x: {"const": x}),
    st.lists(reals(-1.0, 10.0), min_size=1, max_size=4).map(lambda c: {"poly": c}),
    tables())

scenarios = st.fixed_dictionaries(
    {"alpha": alphas, "a": reals(-1.0, 1.0), "c": reals(0.0, 20.0),
     "P": coefficients, "n": sizes},
    optional={"b": reals(0.0, 1.0), "f_a": reals(), "g_a": reals(),
              "grading": reals(1.0, 4.0), "tol": reals(0.0, 1.0)})

sweeps = st.fixed_dictionaries(
    {"alphas": st.lists(alphas, min_size=1, max_size=2),
     "p_infs": st.lists(nonnegative, min_size=1, max_size=2),
     "lengths": st.lists(reals(0.0, 20.0), min_size=1, max_size=2),
     "directions": mostly(st.integers(1, 4)),
     "n": sizes},
    optional={"seed": st.integers(-1, 2**64), "a": reals(-1.0, 1.0),
              "b_fraction": reals(0.0, 1.0), "grading": reals(1.0, 4.0),
              "random_directions": st.booleans()}).map(lambda s: {"sweep": s})

# --out: mostly none or a new directory, else empty, an existing file or a
# name too long for the filesystem
outs = mostly(st.sampled_from([None, "new"]), st.sampled_from(["", "taken", "x" * 300]))


def strict(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def run(argv, out, named):
    """cli.main on argv plus --out, in a fresh directory; checks the exit code,
    that an exit 2 names a field in `named` and leaves the directory as it
    was, and the files, and returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "taken").touch()
        if out is not None:
            argv = [*argv, "--out", out and str(root / out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3, 4), code
        written = [p for p in root.rglob("*") if p.name in OUTPUTS]
        if code == 2:  # nothing made: the directory holds only "taken"
            made = sorted(str(p.relative_to(root)) for p in root.rglob("*"))
            assert made == ["taken"], made
            field = re.match(r"error: (\w+): ", stderr.getvalue())
            assert field and field[1] in named, stderr.getvalue()
        for path in written:
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=strict)
        if code == 0:  # each subcommand prints one JSON record
            json.loads(stdout.getvalue() or "{}", parse_constant=strict)
        return code


@settings(FUZZ, max_examples=300)
@given(st.one_of(st.tuples(st.just("solve"), scenarios),
                 st.tuples(st.just("verify"), st.one_of(scenarios, sweeps))),
       outs.filter(lambda out: out is not None))  # solve and verify default to ./out
@example(("verify", ROW0), "new")
@example(("verify", ROW0_SHORT), "new")
@example(("verify", EDGE_SCENARIO), "new")
@example(("verify", EDGE_SWEEP), "new")
@example(("solve", EDGE_SCENARIO), "new")
@example(("verify", POLY_TRAILING), "new")
@example(("verify", POLY_STEEP), "new")
@example(("verify", POLY_COMPANION), "new")
def test_config(run_of, out):
    command, config = run_of
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        fh.write(json.dumps(config))
        fh.flush()
        run([command, "--config", fh.name], out, CONFIG_FIELDS)


def flag(name, value):
    return f"--{name}={value!r}"  # "=": argparse reads a value like -1e300 as an option


@FUZZ
@given(st.fixed_dictionaries({"alpha": alphas, "m": nonnegative},
                             optional={"p": exponents}),
       outs)
@example({"alpha": 0.99999, "m": 2.225073858507203e-309}, None)  # D(L*) overflowed
@example({"alpha": 0.99999, "m": 2.225073858507203e-309}, "new")
@example({"alpha": EDGE, "m": 1.0}, None)
@example({"alpha": 0.75, "m": -1.0}, "new")  # --out was made before m was checked
@example({"alpha": 0.75, "m": 1.0}, "x" * 300)  # exists() raised: a traceback, exit 1
def test_bound_flags(flags, out):
    named = {*flags, "out"} if out is not None else set(flags)  # the flags given
    assert run(["bound", *(flag(k, v) for k, v in flags.items())], out, named) in (0, 2, 4)


@FUZZ
@given(st.fixed_dictionaries({"trials": st.integers(-1, 50)},
                             optional={"alpha": alphas, "p": exponents,
                                       "seed": st.integers(-1, 2**64)}),
       outs)
@example({"trials": 5, "alpha": 1.0}, "new")  # --out was made before any flag was read
def test_audit_flags(flags, out):
    assert run(["audit", *(flag(k, v) for k, v in flags.items())], out,
               AUDIT_FIELDS) in (0, 2, 4)


@pytest.mark.parametrize("config,verdict", [(ROW0, "SOLVER_FAILED"),
                                            (ROW0_SHORT, "BOUND_HOLDS")])
def test_row0_overflow_fails_its_cell(tmp_path, config, verdict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert [s["verdict"] for s in report["scenarios"]] == [verdict] * 3
