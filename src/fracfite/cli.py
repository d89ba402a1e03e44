"""Command-line front end.

Subcommands
    solve    solve one scenario, write a solution trace + summary record
    bound    print the bound constants and minimal interval length
    verify   run one scenario or a sweep, write an aggregate report
    audit    run the randomized inequality audit

Exit codes: 0 ok, 2 config/domain error, 3 solver failure,
4 verification/audit failure, 5 output not written (a file of --out that
cannot be written after the run; the files written before it stay).

The front end only maps argv to a run. Config files are parsed, defaulted
and validated by `verify.parse_config` (the schemas of `Scenario` and
`SweepSpec`), flag values by the library calls that take them, all before
any run starts; `main` turns every ConfigError into exit 2.

All numeric output uses 17 significant digits (doubles round-trip), JSON
keys are sorted, and no timestamps are emitted, so identical inputs give
byte-identical outputs, also under parallel sweep execution.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import audit_estimates, best_min_length, big_C, big_D, big_E, \
    fite_rhs, min_length, small_c
from .errors import AuditFailure, ConfigError, ConvergenceError
from .specfn import beta_fn
from .sfde import solve_batch
from .verify import COUNTEREXAMPLE, Scenario, parse_config, sweep
from .weighted import Order

OK, CONFIG_ERROR, SOLVER_FAILURE, VERIFY_FAILURE, NOT_WRITTEN = 0, 2, 3, 4, 5

_TRACE_COLUMNS = "t,w_f,f,w_g,g"
_NON_VALUE = "NA"  # raw f, g may be infinite at the first node


class _NotWritten(Exception):
    """A file of --out that could not be written after the run."""


def _write(path: Path, text: str) -> None:
    """Write a file of --out, making the directory with the first file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise _NotWritten(f"out: cannot write {path}: {exc}") from None


def _dump_json(obj, path: Path) -> None:
    _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_config(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not JSON or not UTF-8
        raise ConfigError("config", f"cannot read {path}: {exc}") from None


def _out_dir(path: str | None) -> Path | None:
    """The --out path, checked before any run and made by _write (None: no
    --out). An empty path, or one whose nearest existing entry (a dangling
    link too) is not a writable directory or cannot be looked up, is a config error."""
    if path is None:
        return None
    if not path:
        raise ConfigError("out", "must not be empty")
    try:  # pathlib's exists() raises every OSError but a missing entry's
        near = next(p for p in (Path(path), *Path(path).parents) if p.exists() or p.is_symlink())
        if not (near.is_dir() and os.access(near, os.W_OK | os.X_OK)):
            raise NotADirectoryError(f"{near} is not a writable directory")
    except OSError as exc:
        raise ConfigError("out", f"cannot make directory {path}: {exc}") from None
    return Path(path)


def _print_record(record: dict, out: Path | None, name: str) -> None:
    if out:  # first: a record that cannot be written is not printed
        _dump_json(record, out / name)
    print(json.dumps(record, sort_keys=True, indent=2))


def _write_trace(path: Path, report) -> None:
    f, g = report.f, report.g
    t, a, ga = f.grid.nodes, f.grid.a, f.gamma
    rows = [(t[0], f.reg_samples[0], None, g.reg_samples[0], None)]
    with np.errstate(over="ignore"):  # a raw value that overflows is written inf
        for j in range(1, t.size):
            wf, wg = f.reg_samples[j], g.reg_samples[j]
            wt = (t[j] - a) ** ga
            rows.append((t[j], wf, wf / wt, wg, wg / wt))
    _write(path, "\n".join([_TRACE_COLUMNS, *(
        ",".join(_NON_VALUE if x is None else f"{x:.17g}" for x in row)
        for row in rows)]) + "\n")


def cmd_solve(args) -> int:
    scenario = Scenario.from_obj(_load_config(args.config), n=args.n)
    out = _out_dir(args.out)
    try:
        (rep,) = solve_batch(scenario.p_coeff.as_callable(scenario.a), scenario.order,
                             scenario.f_a, scenario.g_a, scenario.grid)
    except ConvergenceError as exc:
        _dump_json({"config": scenario.to_obj(), "converged": False,
                    "detail": str(exc)}, out / "summary.json")
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_FAILURE
    trace_path = out / "trace.csv"
    _write_trace(trace_path, rep)
    _dump_json({"config": scenario.to_obj(), "converged": True,
                "residual": rep.residual, "trace": trace_path.name},
               out / "summary.json")
    return OK


def cmd_bound(args) -> int:
    order = Order(args.alpha)
    out = _out_dir(args.out)
    if args.p is not None:
        p_used, length = args.p, min_length(order, args.m, args.p)
    else:
        p_used, length = best_min_length(order, args.m)
    if length == 0.0:
        # the root lies below the float range: no length to report
        raise ConfigError("m", f"the minimal length for m={args.m!r} underflows")
    d_at, e_at = big_D(order, p_used, length), big_E(order, p_used, length)
    if not (math.isfinite(d_at) and math.isfinite(e_at)):  # L* near the float maximum
        raise ConfigError("m", f"the constants at the minimal length for m={args.m!r} "
                          "overflow")
    record = {
        "alpha": args.alpha, "m": args.m, "p": p_used,
        "p_given": args.p is not None,
        "rhs": fite_rhs(order), "min_length": length,
        "constants": {
            "small_c": small_c(order, p_used), "big_C": big_C(order, p_used),
            "big_D_at_min_length": d_at, "big_E_at_min_length": e_at,
            "beta_value": beta_fn(order.alpha, order.alpha),
        },
    }
    _print_record(record, out, "bound.json")
    return OK


def _num(x: float):
    return x if math.isfinite(x) else None  # strict JSON has no NaN


def _cell_objs(cell) -> list[dict]:  # one verify.json entry per direction
    config = cell.scenario.to_obj()
    shared = {key: None if cell.detail is not None else _num(getattr(cell.scenario, key))
              for key in ("m", "p_star", "min_length", "lhs", "rhs")}  # a failed cell: nulls
    if cell.detail is not None:
        shared["detail"] = cell.detail
    return [{"scenario": {**config, "f_a": f_a, "g_a": g_a}, "label": label,
             "verdict": verdict, "residual": _num(residual),
             "zero_pair": None if pair is None else list(pair), **shared}
            for (f_a, g_a, label), verdict, residual, pair
            in zip(cell.directions, cell.verdicts, cell.residuals, cell.zero_pairs)]


def cmd_verify(args) -> int:
    run = parse_config(_load_config(args.config), n=args.n)
    out = _out_dir(args.out)
    result = sweep(run, workers=args.workers)
    scenarios = [obj for cell in result.cells for obj in _cell_objs(cell)]
    counterexamples = [obj for obj in scenarios if obj["verdict"] == COUNTEREXAMPLE]
    _dump_json({"spec": result.spec.to_obj(), "counts": result.counts,
                "min_ratio": _num(result.min_ratio), "scenarios": scenarios,
                "counterexamples": counterexamples}, out / "verify.json")
    print(json.dumps({"counts": result.counts}, sort_keys=True))
    if counterexamples:
        print(f"verification failure: {len(counterexamples)} "
              "counterexample(s) recorded", file=sys.stderr)
        return VERIFY_FAILURE
    return OK


def cmd_audit(args) -> int:
    out = _out_dir(args.out)
    try:
        report = audit_estimates(Order(args.alpha), args.p, args.trials, args.seed)
    except AuditFailure as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return VERIFY_FAILURE
    record = {
        "alpha": args.alpha, "p": args.p, "trials": args.trials,
        "seed": args.seed, "passes": report.passes,
    }
    _print_record(record, out, "audit.json")
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracfite",
        description="Fite-type bounds for sequential fractional differential "
                    "equations: solve, bound, verify, audit.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a scenario and write a trace")
    sp.add_argument("--config", required=True, help="JSON scenario config")
    sp.add_argument("--out", default="out", help="output directory")
    sp.add_argument("--n", type=int, default=None, help="override grid cells")
    sp.set_defaults(func=cmd_solve)

    bp = sub.add_parser("bound", help="bound constants and minimal length")
    bp.add_argument("--alpha", type=float, required=True)
    bp.add_argument("--m", type=float, required=True,
                    help="coefficient bound max(1, sup P)")
    bp.add_argument("--p", type=float, default=None,
                    help="fixed Hoelder exponent (default: optimized)")
    bp.add_argument("--out", default=None)
    bp.set_defaults(func=cmd_bound)

    vp = sub.add_parser("verify", help="run a scenario or sweep against the bound")
    vp.add_argument("--config", required=True, help="JSON scenario or sweep config")
    vp.add_argument("--out", default="out")
    vp.add_argument("--n", type=int, default=None, help="override grid cells")
    vp.add_argument("--workers", type=int, default=1)
    vp.set_defaults(func=cmd_verify)

    au = sub.add_parser("audit", help="randomized audit of the inequality chain")
    au.add_argument("--alpha", type=float, default=0.75)
    au.add_argument("--p", type=float, default=1.5)
    au.add_argument("--trials", type=int, default=1000)
    au.add_argument("--seed", type=int, default=42)
    au.add_argument("--out", default=None)
    au.set_defaults(func=cmd_audit)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except _NotWritten as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NOT_WRITTEN


if __name__ == "__main__":
    sys.exit(main())
