"""Command-line front end.

Subcommands
    solve    solve one scenario, write a solution trace + summary record
    bound    print the bound constants and minimal interval length
    verify   run one scenario or a sweep, write an aggregate report
    audit    run the randomized inequality audit
    zeros    locate zeros of a column of a stored solution trace

Exit codes: 0 ok, 2 config/domain error, 3 solver failure,
4 verification/audit failure.

All numeric output uses 17 significant digits (doubles round-trip), JSON
keys are sorted, and no timestamps are emitted, so identical inputs give
byte-identical outputs, also under parallel sweep execution.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import audit_estimates, best_min_length, constant_chain, \
    fite_rhs, min_length
from .errors import AuditFailure, ConfigError, ConvergenceError
from .sfde import DEFAULT_MAX_ITER, DEFAULT_TOL
from .verify import (COUNTEREXAMPLE, VERDICTS, CoefficientSpec, Scenario,
                     SweepSpec, run_scenario, solve_scenario, sweep)
from .weighted import GradedGrid, Order, from_samples
from .zeros import find_zeros

OK, CONFIG_ERROR, SOLVER_FAILURE, VERIFY_FAILURE = 0, 2, 3, 4

_TRACE_COLUMNS = "t,w_f,f,w_g,g"
_NON_VALUE = "NA"  # raw f, g may be infinite at the first node


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"not valid JSON: {exc}")


def _get(cfg: dict, field: str, kind, default=None, required: bool = False):
    if field not in cfg:
        if required:
            raise ConfigError(field, "missing required field")
        return default
    try:
        return kind(cfg[field])
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, str(exc))


def _floats(entries) -> tuple[float, ...]:
    return tuple(float(x) for x in entries)


def _scenario_from_config(cfg: dict, args) -> Scenario:
    alpha = _get(cfg, "alpha", float, required=True)
    if not (0.5 < alpha < 1.0):
        raise ConfigError("alpha", f"must lie in (1/2, 1), got {alpha}")
    a = _get(cfg, "a", float, required=True)
    c = _get(cfg, "c", float, required=True)
    if a >= c:
        raise ConfigError("a", f"need a < c, got a={a}, c={c}")
    b = _get(cfg, "b", float, default=a + 0.01 * (c - a))
    if not (a < b < c):
        raise ConfigError("b", f"need a < b < c, got b={b}")
    try:
        p_coeff = CoefficientSpec.from_obj(_get(cfg, "P", dict, required=True))
        v_obj = cfg.get("V")
        v_coeff = CoefficientSpec.from_obj(v_obj) if v_obj is not None else None
    except ValueError as exc:
        raise ConfigError("P/V", str(exc))
    n = args.n if args.n is not None else _get(cfg, "n", int, default=512)
    r = args.grading if args.grading is not None else _get(cfg, "grading", float, default=2.0)
    try:
        return Scenario(
            order=Order(alpha), a=a, b=b, c=c, p_coeff=p_coeff,
            f_a=_get(cfg, "f_a", float, default=1.0),
            g_a=_get(cfg, "g_a", float, default=0.0),
            v_coeff=v_coeff, n=n, r=r,
            tol=_get(cfg, "tol", float, default=DEFAULT_TOL),
            max_iter=_get(cfg, "max_iter", int, default=DEFAULT_MAX_ITER),
            scheme=_get(cfg, "scheme", str, default="marching"),
        )
    except ValueError as exc:
        raise ConfigError("scenario", str(exc))


def _scenario_obj(s: Scenario) -> dict:
    obj = {
        "alpha": s.order.alpha, "a": s.a, "b": s.b, "c": s.c,
        "P": s.p_coeff.to_obj(), "f_a": s.f_a, "g_a": s.g_a,
        "n": s.n, "grading": s.r, "tol": s.tol, "max_iter": s.max_iter,
        "scheme": s.scheme,
    }
    if s.v_coeff is not None:
        obj["V"] = s.v_coeff.to_obj()
    return obj


def _write_trace(path: Path, report, fmt: str) -> None:
    f, g = report.f, report.g
    t = f.grid.nodes
    a, ga = f.grid.a, f.gamma
    rows = []
    for j in range(t.size):
        wf, wg = f.reg_samples[j], g.reg_samples[j]
        if j == 0:
            raw_f = raw_g = None
        else:
            wt = (t[j] - a) ** ga
            raw_f, raw_g = wf / wt, wg / wt
        rows.append((t[j], wf, raw_f, wg, raw_g))
    if fmt == "csv":
        lines = [_TRACE_COLUMNS]
        for row in rows:
            lines.append(",".join(_NON_VALUE if x is None else _fmt(x) for x in row))
        path.write_text("\n".join(lines) + "\n")
    else:
        cols = _TRACE_COLUMNS.split(",")
        _dump_json([{k: (None if x is None else x) for k, x in zip(cols, row)}
                    for row in rows], path)


def cmd_solve(args) -> int:
    try:
        cfg = _load_config(args.config)
        scenario = _scenario_from_config(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rep = solve_scenario(scenario)
    except (ConvergenceError, FloatingPointError) as exc:
        _dump_json({"config": _scenario_obj(scenario), "converged": False,
                    "detail": str(exc)}, out / "summary.json")
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_FAILURE
    trace_path = out / f"trace.{args.format}"
    _write_trace(trace_path, rep, args.format)
    _dump_json({"config": _scenario_obj(scenario), "converged": True,
                "iterations": rep.iterations, "method": rep.method,
                "residual": rep.residual, "trace": trace_path.name},
               out / "summary.json")
    return OK


def cmd_bound(args) -> int:
    if not (0.5 < args.alpha < 1.0):
        print(f"error: alpha must lie in (1/2, 1), got {args.alpha}", file=sys.stderr)
        return CONFIG_ERROR
    if not (args.m > 0.0):
        print(f"error: m must be positive, got {args.m}", file=sys.stderr)
        return CONFIG_ERROR
    order = Order(args.alpha)
    try:
        if args.p is not None:
            p_used = args.p
            length = min_length(order, args.m, args.p)
        else:
            p_used, length = best_min_length(order, args.m)
        chain = constant_chain(order, p_used, length)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    record = {
        "alpha": args.alpha, "m": args.m, "p": p_used,
        "p_given": args.p is not None,
        "rhs": fite_rhs(order), "min_length": length,
        "constants": {
            "small_c": chain.small_c_bg, "big_C": chain.big_C,
            "big_D_at_min_length": chain.big_D, "big_E_at_min_length": chain.big_E,
            "beta_value": chain.beta_val,
        },
    }
    print(json.dumps(record, sort_keys=True, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(record, out / "bound.json")
    return OK


def _num(x: float):
    return x if math.isfinite(x) else None  # strict JSON has no NaN


def _report_obj(rep) -> dict:
    s = rep.scenario
    obj = {
        "scenario": _scenario_obj(s),
        "label": s.label,
        "verdict": rep.verdict,
        "residual": _num(rep.residual),
        "method": rep.solver_method,
        "zero_pair": list(rep.zero_pair) if rep.zero_pair else None,
        "m": _num(rep.m), "p_star": _num(rep.p_star),
        "min_length": _num(rep.min_len),
        "lhs": _num(rep.lhs), "rhs": _num(rep.rhs),
    }
    if rep.detail:
        obj["detail"] = rep.detail
    return obj


def cmd_verify(args) -> int:
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rhs_scale = args.rhs_scale
    try:
        if "sweep" in cfg:
            sw = cfg["sweep"]
            spec = SweepSpec(
                alphas=_get(sw, "alphas", _floats, required=True),
                p_infs=_get(sw, "p_infs", _floats, required=True),
                lengths=_get(sw, "lengths", _floats, required=True),
                directions=_get(sw, "directions", int, default=8),
                seed=args.seed if args.seed is not None
                else _get(sw, "seed", int, default=0),
                a=_get(sw, "a", float, default=0.0),
                b_fraction=_get(sw, "b_fraction", float, default=0.01),
                n=args.n if args.n is not None else _get(sw, "n", int, default=512),
                r=args.grading if args.grading is not None
                else _get(sw, "grading", float, default=2.0),
                tol=_get(sw, "tol", float, default=DEFAULT_TOL),
                max_iter=_get(sw, "max_iter", int, default=DEFAULT_MAX_ITER),
                random_directions=_get(sw, "random_directions", bool, default=False),
            )
            result = sweep(spec, workers=args.workers, rhs_scale=rhs_scale)
            reports = result.reports
            counts = result.counts
            spec_obj = dataclasses.asdict(spec)
            spec_obj["grading"] = spec_obj.pop("r")
        else:
            scenario = _scenario_from_config(cfg, args)
            rep = run_scenario(scenario, rhs_scale=rhs_scale)
            reports = (rep,)
            counts = {v: int(v == rep.verdict) for v in VERDICTS}
            result = None
            spec_obj = _scenario_obj(scenario)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    aggregate = {
        "spec": spec_obj,
        "rhs_scale": rhs_scale,
        "counts": counts,
        "min_ratio": (result.min_ratio if result is not None
                      and math.isfinite(result.min_ratio) else None),
        "scenarios": [_report_obj(r) for r in reports],
        "counterexamples": [_report_obj(r) for r in reports
                            if r.verdict == COUNTEREXAMPLE],
    }
    _dump_json(aggregate, out / "verify.json")
    n_counter = counts[COUNTEREXAMPLE]
    print(json.dumps({"counts": counts}, sort_keys=True))
    if n_counter:
        print(f"verification failure: {n_counter} counterexample(s) recorded",
              file=sys.stderr)
        return VERIFY_FAILURE
    return OK


def cmd_audit(args) -> int:
    if not (0.5 < args.alpha < 1.0):
        print(f"error: alpha must lie in (1/2, 1), got {args.alpha}", file=sys.stderr)
        return CONFIG_ERROR
    if args.trials < 0:
        print("error: trials must be nonnegative", file=sys.stderr)
        return CONFIG_ERROR
    order = Order(args.alpha)
    try:
        from .bounds import holder_params
        holder_params(order, args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        report = audit_estimates(order, args.p, args.trials, args.seed)
    except AuditFailure as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return VERIFY_FAILURE
    record = {
        "alpha": args.alpha, "p": args.p, "trials": args.trials,
        "seed": args.seed, "passes": report.passes,
    }
    print(json.dumps(record, sort_keys=True, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(record, out / "audit.json")
    return OK


def cmd_zeros(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        print(f"error: trace file not found: {path}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        idx = {name: k for k, name in enumerate(header)}
        col = "w_f" if args.column == "f" else "w_g"
        t = np.asarray([float(ln.split(",")[idx["t"]]) for ln in lines[1:]])
        vals = np.asarray([float(ln.split(",")[idx[col]]) for ln in lines[1:]])
    except (KeyError, ValueError, IndexError) as exc:
        print(f"error: cannot parse trace: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    grid = GradedGrid.from_nodes(t)
    # zero locations only depend on the regularized samples, so the weight
    # exponent of the stored function is irrelevant here
    w = from_samples(vals, 0.0, grid)
    b = args.b if args.b is not None else float(t[1])
    c = args.c if args.c is not None else float(t[-1])
    try:
        zs = find_zeros(w, b, c)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    print(json.dumps({"column": args.column, "window": [b, c],
                      "count": len(zs), "zeros": list(map(float, zs))},
                     sort_keys=True))
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
    sp.add_argument("--grading", type=float, default=None, help="override grading")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_solve)

    bp = sub.add_parser("bound", help="bound constants and minimal length")
    bp.add_argument("--alpha", type=float, required=True)
    bp.add_argument("--m", type=float, required=True,
                    help="coupling bound max(|G|, |R|)")
    bp.add_argument("--p", type=float, default=None,
                    help="fixed Hoelder exponent (default: optimized)")
    bp.add_argument("--out", default=None)
    bp.set_defaults(func=cmd_bound)

    vp = sub.add_parser("verify", help="run a scenario or sweep against the bound")
    vp.add_argument("--config", required=True, help="JSON scenario or sweep config")
    vp.add_argument("--out", default="out")
    vp.add_argument("--seed", type=int, default=None)
    vp.add_argument("--n", type=int, default=None)
    vp.add_argument("--grading", type=float, default=None)
    vp.add_argument("--workers", type=int, default=1)
    vp.add_argument("--rhs-scale", type=float, default=1.0,
                    help="test hook: scale the bound's right side")
    vp.set_defaults(func=cmd_verify)

    au = sub.add_parser("audit", help="randomized audit of the inequality chain")
    au.add_argument("--alpha", type=float, default=0.75)
    au.add_argument("--p", type=float, default=1.5)
    au.add_argument("--trials", type=int, default=1000)
    au.add_argument("--seed", type=int, default=42)
    au.add_argument("--out", default=None)
    au.set_defaults(func=cmd_audit)

    zp = sub.add_parser("zeros", help="find zeros in a stored solution trace")
    zp.add_argument("--trace", required=True, help="trace CSV from `solve`")
    zp.add_argument("--column", choices=("f", "g"), default="f")
    zp.add_argument("--b", type=float, default=None, help="window start")
    zp.add_argument("--c", type=float, default=None, help="window end")
    zp.set_defaults(func=cmd_zeros)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
