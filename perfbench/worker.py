"""One benchmark pass of one workload, in a process of its own.

    python3 perfbench/worker.py --workload sweep --seed 3 --size full \
        --out perfbench/out/sweep/pass0 [--traced] [--setup-only]

Set-up (importing fracfite and writing the workload's configs) is timed
first. The pass then drives the command line in-process through
``fracfite.cli.main``, checks every output, and prints one JSON record as
the last line of standard output. A fresh process per pass starts with a
cold kernel cache and gives the pass's own peak resident memory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up starts before the package import

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Input sizes: "full" is the benchmark, "smoke" only exercises the schema.
SIZES = {
    "full": {"sweep_n": (512, 1024), "directions": 8, "trials": 1000,
             "large_n": (2048, 4096)},
    "smoke": {"sweep_n": (64, 128), "directions": 1, "trials": 20,
              "large_n": (128, 256)},
}
GRID = {"alphas": [0.6, 0.75, 0.9], "p_infs": [0.5, 1.0, 2.0],
        "lengths": [0.05, 0.5, 5.0]}
# solve_large: Picard converges on the first, diverges on the second and
# falls back to marching
LARGE = ({"alpha": 0.75, "P": 1.0, "c": 5.0}, {"alpha": 0.9, "P": 100.0, "c": 10.0})
TOL = 1e-10
OK_VERDICTS = ("BOUND_HOLDS", "NO_ZERO_PAIR")


def _dump(obj, path: Path) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True))
    return path


def plan(workload: str, seed: int, size: dict, out: Path) -> list[list[str]]:
    """Write the workload's configs under out and return its CLI argv lists."""
    if workload == "sweep":
        cfg = _dump({"sweep": {**GRID, "directions": size["directions"],
                               "seed": seed, "random_directions": True}},
                    out / "sweep.json")
        return [["verify", "--config", str(cfg), "--out", str(out / f"n{n}"),
                 "--n", str(n), "--workers", "1"] for n in size["sweep_n"]]
    if workload == "audit":
        return [["audit", "--alpha", "0.75", "--p", "1.5",
                 "--trials", str(size["trials"]), "--seed", str(seed),
                 "--out", str(out / "audit")]]
    if workload == "solve_large":
        argvs = []
        for k, s in enumerate(LARGE):
            cfg = _dump({"alpha": s["alpha"], "a": 0.0, "c": s["c"],
                         "P": {"const": s["P"]}, "f_a": 0.0, "g_a": 1.0,
                         "tol": TOL}, out / f"large{k}.json")
            argvs += [["verify", "--config", str(cfg),
                       "--out", str(out / f"large{k}-n{n}"), "--n", str(n),
                       "--workers", "1"] for n in size["large_n"]]
        return argvs
    raise ValueError(f"unknown workload {workload!r}")


def _scenarios(out_dir: Path) -> list[dict] | None:
    path = out_dir / "verify.json"
    return json.loads(path.read_text())["scenarios"] if path.exists() else None


def _drift(coarse: dict, fine: dict) -> float | None:
    """|first zero of f at n - at 2n| / L, when both resolutions have a pair."""
    if coarse["zero_pair"] is None or fine["zero_pair"] is None:
        return None
    length = coarse["scenario"]["c"] - coarse["scenario"]["a"]
    return abs(coarse["zero_pair"][0] - fine["zero_pair"][0]) / length


def _sound(rep: dict) -> bool:
    """No counterexample or solver failure, and lhs/rhs >= 1 wherever a zero
    pair was found."""
    if rep["verdict"] not in OK_VERDICTS:
        return False
    return rep["zero_pair"] is None or rep["lhs"] >= rep["rhs"]


def check(workload: str, size: dict, out: Path) -> tuple[int, int, float | None]:
    """(items, failed, zero_drift) from the written reports."""
    if workload == "sweep":
        runs = [_scenarios(out / f"n{n}") for n in size["sweep_n"]]
        items = 2 * len(GRID["alphas"]) * len(GRID["p_infs"]) \
            * len(GRID["lengths"]) * size["directions"]
        if any(r is None or len(r) != items // 2 for r in runs):
            return items, items, None
        coarse, fine = runs
        failed, drifts = 0, []
        for c, f in zip(coarse, fine):
            same = c["verdict"] == f["verdict"]
            failed += (not (same and _sound(c))) + (not (same and _sound(f)))
            drifts.append(_drift(c, f))
        drifts = [d for d in drifts if d is not None]
        return items, failed, max(drifts) if drifts else None
    if workload == "audit":
        trials = size["trials"]
        path = out / "audit" / "audit.json"
        if not path.exists():
            return trials, trials, None
        passes = json.loads(path.read_text())["passes"]
        return trials, trials - min(passes.values()), None
    # solve_large: every solve has a zero pair and a residual <= 10 tol
    failed, drifts = 0, []
    for k in range(len(LARGE)):
        reps = [_scenarios(out / f"large{k}-n{n}") for n in size["large_n"]]
        reps = [r[0] if r else None for r in reps]
        for rep in reps:
            failed += not (rep is not None and _sound(rep)
                           and rep["zero_pair"] is not None
                           and rep["residual"] is not None
                           and rep["residual"] <= 10.0 * rep["scenario"]["tol"])
        if None not in reps and _drift(*reps) is not None:
            drifts.append(_drift(*reps))
    return 2 * len(LARGE), failed, max(drifts) if drifts else None


def _digest(out: Path) -> str:
    """Hash of every report the pass wrote, to compare passes byte for byte."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.json")):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def calibrate() -> float:
    """Seconds for fixed numpy work that no change to fracfite can speed up,
    a gauge of how fast the shared host runs at the moment."""
    import numpy as np
    x = np.linspace(0.5, 1.5, 200_000)
    t0 = time.perf_counter()
    for _ in range(500):
        x ** -0.25
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    try:
        # 194 is glibc's _SC_LEVEL3_CACHE_SIZE; Python does not name it
        l3 = os.sysconf(194) if sys.platform.startswith("linux") else 0
    except (OSError, ValueError):
        l3 = 0
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "l3_bytes": l3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--out", required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import fracfite.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: fracfite imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    size = SIZES[args.size]
    argvs = plan(args.workload, args.seed, size, out)
    setup_s = time.perf_counter() - _T0
    record = {"setup_s": setup_s, "cal_s": calibrate()}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    main_fn = cli.main
    if args.traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

        def main_fn(argv):
            return tracer.call("cli.main", cli.main, argv)

    sink = io.StringIO()
    t0 = time.perf_counter()
    for argv in argvs:
        try:
            with contextlib.redirect_stdout(sink):
                main_fn(argv)
        except Exception:  # the check below counts the missing report as failed
            traceback.print_exc()
    wall_s = time.perf_counter() - t0

    items, failed, drift = check(args.workload, size, out)
    record.update(wall_s=wall_s, items=items, failed=failed, zero_drift=drift,
                  digest=_digest(out),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  env=environment())
    if tracer is not None:
        tracer.write_spans(out / "spans.csv")
        record["layers"] = tracer.layer_metrics(wall_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
