"""fracfite benchmark: three workloads through ``fracfite.cli.main``.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see METRICS.md for why each exists and which layer it loads):
    sweep        ``fracfite verify`` on the standard 3x3x3 grid x 8 seeded
                 random directions, at n=512 and again at n=1024
    audit        ``fracfite audit --alpha 0.75 --p 1.5 --trials 1000``
    solve_large  two single-scenario ``fracfite verify`` runs at n=2048 and
                 n=4096 with fixed data; the seed does not change them

A run repeats whole passes, one fresh process each and one at a time, until
--seconds have passed. Before each pass it also times set-up alone twice.
With --trace 0 it prints the end-to-end metrics, the median over passes,
with times scaled to the reference host's speed (see CAL_REF_S).
With --trace 1 it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, medians again. Either way every
output is checked and all passes must write byte-identical reports. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "audit", "solve_large")
SETUP_PER_PASS = 2  # set-up-only processes per pass, besides the pass's own set-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Pass load: one process at a time, BLAS pinned to one thread (<= nproc).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Median calibrate() time on the reference host (2-vCPU Xeon, 300 MiB L3) in a
# quiet spell. The shared host slows by up to 1.7x for minutes at a time,
# which moves every timing in a run together; setup_s and items_per_s are
# scaled by calibration time over this, so runs on a busy host compare with
# runs on a quiet one. The values as timed are printed as well.
CAL_REF_S = 0.3
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before the pass could start")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              stdout=subprocess.PIPE, text=True, timeout=remaining,
                              env={**os.environ, **BLAS_ENV}, cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"pass did not finish within the run limit: {args}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {args}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one benchmark; returns the result object and prints the metric lines."""
    if not (ROOT / "src" / "fracfite" / "__init__.py").is_file():
        raise BenchError(f"no fracfite sources under {ROOT / 'src'}")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    out = HERE / "out" / workload
    shutil.rmtree(out, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--size", size]

    setups, untraced, traced = [], [], []
    while True:
        k = len(untraced)
        if not trace:
            # spread over the run, so that one slow spell of the shared
            # host does not hold every sample
            setups += [_worker(common + ["--out", str(out / f"setup{k}-{j}"),
                                         "--setup-only"], deadline)
                       for j in range(SETUP_PER_PASS)]
        if trace and k % 2:  # alternate which side of a pair runs first
            traced.append(_worker(common + ["--out", str(out / f"traced{k}"), "--traced"],
                                  deadline))
        untraced.append(_worker(common + ["--out", str(out / f"pass{k}")], deadline))
        if trace and not k % 2:
            traced.append(_worker(common + ["--out", str(out / f"traced{k}"), "--traced"],
                                  deadline))
        if time.monotonic() - start >= seconds:
            break
    passes = untraced + traced

    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    identical = len({p["digest"] for p in passes}) == 1
    timed = ""
    if trace:
        metrics = {name: statistics.median(t["layers"][name] for t in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead"] = (statistics.median(t["wall_s"] for t in traced)
                                     / statistics.median(u["wall_s"] for u in untraced))
        units = LAYER_UNITS
    else:
        setups += passes
        setup_s = statistics.median(p["setup_s"] for p in setups)
        items_per_s = statistics.median(p["items"] / p["wall_s"] for p in passes)
        host = statistics.median(p["cal_s"] for p in setups) / CAL_REF_S
        metrics = {
            "setup_s": setup_s / host,
            "items_per_s": items_per_s * host,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END_UNITS
        timed = (f"as timed: setup_s {setup_s:.6g} s, items_per_s {items_per_s:.6g} 1/s; "
                 f"host slowdown {host:.4g} (calibration {host * CAL_REF_S:.4g} s "
                 f"over {CAL_REF_S} s)")

    env = passes[0]["env"]
    print(f"workload {workload} seed {seed} trace {int(trace)} size {size}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes, "
          f"{time.monotonic() - start:.1f} s")
    print("env " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} 1  ({failed} of {attempted} items)")
    drift = passes[0]["zero_drift"]
    if drift is not None:
        print(f"zero_drift {drift:.6g} 1  (max |zero of f at n - at 2n| / L)")
    if timed:
        print(timed)
    if not identical:
        print("outputs differ between passes", file=sys.stderr)
    return {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def smoke() -> int:
    """Run every workload at small size, traced and untraced, and check the
    result against BENCHMARK.json: keys, metric names, units and values."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = [] if names == list(WORKLOADS) else [f"workloads {names}"]
    for workload in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run(workload, seed=1, seconds=0, trace=trace, size="smoke")
            print(json.dumps(res))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            tag = f"{workload} trace={int(trace)}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{tag}: incorrect or empty run")
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json "
                                f"{sorted(set(got) ^ set(want))}")
            bad = [n for n, m in res["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
            if bad:
                problems.append(f"{tag}: non-numeric values {bad}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, check metric names and schema")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        if args.seed < 0:
            ap.error("--seed must be nonnegative")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
