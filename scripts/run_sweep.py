#!/usr/bin/env python3
"""Counterexample hunt: sweep scenario grids against the length bound.

Runs the standard 3 x 3 x 3 x 8 grid (orders x coefficient bounds x
interval lengths x initial-data directions), prints verdict counts and
the smallest observed lhs/rhs margin, then re-runs at doubled resolution
and reports whether any verdict changed. Exits 1 on a counterexample or a
changed verdict, and 2 with an `error:` line on an invalid argument.

Usage:
    python scripts/run_sweep.py [--n 512] [--workers 1]
"""

import argparse
import dataclasses
import sys
import time

from fracfite import SweepSpec, sweep
from fracfite.errors import ConfigError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    try:
        return run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    spec = SweepSpec(alphas=(0.6, 0.75, 0.9), p_infs=(0.5, 1.0, 2.0),
                     lengths=(0.05, 0.5, 5.0), directions=8, n=args.n)
    # built here so that a refined n over the matrix cap fails before any solve
    refined = dataclasses.replace(spec, n=2 * args.n)
    t0 = time.time()
    coarse = sweep(spec, workers=args.workers)
    print(f"sweep at n={args.n}: {time.time() - t0:.1f}s")
    for verdict, count in sorted(coarse.counts.items()):
        print(f"  {verdict:15s} {count}")
    print(f"  min lhs/rhs among zero-pair scenarios: {coarse.min_ratio:.3f}")
    if coarse.counts["COUNTEREXAMPLE"]:
        for cell, (_, _, label) in coarse.counterexamples:
            print(f"  !! {label}: lhs={cell.scenario.lhs} rhs={cell.scenario.rhs}")
        return 1

    t0 = time.time()
    fine = sweep(refined, workers=args.workers)
    print(f"refined sweep at n={2 * args.n}: {time.time() - t0:.1f}s")
    changed = sum(a != b for a, b in zip(coarse.verdicts, fine.verdicts))
    print(f"  verdicts changed under refinement: {changed}")
    if changed or fine.counts["COUNTEREXAMPLE"]:
        return 1
    print("no counterexamples.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
