#!/usr/bin/env python3
"""Randomized numerical audit of the full inequality chain.

Every estimate feeding the length bound is evaluated on random instances
(random intervals, windows, coefficients, and weighted functions) and
checked with multiplicative slack 1 + 1e-6. Any violation aborts with the
inequality name, the seed and the failing trial k (exit 1); rerunning with
the same --alpha, --p and --seed and with --trials k+1 reproduces it. An
invalid argument exits 2 with an `error:` line.

Usage:
    python scripts/run_audit.py [--alpha 0.75] [--p 1.5] [--trials 1000] [--seed 42]
"""

import argparse
import sys
import time

from fracfite import Order, audit_estimates
from fracfite.errors import AuditFailure, ConfigError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.75)
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    t0 = time.time()
    try:
        report = audit_estimates(Order(args.alpha), args.p, args.trials,
                                 args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AuditFailure as exc:
        print(f"AUDIT FAILURE: {exc}")
        return 1
    print(f"{args.trials} trials in {time.time() - t0:.1f}s "
          f"(alpha={args.alpha}, p={args.p}, seed={args.seed})")
    for name, count in report.passes.items():
        print(f"  {name:20s} {count}/{report.trials}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
