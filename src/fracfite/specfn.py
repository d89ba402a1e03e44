"""Special-function kernel: Gamma, Beta and incomplete Beta evaluation.

Everything downstream (singular-kernel moments, the explicit constant
chain, the audit's kernel integrals) funnels through these functions.
gamma_fn and beta_fn wrap the stdlib's math.gamma and math.lgamma (within
~1e-15 relative on [0.01, 20]) with a finite-positive argument check.
inc_beta sums the hypergeometric series of the lower incomplete Beta
function (DLMF 8.17.7) on x <= 1/2 and reflects it above. All are
cross-checked in the test suite against arbitrary-precision references.
"""

from __future__ import annotations

import math


def _check_positive(name: str, x: float) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {x!r}")


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0."""
    _check_positive("x", x)
    return math.gamma(x)


def beta_fn(x: float, y: float) -> float:
    """B(x, y) = Gamma(x) Gamma(y) / Gamma(x+y) for x, y > 0.

    Computed in log space so that large x+y in series denominators cannot
    overflow an intermediate Gamma value.
    """
    _check_positive("x", x)
    _check_positive("y", y)
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def inc_beta(x: float, p: float, q: float) -> float:
    """B_x(p, q) = int_0^x s^{p-1} (1-s)^{q-1} ds for 0 <= x <= 1 and
    0 < p, q <= 1.

    For x <= 1/2 it is x^p sum_k (1-q)_k/k! x^k/(p+k): every term is
    positive, as (1-q)_k/k! lies in (0, 1], and the tail after 64 terms is
    below 2^-64 of the sum. Above 1/2 it is B(p, q) - B_{1-x}(q, p).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    for name, v in (("p", p), ("q", q)):
        if not 0.0 < v <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {v!r}")
    if x > 0.5:
        return beta_fn(p, q) - inc_beta(1.0 - x, q, p)
    term, total = 1.0, 1.0 / p
    for k in range(1, 64):
        term *= (k - q) / k * x
        total += term / (p + k)
    return x**p * total
