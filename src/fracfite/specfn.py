"""Special-function kernel: Gamma and Beta evaluation.

Everything downstream (singular-kernel moments, the explicit constant
chain) funnels through these functions. They wrap the stdlib's
math.lgamma and math.gamma (within ~1e-15 relative on [0.01, 20]) with a
finite-positive argument check, and are cross-checked in the test suite
against arbitrary-precision references.
"""

from __future__ import annotations

import math


def _check_positive(name: str, x: float) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {x!r}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    _check_positive("x", x)
    return math.lgamma(x)


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
