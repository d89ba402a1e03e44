"""Special-function kernel: Gamma and Beta evaluation.

Everything downstream (singular-kernel moments, the explicit constant
chain) funnels through these functions, so they are kept dependency-light
and are cross-checked in the test suite against stdlib and
arbitrary-precision references.
"""

from __future__ import annotations

import math

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
# Relative accuracy ~1e-15 for x >= 0.5 in double precision.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _check_positive(name: str, x: float) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {x!r}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 via the Lanczos series.

    Arguments below 0.5 are lifted with ln Gamma(x) = ln Gamma(x+1) - ln x,
    which keeps the series in its accurate range.
    """
    _check_positive("x", x)
    shift = 0.0
    while x < 0.5:
        shift -= math.log(x)
        x += 1.0
    t = x + _LANCZOS_G - 0.5
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (x - 1.0 + k)
    return shift + _HALF_LOG_2PI + (x - 0.5) * math.log(t) - t + math.log(s)


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0."""
    return math.exp(log_gamma(x))


def beta_fn(x: float, y: float) -> float:
    """B(x, y) = Gamma(x) Gamma(y) / Gamma(x+y) for x, y > 0.

    Computed in log space so that large x+y in series denominators cannot
    overflow an intermediate Gamma value.
    """
    _check_positive("x", x)
    _check_positive("y", y)
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))
