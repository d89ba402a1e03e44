"""Reference oracles used only by the test suite.

None of these is called by the package's pipeline: the Mittag-Leffler
series (an arbitrary-precision solver oracle, the reason mpmath is a test
dependency), the Riemann-Liouville integral and derivative built on
q_operator, and the closed-form check of the classical second-order
Fite statement.
"""

import math

import mpmath as mp
import numpy as np

from fracfite import WeightedFn, from_samples, gamma_fn, log_gamma, q_operator
from fracfite.errors import ConvergenceError

# Mittag-Leffler series controls.
_ML_MAX_TERMS = 10_000
_ML_RTOL = 1e-16
_ML_Z_MAX = 50.0


def _ml_extra_digits(order: float, weight: float, z: float) -> int:
    """Decimal digits of cancellation headroom for the alternating series.

    For z < 0 the partial sums can exceed the limit by the magnitude of
    the largest term; summing with that many extra digits makes the
    cancellation harmless.
    """
    if z >= 0.0:
        return 0
    log_z = math.log(abs(z)) if z != 0.0 else -math.inf
    peak = 0.0
    for k in range(1, _ML_MAX_TERMS):
        lt = k * log_z - log_gamma(order * k + weight)
        if lt > peak:
            peak = lt
        elif lt < peak - 60.0:  # far past the hump, terms only shrink
            break
    return max(0, math.ceil(peak / math.log(10.0)))


def mittag_leffler(order: float, weight: float, z: float) -> float:
    """E_{order,weight}(z) = sum_k z^k / Gamma(order*k + weight).

    Direct series summation, truncated once a term falls below 1e-16 of
    the running sum. The summation runs at elevated working precision so
    that the alternating-series cancellation for z < 0 does not eat into
    the result (at z = -10, order = 1 the partial sums overshoot by ~10
    orders of magnitude). Restricted to the desk-scale domain |z| <= 50.
    """
    if not (0.0 < order <= 1.0):
        raise ValueError(f"order must lie in (0, 1], got {order!r}")
    if not (math.isfinite(weight) and weight > 0.0):
        raise ValueError(f"weight must be a finite positive real, got {weight!r}")
    if not math.isfinite(z) or abs(z) > _ML_Z_MAX:
        raise ValueError(f"|z| must be <= {_ML_Z_MAX}, got {z!r}")

    dps = 25 + _ml_extra_digits(order, weight, z)
    with mp.workdps(dps):
        zz = mp.mpf(z)
        total = mp.mpf(0)
        for k in range(_ML_MAX_TERMS):
            term = zz**k / mp.gamma(order * k + weight)
            total += term
            if total != 0 and abs(term) <= _ML_RTOL * abs(total):
                return float(total)
    raise ConvergenceError(
        f"Mittag-Leffler series did not converge within {_ML_MAX_TERMS} terms "
        f"(order={order}, weight={weight}, z={z})"
    )


def rl_integral(w: WeightedFn, mu: float) -> WeightedFn:
    """Fractional integral I^mu f = (1/Gamma(mu)) int_a^t f(s) (t-s)^{mu-1} ds."""
    if not (0.0 < mu < 1.0):
        raise ValueError(f"integral order must lie in (0, 1), got {mu!r}")
    res = q_operator(w, lambda s: 1.0, 1.0 - mu)
    return from_samples(res.reg_samples / gamma_fn(mu), 0.0, w.grid)


def rl_derivative(w: WeightedFn, zeta: float) -> WeightedFn:
    """Riemann-Liouville derivative of order zeta in (0, 1).

    Realized through its definition as d/dt of the order-(1-zeta)
    integral: the primitive is product-integrated on the grid and then
    differentiated node-to-node by centered differences spanning the two
    adjacent cells (one-sided at c). On the graded grid this is a centered
    second-order formula in the grading parameter, which keeps the
    fractional-power curvature of the primitive near a under control. The
    result generally blows up like (t-a)^{-zeta} and is returned with
    weight exponent zeta; the samples on the first few cells carry the
    largest differentiation error.
    """
    if not (0.0 < zeta < 1.0):
        raise ValueError(f"derivative order must lie in (0, 1), got {zeta!r}")
    prim = rl_integral(w, 1.0 - zeta).reg_samples
    t = w.grid.nodes
    n = w.grid.n
    dp = np.empty(n + 1)
    dp[1:-1] = (prim[2:] - prim[:-2]) / (t[2:] - t[:-2])
    # one-sided closure at c, second order in the grid index
    dp[n] = ((3.0 * prim[n] - 4.0 * prim[n - 1] + prim[n - 2])
             / (3.0 * t[n] - 4.0 * t[n - 1] + t[n - 2]))
    vals = np.empty(n + 1)
    vals[1:] = (t[1:] - w.grid.a) ** zeta * dp[1:]
    # limit value at a: linear extrapolation of the regularized samples
    vals[0] = vals[1] - (t[1] - w.grid.a) * (vals[2] - vals[1]) / (t[2] - t[1])
    return from_samples(vals, zeta, w.grid)


def classical_fite_check(P_const: float, b: float, c: float,
                         phases: int = 64) -> bool:
    """Second-order sanity oracle: for x'' + P x = 0 with constant P > 0,
    whenever x = sin(sqrt(P)(t - t0)) has a zero and x' a zero inside
    [b, c], classical theory gives (c - b) max(1, P) >= 1.

    The phase t0 is scanned over one period; windows that contain no such
    pair are vacuous and count as satisfied.
    """
    if not (P_const > 0.0):
        raise ValueError(f"P must be positive, got {P_const!r}")
    if not (b < c):
        raise ValueError("need b < c")
    w = math.sqrt(P_const)
    half = math.pi / w  # zero spacing of both x and x'
    for t0 in np.linspace(0.0, 2.0 * half, phases, endpoint=False):
        # zeros of x at t0 + k half; zeros of x' at t0 + (k + 1/2) half
        has_x = math.floor((c - t0) / half) >= math.ceil((b - t0) / half)
        has_dx = (math.floor((c - t0) / half - 0.5)
                  >= math.ceil((b - t0) / half - 0.5))
        if has_x and has_dx and (c - b) * max(1.0, P_const) < 1.0:
            return False
    return True
