"""Special-function kernel: Gamma, Beta and incomplete Beta evaluation.

Everything downstream (singular-kernel moments, the explicit constant
chain, the audit's kernel integrals) funnels through these functions.
gamma_fn and beta_fn wrap the stdlib's math.gamma and math.lgamma (within
~1e-15 relative on [0.01, 20]) with a finite-positive argument check.
inc_beta sums the hypergeometric series of the lower incomplete Beta
function (DLMF 8.17.7) on x <= 1/2 and reflects it above, elementwise
over arrays in one pass. All are cross-checked in the test suite against
arbitrary-precision references.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


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


def _check_within(name: str, v: np.ndarray, ok: np.ndarray, interval: str) -> None:
    """ValueError naming the first element of v outside the interval."""
    if not ok.all():
        bad = float(v[~ok].flat[0])
        raise ValueError(f"{name} must lie in {interval}, got {bad!r}")


# B(p, q) of each reflected element; the elements share few (p, q)
_beta_each = np.frompyfunc(lru_cache(maxsize=64)(beta_fn), 2, 1)
_K = np.arange(1.0, 64.0)  # the series' k >= 1


def _series(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x^p sum_k (1-q)_k/k! x^k/(p+k) for 1-D arrays with x <= 1/2, in one
    pass over the terms k = 1..63 along a last axis: temporaries of 504 bytes
    per element, about 194 KB for the audit's largest call (3 x 128)."""
    terms = np.subtract(_K, q[:, None])
    terms /= _K
    terms *= x[:, None]
    np.multiply.accumulate(terms, axis=-1, out=terms)
    terms /= p[:, None] + _K
    return x**p * (1.0 / p + terms.sum(axis=-1))


def inc_beta(x, p, q):
    """B_x(p, q) = int_0^x s^{p-1} (1-s)^{q-1} ds for 0 <= x <= 1 and
    0 < p, q <= 1, elementwise over the broadcast arguments; a float for
    scalar arguments.

    For x <= 1/2 it is x^p sum_k (1-q)_k/k! x^k/(p+k): every term is
    positive, as (1-q)_k/k! lies in (0, 1], and the tail after 64 terms is
    below 2^-64 of the sum. Above 1/2 it is B(p, q) - B_{1-x}(q, p): each
    element takes its own branch.
    """
    scalar = np.ndim(x) == np.ndim(p) == np.ndim(q) == 0
    x, p, q = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                    for v in (x, p, q)))
    _check_within("x", x, (0.0 <= x) & (x <= 1.0), "[0, 1]")
    for name, v in (("p", p), ("q", q)):
        _check_within(name, v, (0.0 < v) & (v <= 1.0), "(0, 1]")
    up = x > 0.5
    part = _series(np.where(up, 1.0 - x, x).ravel(), np.where(up, q, p).ravel(),
                   np.where(up, p, q).ravel()).reshape(x.shape)
    part[up] = _beta_each(p[up], q[up]).astype(float) - part[up]
    return float(part[0]) if scalar else part
