"""Explicit constant chain and the Fite-type lower bound.

The chain is used in one regime: kernel exponents beta = gamma = 1 - alpha
and one Hoelder exponent p > 1 with (1-alpha) p < 1/2 (the paper's second
exponent v equals p), where holder_params checks p and returns its
conjugate q = p/(p-1). With gamma = 1 - alpha and L the interval length,
the chain reads

    c = 2^{2 gamma - 1/p} / (1 - gamma p)^{1/p}
    C = 4 c
    D = C L^{alpha-1/q} + B(alpha, alpha) L^{2 alpha - 1}
    E = (D / Gamma(alpha)) max(L^{1/q}, L^{1-alpha})

Only in this regime is D independent of the window start, which is what
makes the final inequality a statement about L = c - a alone:

    m L^alpha max(L^{1/q}, L^{1-alpha}) / min(L^{1/q}, L^{1-alpha})
        >= Gamma(alpha) / (2^{2(2-alpha)} + B(alpha, alpha))

whenever a nontrivial solution pair vanishes somewhere in the window
(f at one point, its order-alpha derivative at another). With
d = |1/q - (1-alpha)| the left side is the pure power m L^{alpha-d} below
L = 1 and m L^{alpha+d} above, so the minimal admissible length has a
closed form, and the free exponent p is optimal where d is smallest.

audit_estimates re-derives every inequality of the chain numerically on
randomized instances, including the two steps that are only used en route
(the kernel-difference estimates and the window-dependent raw form of D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AuditFailure, ConfigError
from .specfn import beta_fn, gamma_fn
from .rlops import kernel_integral, kernel_matrix
from .weighted import Order, build_grid

_CLAMP_EPS = 1e-6
_AUDIT_SLACK = 1.0 + 1e-6


# ---------------------------------------------------------------------------
# constant chain
# ---------------------------------------------------------------------------

def holder_params(order: Order, p: float) -> float:
    """Conjugate q = p/(p-1) of an exponent of the specialized regime,
    which needs p > 1 and (1-alpha) p < 1/2."""
    if not (p > 1.0):
        raise ConfigError("p", f"must exceed 1, got {p!r}")
    if order.gamma * p >= 0.5:
        raise ConfigError(
            "p", f"inadmissible: need (1-alpha) p < 1/2, got {order.gamma * p!r}")
    return p / (p - 1.0)


def small_c(order: Order, p: float) -> float:
    """c = 2^{2 gamma - 1/p} / (1 - gamma p)^{1/p} with gamma = 1 - alpha."""
    holder_params(order, p)
    ga = order.gamma
    return 2.0 ** (2.0 * ga - 1.0 / p) / (1.0 - ga * p) ** (1.0 / p)


def big_C(order: Order, p: float) -> float:
    """C = 2 [c(p, beta, gamma) + c(v, gamma, beta)] = 4 c at beta = gamma, v = p."""
    return 4.0 * small_c(order, p)


def big_D(order: Order, p: float, length: float) -> float:
    """Window-independent D at beta = gamma = 1 - alpha:
    D = C L^{alpha-1/q} + B(alpha, alpha) L^{2 alpha - 1}."""
    q = holder_params(order, p)
    return (big_C(order, p) * length ** (order.alpha - 1.0 / q)
            + beta_fn(order.alpha, order.alpha) * length ** (2.0 * order.alpha - 1.0))


def big_E(order: Order, p: float, length: float) -> float:
    """E = (D / Gamma(alpha)) max(L^{1/q}, L^{1-alpha}); E m < 1 is the
    contraction regime of the Picard map of the fixed-point argument."""
    mx = max(length ** (1.0 / holder_params(order, p)), length ** order.gamma)
    return big_D(order, p, length) / gamma_fn(order.alpha) * mx


# ---------------------------------------------------------------------------
# the Fite-type inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Both sides of the length inequality for one instance."""

    alpha: float
    p_used: float
    m: float
    length: float
    lhs: float
    rhs: float
    satisfied: bool
    min_length: float


def fite_rhs(order: Order) -> float:
    """Gamma(alpha) / (2^{2(2-alpha)} + B(alpha, alpha)); free of p and m."""
    al = order.alpha
    return gamma_fn(al) / (2.0 ** (2.0 * (2.0 - al)) + beta_fn(al, al))


def fite_lhs(order: Order, p: float, m: float, length: float) -> float:
    """m L^alpha max(L^{1/q}, L^{1-alpha}) / min(L^{1/q}, L^{1-alpha})."""
    if m < 0.0:
        raise ValueError(f"m must be nonnegative, got {m!r}")
    if not (length > 0.0):
        raise ValueError(f"length must be positive, got {length!r}")
    u = length ** (1.0 / holder_params(order, p))
    v = length ** order.gamma
    return m * length ** order.alpha * max(u, v) / min(u, v)


def min_length(order: Order, m: float, p: float) -> float:
    """Unique length at which the bound becomes active, in closed form.

    With d = |1/q - (1-alpha)| the left side is m L^{alpha-d} for L < 1 and
    m L^{alpha+d} for L >= 1. Both exponents are positive on the admissible
    set, so it is strictly increasing and lhs = rhs has the single root
    (rhs/m)^{1/(alpha-d)} when rhs/m < 1 and (rhs/m)^{1/(alpha+d)} otherwise.
    """
    if not (0.0 < m < math.inf):
        raise ConfigError("m", f"must be positive and finite, got {m!r}")
    d = abs(1.0 / holder_params(order, p) - order.gamma)
    ratio = fite_rhs(order) / m  # inf for a tiny m: the division does not raise
    try:
        root = ratio ** (1.0 / (order.alpha - d if ratio < 1.0 else order.alpha + d))
    except OverflowError:
        root = math.inf
    if root == math.inf:
        raise ConfigError("m", f"the minimal length for m={m!r} overflows")
    return root


def best_min_length(order: Order, m: float) -> tuple[float, float]:
    """Tightest certificate: (p*, min_length at p*) over admissible p.

    On either branch of min_length a smaller d = |1/q - (1-alpha)| gives a
    longer root, and d = |alpha - 1/p| falls as p rises to 1/alpha. For
    alpha > 2/3 the point p = 1/alpha (d = 0) is admissible, so p* = 1/alpha.
    Otherwise 1/alpha lies beyond the admissible range p < 1/(2(1-alpha)),
    and p* is its upper end, clamped by _CLAMP_EPS so that p* stays strictly
    admissible; the inequality holds at the open boundary by continuity.
    Within about 1e-6 of alpha = 1/2 the clamped range is empty, and p* is
    the midpoint of the admissible range (1, 1/(2(1-alpha))).
    """
    p_lo = 1.0 + _CLAMP_EPS
    p_hi = (1.0 - _CLAMP_EPS) / (2.0 * order.gamma)
    if p_hi > p_lo:
        p_star = min(max(1.0 / order.alpha, p_lo), p_hi)
    else:
        p_star = 0.5 * (1.0 + 0.5 / order.gamma)
    return p_star, min_length(order, m, p_star)


def bound_report(order: Order, p: float, m: float, length: float) -> BoundReport:
    """Evaluate the inequality at a fixed exponent; satisfied <=> lhs >= rhs."""
    lhs = fite_lhs(order, p, m, length)
    rhs = fite_rhs(order)
    return BoundReport(alpha=order.alpha, p_used=p, m=m, length=length,
                       lhs=lhs, rhs=rhs, satisfied=lhs >= rhs,
                       min_length=min_length(order, m, p))


# ---------------------------------------------------------------------------
# randomized inequality audit
# ---------------------------------------------------------------------------

AUDITED = ("kernel_product", "kernel_window", "kernel_difference",
           "uniform_continuity", "subadditive_power", "weighted_continuity",
           "chain_D", "chain_E")

_AUDIT_N = 96


@dataclass(frozen=True)
class AuditReport:
    trials: int
    passes: dict[str, int]


def _assert_le(name: str, lhs: float, rhs: float, seed: int, trial: int) -> None:
    if not (lhs <= rhs * _AUDIT_SLACK):
        raise AuditFailure(name, seed, trial, f"lhs={lhs!r} > rhs={rhs!r}")


def audit_estimates(order: Order, p: float, trials: int, seed: int) -> AuditReport:
    """Numerically audit the inequality chain on randomized instances.

    Each trial draws an interval [a, c], a window start b, two points
    t1 <= t2 in [b, c] on the trial grid, a bounded coefficient A and a
    weighted function f (both random piecewise linear), all with
    beta = gamma = 1 - alpha and the given p. The operator checks apply
    rows of the product-integration matrix Omega; kernel_window and
    kernel_difference take the closed-form kernel_integral. Trial k
    draws its instance from SeedSequence([seed, k]) alone, so the first
    `trials` trials of a seed are the same in every run. Raises
    AuditFailure, naming the seed and the trial, on the first violated
    inequality; otherwise every trial checked and passed every inequality.
    """
    q = holder_params(order, p)
    if trials < 0:
        raise ConfigError("trials", f"must be >= 0, got {trials!r}")
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed!r}")
    ga = order.gamma
    beta = ga
    al = order.alpha
    # trial-independent factors of the right-hand sides
    b_kernel = beta_fn(1.0 - ga, 1.0 - beta)
    csum = 2.0 * small_c(order, p)
    Cconst = 2.0 * csum
    b_alpha = beta_fn(al, al)
    two_pow = 2.0 ** (2.0 * (2.0 - al))
    e_const = (two_pow + b_alpha) / gamma_fn(al)
    # Omega depends on n and r only: every trial grid shares this one
    unit = kernel_matrix(build_grid(0.0, 1.0, _AUDIT_N, 2.0), beta, ga)[0].dense()
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        a = rng.uniform(-2.0, 2.0)
        length = rng.uniform(0.3, 3.0)
        c = a + length
        grid = build_grid(a, c, _AUDIT_N, 2.0)
        b = a + rng.uniform(0.02, 0.3) * length
        eligible = np.flatnonzero(grid.nodes >= b)
        i1, i2 = np.sort(rng.choice(eligible, size=2, replace=False))
        t1, t2 = grid.nodes[i1], grid.nodes[i2]

        A_nodes = rng.uniform(-3.0, 3.0, grid.n + 1)
        W_nodes = rng.uniform(-3.0, 3.0, grid.n + 1)
        sup_A = float(np.abs(A_nodes).max())
        norm_f = float(np.abs(W_nodes).max())

        scale = kernel_matrix(grid, beta, ga)[1]
        rows = scale * unit[[i1, i2]]
        q1, q2 = rows @ (A_nodes * W_nodes)

        # (kernel_product) |Q_{beta,A} f|(t) <= (t-a)^{1-beta-gamma} B(...) |A| |f|
        lhs = float(rows[1] @ np.abs(A_nodes * W_nodes))
        rhs = (t2 - a) ** (1.0 - beta - ga) * b_kernel * sup_A * norm_f
        _assert_le("kernel_product", lhs, rhs, seed, trial)

        ratio = (t2 - t1) / (t2 - a)
        rhs_kernel = (t2 - a) ** (1.0 - beta - ga) * csum * ratio ** (1.0 / q)

        # (kernel_window) int_{t1}^{t2} kernel <= split-and-Hoelder bound
        lhs = kernel_integral(t1, t2, a, t2, beta, ga)
        _assert_le("kernel_window", lhs, rhs_kernel, seed, trial)

        # (kernel_difference) int_a^{t1} kernel-difference <= same bound
        lhs = (kernel_integral(a, t1, a, t1, beta, ga)
               - kernel_integral(a, t1, a, t2, beta, ga))
        _assert_le("kernel_difference", lhs, rhs_kernel, seed, trial)

        # (uniform_continuity) |Qf(t1) - Qf(t2)| <= C (t2-a)^{...} (t2-t1)^{1/q} |A| |f|
        lhs = abs(q1 - q2)
        rhs = (Cconst * (t2 - a) ** (1.0 - beta - ga - 1.0 / q)
               * (t2 - t1) ** (1.0 / q) * sup_A * norm_f)
        _assert_le("uniform_continuity", lhs, rhs, seed, trial)

        # (subadditive_power) (x + y)^e <= x^e + y^e for e in (0, 1)
        x, y = rng.uniform(0.0, 5.0, 2)
        e = rng.uniform(0.05, 0.95)
        _assert_le("subadditive_power", (x + y) ** e, x**e + y**e, seed, trial)

        # (weighted_continuity) raw window-dependent form of D
        expo = 1.0 - beta - ga - 1.0 / q
        d_raw = (Cconst * length ** beta * ((b - a) ** expo + length ** expo)
                 + length ** (1.0 - beta - ga) * b_kernel)
        lhs = abs((t1 - a) ** beta * q1 - (t2 - a) ** beta * q2)
        rhs = (d_raw * sup_A * norm_f
               * max((t2 - t1) ** (1.0 / q), (t2 - t1) ** beta))
        _assert_le("weighted_continuity", lhs, rhs, seed, trial)

        # (chain_D) D <= [2^{2(2-alpha)} + B(alpha,alpha)] L^alpha / min(...)
        dd = big_D(order, p, length)
        step1 = (two_pow * length ** (al - 1.0 / q)
                 + b_alpha * length ** (2.0 * al - 1.0))
        _assert_le("chain_D", dd, step1, seed, trial)
        mn = min(length ** (1.0 / q), length ** (1.0 - al))
        step2 = (two_pow + b_alpha) * length ** al / mn
        _assert_le("chain_D", step1, step2, seed, trial)

        # (chain_E) E <= [2^{2(2-alpha)} + B(alpha,alpha)]/Gamma(alpha)
        #               * L^alpha max(...)/min(...)
        ee = big_E(order, p, length)
        mx = max(length ** (1.0 / q), length ** (1.0 - al))
        rhs = e_const * length ** al * mx / mn
        _assert_le("chain_E", ee, rhs, seed, trial)
    return AuditReport(trials, dict.fromkeys(AUDITED, trials))
