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
from .rlops import kernel_integral, kernel_matrix, kernel_scale
from .weighted import Order, build_grid, graded_nodes

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

# bound_report's record (perfbench/tracing.py patches it by name); ROADMAP item 4 deletes it
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
    the midpoint of the admissible range (1, 1/(2(1-alpha))). Within
    rounding of 1/2 that range holds no float, and alpha is a config error.
    """
    p_lo = 1.0 + _CLAMP_EPS
    p_hi = (1.0 - _CLAMP_EPS) / (2.0 * order.gamma)
    if p_hi > p_lo:
        p_star = min(max(1.0 / order.alpha, p_lo), p_hi)
    else:
        p_star = 0.5 * (1.0 + 0.5 / order.gamma)
        if not (p_star > 1.0 and order.gamma * p_star < 0.5):  # see holder_params
            raise ConfigError("alpha", f"no float p is admissible at {order.alpha!r}")
    return p_star, min_length(order, m, p_star)


# called only by perfbench/tracing.py, which patches it by name; ROADMAP item 4 deletes it
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
# the nine (lhs, rhs) pairs that audit_sides returns, in check order;
# chain_D is checked in two steps
CHECKS = AUDITED[:7] + ("chain_D", "chain_E")

_AUDIT_N = 96
_AUDIT_R = 2.0
_AUDIT_CHUNK = 128  # trials drawn, then checked as arrays, at a time
_AUDIT_WIDTH = 2 * (_AUDIT_N + 1) + 8  # doubles in one trial's window


@dataclass(frozen=True)
class AuditReport:
    trials: int
    passes: dict[str, int]


def audit_estimates(order: Order, p: float, trials: int, seed: int) -> AuditReport:
    """Numerically audit the inequality chain on randomized instances.

    Each trial draws an interval [a, c], a window start b, two points
    t1 <= t2 in [b, c] on the trial grid, a bounded coefficient A and a
    weighted function f (both random piecewise linear), all with
    beta = gamma = 1 - alpha and the given p. The operator checks apply
    rows of the product-integration matrix Omega; kernel_window and
    kernel_difference take the closed-form kernel_integral. Trial k reads
    the k-th window of _AUDIT_WIDTH doubles of default_rng(seed) alone, so
    a seed's first `trials` trials are the same in every run, whatever the
    chunk size; they are checked _AUDIT_CHUNK at a time (audit_sides).
    Raises AuditFailure, naming the seed and the trial, on the first
    violated inequality in (trial, check) order; otherwise every trial
    checked and passed every inequality.
    """
    holder_params(order, p)
    if trials < 0:
        raise ConfigError("trials", f"must be >= 0, got {trials!r}")
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed!r}")
    for start in range(0, trials, _AUDIT_CHUNK):
        lhs, rhs = audit_sides(order, p, seed, start, min(start + _AUDIT_CHUNK, trials))
        bad = np.flatnonzero(~(lhs <= rhs * _AUDIT_SLACK))
        if bad.size:
            k, j = divmod(int(bad[0]), len(CHECKS))
            raise AuditFailure(CHECKS[j], seed, start + k,
                               f"lhs={float(lhs[k, j])!r} > rhs={float(rhs[k, j])!r}")
    return AuditReport(trials, dict.fromkeys(AUDITED, trials))


def _uniform(low: float, high: float, u):
    """rng.uniform(low, high) from the generator's doubles u, as numpy forms
    it: low + (high - low) u, high - low rounded once (0.3 - 0.02 is not
    0.28 in binary)."""
    return low + (high - low) * u


def _node_pair(u1, u2, count):
    """Distinct indices in [0, count) from uniforms u1, u2, each ordered pair
    equally likely: floor(u1 count), and floor(u2 (count-1)) stepped past
    it. The clamps keep u = 1 in range."""
    j1 = np.minimum((u1 * count).astype(np.int64), count - 1)
    j2 = np.minimum((u2 * (count - 1)).astype(np.int64), count - 2)
    return j1, j2 + (j2 >= j1)


def _audit_draws(seed: int, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """Trials start .. stop-1 of seed, one entry per trial: (a, length, b, i1,
    i2, t1, t2, A_nodes, W_nodes, x, y, e), node values as (trials, n+1).

    Trial k reads doubles k w .. (k+1) w - 1 of default_rng(seed)'s stream
    (w = _AUDIT_WIDTH): a, the length and b's fraction of it; u1, u2, which
    pick nodes t1 <= t2 (i1 < i2) at or after b (_node_pair); A's and W's
    n+1 node values; x, y, e. One generator advances to trial start's window
    (PCG64's jump-ahead) and fills the chunk's windows in one call.
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start * _AUDIT_WIDTH)
    u = rng.random((stop - start, _AUDIT_WIDTH))
    a = _uniform(-2.0, 2.0, u[:, 0])
    length = _uniform(0.3, 3.0, u[:, 1])
    b = a + _uniform(0.02, 0.3, u[:, 2]) * length
    nodes = graded_nodes(a[:, None], (a + length)[:, None], _AUDIT_N, _AUDIT_R)
    first = np.count_nonzero(nodes < b[:, None], axis=1)  # nodes first..n are >= b
    j1, j2 = _node_pair(u[:, 3], u[:, 4], _AUDIT_N + 1 - first)
    i1, i2 = first + np.minimum(j1, j2), first + np.maximum(j1, j2)
    each = np.arange(stop - start)
    A_nodes, W_nodes = np.split(_uniform(-3.0, 3.0, u[:, 5:-3]), 2, axis=1)
    return (a, length, b, i1, i2, nodes[each, i1], nodes[each, i2], A_nodes,
            W_nodes, _uniform(0.0, 5.0, u[:, -3]), _uniform(0.0, 5.0, u[:, -2]),
            _uniform(0.05, 0.95, u[:, -1]))


def audit_sides(order: Order, p: float, seed: int, start: int,
                stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs), two (stop - start) x 9 arrays: the sides of the CHECKS
    for trials start .. stop-1 of seed.

    The chunk's instances are drawn first (_audit_draws); every quantity
    derived from them, the two Omega-row products among them, and the nine
    inequalities are then evaluated for all the trials at once.
    """
    q = holder_params(order, p)
    ga = order.gamma
    beta = ga
    al = order.alpha
    a, length, b, i1, i2, t1, t2, A_nodes, W_nodes, x, y, e = _audit_draws(seed, start, stop)
    # Omega depends on n and r only: every trial grid shares this one, scaled
    unit = kernel_matrix(build_grid(0.0, 1.0, _AUDIT_N, _AUDIT_R), beta, ga).dense()
    scale = kernel_scale((a + length) - a, _AUDIT_N, _AUDIT_R, beta, ga)  # c - a
    rows = scale[:, None, None] * unit[np.stack((i1, i2), axis=1)]
    AW = A_nodes * W_nodes
    # one matrix-vector and one vector product per trial, stacked: each
    # rounds as the same product of one trial's rows alone
    q1, q2 = (rows @ AW[:, :, None])[:, :, 0].T
    kp = (rows[:, 1:] @ np.abs(AW)[:, :, None])[:, 0, 0]
    sup_A, norm_f = np.abs(A_nodes).max(axis=1), np.abs(W_nodes).max(axis=1)

    def weighted(t, qt):
        # weighted_continuity's lhs is the difference of two of these; they
        # are taken on floats, since the difference would magnify the
        # last-bit rounding of an array power
        return np.array([(s - u) ** beta * v
                         for s, u, v in zip(t.tolist(), a.tolist(), qt.tolist())])

    wq1, wq2 = weighted(t1, q1), weighted(t2, q2)
    # trial-independent factors of the right-hand sides
    b_kernel = beta_fn(1.0 - ga, 1.0 - beta)
    csum = 2.0 * small_c(order, p)
    Cconst = 2.0 * csum
    b_alpha = beta_fn(al, al)
    two_pow = 2.0 ** (2.0 * (2.0 - al))
    e_const = (two_pow + b_alpha) / gamma_fn(al)
    ek = 1.0 - beta - ga
    span = t2 - t1
    rhs_kernel = (t2 - a) ** ek * csum * (span / (t2 - a)) ** (1.0 / q)
    expo = ek - 1.0 / q
    # the raw window-dependent form of D
    d_raw = (Cconst * length ** beta * ((b - a) ** expo + length ** expo)
             + length ** ek * b_kernel)
    dd = big_D(order, p, length)
    step1 = two_pow * length ** (al - 1.0 / q) + b_alpha * length ** (2.0 * al - 1.0)
    mn = np.minimum(length ** (1.0 / q), length ** (1.0 - al))
    mx = np.maximum(length ** (1.0 / q), length ** (1.0 - al))
    window, inner, outer = kernel_integral(  # one call; each element rounds as alone
        np.stack((t1, a, a)), np.stack((t2, t1, t1)), a, np.stack((t2, t1, t2)), beta, ga)
    lhs = (
        # (kernel_product) |Q_{beta,A} f|(t) <= (t-a)^{1-beta-gamma} B(...) |A| |f|
        kp,
        # (kernel_window) int_{t1}^{t2} kernel <= split-and-Hoelder bound
        window,
        # (kernel_difference) int_a^{t1} kernel-difference <= same bound
        inner - outer,
        # (uniform_continuity) |Qf(t1) - Qf(t2)| <= C (t2-a)^{...} (t2-t1)^{1/q} |A| |f|
        np.abs(q1 - q2),
        # (subadditive_power) (x + y)^e <= x^e + y^e for e in (0, 1)
        (x + y) ** e,
        # (weighted_continuity) with the raw form of D
        np.abs(wq1 - wq2),
        # (chain_D) D <= [2^{2(2-alpha)} + B(alpha,alpha)] L^alpha / min(...),
        # in two steps
        dd,
        step1,
        # (chain_E) E <= [2^{2(2-alpha)} + B(alpha,alpha)]/Gamma(alpha)
        #               * L^alpha max(...)/min(...), E as big_E forms it
        dd / gamma_fn(al) * mx,
    )
    rhs = (
        (t2 - a) ** ek * b_kernel * sup_A * norm_f,
        rhs_kernel,
        rhs_kernel,
        Cconst * (t2 - a) ** expo * span ** (1.0 / q) * sup_A * norm_f,
        x**e + y**e,
        d_raw * sup_A * norm_f * np.maximum(span ** (1.0 / q), span**beta),
        step1,
        (two_pow + b_alpha) * length**al / mn,
        e_const * length**al * mx / mn,
    )
    return np.stack(lhs, axis=1), np.stack(rhs, axis=1)
