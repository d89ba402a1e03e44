"""Riemann-Liouville operators via product integration.

The central object is the weight matrix Omega of the weakly singular map

    (Q_{beta,A} f)(t_i) = int_a^{t_i} A(s) f(s) (t_i - s)^{-beta} ds,

acting on functions stored through their regularized part
W(s) = (s-a)^gamma f(s). On each grid cell the smooth factor
u(s) = A(s) W(s) is taken piecewise linear and integrated exactly against
the kernel (s-a)^{-gamma} (t_i-s)^{-beta}:

  * the single cell of the first target (both kernel endpoints singular)
    has closed-form Beta moments,
  * cells touching exactly one singular endpoint are mapped by the
    substitution that removes it (sigma = h u^{1/(1-e)} for endpoint
    exponent e) and then integrated by 16-point Gauss-Legendre,
  * interior cells use plain 16-point Gauss-Legendre.

Building Omega costs O(n^2) kernel evaluations; applying it is a
triangular matrix-vector product, so repeated applications (Picard
iterations, residuals) are cheap. The substitution s = a + L sigma maps
the graded grid on [a, a+L] onto the one on [0, 1] and leaves the hat
functions unchanged, so Omega on [a, a+L] is L^{1-beta-gamma} times the
unit-interval matrix. Only that unit matrix is built and cached, per
(n, r, beta, gamma); kernel_matrix returns it with the scalar factor,
which callers fold into a factor they apply anyway.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfn import beta_fn, gamma_fn
from .weighted import GradedGrid, WeightedFn, build_grid, from_samples

_GX, _GW = leggauss(16)
_GX = 0.5 * (_GX + 1.0)  # nodes on (0, 1)
_GW = 0.5 * _GW


def _cell_rules(nodes: np.ndarray, a: float, gamma: float):
    """Per-cell sample points and weights for the two linear hat functions,
    with the (s-a)^{-gamma} factor folded in (exactly on the cell at a)."""
    n = nodes.size - 1
    h = np.diff(nodes)
    S = nodes[:-1, None] + h[:, None] * _GX[None, :]
    wts = _GW[None, :] * h[:, None] * (S - a) ** (-gamma) if gamma > 0.0 \
        else _GW[None, :] * h[:, None] * np.ones_like(S)
    if gamma > 0.0:
        # first cell: substitution s = a + h0 u^{1/(1-gamma)} removes the
        # left singularity; jacobian absorbs (s-a)^{-gamma} exactly
        s0 = a + h[0] * _GX ** (1.0 / (1.0 - gamma))
        S[0] = s0
        wts[0] = _GW * (h[0] ** (1.0 - gamma) / (1.0 - gamma))
    V0 = wts * (nodes[1:, None] - S) / h[:, None]
    V1 = wts * (S - nodes[:-1, None]) / h[:, None]
    return S, V0, V1


def _build_matrix(nodes: np.ndarray, a: float, beta: float, gamma: float) -> np.ndarray:
    n = nodes.size - 1
    h = np.diff(nodes)
    S, V0, V1 = _cell_rules(nodes, a, gamma)
    sub = _GX ** (1.0 / (1.0 - beta))  # right-endpoint substitution nodes
    omega = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        ti = nodes[i]
        if i == 1:
            # doubly singular cell [a, t_1]: exact Beta moments
            pref = (ti - a) ** (1.0 - beta - gamma)
            omega[1, 0] = pref * beta_fn(1.0 - gamma, 2.0 - beta)
            omega[1, 1] = pref * beta_fn(2.0 - gamma, 1.0 - beta)
            continue
        m = i - 1
        kern = (ti - S[:m]) ** (-beta)
        b0 = np.einsum("jg,jg->j", V0[:m], kern)
        b1 = np.einsum("jg,jg->j", V1[:m], kern)
        # last cell [t_{i-1}, t_i]: kernel singular at its right end
        hl = h[m]
        s = ti - hl * sub
        wl = _GW * (hl ** (1.0 - beta) / (1.0 - beta)) * (s - a) ** (-gamma)
        bl0 = float(wl @ ((ti - s) / hl))
        bl1 = float(wl @ ((s - nodes[m]) / hl))
        row = omega[i]
        row[0] = b0[0]
        row[1:m] = b1[: m - 1] + b0[1:]
        row[m] += b1[m - 1] + bl0
        row[i] += bl1
    return omega


@lru_cache(maxsize=6)
def _matrix_cached(n: int, r: float, beta: float, gamma: float) -> np.ndarray:
    mat = _build_matrix(build_grid(0.0, 1.0, n, r).nodes, 0.0, beta, gamma)
    mat.setflags(write=False)
    return mat


def kernel_matrix(grid: GradedGrid, beta: float,
                  gamma: float) -> tuple[np.ndarray, float]:
    """(Omega, scale) with (Q u)(t_i) = scale * sum_k Omega[i, k] u_k for
    u = nodal A*W; Omega is the cached [0, 1] matrix, scale = L^{1-beta-gamma}."""
    unit = _matrix_cached(grid.n, grid.r, float(beta), float(gamma))
    return unit, grid.length ** (1.0 - beta - gamma)


def _check_regime(beta: float, gamma: float) -> None:
    if not (0.0 < beta < 1.0):
        raise ValueError(f"kernel exponent beta must lie in (0, 1), got {beta!r}")
    if beta + gamma > 1.0 + 1e-14:
        raise ValueError(
            f"outside the estimate regime: beta + gamma = {beta + gamma!r} > 1")


def q_operator(w: WeightedFn, A: Callable[[float], float], beta: float) -> WeightedFn:
    """(Q_{beta,A} f)(t) = int_a^t A(s) f(s) (t-s)^{-beta} ds on the grid.

    Requires beta + gamma <= 1. The result is continuous on [a, c] and is
    returned with weight exponent 0; its limit at a is 0 for
    beta + gamma < 1 and A(a) w_0 B(1-gamma, 1-beta) at equality.
    """
    _check_regime(beta, w.gamma)
    nodes = w.grid.nodes
    u = np.asarray([A(t) for t in nodes], dtype=float) * w.reg_samples
    omega, scale = kernel_matrix(w.grid, beta, w.gamma)
    vals = scale * (omega @ u)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("singular-kernel quadrature produced non-finite values")
    if beta + w.gamma >= 1.0 - 1e-14:
        vals[0] = u[0] * beta_fn(1.0 - w.gamma, 1.0 - beta)
    else:
        vals[0] = 0.0
    return from_samples(vals, 0.0, w.grid)


def rl_integral(w: WeightedFn, mu: float) -> WeightedFn:
    """Fractional integral I^mu f = (1/Gamma(mu)) int_a^t f(s) (t-s)^{mu-1} ds."""
    if not (0.0 < mu < 1.0):
        raise ValueError(f"integral order must lie in (0, 1), got {mu!r}")
    res = q_operator(w, lambda s: 1.0, 1.0 - mu)
    return from_samples(res.reg_samples / gamma_fn(mu), 0.0, w.grid)


def _piece_integral(a: float, x: float, beta: float, gamma: float,
                    s0: float, s1: float, v0: float, v1: float) -> float:
    """int_{s0}^{s1} v(s) (s-a)^{-gamma} (x-s)^{-beta} ds for linear v with
    endpoint values v0, v1; a <= s0 < s1 <= x. Endpoint singularities
    (s0 = a, s1 = x) are removed by power substitutions."""
    h = s1 - s0
    if s0 == a and s1 == x:
        pref = (x - a) ** (1.0 - beta - gamma)
        return pref * (v0 * beta_fn(1.0 - gamma, 2.0 - beta)
                       + v1 * beta_fn(2.0 - gamma, 1.0 - beta))
    if s0 == a and gamma > 0.0:
        s = a + h * _GX ** (1.0 / (1.0 - gamma))
        wts = _GW * (h ** (1.0 - gamma) / (1.0 - gamma)) * (x - s) ** (-beta)
    elif s1 == x:
        s = x - h * _GX ** (1.0 / (1.0 - beta))
        wts = _GW * (h ** (1.0 - beta) / (1.0 - beta)) * (s - a) ** (-gamma)
    else:
        s = s0 + h * _GX
        wts = _GW * h * (s - a) ** (-gamma) * (x - s) ** (-beta)
    return float(wts @ (v0 * (s1 - s) / h + v1 * (s - s0) / h))


def _split_toward(s0: float, s1: float, x: float) -> list[float]:
    """Breakpoints of [s0, s1] geometrically refined toward s1, matched to
    the distance x - s1 of the kernel singularity beyond the right edge."""
    d = x - s1
    pts = [s1]
    edge = s1 - 4.0 * d
    while edge > s0 + 0.25 * (s1 - s0):
        pts.append(edge)
        edge = s1 - 4.0 * (s1 - edge)
    pts.append(s0)
    return pts[::-1]


def q_at(w: WeightedFn, A: Callable[[float], float], beta: float, x: float) -> float:
    """(Q_{beta,A} f)(x) at an arbitrary point x in (a, c].

    Same product integration as the matrix path: full cells below x use
    the precomputable rules and the cut cell containing x gets its own
    right-endpoint substitution (or the exact Beta moments when it also
    touches a). The cell just before the cut one is subdivided toward its
    right edge whenever x sits close past it, where the kernel is steep.
    """
    _check_regime(beta, w.gamma)
    grid = w.grid
    a, nodes = grid.a, grid.nodes
    if not (a < x <= grid.c):
        raise ValueError(f"x={x!r} outside (a, c] = ({a}, {grid.c}]")
    gamma = w.gamma
    u = np.asarray([A(t) for t in nodes], dtype=float) * w.reg_samples
    k = int(np.searchsorted(nodes, x, side="left")) - 1  # nodes[k] < x <= nodes[k+1]
    total = 0.0
    if k >= 2:
        S, V0, V1 = _cell_rules(nodes[:k], a, gamma)
        kern = (x - S) ** (-beta)
        total += float(np.einsum("jg,jg->j", V0, kern) @ u[: k - 1]
                       + np.einsum("jg,jg->j", V1, kern) @ u[1:k])
    if k >= 1:
        # cell [t_{k-1}, t_k]: refine toward the right edge if x is near it
        s0, s1 = nodes[k - 1], nodes[k]
        pts = _split_toward(s0, s1, x) if (x - s1) < (s1 - s0) else [s0, s1]
        for p0, p1 in zip(pts[:-1], pts[1:]):
            f0, f1 = (p0 - s0) / (s1 - s0), (p1 - s0) / (s1 - s0)
            total += _piece_integral(
                a, x, beta, gamma, p0, p1,
                u[k - 1] + f0 * (u[k] - u[k - 1]),
                u[k - 1] + f1 * (u[k] - u[k - 1]))
    # cut cell [t_k, x]; u restricted there is still linear
    frac = (x - nodes[k]) / (nodes[k + 1] - nodes[k])
    total += _piece_integral(a, x, beta, gamma, nodes[k], x,
                             u[k], u[k] + frac * (u[k + 1] - u[k]))
    return total


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


def kernel_integral(lo: float, hi: float, a: float, t: float,
                    beta: float, gamma: float, n_sub: int = 64) -> float:
    """int_lo^hi (t-s)^{-beta} (s-a)^{-gamma} ds for a <= lo < hi <= t.

    Reference integrator for the inequality audits: the range is split
    into n_sub cells graded quadratically toward any singular endpoint
    (s = a on the left, s = t on the right), each cell handled by the same
    substitution + Gauss machinery as the operator matrices.
    """
    if not (a <= lo < hi <= t):
        raise ValueError("need a <= lo < hi <= t")
    left_sing = lo == a and gamma > 0.0
    right_sing = hi == t
    u = np.linspace(0.0, 1.0, n_sub + 1)
    if left_sing and right_sing:
        pts = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * u))  # cluster both ends
    elif left_sing:
        pts = lo + (hi - lo) * u**2
    elif right_sing:
        pts = hi - (hi - lo) * (1.0 - u) ** 2
    else:
        pts = lo + (hi - lo) * u
    total = 0.0
    for s0, s1 in zip(pts[:-1], pts[1:]):
        h = s1 - s0
        if s0 == a and s1 == t:
            total += (t - a) ** (1.0 - beta - gamma) * beta_fn(1.0 - gamma, 1.0 - beta)
        elif s0 == a and gamma > 0.0:
            s = a + h * _GX ** (1.0 / (1.0 - gamma))
            total += (h ** (1.0 - gamma) / (1.0 - gamma)) * float(
                _GW @ (t - s) ** (-beta))
        elif s1 == t:
            s = t - h * _GX ** (1.0 / (1.0 - beta))
            total += (h ** (1.0 - beta) / (1.0 - beta)) * float(
                _GW @ (s - a) ** (-gamma))
        else:
            s = s0 + h * _GX
            total += h * float(_GW @ ((t - s) ** (-beta) * (s - a) ** (-gamma)))
    return total
