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

from .specfn import beta_fn
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


def q_operator(w: WeightedFn, A: Callable[[np.ndarray], np.ndarray | float],
               beta: float) -> WeightedFn:
    """(Q_{beta,A} f)(t) = int_a^t A(s) f(s) (t-s)^{-beta} ds on the grid.

    A is called once on the node array, as the sfde coefficients are (a
    scalar result stands for a constant). Requires beta + gamma <= 1.
    The result is continuous on [a, c] and is returned with weight
    exponent 0; its limit at a is 0 for beta + gamma < 1 and
    A(a) w_0 B(1-gamma, 1-beta) at equality.
    """
    _check_regime(beta, w.gamma)
    u = np.asarray(A(w.grid.nodes), dtype=float) * w.reg_samples
    omega, scale = kernel_matrix(w.grid, beta, w.gamma)
    vals = scale * (omega @ u)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("singular-kernel quadrature produced non-finite values")
    if beta + w.gamma >= 1.0 - 1e-14:
        vals[0] = u[0] * beta_fn(1.0 - w.gamma, 1.0 - beta)
    else:
        vals[0] = 0.0
    return from_samples(vals, 0.0, w.grid)


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
