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
  * near cells (those within _FAR_GAP cells of the first row of their row
    block, and those close to a relative to their width) use plain
    16-point Gauss-Legendre,
  * far cells use 6-point Gauss-Legendre: there the integrand is analytic
    in a Bernstein ellipse with parameter above ~15, and the two rules
    agree to a few 1e-14 of max|Omega| (3.1e-14 at n = 4096).

Omega is built in blocks of _ROW_BLOCK rows, each one array of kernel
powers contracted against per-cell hat weights, so the build makes about
6 n^2 / 2 power evaluations and no per-row Python work; applying it is a
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


def _gauss01(points: int):
    """Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w


_GX, _GW = _gauss01(16)  # near cells and the singular end cells
_FX, _FW = _gauss01(6)   # far cells

_ROW_BLOCK = 32   # rows of Omega built together
_FAR_GAP = 4      # cell j is far from row i when i-1-j > _FAR_GAP ...
_FAR_RATIO = 3.5  # ... and t_j - a >= _FAR_RATIO h_j (j >= 8 at r = 2)


def _cell_rules(nodes: np.ndarray, a: float, gamma: float, gx: np.ndarray,
                gw: np.ndarray):
    """Per-cell sample points and weights of the Gauss rule (gx, gw) for the
    two linear hat functions, with the (s-a)^{-gamma} factor folded in
    (exactly on the cell at a)."""
    h = np.diff(nodes)
    S = nodes[:-1, None] + h[:, None] * gx[None, :]
    wts = gw[None, :] * h[:, None] * (S - a) ** (-gamma) if gamma > 0.0 \
        else gw[None, :] * h[:, None] * np.ones_like(S)
    if gamma > 0.0:
        # first cell: substitution s = a + h0 u^{1/(1-gamma)} removes the
        # left singularity; jacobian absorbs (s-a)^{-gamma} exactly
        S[0] = a + h[0] * gx ** (1.0 / (1.0 - gamma))
        wts[0] = gw * (h[0] ** (1.0 - gamma) / (1.0 - gamma))
    V0 = wts * (nodes[1:, None] - S) / h[:, None]
    V1 = wts * (S - nodes[:-1, None]) / h[:, None]
    return S, V0, V1


def _build_matrix(nodes: np.ndarray, a: float, beta: float, gamma: float) -> np.ndarray:
    """Omega on the given graded nodes, in blocks of _ROW_BLOCK rows.

    Cell j <= i-2 adds its two hat integrals to columns j and j+1 of row i;
    the cell ending at t_i and the first row use their end-point rules.
    """
    n = nodes.size - 1
    h = np.diff(nodes)
    omega = np.zeros((n + 1, n + 1))
    # doubly singular cell [a, t_1]: exact Beta moments
    pref = (nodes[1] - a) ** (1.0 - beta - gamma)
    omega[1, 0] = pref * beta_fn(1.0 - gamma, 2.0 - beta)
    omega[1, 1] = pref * beta_fn(2.0 - gamma, 1.0 - beta)
    # cell [t_{i-1}, t_i] of every row i >= 2: kernel singular at its right end
    i = np.arange(2, n + 1)
    t = nodes[2:, None]
    hl = h[1:, None]
    s = t - hl * _GX ** (1.0 / (1.0 - beta))
    wl = _GW * (hl ** (1.0 - beta) / (1.0 - beta)) * (s - a) ** (-gamma)
    omega[i, i - 1] = np.einsum("ig,ig->i", wl, (t - s) / hl)
    omega[i, i] = np.einsum("ig,ig->i", wl, (s - nodes[1:-1, None]) / hl)

    S, V0, V1 = _cell_rules(nodes, a, gamma, _GX, _GW)
    SF, F0, F1 = (x.T.copy() for x in _cell_rules(nodes, a, gamma, _FX, _FW))
    # (t_j - a) / h_j grows with j on a graded grid: cells far from a are a tail
    away = np.flatnonzero(nodes[:-1] - a >= _FAR_RATIO * h)
    first = int(away[0]) if away.size else n
    powers = np.empty((_ROW_BLOCK, _FX.size, n))  # far kernel values, every block
    for i0 in range(2, n + 1, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, n + 1)
        t = nodes[i0:i1, None, None]
        far = i0 - 1 - _FAR_GAP  # cells first..far-1 are far from every row
        if far > first:
            c = slice(first, far)
            K = powers[:i1 - i0, :, :far - first]
            np.power(np.subtract(t, SF[:, c], out=K), -beta, out=K)
            omega[i0:i1, c] += np.einsum("igc,gc->ic", K, F0[:, c])
            omega[i0:i1, first + 1:far + 1] += np.einsum("igc,gc->ic", K, F1[:, c])
            near = np.r_[0:first, far:i1 - 2]
        else:
            near = np.arange(i1 - 2)
        rows = np.arange(i0, i1)[:, None]
        inside = near <= rows - 2  # cell j ends at or before t_{i-1}
        K = np.where(inside[..., None], t - S[near], 1.0) ** (-beta)
        omega[rows, near] += inside * np.einsum("icg,cg->ic", K, V0[near])
        omega[rows, near + 1] += inside * np.einsum("icg,cg->ic", K, V1[near])
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
