"""Solver for the linear sequential fractional system.

The system

    D^alpha f = G g + Q,   D^alpha g = R f + V     (order alpha in (1/2,1))

is solved through its weakly singular Volterra representation

    f(x) = f_a (x-a)^{alpha-1} + (1/Gamma(alpha)) int_a^x (G g + Q)(s) (x-s)^{alpha-1} ds

and symmetrically for g, with (f, g) sought in the weighted space of
exponent 1 - alpha. The coefficients G, Q, R, V are functions of the
node array: each solve calls each of them once on the grid nodes (a
scalar result stands for a constant), so they are written with numpy
functions. The production solve is a causal marching scheme: at
each node it solves a 2x2 system for the two regularized unknowns, using
the history weights of the product-integration quadrature. It needs no
contraction condition.

Picard iteration of the same discrete system, seeded with the free
terms, mirrors the fixed-point argument behind the bound. It is kept as
the contraction probe (its increment ratios measure the contraction
factor) and as an oracle for marching; when it stalls or diverges it
raises ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .specfn import gamma_fn
from .rlops import kernel_matrix
from .weighted import GradedGrid, Order, WeightedFn, from_samples

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
_DIVERGE_FACTOR = 1e12
SCHEMES = ("picard", "marching")
Coefficient = Callable[[np.ndarray], "np.ndarray | float"]


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the general system. Each is called once per solve
    with the array of grid nodes and returns the values there, or a
    scalar for a constant; write them with numpy functions (np.cos, not
    math.cos)."""

    G: Coefficient
    Q: Coefficient
    R: Coefficient
    V: Coefficient


@dataclass(frozen=True)
class SolveReport:
    """Converged solution pair and solve diagnostics.

    increment_norms holds the full weighted norms of successive Picard
    increments (empty for marching, which also reports 0 iterations);
    their ratios measure the observed contraction factor.
    """

    f: WeightedFn
    g: WeightedFn
    iterations: int
    residual: float
    method: str
    increment_norms: tuple[float, ...] = ()


def _node_data(coeffs: CoefficientSet, order: Order, grid: GradedGrid,
               scale: float):
    """Nodal coefficients and free terms; the prefactor pf carries the
    kernel_matrix scale, so pf * (omega @ u) is the scaled operator."""
    t = grid.nodes
    a = grid.a
    ga = order.gamma
    Gv, Rv, Qv, Vv = (np.broadcast_to(np.asarray(fn(t), dtype=float), t.shape)
                      for fn in (coeffs.G, coeffs.R, coeffs.Q, coeffs.V))
    pw = np.zeros_like(t)
    pw[1:] = (t[1:] - a) ** ga
    # free-term weights of the inhomogeneities, regularized: (t-a)^{1-alpha} Q(t)
    wq = Qv * pw
    wv = Vv * pw
    pf = np.zeros_like(t)
    pf[1:] = scale * (t[1:] - a) ** ga / gamma_fn(order.alpha)
    return Gv, Rv, wq, wv, pf


def _marching(omega, Gv, Rv, wq, wv, pf, f_a, g_a):
    n = omega.shape[0] - 1
    wf = np.empty(n + 1)
    wg = np.empty(n + 1)
    wf[0], wg[0] = f_a, g_a
    uh = np.empty(n + 1)
    uk = np.empty(n + 1)
    uh[0] = Gv[0] * g_a + wq[0]
    uk[0] = Rv[0] * f_a + wv[0]
    for i in range(1, n + 1):
        d = omega[i, i]
        rf = f_a + pf[i] * (omega[i, :i] @ uh[:i] + d * wq[i])
        rg = g_a + pf[i] * (omega[i, :i] @ uk[:i] + d * wv[i])
        cf = pf[i] * d * Gv[i]
        cg = pf[i] * d * Rv[i]
        det = 1.0 - cf * cg
        if abs(det) < 1e-12:
            raise ConvergenceError(f"marching step singular at node {i} (det={det})")
        wf[i] = (rf + cf * rg) / det
        wg[i] = (rg + cg * rf) / det
        uh[i] = Gv[i] * wg[i] + wq[i]
        uk[i] = Rv[i] * wf[i] + wv[i]
    return wf, wg


def _picard(omega, Gv, Rv, wq, wv, pf, f_a, g_a, tol, max_iter):
    """Fixed-point iteration seeded with the free terms; returns the
    samples and the sup-norms of the successive increments."""
    wf = np.full(omega.shape[0], float(f_a))
    wg = np.full(omega.shape[0], float(g_a))
    increments: list[float] = []
    for _ in range(max_iter):
        nf = f_a + pf * (omega @ (Gv * wg + wq))
        ng = g_a + pf * (omega @ (Rv * wf + wv))
        inc = float(max(np.abs(nf - wf).max(), np.abs(ng - wg).max()))
        wf, wg = nf, ng
        increments.append(inc)
        if not math.isfinite(inc) or inc > _DIVERGE_FACTOR * (increments[0] + 1.0):
            break
        if inc <= tol:
            return wf, wg, increments
    raise ConvergenceError(
        f"Picard iteration did not reach tol={tol} within {max_iter} "
        f"iterations (last increment {increments[-1]:.3e})")


def _defect(omega, Gv, Rv, wq, wv, pf, wf, wg) -> float:
    """Max regularized defect of the two integral equations over t_j, j >= 1."""
    df = wf - (wf[0] + pf * (omega @ (Gv * wg + wq)))
    dg = wg - (wg[0] + pf * (omega @ (Rv * wf + wv)))
    return float(max(np.abs(df[1:]).max(), np.abs(dg[1:]).max()))


def solve_system(coeffs: CoefficientSet, order: Order, f_a: float, g_a: float,
                 grid: GradedGrid, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 scheme: str = "marching") -> SolveReport:
    """Solve the coupled integral system on the grid.

    scheme: "marching" (the default) solves node by node and needs no
    contraction condition; tol and max_iter do not apply to it. "picard"
    iterates the fixed-point map, records its increments and raises
    ConvergenceError when it stalls or diverges.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    ga = order.gamma
    omega, scale = kernel_matrix(grid, 1.0 - order.alpha, ga)
    data = _node_data(coeffs, order, grid, scale)
    if scheme == "picard":
        wf, wg, increments = _picard(omega, *data, f_a, g_a, tol, max_iter)
    else:
        wf, wg = _marching(omega, *data, f_a, g_a)
        increments = []
    if not (np.all(np.isfinite(wf)) and np.all(np.isfinite(wg))):
        raise FloatingPointError(f"{scheme} solve produced non-finite samples")
    return SolveReport(f=from_samples(wf, ga, grid), g=from_samples(wg, ga, grid),
                       iterations=len(increments),
                       residual=_defect(omega, *data, wf, wg), method=scheme,
                       increment_norms=tuple(increments))


def residual(coeffs: CoefficientSet, order: Order, report: SolveReport) -> float:
    """Max regularized defect of the two integral equations over the nodes
    t_j, j >= 1, when the solution pair is substituted back."""
    grid = report.f.grid
    omega, scale = kernel_matrix(grid, 1.0 - order.alpha, order.gamma)
    return _defect(omega, *_node_data(coeffs, order, grid, scale),
                   report.f.reg_samples, report.g.reg_samples)


def solve_fite(P: Coefficient, order: Order, f_a: float, g_a: float,
               grid: GradedGrid, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               scheme: str = "marching") -> SolveReport:
    """Solve D^alpha(D^alpha f) + P f = 0 via the equivalent system with
    G = 1, Q = 0, R = -P, V = 0. The returned g is D^alpha f by construction."""
    coeffs = CoefficientSet(G=lambda s: 1.0, Q=lambda s: 0.0,
                            R=lambda s: -P(s), V=lambda s: 0.0)
    return solve_system(coeffs, order, f_a, g_a, grid, tol, max_iter, scheme)


def solve_relax_osc(P_const: float, V: Coefficient, order: Order,
                    f_a: float, g_a: float, grid: GradedGrid,
                    tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                    scheme: str = "marching") -> SolveReport:
    """Forced relaxation-oscillation equation D^alpha(D^alpha f) + P f = V(t)
    with a constant coefficient P > 0."""
    if not (P_const > 0.0):
        raise ValueError(f"P must be a positive constant, got {P_const!r}")
    coeffs = CoefficientSet(G=lambda s: 1.0, Q=lambda s: 0.0,
                            R=lambda s: -P_const, V=V)
    return solve_system(coeffs, order, f_a, g_a, grid, tol, max_iter, scheme)
