"""Solver for the linear sequential fractional system.

The system

    D^alpha f = G g + Q,   D^alpha g = R f + V     (order alpha in (1/2,1))

is solved through its weakly singular Volterra representation

    f(x) = f_a (x-a)^{alpha-1} + (1/Gamma(alpha)) int_a^x (G g + Q)(s) (x-s)^{alpha-1} ds

and symmetrically for g, with (f, g) sought in the weighted space of
exponent 1 - alpha. The coefficients G, Q, R, V are functions of the
node array: each solve calls each of them once on the grid nodes (a
scalar result stands for a constant), so they are written with numpy
functions. The production solve is a causal marching scheme in blocks
of nodes: the history of the product-integration quadrature enters a
block as one product, and the block's own coupling is solved by forward
substitution through its Schur complement. It needs no contraction
condition.

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
_BLOCK = 32  # rows per block of the marching solve and the residual product
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
    """Causal solve in blocks of _BLOCK nodes. The history, with the
    block's own free terms, enters as one product with omega; the block
    coupling wf = F + A wg, wg = H + C wf is solved through its Schur
    complement (I - A C) wf = F + A H. I - A C is lower triangular with
    diagonal det_i = 1 - (pf_i omega_ii)^2 G_i R_i, checked up front.
    A block with non-finite inputs ends the solve, leaving NaN behind."""
    n = omega.shape[0] - 1
    wf = np.full(n + 1, np.nan)
    wg = np.full(n + 1, np.nan)
    wf[0], wg[0] = f_a, g_a
    U = np.column_stack((wq, wv))  # columns uh = G wg + wq, uk = R wf + wv
    U[0] += (Gv[0] * g_a, Rv[0] * f_a)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = pf * np.diagonal(omega)
        det = 1.0 - (d * Gv) * (d * Rv)
        bad = np.flatnonzero(np.abs(det[1:]) < 1e-12)
        if bad.size:
            i = int(bad[0]) + 1
            raise ConvergenceError(f"marching step singular at node {i} (det={det[i]})")
        for i0 in range(1, n + 1, _BLOCK):
            s = slice(i0, min(i0 + _BLOCK, n + 1))
            hist = omega[s, :s.stop] @ U[:s.stop]
            po = pf[s, None] * omega[s, s]
            A, C = po * Gv[s], po * Rv[s]
            H = g_a + pf[s] * hist[:, 1]
            M = np.eye(s.stop - i0) - A @ C
            rhs = f_a + pf[s] * hist[:, 0] + A @ H
            if not (np.isfinite(M).all() and np.isfinite(rhs).all()):
                break
            wf[s] = np.linalg.solve(M, rhs)
            wg[s] = H + C @ wf[s]
            U[s, 0] = Gv[s] * wg[s] + wq[s]
            U[s, 1] = Rv[s] * wf[s] + wv[s]
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
    """Max regularized defect of the two integral equations over t_j, j >= 1;
    omega is lower triangular, so its product runs in row blocks over it."""
    U = np.column_stack((Gv * wg + wq, Rv * wf + wv))
    hist = np.empty_like(U)
    for i0 in range(0, U.shape[0], _BLOCK):
        s = slice(i0, i0 + _BLOCK)
        hist[s] = omega[s, :s.stop] @ U[:s.stop]
    df = wf - (wf[0] + pf * hist[:, 0])
    dg = wg - (wg[0] + pf * hist[:, 1])
    return float(max(np.abs(df[1:]).max(), np.abs(dg[1:]).max()))


def solve_system(coeffs: CoefficientSet, order: Order, f_a: float, g_a: float,
                 grid: GradedGrid, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 scheme: str = "marching") -> SolveReport:
    """Solve the coupled integral system on the grid.

    scheme: "marching" (the default) solves block by block along the grid
    and needs no contraction condition; tol and max_iter do not apply to
    it. "picard" iterates the fixed-point map, records its increments and
    raises ConvergenceError when it stalls or diverges.
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
