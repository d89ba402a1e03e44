"""Solver for the sequential fractional equation D^alpha(D^alpha f) + P f = 0.

With g = D^alpha f the equation is the system

    D^alpha f = g,   D^alpha g = -P f     (order alpha in (1/2,1))

solved through its weakly singular Volterra representation

    f(x) = f_a (x-a)^{alpha-1} + (1/Gamma(alpha)) int_a^x g(s) (x-s)^{alpha-1} ds

and symmetrically for g, with (f, g) sought in the weighted space of
exponent 1 - alpha. The coefficient P is a function of the node array:
each solve calls it once on the grid nodes (a scalar result stands for a
constant), so it is written with numpy functions. The solve is a causal
marching scheme on the kernel operator's row blocks (rows [1, 34), then
32 rows at a time): the history of the product-integration quadrature
enters a block through the operator's blocks (rlops.KernelOperator.blocks),
and the block's own coupling is solved through its lower-triangular Schur
complement by an LU solve with partial pivoting (np.linalg.solve). It
needs no contraction condition. The history
carries the kernel's scale, so no product on the raw nodes j^r, larger by
(n^r)^{1-beta-gamma}, is formed. The equation is linear and homogeneous,
so each solve marches only the (1, 0) and (0, 1) solutions (a 4-column
history) and forms k initial data, samples and rows of omega @ U, as one
product of them; each datum's residual comes from its own rows. One walk
over the operator per solve, whatever k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .specfn import gamma_fn
from .rlops import kernel_matrix
from .weighted import GradedGrid, Order, WeightedFn, from_samples

Coefficient = Callable[[np.ndarray], "np.ndarray | float"]


@dataclass(frozen=True)
class SolveReport:
    """Solution pair of one marching solve and its residual: the max
    regularized defect of the two integral equations over the nodes."""

    f: WeightedFn
    g: WeightedFn
    residual: float


def _node_data(P: Coefficient, order: Order, grid: GradedGrid):
    """R = -P on the nodes and the prefactor pf = (t-a)^gamma / Gamma(alpha),
    so pf * (Q u) is the term of the integral equations."""
    t = grid.nodes
    R = np.broadcast_to(-np.asarray(P(t), dtype=float), t.shape)
    pf = np.zeros_like(t)
    pf[1:] = (t[1:] - grid.a) ** order.gamma / gamma_fn(order.alpha)
    return R, pf


def _marching(omega, scale, R, pf):
    """Causal solve on the blocks of the kernel operator omega for the basis
    data (f_a, g_a) = (1, 0) and (0, 1); returns wf, wg of shape (n+1, 2)
    and full = omega @ U. The history U = scale * (wg, R wf) carries the
    kernel_matrix scale, so no product on the raw nodes j^r is formed,
    enters a block through omega.blocks, and gives full its rows once the
    block is solved. The block coupling wf = F + A wg, wg = H + C wf is
    solved through its Schur complement (I - A C) wf = F + A H, one solve
    with two right-hand sides. I - A C does not depend on the data; it is
    lower triangular, and its diagonal det_i = 1 - (pf_i scale omega_ii)^2
    R_i is checked before the block's solve. A block with non-finite inputs,
    or one the pivoted solve finds singular, fails the solve."""
    n = omega.n
    wf = np.empty((n + 1, 2))
    wg = np.empty((n + 1, 2))
    wf[0], wg[0] = np.eye(2)
    U = np.empty((n + 1, 4))  # columns :2 hold scale wg, 2: scale R wf
    U[0, :2] = scale * wg[0]
    U[0, 2:] = scale * (R[0] * wf[0])
    full = np.zeros_like(U)  # omega @ U; row 0 of omega is zero
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s, hist, D in omega.blocks(U):
            A = pf[s, None] * (scale * D)
            C = A * R[s]
            H = wg[0] + pf[s, None] * hist[:, 2:]
            M = np.eye(s.stop - s.start) - A @ C
            det = np.diagonal(M)
            bad = np.flatnonzero(np.abs(det) < 1e-12)
            if bad.size:
                i = int(bad[0])
                raise ConvergenceError(
                    f"marching step singular at node {s.start + i} (det={det[i]})")
            rhs = wf[0] + pf[s, None] * hist[:, :2] + A @ H
            if not (np.isfinite(M).all() and np.isfinite(rhs).all()):
                raise ConvergenceError("marching solve produced non-finite samples")
            try:
                wf[s] = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError as exc:  # pivoting can meet a zero pivot
                raise ConvergenceError(f"marching step singular in nodes "
                                       f"{s.start}..{s.stop - 1} ({exc})") from None
            wg[s] = H + C @ wf[s]
            U[s, :2] = scale * wg[s]
            U[s, 2:] = scale * (R[s, None] * wf[s])
            full[s] = hist + D @ U[s]
    return wf, wg, full


def _defect(pf, full, wf, wg) -> np.ndarray:
    """Max regularized defect of the two integral equations over t_j, j >= 1,
    per column of wf, wg (shape (n+1, k)), from full = omega @ U for
    U = scale * (wg, R wf); non-finite where a sample at a node >= 1 is."""
    k = wf.shape[1]
    df = wf - (wf[0] + pf[:, None] * full[:, :k])
    dg = wg - (wg[0] + pf[:, None] * full[:, k:])
    return np.maximum(np.abs(df[1:]).max(axis=0), np.abs(dg[1:]).max(axis=0))


def solve_batch(P: Coefficient, order: Order, f_a, g_a,
                grid: GradedGrid) -> tuple[SolveReport, ...]:
    """Solve D^alpha f = g, D^alpha g = -P f on the grid for k initial data
    (f_a[j], g_a[j]) from one march of the basis; one report per datum.
    The solve succeeds only when every column's residual is finite; any
    failure of any column fails the batch with ConvergenceError."""
    f_a = np.asarray(f_a, dtype=float).reshape(-1)
    g_a = np.asarray(g_a, dtype=float).reshape(-1)
    if f_a.shape != g_a.shape or not f_a.size:
        raise ValueError(f"need k >= 1 data pairs, got {f_a.size} f_a, {g_a.size} g_a")
    ga = order.gamma
    kernel = kernel_matrix(grid, 1.0 - order.alpha, ga)
    R, pf = _node_data(P, order, grid)
    k = f_a.size
    with np.errstate(over="ignore", invalid="ignore"):
        # datum j solves as f_a[j] times the (1, 0) column plus g_a[j] times
        # the (0, 1) column, and so do its rows of omega @ U
        wf, wg, full = np.split(np.hstack(_marching(*kernel, R, pf))
                                @ np.kron(np.eye(4), (f_a, g_a)), [k, 2 * k], axis=1)
        if not np.isfinite((wf, wg)).all():
            raise ConvergenceError("marching solve produced non-finite samples")
        res = _defect(pf, full, wf, wg)
    if not np.isfinite(res).all():
        raise ConvergenceError("marching solve has a non-finite residual")
    return tuple(SolveReport(f=from_samples(wf[:, j], ga, grid),
                             g=from_samples(wg[:, j], ga, grid),
                             residual=float(res[j]))
                 for j in range(k))


def residual(P: Coefficient, order: Order, report: SolveReport) -> float:
    """Max regularized defect of the two integral equations over the nodes
    t_j, j >= 1, when the solution pair is substituted back."""
    grid = report.f.grid
    omega, scale = kernel_matrix(grid, 1.0 - order.alpha, order.gamma)
    R, pf = _node_data(P, order, grid)
    wf, wg = report.f.reg_samples[:, None], report.g.reg_samples[:, None]
    U = scale * np.hstack((wg, R[:, None] * wf))
    full = np.zeros_like(U)
    for s, hist, D in omega.blocks(U):
        full[s] = hist + D @ U[s]
    return float(_defect(pf, full, wf, wg)[0])


def solve_fite(P: Coefficient, order: Order, f_a: float, g_a: float,
               grid: GradedGrid) -> SolveReport:
    """Solve D^alpha(D^alpha f) + P f = 0 for one initial datum; the
    returned g is D^alpha f by construction."""
    return solve_batch(P, order, f_a, g_a, grid)[0]
