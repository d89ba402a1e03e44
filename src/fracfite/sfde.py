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
needs no contraction condition. The history carries the kernel's scale,
so no product on the raw nodes j^r, larger by (n^r)^{1-beta-gamma}, is
formed. The equation is linear and homogeneous, so each solve marches
only the (1, 0) and (0, 1) solutions (a 4-column history) and forms k
initial data, samples and rows of omega @ U, as one product of them;
each datum's residual comes from its own rows. Cells whose grids share
n and r (a sweep's cells at one alpha) differ only in the kernel's
scale, R and pf, so solve_cells marches them together: one walk over the
operator for all their 4-column histories, and one stacked solve per
block. A solved cell is its columns, (n+1, k) samples of f and of g and
k residuals; solve_batch, the march of one cell, alone wraps them in
SolveReports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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
    data (f_a, g_a) = (1, 0) and (0, 1) of C cells at once, cell c with
    scale[c], R[c] and pf[c] (shapes (C,), (C, n+1), (C, n+1)); returns wf,
    wg of shape (C, n+1, 2) and full = omega @ U of shape (C, n+1, 4). The
    history U = scale * (wg, R wf), four columns per cell, carries the
    kernel_matrix scale, so no product on the raw nodes j^r is formed,
    enters a block through one omega.blocks walk for all cells, and gives
    full its rows once the block is solved. The block coupling
    wf = F + A wg, wg = H + C wf is solved through its Schur complement
    (I - A C) wf = F + A H, one solve of the C stacked systems with two
    right-hand sides each. I - A C does not depend on the data; it is lower
    triangular, and its diagonal det_i = 1 - (pf_i scale omega_ii)^2 R_i is
    checked before the block's solve. A block with non-finite inputs, or one
    the pivoted solve finds singular, in any cell fails the solve."""
    n = omega.n
    cells = scale.size
    wf = np.empty((cells, n + 1, 2))
    wg = np.empty((cells, n + 1, 2))
    wf[:, 0], wg[:, 0] = np.eye(2)
    U = np.empty((n + 1, 4 * cells))  # per cell, :2 hold scale wg, 2: scale R wf
    full = np.zeros_like(U)  # omega @ U; row 0 of omega is zero
    scale = scale[:, None, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # row 0 as a block's rows: scale R overflows there as anywhere else
        Uc = U[:1].reshape(1, cells, 4).transpose(1, 0, 2)
        Uc[..., :2] = scale * wg[:, :1]
        Uc[..., 2:] = scale * (R[:, :1, None] * wf[:, :1])
        for s, hist, D in omega.blocks(U):
            b = s.stop - s.start
            Hc = hist.reshape(b, cells, 4).transpose(1, 0, 2)  # per cell
            A = pf[:, s, None] * (scale * D)
            C = A * R[:, None, s]
            H = wg[:, :1] + pf[:, s, None] * Hc[..., 2:]
            M = np.eye(b) - A @ C
            det = np.diagonal(M, axis1=1, axis2=2)
            bad = np.argwhere(np.abs(det) < 1e-12)
            if bad.size:
                c, i = bad[0]
                raise ConvergenceError(
                    f"marching step singular at node {s.start + i} (det={det[c, i]})")
            rhs = wf[:, :1] + pf[:, s, None] * Hc[..., :2] + A @ H
            if not (np.isfinite(M).all() and np.isfinite(rhs).all()):
                raise ConvergenceError("marching solve produced non-finite samples")
            try:
                wf[:, s] = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError as exc:  # pivoting can meet a zero pivot
                raise ConvergenceError(f"marching step singular in nodes "
                                       f"{s.start}..{s.stop - 1} ({exc})") from None
            wg[:, s] = H + C @ wf[:, s]
            Uc = U[s].reshape(b, cells, 4).transpose(1, 0, 2)
            Uc[..., :2] = scale * wg[:, s]
            Uc[..., 2:] = scale * (R[:, s, None] * wf[:, s])
            full[s] = hist + D @ U[s]
    return wf, wg, full.reshape(n + 1, cells, 4).transpose(1, 0, 2)


def _defect(pf, full, wf, wg) -> np.ndarray:
    """Max regularized defect of the two integral equations over t_j, j >= 1,
    per column of wf, wg (shape (n+1, k)), from full = omega @ U for
    U = scale * (wg, R wf); non-finite where a sample at a node >= 1 is."""
    k = wf.shape[1]
    df = wf - (wf[0] + pf[:, None] * full[:, :k])
    dg = wg - (wg[0] + pf[:, None] * full[:, k:])
    return np.maximum(np.abs(df[1:]).max(axis=0), np.abs(dg[1:]).max(axis=0))


def _data(f_a, g_a):
    """The k initial data pairs as two arrays of shape (k,)."""
    f_a, g_a = (np.asarray(v, dtype=float).reshape(-1) for v in (f_a, g_a))
    if f_a.shape != g_a.shape or not f_a.size:
        raise ValueError(f"need k >= 1 data pairs, got {f_a.size} f_a, {g_a.size} g_a")
    return f_a, g_a


def solve_cells(order: Order, cells) -> Iterator[tuple | ConvergenceError]:
    """Solve D^alpha f = g, D^alpha g = -P f for cells (P, f_a, g_a, grid)
    whose grids share n and r, in one march of all their basis columns
    (one walk of the kernel operator); yields, cell by cell and as it is
    asked for, the cell's (wf, wg, residuals) for its k data: the (n+1, k)
    regularized samples of f and of g and each column's residual, or the
    ConvergenceError that fails the cell (a non-finite sample or residual
    in any column). When the march fails, each cell is marched again alone,
    so a cell fails only on its own data, with the detail its own solve gives."""
    cells = [(P, *_data(f_a, g_a), grid) for P, f_a, g_a, grid in cells]
    if len({(g.n, g.r) for *_, g in cells}) > 1:
        raise ValueError("the cells of one march need grids of one n and r")
    ga = order.gamma
    omega, scale = zip(*(kernel_matrix(g, 1.0 - order.alpha, ga) for *_, g in cells))
    R, pf = map(np.array, zip(*(_node_data(P, order, g) for P, *_, g in cells)))
    try:
        marches = zip(*_marching(omega[0], np.array(scale), R, pf))
    except ConvergenceError as exc:
        if len(cells) == 1:
            yield exc
        else:
            for cell in cells:
                yield from solve_cells(order, [cell])
        return
    for march, p, (_, f_a, g_a, _) in zip(marches, pf, cells):
        with np.errstate(over="ignore", invalid="ignore"):
            # datum j solves as f_a[j] times the (1, 0) column plus g_a[j]
            # times the (0, 1) column, and so do its rows of omega @ U
            wf, wg, full = np.split(np.hstack(march) @ np.kron(np.eye(4), (f_a, g_a)),
                                    [f_a.size, 2 * f_a.size], axis=1)
            res = _defect(p, full, wf, wg)
        if not np.isfinite((wf, wg)).all():
            yield ConvergenceError("marching solve produced non-finite samples")
        elif not np.isfinite(res).all():
            yield ConvergenceError("marching solve has a non-finite residual")
        else:
            yield wf, wg, res


def solve_batch(P: Coefficient, order: Order, f_a, g_a,
                grid: GradedGrid) -> tuple[SolveReport, ...]:
    """Solve D^alpha f = g, D^alpha g = -P f on the grid for k initial data
    (f_a[j], g_a[j]) from one march of the basis (solve_cells); one report
    per datum. Any column whose samples or residual are not finite fails
    the batch with ConvergenceError."""
    solved, = solve_cells(order, [(P, f_a, g_a, grid)])
    if isinstance(solved, ConvergenceError):
        raise solved
    wf, wg, res = solved
    return tuple(SolveReport(f=from_samples(f, order.gamma, grid),
                             g=from_samples(g, order.gamma, grid), residual=float(r))
                 for f, g, r in zip(wf.T, wg.T, res))


# called only by perfbench/tracing.py, which patches it by name; ROADMAP item 4 deletes it
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


# called only by perfbench/tracing.py, which patches it by name; ROADMAP item 4 deletes it
def solve_fite(P: Coefficient, order: Order, f_a: float, g_a: float,
               grid: GradedGrid) -> SolveReport:
    """Solve D^alpha(D^alpha f) + P f = 0 for one initial datum; the
    returned g is D^alpha f by construction."""
    return solve_batch(P, order, f_a, g_a, grid)[0]
