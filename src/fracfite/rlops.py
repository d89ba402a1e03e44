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

Omega is built in blocks of _ROW_BLOCK rows with no per-row Python work.
Far from its rows, a row block's 6-point far sums are analytic in t, so
nested blocks of 32 * 2^l rows evaluate them at _CHEB Chebyshev points
only and interpolate to their rows with one matrix product (the
kernel-independent interpolation of black-box fast multipole methods and
H-matrices); a block takes the cells at least _ETA of its widths away
that its parent block does not. At _ETA = 2 the interpolant converges
like 9.9^-k, below the 6-point rule's own error at k = 16. The build thus
makes O(n log n) far-field power evaluations, plus the 16-point near band
and one dense product per block. Applying Omega is a
triangular matrix-vector product, so repeated applications (marching
history products, residuals) are cheap. The substitution s = a + L sigma / n^r
maps the grid a + L (j/n)^r onto the nodes t_j = j^r, which do not depend on
n, and leaves the hat functions unchanged: Omega on [a, a+L] is
(L / n^r)^{1-beta-gamma} times the leading (n+1) x (n+1) block of the matrix
on j^r for any larger n. Only that matrix is built, one per (r, beta, gamma),
grown by its new rows when a larger n is asked for, and the last one is
cached: callers ask for one key in runs (a sweep's cells at one alpha, a
solve at n then 2n). kernel_matrix returns the block with the scalar factor,
which callers fold into a factor they apply anyway.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfn import beta_fn, inc_beta
from .weighted import GradedGrid


def _gauss01(points: int):
    """Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w


_GX, _GW = _gauss01(16)  # near cells and the singular end cells
_FX, _FW = _gauss01(6)   # far cells

_ROW_BLOCK = 32   # rows of Omega built together
_FAR_GAP = 4      # cell j is far from row i when i-1-j > _FAR_GAP ...
_FAR_RATIO = 3.5  # ... and t_j - a >= _FAR_RATIO h_j (j >= 8 at r = 2)
_CHEB = 16        # Chebyshev points per interpolating row block
_ETA = 2.0        # a block [T0, T0 + w] interpolates cells left of T0 - _ETA w
_CHEB_X = 0.5 * (1.0 - np.cos(np.pi * np.arange(_CHEB) / (_CHEB - 1)))  # on [0, 1]
_CHEB_W = np.r_[0.5, np.ones(_CHEB - 2), 0.5] * (-1.0) ** np.arange(_CHEB)  # barycentric


def _cell_rules(nodes: np.ndarray, gamma: float, gx: np.ndarray, gw: np.ndarray):
    """Per-cell sample points and weights of the Gauss rule (gx, gw) for the
    two linear hat functions, with the s^{-gamma} factor folded in (exactly
    on the cell at nodes[0] = 0)."""
    h = np.diff(nodes)
    S = nodes[:-1, None] + h[:, None] * gx[None, :]
    wts = gw[None, :] * h[:, None] * S ** (-gamma)
    # first cell: substitution s = h0 u^{1/(1-gamma)} removes the left
    # singularity; jacobian absorbs s^{-gamma} exactly (identity at gamma = 0)
    S[0] = h[0] * gx ** (1.0 / (1.0 - gamma))
    wts[0] = gw * (h[0] ** (1.0 - gamma) / (1.0 - gamma))
    V0 = wts * (nodes[1:, None] - S) / h[:, None]
    V1 = wts * (S - nodes[:-1, None]) / h[:, None]
    return S, V0, V1


def _chebyshev_interp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The _CHEB Chebyshev extreme points tau of [x[0], x[-1]], ends exact,
    and the (x.size, _CHEB) matrix that maps values at tau to the
    interpolating polynomial's values at x (barycentric form). A row whose
    x is a point of tau is a unit row."""
    tau = x[0] + (x[-1] - x[0]) * _CHEB_X
    tau[-1] = x[-1]
    d = x[:, None] - tau
    hit = d == 0.0
    lag = _CHEB_W / np.where(hit, 1.0, d)
    on = hit.any(axis=1)
    lag[on] = hit[on]
    return tau, lag / lag.sum(axis=1, keepdims=True)


def _fill(omega: np.ndarray, nodes: np.ndarray, beta: float, gamma: float,
          lo: int) -> None:
    """Rows lo..n of Omega on the nodes t_j = j^r into omega, (n+1)^2.

    Cell j <= i-2 adds its two hat integrals to columns j and j+1 of row i;
    the cell ending at t_i and the first row use their end-point rules. The
    blocks of 32 * 2^l rows from row 2 keep their nominal size: rows past n
    are evaluated and dropped, so no row's arithmetic depends on n.
    """
    hi = omega.shape[0]
    if lo <= 1:  # doubly singular cell [0, t_1 = 1]: exact Beta moments
        omega[1, 0] = beta_fn(1.0 - gamma, 2.0 - beta)
        omega[1, 1] = beta_fn(2.0 - gamma, 1.0 - beta)
    reach = nodes[:hi + _ROW_BLOCK]  # the cells the row blocks touch
    S, V0, V1 = _cell_rules(reach, gamma, _GX, _GW)
    SF, F0, F1 = (x.T.copy() for x in _cell_rules(reach, gamma, _FX, _FW))
    # t_j / h_j grows with j on a graded grid: cells far from a are a tail
    away = np.flatnonzero(reach[:-1] >= _FAR_RATIO * np.diff(reach))
    first = int(away[0]) if away.size else reach.size

    def cuts(size: int) -> np.ndarray:
        """Per block of `size` rows [i0, i0 + size): the end of the far cells
        first..J-1 that end at or before t_{i0} - _ETA (t_{i0+size-1} - t_{i0})."""
        i0 = np.arange(2, hi, size)
        lim = nodes[i0] - _ETA * (nodes[i0 + size - 1] - nodes[i0])
        J = np.searchsorted(nodes[1:], lim, side="right")
        return np.clip(J, first, np.maximum(first, i0 - 1 - _FAR_GAP))

    def kept(i0: int, i1: int) -> slice:
        """The rows of block [i0, i1) that this fill writes, from i0."""
        return slice(max(lo, i0) - i0, min(hi, i1) - i0)

    def far(i0: int, i1: int, c0: int, c1: int, interpolate: bool) -> None:
        """Add the 6-point integrals of cells c0..c1-1 to rows i0..i1-1,
        evaluated at the rows themselves or, to interpolate, at _CHEB
        Chebyshev points of [t_{i0}, t_{i1-1}]."""
        x = nodes[i0:i1]
        tau, lag = _chebyshev_interp(x) if interpolate else (x, None)
        K = np.power(np.subtract(tau[:, None, None], SF[:, c0:c1]), -beta)
        P = np.zeros((tau.size, c1 - c0 + 1))  # columns c0..c1
        P[:, :-1] = np.einsum("mgc,gc->mc", K, F0[:, c0:c1])
        P[:, 1:] += np.einsum("mgc,gc->mc", K, F1[:, c0:c1])
        k = kept(i0, i1)
        rows = slice(i0 + k.start, i0 + k.stop)
        if lag is None:
            omega[rows, c0:c1 + 1] += P[k]
            return
        # no other cells reach columns c0+1..c1-1: write them in place
        if k.stop - k.start == i1 - i0:
            np.matmul(lag, P[:, 1:-1], out=omega[rows, c0 + 1:c1])
        else:
            omega[rows, c0 + 1:c1] = (lag @ P[:, 1:-1])[k]
        omega[rows, [c0, c1]] += (lag @ P[:, [0, -1]])[k]

    # A block of 32 * 2^l rows [i0, i1) takes the far cells that end _ETA of
    # its widths t_{i1-1} - t_{i0} or more left of t_{i0}, less those its
    # parent (the block of twice the rows holding it) takes; a first block
    # takes none. Admissibility is a prefix in j, so each block takes one
    # range of cells. The 32-row blocks evaluate the far cells left over,
    # those too close to interpolate, at their rows.
    leaf = cuts(_ROW_BLOCK)
    size, cut = _ROW_BLOCK, leaf
    while size < hi - 2:
        parent = cuts(2 * size)
        for b in range(max(0, (lo - 2) // size), cut.size):
            if cut[b] > parent[b // 2]:  # interpolating pays with 2 _CHEB rows
                i0 = 2 + b * size
                far(i0, i0 + size, int(parent[b // 2]), int(cut[b]), True)
        size, cut = 2 * size, parent

    for b in range(max(0, (lo - 2) // _ROW_BLOCK), leaf.size):
        i0, i1 = 2 + b * _ROW_BLOCK, 2 + (b + 1) * _ROW_BLOCK
        k = kept(i0, i1)
        i = np.arange(i0, i1)
        # cell [t_{i-1}, t_i] of each row: kernel singular at its right end
        t, tl = nodes[i0:i1, None], nodes[i0 - 1:i1 - 1, None]
        hl = t - tl
        s = t - hl * _GX ** (1.0 / (1.0 - beta))
        wl = _GW * (hl ** (1.0 - beta) / (1.0 - beta)) * s ** (-gamma)
        omega[i[k], i[k] - 1] = np.einsum("ig,ig->i", wl, (t - s) / hl)[k]
        omega[i[k], i[k]] = np.einsum("ig,ig->i", wl, (s - tl) / hl)[k]
        edge = i0 - 1 - _FAR_GAP  # cells from here on are near some row
        if edge > leaf[b]:
            far(i0, i1, int(leaf[b]), edge, False)
        near = np.r_[0:first, edge:i1 - 2] if edge > first else np.arange(i1 - 2)
        inside = near <= i[:, None] - 2  # cell j ends at or before t_{i-1}
        K = np.where(inside[..., None], t[..., None] - S[near], 1.0) ** (-beta)
        m = np.searchsorted(near, hi - 2)  # the cells of rows below hi
        for j, V in ((near[:m], V0), (near[:m] + 1, V1)):
            omega[i[k, None], j] += (inside * np.einsum("icg,cg->ic", K, V[near]))[k, :m]


class _Omega:
    """Omega on the nodes t_j = j^r for one (r, beta, gamma)."""

    def __init__(self, r: float, beta: float, gamma: float):
        self.r, self.beta, self.gamma = r, beta, gamma
        self.mat = np.zeros((0, 0))

    def upto(self, n: int) -> np.ndarray:
        """Omega for n cells, a read-only view; grows it by the new rows."""
        m = self.mat.shape[0]
        if m <= n:
            new = np.zeros((n + 1, n + 1))
            for i0 in range(0, m, _ROW_BLOCK):  # the lower triangle, by row blocks
                i1 = min(i0 + _ROW_BLOCK, m)
                new[i0:i1, :i1] = self.mat[i0:i1, :i1]
            self.mat = np.zeros((0, 0))  # the old rows go before the new are built
            nodes = np.arange(2 * n + 2 * _ROW_BLOCK, dtype=float) ** self.r
            _fill(new, nodes, self.beta, self.gamma, m)
            new.setflags(write=False)
            self.mat = new
        return self.mat[:n + 1, :n + 1]


_matrix_cached = lru_cache(maxsize=1)(_Omega)  # keyed on (r, beta, gamma)


def node_scale(n: int, r: float) -> float:
    """n^r, the last of the nodes t_j = j^r that Omega for n cells is built
    on. ValueError when a node the build reads, up to j = 2n + 63, overflows."""
    try:
        float(2 * n + 2 * _ROW_BLOCK - 1) ** r
    except OverflowError:
        raise ValueError(f"the kernel nodes j^r overflow at n={n}, r={r!r}") from None
    return float(n) ** r


def kernel_matrix(grid: GradedGrid, beta: float,
                  gamma: float) -> tuple[np.ndarray, float]:
    """(Omega, scale) with (Q u)(t_i) = scale * sum_k Omega[i, k] u_k for
    u = nodal A*W; Omega is a view of the cached matrix on the nodes j^r,
    scale = (L / n^r)^{1-beta-gamma}. A grid whose r is not >= 1, or whose
    nodes j^r overflow (see node_scale), raises ValueError."""
    if not grid.r >= 1.0:
        raise ValueError(f"need a graded grid a + L (j/n)^r, got r={grid.r!r}")
    e = 1.0 - beta - gamma
    scale = grid.length ** e / node_scale(grid.n, grid.r) ** e
    return _matrix_cached(grid.r, float(beta), float(gamma)).upto(grid.n), scale


def kernel_integral(lo: float, hi: float, a: float, t: float,
                    beta: float, gamma: float) -> float:
    """int_lo^hi (t-s)^{-beta} (s-a)^{-gamma} ds for a <= lo < hi <= t.

    Reference integral for the inequality audits, in closed form: with
    x = (s-a)/(t-a) it is (t-a)^{1-beta-gamma} [B_x(1-gamma, 1-beta)] from
    x_lo to x_hi (DLMF 8.17). When lo lies in the upper half of [a, t] it
    is taken from the other end, B_{1-x}(1-beta, 1-gamma) from 1-x_hi to
    1-x_lo, with 1-x = (t-s)/(t-a) so that the digits near t survive.
    Requires 0 < beta < 1, 0 <= gamma < 1 and finite arguments.
    """
    if not all(math.isfinite(x) for x in (lo, hi, a, t, beta, gamma)):
        raise ValueError("kernel_integral arguments must be finite")
    if not (a <= lo < hi <= t):
        raise ValueError("need a <= lo < hi <= t")
    if not (0.0 < beta < 1.0 and 0.0 <= gamma < 1.0):
        raise ValueError(f"need 0 < beta < 1 and 0 <= gamma < 1, "
                         f"got beta={beta!r}, gamma={gamma!r}")
    w = t - a
    if lo - a > t - lo:
        part = (inc_beta((t - lo) / w, 1.0 - beta, 1.0 - gamma)
                - inc_beta((t - hi) / w, 1.0 - beta, 1.0 - gamma))
    else:
        part = (inc_beta((hi - a) / w, 1.0 - gamma, 1.0 - beta)
                - inc_beta((lo - a) / w, 1.0 - gamma, 1.0 - beta))
    return w ** (1.0 - beta - gamma) * part
