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

Omega is built in blocks of _ROW_BLOCK rows with no per-row Python work,
and kept in blocks: it is never formed as an (n+1) x (n+1) array. Far from
its rows, a row block's 6-point far sums are analytic in t, so nested
blocks of 32 * 2^l rows evaluate them at _CHEB Chebyshev points only and
interpolate to their rows (the kernel-independent interpolation of
black-box fast multipole methods and H-matrices); a block takes the cells
at least _ETA of its widths away that its parent block does not. At
_ETA = 2 the interpolant converges like 9.9^-k, below the 6-point rule's
own error at k = 16. Every interpolating block, the 32-row leaves
included, is kept as its two factors, the (rows x _CHEB) interpolation
matrix and the (_CHEB x cells) sums; each 32-row leaf keeps one dense
block with its diagonal, its 16-point band and the cells left over. The
build makes O(n log n) far-field power evaluations, storage and one
application are O(n log n) too (about 11.6 MiB at n = 4096, against 128 MiB
dense), and it is applied only block by block in row order (see
KernelOperator.blocks). The substitution s = a + L sigma / n^r maps the
grid a + L (j/n)^r onto the nodes t_j = j^r, which do not depend on n,
and leaves the hat functions unchanged: Omega on [a, a+L] is
(L / n^r)^{1-beta-gamma} times the leading (n+1) x (n+1) block of the
matrix on j^r for any larger n. Only that matrix is built, one per
(r, beta, gamma), grown by its new blocks when a larger n is asked for,
and the last one is cached: a sweep's cells at one alpha, marched
together, and a solve at n then 2n ask for one key in a run. A sweep at
n = 512 and then 1024 in one process makes 6 fresh builds, 0 growths and
48 hits (each cell asks for its scale): at 1024 the entry holds the last
alpha's operator, so each alpha is built again rather than grown. An
entry per alpha would grow them, but holds every alpha's operator at
once: on the benchmark's sweep it gained about 23% in items per second
and cost 4.1 MiB (+9.1%) of peak RSS. kernel_matrix returns the
operator for n with the scalar factor, which callers fold into the data
they apply it to.
"""

from __future__ import annotations

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


class _Omega:
    """Omega on the nodes t_j = j^r for one (r, beta, gamma), in blocks.

    Row 0 is zero. The rows from 1 come in leaves: leaf q >= 1 holds the
    _ROW_BLOCK rows from i0 = 2 + 32 q, leaf 0 the rows [1, 34), row 1 being
    its two Beta moments. A leaf is (i0, h, c, near, far):
      * near, dense, over the columns [0, h) and [c, end of the leaf): the
        diagonal, the 16-point band and the far cells left over; h = c = 0
        when the two ranges meet,
      * far, the interpolating blocks of 32 * 2^l rows, l >= 0, whose first
        row is this leaf's, in order of l, each as (c0, lag, P): rows
        lag @ P over the columns c0 .. c0 + P.shape[1] - 1, never
        multiplied out.
    Every block keeps its nominal rows at any n, so no entry depends on n,
    and growth appends blocks: the operator for n does not depend on the
    n asked for before, bit for bit.
    """

    def __init__(self, r: float, beta: float, gamma: float):
        self.r, self.beta, self.gamma = r, beta, gamma
        self.leaves: list[tuple] = []
        self.n = 0  # every block whose first row is <= n is built

    def upto(self, n: int) -> "KernelOperator":
        """Omega for n cells; grows it by the blocks whose first row is new."""
        if n > self.n:
            nodes = np.arange(2 * n + 2 * _ROW_BLOCK, dtype=float) ** self.r
            self._grow(nodes, n)
            self.n = n
        return KernelOperator(self, n)

    def _grow(self, nodes: np.ndarray, n: int) -> None:
        """Append the leaves whose first row lies in self.n+1 .. n, on the
        nodes t_j = j^r.

        Cell j <= i-2 adds its two hat integrals to columns j and j+1 of row
        i; the cell ending at t_i uses its end-point rule.
        """
        beta, gamma = self.beta, self.gamma
        hi = n + 1
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

        def far(x: np.ndarray, c0: int, c1: int) -> np.ndarray:
            """The 6-point integrals of cells c0..c1-1 at the points x, over
            the columns c0..c1."""
            K = np.power(np.subtract(x[:, None, None], SF[:, c0:c1]), -beta)
            P = np.zeros((x.size, c1 - c0 + 1))
            P[:, :-1] = np.einsum("mgc,gc->mc", K, F0[:, c0:c1])
            P[:, 1:] += np.einsum("mgc,gc->mc", K, F1[:, c0:c1])
            return P

        # A block of 32 * 2^l rows [i0, i1) takes the far cells that end _ETA
        # of its widths t_{i1-1} - t_{i0} or more left of t_{i0}, less those
        # its parent (the block of twice the rows holding it) takes; a first
        # block takes none. Admissibility is a prefix in j, so each block
        # takes one range of cells, and its far sums, analytic in t, are
        # evaluated at _CHEB Chebyshev points of its t-range and kept with
        # the matrix that interpolates them to its rows. The leaves evaluate
        # the far cells left over, those too close to interpolate, at their
        # rows. cut[l] holds the cell ranges' ends for the blocks of level l.
        cut = [cuts(_ROW_BLOCK)]
        while _ROW_BLOCK << len(cut) <= 2 * hi:
            cut.append(cuts(_ROW_BLOCK << len(cut)))
        leaf = cut[0]
        for q in range(len(self.leaves), leaf.size):
            i0, i1 = 2 + q * _ROW_BLOCK, 2 + (q + 1) * _ROW_BLOCK
            lc = int(leaf[q])
            h, c = (0, 0) if lc <= first + 1 else (first + 1, lc)
            near = np.zeros((_ROW_BLOCK, h + i1 - c))  # rows i0..i1-1
            r = np.arange(_ROW_BLOCK)
            i = i0 + r
            # cell [t_{i-1}, t_i] of each row: kernel singular at its right end
            t, tl = nodes[i0:i1, None], nodes[i0 - 1:i1 - 1, None]
            hl = t - tl
            s = t - hl * _GX ** (1.0 / (1.0 - beta))
            wl = _GW * (hl ** (1.0 - beta) / (1.0 - beta)) * s ** (-gamma)
            near[r, i - 1 + h - c] = np.einsum("ig,ig->i", wl, (t - s) / hl)
            near[r, i + h - c] = np.einsum("ig,ig->i", wl, (s - tl) / hl)
            edge = i0 - 1 - _FAR_GAP  # cells from here on are near some row
            if edge > lc:
                near[:, lc + h - c:edge + 1 + h - c] += far(nodes[i0:i1], lc, edge)
            cells = np.r_[0:first, edge:i1 - 2] if edge > first else np.arange(i1 - 2)
            inside = cells <= i[:, None] - 2  # cell j ends at or before t_{i-1}
            K = np.where(inside[..., None], t[..., None] - S[cells], 1.0) ** (-beta)
            col = np.where(cells < h, cells, cells + h - c)
            for j, V in ((col, V0), (col + 1, V1)):
                near[:, j] += inside * np.einsum("icg,cg->ic", K, V[cells])
            if q == 0:  # doubly singular cell [0, t_1 = 1]: exact Beta moments
                row1 = [beta_fn(1.0 - gamma, 2.0 - beta), beta_fn(2.0 - gamma, 1.0 - beta)]
                near = np.vstack((np.r_[row1, np.zeros(i1 - 2)], near))
                i0 = 1
            blocks = []
            for lv in range(len(cut) - 1):  # the blocks of 2^lv leaves from q
                b = q >> lv
                if q % (1 << lv) or b == 0:
                    break
                c0, c1 = int(cut[lv + 1][b // 2]), int(cut[lv][b])
                if c1 > c0:  # interpolating pays with 2 _CHEB rows
                    tau, lag = _chebyshev_interp(nodes[i0:i0 + (_ROW_BLOCK << lv)])
                    blocks.append((c0, _frozen(lag), _frozen(far(tau, c0, c1))))
            self.leaves.append((i0, h, c, _frozen(near), tuple(blocks)))


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: the blocks are shared by every operator."""
    a.setflags(write=False)
    return a


class KernelOperator:
    """Omega for n cells, lower triangular: the rows 0..n of a cached
    _Omega's blocks. blocks() applies it, one small product per block,
    O(n log n) in all; dense() forms the array."""

    def __init__(self, kernel: _Omega, n: int):
        self.n = n
        self.leaves = kernel.leaves[:(n + _ROW_BLOCK - 2) // _ROW_BLOCK]

    def blocks(self, U: np.ndarray):
        """For a causal solve: per leaf s of rows, clipped to n, yield
        (s, hist, D) with hist = Omega[s, :s.start] @ U[:s.start] and
        D = Omega[s, s]. Leaf s reads U[:s.start] only when it is asked
        for, so U[s] may be filled in between."""
        n = self.n
        acc = np.zeros((n + 1, U.shape[1]))  # far field of the rows ahead
        for i0, h, c, near, far in self.leaves:
            m = min(near.shape[0], n + 1 - i0)
            for c0, lag, P in far:
                acc[i0:i0 + lag.shape[0]] += lag[:n + 1 - i0] @ (P @ U[c0:c0 + P.shape[1]])
            d = h + i0 - c  # the column of row i0 in near
            hist = near[:m, h:d] @ U[c:i0]
            hist += acc[i0:i0 + m]
            if h:
                hist += near[:m, :h] @ U[:h]
            yield slice(i0, i0 + m), hist, near[:m, d:d + m]

    def dense(self) -> np.ndarray:
        """Omega as an (n+1) x (n+1) array, summed block by block in a fixed
        order (the leaves in turn, each one's far blocks, then its near)."""
        n = self.n
        out = np.zeros((n + 1, n + 1))
        for i0, h, c, near, far in self.leaves:
            for c0, lag, P in far:
                # the whole product: BLAS may round a product of fewer rows
                # otherwise, and the matrix for n is that for N, cut
                out[i0:i0 + lag.shape[0], c0:c0 + P.shape[1]] += (lag @ P)[:n + 1 - i0]
            e = min(i0 + near.shape[0], n + 1)
            out[i0:e, :h] += near[:e - i0, :h]
            out[i0:e, c:e] += near[:e - i0, h:h + e - c]
        return out


_matrix_cached = lru_cache(maxsize=1)(_Omega)  # keyed on (r, beta, gamma)


def node_scale(n: int, r: float) -> float:
    """n^r, the last of the nodes t_j = j^r that Omega for n cells is built
    on. ValueError when the square of a node the build reads, up to
    j = 2n + 63, overflows: the cell weights are products of two spacings."""
    try:
        float(2 * n + 2 * _ROW_BLOCK - 1) ** (2.0 * r)
    except OverflowError:
        raise ValueError(f"the kernel nodes j^r overflow at n={n}, r={r!r}") from None
    return float(n) ** r


def kernel_matrix(grid: GradedGrid, beta: float,
                  gamma: float) -> tuple[KernelOperator, float]:
    """(Omega, scale) with (Q u)(t_i) = scale * (Omega @ u)_i for u = nodal
    A*W; Omega is the operator for n cells of the cached one on the nodes
    j^r, scale = (L / n^r)^{1-beta-gamma}. A grid whose r is not >= 1, or
    whose nodes j^r overflow (see node_scale), raises ValueError."""
    if not grid.r >= 1.0:
        raise ValueError(f"need a graded grid a + L (j/n)^r, got r={grid.r!r}")
    scale = kernel_scale(grid.length, grid.n, grid.r, beta, gamma)
    return _matrix_cached(grid.r, float(beta), float(gamma)).upto(grid.n), scale


def kernel_scale(length, n: int, r: float, beta: float, gamma: float):
    """The scale (L / n^r)^{1-beta-gamma} of Omega for n cells on an
    interval of length L, taken as L^e / (n^r)^e; for an array of lengths,
    the array of their scales. Each power is taken on a Python float, so
    an array's scales are bit for bit those of its lengths one at a time:
    numpy's array power may round the last bit differently."""
    e = 1.0 - beta - gamma
    unit = node_scale(n, r) ** e
    if np.ndim(length) == 0:
        return length ** e / unit
    return np.array([v ** e for v in np.asarray(length, dtype=float).tolist()]) / unit


def kernel_integral(lo, hi, a, t, beta, gamma):
    """int_lo^hi (t-s)^{-beta} (s-a)^{-gamma} ds for a <= lo < hi <= t,
    elementwise over the broadcast arguments; a float for scalar arguments.

    Reference integral for the inequality audits, in closed form: with
    x = (s-a)/(t-a) it is (t-a)^{1-beta-gamma} [B_x(1-gamma, 1-beta)] from
    x_lo to x_hi (DLMF 8.17). An element whose lo lies in the upper half of
    [a, t] is taken from the other end, B_{1-x}(1-beta, 1-gamma) from
    1-x_hi to 1-x_lo, with 1-x = (t-s)/(t-a) so that the digits near t
    survive. Requires 0 < beta < 1, 0 <= gamma < 1 and finite arguments.
    """
    args = (lo, hi, a, t, beta, gamma)
    scalar = all(np.ndim(v) == 0 for v in args)
    # a scalar call is a 1-element array call, so the two round alike
    args = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in args))
    if not all(np.isfinite(v).all() for v in args):
        raise ValueError("kernel_integral arguments must be finite")
    lo, hi, a, t, beta, gamma = args
    if not ((a <= lo) & (lo < hi) & (hi <= t)).all():
        raise ValueError("need a <= lo < hi <= t")
    ok = (0.0 < beta) & (beta < 1.0) & (0.0 <= gamma) & (gamma < 1.0)
    if not ok.all():
        b, g = (float(v[~ok].flat[0]) for v in (beta, gamma))
        raise ValueError(f"need 0 < beta < 1 and 0 <= gamma < 1, "
                         f"got beta={b!r}, gamma={g!r}")
    w = t - a
    up = lo - a > t - lo
    p, q = np.where(up, 1.0 - beta, 1.0 - gamma), np.where(up, 1.0 - gamma, 1.0 - beta)
    part = (inc_beta(np.where(up, t - lo, hi - a) / w, p, q)
            - inc_beta(np.where(up, t - hi, lo - a) / w, p, q))
    out = w ** (1.0 - beta - gamma) * part
    return float(out[0]) if scalar else out
