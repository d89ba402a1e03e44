"""Reference oracles used only by the test suite.

None of these is called by the package's pipeline: the Mittag-Leffler
series (an arbitrary-precision solver oracle, the reason mpmath is a test
dependency) and the closed-form solution of the constant-P sequential
equation built on it, the fractional power series of the solution for a
polynomial P, the weakly singular operator q_operator on rlops'
kernel matrix and the Riemann-Liouville integral and derivative built on
it, the closed-form check of the classical second-order Fite statement,
the node-by-node marching loop that the blocked solve in sfde replaces,
Picard iteration of the discrete system sfde solves (the fixed-point map
of the bound's proof, and the oracle for marching) with the exact
contraction factor of that map, the 16-point kernel-matrix build that
the blocked build in rlops replaces, the kernel integral that
rlops.kernel_integral evaluates in closed form (from mpmath.betainc),
the randomized audit's scalar trial loop that bounds.audit_sides
evaluates as arrays (each trial's instance drawn by one rng.uniform call
per value on its own build_grid, where the audit keeps only the
generator's doubles and forms a chunk's instances at once), the weighted
sup-norms, and helpers that sample, evaluate or search weighted
functions point by point, the arcs of
directions on which a combination of two basis solutions has a zero, and
the closed-form sharp threshold kappa of the zero pair at P = 1.
"""

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

from fracfite import (AuditFailure, GradedGrid, Order, WeightedFn, beta_fn,
                      big_D, big_E, bounds, build_grid, eval_reg, find_zeros,
                      from_samples, gamma_fn, holder_params, kernel_matrix,
                      small_c)
from fracfite.errors import ConvergenceError
from fracfite.sfde import _node_data

# Mittag-Leffler series controls.
_ML_MAX_TERMS = 10_000
_ML_RTOL = 1e-16
_ML_Z_MAX = 50.0


def _ml_extra_digits(order: float, weight: float, z: float) -> int:
    """Decimal digits of cancellation headroom for the alternating series.

    For z < 0 the partial sums can exceed the limit by the magnitude of
    the largest term; summing with that many extra digits makes the
    cancellation harmless.
    """
    if z >= 0.0:
        return 0
    log_z = math.log(abs(z)) if z != 0.0 else -math.inf
    peak = 0.0
    for k in range(1, _ML_MAX_TERMS):
        lt = k * log_z - math.lgamma(order * k + weight)
        if lt > peak:
            peak = lt
        elif lt < peak - 60.0:  # far past the hump, terms only shrink
            break
    return max(0, math.ceil(peak / math.log(10.0)))


def mittag_leffler(order: float, weight: float, z: float) -> float:
    """E_{order,weight}(z) = sum_k z^k / Gamma(order*k + weight).

    Direct series summation, truncated once a term falls below 1e-16 of
    the running sum. The summation runs at elevated working precision so
    that the alternating-series cancellation for z < 0 does not eat into
    the result (at z = -10, order = 1 the partial sums overshoot by ~10
    orders of magnitude). Restricted to orders in (0, 2] and to the
    desk-scale domain |z| <= 50.
    """
    if not (0.0 < order <= 2.0):
        raise ValueError(f"order must lie in (0, 2], got {order!r}")
    if not (math.isfinite(weight) and weight > 0.0):
        raise ValueError(f"weight must be a finite positive real, got {weight!r}")
    if not math.isfinite(z) or abs(z) > _ML_Z_MAX:
        raise ValueError(f"|z| must be <= {_ML_Z_MAX}, got {z!r}")

    dps = 25 + _ml_extra_digits(order, weight, z)
    with mp.workdps(dps):
        zz = mp.mpf(z)
        total = mp.mpf(0)
        for k in range(_ML_MAX_TERMS):
            term = zz**k / mp.gamma(order * k + weight)
            total += term
            if total != 0 and abs(term) <= _ML_RTOL * abs(total):
                return float(total)
    raise ConvergenceError(
        f"Mittag-Leffler series did not converge within {_ML_MAX_TERMS} terms "
        f"(order={order}, weight={weight}, z={z})"
    )


def fite_closed_form(alpha: float, P: float, f_a: float, g_a: float,
                     t: float) -> tuple[float, float]:
    """Exact regularized parts (W_f, W_g) at distance t >= 0 from a of the
    solution of D^alpha(D^alpha f) + P f = 0 with constant P > 0 and initial
    data (f_a, g_a). With x = t P^{1/(2 alpha)}, A = E_{2a,a}(-x^{2a}) and
    B = x^a E_{2a,2a}(-x^{2a}) (a = alpha):
    W_f = Gamma(a) [f_a A + g_a P^{-1/2} B], W_g = Gamma(a) [g_a A - f_a P^{1/2} B].
    """
    x = t * P ** (1.0 / (2.0 * alpha))
    z = -x ** (2.0 * alpha)
    A = mittag_leffler(2.0 * alpha, alpha, z)
    B = x ** alpha * mittag_leffler(2.0 * alpha, 2.0 * alpha, z)
    ga = gamma_fn(alpha)
    return (ga * (f_a * A + g_a * P ** -0.5 * B),
            ga * (g_a * A - f_a * P ** 0.5 * B))


def kappa_closed_form(alpha: float, b_fraction: float) -> float:
    """The sharp threshold kappa(alpha, b_fraction) at P = 1: the least
    length L such that some solution of D^alpha(D^alpha f) + f = 0 on
    [0, L] has a zero of f and a zero of D^alpha f in [b_fraction L, L].
    With psi(x) the angle of (A, B) of fite_closed_form at P = 1, the
    solution of data (cos theta, sin theta) has W_f ~ cos(theta - psi) and
    W_g ~ sin(theta - psi), so f vanishes where psi = theta + pi/2 and g
    where psi = theta (mod pi): a window holds a zero pair for some theta
    exactly when psi spans pi/2 on it. psi increases from 0 and stays below
    pi on [0, 2] for alpha in [0.55, 0.95], so kappa is the root of
    psi(L) - psi(b_fraction L) = pi/2, bisected on [0.5, 2] to 1e-12."""
    def span(length):
        psi = []
        for x in (b_fraction * length, length):
            z = -x ** (2.0 * alpha)
            psi.append(math.atan2(x ** alpha * mittag_leffler(2.0 * alpha, 2.0 * alpha, z),
                                  mittag_leffler(2.0 * alpha, alpha, z)))
        return psi[1] - psi[0] - math.pi / 2

    lo, hi = 0.5, 2.0
    if not span(lo) < 0.0 < span(hi):
        raise ValueError(f"kappa({alpha}, {b_fraction}) is not bracketed by [0.5, 2]")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if span(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


_SERIES_DPS = 60


@dataclass(frozen=True)
class PolySeries:
    """The exact regularized parts of the solution of D^alpha(D^alpha f) +
    P f = 0 for a polynomial P, as levels of a fractional power series:
    levels[column][l] maps i to the coefficient of (t-a)^{l alpha + i} in
    W_f (column 0) or W_g (column 1)."""

    alpha: float
    levels: tuple[list[dict], list[dict]]

    def __call__(self, column: int, t: float, first: int = 0) -> float:
        """W_f or W_g at distance t >= 0 from a, summed over the levels from
        `first` on."""
        with mp.workdps(_SERIES_DPS):
            t = mp.mpf(t)
            x, total = t ** mp.mpf(self.alpha), mp.mpf(0)
            for l, terms in enumerate(self.levels[column][first:], first):
                if terms:  # sum_i c_i t^i, highest power first
                    total += x ** l * mp.polyval(
                        [terms.get(i, 0) for i in range(max(terms), -1, -1)], t)
            return float(total)


def poly_series(alpha: float, coeffs, f_a: float, g_a: float,
                levels: int) -> PolySeries:
    """Picard iteration of the Volterra system for P(t) = sum_k coeffs[k]
    (t-a)^k, exact on monomials since I^alpha (t-a)^mu = Gamma(mu+1) /
    Gamma(mu+1+alpha) (t-a)^{mu+alpha}: F_0 = f_a (t-a)^{alpha-1}, G_0 =
    g_a (t-a)^{alpha-1}, F_{l+1} = I^alpha G_l, G_{l+1} = -I^alpha (P F_l);
    f = sum F_l and g = sum G_l, to `levels` levels, at 60 digits (the
    generalised power series method of Kilbas, Srivastava & Trujillo, 2006).
    Level l holds the exponents alpha - 1 + l alpha + i, so W = (t-a)^{1-alpha}
    times it holds l alpha + i. At degree 0 this is the Mittag-Leffler form."""
    with mp.workdps(_SERIES_DPS):
        al, p = mp.mpf(alpha), [mp.mpf(c) for c in coeffs]

        def integral(terms, l):
            # I^alpha of sum c (t-a)^{(l+1) alpha - 1 + i}: the gamma ratio
            # Gamma((l+1) alpha + i) / Gamma((l+2) alpha + i), by recurrence in i
            out, ratio = {}, mp.gamma((l + 1) * al) / mp.gamma((l + 2) * al)
            for i in range(max(terms, default=-1) + 1):
                if i in terms:
                    out[i] = terms[i] * ratio
                ratio *= ((l + 1) * al + i) / ((l + 2) * al + i)
            return out

        F, G = ({0: mp.mpf(d)} if d else {} for d in (f_a, g_a))
        wf, wg = [], []
        for l in range(levels):
            wf.append(F)
            wg.append(G)
            pf = {}
            for i, c in F.items():
                for k, pk in enumerate(p):
                    pf[i + k] = pf.get(i + k, 0) + c * pk
            F, G = integral(G, l), {i: -c for i, c in integral(pf, l).items()}
    return PolySeries(alpha, (wf, wg))


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
    vals = scale * (omega.dense() @ u)
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


def classical_fite_check(P_const: float, b: float, c: float,
                         phases: int = 64) -> bool:
    """Second-order sanity oracle: for x'' + P x = 0 with constant P > 0,
    whenever x = sin(sqrt(P)(t - t0)) has a zero and x' a zero inside
    [b, c], classical theory gives (c - b) max(1, P) >= 1.

    The phase t0 is scanned over one period; windows that contain no such
    pair are vacuous and count as satisfied.
    """
    if not (P_const > 0.0):
        raise ValueError(f"P must be positive, got {P_const!r}")
    if not (b < c):
        raise ValueError("need b < c")
    w = math.sqrt(P_const)
    half = math.pi / w  # zero spacing of both x and x'
    for t0 in np.linspace(0.0, 2.0 * half, phases, endpoint=False):
        # zeros of x at t0 + k half; zeros of x' at t0 + (k + 1/2) half
        has_x = math.floor((c - t0) / half) >= math.ceil((b - t0) / half)
        has_dx = (math.floor((c - t0) / half - 0.5)
                  >= math.ceil((b - t0) / half - 0.5))
        if has_x and has_dx and (c - b) * max(1.0, P_const) < 1.0:
            return False
    return True


def marching_reference(omega, R, pf, f_a, g_a):
    """Node-by-node marching: at each node, one 2x2 solve for the two
    regularized unknowns. Takes the scaled matrix scale * omega.dense() and
    sfde._node_data's arrays."""
    n = omega.shape[0] - 1
    wf = np.empty(n + 1)
    wg = np.empty(n + 1)
    wf[0], wg[0] = f_a, g_a
    uk = np.empty(n + 1)
    uk[0] = R[0] * f_a
    for i in range(1, n + 1):
        d = omega[i, i]
        rf = f_a + pf[i] * (omega[i, :i] @ wg[:i])
        rg = g_a + pf[i] * (omega[i, :i] @ uk[:i])
        cf = pf[i] * d
        cg = pf[i] * d * R[i]
        det = 1.0 - cf * cg
        if abs(det) < 1e-12:
            raise ConvergenceError(f"marching step singular at node {i} (det={det})")
        wf[i] = (rf + cf * rg) / det
        wg[i] = (rg + cg * rf) / det
        uk[i] = R[i] * wf[i]
    return wf, wg


@dataclass(frozen=True)
class PicardReport:
    """Picard iterate and the sup-norms of its successive increments."""

    f: WeightedFn
    g: WeightedFn
    increment_norms: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.increment_norms)


def picard_reference(P, order: Order, f_a: float, g_a: float,
                     grid: GradedGrid, tol: float = 1e-10,
                     max_iter: int = 200) -> PicardReport:
    """Fixed-point iteration of the discrete system sfde.solve_batch
    marches through, seeded with the free terms. It stops once an
    increment is <= tol, and raises ConvergenceError after max_iter
    iterations or when an increment is not finite or exceeds 1e12 times
    (first increment + 1)."""
    omega, scale = kernel_matrix(grid, 1.0 - order.alpha, order.gamma)
    omega = scale * omega.dense()
    R, pf = _node_data(P, order, grid)
    wf = np.full(omega.shape[0], float(f_a))
    wg = np.full(omega.shape[0], float(g_a))
    increments: list[float] = []
    for _ in range(max_iter):
        nf = f_a + pf * (omega @ wg)
        ng = g_a + pf * (omega @ (R * wf))
        inc = float(max(np.abs(nf - wf).max(), np.abs(ng - wg).max()))
        wf, wg = nf, ng
        increments.append(inc)
        if not math.isfinite(inc) or inc > 1e12 * (increments[0] + 1.0):
            break
        if inc <= tol:
            return PicardReport(from_samples(wf, order.gamma, grid),
                                from_samples(wg, order.gamma, grid),
                                tuple(increments))
    raise ConvergenceError(
        f"Picard iteration did not reach tol={tol} within {max_iter} "
        f"iterations (last increment {increments[-1]:.3e})")


def contraction_factor(P, order: Order, grid: GradedGrid) -> float:
    """Sup-norm Lipschitz constant of picard_reference's map on the pair
    (wf, wg): the increments map as (df, dg) -> (pf Omega dg,
    -pf Omega (P df)), and Omega, pf >= 0, so the constant is one mat-vec
    per equation, max(max_i pf_i sum_j Omega_ij, same with |P_j|)."""
    omega, scale = kernel_matrix(grid, 1.0 - order.alpha, order.gamma)
    omega = scale * omega.dense()
    R, pf = _node_data(P, order, grid)
    return float(max((pf * (omega @ np.ones_like(pf))).max(),
                     (pf * (omega @ np.abs(R))).max()))


_GX, _GW = leggauss(16)
_GX = 0.5 * (_GX + 1.0)  # nodes on (0, 1)
_GW = 0.5 * _GW


def _cell_rules_16(nodes, a, gamma):
    """Per-cell 16-point sample points and hat weights with (s-a)^{-gamma}
    folded in; the cell at a by the substitution s = a + h0 u^{1/(1-gamma)}."""
    h = np.diff(nodes)
    S = nodes[:-1, None] + h[:, None] * _GX[None, :]
    wts = _GW[None, :] * h[:, None] * (S - a) ** (-gamma) if gamma > 0.0 \
        else _GW[None, :] * h[:, None] * np.ones_like(S)
    if gamma > 0.0:
        S[0] = a + h[0] * _GX ** (1.0 / (1.0 - gamma))
        wts[0] = _GW * (h[0] ** (1.0 - gamma) / (1.0 - gamma))
    V0 = wts * (nodes[1:, None] - S) / h[:, None]
    V1 = wts * (S - nodes[:-1, None]) / h[:, None]
    return S, V0, V1


def build_matrix_reference(nodes, a, beta, gamma):
    """Omega row by row with the 16-point rule on every cell: exact Beta
    moments for [a, t_1], the right-end substitution on [t_{i-1}, t_i]."""
    n = nodes.size - 1
    h = np.diff(nodes)
    S, V0, V1 = _cell_rules_16(nodes, a, gamma)
    sub = _GX ** (1.0 / (1.0 - beta))  # right-endpoint substitution nodes
    omega = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        ti = nodes[i]
        if i == 1:
            pref = (ti - a) ** (1.0 - beta - gamma)
            omega[1, 0] = pref * beta_fn(1.0 - gamma, 2.0 - beta)
            omega[1, 1] = pref * beta_fn(2.0 - gamma, 1.0 - beta)
            continue
        m = i - 1
        kern = (ti - S[:m]) ** (-beta)
        b0 = np.einsum("jg,jg->j", V0[:m], kern)
        b1 = np.einsum("jg,jg->j", V1[:m], kern)
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


def kernel_integral_reference(lo, hi, a, t, beta, gamma):
    """int_lo^hi (t-s)^{-beta} (s-a)^{-gamma} ds from mpmath.betainc at 40
    digits, on the exact values of the float arguments."""
    if not (a <= lo < hi <= t):
        raise ValueError("need a <= lo < hi <= t")
    with mp.workdps(40):
        lo, hi, a, t, beta, gamma = map(mp.mpf, (lo, hi, a, t, beta, gamma))
        w = t - a
        return float(w ** (1 - beta - gamma) * mp.betainc(
            1 - gamma, 1 - beta, (lo - a) / w, (hi - a) / w))


def audit_instance(seed: int, trial: int) -> dict:
    """Trial `trial` of seed's instance as the audit draws it: one
    rng.uniform call per draw, in the audit's order, and rng.choice of two
    of the eligible nodes of the trial's build_grid. By name: a, length,
    b, i1, i2, t1, t2, A_nodes, W_nodes, x, y, e."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    a = rng.uniform(-2.0, 2.0)
    length = rng.uniform(0.3, 3.0)
    grid = build_grid(a, a + length, 96, 2.0)
    b = a + rng.uniform(0.02, 0.3) * length
    eligible = np.flatnonzero(grid.nodes >= b)
    i1, i2 = np.sort(rng.choice(eligible, size=2, replace=False))
    A_nodes = rng.uniform(-3.0, 3.0, grid.n + 1)
    W_nodes = rng.uniform(-3.0, 3.0, grid.n + 1)
    x, y = rng.uniform(0.0, 5.0, 2)
    e = rng.uniform(0.05, 0.95)
    return dict(a=a, length=length, b=b, i1=i1, i2=i2, t1=grid.nodes[i1],
                t2=grid.nodes[i2], A_nodes=A_nodes, W_nodes=W_nodes, x=x, y=y, e=e)


def audit_reference(order: Order, p: float, trials: int, seed: int):
    """The randomized audit one trial at a time, on scalars: the loop that
    bounds.audit_sides evaluates as arrays, each trial on its
    audit_instance, its build_grid and its kernel_matrix. Returns (lhs,
    rhs), two trials x 9 arrays in the order of bounds.CHECKS, and raises
    AuditFailure at the first violated inequality in (trial, check) order.
    The kernel integrals are looked up on bounds at call time, so a test
    that patches bounds.kernel_integral reaches both this loop and the
    audit."""
    q = holder_params(order, p)
    ga = order.gamma
    beta = ga
    al = order.alpha
    b_kernel = beta_fn(1.0 - ga, 1.0 - beta)
    csum = 2.0 * small_c(order, p)
    Cconst = 2.0 * csum
    b_alpha = beta_fn(al, al)
    two_pow = 2.0 ** (2.0 * (2.0 - al))
    e_const = (two_pow + b_alpha) / gamma_fn(al)
    unit = kernel_matrix(build_grid(0.0, 1.0, 96, 2.0), beta, ga)[0].dense()
    sides = []
    for trial in range(trials):
        (a, length, b, i1, i2, t1, t2, A_nodes, W_nodes,
         x, y, e) = audit_instance(seed, trial).values()
        grid = build_grid(a, a + length, 96, 2.0)
        sup_A = float(np.abs(A_nodes).max())
        norm_f = float(np.abs(W_nodes).max())

        scale = kernel_matrix(grid, beta, ga)[1]
        rows = scale * unit[[i1, i2]]
        q1, q2 = rows @ (A_nodes * W_nodes)
        pairs = []

        # (kernel_product)
        lhs = float(rows[1] @ np.abs(A_nodes * W_nodes))
        rhs = (t2 - a) ** (1.0 - beta - ga) * b_kernel * sup_A * norm_f
        pairs.append((lhs, rhs))

        ratio = (t2 - t1) / (t2 - a)
        rhs_kernel = (t2 - a) ** (1.0 - beta - ga) * csum * ratio ** (1.0 / q)

        # (kernel_window)
        pairs.append((bounds.kernel_integral(t1, t2, a, t2, beta, ga), rhs_kernel))

        # (kernel_difference)
        lhs = (bounds.kernel_integral(a, t1, a, t1, beta, ga)
               - bounds.kernel_integral(a, t1, a, t2, beta, ga))
        pairs.append((lhs, rhs_kernel))

        # (uniform_continuity)
        lhs = abs(q1 - q2)
        rhs = (Cconst * (t2 - a) ** (1.0 - beta - ga - 1.0 / q)
               * (t2 - t1) ** (1.0 / q) * sup_A * norm_f)
        pairs.append((lhs, rhs))

        # (subadditive_power)
        pairs.append(((x + y) ** e, x**e + y**e))

        # (weighted_continuity)
        expo = 1.0 - beta - ga - 1.0 / q
        d_raw = (Cconst * length ** beta * ((b - a) ** expo + length ** expo)
                 + length ** (1.0 - beta - ga) * b_kernel)
        lhs = abs((t1 - a) ** beta * q1 - (t2 - a) ** beta * q2)
        rhs = (d_raw * sup_A * norm_f
               * max((t2 - t1) ** (1.0 / q), (t2 - t1) ** beta))
        pairs.append((lhs, rhs))

        # (chain_D), two steps
        step1 = (two_pow * length ** (al - 1.0 / q)
                 + b_alpha * length ** (2.0 * al - 1.0))
        pairs.append((big_D(order, p, length), step1))
        mn = min(length ** (1.0 / q), length ** (1.0 - al))
        pairs.append((step1, (two_pow + b_alpha) * length ** al / mn))

        # (chain_E)
        mx = max(length ** (1.0 / q), length ** (1.0 - al))
        pairs.append((big_E(order, p, length), e_const * length ** al * mx / mn))

        for name, (lhs, rhs) in zip(bounds.CHECKS, pairs):
            if not (lhs <= rhs * bounds._AUDIT_SLACK):
                raise AuditFailure(name, seed, trial, f"lhs={lhs!r} > rhs={rhs!r}")
        sides.append(pairs)
    sides = np.array(sides, dtype=float).reshape(trials, len(bounds.CHECKS), 2)
    return sides[..., 0], sides[..., 1]


def from_callable(reg: Callable[[float], float], f_a: float, gamma: float,
                  grid: GradedGrid) -> WeightedFn:
    """Sample the regularized part t -> (t-a)^gamma f(t) at the grid nodes.

    `reg` is only evaluated on (a, c]; the limit value f_a is supplied
    explicitly since the raw f may be singular at a.
    """
    vals = np.empty_like(grid.nodes)
    vals[0] = f_a
    vals[1:] = [reg(t) for t in grid.nodes[1:]]
    if not np.all(np.isfinite(vals)):
        raise ValueError("regularized part evaluated to a non-finite sample")
    return WeightedFn(gamma=float(gamma), grid=grid, reg_samples=vals)


def eval_raw(w: WeightedFn, t: float) -> float:
    """f(t) = W(t) / (t-a)^gamma for t in (a, c].

    t = a is rejected: the raw function is generically infinite there.
    """
    if not (w.grid.a < t <= w.grid.c):
        raise ValueError(f"t={t!r} outside (a, c] = ({w.grid.a}, {w.grid.c}]")
    return float(eval_reg(w, t)) / (t - w.grid.a) ** w.gamma


def norm_full(w: WeightedFn) -> float:
    """Weighted sup-norm over (a, c], including the limit value |w_0|."""
    return float(np.abs(w.reg_samples).max())


def norm_window(w: WeightedFn, b: float, c_w: float) -> float:
    """Weighted sup-norm over the window [b, c_w]:
    max_{t in [b, c_w]} (t-a)^gamma |f(t)| = max |W| there.

    W is piecewise linear, so the max is attained at a node or at one of
    the window endpoints, evaluated by eval_reg, which stays finite on a
    cell whose slope overflows.
    """
    if not (w.grid.a < b <= c_w <= w.grid.c):
        raise ValueError(
            f"window [{b!r}, {c_w!r}] not inside ({w.grid.a}, {w.grid.c}]")
    nodes = w.grid.nodes
    inside = w.reg_samples[(nodes >= b) & (nodes <= c_w)]
    ends = eval_reg(w, np.array([b, c_w]))
    vals = np.concatenate([ends, inside]) if inside.size else ends
    return float(np.abs(vals).max())


@dataclass(frozen=True)
class ZeroSet:
    """Sorted zeros of a function pair inside a common window."""

    zeros_f: tuple[float, ...]
    zeros_g: tuple[float, ...]
    window: tuple[float, float]


def zero_set(f: WeightedFn, g: WeightedFn, b: float, c_w: float) -> ZeroSet:
    return ZeroSet(
        zeros_f=tuple(map(float, find_zeros(f, b, c_w))),
        zeros_g=tuple(map(float, find_zeros(g, b, c_w))),
        window=(b, c_w),
    )


def theta_arcs(w1: WeightedFn, w2: WeightedFn, b: float, c_w: float) -> np.ndarray:
    """The directions theta for which the combination cos(theta) w1 +
    sin(theta) w2 of two basis columns changes sign between consecutive
    search points of find_zeros on [b, c_w], as rows (lo, hi) of open arcs
    of the circle mod pi, 0 <= lo < pi and lo <= hi <= lo + pi. With
    phi = atan2(W2, W1) at the points the combination is |W| cos(theta - phi);
    on a segment [p, q] the angle of the linear W runs over the shorter arc
    from phi_p to phi_q, so the combination changes sign there exactly when
    theta (mod pi) lies on the shorter arc from phi_p + pi/2 to phi_q + pi/2."""
    nodes = w1.grid.nodes
    pts = np.concatenate([[b], nodes[(nodes > b) & (nodes < c_w)], [c_w]])
    phi = np.arctan2(eval_reg(w2, pts), eval_reg(w1, pts))
    turn = np.remainder(np.diff(phi) + np.pi, 2.0 * np.pi) - np.pi
    lo = np.remainder(phi[:-1] + np.pi / 2 + np.minimum(turn, 0.0), np.pi)
    return np.column_stack((lo, lo + np.abs(turn)))


def on_arcs(arcs: np.ndarray, theta: float) -> bool:
    """Whether theta (mod pi) lies on one of the open arcs of theta_arcs."""
    t = theta % np.pi + np.array([[0.0], [np.pi]])
    return bool(((arcs[:, 0] < t) & (t < arcs[:, 1])).any())


def _arc_union(arcs: np.ndarray) -> np.ndarray:
    """The open arcs of theta_arcs as sorted disjoint intervals of [0, pi],
    an arc past pi split in two; single points where two arcs touch count
    as covered, which changes no overlap of positive length."""
    past = arcs[:, 1] > np.pi
    lo = np.concatenate([arcs[:, 0], 0.0 * arcs[past, 1]])
    hi = np.concatenate([np.minimum(arcs[:, 1], np.pi), arcs[past, 1] - np.pi])
    merged = []
    for a, b in sorted(zip(lo, hi)):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        elif a < b:
            merged.append([a, b])
    return np.array(merged).reshape(-1, 2)


def common_theta(arcs1: np.ndarray, arcs2: np.ndarray) -> float | None:
    """The midpoint of the first open arc of theta that two sets of arcs of
    theta_arcs share, or None when they share none."""
    u1, u2 = _arc_union(arcs1), _arc_union(arcs2)
    lo = np.maximum(u1[:, None, 0], u2[None, :, 0]).ravel()
    hi = np.minimum(u1[:, None, 1], u2[None, :, 1]).ravel()
    shared = np.flatnonzero(lo < hi)
    return float(0.5 * (lo[shared[0]] + hi[shared[0]])) if shared.size else None


def arcs_meet(arcs1: np.ndarray, arcs2: np.ndarray) -> bool:
    """Whether two sets of arcs of theta_arcs share an open arc of theta."""
    return common_theta(arcs1, arcs2) is not None
