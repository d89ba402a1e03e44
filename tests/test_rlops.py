"""Product-integration operators against closed forms and brute-force
reference quadrature."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from fracfite import (beta_fn, build_grid, from_samples, gamma_fn,
                      kernel_integral, kernel_matrix)
from fracfite.rlops import (_CHEB, _F4W, _F4X, _FX, _FW, _GW, _GX, _Omega,
                            _cell_rules, _chebyshev_interp, _matrix_cached,
                            node_scale)
from oracles import (build_matrix_reference, from_callable, gauss01, grid_scale,
                     kernel_dense, kernel_integral_reference, norm_full,
                     q_operator, rl_derivative, rl_integral)

B_2_075 = 16.0 / 21.0  # B(2, 0.75)


def brute_force_q(reg, f_a, gamma, A, beta, a, t, cells=20000):
    """Independent reference for int_a^t A(s) f(s) (t-s)^{-beta} ds with
    f = reg(s)/(s-a)^gamma: graded midpoint rule, no shared code with the
    product-integration path."""
    u = np.linspace(0.0, 1.0, cells + 1)
    pts = a + (t - a) * 0.5 * (1.0 - np.cos(math.pi * u))  # cluster both ends
    mids = 0.5 * (pts[:-1] + pts[1:])
    widths = np.diff(pts)
    vals = np.array([A(s) * reg(s) * (s - a) ** (-gamma) * (t - s) ** (-beta)
                     for s in mids])
    return float(np.sum(vals * widths))


class TestQOperator:
    def test_sharp_beta_case(self):
        # f(s) = (s-a)^{-gamma}, A == 1: the bound of the basic estimate is
        # attained exactly: (t-a)^{1-beta-gamma} B(1-gamma, 1-beta)
        a, c, beta, gamma = -0.5, 1.5, 0.25, 0.25
        g = build_grid(a, c, 512, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, gamma, g)
        q = q_operator(w, lambda s: 1.0, beta)
        t = g.nodes[1:]
        exact = (t - a) ** (1.0 - beta - gamma) * beta_fn(1.0 - gamma, 1.0 - beta)
        mask = t >= a + 0.01 * (c - a)
        rel = np.abs(q.reg_samples[1:] - exact) / exact
        assert rel[mask].max() < 1e-8

    def test_plain_power_integral_gamma_zero(self):
        # A == 1, f == 1, gamma = 0: int (t-s)^{-beta} = (t-a)^{1-beta}/(1-beta)
        a, beta = 0.0, 0.4
        g = build_grid(a, 1.0, 128, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.0, g)
        q = q_operator(w, lambda s: 1.0, beta)
        t = g.nodes[1:]
        np.testing.assert_allclose(q.reg_samples[1:],
                                   (t - a) ** 0.6 / 0.6, rtol=1e-12)

    def test_linear_coefficient_reference_quadrature(self):
        # A(s) = s-a, f == 1, beta = 0.25 at t-a = 1: closed form B(2, 0.75)
        ref = brute_force_q(lambda s: 1.0, 1.0, 0.0, lambda s: s, 0.25, 0.0, 1.0)
        assert ref == pytest.approx(B_2_075, rel=1e-6)  # oracle sanity
        g = build_grid(0.0, 1.0, 256, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.0, g)
        q = q_operator(w, lambda s: s, 0.25)
        assert q.reg_samples[-1] == pytest.approx(ref, rel=1e-5)
        assert q.reg_samples[-1] == pytest.approx(B_2_075, rel=1e-8)

    def test_nontrivial_instance_vs_reference(self):
        a, beta, gamma = 0.25, 0.3, 0.35
        reg = lambda s: math.sin(2.0 * (s - a)) + 1.5
        A = lambda s: np.cos(s)
        g = build_grid(a, a + 2.0, 512, 2.0)
        w = from_callable(reg, 1.5, gamma, g)
        q = q_operator(w, A, beta)
        for idx in (32, 128, 512):
            t = g.nodes[idx]
            ref = brute_force_q(reg, 1.5, gamma, A, beta, a, t)
            assert q.reg_samples[idx] == pytest.approx(ref, rel=2e-4)

    def test_vanishing_limit_at_a(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.25, g)
        q = q_operator(w, lambda s: 1.0, 0.25)
        assert q.gamma == 0.0
        assert q.reg_samples[0] == 0.0

    def test_magnitude_bound_randomized(self):
        # |Q_{beta,A} f|(t) <= (t-a)^{1-beta-gamma} B(1-g,1-b) |A| |f| holds
        # at every node for random piecewise-linear instances
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = rng.uniform(-1.0, 1.0)
            c = a + rng.uniform(0.5, 2.0)
            beta, gamma = rng.uniform(0.1, 0.45, 2)
            g = build_grid(a, c, 64, 2.0)
            w = from_samples(rng.uniform(-2.0, 2.0, 65), gamma, g)
            A_nodes = rng.uniform(-2.0, 2.0, 65)
            A = lambda s: np.interp(s, g.nodes, A_nodes)
            q = q_operator(w, A, beta)
            t = g.nodes[1:]
            bound = ((t - a) ** (1.0 - beta - gamma)
                     * beta_fn(1.0 - gamma, 1.0 - beta)
                     * np.abs(A_nodes).max() * norm_full(w))
            assert np.all(np.abs(q.reg_samples[1:]) <= bound * (1.0 + 1e-9))

    def test_linearity_exact_at_fixed_quadrature(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        rng = np.random.default_rng(5)
        w1 = from_samples(rng.standard_normal(65), 0.25, g)
        w2 = from_samples(rng.standard_normal(65), 0.25, g)
        both = from_samples(w1.reg_samples + 2.5 * w2.reg_samples, 0.25, g)
        A = lambda s: 1.0 + s
        qa = q_operator(w1, A, 0.3).reg_samples
        qb = q_operator(w2, A, 0.3).reg_samples
        qc = q_operator(both, A, 0.3).reg_samples
        np.testing.assert_allclose(qc, qa + 2.5 * qb, atol=1e-13)

    def test_regime_errors(self):
        g = build_grid(0.0, 1.0, 8, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.45, g)
        with pytest.raises(ValueError):
            q_operator(w, lambda s: 1.0, 0.6)   # beta + gamma > 1
        with pytest.raises(ValueError):
            q_operator(w, lambda s: 1.0, 1.2)   # beta outside (0, 1)


class TestKernelMatrixScaling:
    """Omega on [a, a+L] is L^{1-beta-gamma} times the cached [0, 1] matrix."""

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("length", [0.05, 5.0, 10.0])
    def test_scaled_unit_matrix_matches_direct_build(self, alpha, length):
        g = build_grid(0.0, length, 96, 2.0)
        direct = build_matrix_reference(g.nodes, 0.0, 1.0 - alpha, 1.0 - alpha)
        np.testing.assert_allclose(kernel_dense(g, 1.0 - alpha, 1.0 - alpha), direct,
                                   rtol=1e-12, atol=0.0)

    def test_shifted_interval_matches_direct_build(self):
        # The reference takes the offsets t_j - a: in absolute coordinates
        # its quadrature points near a round to the grid of a = 1.3.
        g = build_grid(1.3, 1.6, 96, 2.0)
        direct = build_matrix_reference(g.nodes - 1.3, 0.0, 0.25, 0.25)
        np.testing.assert_allclose(kernel_dense(g, 0.25, 0.25), direct, rtol=1e-11, atol=0.0)

    def test_intervals_with_same_n_and_r_share_one_build(self):
        # one matrix per (r, beta, gamma): another interval, or a larger n,
        # reads (and grows) the same one and counts as a hit
        _matrix_cached.cache_clear()
        grids = [build_grid(-2.0, 0.7, 37, 1.7), build_grid(4.0, 9.0, 37, 1.7),
                 build_grid(4.0, 9.0, 75, 1.7)]
        u1, u2, u3 = (kernel_matrix(g, 0.3, 0.3) for g in grids)
        s1, s2, s3 = (grid_scale(g, 0.3, 0.3) for g in grids)
        info = _matrix_cached.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert all(x is y for x, y in zip(u1.leaves, u2.leaves))
        assert all(x is y for x, y in zip(u1.leaves, u3.leaves))
        np.testing.assert_array_equal(u3.dense()[:38, :38], u1.dense())
        assert (s1, s2, s3) == pytest.approx(
            ((2.7 / 37 ** 1.7) ** 0.4, (5.0 / 37 ** 1.7) ** 0.4, (5.0 / 75 ** 1.7) ** 0.4),
            rel=1e-14)

    def test_nodes_that_overflow_raise(self):
        # the build reads the nodes j^r up to j = 2n + 63, and their squares
        for r in (116.0, 102.0, 90.0, 60.0):
            with pytest.raises(ValueError, match="the kernel nodes j\\^r overflow"):
                kernel_matrix(build_grid(0.0, 1.0, 512, r), 0.25, 0.25)

    @pytest.mark.parametrize("n", [64, 512, 4096])
    def test_largest_accepted_grading_builds_without_warnings(self, n):
        # the largest r that node_scale accepts, to a few ulps
        lo, hi = 1.0, 200.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                node_scale(n, mid)
                lo = mid
            except ValueError:
                hi = mid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = build_grid(0.0, 1.0, n, lo)
            omega, scale = kernel_matrix(g, 0.25, 0.25), grid_scale(g, 0.25, 0.25)
            assert all(np.isfinite(near).all() for *_, near, _ in omega.leaves)
            assert math.isfinite(scale)


class TestGrowth:
    """Every block's arithmetic is independent of n, so the matrix for n is
    the leading block of any larger one, bit for bit, and growing from n to
    N gives the fresh N build. The sizes are off the 32-row block grid."""

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n,N", [(100, 613), (512, 1024)])
    @pytest.mark.parametrize("beta,gamma", [(0.25, 0.25), (0.3, 0.7)])
    def test_leading_block_and_growth_match_fresh_builds(self, n, N, r, beta, gamma):
        fresh = _Omega(r, beta, gamma).upto(N).dense()
        assert np.array_equal(fresh[:n + 1, :n + 1], _Omega(r, beta, gamma).upto(n).dense())
        grown = _Omega(r, beta, gamma)
        grown.upto(n)
        assert np.array_equal(grown.upto(N).dense(), fresh)

    def test_views_are_read_only(self):
        # the blocks are shared by every operator of the cached _Omega
        om = _Omega(2.0, 0.25, 0.25).upto(600)
        far = [x for *_, blocks in om.leaves for _, lag, P in blocks for x in (lag, P)]
        arrays = [near for *_, near, _ in om.leaves] + far
        assert far
        for x in arrays:
            with pytest.raises(ValueError, match="read-only"):
                x.flat[0] = 0.0

    def test_growth_keeps_the_old_blocks(self):
        # growth computes only the blocks whose first row is new
        holder = _Omega(2.0, 0.25, 0.25)
        old = holder.upto(64).leaves
        new = holder.upto(128).leaves
        assert len(new) > len(old)
        assert all(x is y for x, y in zip(old, new))


class TestOperator:
    """The block operator against its dense form."""

    @pytest.mark.parametrize("n", [33, 613, 4096])
    def test_product_matches_dense(self, n):
        # Omega @ U as a causal solve forms it: hist + D @ U[s] per block
        op = _Omega(2.0, 0.25, 0.25).upto(n)
        U = np.random.default_rng(n).standard_normal((n + 1, 5))
        ref = op.dense() @ U
        full = np.zeros_like(U)
        for s, hist, D in op.blocks(U):
            full[s] = hist + D @ U[s]
        assert np.abs(full - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_blocks_are_the_rows_of_the_product(self):
        # what a causal solve reads: Omega[s, :s.start] @ U[:s.start] and
        # Omega[s, s], block by block over rows 1..n, far field included
        n = 613
        op = _Omega(1.5, 0.3, 0.3).upto(n)
        assert any(far for *_, far in op.leaves)
        dense = op.dense()
        U = np.random.default_rng(0).standard_normal((n + 1, 2))
        rows = []
        for s, hist, D in op.blocks(U):
            ref = dense[s, :s.start] @ U[:s.start]
            assert np.abs(hist - ref).max() <= 1e-14 * np.abs(ref).max()
            np.testing.assert_array_equal(D, dense[s, s])
            rows += range(s.start, s.stop)
        assert rows == list(range(1, n + 1))

    def test_storage_is_far_below_dense(self):
        # the dense (n+1)^2 matrix at n = 4096 takes 128 MiB
        tracemalloc.start()
        try:
            op = _Omega(2.0, 0.25, 0.25).upto(4096)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert op.n == 4096
        assert held <= 11 * 2**20  # 10.6 MiB with every far block as two factors

    def test_build_scratch_is_small(self):
        # the 16-point rules are formed per leaf, not for the whole reach:
        # a fresh build peaks 1.7 MiB above what it keeps
        tracemalloc.start()
        try:
            op = _Omega(2.0, 0.25, 0.25).upto(4096)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.n == 4096
        assert peak - held <= 2 * 2**20


class TestBlockedBuild:
    """The blocked build (6- and 4-point rules on far cells, Chebyshev
    interpolation in t on row blocks far from their cells) against the
    16-point row-by-row reference. The sizes straddle the far-cell
    thresholds, the 32-row block edges and the first interpolating block
    sizes."""

    @staticmethod
    def assert_agrees(grid, beta, gamma, rel=1e-13):
        # Omega depends on n and r only: a fresh build of the grid's matrix,
        # on the nodes j^r, against the reference on the same nodes. (On
        # the offsets of a grid at a = 1.3 the reference would round its
        # quadrature points near a and lose up to 7.5e-11 of a row.)
        _matrix_cached.cache_clear()
        omega = kernel_matrix(grid, beta, gamma).dense()
        ref = build_matrix_reference(np.arange(grid.n + 1.0) ** grid.r, 0.0, beta, gamma)
        err = np.abs(omega - ref)
        assert err.max() <= rel * np.abs(ref).max()
        assert np.all(err.max(axis=1) <= rel * np.abs(ref).max(axis=1))
        np.testing.assert_array_equal(omega == 0.0, ref == 0.0)

    @pytest.mark.parametrize("a", [0.0, 1.3])
    @pytest.mark.parametrize("beta,gamma", [(0.25, 0.25), (0.4, 0.4), (0.1, 0.1),
                                            (0.3, 0.7), (0.2, 0.0)])
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 13, 14, 33, 34, 38, 45, 100, 513])
    def test_matches_reference(self, n, r, beta, gamma, a):
        self.assert_agrees(build_grid(a, a + 1.0, n, r), beta, gamma)

    @pytest.mark.parametrize("r", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("beta,gamma", [(0.3, 0.7), (0.05, 0.9)])
    def test_strong_grading_moves_far_cells_away_from_a(self, r, beta, gamma):
        # with a fixed first far cell j = 8 these reach 1.2e-12 (r = 4) and
        # 1.7e-10 (r = 6): cell 8 is then too wide for its distance to a
        self.assert_agrees(build_grid(0.0, 1.0, 513, r), beta, gamma)

    def test_large_n(self):
        # beta = gamma = 0.1 are the exponents of alpha = 0.9, and the worst
        # case of this class: 2.8e-14 of a row, from the 4-point far cells
        for beta_gamma in (0.25, 0.1):
            self.assert_agrees(build_grid(0.0, 1.0, 2048, 2.0), beta_gamma, beta_gamma)

    # Several levels of interpolating blocks. At r = 6 the nodes of [1.3,
    # 2.3] near a round to a (build_grid rejects them), so that grid is
    # placed at a = 0. These agree to 5.0e-15 of a row; eight Chebyshev
    # points give up to 5.9e-8, admissibility at half a block width 1.4e-13.
    @pytest.mark.parametrize("r,a", [(1.0, 1.3), (2.0, 1.3), (6.0, 0.0)])
    @pytest.mark.parametrize("n", [1025, 2048])
    def test_interpolated_far_field(self, n, r, a):
        self.assert_agrees(build_grid(a, a + 1.0, n, r), 0.3, 0.7)


class TestGaussRules:
    @pytest.mark.parametrize("points,rule", [(16, (_GX, _GW)), (6, (_FX, _FW)),
                                             (4, (_F4X, _F4W))],
                             ids=["16-point", "6-point", "4-point"])
    def test_tables_are_leggauss(self, points, rule):
        # equal to the bit on numpy 2.4; leggauss may move by an ulp with
        # the numpy and LAPACK it runs on, the tables do not
        for table, ref in zip(rule, gauss01(points)):
            assert table.dtype == np.float64 and table.shape == (points,)
            np.testing.assert_array_max_ulp(table, ref, maxulp=2)
        x, w = rule  # exact for x^k, k < 2 points: the moments 1 / (k + 1)
        for k in range(2 * points):
            assert abs(w @ x ** k - 1.0 / (k + 1)) < 1e-15


class TestCellRules:
    """The per-cell Gauss rules the build forms on slices of the nodes."""

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.7])
    @pytest.mark.parametrize("rule", ["16-point", "6-point"])
    @pytest.mark.parametrize("lo,hi", [(1, 40), (7, 8), (30, 101)])
    def test_slice_gives_the_rows_of_the_whole_call(self, lo, hi, rule, gamma):
        # a slice from node lo > 0 has no first-cell substitution: its rows
        # are cells lo..hi-1 of the call on all the nodes
        gx, gw = (_GX, _GW) if rule == "16-point" else (_FX, _FW)
        nodes = np.arange(101.0) ** 2.0
        whole = _cell_rules(nodes, gamma, gx, gw)
        part = _cell_rules(nodes[lo:hi + 1], gamma, gx, gw)
        for w, p in zip(whole, part):
            np.testing.assert_array_equal(p, w[lo:hi])


class TestChebyshevInterp:
    """The Chebyshev points and barycentric matrix of the far-field build."""

    T0, T1 = 0.3, 0.55

    def test_reproduces_polynomials_below_degree_k(self):
        x = np.linspace(self.T0, self.T1, 77)
        tau, lag = _chebyshev_interp(x)
        assert (tau[0], tau[-1]) == (self.T0, self.T1)
        for deg in range(_CHEB):
            c = np.cos(np.arange(deg + 1.0))  # any coefficients
            p = np.polynomial.Polynomial(c, domain=[self.T0, self.T1])
            np.testing.assert_allclose(lag @ p(tau), p(x), rtol=0, atol=1e-13)

    def test_rows_sum_to_one(self):
        _, lag = _chebyshev_interp(np.linspace(self.T0, self.T1, 101))
        np.testing.assert_allclose(lag.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    def test_rows_on_chebyshev_points_are_unit_rows(self):
        tau, _ = _chebyshev_interp(np.array([self.T0, self.T1]))
        x = np.r_[self.T0, tau[5], 0.4, self.T1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, lag = _chebyshev_interp(x)
        np.testing.assert_array_equal(lag[[0, 1, 3]], np.eye(_CHEB)[[0, 5, _CHEB - 1]])
        assert np.all(np.isfinite(lag[2]))


class TestRLIntegral:
    def test_power_rule_constant_input(self):
        # I^mu 1 = (t-a)^mu / Gamma(mu+1)
        mu = 0.75
        g = build_grid(0.0, 1.0, 256, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.0, g)
        out = rl_integral(w, mu)
        t = g.nodes[1:]
        np.testing.assert_allclose(out.reg_samples[1:],
                                   t**mu / gamma_fn(mu + 1.0), rtol=1e-12)

    def test_power_rule_vs_reference_quadrature(self):
        # independent confirmation of the power-rule values
        mu, t = 0.75, 0.7
        ref = brute_force_q(lambda s: 1.0, 1.0, 0.0, lambda s: 1.0,
                            1.0 - mu, 0.0, t) / gamma_fn(mu)
        assert ref == pytest.approx(t**mu / gamma_fn(mu + 1.0), rel=1e-5)

    def test_singular_input_gives_constant(self):
        # f = (t-a)^{alpha-1}, mu = 1-alpha: I^mu f == Gamma(alpha)
        alpha = 0.75
        g = build_grid(0.0, 1.0, 256, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 1.0 - alpha, g)
        out = rl_integral(w, 1.0 - alpha)
        np.testing.assert_allclose(out.reg_samples, gamma_fn(alpha), rtol=1e-7)

    def test_zero_input(self):
        g = build_grid(0.0, 1.0, 32, 2.0)
        w = from_callable(lambda t: 0.0, 0.0, 0.25, g)
        out = rl_integral(w, 0.5)
        np.testing.assert_array_equal(out.reg_samples, 0.0)

    def test_order_domain(self):
        g = build_grid(0.0, 1.0, 8, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.0, g)
        with pytest.raises(ValueError):
            rl_integral(w, 0.0)
        with pytest.raises(ValueError):
            rl_integral(w, 1.0)


class TestRLDerivative:
    def test_annihilates_kernel(self):
        # f = (t-a)^{zeta-1} is in the kernel: the primitive is constant
        zeta = 0.6
        g = build_grid(0.0, 1.0, 512, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 1.0 - zeta, g)
        d = rl_derivative(w, zeta)
        assert np.abs(d.reg_samples[3:-2]).max() < 1e-6

    def test_derivative_of_one(self):
        # f == 1: D^zeta f = (t-a)^{-zeta}/Gamma(1-zeta)
        zeta = 0.6
        g = build_grid(0.0, 1.0, 1024, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.0, g)
        d = rl_derivative(w, zeta)
        assert d.gamma == zeta
        expect = 1.0 / gamma_fn(1.0 - zeta)
        rel = np.abs(d.reg_samples[3:-2] - expect) / expect
        assert rel.max() < 1e-2
        interior = np.abs(d.reg_samples[24:-2] - expect) / expect
        assert interior.max() < 1e-3

    @pytest.mark.parametrize("zeta", [0.4, 0.75])
    def test_left_inverse_of_integral(self, zeta):
        # D^z I^z w == w to 5e-3 in the weighted norm, measured away from
        # the two cells adjacent to each endpoint (n=1024, r=2)
        g = build_grid(0.0, 1.0, 1024, 2.0)
        w = from_callable(lambda t: math.sin(3.0 * t) + 0.5, 0.5, 0.25, g)
        d = rl_derivative(rl_integral(w, zeta), zeta)
        t = g.nodes[3:-2]
        raw_d = d.reg_samples[3:-2] / t**zeta
        raw_w = w.reg_samples[3:-2] / t**w.gamma
        assert np.abs((raw_d - raw_w) * t**w.gamma).max() <= 5e-3


class TestKernelIntegral:
    def test_full_range_is_beta(self):
        a, t, beta, gamma = 0.0, 1.3, 0.3, 0.25
        val = kernel_integral(a, t, a, t, beta, gamma)
        assert val == pytest.approx(
            t ** (1.0 - beta - gamma) * beta_fn(1.0 - gamma, 1.0 - beta),
            rel=1e-10)

    def test_partial_range_vs_incomplete_beta(self):
        # int_{t1}^{t2} = (t2-a)^{1-b-g} * B_inc(lam1..1; 1-g, 1-b)
        a, t1, t2, beta, gamma = 0.5, 1.1, 1.9, 0.3, 0.25
        val = kernel_integral(t1, t2, a, t2, beta, gamma)
        lam1 = (t1 - a) / (t2 - a)
        with mp.workdps(30):
            ref = float((t2 - a) ** (1.0 - beta - gamma)
                        * mp.betainc(1.0 - gamma, 1.0 - beta, lam1, 1.0))
        assert val == pytest.approx(ref, rel=1e-9)

    def test_left_portion_vs_incomplete_beta(self):
        a, t1, t2, beta, gamma = 0.0, 0.6, 1.4, 0.35, 0.3
        val = kernel_integral(a, t1, a, t2, beta, gamma)
        lam = t1 / t2
        with mp.workdps(30):
            ref = float(t2 ** (1.0 - beta - gamma)
                        * mp.betainc(1.0 - gamma, 1.0 - beta, 0.0, lam))
        assert val == pytest.approx(ref, rel=1e-9)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            kernel_integral(0.5, 0.4, 0.0, 1.0, 0.3, 0.3)

    @pytest.mark.parametrize("bad", [
        {"beta": 1.0}, {"beta": 0.0}, {"beta": math.nan},
        {"gamma": 1.0}, {"gamma": -0.1}, {"gamma": math.inf},
        {"t": math.inf}, {"hi": math.inf, "t": math.inf}, {"lo": math.nan},
        {"a": -math.inf},
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_rejects_bad_arguments(self, bad):
        args = {"lo": 0.2, "hi": 0.8, "a": 0.0, "t": 1.0, "beta": 0.3,
                "gamma": 0.3, **bad}
        with pytest.raises(ValueError):
            kernel_integral(**args)

    @staticmethod
    def _assert_matches_betainc(tol, lo, hi, a, t, beta, gamma):
        val = kernel_integral(lo, hi, a, t, beta, gamma)
        ref = kernel_integral_reference(lo, hi, a, t, beta, gamma)
        assert abs(val - ref) <= tol * abs(ref), (lo, hi, a, t, beta, gamma)

    @pytest.mark.parametrize("n_sub", [1, 2, 64])
    @pytest.mark.parametrize("zero_gamma", [False, True])
    def test_matches_cell_loop(self, n_sub, zero_gamma):
        # whole, left, right and interior ranges, taken in one call and as
        # the sum over n_sub equal cells; short interior ranges lose digits
        # to the difference of two incomplete Beta values
        rng = np.random.default_rng(n_sub + 100 * zero_gamma)
        for _ in range(40):
            a = rng.uniform(-2.0, 2.0)
            t = a + rng.uniform(0.05, 3.0)
            beta = rng.uniform(0.01, 0.99)
            gamma = 0.0 if zero_gamma else rng.uniform(0.0, 0.99)
            x, y = np.sort(rng.uniform(a, t, 2))
            for lo, hi in ((a, t), (a, y), (x, t), (x, y)):
                self._assert_matches_betainc(1e-10, lo, hi, a, t, beta, gamma)
                pts = np.linspace(lo, hi, n_sub + 1)
                loop = math.fsum(kernel_integral(pts[:-1], pts[1:], a, t, beta, gamma))
                ref = kernel_integral_reference(lo, hi, a, t, beta, gamma)
                assert abs(loop - ref) <= 1e-10 * abs(ref), (lo, hi, n_sub)

    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_ulp_wide_ranges_match_betainc(self, gamma):
        # ranges a few ulps wide at a, at t, and the whole of a tiny [a, t]
        a = 1.3
        ulp = math.ulp(a)
        self._assert_matches_betainc(1e-13, a, a + 64 * ulp, a, 2.0, 0.35, gamma)
        self._assert_matches_betainc(1e-13, a - 64 * ulp, a, 0.5, a, 0.35, gamma)
        for width in (ulp, 4 * ulp):
            self._assert_matches_betainc(1e-13, a, a + width, a, a + width, 0.35, gamma)

    def test_range_ending_near_t(self):
        # (t-s)^{-0.9} is nearly singular at hi: a 64-cell Gauss quadrature
        # graded toward a only is 6.2e-3 off here
        self._assert_matches_betainc(1e-13, 0.0, 0.9999, 0.0, 1.0, 0.9, 0.5)

    def _random_args(self, size, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2.0, 2.0, size)
        t = a + rng.uniform(0.05, 3.0, size)
        lo, hi = np.sort(rng.uniform(a, t, (2, size)), axis=0)
        return lo, hi, a, t, rng.uniform(0.01, 0.99, size), rng.uniform(0.0, 0.99, size)

    @pytest.mark.parametrize("exponents", ["shared", "per element"])
    def test_array_call_matches_scalar_calls(self, exponents):
        # both branches of the mask, with the ends a and t among the elements
        lo, hi, a, t, beta, gamma = self._random_args(400, 7)
        lo[:50], hi[50:100] = a[:50], t[50:100]
        if exponents == "shared":
            beta, gamma = 0.3, 0.25
        vals = kernel_integral(lo, hi, a, t, beta, gamma)
        assert vals.shape == (400,)
        for k, val in enumerate(vals):
            args = [float(np.broadcast_to(v, vals.shape)[k])
                    for v in (lo, hi, a, t, beta, gamma)]
            ref = kernel_integral(*args)
            assert type(ref) is float
            assert abs(val - ref) <= math.ulp(ref), args

    def test_array_shape_kept(self):
        lo, hi, a, t, beta, gamma = (v.reshape(3, 4) for v in self._random_args(12, 8))
        assert kernel_integral(lo, hi, a, t, beta, gamma).shape == (3, 4)
        assert kernel_integral(lo, hi, a, t, beta[:1], 0.3).shape == (3, 4)
        assert type(kernel_integral(np.float64(0.2), 0.8, 0.0, 1.0, 0.3, 0.3)) is float

    @pytest.mark.parametrize("bad,match", [
        ({"lo": math.nan}, "arguments must be finite"),
        ({"hi": 5.0}, r"need a <= lo < hi <= t"),
        ({"beta": 1.0}, r"got beta=1\.0, gamma=0\.3"),
        ({"gamma": -0.1}, r"got beta=0\.3, gamma=-0\.1"),
    ], ids=["nan", "range", "beta", "gamma"])
    def test_one_bad_element_rejected(self, bad, match):
        args = {"lo": np.full(5, 0.2), "hi": np.full(5, 0.8), "a": 0.0, "t": 1.0,
                "beta": np.full(5, 0.3), "gamma": np.full(5, 0.3)}
        for name, value in bad.items():
            args[name][3] = value
        with pytest.raises(ValueError, match=match):
            kernel_integral(**args)

    def test_end_elements_raise_no_warning(self):
        a, t = np.zeros(4), np.ones(4)
        lo = np.array([0.0, 0.0, 0.5, 0.0])
        hi = np.array([1.0, 0.5, 1.0, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = kernel_integral(lo, hi, a, t, 0.25, 0.25)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        assert vals[0] == kernel_integral(0.0, 1.0, 0.0, 1.0, 0.25, 0.25)
