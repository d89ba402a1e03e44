"""Product-integration operators against closed forms and brute-force
reference quadrature."""

import math

import mpmath as mp
import numpy as np
import pytest

from fracfite import (beta_fn, build_grid, from_callable, from_samples,
                      gamma_fn, kernel_integral, kernel_matrix, norm_full,
                      q_operator)
from fracfite.rlops import _build_matrix, _matrix_cached
from oracles import rl_derivative, rl_integral

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
        unit, scale = kernel_matrix(g, 1.0 - alpha, 1.0 - alpha)
        direct = _build_matrix(g.nodes, 0.0, 1.0 - alpha, 1.0 - alpha)
        np.testing.assert_allclose(scale * unit, direct, rtol=1e-12, atol=0.0)

    def test_shifted_interval_matches_direct_build(self):
        # The direct build evaluates the kernel at the stored nodes
        # a + L (j/n)^r, whose rounding perturbs the small differences
        # t_j - a near a; the scaled unit matrix has no such rounding, so
        # the gap bounds the old path's error, not the identity's.
        g = build_grid(1.3, 1.6, 96, 2.0)
        unit, scale = kernel_matrix(g, 0.25, 0.25)
        direct = _build_matrix(g.nodes, 1.3, 0.25, 0.25)
        np.testing.assert_allclose(scale * unit, direct, rtol=1e-9, atol=0.0)

    def test_intervals_with_same_n_and_r_share_one_build(self):
        before = _matrix_cached.cache_info()
        u1, s1 = kernel_matrix(build_grid(-2.0, 0.7, 37, 1.7), 0.3, 0.3)
        u2, s2 = kernel_matrix(build_grid(4.0, 9.0, 37, 1.7), 0.3, 0.3)
        after = _matrix_cached.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1
        assert u1 is u2
        assert (s1, s2) == pytest.approx((2.7 ** 0.4, 5.0 ** 0.4), rel=1e-14)


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
