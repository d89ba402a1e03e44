"""Volterra solver against closed-form oracles and its own marching twin."""

import numpy as np
import pytest

from fracfite import (CoefficientSet, ConvergenceError, Order, big_E,
                      build_grid, from_samples, gamma_fn, residual,
                      solve_fite, solve_relax_osc, solve_system)
from fracfite.rlops import kernel_matrix
from fracfite.sfde import _marching, _node_data
from oracles import marching_reference, mittag_leffler, rl_derivative

ORDER = Order(0.75)
# Gamma(0.75) * E_{0.75,0.75}(1), 20-digit reference
ML_SOLUTION_AT_1 = 4.5079728162274022969


def ml_coeffs(a, c):
    """G = R = 1, Q = V = 0: with f_a = g_a the pair collapses to the
    scalar equation f = f_a (t-a)^{alpha-1} + I^alpha f."""
    return CoefficientSet(lambda s: 1.0, lambda s: 0.0, lambda s: 1.0,
                          lambda s: 0.0)


class TestSolveSystem:
    def test_zero_fixed_point(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        coeffs = CoefficientSet(lambda s: np.cos(s), lambda s: 0.0,
                                lambda s: -2.0, lambda s: 0.0)
        rep = solve_system(coeffs, ORDER, 0.0, 0.0, g, scheme="picard")
        assert rep.iterations == 1
        assert rep.residual == 0.0
        np.testing.assert_array_equal(rep.f.reg_samples, 0.0)
        np.testing.assert_array_equal(rep.g.reg_samples, 0.0)

    def test_decoupled_free_term_only(self):
        # G == 1, R == 0, g_a = 0: one Picard step closes; f is the free
        # term f_a (t-a)^{alpha-1}, i.e. regularized part constant f_a
        g = build_grid(0.0, 1.0, 64, 2.0)
        coeffs = CoefficientSet(lambda s: 1.0, lambda s: 0.0, lambda s: 0.0,
                                lambda s: 0.0)
        rep = solve_system(coeffs, ORDER, 1.0, 0.0, g, scheme="picard")
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.f.reg_samples, 1.0)
        np.testing.assert_array_equal(rep.g.reg_samples, 0.0)

    def test_mittag_leffler_oracle(self):
        g = build_grid(0.0, 1.0, 512, 2.0)
        rep = solve_system(ml_coeffs(0.0, 1.0), ORDER, 1.0, 1.0, g,
                           scheme="picard")
        assert rep.method == "picard"
        # W_f(1) = f(1) at unit distance from a
        assert rep.f.reg_samples[-1] == pytest.approx(ML_SOLUTION_AT_1, rel=2e-5)
        # frozen value consistent with the special-function oracle
        assert ML_SOLUTION_AT_1 == pytest.approx(
            gamma_fn(0.75) * mittag_leffler(0.75, 0.75, 1.0), rel=1e-12)

    def test_mittag_leffler_whole_profile(self):
        g = build_grid(0.0, 1.0, 512, 2.0)
        rep = solve_system(ml_coeffs(0.0, 1.0), ORDER, 1.0, 1.0, g)
        t = g.nodes[1:]
        exact = np.array([gamma_fn(0.75) * mittag_leffler(0.75, 0.75, x**0.75)
                          for x in t])
        assert np.abs(rep.f.reg_samples[1:] - exact).max() < 2e-5

    def test_mesh_convergence(self):
        errs = []
        for n in (128, 256, 512):
            g = build_grid(0.0, 1.0, n, 2.0)
            rep = solve_system(ml_coeffs(0.0, 1.0), ORDER, 1.0, 1.0, g)
            errs.append(abs(rep.f.reg_samples[-1] - ML_SOLUTION_AT_1))
        assert errs[0] / errs[1] >= 2.5
        assert errs[1] / errs[2] >= 2.5

    def test_picard_and_marching_agree(self):
        g = build_grid(0.0, 1.0, 256, 2.0)
        pic = solve_system(ml_coeffs(0.0, 1.0), ORDER, 1.0, 1.0, g,
                           scheme="picard")
        mar = solve_system(ml_coeffs(0.0, 1.0), ORDER, 1.0, 1.0, g,
                           scheme="marching")
        assert mar.method == "marching"
        agree = np.abs(pic.f.reg_samples - mar.f.reg_samples).max()
        assert agree <= 1e-6

    def test_linearity_of_solution_map(self):
        g = build_grid(0.0, 1.0, 128, 2.0)
        c1 = CoefficientSet(lambda s: 1.0, lambda s: 1.0, lambda s: -1.0,
                            lambda s: 0.0)
        c2 = CoefficientSet(lambda s: 1.0, lambda s: 0.0, lambda s: -1.0,
                            lambda s: np.sin(s))
        csum = CoefficientSet(lambda s: 1.0, lambda s: 1.0, lambda s: -1.0,
                              lambda s: np.sin(s))
        r1 = solve_system(c1, ORDER, 1.0, 0.0, g, tol=1e-12)
        r2 = solve_system(c2, ORDER, 0.5, 2.0, g, tol=1e-12)
        rs = solve_system(csum, ORDER, 1.5, 2.0, g, tol=1e-12)
        np.testing.assert_allclose(
            rs.f.reg_samples, r1.f.reg_samples + r2.f.reg_samples, atol=1e-8)
        np.testing.assert_allclose(
            rs.g.reg_samples, r1.g.reg_samples + r2.g.reg_samples, atol=1e-8)

    def test_contraction_regime_ratios(self):
        # on a short interval big_E * m < 0.5 and the measured increment
        # ratios stay below E m (plus discretization slack)
        length = 0.04
        E = big_E(ORDER, 4.0 / 3.0, length)
        assert E < 0.5
        g = build_grid(0.0, length, 256, 2.0)
        rep = solve_fite(lambda t: 1.0, ORDER, 1.0, 0.3, g, scheme="picard")
        incs = rep.increment_norms
        ratios = [incs[k + 1] / incs[k] for k in range(1, len(incs) - 1)
                  if incs[k] > 0.0]
        assert ratios and max(ratios) <= E * 1.0 + 0.1

    def test_default_solve_succeeds_where_picard_diverges(self):
        # same instance as test_picard_scheme_raises_without_fallback
        g = build_grid(0.0, 10.0, 128, 2.0)
        rep = solve_fite(lambda t: 4.0, ORDER, 1.0, 0.0, g, max_iter=3)
        assert rep.method == "marching"
        assert rep.iterations == 0
        assert rep.residual < 1e-8

    def test_picard_scheme_raises_without_fallback(self):
        g = build_grid(0.0, 10.0, 128, 2.0)
        with pytest.raises(ConvergenceError):
            solve_fite(lambda t: 4.0, ORDER, 1.0, 0.0, g, max_iter=3,
                       scheme="picard")

    @pytest.mark.parametrize("scheme", ["marching", "picard"])
    def test_each_coefficient_called_once_on_the_nodes(self, scheme):
        g = build_grid(0.0, 1.0, 64, 2.0)
        calls = {name: [] for name in "GQRV"}

        def recorded(name, value):
            def fn(t):
                calls[name].append(t)
                return np.full(np.shape(t), value)
            return fn

        coeffs = CoefficientSet(recorded("G", 1.0), recorded("Q", 0.5),
                                recorded("R", -1.0), recorded("V", 0.25))
        solve_system(coeffs, ORDER, 1.0, 0.0, g, scheme=scheme)
        for name, args in calls.items():
            assert len(args) == 1, name
            assert isinstance(args[0], np.ndarray), name
            np.testing.assert_array_equal(args[0], g.nodes)

    def test_overflow_raises_floating_point_error(self):
        g = build_grid(0.0, 1e8, 64, 2.0)
        with pytest.raises(FloatingPointError):
            solve_fite(lambda t: 1e300, Order(0.9), 1.0, 0.0, g)

    def test_invalid_inputs(self):
        g = build_grid(0.0, 1.0, 16, 2.0)
        with pytest.raises(ValueError):
            solve_system(ml_coeffs(0.0, 1.0), ORDER, 1.0, 1.0, g, tol=0.0)
        with pytest.raises(ValueError):
            solve_system(ml_coeffs(0.0, 1.0), ORDER, 1.0, 1.0, g,
                         scheme="nonsense")
        with pytest.raises(ValueError):
            solve_system(ml_coeffs(0.0, 1.0), ORDER, 1.0, 1.0, g,
                         scheme="picard", max_iter=0)


class TestBlockedMarching:
    """The blocked solve against the node-by-node loop it replaces."""

    VARYING = CoefficientSet(lambda s: 1.0 + 0.3 * np.sin(s), lambda s: np.cos(s),
                             lambda s: -4.0 * (1.0 + 0.5 * np.cos(3.0 * s)),
                             lambda s: 0.0)
    FORCED = CoefficientSet(lambda s: 1.0, lambda s: 0.0, lambda s: -10.0,
                            lambda s: 0.5 + s ** 2)

    @pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 65, 513])
    @pytest.mark.parametrize("kind", ["varying", "forced"])
    def test_matches_node_by_node_reference(self, n, kind):
        coeffs = self.VARYING if kind == "varying" else self.FORCED
        g = build_grid(0.0, 3.0, n, 2.0)
        omega, scale = kernel_matrix(g, 1.0 - ORDER.alpha, ORDER.gamma)
        data = _node_data(coeffs, ORDER, g, scale)
        for ref, got in zip(marching_reference(omega, *data, 0.6, -0.8),
                            _marching(omega, *data, 0.6, -0.8)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_singular_step_names_its_node(self):
        # R is nonzero only at node k > _BLOCK, where it makes det_k vanish
        n, k = 100, 40
        g = build_grid(0.0, 3.0, n, 2.0)
        omega, scale = kernel_matrix(g, 1.0 - ORDER.alpha, ORDER.gamma)
        d = scale * g.nodes[k] ** ORDER.gamma / gamma_fn(ORDER.alpha) * omega[k, k]
        coeffs = CoefficientSet(lambda s: 1.0, lambda s: 0.0,
                                lambda s: np.where(s == g.nodes[k], d ** -2, 0.0),
                                lambda s: 0.0)
        data = _node_data(coeffs, ORDER, g, scale)
        with pytest.raises(ConvergenceError, match=rf"singular at node {k} \("):
            marching_reference(omega, *data, 1.0, 0.0)
        with pytest.raises(ConvergenceError, match=rf"singular at node {k} \("):
            solve_system(coeffs, ORDER, 1.0, 0.0, g)


class TestSolveFite:
    def test_zero_coefficient_gives_free_term(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        rep = solve_fite(lambda t: 0.0, ORDER, 1.0, 0.0, g)
        np.testing.assert_allclose(rep.f.reg_samples, 1.0)
        np.testing.assert_array_equal(rep.g.reg_samples, 0.0)

    def test_two_scheme_cross_check(self):
        g = build_grid(0.0, 1.0, 256, 2.0)
        pic = solve_fite(lambda t: 1.0, ORDER, 0.0, 1.0, g, scheme="picard")
        mar = solve_fite(lambda t: 1.0, ORDER, 0.0, 1.0, g, scheme="marching")
        diff = max(np.abs(pic.f.reg_samples - mar.f.reg_samples).max(),
                   np.abs(pic.g.reg_samples - mar.g.reg_samples).max())
        assert diff <= 1e-6

    def test_returned_g_is_fractional_derivative(self):
        g = build_grid(0.0, 1.0, 512, 2.0)
        rep = solve_fite(lambda t: 1.0, ORDER, 0.0, 1.0, g)
        d = rl_derivative(rep.f, ORDER.alpha)
        t = g.nodes[3:-2]
        raw_d = d.reg_samples[3:-2] / t**ORDER.alpha
        raw_g = rep.g.reg_samples[3:-2] / t**ORDER.gamma
        err = np.abs((raw_d - raw_g) * t**ORDER.gamma)
        assert err.max() <= 5e-3


class TestSolveRelaxOsc:
    def test_zero_forcing_zero_data(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        rep = solve_relax_osc(1.0, lambda t: 0.0, ORDER, 0.0, 0.0, g)
        np.testing.assert_array_equal(rep.f.reg_samples, 0.0)

    def test_constant_forcing_oscillates(self):
        # constant forcing: the derivative changes sign on a long interval
        g = build_grid(0.0, 20.0, 512, 2.0)
        rep = solve_relax_osc(1.0, lambda t: 1.0, ORDER, 0.0, 0.0, g)
        signs = np.sign(rep.g.reg_samples[1:])
        assert np.any(signs > 0) and np.any(signs < 0)

    def test_smooth_forcing_converges(self):
        g = build_grid(0.0, 2.0, 128, 2.0)
        rep = solve_relax_osc(1.0, lambda t: np.sin(t), ORDER, 0.0, 0.0, g,
                              tol=1e-10)
        assert rep.residual <= 1e-9

    def test_requires_positive_coefficient(self):
        g = build_grid(0.0, 1.0, 16, 2.0)
        with pytest.raises(ValueError):
            solve_relax_osc(0.0, lambda t: 1.0, ORDER, 0.0, 0.0, g)


class TestResidual:
    def test_zero_solution_zero_residual(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        coeffs = ml_coeffs(0.0, 1.0)
        rep = solve_system(coeffs, ORDER, 0.0, 0.0, g)
        assert residual(coeffs, ORDER, rep) == 0.0

    def test_converged_solve_small_residual(self):
        g = build_grid(0.0, 1.0, 256, 2.0)
        coeffs = ml_coeffs(0.0, 1.0)
        rep = solve_system(coeffs, ORDER, 1.0, 1.0, g, tol=1e-8)
        assert rep.residual <= 1e-6

    def test_perturbation_raises_residual(self):
        g = build_grid(0.0, 1.0, 128, 2.0)
        coeffs = ml_coeffs(0.0, 1.0)
        rep = solve_system(coeffs, ORDER, 1.0, 1.0, g)
        bumped = rep.f.reg_samples.copy()
        bumped[64] += 1.0
        from fracfite.sfde import SolveReport
        perturbed = SolveReport(f=from_samples(bumped, rep.f.gamma, g),
                                g=rep.g, iterations=rep.iterations,
                                residual=0.0, method=rep.method)
        assert residual(coeffs, ORDER, perturbed) >= 0.5
