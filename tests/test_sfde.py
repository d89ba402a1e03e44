"""Volterra solver against closed-form oracles, its node-by-node marching
twin and Picard iteration of the same discrete system."""

import dataclasses
import math

import numpy as np
import pytest

from fracfite import (ConvergenceError, GradedGrid, Order, big_E, build_grid,
                      find_zeros, from_samples, gamma_fn)
from fracfite.rlops import KernelOperator, kernel_matrix
from fracfite.sfde import SolveReport, _marching, _node_data, residual, solve_batch
from oracles import (contraction_factor, fite_closed_form, marching_reference,
                     mittag_leffler, picard_reference, rl_derivative)

ORDER = Order(0.75)
# Gamma(0.75) * E_{0.75,0.75}(1), 20-digit reference
ML_SOLUTION_AT_1 = 4.5079728162274022969


def ml_p(s):
    """P = -1: with f_a = g_a the pair collapses to the scalar equation
    f = f_a (t-a)^{alpha-1} + I^alpha f."""
    return -1.0


class TestSolveSystem:
    def test_zero_fixed_point(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        P = lambda s: 2.0 + np.cos(s)
        rep = picard_reference(P, ORDER, 0.0, 0.0, g)
        assert rep.iterations == 1
        assert residual(P, ORDER, rep) == 0.0
        np.testing.assert_array_equal(rep.f.reg_samples, 0.0)
        np.testing.assert_array_equal(rep.g.reg_samples, 0.0)

    def test_decoupled_free_term_only(self):
        # P == 0, g_a = 0: one Picard step closes; f is the free
        # term f_a (t-a)^{alpha-1}, i.e. regularized part constant f_a
        g = build_grid(0.0, 1.0, 64, 2.0)
        rep = picard_reference(lambda s: 0.0, ORDER, 1.0, 0.0, g)
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.f.reg_samples, 1.0)
        np.testing.assert_array_equal(rep.g.reg_samples, 0.0)

    def test_mittag_leffler_oracle(self):
        g = build_grid(0.0, 1.0, 512, 2.0)
        rep = picard_reference(ml_p, ORDER, 1.0, 1.0, g)
        # W_f(1) = f(1) at unit distance from a
        assert rep.f.reg_samples[-1] == pytest.approx(ML_SOLUTION_AT_1, rel=2e-5)
        # frozen value consistent with the special-function oracle
        assert ML_SOLUTION_AT_1 == pytest.approx(
            gamma_fn(0.75) * mittag_leffler(0.75, 0.75, 1.0), rel=1e-12)

    def test_mittag_leffler_whole_profile(self):
        g = build_grid(0.0, 1.0, 512, 2.0)
        rep = solve_batch(ml_p, ORDER, 1.0, 1.0, g)[0]
        t = g.nodes[1:]
        exact = np.array([gamma_fn(0.75) * mittag_leffler(0.75, 0.75, x**0.75)
                          for x in t])
        assert np.abs(rep.f.reg_samples[1:] - exact).max() < 2e-5

    def test_mesh_convergence(self):
        errs = []
        for n in (128, 256, 512):
            g = build_grid(0.0, 1.0, n, 2.0)
            rep = solve_batch(ml_p, ORDER, 1.0, 1.0, g)[0]
            errs.append(abs(rep.f.reg_samples[-1] - ML_SOLUTION_AT_1))
        assert errs[0] / errs[1] >= 2.5
        assert errs[1] / errs[2] >= 2.5

    def test_picard_and_marching_agree(self):
        g = build_grid(0.0, 1.0, 256, 2.0)
        pic = picard_reference(ml_p, ORDER, 1.0, 1.0, g)
        mar = solve_batch(ml_p, ORDER, 1.0, 1.0, g)[0]
        agree = np.abs(pic.f.reg_samples - mar.f.reg_samples).max()
        assert agree <= 1e-6

    def test_linearity_of_solution_map(self):
        # linear in (f_a, g_a) jointly
        g = build_grid(0.0, 1.0, 128, 2.0)
        P = lambda s: 1.0
        r1 = solve_batch(P, ORDER, 1.0, 0.0, g)[0]
        r2 = solve_batch(P, ORDER, 0.5, 2.0, g)[0]
        rs = solve_batch(P, ORDER, 1.5, 2.0, g)[0]
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
        rep = picard_reference(lambda t: 1.0, ORDER, 1.0, 0.3, g)
        incs = rep.increment_norms
        ratios = [incs[k + 1] / incs[k] for k in range(1, len(incs) - 1)
                  if incs[k] > 0.0]
        assert ratios and max(ratios) <= E * 1.0 + 0.1

    @pytest.mark.parametrize("length", [0.04, 0.2, 1.0])
    def test_exact_contraction_factor(self, length):
        # kappa is the sup-norm constant of the discrete Picard map: it
        # bounds every increment ratio, and big_E m bounds it (m = P = 1)
        P = lambda t: 1.0
        g = build_grid(0.0, length, 512, 2.0)
        kappa = contraction_factor(P, ORDER, g)
        incs = picard_reference(P, ORDER, 1.0, 0.3, g).increment_norms
        ratios = [b / a for a, b in zip(incs, incs[1:]) if a > 0.0]
        assert ratios and max(ratios) <= kappa * (1.0 + 1e-12)
        assert kappa <= big_E(ORDER, 4.0 / 3.0, length) * 1.0

    def test_default_solve_succeeds_where_picard_diverges(self):
        # same instance as test_picard_scheme_raises_without_fallback
        g = build_grid(0.0, 10.0, 128, 2.0)
        rep = solve_batch(lambda t: 4.0, ORDER, 1.0, 0.0, g)[0]
        assert rep.residual < 1e-8

    def test_report_carries_only_computed_fields(self):
        assert [f.name for f in dataclasses.fields(SolveReport)] == [
            "f", "g", "residual"]

    @pytest.mark.parametrize("alpha,P,length", [(0.75, 2.0, 3.0), (0.6, 0.5, 5.0),
                                                (0.9, 1.0, 2.0)])
    def test_constant_p_matches_closed_form(self, alpha, P, length):
        # W_f and W_g at every 16th node against the Mittag-Leffler closed
        # form; measured max errors 2.0e-5 / 7.2e-6 / 5.5e-6 at n = 512 and
        # 5.1e-6 / 1.8e-6 / 1.4e-6 at n = 1024
        f_a, g_a = np.cos(0.7), np.sin(0.7)
        errs = []
        for n in (512, 1024):
            g = build_grid(0.0, length, n, 2.0)
            rep = solve_batch(lambda t: P, Order(alpha), f_a, g_a, g)[0]
            idx = np.arange(16, n + 1, 16)
            exact = np.array([fite_closed_form(alpha, P, f_a, g_a, g.nodes[j])
                              for j in idx])
            errs.append(max(np.abs(rep.f.reg_samples[idx] - exact[:, 0]).max(),
                            np.abs(rep.g.reg_samples[idx] - exact[:, 1]).max()))
        assert errs[0] <= 4e-5
        assert errs[0] / errs[1] >= 3.0

    def test_picard_scheme_raises_without_fallback(self):
        g = build_grid(0.0, 10.0, 128, 2.0)
        with pytest.raises(ConvergenceError):
            picard_reference(lambda t: 4.0, ORDER, 1.0, 0.0, g, max_iter=3)

    @pytest.mark.parametrize("solve", [solve_batch, picard_reference],
                             ids=["marching", "picard"])
    def test_each_coefficient_called_once_on_the_nodes(self, solve):
        g = build_grid(0.0, 1.0, 64, 2.0)
        calls = []

        def P(t):
            calls.append(t)
            return np.full(np.shape(t), 1.0)

        solve(P, ORDER, 1.0, 0.0, g)
        assert len(calls) == 1
        assert isinstance(calls[0], np.ndarray)
        np.testing.assert_array_equal(calls[0], g.nodes)

    def test_overflow_raises_convergence_error(self):
        g = build_grid(0.0, 1e8, 64, 2.0)
        with pytest.raises(ConvergenceError):
            solve_batch(lambda t: 1e300, Order(0.9), 1.0, 0.0, g)[0]

    def test_invalid_inputs(self):
        # the kernel matrix is cached per graded grid: other nodes are refused
        g = GradedGrid(0.0, 1.0, 3, math.nan, np.array([0.0, 0.1, 0.5, 1.0]))
        with pytest.raises(ValueError, match="graded grid"):
            solve_batch(ml_p, ORDER, 1.0, 1.0, g)[0]


class TestBlockedMarching:
    """The blocked solve against the node-by-node loop it replaces."""

    # P: varying, and a large constant
    VARYING = staticmethod(lambda s: 4.0 * (1.0 + 0.5 * np.cos(3.0 * s)))
    FORCED = staticmethod(lambda s: 10.0)

    @pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 65, 513])
    @pytest.mark.parametrize("kind", ["varying", "forced"])
    def test_matches_node_by_node_reference(self, n, kind):
        # the two basis columns of one pass, combined for k = 1 and k = 3
        # initial data, each column against its own node-by-node loop
        P = self.VARYING if kind == "varying" else self.FORCED
        g = build_grid(0.0, 3.0, n, 2.0)
        omega, scale = kernel_matrix(g, 1.0 - ORDER.alpha, ORDER.gamma)
        data = _node_data(P, ORDER, g)
        (basis_f,), (basis_g,), _ = _marching(omega, np.array([scale]),
                                              *(x[None] for x in data))
        assert basis_f.shape == basis_g.shape == (n + 1, 2)
        for f_a, g_a in (([0.6], [-0.8]), ([0.6, 1.0, -0.3], [-0.8, 0.0, 2.0])):
            wf, wg = basis_f @ [f_a, g_a], basis_g @ [f_a, g_a]
            for j, (fa, ga) in enumerate(zip(f_a, g_a)):
                for ref, got in zip(marching_reference(scale * omega.dense(), *data,
                                                       fa, ga),
                                    (wf[:, j], wg[:, j])):
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [613, 2048])
    def test_solve_batch_matches_a_march_on_the_dense_matrix(self, n):
        # several levels of interpolated far blocks, applied as factors,
        # against the node-by-node loop on the dense matrix they stand for
        g = build_grid(0.0, 3.0, n, 2.0)
        omega, scale = kernel_matrix(g, 1.0 - ORDER.alpha, ORDER.gamma)
        dense = scale * omega.dense()
        data = _node_data(self.VARYING, ORDER, g)
        f_a, g_a = [0.6, 1.0, -0.3], [-0.8, 0.0, 2.0]
        reps = solve_batch(self.VARYING, ORDER, f_a, g_a, g)
        for fa, ga, rep in zip(f_a, g_a, reps):
            for ref, got in zip(marching_reference(dense, *data, fa, ga), (rep.f, rep.g)):
                assert np.abs(got.reg_samples - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_singular_step_names_its_node(self):
        # P is nonzero only at node k > _BLOCK, where it makes det_k vanish
        n, k = 100, 40
        g = build_grid(0.0, 3.0, n, 2.0)
        omega, scale = kernel_matrix(g, 1.0 - ORDER.alpha, ORDER.gamma)
        omega = scale * omega.dense()
        d = g.nodes[k] ** ORDER.gamma / gamma_fn(ORDER.alpha) * omega[k, k]
        P = lambda s: np.where(s == g.nodes[k], -d ** -2, 0.0)
        data = _node_data(P, ORDER, g)
        with pytest.raises(ConvergenceError, match=rf"singular at node {k} \("):
            marching_reference(omega, *data, 1.0, 0.0)
        with pytest.raises(ConvergenceError, match=rf"singular at node {k} \("):
            solve_batch(P, ORDER, 1.0, 0.0, g)[0]
        # the Schur matrix does not depend on the data: one error per batch
        with pytest.raises(ConvergenceError, match=rf"singular at node {k} \("):
            solve_batch(P, ORDER, [1.0, 0.0, 0.5], [0.0, 1.0, 0.5], g)


class TestBatchedSolve:
    """k initial data in one solve against k single solves."""

    DIRECTIONS = 2.0 * np.pi * np.arange(8) / 8 + 0.1

    @pytest.mark.parametrize("n", [96, 512])
    def test_batch_matches_single_solves(self, n):
        g = build_grid(0.0, 5.0, n, 2.0)
        P = lambda t: 2.0 + np.cos(t)
        f_a, g_a = np.cos(self.DIRECTIONS), np.sin(self.DIRECTIONS)
        batch = solve_batch(P, ORDER, f_a, g_a, g)
        assert len(batch) == 8
        for fa, ga, got in zip(f_a, g_a, batch):
            ref = solve_batch(P, ORDER, fa, ga, g)[0]
            for w_ref, w_got in ((ref.f, got.f), (ref.g, got.g)):
                scale = np.abs(w_ref.reg_samples).max()
                assert np.abs(w_got.reg_samples - w_ref.reg_samples).max() \
                    <= 1e-13 * scale
            assert got.residual <= 1e-13  # per column, like ref.residual

    def test_non_finite_block_fails_the_batch(self):
        # overflow in any column raises once, with no report for the others
        g = build_grid(0.0, 1e8, 64, 2.0)
        with pytest.raises(ConvergenceError, match="non-finite"):
            solve_batch(lambda t: 1e300, Order(0.9), [1.0, 0.0, 0.6],
                        [0.0, 1.0, 0.8], g)

    def test_non_finite_residual_fails_the_batch(self):
        # the march stays finite at data near the float maximum, but the
        # defect overflows: alone or next to a finite column, no report
        g = build_grid(0.0, 1.0, 64, 2.0)
        for f_a, g_a in ((1e308, 1e308), ([1.0, 1e308], [0.0, 1e308])):
            with pytest.raises(ConvergenceError, match="non-finite residual"):
                solve_batch(lambda t: 1.0, ORDER, f_a, g_a, g)

    def test_data_near_the_float_maximum_solve(self):
        # The history carries the kernel_matrix scale, so no product on the
        # raw nodes j^r, (n^r)^(1-beta-gamma) = 64 times larger here, is
        # formed: data within that factor of the float maximum solve, with
        # samples and residual that scale with them.
        g = build_grid(0.0, 1.0, 64, 2.0)
        unit = solve_batch(lambda t: 1.0, ORDER, 1.0, 1.0, g)[0]
        rep = solve_batch(lambda t: 1.0, ORDER, 5e306, 5e306, g)[0]
        assert math.isfinite(rep.residual)
        assert rep.residual <= 5e306 * 1e-14
        for got, ref in ((rep.f, unit.f), (rep.g, unit.g)):
            np.testing.assert_allclose(got.reg_samples, 5e306 * ref.reg_samples,
                                       rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("f_a,g_a", [([], []), ([1.0, 0.0], [1.0])])
    def test_data_shapes(self, f_a, g_a):
        g = build_grid(0.0, 1.0, 16, 2.0)
        with pytest.raises(ValueError, match="data pairs"):
            solve_batch(ml_p, ORDER, f_a, g_a, g)


class TestScaleIdentity:
    """With a = 0 and lam = P^(1/(2 alpha)), f(t) solves the cell (P, L)
    exactly when f(t / lam) solves (1, lam L), with data (f_a, g_a) mapped to
    (lam^(1-alpha) f_a, lam^(1-2 alpha) g_a). So W_f = lam^(alpha-1) W_F and
    W_g = lam^(2 alpha-1) W_G node by node, and the zeros scale by lam: the
    data scaling, pf, R and the zero search of the whole solve, where
    TestKernelMatrixScaling checks the kernel matrix alone."""

    THETA = 2.0 * np.pi * np.arange(4) / 4 + 0.3

    @pytest.mark.parametrize("length", [0.5, 5.0])
    @pytest.mark.parametrize("P", [0.5, 2.0, 7.0])
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_cell_p_is_cell_one_on_a_longer_interval(self, alpha, P, length):
        # measured at n = 256: samples to 1.4e-15 relative, zeros to 6.2e-15 L
        order, lam = Order(alpha), P ** (1.0 / (2.0 * alpha))
        f_a, g_a = np.cos(self.THETA), np.sin(self.THETA)
        grid = build_grid(0.0, length, 256, 2.0)
        unit = build_grid(0.0, lam * length, 256, 2.0)
        reps = solve_batch(lambda t: P, order, f_a, g_a, grid)
        refs = solve_batch(lambda t: 1.0, order, lam ** (1.0 - alpha) * f_a,
                           lam ** (1.0 - 2.0 * alpha) * g_a, unit)
        for rep, ref in zip(reps, refs):
            for got, w, e in ((rep.f, ref.f, alpha - 1.0), (rep.g, ref.g, 2.0 * alpha - 1.0)):
                want = lam ** e * w.reg_samples
                assert np.abs(got.reg_samples - want).max() <= 1e-13 * np.abs(want).max()
                zeros = find_zeros(got, 0.01 * length, length)
                scaled = find_zeros(w, 0.01 * lam * length, lam * length) / lam
                assert zeros.size == scaled.size
                assert np.abs(zeros - scaled).max(initial=0.0) <= 1e-13 * length


class TestSolveFite:
    def test_zero_coefficient_gives_free_term(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        rep = solve_batch(lambda t: 0.0, ORDER, 1.0, 0.0, g)[0]
        np.testing.assert_allclose(rep.f.reg_samples, 1.0)
        np.testing.assert_array_equal(rep.g.reg_samples, 0.0)

    def test_two_scheme_cross_check(self):
        g = build_grid(0.0, 1.0, 256, 2.0)
        pic = picard_reference(lambda t: 1.0, ORDER, 0.0, 1.0, g)
        mar = solve_batch(lambda t: 1.0, ORDER, 0.0, 1.0, g)[0]
        diff = max(np.abs(pic.f.reg_samples - mar.f.reg_samples).max(),
                   np.abs(pic.g.reg_samples - mar.g.reg_samples).max())
        assert diff <= 1e-6

    def test_returned_g_is_fractional_derivative(self):
        g = build_grid(0.0, 1.0, 512, 2.0)
        rep = solve_batch(lambda t: 1.0, ORDER, 0.0, 1.0, g)[0]
        d = rl_derivative(rep.f, ORDER.alpha)
        t = g.nodes[3:-2]
        raw_d = d.reg_samples[3:-2] / t**ORDER.alpha
        raw_g = rep.g.reg_samples[3:-2] / t**ORDER.gamma
        err = np.abs((raw_d - raw_g) * t**ORDER.gamma)
        assert err.max() <= 5e-3


class TestResidual:
    def test_zero_solution_zero_residual(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        rep = solve_batch(ml_p, ORDER, 0.0, 0.0, g)[0]
        assert residual(ml_p, ORDER, rep) == 0.0

    def test_converged_solve_small_residual(self):
        g = build_grid(0.0, 1.0, 256, 2.0)
        rep = solve_batch(ml_p, ORDER, 1.0, 1.0, g)[0]
        assert rep.residual <= 1e-6

    def test_perturbation_raises_residual(self):
        g = build_grid(0.0, 1.0, 128, 2.0)
        rep = solve_batch(ml_p, ORDER, 1.0, 1.0, g)[0]
        bumped = rep.f.reg_samples.copy()
        bumped[64] += 1.0
        perturbed = SolveReport(f=from_samples(bumped, rep.f.gamma, g),
                                g=rep.g, residual=0.0)
        assert residual(ml_p, ORDER, perturbed) >= 0.5

    @pytest.mark.parametrize("n", [64, 613, 4096])
    def test_report_residual_is_residual_of_its_pair(self, n):
        # the report combines the march's four-column rows of Omega @ U,
        # residual() walks its pair's two columns: the same defect up to
        # rounding. Measured gaps 0, 3.3e-16 and 6.1e-16 with max|W| = 1.56,
        # at most 1.8 eps max|W|.
        g = build_grid(0.0, 3.0, n, 2.0)
        P = TestBlockedMarching.VARYING
        rep = solve_batch(P, ORDER, 0.6, -0.8, g)[0]
        w_max = max(np.abs(rep.f.reg_samples).max(), np.abs(rep.g.reg_samples).max())
        assert abs(rep.residual - residual(P, ORDER, rep)) \
            <= 16 * np.finfo(float).eps * w_max

    def test_solve_walks_the_operator_once(self, monkeypatch):
        # with the two basis columns, whatever the number of data
        walks = []
        blocks = KernelOperator.blocks

        def counted(self, U):
            walks.append(U.shape)
            return blocks(self, U)

        monkeypatch.setattr(KernelOperator, "blocks", counted)
        g = build_grid(0.0, 3.0, 613, 2.0)
        for k in (1, 3, 8):
            walks.clear()
            theta = np.arange(k) + 0.5
            reps = solve_batch(TestBlockedMarching.VARYING, ORDER, np.cos(theta),
                               np.sin(theta), g)
            assert len(reps) == k
            assert walks == [(614, 4)]
