"""Graded grids, weighted-function storage, and the weighted norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfite import (GradedGrid, Order, build_grid, eval_reg, from_samples,
                      kernel_matrix)
from oracles import eval_raw, from_callable, norm_full, norm_window


class TestOrder:
    @pytest.mark.parametrize("alpha", [0.51, 0.75, 0.99])
    def test_gamma_is_complement(self, alpha):
        assert Order(alpha).gamma == pytest.approx(1.0 - alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 0.3, 1.4])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            Order(alpha)


class TestBuildGrid:
    def test_uniform_two_cells(self):
        g = build_grid(0.0, 1.0, 2, 1.0)
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0])

    def test_quadratic_two_cells(self):
        g = build_grid(0.0, 1.0, 2, 2.0)
        np.testing.assert_allclose(g.nodes, [0.0, 0.25, 1.0])

    def test_offset_interval(self):
        g = build_grid(1.0, 3.0, 4, 2.0)
        np.testing.assert_allclose(g.nodes, [1.0, 1.125, 1.5, 2.125, 3.0])

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            build_grid(2.0, 2.0, 8, 2.0)
        with pytest.raises(ValueError):
            build_grid(3.0, 1.0, 8, 2.0)

    def test_too_few_cells_and_bad_grading(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 1, 2.0)
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 8, 0.5)

    @pytest.mark.parametrize("a,c,n,r", [(1.3, 2.3, 513, 6.0), (0.0, 1.0, 128, 200.0)])
    def test_nodes_that_round_together_are_rejected(self, a, c, n, r):
        # t_1 rounds to a: (1/513)^6 is below half an ulp of 1.3, and
        # (1/128)^200 underflows to 0
        with pytest.raises(ValueError, match="strictly increasing"):
            build_grid(a, c, n, r)

    @settings(max_examples=50)
    @given(a=st.floats(-5.0, 5.0), length=st.floats(0.01, 10.0),
           n=st.integers(2, 64), r=st.floats(1.0, 4.0))
    def test_invariants(self, a, length, n, r):
        g = build_grid(a, a + length, n, r)
        assert g.nodes[0] == a and g.nodes[-1] == a + length
        assert np.all(np.diff(g.nodes) > 0.0)

    def test_from_nodes_random_nodes_are_not_graded(self):
        # the kernel matrix is cached on (n, r): for nodes of another spacing
        # it was the matrix of a different grid, with no error raised
        rng = np.random.default_rng(0)
        nodes = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 29)), [1.0]))
        g = GradedGrid(0.0, 1.0, 30, math.nan, nodes)
        with pytest.raises(ValueError, match="graded grid"):
            kernel_matrix(g, 0.75, 0.25)


class TestWeightedFn:
    def test_pure_singular_part(self):
        # f(t) = (t-a)^{-gamma}: regularized part identically 1
        g = build_grid(0.0, 1.0, 32, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.25, g)
        np.testing.assert_allclose(w.reg_samples, 1.0)

    def test_smooth_function_has_zero_limit(self):
        g = build_grid(0.0, 1.0, 32, 2.0)
        w = from_callable(lambda t: t**0.25, 0.0, 0.25, g)
        assert w.reg_samples[0] == 0.0
        np.testing.assert_allclose(w.reg_samples[1:], g.nodes[1:] ** 0.25)

    def test_rejects_non_finite_samples(self):
        g = build_grid(0.0, 1.0, 8, 2.0)
        bad = g.nodes[4]
        with pytest.raises(ValueError):
            from_callable(lambda t: math.inf if t == bad else 1.0, 0.0, 0.25, g)

    def test_eval_raw_pure_singular(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.25, g)
        for t in (1e-4, 0.37, 1.0):
            assert eval_raw(w, t) == pytest.approx(t ** (-0.25), rel=1e-12)

    def test_eval_raw_rejects_left_endpoint(self):
        g = build_grid(0.0, 1.0, 8, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.25, g)
        with pytest.raises(ValueError):
            eval_raw(w, 0.0)
        with pytest.raises(ValueError):
            eval_raw(w, 1.0 + 1e-9)

    def test_eval_raw_interpolation_error_order(self):
        # f == 1 stored through its regularized part; midpoint error is
        # second order in the cell size of the regularized variable
        errs = []
        for n in (64, 128):
            g = build_grid(0.0, 1.0, n, 1.0)
            w = from_callable(lambda t: t**0.25, 0.0, 0.25, g)
            mid = 0.5 * (g.nodes[n // 2] + g.nodes[n // 2 + 1])
            errs.append(abs(eval_raw(w, mid) - 1.0))
        assert errs[1] < errs[0] / 3.0  # ~4x per halving


class TestNorms:
    def test_pure_singular_norms(self):
        g = build_grid(0.0, 1.0, 32, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.25, g)
        assert norm_full(w) == pytest.approx(1.0)
        assert norm_window(w, 0.2, 0.8) == pytest.approx(1.0)

    def test_smooth_one_norm_is_weight_at_right_end(self):
        g = build_grid(0.0, 2.0, 64, 2.0)
        w = from_callable(lambda t: t**0.25, 0.0, 0.25, g)
        assert norm_full(w) == pytest.approx(2.0**0.25, rel=1e-12)
        assert norm_window(w, 0.5, 2.0) == pytest.approx(2.0**0.25, rel=1e-12)

    def test_window_max_of_sine(self):
        g = build_grid(0.0, 1.0, 512, 1.0)
        w = from_callable(lambda t: math.sin(math.pi * t), 0.0, 0.25, g)
        assert norm_window(w, 0.4, 0.6) == pytest.approx(1.0, abs=1e-4)

    def test_limit_value_bounded_by_full_norm(self):
        g = build_grid(0.0, 1.0, 16, 2.0)
        rng = np.random.default_rng(7)
        for _ in range(25):
            w = from_samples(rng.uniform(-2, 2, 17), 0.3, g)
            assert abs(w.reg_samples[0]) <= norm_full(w) + 1e-15

    @settings(max_examples=40)
    @given(lo=st.floats(0.01, 0.98), width=st.floats(0.01, 0.98))
    def test_window_norm_bounded_by_full(self, lo, width):
        g = build_grid(0.0, 1.0, 32, 2.0)
        rng = np.random.default_rng(11)
        w = from_samples(rng.uniform(-3, 3, 33), 0.25, g)
        hi = min(lo + width, 1.0)
        assert norm_window(w, lo, hi) <= norm_full(w) + 1e-12

    def test_window_norm_monotone_in_window(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        rng = np.random.default_rng(3)
        w = from_samples(rng.uniform(-3, 3, 65), 0.25, g)
        vals = [norm_window(w, 0.4 - d, 0.6 + d) for d in (0.0, 0.1, 0.2, 0.3)]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))

    def test_window_norm_of_a_steep_cell(self):
        # the first cell's slope overflows, which np.interp turned into an
        # inf window end; the max is W at the window's left end
        g = build_grid(0.0, 3.8e-13, 2, 1.0)
        w = from_samples([-1.6e297, -7.9e296, 1.0], 0.45, g)
        assert norm_window(w, 1e-13, 3.8e-13) == abs(eval_reg(w, 1e-13))
        assert norm_window(w, 1e-13, 3.8e-13) == pytest.approx(1.1737e297, rel=1e-4)

    def test_window_bounds_checked(self):
        g = build_grid(0.0, 1.0, 8, 2.0)
        w = from_callable(lambda t: 1.0, 1.0, 0.25, g)
        with pytest.raises(ValueError):
            norm_window(w, 0.0, 0.5)   # b must exceed a
        with pytest.raises(ValueError):
            norm_window(w, 0.5, 1.5)

    def test_eval_reg_matches_samples_at_nodes(self):
        g = build_grid(0.0, 1.0, 16, 2.0)
        w = from_callable(lambda t: math.cos(t), 1.0, 0.25, g)
        np.testing.assert_allclose(eval_reg(w, g.nodes), w.reg_samples)

    def test_eval_reg_stays_between_the_samples_of_a_steep_cell(self):
        # the slope 8.1e296 / 1.9e-13 of the first cell overflows
        g = build_grid(0.0, 3.8e-13, 2, 1.0)
        w = from_samples([-1.6e297, -7.9e296, 1.0], 0.45, g)
        t = np.linspace(0.0, g.nodes[1], 7)
        vals = eval_reg(w, t)
        assert np.isfinite(vals).all()
        assert ((-1.6e297 <= vals) & (vals <= -7.9e296)).all()
        assert vals[0] == -1.6e297 and vals[-1] == -7.9e296

    @pytest.mark.parametrize("a,c,r", [(0.0, 1.0, 2.0), (-3.7, 1e-3, 6.0),
                                       (1e8, 1e8 + 0.3, 1.0)])
    def test_clamp_never_acts_inside_the_nodes(self, a, c, r):
        # rounding is monotone, so 0 <= fl(t - t_j) <= fl(t_{j+1} - t_j):
        # inside [a, c] eval_reg is the unclamped interpolant bit for bit
        g = build_grid(a, c, 97, r)
        rng = np.random.default_rng(5)
        w = from_samples(rng.standard_normal((98, 2)), 0.25, g)
        nodes = g.nodes
        t = np.concatenate([nodes, rng.uniform(a, c, 500), np.nextafter(nodes, np.inf)[:-1],
                            np.nextafter(nodes, -np.inf)[1:]])
        j = np.searchsorted(nodes[1:-1], t, side="right")
        u = ((t - nodes[j]) / (nodes[j + 1] - nodes[j]))[:, None]
        assert ((0.0 <= u) & (u <= 1.0)).all()
        unclamped = (1.0 - u) * w.reg_samples[j] + u * w.reg_samples[j + 1]
        assert np.array_equal(eval_reg(w, t), unclamped)

    def test_clamped_past_the_ends(self):
        g = build_grid(0.0, 1.0, 4, 2.0)
        w = from_samples([2.0, 3.0, 5.0, 7.0, 11.0], 0.25, g)
        assert eval_reg(w, -1.0) == 2.0 and eval_reg(w, 2.0) == 11.0
