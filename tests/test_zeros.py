"""Zero localization on sampled regularized parts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfite import (Order, build_grid, eval_reg, find_zeros, first_zero_pair,
                      from_samples, solve_fite)
from oracles import from_callable, norm_window, zero_set


def sine_fn(k, n=1024, c=2.0):
    g = build_grid(0.0, c, n, 2.0)
    return from_callable(lambda t: math.sin(k * t), 0.0, 0.25, g)


class TestFindZeros:
    def test_exact_roots_of_piecewise_linear_samples(self):
        # W(t) = +-(t - z_j) near each z_j, so the interpolant is linear
        # through z_j inside its cell; one root sits exactly on a node
        g = build_grid(0.0, 1.0, 200, 2.0)
        t = g.nodes
        cells = (20, 57, 90, 141, 180)
        z = np.array([t[i] + th * (t[i + 1] - t[i])
                      for i, th in zip(cells, (0.3, 0.71, 0.5, 0.0, 0.93))])
        mids = (z[1:] + z[:-1]) / 2
        j = np.searchsorted(mids, t)
        w = from_samples((-1.0) ** j * (t - z[j]), 0.25, g)
        zs = find_zeros(w, 0.01, 1.0)
        assert zs.size == z.size
        assert np.abs(zs - z).max() <= 1e-15 * g.length

    def test_tiny_samples_still_change_sign(self):
        # adjacent samples whose product underflows to 0 still bracket a zero
        g = build_grid(0.0, 1.0, 64, 1.0)
        w = from_samples(1e-170 * (g.nodes - 0.3), 0.25, g)
        zs = find_zeros(w, 0.1, 1.0)
        assert zs.size == 1 and zs[0] == pytest.approx(0.3, abs=1e-15)

    def test_root_on_a_long_window(self):
        # W falls from 4 to -4 across [5e307, 1e308]: 4 * 5e307 overflows, and
        # the root was clipped to the bracket's end 1e308
        g = build_grid(0.0, 1e308, 2, 1.0)
        w = from_samples(np.array([4.0, 4.0, -4.0]), 0.0, g)
        assert find_zeros(w, 1e300, 1e308).tolist() == [7.5e307]

    def test_single_sine_zero(self):
        g = build_grid(0.0, 2.0, 1024, 1.0)
        w = from_callable(lambda t: math.sin(math.pi * t), 0.0, 0.25, g)
        zs = find_zeros(w, 0.5, 1.5)
        assert len(zs) == 1
        assert zs[0] == pytest.approx(1.0, abs=1e-9)

    def test_strictly_positive_has_none(self):
        g = build_grid(0.0, 1.0, 128, 2.0)
        w = from_callable(lambda t: 1.0 + t, 1.0, 0.25, g)
        assert find_zeros(w, 0.1, 1.0).size == 0

    def test_exact_node_zero_counted_once(self):
        g = build_grid(0.0, 1.0, 16, 1.0)
        vals = np.ones(17)
        vals[8] = 0.0
        w = from_samples(vals, 0.0, g)
        zs = find_zeros(w, 0.1, 1.0)
        assert len(zs) == 1
        assert zs[0] == pytest.approx(g.nodes[8])

    def test_sign_change_zero_within_bracketing_cell(self):
        g = build_grid(0.0, 1.0, 64, 2.0)
        rng = np.random.default_rng(9)
        w = from_samples(rng.uniform(0.5, 1.5, 65) * np.sign(g.nodes - 0.42),
                         0.0, g)
        zs = find_zeros(w, 0.05, 1.0)
        k = np.searchsorted(g.nodes, 0.42)
        assert len(zs) >= 1
        lo, hi = g.nodes[k - 1], g.nodes[k]
        assert any(lo <= z <= hi for z in zs)

    def test_analytic_zero_count(self):
        # zeros of sin(k t) in [b, c]: floor(k c/pi) - ceil(k b/pi) + 1
        for k in (3, 7, 12, 20):
            w = sine_fn(k)
            b, c = 0.15, 2.0
            expected = math.floor(k * c / math.pi) - math.ceil(k * b / math.pi) + 1
            assert len(find_zeros(w, b, c)) == expected

    def test_refined_zeros_are_small(self):
        order = Order(0.75)
        g = build_grid(0.0, 8.0, 1024, 2.0)
        rep = solve_fite(lambda t: 4.0, order, 0.0, 1.0, g)
        zs = find_zeros(rep.f, 0.08, 8.0)
        assert zs.size > 0
        tol = 1e-10 * norm_window(rep.f, 0.08, 8.0)
        for z in zs:
            assert abs(float(eval_reg(rep.f, z))) <= tol

    def test_window_validation(self):
        w = sine_fn(3)
        with pytest.raises(ValueError):
            find_zeros(w, 0.0, 1.0)    # b must exceed a
        with pytest.raises(ValueError):
            find_zeros(w, 0.5, 2.5)    # beyond c
        with pytest.raises(ValueError):
            find_zeros(w, 1.0, 0.5)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_zeros_sorted_and_inside_window(self, seed):
        g = build_grid(0.0, 1.0, 64, 2.0)
        rng = np.random.default_rng(seed)
        w = from_samples(rng.uniform(-1.0, 1.0, 65), 0.25, g)
        zs = find_zeros(w, 0.2, 0.9)
        assert np.all(np.diff(zs) > 0.0)
        assert np.all((zs >= 0.2) & (zs <= 0.9))


class TestFirstZeroPair:
    def test_pair_ordering(self):
        g = build_grid(0.0, 2.0, 512, 1.0)
        f = from_callable(lambda t: t - 1.0, -1.0, 0.25, g)
        h = from_callable(lambda t: t - 1.2, -1.2, 0.25, g)
        pair = first_zero_pair(f, h, 0.5, 2.0)
        assert pair is not None
        assert pair[0] == pytest.approx(1.0, abs=1e-9)
        assert pair[1] == pytest.approx(1.2, abs=1e-9)

    def test_missing_zero_returns_none(self):
        g = build_grid(0.0, 2.0, 128, 1.0)
        f = from_callable(lambda t: t - 1.0, -1.0, 0.25, g)
        h = from_callable(lambda t: 1.0 + t, 1.0, 0.25, g)
        assert first_zero_pair(f, h, 0.5, 2.0) is None

    def test_same_function_gives_equal_points(self):
        g = build_grid(0.0, 2.0, 512, 1.0)
        f = from_callable(lambda t: t - 1.0, -1.0, 0.25, g)
        pair = first_zero_pair(f, f, 0.5, 2.0)
        assert pair[0] == pair[1]

    def test_zero_set_collects_both(self):
        w = sine_fn(6)
        zs = zero_set(w, w, 0.2, 2.0)
        assert zs.zeros_f == zs.zeros_g
        assert zs.window == (0.2, 2.0)
