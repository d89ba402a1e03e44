"""Zero localization on sampled regularized parts: zeros.first_zero_pair
against find_zeros, the test oracle that searches one function point by
point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfite import Order, build_grid, eval_reg, first_zero_pair, from_samples
from fracfite.sfde import solve_batch
from oracles import find_zeros, from_callable, norm_window, zero_set


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
        assert first_zero_pair(w, w, 0.1, 1.0) == [(zs[0], zs[0])]

    def test_root_on_a_long_window(self):
        # W falls from 4 to -4 across [5e307, 1e308]: 4 * 5e307 overflows, and
        # the root was clipped to the bracket's end 1e308
        g = build_grid(0.0, 1e308, 2, 1.0)
        w = from_samples(np.array([4.0, 4.0, -4.0]), 0.0, g)
        assert find_zeros(w, 1e300, 1e308).tolist() == [7.5e307]
        assert first_zero_pair(w, w, 1e300, 1e308) == [(7.5e307, 7.5e307)]

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
        rep = solve_batch(lambda t: 4.0, order, 0.0, 1.0, g)[0]
        zs = find_zeros(rep.f, 0.08, 8.0)
        assert zs.size > 0
        tol = 1e-10 * norm_window(rep.f, 0.08, 8.0)
        for z in zs:
            assert abs(float(eval_reg(rep.f, z))) <= tol

    def test_window_validation(self):
        w = sine_fn(3)
        for b, c_w in ((0.0, 1.0),    # b must exceed a
                       (0.5, 2.5),    # beyond c
                       (1.0, 0.5)):
            with pytest.raises(ValueError, match="not inside"):
                find_zeros(w, b, c_w)
            with pytest.raises(ValueError, match="not inside"):
                first_zero_pair(w, w, b, c_w)

    def test_one_function_only(self):
        # the zeros of several columns are no one function's zeros
        g = build_grid(0.0, 1.0, 16, 1.0)
        w = from_samples(np.column_stack([g.nodes - 0.5, g.nodes - 0.25]), 0.0, g)
        with pytest.raises(ValueError, match="one function"):
            find_zeros(w, 0.1, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_zeros_sorted_and_inside_window(self, seed):
        g = build_grid(0.0, 1.0, 64, 2.0)
        rng = np.random.default_rng(seed)
        w = from_samples(rng.uniform(-1.0, 1.0, 65), 0.25, g)
        zs = find_zeros(w, 0.2, 0.9)
        assert np.all(np.diff(zs) > 0.0)
        assert np.all((zs >= 0.2) & (zs <= 0.9))


def columns(g, *regs, gamma=0.25):
    """One WeightedFn whose columns sample the regularized parts regs, each
    a function of t whose limit value is its value at a."""
    return from_samples(np.column_stack([from_callable(reg, reg(g.a), gamma, g).reg_samples
                                         for reg in regs]), gamma, g)


class TestFirstZeroPair:
    """One search over the columns of f and g: per column, its first zero
    pair or None."""

    def test_pair_ordering(self):
        g = build_grid(0.0, 2.0, 512, 1.0)
        f = columns(g, lambda t: t - 1.0, lambda t: t - 0.7)
        h = columns(g, lambda t: t - 1.2, lambda t: t - 0.6)
        (f1, h1), (f2, h2) = first_zero_pair(f, h, 0.5, 2.0)
        assert f1 == pytest.approx(1.0, abs=1e-9) and h1 == pytest.approx(1.2, abs=1e-9)
        assert f2 == pytest.approx(0.7, abs=1e-9) and h2 == pytest.approx(0.6, abs=1e-9)

    def test_missing_zero_returns_none(self):
        g = build_grid(0.0, 2.0, 128, 1.0)
        f = columns(g, lambda t: t - 1.0, lambda t: 1.0 + t, lambda t: t - 1.0)
        h = columns(g, lambda t: 1.0 + t, lambda t: t - 1.0, lambda t: t - 1.5)
        pairs = first_zero_pair(f, h, 0.5, 2.0)
        assert pairs[:2] == [None, None]
        assert pairs[2] == pytest.approx((1.0, 1.5), abs=1e-9)

    def test_same_function_gives_equal_points(self):
        g = build_grid(0.0, 2.0, 512, 1.0)
        f = columns(g, lambda t: t - 1.0, lambda t: t - 1.3)
        assert [p[0] == p[1] for p in first_zero_pair(f, f, 0.5, 2.0)] == [True, True]

    def test_one_dimensional_samples_are_one_column(self):
        w = sine_fn(6)
        assert first_zero_pair(w, w, 0.2, 2.0) == [(find_zeros(w, 0.2, 2.0)[0],) * 2]

    @staticmethod
    def planted(rng, g, b, c_w):
        """Three columns, positive but for an exact zero of the interpolant
        at b, at c_w and at an interior node of [b, c_w] (if it holds one),
        and that node's index or None. A zero between two nodes sets its
        cell's two samples to 0."""
        nodes = g.nodes
        E = rng.uniform(0.5, 2.0, (g.n + 1, 3))
        i_b = np.searchsorted(nodes, b, side="right") - 1  # b's cell starts here
        E[[i_b, i_b + 1], 0] = 0.0
        i_c = np.searchsorted(nodes, c_w)  # c_w's cell ends here
        E[[i_c] if nodes[i_c] == c_w else [i_c - 1, i_c], 1] = 0.0
        inner = np.flatnonzero((nodes > b) & (nodes < c_w))
        i = int(rng.choice(inner)) if inner.size else None
        if i is not None:
            E[i, 2] = 0.0
        return E, i

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_each_pair_is_the_columns_first_zeros(self, data):
        # Against find_zeros column by column, bit for bit: random columns,
        # some of one sign, with exact zeros planted at nodes and at b, and
        # three columns of one sign with an exact zero at b, at c_w and at
        # an interior node, on unit and 1e308-long grids, at sample scales
        # 1 and 1e-170, in windows that may end before c.
        n, k = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 5))
        a, length = data.draw(st.sampled_from([(0.0, 1.0), (2.5, 3.0), (0.0, 1e308)]))
        g = build_grid(a, a + length, n, data.draw(st.sampled_from([1.0, 2.0, 3.5])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # a column's offset makes some of one sign and others change sign rarely
        W = rng.uniform(-2.0, 2.0, (2, 1, k)) + rng.uniform(-1.0, 1.0, (2, n + 1, k))
        W[rng.random(W.shape) < 0.1] = 0.0
        if data.draw(st.booleans()):  # b at a node, where some columns vanish
            i = data.draw(st.integers(1, n - 1))
            b = g.nodes[i]
            W[:, i][rng.random((2, k)) < 0.5] = 0.0
        else:
            b = a + data.draw(st.floats(1e-3, 0.9)) * length
        before_c = b + data.draw(st.floats(0.05, 0.99)) * (g.c - b)
        c_w = data.draw(st.sampled_from([g.c, before_c]))
        (E_f, node), (E_h, _) = (self.planted(rng, g, b, c_w) for _ in range(2))
        W = np.concatenate([W, np.stack([E_f, E_h[:, [2, 0, 1]]])], axis=2)
        W *= data.draw(st.sampled_from([1.0, 1e-170]))
        f, h = (from_samples(w, 0.0, g) for w in W)
        expected = []
        for j in range(k + 3):
            zf, zh = (find_zeros(from_samples(w[:, j], 0.0, g), b, c_w) for w in W)
            expected.append((float(zf[0]), float(zh[0])) if zf.size and zh.size else None)
        assert repr(first_zero_pair(f, h, b, c_w)) == repr(expected)
        firsts = [p[0] if p else None for p in first_zero_pair(f, f, b, c_w)[k:]]
        assert firsts[0] == b
        assert c_w != g.c or firsts[1] == c_w
        assert firsts[2] == (None if node is None else g.nodes[node])

    def test_zero_set_collects_both(self):
        w = sine_fn(6)
        zs = zero_set(w, w, 0.2, 2.0)
        assert zs.zeros_f == zs.zeros_g
        assert zs.window == (0.2, 2.0)
