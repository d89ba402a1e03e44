"""Scenario harness: verdict logic, sweeps, and the classical oracle."""

import concurrent.futures
import dataclasses
import functools
import gc
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from fracfite import (CoefficientSpec, ConfigError, Order, Scenario, SweepSpec,
                      best_min_length, build_grid, from_samples, sweep)
from fracfite import bounds, rlops
from fracfite import cli as cli_module
from fracfite.cli import main
from fracfite import sfde as sfde_module
from fracfite import verify as verify_module
from fracfite.verify import VERDICTS, parse_config
from fracfite.sfde import solve_batch, solve_cells
from oracles import (arcs_meet, classical_fite_check, common_theta, find_zeros,
                     fite_closed_form, kappa_closed_form, mittag_leffler, on_arcs,
                     poly_series, theta_arcs)

ORDER = Order(0.75)


def solve_directions(cell):
    """A cell's directions solved as `fracfite solve` solves one scenario
    (sfde.solve_batch): one SolveReport per direction, in order."""
    P, f_a, g_a, grid = verify_module._problem(cell)
    return solve_batch(P, cell[0].order, f_a, g_a, grid)


def inflate_rhs(monkeypatch, factor):
    """Fault injection: the harness compares lhs with the bound's right side
    times factor (a pool forked after this inherits it)."""
    monkeypatch.setattr(verify_module, "fite_rhs",
                        lambda order: bounds.fite_rhs(order) * factor)


def directions_of(cells):
    """Each direction of the cell reports, in order, as (cell, direction,
    verdict, residual, zero pair)."""
    for cell in cells:
        yield from ((cell, *row) for row in zip(cell.directions, cell.verdicts,
                                                 cell.residuals, cell.zero_pairs))


def fite_scenario(**kw):
    base = dict(order=ORDER, a=0.0, b=0.01, c=1.0,
                p_coeff=CoefficientSpec.const(1.0), f_a=0.0, g_a=1.0,
                n=256, r=2.0)
    base.update(kw)
    return Scenario(**base)


class TestCoefficientSpec:
    def test_const_roundtrip(self):
        spec = CoefficientSpec.from_obj({"const": 2.5})
        assert spec.as_callable(0.0)(17.0) == 2.5
        assert spec.to_obj() == {"const": 2.5}

    def test_poly_in_shifted_variable(self):
        spec = CoefficientSpec.poly([1.0, 0.0, 2.0])  # 1 + 2 (t-a)^2
        fn = spec.as_callable(1.0)
        assert fn(2.0) == pytest.approx(3.0)
        assert spec.range_on(1.0, 2.0)[1] == pytest.approx(3.0, rel=1e-5)

    def test_table_interpolation(self):
        spec = CoefficientSpec.table([[0.0, 1.0], [1.0, 3.0]])
        assert spec.as_callable(0.0)(0.5) == pytest.approx(2.0)

    def test_table_must_cover_interval(self):
        spec = CoefficientSpec.table([[0.0, 1.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            spec.range_on(0.0, 1.0)

    def test_table_range_exact(self):
        # knots inside (a, c) and the interpolated ends; knots outside and
        # between samples alike
        spec = CoefficientSpec.table([[-1.0, 9.0], [0.3, 2.0], [0.30001, -4.0],
                                      [0.30002, 2.0], [2.0, 5.0], [3.0, -9.0]])
        assert spec.range_on(0.0, 2.5) == (-4.0, 5.0)
        slope = 3.0 / (2.0 - 0.30002)
        assert spec.range_on(0.5, 1.5) == pytest.approx(
            (2.0 + slope * (0.5 - 0.30002), 2.0 + slope * (1.5 - 0.30002)), rel=1e-14)

    def test_poly_range_exact(self):
        # (t - 5.0012)^2 - 1e-6 dips below 0 between 2049 equispaced
        # samples of [0, 10]; its stationary point is a candidate
        spec = CoefficientSpec.poly([25.01200044, -10.0024, 1.0])
        lo, hi = spec.range_on(0.0, 10.0)
        assert lo == pytest.approx(-1e-6, rel=1e-6) and hi == 25.01200044
        # 1 + (t-a) - (t-a)^3 on [2, 3]: interior max at t - a = 1/sqrt(3),
        # min 1 at both ends; the stationary point at -1/sqrt(3) is outside
        spec = CoefficientSpec.poly([1.0, 1.0, 0.0, -1.0])
        u = 1.0 / math.sqrt(3.0)
        assert spec.range_on(2.0, 3.0) == pytest.approx((1.0, 1.0 + u - u**3),
                                                        rel=1e-15)
        assert CoefficientSpec.poly([]).range_on(0.0, 1.0) == (0.0, 0.0)
        assert CoefficientSpec.poly([2.0, -1.0]).range_on(0.0, 1.0) == (1.0, 2.0)

    @pytest.mark.parametrize("obj", [{"const": 2.5}, {"poly": [1.0, -0.5, 2.0]},
                                     {"table": [[0.0, 1.0], [1.0, 3.0], [3.0, 0.0]]}])
    def test_callable_takes_node_array(self, obj):
        fn = CoefficientSpec.from_obj(obj).as_callable(0.5)
        t = np.linspace(0.5, 3.0, 17)
        vals = fn(t)
        assert isinstance(vals, np.ndarray) and vals.shape == t.shape
        np.testing.assert_array_equal(vals, [fn(x) for x in t])

    def test_range_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            CoefficientSpec.const(math.nan).range_on(0.0, 1.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            CoefficientSpec.poly([0.0, 1e300, 1e300]).range_on(0.0, 1e10)

    @pytest.mark.parametrize("coeffs,c,message", [
        ([0.0, 0.0, 1e308], 1.0, r"must be finite, derivative is \[0.0, inf\]"),
        ([1e308, 1e308], 1.0, r"must be finite on \[0.0, 1.0\], range is "
                              r"\[1e\+308, inf\]"),
        ([1.0, 2.0, -1.0, 1e-320], 2.0, "its stationary points are not finite")],
        ids=["derivative", "value", "stationary_point"])
    def test_overflowing_poly_is_a_config_error(self, coeffs, c, message):
        # each overflow was a RuntimeWarning, an error in this suite
        with pytest.raises(ConfigError, match=f"^P: {message}"):
            fite_scenario(p_coeff=CoefficientSpec.poly(coeffs), c=c)

    @pytest.mark.parametrize("points,message", [
        ([[-math.inf, 1.0], [math.inf, 1.0]], "knots and values must be finite"),
        ([[0.0, 1.0], [1.0, math.nan]], "knots and values must be finite"),
        ([[-1e308, 1.0], [1e308, 2.0]], "with finite gaps")],
        ids=["knot", "value", "gap"])
    def test_table_rejects(self, points, message):
        # a gap of 2e308 overflows, and the interpolant over it is constant
        with pytest.raises(ValueError, match=message):
            CoefficientSpec.table(points)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CoefficientSpec.from_obj({"spline": [1.0]})


class TestScenarioValidation:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            fite_scenario(b=0.0)
        with pytest.raises(ValueError):
            fite_scenario(b=1.5)

    def test_trivial_data_rejected(self):
        with pytest.raises(ValueError):
            fite_scenario(f_a=0.0, g_a=0.0)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            fite_scenario(p_coeff=CoefficientSpec.const(-0.5))

    @pytest.mark.parametrize("field", ["a", "b", "c", "f_a", "g_a", "tol"])
    def test_non_finite_field_rejected(self, field):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{field}: must be finite"):
                fite_scenario(**{field: value})

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError, match="^P: must be finite"):
            fite_scenario(p_coeff=CoefficientSpec.const(math.inf))

    def test_poly_dip_below_zero_rejected(self):
        with pytest.raises(ConfigError, match="^P: must be nonnegative"):
            fite_scenario(p_coeff=CoefficientSpec.poly([25.01200044, -10.0024, 1.0]),
                          c=10.0)

    def test_matrix_cap(self):
        # a plain bound: validating n = 16383 builds no kernel
        assert fite_scenario(n=16383).n == 16383
        for n in (16384, 1_000_000):
            with pytest.raises(ValueError, match=f"^n: must be at most 16383, got {n}$"):
                fite_scenario(n=n)

SCENARIO_OBJ = {"alpha": 0.75, "a": 0, "c": 2, "P": {"poly": [1, 2]}}


class TestConfigSchema:
    def test_defaults_and_echo(self):
        s = Scenario.from_obj(SCENARIO_OBJ)
        assert (s.b, s.f_a, s.g_a, s.n, s.r) == (0.02, 1.0, 0.0, 512, 2.0)
        obj = s.to_obj()
        assert obj == {"alpha": 0.75, "a": 0.0, "b": 0.02, "c": 2.0,
                       "P": {"poly": [1.0, 2.0]}, "f_a": 1.0, "g_a": 0.0,
                       "n": 512, "grading": 2.0, "tol": 1e-10}
        assert isinstance(obj["c"], float) and isinstance(obj["n"], int)
        assert Scenario.from_obj(obj) == s

    def test_python_and_json_construction_default_alike(self):
        # only the required keys: both construct with the same defaults,
        # b = a + 0.01 (c - a) among them
        assert Scenario.from_obj(SCENARIO_OBJ) == Scenario(
            order=Order(0.75), a=0.0, c=2.0, p_coeff=CoefficientSpec.poly([1.0, 2.0]))
        assert SweepSpec.from_obj({"alphas": [0.75], "p_infs": [1], "lengths": [1]}) \
            == SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(1.0,))

    def test_unknown_key_lists_the_keys_in_field_order(self):
        keys = ["alpha", "a", "c", "P", "b", "f_a", "g_a", "n", "grading", "tol"]
        with pytest.raises(ConfigError, match=re.escape(f"expected one of {keys}")):
            Scenario.from_obj({**SCENARIO_OBJ, "V": {"const": 0}})

    def test_overrides(self):
        s = Scenario.from_obj({**SCENARIO_OBJ, "n": 64}, n=128)
        assert (s.n, s.r) == (128, 2.0)
        spec = SweepSpec.from_obj({"alphas": [0.75], "p_infs": [1], "lengths": [1],
                                   "n": 64}, n=None)
        assert spec.n == 64
        assert spec.to_obj()["p_infs"] == [1.0]

    @pytest.mark.parametrize("key,value", [("n", True), ("n", 2.9), ("n", "64"),
                                           ("c", True), ("c", "2"), ("c", 10**400),
                                           ("scheme", 1), ("P", {"const": [1]}),
                                           ("P", {"poly": 5}), ("P", {"table": [1, 2]}),
                                           ("V", {"const": False}), ("grade", 2)])
    def test_strict_types_and_keys(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            Scenario.from_obj({**SCENARIO_OBJ, key: value})

    def test_integral_float_is_an_integer(self):
        assert Scenario.from_obj({**SCENARIO_OBJ, "n": 64.0}).n == 64

    @pytest.mark.parametrize("key", ["alpha", "a", "c", "P"])
    def test_required(self, key):
        obj = {k: v for k, v in SCENARIO_OBJ.items() if k != key}
        with pytest.raises(ConfigError, match=f"^{key}: missing required field"):
            Scenario.from_obj(obj)

    @pytest.mark.parametrize("obj,field", [
        ({"sweep": {"alphas": [0.75], "p_infs": [1], "lengths": [1]}, "n": 5}, "sweep"),
        ({"sweep": 5}, "sweep"), ([], "config"),
        ({"sweep": {"alphas": [0.75], "p_infs": [1], "lengths": [1], "tol": 1e-9}},
         "tol"),
        ({"sweep": {"alphas": [1.2], "p_infs": [1], "lengths": [1]}}, "alphas"),
        ({"sweep": {"alphas": [0.75], "p_infs": [-1], "lengths": [1]}}, "p_infs"),
        ({"sweep": {"alphas": [0.75], "p_infs": [1], "lengths": [0]}}, "lengths"),
        ({"sweep": {"alphas": [0.75], "p_infs": [1], "lengths": [1], "seed": -1}},
         "seed")])
    def test_parse_config_rejects(self, obj, field):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            parse_config(obj)

    def test_parse_config_dispatch(self):
        assert isinstance(parse_config(SCENARIO_OBJ, n=64), Scenario)
        assert isinstance(parse_config({"sweep": {"alphas": [0.75], "p_infs": [1],
                                                  "lengths": [1]}}), SweepSpec)


class TestRunScenario:
    def test_free_term_case_has_no_pair(self):
        # P == 0, f_a = 1: f = (x-a)^{alpha-1} never vanishes; g == 0
        rep = sweep(fite_scenario(
            p_coeff=CoefficientSpec.const(0.0), f_a=1.0, g_a=0.0)).cells[0]
        assert rep.verdicts[0] == "NO_ZERO_PAIR"

    def test_oscillatory_long_interval_bound_holds(self):
        rep = sweep(fite_scenario(c=10.0, n=512)).cells[0]
        assert rep.verdicts[0] == "BOUND_HOLDS"
        assert rep.zero_pairs[0] is not None
        assert rep.scenario.lhs >= rep.scenario.rhs
        assert rep.scenario.m == 1.0

    def test_short_interval_never_counterexample(self):
        # below the certified minimal length the hypothesis cannot be met
        _, ell = best_min_length(ORDER, 1.0)
        for k, theta in enumerate(np.linspace(0.0, 2.0 * math.pi, 8,
                                              endpoint=False)):
            s = fite_scenario(c=0.9 * ell, b=0.9 * ell * 0.01,
                              f_a=math.cos(theta) or 1e-3,
                              g_a=math.sin(theta))
            rep = sweep(s).cells[0]
            assert rep.verdicts[0] != "COUNTEREXAMPLE", f"direction {k}"

    def test_scale_invariant_verdict(self):
        r1 = sweep(fite_scenario(c=10.0, n=512)).cells[0]
        r2 = sweep(fite_scenario(c=10.0, n=512, f_a=0.0, g_a=5.0)).cells[0]
        assert r1.verdicts[0] == r2.verdicts[0]
        if r1.zero_pairs[0] is not None:
            assert r2.zero_pairs[0] == pytest.approx(r1.zero_pairs[0], abs=1e-6)

    def test_rhs_corruption_hook_detects_counterexample(self, monkeypatch):
        # negative path: inflating the right side must flip the verdict,
        # proving the harness can actually report counterexamples
        inflate_rhs(monkeypatch, 1e3)
        rep = sweep(fite_scenario(c=10.0, n=512)).cells[0]
        assert rep.verdicts[0] == "COUNTEREXAMPLE"

    def test_counterexample_does_not_depend_on_data_scale(self, monkeypatch):
        # the equation is linear and homogeneous: data 1e-12 times smaller
        # give the same zero pair, so the same verdict, however small the
        # solution is
        inflate_rhs(monkeypatch, 1e3)
        s = fite_scenario(c=10.0, n=256, f_a=0.0, g_a=1.0)
        big, small = (sweep(dataclasses.replace(s, g_a=g_a)).cells[0]
                      for g_a in (1.0, 1e-12))
        assert big.verdicts[0] == small.verdicts[0] == "COUNTEREXAMPLE"
        assert small.zero_pairs[0] == pytest.approx(big.zero_pairs[0], abs=1e-12 * s.length)

    def test_m_uses_coefficient_sup(self):
        rep = sweep(fite_scenario(p_coeff=CoefficientSpec.const(3.0),
                                  c=4.0, n=256)).cells[0]
        assert rep.scenario.m == 3.0

    def test_coefficient_range_sampled_once(self, monkeypatch):
        # sup P is fixed during validation; the run does not resample P
        calls = []
        range_on = CoefficientSpec.range_on

        def counting(self, a, c):
            calls.append((a, c))
            return range_on(self, a, c)

        monkeypatch.setattr(CoefficientSpec, "range_on", counting)
        s = fite_scenario(p_coeff=CoefficientSpec.poly([1.0, 0.5]), c=2.0)
        rep = sweep(s).cells[0]
        assert len(calls) == 1
        assert rep.scenario.m == pytest.approx(2.0)

    def test_overflow_is_solver_failed(self):
        # a valid config whose solve overflows double precision
        rep = sweep(fite_scenario(order=Order(0.9), c=1e8, b=1e6, n=64,
                                  p_coeff=CoefficientSpec.const(1e300))).cells[0]
        assert rep.verdicts[0] == "SOLVER_FAILED"
        assert "non-finite" in rep.detail

    def test_non_finite_residual_is_solver_failed(self):
        # finite march, overflowing defect: no verdict without a residual.
        # Data 1.5x larger already overflow in the march.
        for data, detail in ((1e308, "non-finite residual"), (1.5e308, "non-finite samples")):
            s = Scenario.from_obj({"alpha": 0.75, "a": 0, "c": 1, "P": {"const": 1},
                                   "f_a": data, "g_a": data, "n": 64})
            rep = sweep(s).cells[0]
            assert rep.verdicts[0] == "SOLVER_FAILED"
            assert detail in rep.detail

    def test_table_between_values_far_apart_solves(self):
        # the slope (1.7e308 - 0) / 0.5 of np.interp overflowed: P(0.1) was
        # inf, where it is 3.4e307, and the scenario SOLVER_FAILED
        table = [[0, 0], [0.5, 1.7e308], [10, 0]]
        P = CoefficientSpec.table(table).as_callable(0.0)
        assert P(0.1) == pytest.approx(3.4e307, rel=1e-15)
        assert P(np.array([0.0, 0.5, 10.0])).tolist() == [0.0, 1.7e308, 0.0]
        s = Scenario.from_obj({"alpha": 0.75, "a": 0, "c": 10, "P": {"table": table},
                               "f_a": 0, "g_a": 1, "n": 64})
        rep = sweep(s).cells[0]
        assert rep.verdicts[0] == "BOUND_HOLDS"
        assert rep.residuals[0] <= 1e-13  # 8.0e-15


STANDARD_GRID = dict(alphas=(0.6, 0.75, 0.9), p_infs=(0.5, 1.0, 2.0),
                     lengths=(0.05, 0.5, 5.0), directions=8, seed=42)
# ROADMAP item 12's corner: P = 1 at lengths about kappa(alpha, 1e-3), where
# the bound's margin is least (about 6.3 near alpha = 0.55); CI runs it too
CORNER_SWEEP = dict(alphas=(0.55, 0.6, 0.75), p_infs=(1.0,),
                    lengths=(0.96, 1.0014, 1.0429, 1.0843, 1.1257, 1.1671, 1.2086, 1.25),
                    directions=512, b_fraction=0.001, n=2048)


@functools.lru_cache(maxsize=None)
def standard_sweep(n):
    return sweep(SweepSpec(**STANDARD_GRID, n=n))


class TestClosedFormZeros:
    # 16 Chebyshev extreme points of [0, 1]
    CHEB = 0.5 * (1.0 - np.cos(np.pi * np.arange(16) / 15))

    @staticmethod
    def check_zero_pairs(n):
        report = standard_sweep(n)
        held = [(cell, d, pair) for cell, d, verdict, _, pair in directions_of(report.cells)
                if verdict == "BOUND_HOLDS"]
        assert len(held) == 68
        for cell, (f_a, g_a, label), pair in held:
            s = cell.scenario
            tol = 5e-5 * s.length
            for column, z in enumerate(pair):
                lo, hi = (fite_closed_form(s.order.alpha, s.p_coeff.data[0], f_a, g_a,
                                           z - s.a + dz)[column]
                          for dz in (-tol, tol))
                assert lo * hi < 0.0, (label, "fg"[column], z)

    def test_standard_sweep_zero_pairs_are_exact_zeros(self):
        # Every zero of f and of D^alpha f in a BOUND_HOLDS zero pair of the
        # standard sweep (n = 512, the 8 fixed directions) lies within
        # 5e-5 L of a sign change of the Mittag-Leffler closed form's W_f
        # or W_g. The worst measured |solver - exact| is 8.6e-6 L, so the
        # tolerance is about 6x the measured error.
        self.check_zero_pairs(512)

    def test_refined_sweep_zero_pairs_are_exact_zeros(self):
        # The same at n = 1024: the worst measured |solver - exact| is
        # 2.1e-6 L, about 4x below n = 512 and 23x below the 5e-5 L tolerance.
        self.check_zero_pairs(1024)

    @pytest.mark.parametrize("n", [512, 1024])
    def test_no_zero_pair_has_a_one_signed_exact_column(self, n):
        # In each NO_ZERO_PAIR scenario one of the exact W_f, W_g keeps one
        # sign at 16 Chebyshev points of [b + 5e-5 L, c - 5e-5 L]; in each
        # BOUND_HOLDS scenario both change sign there. The system is linear
        # in (f_a, g_a), so the closed form is evaluated once per cell, for
        # (1, 0), and the data (0, 1) give W_f = -W_g(1, 0) / P, W_g = W_f(1, 0).
        report = standard_sweep(n)
        assert report.counts["NO_ZERO_PAIR"] == 148
        basis = {}
        for rep, (f_a, g_a, label), verdict, _, _ in directions_of(report.cells):
            s = rep.scenario
            cell = (s.order.alpha, s.p_coeff.data[0], s.length)
            if cell not in basis:
                tol = 5e-5 * s.length
                t = s.b - s.a + tol + (s.c - s.b - 2.0 * tol) * self.CHEB
                basis[cell] = np.array([fite_closed_form(*cell[:2], 1.0, 0.0, x)
                                        for x in t]).T
            wf10, wg10 = basis[cell]
            wf = f_a * wf10 - g_a * wg10 / s.p_coeff.data[0]
            wg = g_a * wf10 + f_a * wg10
            one_signed = any(np.all(w > 0.0) or np.all(w < 0.0) for w in (wf, wg))
            assert one_signed == (verdict == "NO_ZERO_PAIR"), label
        assert len(basis) == 27


POLY_SCENARIO = {"alpha": 0.75, "a": 0.0, "c": 6.0, "P": {"poly": [1.0, 0.5]},
                 "f_a": 0.0, "g_a": 1.0, "n": 1024}
POLY_LEVELS = 160  # 120 levels agree to every printed digit


@functools.lru_cache(maxsize=None)
def poly_exact():
    return poly_series(0.75, (1.0, 0.5), 0.0, 1.0, POLY_LEVELS)


@functools.lru_cache(maxsize=None)
def poly_solve():
    s = Scenario.from_obj(POLY_SCENARIO)
    (rep,) = solve_directions(s.cells()[0])
    return s, rep


class TestPolySeriesZeros:
    """P = 1 + 0.5 (t - a) on [0, 6] against its exact fractional power
    series, whose W_f changes sign within 1e-6 of 2.1943806, 4.2052168 and
    5.6552054."""

    def test_zeros_are_exact_zeros(self):
        # Each zero of f and of D^alpha f in the window lies within 5e-5 L of
        # a sign change of the exact W_f or W_g. The worst measured
        # |solver - exact| over the 3 f and 3 g zeros is 1.27e-5 L at n = 1024
        # (4.68e-5 L at 512, 3.56e-6 L at 2048), so the tolerance is 3.9x it.
        s, rep = poly_solve()
        exact, tol = poly_exact(), 5e-5 * s.length
        zeros = [find_zeros(w, s.b, s.c) for w in (rep.f, rep.g)]
        assert [len(zs) for zs in zeros] == [3, 3]
        for column, zs in enumerate(zeros):
            for z in zs:
                lo, hi = (exact(column, z - s.a + dz) for dz in (-tol, tol))
                assert lo * hi < 0.0, ("fg"[column], z)

    def test_last_levels_are_below_rounding(self):
        # With f_a = 0, W_f has terms on odd levels only and W_g on even
        # ones, so each column's last two levels are one level, whose
        # coefficients share a sign: its largest value is at t = c.
        s, rep = poly_solve()
        window = s.grid.nodes >= s.b
        for column, w in enumerate((rep.f, rep.g)):
            tail = poly_exact()(column, s.length, first=POLY_LEVELS - 2)
            assert abs(tail) < 1e-16 * np.abs(w.reg_samples[window]).max()

    def test_degree_0_is_the_closed_form(self):
        series = poly_series(0.75, (2.0,), 0.3, 1.0, 120)
        for t in (0.5, 3.0, 6.0):
            assert [series(column, t) for column in (0, 1)] == pytest.approx(
                fite_closed_form(0.75, 2.0, 0.3, 1.0, t), rel=1e-13, abs=1e-15)


class TestThetaArcs:
    """The equation is linear and homogeneous, so the (1, 0) and (0, 1)
    solutions decide the zero pair of every direction theta: f_theta has a
    zero exactly on the theta-arcs of the two f columns, and the same for g."""

    @pytest.mark.parametrize("n", [512, 1024])
    def test_arc_rule_predicts_every_sampled_pair(self, n):
        # 0 mismatches in 216 directions; only the nine L = 5 cells have a
        # zero pair for any theta, so no sample misses a pair between samples
        spec = SweepSpec(**STANDARD_GRID, n=n)
        pairs = (pair for *_, pair in directions_of(standard_sweep(n).cells))
        paired = []
        for s, directions in spec.cells():
            e1, e2 = solve_batch(s.p_coeff.as_callable(s.a), s.order, [1.0, 0.0],
                                 [0.0, 1.0], s.grid)
            arcs_f = theta_arcs(e1.f, e2.f, s.b, s.c)
            arcs_g = theta_arcs(e1.g, e2.g, s.b, s.c)
            for f_a, g_a, label in directions:
                theta = math.atan2(g_a, f_a)
                predicted = on_arcs(arcs_f, theta) and on_arcs(arcs_g, theta)
                assert predicted == (next(pairs) is not None), label
            if arcs_meet(arcs_f, arcs_g):
                paired.append(s.length)
        assert next(pairs, "end") == "end"
        assert paired == [5.0] * 9


def basis_arcs(order, lengths, b_fraction, n):
    """Per length L at P = 1 on [0, L] with b = b_fraction L: the theta-arcs
    of f and of g (theta_arcs) from the (1, 0) and (0, 1) columns of one
    group march."""
    grids = [build_grid(0.0, length, n, 2.0) for length in lengths]
    cells = [(lambda t: 1.0, (1.0, 0.0), (0.0, 1.0), g) for g in grids]
    for g, (wf, wg, _) in zip(grids, solve_cells(order, cells)):
        yield tuple(theta_arcs(from_samples(w[:, 0], order.gamma, g),
                               from_samples(w[:, 1], order.gamma, g),
                               b_fraction * g.length, g.c) for w in (wf, wg))


class TestKappa:
    """The sharp threshold kappa(alpha, b_f) of the zero pair at P = 1 from
    the solver: the least length at which the theta-arcs of f and of g,
    from the (1, 0) and (0, 1) columns of one solve, meet."""

    @staticmethod
    def solver_kappa(alpha: float, b_fraction: float, n: int) -> float:
        # The arc test is not monotone in L near kappa, so it is not
        # bisected: a geometric scan of 64 lengths on [0.3, 3], then three
        # linear scans of 64 inside the bracket of the first length that
        # meets (resolution about 1.6e-7); each scan is one group march.
        lengths = np.geomspace(0.3, 3.0, 64)
        for _ in range(4):
            meets = [arcs_meet(*arcs) for arcs in basis_arcs(Order(alpha), lengths,
                                                             b_fraction, n)]
            first = meets.index(True)
            assert first > 0, "the scan starts inside the pair region"
            lengths = np.linspace(lengths[first - 1], lengths[first], 64)
        return float(lengths[-1])

    @pytest.mark.parametrize("alpha,kappa", [(0.6, 1.095176), (0.75, 1.234296),
                                             (0.9, 1.435513)])
    def test_scan_matches_the_closed_form(self, alpha, kappa):
        # measured error at n = 512: at most 3.0e-6; the closed form agrees
        # with the 40-digit values to their 7 digits
        exact = kappa_closed_form(alpha, 1e-2)
        assert exact == pytest.approx(kappa, abs=5e-7)
        assert abs(self.solver_kappa(alpha, 1e-2, 512) - exact) <= 1e-5

    @pytest.mark.parametrize("alpha,kappa0", [
        (0.55, 0.913015), (0.6, 0.975819), (0.75, 1.182802), (0.9, 1.410599),
        (0.95, 1.489988), (1.0, math.pi / 2)])
    def test_vanishing_window_start_is_the_first_zero(self, alpha, kappa0):
        # kappa(alpha, 0+), the README's L_sharp(alpha, 0+): the first
        # positive zero of E_{2a,a}(-x^{2a}), which at alpha = 1 is cos x
        def ml(x):
            return mittag_leffler(2.0 * alpha, alpha, -x ** (2.0 * alpha))

        assert all(ml(x) > 0.0 for x in np.linspace(0.05, 0.5, 10))
        lo, hi = 0.5, 2.0
        assert ml(hi) < 0.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ml(mid) > 0.0 else (lo, mid)
        assert 0.5 * (lo + hi) == pytest.approx(kappa0, abs=5e-7)


class TestMarginAtKappa:
    """The bound at the sharp threshold, from the closed form of kappa: its
    limit as alpha -> 1, and its law in a constant P."""

    @pytest.mark.parametrize("b_fraction", [1e-2, 1e-3])
    def test_alpha_to_one_limit(self, b_fraction):
        # At alpha = 1 the equation is f'' + P f = 0, whose Pruefer angle at
        # P = 1 is x: kappa(1, b_f) = pi / (2 (1 - b_f)), L*(1, 1) = 1/5,
        # and the margin lhs/rhs at kappa tends to 5 pi / (2 (1 - b_f)).
        # Measured: kappa - pi/(2(1 - b_f)) is -0.01555 and -0.00156 at
        # b_f = 1e-2, -0.01616 and -0.00162 at 1e-3 (alpha 0.99, 0.999);
        # the margin at 0.9999 is 7.93291 (limit 7.93331) and 7.86141
        # (7.86184).
        limit = math.pi / (2.0 * (1.0 - b_fraction))
        for alpha in (0.99, 0.999):
            assert abs(kappa_closed_form(alpha, b_fraction) - limit) <= 2.0 * (1.0 - alpha)
        order = Order(0.9999)
        p_star, _ = best_min_length(order, 1.0)
        lhs = bounds.fite_lhs(order, p_star, 1.0, kappa_closed_form(0.9999, b_fraction))
        assert lhs / bounds.fite_rhs(order) == pytest.approx(5.0 * limit, abs=1e-3)

    def test_rhs_tends_to_one_fifth(self):
        # Gamma(1) / (2^2 + B(1, 1)); measured 0.199981 at alpha = 0.9999
        assert bounds.fite_rhs(Order(0.9999)) == pytest.approx(0.2, abs=1e-3)

    @pytest.mark.parametrize("alpha", [0.75, 0.8, 0.9])
    def test_law_in_p(self, alpha):
        # For constant P, L_emp = kappa P^(-1/(2 alpha)) (the scale
        # identity), and for alpha > 2/3 (d = 0) L* = L*(alpha, 1) m^(-1/alpha)
        # with m = max(1, P): so L_emp / L* = (kappa / L*(alpha, 1))
        # max(P, 1/P)^(1/(2 alpha)), least at P = 1. Each L* is the const-P
        # scenario's own.
        kappa, e = kappa_closed_form(alpha, 1e-2), 1.0 / (2.0 * alpha)
        ps = (0.25, 0.5, 1.0, 2.0, 4.0)
        ratios = []
        for P in ps:
            s = fite_scenario(order=Order(alpha), p_coeff=CoefficientSpec.const(P), n=16)
            assert s.m == max(1.0, P)
            ratios.append(kappa * P ** -e / s.min_length)
        at_one = ratios[2]
        assert ratios == pytest.approx([at_one * max(P, 1.0 / P) ** e for P in ps], rel=1e-13)
        if alpha == 0.75:
            assert ratios == pytest.approx([33.90, 21.36, 13.45, 21.36, 33.90], abs=5e-3)


class TestInjectionAtKappa:
    """Fault injection with teeth: the bound's right side, substituted by
    lhs(1.1 L_emp) with L_emp = kappa(alpha, 1e-2) at P = 1, flips the
    verdict between 1.05 L_emp and 1.25 L_emp. lhs increases with L, so a
    length whose zero pair persists above L_emp is a counterexample below
    1.1 L_emp and holds the bound above it; below L_emp no direction has a
    zero pair."""

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_verdicts_flip_at_the_calibrated_length(self, monkeypatch, alpha):
        order = Order(alpha)
        l_emp = kappa_closed_form(alpha, 1e-2)
        p_star, _ = best_min_length(order, 1.0)
        rhs = bounds.fite_lhs(order, p_star, 1.0, 1.1 * l_emp)
        monkeypatch.setattr(verify_module, "fite_rhs", lambda order: rhs)
        scales = (0.8, 0.95, 1.05, 1.25)
        lengths = [scale * l_emp for scale in scales]
        verdicts = []
        for scale, length, arcs in zip(scales, lengths,
                                       basis_arcs(order, lengths, 1e-2, 512)):
            theta = common_theta(*arcs)  # a direction with a zero pair, if any
            assert (theta is not None) == (scale > 1.0), scale
            rep = sweep(fite_scenario(
                order=order, b=1e-2 * length, c=length, n=512,
                f_a=math.cos(theta or 0.0), g_a=math.sin(theta or 0.0))).cells[0]
            assert rep.scenario.rhs == rhs
            verdicts.append(rep.verdicts[0])
        assert verdicts == ["NO_ZERO_PAIR", "NO_ZERO_PAIR", "COUNTEREXAMPLE",
                            "BOUND_HOLDS"]


class TestDetectionPowerAtTheCorner:
    """ROADMAP item 12's corner sweep, which CI runs unscaled: P = 1 at
    lengths from 0.96 to 1.25 about kappa(alpha, 1e-3), 512 directions,
    n = 2048. Its least lhs/rhs is 6.3253, so a bound's right side 6.5
    times too large shows there as counterexamples (12 of them), where the
    standard sweep passes any factor below 20.059."""

    def test_rhs_scaled_by_6_5_is_caught(self, monkeypatch):
        inflate_rhs(monkeypatch, 6.5)
        report = sweep(SweepSpec(**CORNER_SWEEP))
        assert report.counts["COUNTEREXAMPLE"] > 0
        assert report.counts["SOLVER_FAILED"] == 0


class TestGroupMarch:
    """A sweep marches the cells of one alpha together: one walk of the
    kernel operator and one stacked block solve per group."""

    @staticmethod
    def columns(reports):
        """solve_batch's reports as solve_cells yields a cell: the (n+1, k)
        samples of f and of g and the k residuals."""
        return (np.column_stack([r.f.reg_samples for r in reports]),
                np.column_stack([r.g.reg_samples for r in reports]),
                np.array([r.residual for r in reports]))

    def test_one_cell_is_the_single_solve(self):
        # a group of one is bit for bit the cell's own solve_batch
        spec = SweepSpec(alphas=(0.6, 0.9), p_infs=(0.5, 2.0), lengths=(0.5, 5.0),
                         directions=3, n=613)
        for cell in spec.cells():
            solved, = solve_cells(cell[0].order, [verify_module._problem(cell)])
            assert [x.shape for x in solved] == [(614, 3), (614, 3), (3,)]
            for x, alone in zip(solved, self.columns(solve_directions(cell))):
                assert np.array_equal(x, alone)
            rep, = verify_module.run_group([cell])
            assert list(rep.residuals) == solved[2].tolist()

    @pytest.mark.parametrize("n", [512, 1024])
    def test_group_matches_cell_by_cell(self, n):
        # the standard sweep's 9-cell groups against one march per cell
        spec = SweepSpec(**STANDARD_GRID, n=n)
        cells = spec.cells()
        for k in range(0, len(cells), 9):
            group = cells[k:k + 9]
            solved = solve_cells(group[0][0].order, map(verify_module._problem, group))
            for cell, (f, g, res) in zip(group, solved):
                f1, g1, res1 = self.columns(solve_directions(cell))
                w = np.maximum(np.abs(f1).max(axis=0), np.abs(g1).max(axis=0))
                assert (np.abs(f - f1).max(axis=0) <= 1e-13 * w).all()
                assert (np.abs(g - g1).max(axis=0) <= 1e-13 * w).all()
                assert (np.abs(res - res1) <= 1e-13 * w).all()
        alone = [rep for cell in cells for rep in verify_module.run_group([cell])]
        grouped = standard_sweep(n)
        assert grouped.verdicts == tuple(v for r in alone for v in r.verdicts)
        assert grouped.counts == {v: sum(r.verdicts.count(v) for r in alone) for v in VERDICTS}
        for (r, *_, pair), (*_, pair1) in zip(directions_of(grouped.cells),
                                              directions_of(alone)):
            assert (pair is None) == (pair1 is None)
            if pair is not None:
                assert np.abs(np.subtract(pair, pair1)).max() <= 1e-13 * r.scenario.length

    def test_one_walk_per_group(self, monkeypatch):
        # one walk and one kernel fetch per alpha, four columns per cell; a
        # run of more than _MAX_MARCH cells is cut into marches of at most
        # that many
        walks, fetches = [], []
        blocks, kernel_matrix = rlops.KernelOperator.blocks, sfde_module.kernel_matrix

        def counted(self, U):
            walks.append(U.shape)
            return blocks(self, U)

        def fetched(grid, *args):
            fetches.append(grid.n)
            return kernel_matrix(grid, *args)

        monkeypatch.setattr(rlops.KernelOperator, "blocks", counted)
        monkeypatch.setattr(sfde_module, "kernel_matrix", fetched)
        assert len(sweep(SweepSpec(**STANDARD_GRID, n=64)).verdicts) == 216
        assert walks == [(65, 36)] * 3
        assert fetches == [64] * 3
        walks.clear()
        fetches.clear()
        monkeypatch.setattr(verify_module, "_MAX_MARCH", 2)
        spec = SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.5, 1.0, 1.5, 2.0, 2.5),
                         directions=2, n=16)
        assert len(sweep(spec).verdicts) == 10
        assert walks == [(17, 8), (17, 8), (17, 4)]
        assert fetches == [16] * 3


class TestSweep:
    def test_scenario_is_a_sweep_of_one(self):
        s = fite_scenario(c=10.0, n=256)
        rep = verify_module.run_group(s.cells())[0]  # its group of one cell
        assert rep.zero_pairs[0] is not None
        result = sweep(s)
        assert result.spec is s
        assert result.cells == (rep,)
        assert result.counts == {v: int(v == rep.verdicts[0]) for v in VERDICTS}
        assert result.min_ratio == rep.ratio

    def test_one_grid_and_one_min_length_per_scenario(self, monkeypatch):
        # 216 scenarios in 27 (alpha, P, L) cells; the counts do not depend on n
        grids, lengths = [], []
        build_grid, min_length = verify_module.build_grid, bounds.min_length

        def counting_grid(*args):
            grids.append(args)
            return build_grid(*args)

        def counting_length(*args):
            lengths.append(args)
            return min_length(*args)

        monkeypatch.setattr(verify_module, "build_grid", counting_grid)
        monkeypatch.setattr(bounds, "min_length", counting_length)
        rlops._matrix_cached.cache_clear()
        report = sweep(SweepSpec(**STANDARD_GRID, n=64))
        assert len(report.verdicts) == 216
        # one grid per cell SweepSpec validates, which its directions share,
        # and one kernel build per alpha; the bound is the cell's
        assert len(grids) == 27
        assert rlops._matrix_cached.cache_info().misses == 3
        assert len(lengths) == 27

    def test_pool_has_at_most_one_worker_per_scenario(self, monkeypatch):
        # the fork start method launches all max_workers processes up front
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        spec = SweepSpec(alphas=(0.6, 0.75), p_infs=(1.0,), lengths=(0.5, 2.0),
                         directions=3, n=64)
        assert len(sweep(spec, workers=5000).verdicts) == 12  # two groups of two cells
        one_cell = SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.5,),
                             directions=3, n=64)
        assert len(sweep(one_cell, workers=5000).verdicts) == 3  # in-process
        sweep(fite_scenario(n=64), workers=5000)  # one scenario runs in-process
        assert sizes == [2]

    @pytest.mark.parametrize("affinity,count,sizes", [
        ({0, 1, 2}, 8, [3]), ({0}, 8, []), (None, 4, [4]), (None, None, [])],
        ids=["3_cpus", "1_cpu", "cpu_count", "unknown"])
    def test_pool_is_capped_at_the_cpus(self, monkeypatch, affinity, count, sizes):
        # 5000 workers on 5 groups asked for 5 processes, up to one per group
        recorded = []

        class RecordingPool:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        spec = SweepSpec(alphas=(0.6, 0.65, 0.7, 0.75, 0.8), p_infs=(1.0,),
                         lengths=(0.5,), directions=1, n=16)
        assert len(sweep(spec, workers=5000).verdicts) == 5
        assert recorded == sizes

    def test_failed_cell_fails_each_direction(self):
        # one solve per cell: the overflowing cell fails all 3 directions
        # with the detail each gives alone, and the order stays the sweep's
        spec = SweepSpec(alphas=(0.9,), p_infs=(1e300, 1.0), lengths=(1e8,),
                         directions=3, n=64)
        report = sweep(spec)
        alone = [sweep(dataclasses.replace(s, f_a=f_a, g_a=g_a)).cells[0]
                 for s, directions in spec.cells() for f_a, g_a, _ in directions]
        assert [label for _, (*_, label), *_ in directions_of(report.cells)] == [
            f"alpha=0.9,P={p},L=100000000.0,dir={k}"
            for p in (1e300, 1.0) for k in range(3)]
        assert report.verdicts[:3] == ("SOLVER_FAILED",) * 3
        failed = report.cells[0]
        assert failed.detail == "marching solve produced non-finite samples"
        assert np.isnan(failed.residuals).all() and failed.zero_pairs == (None,) * 3
        assert "SOLVER_FAILED" not in report.verdicts[3:]
        assert [(v, r.detail) for r, _, v, *_ in directions_of(report.cells)] == [
            (v, r.detail) for r, _, v, *_ in directions_of(alone)]

    def test_mixed_sweep_tallies_derive_from_its_cells(self, monkeypatch, tmp_path):
        # The standard sweep with the right side 30x too large gives cells
        # of each kind side by side: 24 BOUND_HOLDS, 44 COUNTEREXAMPLE and
        # 148 NO_ZERO_PAIR. `fracfite verify` writes what its sweep reports.
        def rule(cell, pair):
            if cell.detail is not None:
                return "SOLVER_FAILED"
            if pair is None:
                return "NO_ZERO_PAIR"
            return "BOUND_HOLDS" if cell.scenario.lhs >= cell.scenario.rhs else "COUNTEREXAMPLE"

        inflate_rhs(monkeypatch, 30.0)
        runs = []
        monkeypatch.setattr(cli_module, "sweep",
                            lambda *args, **kw: runs.append(sweep(*args, **kw)) or runs[-1])
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"sweep": {**STANDARD_GRID, "n": 512}}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 4
        report, = runs
        ratios, kinds = [], set()
        for cell in report.cells:
            assert cell.verdicts == tuple(rule(cell, pair) for pair in cell.zero_pairs)
            paired = {v for v, pair in zip(cell.verdicts, cell.zero_pairs) if pair is not None}
            assert len(paired) <= 1  # a cell's paired directions share one verdict
            kinds |= paired
            if paired and math.isfinite(cell.ratio):
                ratios.append(cell.scenario.lhs / cell.scenario.rhs)
        assert kinds == {"BOUND_HOLDS", "COUNTEREXAMPLE"}
        assert report.verdicts == tuple(v for cell in report.cells for v in cell.verdicts)
        assert report.counts == {v: sum(cell.verdicts.count(v) for cell in report.cells)
                                 for v in VERDICTS}
        assert report.counts == {"BOUND_HOLDS": 24, "COUNTEREXAMPLE": 44,
                                 "NO_ZERO_PAIR": 148, "SOLVER_FAILED": 0}
        assert report.min_ratio == min(ratios)
        written = json.loads((tmp_path / "verify.json").read_text())
        assert [e["verdict"] for e in written["scenarios"]] == list(report.verdicts)
        assert written["counts"] == report.counts
        assert written["counterexamples"] == [
            e for e in written["scenarios"] if e["verdict"] == "COUNTEREXAMPLE"]

    def test_reports_share_their_cell_scenario(self):
        # each cell's report holds that cell's one validated Scenario and
        # its own directions, in the cell's order, with one entry of each
        # per-direction field per direction
        spec = SweepSpec(alphas=(0.75,), p_infs=(0.5, 2.0), lengths=(1.0,),
                         directions=3, seed=5, random_directions=True, n=32)
        report = sweep(spec)
        assert len(report.cells) == len(spec.cells()) == 2
        for rep, (s, directions) in zip(report.cells, spec.cells()):
            assert rep.scenario is s
            assert rep.directions == directions
            assert len(rep.residuals) == len(rep.zero_pairs) == len(rep.verdicts) == 3

    def test_empty_grid(self):
        # a sweep that checks nothing must not pass as a clean sweep
        with pytest.raises(ValueError, match="alphas"):
            SweepSpec(alphas=(), p_infs=(), lengths=(), directions=4)
        with pytest.raises(ValueError, match="directions"):
            SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.5,),
                      directions=0)

    @staticmethod
    def grid_of(cells: int, directions: int) -> dict:
        # a sweep config of `cells` cells at n = 16 (one alpha and one P)
        return {"alphas": [0.75], "p_infs": [1.0],
                "lengths": [0.5 + k / cells for k in range(cells)],
                "directions": directions, "n": 16}

    def test_directions_bound(self):
        assert SweepSpec.from_obj(self.grid_of(1, 512)).directions == 512
        with pytest.raises(ConfigError, match=r"^directions: must lie in \[1, 512\], got 513$"):
            SweepSpec.from_obj(self.grid_of(1, 513))

    def test_cells_bound(self):
        assert len(SweepSpec.from_obj(self.grid_of(2048, 1)).cells()) == 2048
        with pytest.raises(ConfigError, match="^sweep: .* at most 2048 cells, got 2049$"):
            SweepSpec.from_obj(self.grid_of(2049, 1))

    @pytest.mark.parametrize("cells,directions", [(256, 512), (2048, 64)])
    def test_scenarios_bound(self, cells, directions):
        # 2^17 scenarios pass; 2^17 + 1 = 3 * 43691 and 2^17 + 2 = 2 * 65537
        # split into no cells <= 2048 and directions <= 512, so the least
        # count above the bound is 2^17 + 3 = 749 * 175
        assert SweepSpec.from_obj(self.grid_of(cells, directions)).directions == directions
        with pytest.raises(ConfigError, match="^directions: 749 cells of 175 directions "
                                              "exceed 131072 scenarios$"):
            SweepSpec.from_obj(self.grid_of(749, 175))

    def test_bounds_are_checked_before_any_cell_is_built(self):
        # 4,000 cells of one direction at n = 16383: built before the check,
        # their grids would hold 503 MiB
        obj = {"alphas": [0.75], "p_infs": [1.0 + k for k in range(40)],
               "lengths": [0.5 + k for k in range(100)], "directions": 1, "n": 16383}
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^sweep: .*, got 4000$"):
                SweepSpec.from_obj(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bounds_hold_a_sweep_to_2_gib(self, tmp_path):
        # A sweep at any corner of the three bounds at n = 16383, scaled from
        # small runs (tracemalloc): the scenarios it keeps, at the peak per
        # scenario of in-process `fracfite verify` (27 cells of 20
        # directions at n = 16, about 5.2 KiB), one cell's solve and the
        # zero search over its columns (per direction and node, run_group on
        # one cell of 16 directions at n = 1024, about 83 bytes) with its
        # kernel, one march of _MAX_MARCH cells (per cell and node, 8 cells
        # of one direction at n = 1024) and each cell's validated grid.
        def traced(run):
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = run()  # held while measured
                gc.collect()
                return [m - base for m in tracemalloc.get_traced_memory()]
            finally:
                tracemalloc.stop()

        def verify(directions):
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps({"sweep": {
                "alphas": [0.6, 0.75, 0.9], "p_infs": [0.5, 1, 2], "lengths": [0.5, 1, 5],
                "directions": directions, "n": 16, "random_directions": True}}))
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0

        verify(1)  # what a first run sets up is not per scenario
        scenario = traced(lambda: verify(20))[1] / (27 * 20)
        cell, = SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(1.0,),
                          directions=16, n=1024).cells()
        verify_module.run_group([cell])
        column = traced(lambda: verify_module.run_group([cell]))[1] / (16 * 1025)
        group = SweepSpec(alphas=(0.75,), p_infs=(1.0,),
                          lengths=tuple(0.5 + k for k in range(8)), directions=1,
                          n=1024).cells()
        march = traced(lambda: verify_module.run_group(group))[1] / (8 * 1025)
        # the kernel's blocks take O(n log n) bytes, charged here as n^1.5
        kernel = traced(lambda: rlops._Omega(2.0, 0.25, 0.25).upto(1024))[1] * 16**1.5
        grid = traced(lambda: SweepSpec(alphas=(0.75,), p_infs=(1.0,),
                                        lengths=(0.5, 1.0, 2.0, 4.0), directions=1,
                                        n=16383))[0] / 4

        def held(cells, directions):
            return (cells * directions * scenario + cells * grid
                    + directions * 16384 * column
                    + verify_module._MAX_MARCH * 16384 * march + kernel)

        D, C, S = (verify_module._MAX_DIRECTIONS, verify_module._MAX_CELLS,
                   verify_module._MAX_SCENARIOS)
        corners = [(1, D), (S // D, D), (C, S // C), (C, 1)]
        assert max(held(*corner) for corner in corners) <= 2 * 2**30

    def test_small_sweep_no_counterexamples(self):
        spec = SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.05, 2.0),
                         directions=4, n=128, seed=5)
        report = sweep(spec)
        assert report.counts["COUNTEREXAMPLE"] == 0
        assert report.counts["SOLVER_FAILED"] == 0
        assert len(report.verdicts) == 8

    def test_sweep_deterministic(self):
        spec = SweepSpec(alphas=(0.6, 0.75), p_infs=(1.0,), lengths=(0.5,),
                         directions=4, n=96, seed=11)
        r1, r2 = sweep(spec), sweep(spec)
        assert r1.verdicts == r2.verdicts
        assert [x.scenario.lhs for x in r1.cells] == [x.scenario.lhs for x in r2.cells]
        assert (r1.min_ratio == r2.min_ratio
                or (math.isnan(r1.min_ratio) and math.isnan(r2.min_ratio)))

    def test_parallel_matches_serial(self):
        spec = SweepSpec(alphas=(0.6, 0.75), p_infs=(1.0,), lengths=(0.5, 3.0),
                         directions=4, n=96, seed=2)
        serial = sweep(spec, workers=1)
        parallel = sweep(spec, workers=2)
        assert serial.verdicts == parallel.verdicts
        assert [x.scenario.lhs for x in serial.cells] == [x.scenario.lhs for x in parallel.cells]

    def test_verdicts_stable_under_refinement(self):
        spec = SweepSpec(alphas=(0.75,), p_infs=(1.0, 2.0), lengths=(0.05, 2.0),
                         directions=4, n=128, seed=5)
        fine = dataclasses.replace(spec, n=256)
        assert sweep(spec).verdicts == sweep(fine).verdicts

    def test_random_directions_mode_is_seeded(self):
        spec = SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.5,),
                         directions=3, n=96, seed=9, random_directions=True)
        assert sweep(spec).verdicts == sweep(spec).verdicts


class TestClassicalFite:
    def test_full_period_window(self):
        assert classical_fite_check(1.0, 0.0, 2.0 * math.pi)

    def test_small_window_is_vacuous(self):
        assert classical_fite_check(1.0, 0.0, 0.5)

    def test_stiff_coefficient_quarter_period(self):
        # P = 4: consecutive zero of x and of x' are pi/4 apart;
        # (c-b) max(1, 4) = 3.14 >= 1
        assert classical_fite_check(4.0, 0.0, math.pi / 4.0 + 1e-6)

    def test_grid_of_instances(self):
        for P in np.linspace(0.1, 10.0, 10):
            for width in np.linspace(0.3, 6.0, 10):
                assert classical_fite_check(float(P), 0.5, 0.5 + float(width))

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            classical_fite_check(0.0, 0.0, 1.0)
