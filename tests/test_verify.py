"""Scenario harness: verdict logic, sweeps, and the classical oracle."""

import dataclasses
import functools
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from fracfite import (CoefficientSpec, ConfigError, Order, Scenario, SweepSpec,
                      best_min_length, run_scenario, sweep)
from fracfite import bounds, rlops
from fracfite import verify as verify_module
from fracfite.verify import VERDICTS, parse_config
from oracles import classical_fite_check, fite_closed_form

ORDER = Order(0.75)


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

    @pytest.mark.parametrize("field", ["a", "b", "c", "f_a", "g_a"])
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
        s = Scenario.from_obj({**SCENARIO_OBJ, "n": 64}, n=128, grading=None)
        assert (s.n, s.r) == (128, 2.0)
        spec = SweepSpec.from_obj({"alphas": [0.75], "p_infs": [1], "lengths": [1],
                                   "seed": 3}, seed=5, n=None)
        assert (spec.seed, spec.n) == (5, 512)
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
        assert isinstance(parse_config(SCENARIO_OBJ, seed=7), Scenario)
        assert isinstance(parse_config({"sweep": {"alphas": [0.75], "p_infs": [1],
                                                  "lengths": [1]}}), SweepSpec)


class TestRunScenario:
    def test_free_term_case_has_no_pair(self):
        # P == 0, f_a = 1: f = (x-a)^{alpha-1} never vanishes; g == 0
        rep = run_scenario(fite_scenario(
            p_coeff=CoefficientSpec.const(0.0), f_a=1.0, g_a=0.0))
        assert rep.verdict == "NO_ZERO_PAIR"

    def test_oscillatory_long_interval_bound_holds(self):
        rep = run_scenario(fite_scenario(c=10.0, n=512))
        assert rep.verdict == "BOUND_HOLDS"
        assert rep.zero_pair is not None
        assert rep.lhs >= rep.rhs
        assert rep.m == 1.0

    def test_short_interval_never_counterexample(self):
        # below the certified minimal length the hypothesis cannot be met
        _, ell = best_min_length(ORDER, 1.0)
        for k, theta in enumerate(np.linspace(0.0, 2.0 * math.pi, 8,
                                              endpoint=False)):
            s = fite_scenario(c=0.9 * ell, b=0.9 * ell * 0.01,
                              f_a=math.cos(theta) or 1e-3,
                              g_a=math.sin(theta))
            rep = run_scenario(s)
            assert rep.verdict != "COUNTEREXAMPLE", f"direction {k}"

    def test_scale_invariant_verdict(self):
        r1 = run_scenario(fite_scenario(c=10.0, n=512))
        r2 = run_scenario(fite_scenario(c=10.0, n=512, f_a=0.0, g_a=5.0))
        assert r1.verdict == r2.verdict
        if r1.zero_pair is not None:
            assert r2.zero_pair == pytest.approx(r1.zero_pair, abs=1e-6)

    def test_rhs_corruption_hook_detects_counterexample(self):
        # negative path: inflating the right side must flip the verdict,
        # proving the harness can actually report counterexamples
        rep = run_scenario(fite_scenario(c=10.0, n=512), rhs_scale=1e3)
        assert rep.verdict == "COUNTEREXAMPLE"

    def test_counterexample_does_not_depend_on_data_scale(self):
        # the equation is linear and homogeneous: data 1e-12 times smaller
        # give the same zero pair, so the same verdict, however small the
        # solution is
        s = fite_scenario(c=10.0, n=256, f_a=0.0, g_a=1.0)
        big, small = (run_scenario(s.with_direction(0.0, g_a), rhs_scale=1e3)
                      for g_a in (1.0, 1e-12))
        assert big.verdict == small.verdict == "COUNTEREXAMPLE"
        assert small.zero_pair == pytest.approx(big.zero_pair, abs=1e-12 * s.length)

    def test_m_uses_coefficient_sup(self):
        rep = run_scenario(fite_scenario(p_coeff=CoefficientSpec.const(3.0),
                                         c=4.0, n=256))
        assert rep.m == 3.0

    def test_coefficient_range_sampled_once(self, monkeypatch):
        # p_sup is fixed during validation; the run does not resample P
        calls = []
        range_on = CoefficientSpec.range_on

        def counting(self, a, c):
            calls.append((a, c))
            return range_on(self, a, c)

        monkeypatch.setattr(CoefficientSpec, "range_on", counting)
        s = fite_scenario(p_coeff=CoefficientSpec.poly([1.0, 0.5]), c=2.0)
        rep = run_scenario(s)
        assert len(calls) == 1
        assert rep.m == pytest.approx(2.0)

    def test_overflow_is_solver_failed(self):
        # a valid config whose solve overflows double precision
        rep = run_scenario(fite_scenario(order=Order(0.9), c=1e8, b=1e6, n=64,
                                         p_coeff=CoefficientSpec.const(1e300)))
        assert rep.verdict == "SOLVER_FAILED"
        assert "non-finite" in rep.detail

    def test_non_finite_residual_is_solver_failed(self):
        # finite march, overflowing defect: no verdict without a residual.
        # Data 1.5x larger already overflow in the march.
        for data, detail in ((1e308, "non-finite residual"), (1.5e308, "non-finite samples")):
            s = Scenario.from_obj({"alpha": 0.75, "a": 0, "c": 1, "P": {"const": 1},
                                   "f_a": data, "g_a": data, "n": 64})
            rep = run_scenario(s)
            assert rep.verdict == "SOLVER_FAILED"
            assert detail in rep.detail

STANDARD_GRID = dict(alphas=(0.6, 0.75, 0.9), p_infs=(0.5, 1.0, 2.0),
                     lengths=(0.05, 0.5, 5.0), directions=8, seed=42)


@functools.lru_cache(maxsize=None)
def standard_sweep(n):
    return sweep(SweepSpec(**STANDARD_GRID, n=n))


class TestClosedFormZeros:
    # 16 Chebyshev extreme points of [0, 1]
    CHEB = 0.5 * (1.0 - np.cos(np.pi * np.arange(16) / 15))

    @staticmethod
    def check_zero_pairs(n):
        report = standard_sweep(n)
        held = [r for r in report.reports if r.verdict == "BOUND_HOLDS"]
        assert len(held) == 68
        for rep in held:
            s = rep.scenario
            tol = 5e-5 * s.length
            for column, z in enumerate(rep.zero_pair):
                lo, hi = (fite_closed_form(s.order.alpha, s.p_sup, s.f_a, s.g_a,
                                           z - s.a + dz)[column]
                          for dz in (-tol, tol))
                assert lo * hi < 0.0, (s.label, "fg"[column], z)

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
        for rep in report.reports:
            s = rep.scenario
            cell = (s.order.alpha, s.p_sup, s.length)
            if cell not in basis:
                tol = 5e-5 * s.length
                t = s.b - s.a + tol + (s.c - s.b - 2.0 * tol) * self.CHEB
                basis[cell] = np.array([fite_closed_form(*cell[:2], 1.0, 0.0, x)
                                        for x in t]).T
            wf10, wg10 = basis[cell]
            wf = s.f_a * wf10 - s.g_a * wg10 / s.p_sup
            wg = s.g_a * wf10 + s.f_a * wg10
            one_signed = any(np.all(w > 0.0) or np.all(w < 0.0) for w in (wf, wg))
            assert one_signed == (rep.verdict == "NO_ZERO_PAIR"), s.label
        assert len(basis) == 27


class TestSweep:
    def test_scenario_is_a_sweep_of_one(self):
        s = fite_scenario(c=10.0, n=256)
        rep = run_scenario(s)
        assert rep.zero_pair is not None
        result = sweep(s)
        assert result.spec is s
        assert result.reports == (rep,)
        assert result.counts == {v: int(v == rep.verdict) for v in VERDICTS}
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
        assert len(report.reports) == 216
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

        monkeypatch.setattr(verify_module, "ProcessPoolExecutor", RecordingPool)
        spec = SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.5, 2.0),
                         directions=3, n=64)
        assert len(sweep(spec, workers=5000).reports) == 6  # two cells
        one_cell = SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.5,),
                             directions=3, n=64)
        assert len(sweep(one_cell, workers=5000).reports) == 3  # in-process
        sweep(fite_scenario(n=64), workers=5000)  # one scenario runs in-process
        assert sizes == [2]

    def test_failed_cell_fails_each_direction(self):
        # one solve per cell: the overflowing cell fails all 3 directions
        # with the detail each gives alone, and the order stays the sweep's
        spec = SweepSpec(alphas=(0.9,), p_infs=(1e300, 1.0), lengths=(1e8,),
                         directions=3, n=64)
        report = sweep(spec)
        alone = [run_scenario(s) for cell in spec.cells() for s in cell]
        assert [r.scenario.label for r in report.reports] == [
            f"alpha=0.9,P={p},L=100000000.0,dir={k}"
            for p in (1e300, 1.0) for k in range(3)]
        assert report.verdicts[:3] == ("SOLVER_FAILED",) * 3
        assert {r.detail for r in report.reports[:3]} == {
            "marching solve produced non-finite samples"}
        assert "SOLVER_FAILED" not in report.verdicts[3:]
        assert [(r.verdict, r.detail) for r in report.reports] == [
            (r.verdict, r.detail) for r in alone]

    def test_with_direction_checks_the_data(self):
        s = fite_scenario(n=64)
        other = s.with_direction(0.6, 0.8, "x")
        assert (other.f_a, other.g_a, other.label) == (0.6, 0.8, "x")
        assert other.grid is s.grid
        assert (s.f_a, s.g_a) == (0.0, 1.0)
        with pytest.raises(ConfigError, match="^f_a: trivial data"):
            s.with_direction(0.0, 0.0)
        with pytest.raises(ConfigError, match="^g_a: must be finite"):
            s.with_direction(1.0, math.nan)

    def test_cell_must_differ_only_in_direction(self):
        with pytest.raises(ValueError, match="differ only in f_a, g_a and label"):
            verify_module.solve_cell((fite_scenario(n=64), fite_scenario(n=96)))

    def test_empty_grid(self):
        # a sweep that checks nothing must not pass as a clean sweep
        with pytest.raises(ValueError, match="alphas"):
            SweepSpec(alphas=(), p_infs=(), lengths=(), directions=4)
        with pytest.raises(ValueError, match="directions"):
            SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.5,),
                      directions=0)

    def test_directions_bounded_by_the_batched_solve(self):
        # one cell at n = 17 nodes: 1536 bytes kept per scenario, 14 columns
        # of 17 doubles and 512 bytes of solve objects per direction, so
        # 2^31 // 3952 directions fit the cap. Parsing alone decides;
        # nothing is solved.
        obj = {"alphas": [0.75], "p_infs": [1.0], "lengths": [1.0], "n": 16}
        assert SweepSpec.from_obj({**obj, "directions": 543391}).directions == 543391
        with pytest.raises(ConfigError, match="^directions: .*directions <= 543391"):
            SweepSpec.from_obj({**obj, "directions": 543392})

    def test_directions_cap_charges_every_cell(self):
        # a sweep keeps every cell's scenarios: 27 cells charge 27 * 1536
        # bytes per direction on top of one cell's solve, so 2^31 // 43888
        # directions fit. 624,268, about 11 GB, was once accepted. Parsing
        # alone decides; nothing is solved.
        obj = {"alphas": [0.6, 0.75, 0.9], "p_infs": [0.5, 1, 2],
               "lengths": [0.5, 1, 5], "n": 16}
        assert SweepSpec.from_obj({**obj, "directions": 48930}).directions == 48930
        for directions in (48931, 624268):
            with pytest.raises(ConfigError,
                               match="^directions: a sweep of 27 cells .*directions <= 48930"):
                SweepSpec.from_obj({**obj, "directions": directions})

    def test_directions_cap_covers_what_a_direction_holds(self):
        # a 27-cell sweep of 100 directions at n = 16: what it keeps per
        # scenario (about 620 bytes), and its peak per direction (about
        # 18,400), against what the cap charges
        obj = {"alphas": [0.6, 0.75, 0.9], "p_infs": [0.5, 1, 2],
               "lengths": [0.5, 1, 5], "n": 16, "random_directions": True}
        sweep(SweepSpec.from_obj(obj))  # the kernels are cached; not per direction
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = sweep(SweepSpec.from_obj({**obj, "directions": 100}))
            gc.collect()
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(report.reports) == 27 * 100
        assert kept / (27 * 100) <= verify_module._SCENARIO_BYTES
        charged = 27 * verify_module._SCENARIO_BYTES \
            + 17 * 8 * verify_module._COLUMNS_PER_DIRECTION \
            + verify_module._SOLVE_BYTES_PER_DIRECTION
        assert peak / 100 <= charged

    def test_small_sweep_no_counterexamples(self):
        spec = SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.05, 2.0),
                         directions=4, n=128, seed=5)
        report = sweep(spec)
        assert report.counts["COUNTEREXAMPLE"] == 0
        assert report.counts["SOLVER_FAILED"] == 0
        assert len(report.reports) == 8

    def test_sweep_deterministic(self):
        spec = SweepSpec(alphas=(0.6, 0.75), p_infs=(1.0,), lengths=(0.5,),
                         directions=4, n=96, seed=11)
        r1, r2 = sweep(spec), sweep(spec)
        assert r1.verdicts == r2.verdicts
        assert [x.lhs for x in r1.reports] == [x.lhs for x in r2.reports]
        assert (r1.min_ratio == r2.min_ratio
                or (math.isnan(r1.min_ratio) and math.isnan(r2.min_ratio)))

    def test_parallel_matches_serial(self):
        spec = SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.5, 3.0),
                         directions=4, n=96, seed=2)
        serial = sweep(spec, workers=1)
        parallel = sweep(spec, workers=2)
        assert serial.verdicts == parallel.verdicts
        assert [x.lhs for x in serial.reports] == [x.lhs for x in parallel.reports]

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
