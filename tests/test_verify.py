"""Scenario harness: verdict logic, sweeps, and the classical oracle."""

import math

import numpy as np
import pytest

from fracfite import (CoefficientSpec, Order, Scenario, SweepSpec,
                      best_min_length, run_scenario, sweep)
from oracles import classical_fite_check

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
        with pytest.raises(ValueError, match="^V: must be finite"):
            fite_scenario(v_coeff=CoefficientSpec.const(math.nan), f_a=1.0)

    def test_forced_table_must_cover_interval(self):
        with pytest.raises(ValueError, match="^V: coefficient table covers"):
            fite_scenario(v_coeff=CoefficientSpec.table([[0.0, 1.0], [0.5, 2.0]]),
                          f_a=1.0, c=4.0)

    def test_forced_scenario_needs_constant_p(self):
        with pytest.raises(ValueError):
            fite_scenario(p_coeff=CoefficientSpec.poly([1.0, 1.0]),
                          v_coeff=CoefficientSpec.const(1.0))


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

    def test_m_uses_coefficient_sup(self):
        rep = run_scenario(fite_scenario(p_coeff=CoefficientSpec.const(3.0),
                                         c=4.0, n=256))
        assert rep.m == 3.0

    def test_coefficient_range_sampled_once(self, monkeypatch):
        # p_sup is fixed during validation; the run does not resample P
        calls = []
        range_on = CoefficientSpec.range_on

        def counting(self, a, c, samples=2049):
            calls.append((a, c))
            return range_on(self, a, c, samples)

        monkeypatch.setattr(CoefficientSpec, "range_on", counting)
        s = fite_scenario(p_coeff=CoefficientSpec.poly([1.0, 0.5]), c=2.0)
        rep = run_scenario(s)
        assert len(calls) == 1
        assert rep.m == pytest.approx(2.0)

    def test_overflow_is_solver_failed(self):
        # valid configs whose solves overflow double precision
        fite = fite_scenario(order=Order(0.9), c=1e8, b=1e6, n=64,
                             p_coeff=CoefficientSpec.const(1e300))
        forced = fite_scenario(c=1e6, b=1e4, n=64, f_a=1.0,
                               v_coeff=CoefficientSpec.poly([0.0, 1e300]))
        for s in (fite, forced):
            rep = run_scenario(s)
            assert rep.verdict == "SOLVER_FAILED"
            assert "non-finite" in rep.detail

    def test_relax_osc_scenario_runs(self):
        s = fite_scenario(p_coeff=CoefficientSpec.const(1.0),
                          v_coeff=CoefficientSpec.const(1.0),
                          f_a=1.0, g_a=0.0, c=5.0)
        rep = run_scenario(s)
        assert rep.verdict in ("BOUND_HOLDS", "NO_ZERO_PAIR")
        assert rep.residual < 1e-8


class TestSweep:
    def test_empty_grid(self):
        # a sweep that checks nothing must not pass as a clean sweep
        with pytest.raises(ValueError, match="alphas"):
            SweepSpec(alphas=(), p_infs=(), lengths=(), directions=4)
        with pytest.raises(ValueError, match="directions"):
            SweepSpec(alphas=(0.75,), p_infs=(1.0,), lengths=(0.5,),
                      directions=0)

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
        fine = SweepSpec(**{**spec.__dict__, "n": 256})
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
