"""Constant chain, bound inversion, optimizer, and the randomized audit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfite import (AuditFailure, ConfigError, Order, audit_estimates,
                      best_min_length,
                      big_C, big_D, big_E, bound_report,
                      fite_lhs, fite_rhs, holder_params, kernel_integral,
                      min_length, small_c)
from fracfite import bounds
from oracles import audit_instance, audit_reference, kernel_integral_reference

ORDER = Order(0.75)
# frozen 20-digit references (mpmath, dps=40)
SMALL_C_REF = 1.218732303156066035        # c(1.5, 0.25, 0.25)
BIG_C_REF = 4.8749292126242641401         # 4 c(1.5, 0.25, 0.25)
BIG_D_REF = 6.5693553822122223133         # at unit length
BIG_E_REF = 5.3609154902137479352         # at unit length
RHS_075 = 0.16669432161567304447
RHS_06 = 0.15876675315737470415
MIN_LEN_P15 = 0.06805831757494999317      # rhs(0.75)^{3/2}
MIN_LEN_BEST = 0.091740494059272800821    # rhs(0.75)^{4/3}
ALPHAS = (0.55, 0.6, 2.0 / 3.0, 0.75, 0.9, 0.99)


class TestHolderParams:
    def test_conjugates(self):
        q = holder_params(ORDER, 1.5)
        assert q == pytest.approx(3.0)
        assert 1.0 / 1.5 + 1.0 / q == pytest.approx(1.0)

    def test_boundary_excluded(self):
        with pytest.raises(ValueError):
            holder_params(ORDER, 2.0)  # gamma p = 1/2 not admissible

    def test_smaller_alpha_smaller_range(self):
        q = holder_params(Order(0.6), 1.2)  # gamma p = 0.48 < 1/2
        assert q == pytest.approx(6.0)
        with pytest.raises(ValueError):
            holder_params(Order(0.6), 1.3)

    def test_p_must_exceed_one(self):
        with pytest.raises(ValueError):
            holder_params(ORDER, 1.0)


def general_c(p, beta, gamma):
    """The paper's c(p, beta, gamma) = 2^{beta+gamma-1/p} / (1 - gamma p)^{1/p}."""
    return 2.0 ** (beta + gamma - 1.0 / p) / (1.0 - gamma * p) ** (1.0 / p)


class TestConstantChain:
    def test_small_c_frozen_value(self):
        assert small_c(ORDER, 1.5) == pytest.approx(SMALL_C_REF, rel=1e-12)

    def test_small_c_domain(self):
        with pytest.raises(ConfigError):
            small_c(ORDER, 2.0)   # gamma p = 1/2 not admissible
        with pytest.raises(ConfigError):
            small_c(ORDER, 1.0)

    @settings(max_examples=60)
    @given(gamma=st.floats(0.05, 0.45), frac=st.floats(0.05, 0.95))
    def test_small_c_below_power_bound(self, gamma, frac):
        # c(p, gamma, gamma) < 2^{2 gamma} whenever gamma p < 1/2
        order = Order(1.0 - gamma)
        ga = order.gamma
        p = 1.0 + frac * (0.5 / ga - 1.0)
        assert small_c(order, p) < 2.0 ** (2.0 * ga)

    def test_big_C_frozen_value(self):
        assert big_C(ORDER, 1.5) == pytest.approx(BIG_C_REF, rel=1e-12)

    def test_big_C_degenerate_symmetry(self):
        # the general C = 2 [c(p, beta, gamma) + c(v, gamma, beta)] at
        # beta = gamma, v = p, to the last bit
        for alpha, p in ((0.75, 1.5), (0.6, 1.2), (0.9, 1.0 / 0.9)):
            order = Order(alpha)
            ga = order.gamma
            assert small_c(order, p) == general_c(p, ga, ga)
            assert big_C(order, p) == 2.0 * (general_c(p, ga, ga)
                                             + general_c(p, ga, ga))

    def test_big_C_below_power_bound_across_alphas(self):
        for alpha in np.arange(0.55, 0.951, 0.05):
            order = Order(float(alpha))
            p_max = 0.5 / order.gamma
            for frac in (0.1, 0.35, 0.6, 0.85):
                p = 1.0 + frac * (p_max - 1.0)
                assert big_C(order, p) < 2.0 ** (2.0 * (2.0 - alpha))

    def test_big_D_unit_length(self):
        assert big_D(ORDER, 1.5, 1.0) == pytest.approx(BIG_D_REF, rel=1e-12)

    def test_big_D_vanishes_with_length(self):
        assert big_D(ORDER, 1.5, 1e-12) < 1e-4
        assert big_D(ORDER, 1.5, 1e-20) < big_D(ORDER, 1.5, 1e-12)

    def test_big_E_unit_length(self):
        assert big_E(ORDER, 1.5, 1.0) == pytest.approx(BIG_E_REF, rel=1e-12)

    def test_big_E_vanishes_with_length(self):
        assert big_E(ORDER, 1.5, 1e-12) < 1e-4


class TestFiteBound:
    @pytest.mark.parametrize("m", [math.inf, math.nan, 0.0, -1.0])
    def test_m_must_be_positive_and_finite(self, m):
        for fn in (lambda: min_length(ORDER, m, 1.5), lambda: best_min_length(ORDER, m)):
            with pytest.raises(ConfigError, match="^m: must be positive and finite"):
                fn()

    def test_overflowing_root_rejected(self):
        # rhs/m = 1.7e299 raised to 1/alpha > 1 leaves double range
        with pytest.raises(ConfigError, match="^m: the minimal length .* overflows"):
            best_min_length(ORDER, 1e-300)
        with pytest.raises(ConfigError, match="^m: the minimal length .* overflows"):
            min_length(ORDER, 1e-300, 1.5)

    def test_rhs_frozen_values(self):
        assert fite_rhs(ORDER) == pytest.approx(RHS_075, rel=1e-12)
        assert fite_rhs(Order(0.6)) == pytest.approx(RHS_06, rel=1e-12)

    def test_rhs_near_one_approaches_one_fifth(self):
        # limiting form Gamma(1)/(4 + B(1,1)) = 1/5
        assert fite_rhs(Order(0.9999)) == pytest.approx(0.2, rel=1e-3)

    def test_lhs_trivial_cases(self):
        assert fite_lhs(ORDER, 1.5, 0.0, 2.0) == 0.0
        assert fite_lhs(ORDER, 1.5, 3.0, 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_lhs_piecewise_exponent(self):
        # delta = |1/q - (1-alpha)| = 1/12 at p = 1.5
        assert fite_lhs(ORDER, 1.5, 1.0, 0.5) == pytest.approx(
            0.5 ** (2.0 / 3.0), rel=1e-12)
        assert fite_lhs(ORDER, 1.5, 1.0, 2.0) == pytest.approx(
            2.0 ** (0.75 + 1.0 / 12.0), rel=1e-12)

    @settings(max_examples=40)
    @given(l1=st.floats(0.01, 50.0), l2=st.floats(0.01, 50.0))
    def test_lhs_strictly_increasing_in_length(self, l1, l2):
        lo, hi = sorted((l1, l2))
        if hi / lo < 1.0 + 1e-9:  # below the resolution of pow
            return
        assert fite_lhs(ORDER, 1.5, 1.0, lo) < fite_lhs(ORDER, 1.5, 1.0, hi)

    def test_min_length_closed_form_at_p15(self):
        # lhs = l^{2/3} below 1, so the root is rhs^{3/2}
        assert min_length(ORDER, 1.0, 1.5) == pytest.approx(MIN_LEN_P15, abs=1e-9)

    def test_min_length_closed_form_at_matched_p(self):
        # p = 4/3 makes 1/q = 1 - alpha, lhs = l^alpha, root = rhs^{1/alpha}
        assert min_length(ORDER, 1.0, 4.0 / 3.0) == pytest.approx(
            MIN_LEN_BEST, abs=1e-9)

    def test_min_length_is_the_lhs_root(self):
        for m in (0.5, 1.0, 7.0):
            ell = min_length(ORDER, m, 1.5)
            assert fite_lhs(ORDER, 1.5, m, ell) == pytest.approx(
                fite_rhs(ORDER), rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(m1=st.floats(0.1, 50.0), m2=st.floats(0.1, 50.0))
    def test_min_length_decreasing_in_m(self, m1, m2):
        lo, hi = sorted((m1, m2))
        if hi / lo < 1.0 + 1e-9:  # below the resolution of pow
            return
        assert min_length(ORDER, hi, 1.5) < min_length(ORDER, lo, 1.5)

    def test_best_min_length_interior_optimum(self):
        p_star, ell = best_min_length(ORDER, 1.0)
        assert p_star == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert ell == pytest.approx(MIN_LEN_BEST, abs=1e-7)

    def test_best_dominates_fixed_p(self):
        _, best = best_min_length(ORDER, 1.0)
        for p in (1.2, 1.5, 1.8, 1.95):
            assert best >= min_length(ORDER, 1.0, p) - 1e-12

    def test_best_clamps_to_boundary_for_small_alpha(self):
        order = Order(0.6)  # alpha <= 2/3: supremum at the open boundary
        p_star, _ = best_min_length(order, 1.0)
        p_max = (1.0 - 1e-6) / (2.0 * order.gamma)
        assert p_star == pytest.approx(p_max, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.5000001, 0.5000005, 0.50000049])
    def test_best_admissible_next_to_one_half(self, alpha):
        # the clamped range [1 + 1e-6, (1 - 1e-6)/(2(1-alpha))] is empty
        # there; a ValueError before
        order = Order(alpha)
        p_star, length = best_min_length(order, 1.0)
        assert 1.0 < p_star and order.gamma * p_star < 0.5
        assert length == min_length(order, 1.0, p_star)

    def test_min_length_matches_bisection_root_on_both_branches(self):
        def bisect_root(order, p, m):
            rhs = fite_rhs(order)
            lo, hi = 1.0, 1.0
            while fite_lhs(order, p, m, lo) >= rhs:
                lo *= 0.5
            while fite_lhs(order, p, m, hi) < rhs:
                hi *= 2.0
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    return mid
                if fite_lhs(order, p, m, mid) < rhs:
                    lo = mid
                else:
                    hi = mid

        for alpha in ALPHAS:
            order = Order(alpha)
            p_max = 0.5 / order.gamma
            rhs = fite_rhs(order)
            # m >= 1 puts L* below 1; m < rhs puts it above 1
            for m in (1.0, 7.0, 0.5 * rhs, 0.01 * rhs):
                for p in (1.0 + 0.3 * (p_max - 1.0), 1.0 + 0.9 * (p_max - 1.0)):
                    ell = min_length(order, m, p)
                    assert (ell > 1.0) == (m < rhs)
                    assert ell == pytest.approx(bisect_root(order, p, m), rel=1e-12)

    def test_best_min_length_dominates_dense_p_grid(self):
        for alpha in ALPHAS:
            order = Order(alpha)
            p_lo, p_hi = 1.0 + 1e-6, (1.0 - 1e-6) / (2.0 * order.gamma)
            for m in (0.05, 1.0, 7.0):
                p_star, best = best_min_length(order, m)
                assert p_lo <= p_star <= p_hi
                for p in np.linspace(p_lo, p_hi, 400):
                    assert best >= min_length(order, m, p) * (1.0 - 1e-12)

    def test_rhs_is_parameter_free(self):
        vals = {fite_rhs(ORDER) for _ in range(5)}
        assert len(vals) == 1

    def test_bound_report_satisfied_iff_lhs_dominates(self):
        for m, length in ((1.0, 0.01), (1.0, 0.0681), (1.0, 1.0), (5.0, 0.02)):
            rep = bound_report(ORDER, 1.5, m, length)
            assert rep.satisfied == (rep.lhs >= rep.rhs)

    def test_bound_report_satisfied_beyond_min_length(self):
        rep = bound_report(ORDER, 1.5, 1.0, 1e-3)
        assert not rep.satisfied
        for factor in (1.0 + 1e-9, 2.0, 100.0):
            longer = bound_report(ORDER, 1.5, 1.0, rep.min_length * factor)
            assert longer.satisfied

    def test_lhs_growth_exponent_positive_everywhere(self):
        # alpha - |1/q - (1-alpha)| > 0 across the admissible set, so the
        # left side is strictly increasing and min_length's root is unique
        for alpha in np.arange(0.55, 0.951, 0.05):
            order = Order(float(alpha))
            p_max = 0.5 / order.gamma
            for frac in (0.05, 0.5, 0.95):
                p = 1.0 + frac * (p_max - 1.0)
                q = holder_params(order, p)
                expo = order.alpha - abs(1.0 / q - order.gamma)
                assert expo > 0.0


class TestAudit:
    def test_empty_audit(self):
        report = audit_estimates(ORDER, 1.5, 0, 42)
        assert report.trials == 0
        assert all(v == 0 for v in report.passes.values())

    def test_small_audit_passes(self):
        report = audit_estimates(ORDER, 1.5, 50, 42)
        assert all(v == 50 for v in report.passes.values())

    def test_audit_deterministic(self):
        r1 = audit_estimates(ORDER, 1.5, 10, 7)
        r2 = audit_estimates(ORDER, 1.5, 10, 7)
        assert r1 == r2

    def test_other_regime_point(self):
        report = audit_estimates(Order(0.8), 1.7, 25, 3)
        assert all(v == 25 for v in report.passes.values())

    @pytest.mark.parametrize("trials,seed,field", [(-1, 42, "trials"),
                                                   (5, -1, "seed")])
    def test_negative_counts_rejected(self, trials, seed, field):
        # a negative seed was a ValueError from numpy's SeedSequence
        with pytest.raises(ConfigError, match=f"^{field}: must be >= 0"):
            audit_estimates(ORDER, 1.5, trials, seed)

    @settings(max_examples=50)
    @given(x=st.floats(0.0, 100.0), y=st.floats(0.0, 100.0),
           e=st.floats(0.01, 0.99))
    def test_subadditive_power_inequality(self, x, y, e):
        assert (x + y) ** e <= x**e + y**e + 1e-12

    def test_one_integral_call_per_chunk(self, monkeypatch):
        # a chunk's three integrals per trial are one call on (3, T) arguments
        shapes = []

        def counted(*args):
            shapes.append(np.shape(args[0]))
            return kernel_integral(*args)

        monkeypatch.setattr(bounds, "kernel_integral", counted)
        audit_estimates(ORDER, 1.5, 300, 42)
        assert shapes == [(3, 128), (3, 128), (3, 44)]

    def test_audit_failure_type_exists(self):
        err = AuditFailure("chain_D", 123, 4, "detail")
        assert (err.inequality, err.seed, err.trial) == ("chain_D", 123, 4)
        assert "chain_D" in str(err) and "detail" in str(err)
        assert "--seed 123 --trials 5" in str(err)

    def test_failure_names_the_seed_and_trial_that_reproduce_it(self, monkeypatch):
        calls = record_integrals(monkeypatch)
        audit_estimates(ORDER, 1.5, 10, 42)
        # one record per integral of the chunk, kernel_window's first
        assert [len(args) for args, _ in calls] == [10, 10, 10]  # three per trial
        target = calls[0][0][5]  # trial 5's kernel_window integral

        inflate_integrals(monkeypatch, target)
        with pytest.raises(AuditFailure) as first:
            audit_estimates(ORDER, 1.5, 10, 42)
        err = first.value
        assert (err.inequality, err.seed, err.trial) == ("kernel_window", 42, 5)
        assert "--seed 42 --trials 6" in str(err)
        with pytest.raises(AuditFailure) as rerun:
            audit_estimates(ORDER, 1.5, 6, 42)
        assert (rerun.value.seed, rerun.value.trial) == (42, 5)
        assert str(rerun.value) == str(err)

    def test_audited_integrals_match_betainc(self, monkeypatch):
        calls = record_integrals(monkeypatch)
        audit_estimates(ORDER, 1.5, 200, 42)
        pairs = [(arg, val) for args, vals in calls for arg, val in zip(args, vals)]
        assert len(pairs) == 600
        for args, val in pairs:
            ref = kernel_integral_reference(*args)
            assert abs(val - ref) <= 1e-14 * abs(ref), args

    @pytest.mark.parametrize("alpha,p", [(0.75, 1.5), (0.8, 1.7)])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_chunked_sides_match_scalar_reference(self, alpha, p, seed):
        order = Order(alpha)
        lhs, rhs = bounds.audit_sides(order, p, seed, 0, 300)
        ref_lhs, ref_rhs = audit_reference(order, p, 300, seed)
        assert lhs.shape == rhs.shape == (300, len(bounds.CHECKS))
        assert np.all(np.abs(lhs - ref_lhs) <= 1e-14 * np.abs(ref_lhs))
        assert np.all(np.abs(rhs - ref_rhs) <= 1e-14 * np.abs(ref_rhs))

    @pytest.mark.parametrize("alpha,p", [(0.75, 1.5), (0.8, 1.7)])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_injected_fault_found_at_the_same_trial_as_reference(
            self, monkeypatch, alpha, p, seed):
        order = Order(alpha)
        calls = record_integrals(monkeypatch)
        bounds.audit_sides(order, p, seed, 77, 78)
        # trial 77's int_a^{t1} over [a, t1]: kernel_difference's first term
        inflate_integrals(monkeypatch, calls[1][0][0])
        with pytest.raises(AuditFailure) as chunked:
            audit_estimates(order, p, 300, seed)
        with pytest.raises(AuditFailure) as ref:
            audit_reference(order, p, 300, seed)
        found = (chunked.value.inequality, chunked.value.seed, chunked.value.trial)
        assert found == (ref.value.inequality, ref.value.seed, ref.value.trial)
        assert found == ("kernel_difference", seed, 77)

    def test_fault_in_second_chunk_reproduces_at_its_trial(self, monkeypatch):
        trial = bounds._AUDIT_CHUNK + 6
        calls = record_integrals(monkeypatch)
        bounds.audit_sides(ORDER, 1.5, 42, trial, trial + 1)
        inflate_integrals(monkeypatch, calls[0][0][0])  # its kernel_window
        with pytest.raises(AuditFailure) as full:
            audit_estimates(ORDER, 1.5, bounds._AUDIT_CHUNK + 50, 42)
        assert (full.value.inequality, full.value.trial) == ("kernel_window", trial)
        with pytest.raises(AuditFailure) as rerun:
            audit_estimates(ORDER, 1.5, trial + 1, 42)
        assert str(rerun.value) == str(full.value)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_passes_at_chunk_boundary(self, monkeypatch, extra):
        trials = bounds._AUDIT_CHUNK + extra
        chunks = []
        sides = bounds.audit_sides

        def record(order, p, seed, start, stop):
            chunks.append((start, stop))
            return sides(order, p, seed, start, stop)

        monkeypatch.setattr(bounds, "audit_sides", record)
        report = audit_estimates(ORDER, 1.5, trials, 42)
        assert report.passes == dict.fromkeys(bounds.AUDITED, trials)
        # every trial checked once, in order
        covered = [t for start, stop in chunks for t in range(start, stop)]
        assert covered == list(range(trials))

    @pytest.mark.parametrize("seed", [1, 42])
    def test_chunk_draws_are_the_reference_instances_bit_for_bit(self, seed):
        # from trial 77, mid-chunk, across two chunk boundaries; only the
        # generator and rounded + - * / feed these values, so they match on
        # every platform
        start, stop = 77, 2 * bounds._AUDIT_CHUNK + 44
        ref = [audit_instance(seed, trial) for trial in range(start, stop)]
        draws = bounds._audit_draws(seed, start, stop)
        assert len(draws) == len(ref[0])
        for name, got in zip(ref[0], draws):
            want = np.array([inst[name] for inst in ref])
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("chunk", [1, 7, bounds._AUDIT_CHUNK, 1024])
    def test_chunk_size_is_invisible(self, monkeypatch, chunk):
        whole = bounds.audit_sides(ORDER, 1.5, 42, 0, 300)
        parts = [bounds.audit_sides(ORDER, 1.5, 42, start, min(start + chunk, 300))
                 for start in range(0, 300, chunk)]
        for side, pieces in zip(whole, zip(*parts)):
            assert np.concatenate(pieces).tobytes() == side.tobytes()
        monkeypatch.setattr(bounds, "_AUDIT_CHUNK", chunk)
        report = audit_estimates(ORDER, 1.5, 300, 42)
        assert report.passes == dict.fromkeys(bounds.AUDITED, 300)
        calls = record_integrals(monkeypatch)
        bounds.audit_sides(ORDER, 1.5, 42, 77, 78)
        inflate_integrals(monkeypatch, calls[1][0][0])  # trial 77's kernel_difference
        with pytest.raises(AuditFailure) as err:
            audit_estimates(ORDER, 1.5, 300, 42)
        assert (err.value.inequality, err.value.seed, err.value.trial) == (
            "kernel_difference", 42, 77)


def record_integrals(monkeypatch):
    """Patch bounds.kernel_integral to record each integral it evaluates
    as (args, values), a call on stacked (k, T) arguments as its k rows in
    turn: args a list of one (lo, hi, a, t, beta, gamma) tuple of floats
    per element, values the elements' integrals."""
    calls = []

    def record(*args):
        val = kernel_integral(*args)
        vals = np.atleast_2d(val)
        rows = zip(*(np.broadcast_to(v, vals.shape).tolist() for v in args), vals.tolist())
        calls.extend((list(zip(*cols)), row) for *cols, row in rows)
        return val

    monkeypatch.setattr(bounds, "kernel_integral", record)
    return calls


def inflate_integrals(monkeypatch, target):
    """Patch bounds.kernel_integral to multiply by 1e6 every element whose
    arguments are target."""
    def inflate(*args):
        val = kernel_integral(*args)
        hit = True
        for v, w in zip(args, target):
            hit = hit & np.equal(v, w)
        return np.where(hit, 1e6 * val, val)

    monkeypatch.setattr(bounds, "kernel_integral", inflate)
