"""Special-function kernel against stdlib and identity oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfite import beta_fn, gamma_fn
from fracfite.errors import ConvergenceError
from fracfite.specfn import inc_beta
from oracles import mittag_leffler

# frozen 20-digit references (mpmath, dps=40)
GAMMA_075 = 1.2254167024651776451
GAMMA_05 = 1.7724538509055160273
BETA_075_075 = 1.6944261695879581732
REFLECT_075 = 4.442882938158366247  # pi / sin(0.75 pi)
ML_075_075_AT_1 = 3.6787264341661804746
E_CONST = 2.7182818284590452354


class TestGamma:
    def test_gamma_one(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half_is_sqrt_pi(self):
        assert gamma_fn(0.5) == pytest.approx(GAMMA_05, rel=1e-13)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_gamma_three_quarters(self):
        assert gamma_fn(0.75) == pytest.approx(GAMMA_075, rel=1e-12)

    def test_against_stdlib_across_range(self):
        for k in range(1, 500):
            x = 0.1 * k
            assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_against_mpmath_on_working_range(self):
        # measured 6.4e-16 for math.gamma; the former 15-term Lanczos series
        # reached 1.1e-14 here
        with mp.workdps(30):
            for x in np.geomspace(0.01, 20.0, 400):
                assert gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=2e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            gamma_fn(x)

    @given(st.floats(min_value=0.05, max_value=30.0))
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


class TestBeta:
    def test_uniform_density(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_reflection_at_075(self):
        assert beta_fn(0.75, 0.25) == pytest.approx(REFLECT_075, rel=1e-12)

    def test_beta_075_075(self):
        assert beta_fn(0.75, 0.75) == pytest.approx(BETA_075_075, rel=1e-12)

    def test_log_space_no_overflow(self):
        # Gamma(900) alone overflows a double; the quotient must not
        val = beta_fn(600.0, 300.0)
        assert 0.0 < val < 1.0
        ref = math.exp(math.lgamma(600.0) + math.lgamma(300.0) - math.lgamma(900.0))
        assert val == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("x,y", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_domain_errors(self, x, y):
        with pytest.raises(ValueError):
            beta_fn(x, y)

    @given(st.floats(min_value=0.02, max_value=0.98))
    def test_reflection_identity(self, x):
        assert beta_fn(x, 1.0 - x) == pytest.approx(
            math.pi / math.sin(math.pi * x), rel=1e-10)

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=0.05, max_value=20.0))
    def test_symmetry(self, x, y):
        assert beta_fn(x, y) == beta_fn(y, x)


class TestIncBeta:
    def test_against_mpmath(self):
        # both branches: the series below x = 1/2, the reflection above
        rng = np.random.default_rng(3)
        with mp.workdps(30):
            for _ in range(300):
                x = rng.uniform(0.0, 1.0)
                p, q = rng.uniform(0.01, 1.0, 2)
                ref = float(mp.betainc(p, q, 0, x))
                assert inc_beta(x, p, q) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("p,q", [(0.25, 0.75), (1.0, 0.01), (0.01, 1.0)])
    def test_ends_and_half(self, p, q):
        assert inc_beta(0.0, p, q) == 0.0
        assert inc_beta(1.0, p, q) == beta_fn(p, q)
        # at x = 1/2 the two branches meet
        assert inc_beta(0.5, p, q) + inc_beta(0.5, q, p) == pytest.approx(
            beta_fn(p, q), rel=1e-14)

    def test_uniform_density(self):
        for x in (0.0, 0.3, 0.5, 0.8, 1.0):
            assert inc_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-16)

    @pytest.mark.parametrize("x,p,q", [
        (-0.1, 0.5, 0.5), (1.1, 0.5, 0.5), (math.nan, 0.5, 0.5),
        (0.5, 0.0, 0.5), (0.5, 1.5, 0.5), (0.5, 0.5, math.nan),
    ])
    def test_domain_errors(self, x, p, q):
        with pytest.raises(ValueError):
            inc_beta(x, p, q)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared p,q", "per element"])
    def test_array_call_matches_scalar_calls(self, shared):
        # both branches, with the ends and the branch point among the elements
        rng = np.random.default_rng(11)
        x = np.r_[0.0, 0.5, 1.0, rng.uniform(0.0, 1.0, 300)]
        p, q = (0.3, 0.85) if shared else rng.uniform(0.01, 1.0, (2, x.size))
        vals = inc_beta(x, p, q)
        assert vals.shape == x.shape
        for k, val in enumerate(vals):
            ref = inc_beta(float(x[k]), float(np.broadcast_to(p, x.shape)[k]),
                           float(np.broadcast_to(q, x.shape)[k]))
            assert type(ref) is float
            assert abs(val - ref) <= math.ulp(ref)

    def test_array_shape_kept(self):
        x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert inc_beta(x, 0.5, 0.5).shape == (3, 4)
        assert inc_beta(0.25, np.full((2, 1), 0.5), np.full(5, 0.5)).shape == (2, 5)
        assert type(inc_beta(np.float64(0.25), 0.5, 0.5)) is float

    @pytest.mark.parametrize("name,value,match", [
        ("x", 1.5, r"x must lie in \[0, 1\], got 1\.5"),
        ("x", math.nan, r"x must lie in \[0, 1\], got nan"),
        ("p", 0.0, r"p must lie in \(0, 1\], got 0\.0"),
        ("q", 1.25, r"q must lie in \(0, 1\], got 1\.25"),
    ])
    def test_one_bad_element_rejected(self, name, value, match):
        args = {"x": np.full(6, 0.4), "p": np.full(6, 0.5), "q": np.full(6, 0.5)}
        args[name][4] = value
        with pytest.raises(ValueError, match=match):
            inc_beta(**args)

    def test_end_elements_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = inc_beta(np.array([0.0, 0.5, 1.0]), 0.25, 0.75)
        assert vals[0] == 0.0 and vals[2] == beta_fn(0.25, 0.75)
        assert vals[1] == inc_beta(0.5, 0.25, 0.75)


class TestMittagLeffler:
    def test_exp_at_one(self):
        assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(E_CONST, rel=1e-12)

    def test_z_zero_is_reciprocal_gamma(self):
        for weight in (0.3, 0.75, 1.0, 2.5):
            assert mittag_leffler(0.6, weight, 0.0) == pytest.approx(
                1.0 / gamma_fn(weight), rel=1e-13)

    def test_value_at_075(self):
        assert mittag_leffler(0.75, 0.75, 1.0) == pytest.approx(
            ML_075_075_AT_1, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_matches_exponential(self, z):
        assert mittag_leffler(1.0, 1.0, z) == pytest.approx(
            math.exp(z), rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, 0.5, math.pi / 2, 3.0, 7.0])
    def test_order_two_is_cosine(self, x):
        # E_{2,1}(-x^2) = cos x
        assert mittag_leffler(2.0, 1.0, -x * x) == pytest.approx(
            math.cos(x), rel=1e-10, abs=1e-14)

    def test_exponential_worst_case_cancellation(self):
        # partial sums overshoot exp(-10) by ~10 orders of magnitude
        assert mittag_leffler(1.0, 1.0, -10.0) == pytest.approx(
            math.exp(-10.0), rel=1e-10)

    @pytest.mark.parametrize("order,weight,z", [
        (0.0, 1.0, 1.0), (2.5, 1.0, 1.0), (0.5, 0.0, 1.0),
        (0.5, -1.0, 1.0), (0.5, 1.0, 51.0), (0.5, 1.0, math.nan),
    ])
    def test_domain_errors(self, order, weight, z):
        with pytest.raises(ValueError):
            mittag_leffler(order, weight, z)

    def test_nonconvergence_for_tiny_order_large_z(self):
        # Gamma(0.05 k + 1) cannot outgrow 50^k within 10000 terms
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.05, 1.0, 50.0)
