"""Tests for the total-mass process module.

The quadratic mechanism has the logistic closed form

    v(t, theta) = theta e^t / (1 + theta (e^t - 1)),

and the pure-stable mechanism psi(u) = -u + u^s is a Bernoulli equation with

    v(t, theta) = (1 + (theta^(1-s) - 1) e^((1-s) t))^(1/(1-s)).

Both are used as frozen oracles below and written out here, not taken from the
module under test, which applies the logistic map for the quadratic mechanism
and a tabulated flow map for jump mechanisms.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmlab.csbp import (
    CsbpError,
    extinction_prob,
    laplace_exponent,
    mass_laplace,
)
from sbmlab.mechanism import BranchingMechanism, LevyMeasure, lambda_star

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())
STABLE_INDEX = 1.5
STABLE = BranchingMechanism(
    alpha=1.0,
    beta=0.0,
    levy=LevyMeasure.truncated_stable(
        c=STABLE_INDEX * (STABLE_INDEX - 1.0) / math.gamma(2.0 - STABLE_INDEX),
        index=STABLE_INDEX,
        cutoff=math.inf,
    ),
)


def logistic_v(t: float, theta: float) -> float:
    et = math.exp(t)
    return theta * et / (1.0 + theta * (et - 1.0))


def bernoulli_v(t: float, theta: float, s: float) -> float:
    w = 1.0 + (theta ** (1.0 - s) - 1.0) * math.exp((1.0 - s) * t)
    return w ** (1.0 / (1.0 - s))


class TestLaplaceExponent:
    def test_quadratic_logistic_value(self):
        v = laplace_exponent(QUADRATIC, theta=2.0, t=math.log(2.0))
        assert v == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_quadratic_against_logistic_grid(self):
        for theta in (0.25, 1.0, 3.0, 50.0):
            for t in (0.1, 0.9, 2.5):
                v = laplace_exponent(QUADRATIC, theta=theta, t=t)
                assert v == pytest.approx(logistic_v(t, theta), rel=1e-8)

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.5), (0.3, 3.0)])
    def test_quadratic_is_the_logistic_formula(self, alpha, beta):
        for theta in (1e-3, 0.25, 1.0, 7.0, 1e6):
            for t in (1e-3, 0.4, 3.0, 25.0):
                growth = math.exp(alpha * t)
                exact = theta * growth / (1.0 + beta * (growth - 1.0) * theta / alpha)
                v = laplace_exponent(BranchingMechanism(alpha=alpha, beta=beta), theta, t)
                assert v == pytest.approx(exact, rel=1e-13)

    def test_stable_against_bernoulli_closed_form(self):
        for theta in (0.5, 2.0, 20.0):
            for t in (0.3, 1.4):
                v = laplace_exponent(STABLE, theta=theta, t=t)
                expected = bernoulli_v(t, theta, STABLE_INDEX)
                assert v == pytest.approx(expected, rel=1e-8)

    def test_zero_theta_and_zero_time(self):
        assert laplace_exponent(QUADRATIC, theta=0.0, t=1.0) == 0.0
        assert laplace_exponent(QUADRATIC, theta=3.7, t=0.0) == pytest.approx(3.7)

    def test_fixed_point_at_lambda_star(self):
        lam = lambda_star(QUADRATIC)
        v = laplace_exponent(QUADRATIC, theta=lam, t=5.0)
        assert v == pytest.approx(lam, abs=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(CsbpError):
            laplace_exponent(QUADRATIC, theta=-1.0, t=1.0)
        with pytest.raises(CsbpError):
            laplace_exponent(QUADRATIC, theta=1.0, t=-0.5)


class TestMassLaplace:
    def test_quadratic_frozen_value(self):
        got = mass_laplace(QUADRATIC, theta=2.0, t=math.log(2.0))
        assert got == pytest.approx(math.exp(-4.0 / 3.0), abs=1e-8)

    def test_mass_scales_the_exponent(self):
        one = mass_laplace(QUADRATIC, theta=2.0, t=0.8, mass=1.0)
        three = mass_laplace(QUADRATIC, theta=2.0, t=0.8, mass=3.0)
        assert three == pytest.approx(one**3, rel=1e-9)

    def test_theta_zero_gives_one(self):
        assert mass_laplace(QUADRATIC, theta=0.0, t=2.0) == 1.0


class TestExtinction:
    def test_quadratic_frozen_value(self):
        res = extinction_prob(QUADRATIC, t=math.log(2.0))
        assert res.v_bar == pytest.approx(2.0, abs=1e-7)
        assert res.prob == pytest.approx(math.exp(-2.0), abs=1e-7)
        assert res.converged

    def test_v_bar_is_the_logistic_limit(self):
        # theta -> infinity in the logistic form: alpha e^{at} / (beta (e^{at} - 1))
        for alpha, beta in [(1.0, 1.0), (2.0, 0.5), (0.3, 3.0)]:
            for t in (1e-3, 0.4, 1.0, 3.0, 25.0):
                growth = math.exp(alpha * t)
                expected = alpha * growth / (beta * (growth - 1.0))
                res = extinction_prob(BranchingMechanism(alpha=alpha, beta=beta), t=t)
                assert res.v_bar == pytest.approx(expected, rel=1e-13)
                assert res.converged

    def test_long_time_limit_is_lambda_star(self):
        res = extinction_prob(QUADRATIC, t=30.0)
        assert res.v_bar == pytest.approx(1.0, abs=1e-6)

    def test_mass_enters_exponentially(self):
        base = extinction_prob(QUADRATIC, t=1.0, mass=1.0)
        doubled = extinction_prob(QUADRATIC, t=1.0, mass=2.0)
        assert doubled.prob == pytest.approx(base.prob**2, rel=1e-9)

    def test_stable_v_bar_is_the_bernoulli_limit(self):
        # v_bar for psi(u) = -u + u^s: the Bernoulli limit theta -> inf has
        # w0 = theta^(1-s) -> 0, so v_bar(t) = (1 - e^((1-s)t))^(1/(1-s))
        for t in (0.05, 0.3, 1.2, 4.0):
            expected = (1.0 - math.exp((1.0 - STABLE_INDEX) * t)) ** (
                1.0 / (1.0 - STABLE_INDEX)
            )
            res = extinction_prob(STABLE, t=t)
            assert res.v_bar == pytest.approx(expected, rel=1e-8)
            assert res.prob == pytest.approx(math.exp(-expected), rel=1e-8)

    def test_stable_default_ladder_reports_nonconvergence(self):
        # The stable flow approaches its limit like theta^(1-s), so a ladder
        # topped at 1e6 stays about 2e-3 short of v_bar.  The default call now
        # starts the flow at infinity and returns the limit itself.
        t = 1.2
        expected = (1.0 - math.exp((1.0 - STABLE_INDEX) * t)) ** (
            1.0 / (1.0 - STABLE_INDEX)
        )
        short = laplace_exponent(STABLE, theta=1e6, t=t)
        assert (expected - short) / expected > 1e-3
        res = extinction_prob(STABLE, t=t)
        assert res.converged
        assert res.v_bar == pytest.approx(expected, rel=1e-8)
        assert res.v_bar > short

    def test_stable_extended_ladder_converges(self):
        # Along the old extended ladder the flow from a finite theta keeps the
        # Bernoulli form and rises to v_bar, the gap shrinking by 100^(1-s)
        # per rung.
        t = 1.2
        v_bar = extinction_prob(STABLE, t=t).v_bar
        gaps = []
        for theta in (1e4, 1e6, 1e8, 1e10):
            v = laplace_exponent(STABLE, theta=theta, t=t)
            assert v == pytest.approx(bernoulli_v(t, theta, STABLE_INDEX), rel=1e-8)
            gaps.append(v_bar - v)
        assert all(g > 0.0 for g in gaps)
        for wide, narrow in zip(gaps, gaps[1:]):
            assert narrow / wide == pytest.approx(100.0 ** (1.0 - STABLE_INDEX), rel=0.05)
        assert gaps[-1] / v_bar < 1e-4

    def test_mass_zero_gives_certainty(self):
        assert extinction_prob(QUADRATIC, t=1.0, mass=0.0).prob == 1.0


class TestSemigroup:
    @given(
        theta=st.floats(min_value=0.05, max_value=40.0),
        s=st.floats(min_value=0.05, max_value=1.5),
        t=st.floats(min_value=0.05, max_value=1.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_flow_property_quadratic(self, theta, s, t):
        inner = laplace_exponent(QUADRATIC, theta=theta, t=t)
        composed = laplace_exponent(QUADRATIC, theta=inner, t=s)
        direct = laplace_exponent(QUADRATIC, theta=theta, t=s + t)
        assert composed == pytest.approx(direct, rel=1e-7, abs=1e-10)

    @given(theta=st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=20, deadline=None)
    def test_value_pinned_between_theta_and_root(self, theta):
        lam = 1.0
        v = laplace_exponent(QUADRATIC, theta=theta, t=0.7)
        lo, hi = min(theta, lam), max(theta, lam)
        assert lo - 1e-9 <= v <= hi + 1e-9

    def test_monotone_in_theta(self):
        values = [
            laplace_exponent(STABLE, theta=th, t=0.6)
            for th in (0.1, 0.5, 1.0, 2.0, 10.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
