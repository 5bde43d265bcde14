"""Mechanism algebra: oracle values frozen before the implementation existed.

Oracle notes
------------
* Quadratic mechanism psi(u) = -u + u**2: every expected number below follows
  from the closed form (largest zero 1, k(u) = 1 - u).
* Pure-jump stable check: for a Levy density c * y**(-1-s) on (0, inf) with
  s in (1, 2), integrating (exp(-u*y) - 1 + u*y) gives
  c * Gamma(2-s) / (s*(s-1)) * u**s.  Picking c = s*(s-1)/Gamma(2-s) makes the
  jump part exactly u**s; the test recomputes c from math.gamma so the oracle
  is independent of the package.
* The giant-atom root is checked by the sign of psi on either side of it.
* Truncated-stable jumps with a finite cutoff are checked against 30-digit
  mpmath quadrature of the defining integrals, after substitutions that make
  the integrands smooth at the origin; the package evaluates them through
  an incomplete-gamma closed form and a power series instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import solve_ivp

from sbmlab.cli import EXIT_USAGE, ExperimentConfig, main
from sbmlab.csbp import extinction_prob
from sbmlab.mechanism import (
    BranchingMechanism,
    GreyViolatedError,
    LevyMeasure,
    MechanismError,
    _brentq,
    _flow_table,
    check_hypotheses,
    flow_map,
    k,
    lambda_star,
    mechanism_to_dict,
    psi,
)

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0)
# pure-jump truncated-stable mechanism with a finite cutoff
PURE_JUMP_CUTOFF = BranchingMechanism(
    alpha=1.0, beta=0.0, levy=LevyMeasure.truncated_stable(c=1.0, index=1.5, cutoff=5.0)
)


def stable_mechanism(index: float = 1.5, cutoff: float = math.inf) -> BranchingMechanism:
    c = index * (index - 1.0) / math.gamma(2.0 - index)
    return BranchingMechanism(
        alpha=1.0,
        beta=0.0,
        levy=LevyMeasure.truncated_stable(c=c, index=index, cutoff=cutoff),
    )


class TestPsi:
    def test_quadratic_closed_form(self):
        assert psi(QUADRATIC, 0.5) == pytest.approx(-0.25, abs=1e-14)
        assert psi(QUADRATIC, 2.0) == pytest.approx(2.0, abs=1e-14)
        assert psi(QUADRATIC, 0.0) == 0.0

    def test_quadratic_vectorized(self):
        lam = np.array([0.0, 0.25, 1.0, 3.0])
        np.testing.assert_allclose(psi(QUADRATIC, lam), lam * lam - lam, atol=1e-14)

    def test_stable_matches_gamma_closed_form(self):
        mech = stable_mechanism(index=1.5)
        for lam, expected in [(0.25, -0.25 + 0.25**1.5), (1.0, 0.0), (4.0, 4.0)]:
            assert psi(mech, lam) == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_atom_contribution(self):
        mech = BranchingMechanism(alpha=1.0, beta=0.5, levy=LevyMeasure.atoms([(2.0, 0.3)]))
        expected = -1.0 + 0.5 + 0.3 * (math.exp(-2.0) - 1.0 + 2.0)
        assert psi(mech, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_tiny_argument_no_cancellation(self):
        # the jump integrand is ~ (lam*y)**2/2; a naive exp evaluation would
        # lose every significant digit at this scale
        mech = BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.atoms([(1.0, 1.0)]))
        lam = 1e-9
        expected = -lam + lam * lam / 2.0
        assert psi(mech, lam) == pytest.approx(expected, rel=1e-9)


class TestK:
    def test_quadratic_values(self):
        assert k(QUADRATIC, 0.5) == pytest.approx(0.5, abs=1e-13)
        assert k(QUADRATIC, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_limit_at_zero_is_alpha(self):
        mech = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.atoms([(0.5, 0.2)]))
        assert k(mech, 1e-8) == pytest.approx(1.0, abs=1e-6)
        assert k(mech, 0.0) == 1.0

    def test_monotone_decreasing_on_grid(self):
        mech = stable_mechanism(index=1.2)
        lam = np.logspace(-6, 2, 50)
        vals = k(mech, lam)
        assert np.all(np.diff(vals) <= 1e-12)


def mp_stable_cutoff_excess(c: float, index: float, cutoff: float, lam: float):
    """c * integral_0^cutoff (e^(-lam y) - 1 + lam y) y^(-1-index) dy at 30 digits.

    With z = lam*y the integral is c lam^s int_0^X z^(1-s) h(z) dz, where
    X = lam*cutoff and h(z) = (e^-z - 1 + z)/z^2 = 1F1(1; 3; -z)/2 has no
    cancellation; then w = z^(2-s) removes the singularity at 0.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        s, x = mp.mpf(index), mp.mpf(lam) * mp.mpf(cutoff)
        q = 1 / (2 - s)
        breaks = [mp.mpf(0)] + [mp.mpf(10) ** e for e in range(-8, 8) if mp.mpf(10) ** e < x] + [x]
        integral = mp.quad(lambda w: q * mp.hyp1f1(1, 3, -(w**q)) / 2, [b ** (2 - s) for b in breaks])
        return c * mp.mpf(lam) ** s * integral


class TestFiniteCutoffKernel:
    LAMS = np.geomspace(1e-8, 1e6, 8)

    @pytest.mark.parametrize("cutoff", [0.3, 5.0])
    @pytest.mark.parametrize("index", [1.2, 1.5, 1.8])
    def test_psi_and_k_match_mpmath_quadrature(self, index, cutoff):
        mech = BranchingMechanism(
            alpha=1.0, beta=0.0, levy=LevyMeasure.truncated_stable(c=0.7, index=index, cutoff=cutoff)
        )
        # the straddling pair sits on both sides of the series/closed-form
        # switch at lam * cutoff = 1
        lams = np.concatenate([self.LAMS, [(1.0 - 1e-9) / cutoff, (1.0 + 1e-9) / cutoff]])
        jump = np.array([float(mp_stable_cutoff_excess(0.7, index, cutoff, lam)) for lam in lams])
        for lam, ref in zip(lams, jump):
            assert mech.levy.excess_integral(lam) == pytest.approx(ref, rel=1e-10, abs=0.0)
        # psi = -lam + jump and k = 1 - jump/lam cancel near lambda*, so the
        # relative bound is taken against the size of the terms
        psi_vals = psi(mech, lams)
        k_vals = k(mech, lams)
        assert np.all(np.abs(psi_vals - (jump - lams)) <= 1e-10 * (lams + jump))
        assert np.all(np.abs(k_vals - (1.0 - jump / lams)) <= 1e-10 * (1.0 + jump / lams))

    @pytest.mark.parametrize("index", [1.2, 1.5, 1.8])
    def test_continuous_across_series_switch(self, index):
        levy = LevyMeasure.truncated_stable(c=1.0, index=index, cutoff=1.0)
        below, above = 1.0, float(np.nextafter(1.0, 2.0))
        j_below, j_above = levy.excess_integral(below), levy.excess_integral(above)
        ref = float(mp_stable_cutoff_excess(1.0, index, 1.0, 1.0))
        assert j_below == pytest.approx(ref, rel=1e-13)
        assert j_above == pytest.approx(ref, rel=1e-13)
        # the true step over one ulp is about index * 2.2e-16 relative
        assert abs(j_above - j_below) <= 1e-13 * ref


class TestLambdaStar:
    def test_quadratic_root(self):
        assert lambda_star(QUADRATIC) == pytest.approx(1.0, abs=1e-12)

    def test_stable_root(self):
        assert lambda_star(stable_mechanism(1.5)) == pytest.approx(1.0, rel=1e-9)

    def test_shifted_quadratic(self):
        # psi = -2u + u**2 has largest zero 2
        mech = BranchingMechanism(alpha=2.0, beta=1.0)
        assert lambda_star(mech) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("c, index", [(1.0, 1.1), (0.1, 1.05)])
    def test_small_root_keeps_relative_accuracy(self, c, index):
        # psi = -u + C u**s has the root C**(-1/(s-1)): 1.3e-10 and 1.4e-6 here,
        # where an absolute tolerance of 1e-14 alone leaves 5.5e-6 and 2.4e-10 relative
        mech = BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.truncated_stable(c=c, index=index))
        big_c = c * math.gamma(2.0 - index) / (index * (index - 1.0))
        assert lambda_star(mech) == pytest.approx(big_c ** (-1.0 / (index - 1.0)), rel=1e-12, abs=0.0)

    def test_uncut_stable_root_far_below_one(self, monkeypatch):
        # psi = -u + C u**1.05 with C = Gamma(0.95)/(1.05 * 0.05): the root
        # C**(-1/0.05) = 1.36e-26 takes 85 halvings from 1/2 to bracket
        import sbmlab.mechanism as mechanism_module

        calls = _recording(monkeypatch, mechanism_module)
        mech = BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.truncated_stable(c=1.0, index=1.05))
        big_c = math.gamma(0.95) / (1.05 * 0.05)
        root = lambda_star(mech)
        assert root == pytest.approx((1.0 / big_c) ** (1.0 / 0.05), rel=1e-12, abs=0.0)
        assert root == pytest.approx(1.3620546413589e-26, rel=1e-12, abs=0.0)
        (_f, xa, xb, _xtol, _rtol), _root = calls[0]
        assert (xa, xb) == (0.5 * 2.0**-85, 1.0)

    @pytest.mark.parametrize("c, index", [(1.0, 1.001), (1e125 * 0.75 / math.gamma(0.5), 1.5)])
    def test_root_below_the_floor_raises(self, c, index):
        # psi = -u + C u**s with C = c Gamma(2-s)/(s(s-1)) has its root at
        # C**(-1/(s-1)): about 1e-3000 for the first, 1e-250 for the second.
        # There u**1.5 is subnormal near 1e-216, where the computed psi turns
        # negative although the true one is positive; the floor 2**-511 stops
        # the bracket above that
        mech = BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.truncated_stable(c=c, index=index))
        assert psi(mech, 2.0**-511) > 0.0
        with pytest.raises(MechanismError, match=r"lambda_star .*floor 1\.4916681462400413e-154"):
            lambda_star(mech)
        assert check_hypotheses(mech).lambda_star is None

    def test_no_supercritical_root_raises(self):
        # beta = 0 with one small atom: psi stays negative, no positive zero
        mech = BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.atoms([(0.5, 0.1)]))
        with pytest.raises(MechanismError):
            lambda_star(mech)


def _recording(monkeypatch, module):
    """Patch module._brentq to record each (f, xa, xb, xtol, rtol) and its root."""
    calls = []
    inner = module._brentq

    def spy(f, xa, xb, xtol, rtol, error, what):
        root = inner(f, xa, xb, xtol, rtol, error, what)
        calls.append(((f, xa, xb, xtol, rtol), root))
        return root

    monkeypatch.setattr(module, "_brentq", spy)
    return calls


class TestBrentq:
    """The private Brent root finder against scipy.optimize.brentq, bit for bit."""

    MECHANISMS = {
        "quadratic": QUADRATIC,
        "shifted": BranchingMechanism(alpha=2.0, beta=0.3),
        "stable": stable_mechanism(1.5),
        "pure-jump-cutoff": PURE_JUMP_CUTOFF,
        "atoms": BranchingMechanism(alpha=0.7, beta=0.2, levy=LevyMeasure.atoms([(0.5, 1.0), (3.0, 0.2)])),
        "tabulated": BranchingMechanism(
            alpha=1.0, beta=0.5, levy=LevyMeasure.tabulated([0.1, 1.0, 4.0], [2.0, 0.5, 0.0])
        ),
    }

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_lambda_star_problems(self, monkeypatch, name):
        from scipy.optimize import brentq

        import sbmlab.mechanism as mechanism_module

        calls = _recording(monkeypatch, mechanism_module)
        root = lambda_star(self.MECHANISMS[name])
        assert len(calls) == 1
        (f, xa, xb, xtol, rtol), got = calls[0]
        assert root == got == brentq(f, xa, xb, xtol=xtol, rtol=rtol)

    @pytest.mark.parametrize(
        "case", [(1.0, 1.0, 1.0, 5.0), (1.0, 2.0, 0.5, 3.0), (2.0, 0.5, 0.3, 2.0), (1.0, 1.0, 1.0, 0.3)]
    )
    def test_solve_hA_centre_problems(self, monkeypatch, case):
        from scipy.optimize import brentq

        import sbmlab.barriers as barriers_module

        calls = _recording(monkeypatch, barriers_module)
        barriers_module.solve_hA(*case)
        assert len(calls) == 1
        (f, xa, xb, xtol, rtol), got = calls[0]
        assert got == brentq(f, xa, xb, xtol=xtol, rtol=rtol)

    def test_random_problems(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(12)
        for _ in range(300):
            c, p, s = rng.uniform(0.1, 3.0), rng.uniform(0.5, 4.0), rng.uniform(-2.0, 2.0)
            xtol, rtol = 10.0 ** rng.uniform(-300, -6), 10.0 ** rng.uniform(-15.05, -6)

            def f(x):
                return c * math.copysign(abs(x) ** p, x) + math.sinh(x) - s

            got = _brentq(f, -5.0, 5.0, xtol, rtol, MechanismError, "test")
            assert got == brentq(f, -5.0, 5.0, xtol=xtol, rtol=rtol)

    @pytest.mark.parametrize("xa,xb", [(1.0, 2.0), (0.0, 1.0)])
    def test_root_at_an_end(self, xa, xb):
        from scipy.optimize import brentq

        def f(x):
            return x * x - 1.0

        got = _brentq(f, xa, xb, 1e-12, 1e-12, MechanismError, "test")
        assert got == brentq(f, xa, xb, xtol=1e-12, rtol=1e-12) == 1.0

    def test_equal_signs_raise_the_callers_error(self):
        from scipy.optimize import brentq

        def f(x):
            return x * x + 1.0

        with pytest.raises(ValueError, match="different signs"):
            brentq(f, -1.0, 1.0)
        with pytest.raises(MechanismError, match=r"lambda_star \(x\): no sign change on the bracket \[-1.0, 1.0\]"):
            _brentq(f, -1.0, 1.0, 1e-12, 1e-12, MechanismError, "lambda_star (x)")

    def test_nan_raises_the_callers_error(self):
        from scipy.optimize import brentq

        def f(x):
            return math.nan if x > 0.5 else x - 0.7

        with pytest.raises(ValueError, match="is NaN"):
            brentq(f, 0.0, 1.0)
        with pytest.raises(MechanismError, match=r"lambda_star \(x\): the function is NaN at 1.0"):
            _brentq(f, 0.0, 1.0, 1e-12, 1e-12, MechanismError, "lambda_star (x)")

    def test_spent_iterations_raise_the_callers_error(self):
        from scipy.optimize import brentq

        from sbmlab.barriers import BarriersError

        def f(x):
            # a jump at 0 with solve_hA's xtol: about 1000 bisections to converge
            return math.copysign(1.0, x)

        rtol = 4 * np.finfo(float).eps
        with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
            brentq(f, -1.0, 2.0, xtol=1e-300, rtol=rtol)
        with pytest.raises(BarriersError, match=r"solve_hA centre \(A 5\): no convergence in 100 iterations"):
            _brentq(f, -1.0, 2.0, 1e-300, rtol, BarriersError, "solve_hA centre (A 5)")


class TestExactFlow:
    def test_quadratic_map_values(self):
        # psi = -2u + u**2: v(t) = 2 v0 e^{2t} / (2 + (e^{2t} - 1) v0)
        flow = flow_map(BranchingMechanism(alpha=2.0, beta=1.0), 0.5)
        e = math.e
        v0 = np.array([0.0, 0.3, 2.0, 50.0])
        expected = 2.0 * v0 * e / (2.0 + (e - 1.0) * v0)
        assert np.allclose(flow(v0), expected, rtol=1e-15, atol=0.0)

    def test_negative_inputs_follow_the_linear_part(self):
        flow = flow_map(QUADRATIC, 0.7)
        assert flow(-0.25) == pytest.approx(-0.25 * math.exp(0.7), rel=1e-15)

    def test_jump_mechanisms_have_no_closed_form(self):
        assert flow_map(QUADRATIC, 1.0).form == "logistic"
        assert flow_map(stable_mechanism(1.5), 1.0).form == "table"
        assert flow_map(PURE_JUMP_CUTOFF, 1.0).form == "table"


# the jump mechanisms of the frozen field digests in test_kpp.py
TABLE_MECHANISMS = {
    "jumps": PURE_JUMP_CUTOFF,
    "atoms": BranchingMechanism(alpha=1.0, beta=0.5, levy=LevyMeasure.atoms([(2.0, 0.3)])),
    "tabulated": BranchingMechanism(
        alpha=1.0,
        beta=0.3,
        levy=LevyMeasure.tabulated(y=(0.5, 1.0, 2.0, 4.0), density=(1.0, 0.5, 0.1, 0.01)),
    ),
}
# sha256 of each mechanism's check_hypotheses report as JSON
HYPOTHESIS_DIGESTS = {
    "quadratic": "642becc2b2b45f74f60dec957bf4c6f0505f9730936ddb8d14b8e52eb60eb3f0",
    "jumps": "5f18bbac8eae2c096dc5a75a924c9ee367f87ddfd2d29020743bb7a9ff97bf48",
    "atoms": "07ce96deecad09e647441af42520b407311ef9fa75ec52e842e8a92c771e31b5",
    "tabulated": "a151b4d7a2c405309f127cf71f250b850656fb94cec8e749cdb59ff71adf4b89",
}
# psi grows only linearly at infinity, so integral^inf du/psi diverges
ATOMS_NO_GREY = BranchingMechanism(alpha=0.5, beta=0.0, levy=LevyMeasure.atoms([(1.0, 2.0)]))
# one of each kind of (H3) witness: beta > 0, stable jumps with no cutoff and with one
WITNESS_MECHANISMS = {
    "quadratic": QUADRATIC,
    **TABLE_MECHANISMS,
    "stable": stable_mechanism(1.5),
    "stable-cutoff": BranchingMechanism(
        alpha=1.0, beta=0.0, levy=LevyMeasure.truncated_stable(c=0.7, index=1.1, cutoff=0.3)
    ),
}


def reference_flow(mech: BranchingMechanism, theta: float, times) -> np.ndarray:
    """DOP853 solution of v' = -psi(v), v(0) = theta, at each of ``times``."""
    sol = solve_ivp(
        lambda _t, v: [-psi(mech, v[0])],
        (0.0, max(times)),
        [theta],
        method="DOP853",
        t_eval=times,
        rtol=1e-13,
        atol=1e-300,
    )
    assert sol.success
    return sol.y[0]


class TestFlowMap:
    @pytest.mark.parametrize("name", sorted(TABLE_MECHANISMS))
    def test_semigroup(self, name):
        mech = TABLE_MECHANISMS[name]
        lam = lambda_star(mech)
        v0 = np.array([1e-8, 0.01, 0.5 * lam, 0.999 * lam, 1.001 * lam, 2.0 * lam, 50.0, 1e6, math.inf])
        for s, t in [(0.01, 0.02), (0.3, 0.7), (1.5, 2.5)]:
            composed = flow_map(mech, s)(flow_map(mech, t)(v0))
            direct = flow_map(mech, s + t)(v0)
            assert np.max(np.abs(composed / direct - 1.0)) <= 1e-8

    @pytest.mark.parametrize("name", sorted(TABLE_MECHANISMS))
    def test_fixed_points_and_linear_continuation(self, name):
        mech = TABLE_MECHANISMS[name]
        lam = lambda_star(mech)
        flow = flow_map(mech, 0.8)
        out = flow(np.array([0.0, lam, -0.3, -1e-9]))
        assert out[0] == 0.0
        assert out[1] == lam
        assert out[2:] == pytest.approx(np.array([-0.3, -1e-9]) * math.exp(mech.alpha * 0.8), rel=1e-15)

    @pytest.mark.parametrize("name", sorted(TABLE_MECHANISMS))
    def test_table_against_dop853(self, name):
        mech = TABLE_MECHANISMS[name]
        lam = lambda_star(mech)
        times = [0.01, 0.1, 1.0, 5.0]
        for theta in (1e-6, 0.3 * lam, 0.99 * lam, 1.01 * lam, 3.0 * lam, 1e3):
            expected = reference_flow(mech, theta, times)
            got = [float(flow_map(mech, t)(theta)) for t in times]
            assert got == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.5), (0.3, 3.0)])
    def test_quadratic_from_infinity(self, alpha, beta):
        for t in (1e-3, 0.4, 3.0):
            growth = math.exp(alpha * t)
            expected = alpha * growth / (beta * (growth - 1.0))
            mech = BranchingMechanism(alpha=alpha, beta=beta)
            assert float(flow_map(mech, t)(math.inf)) == pytest.approx(expected, rel=1e-13)
            both = flow_map(mech, t)(np.array([2.0, math.inf]))
            assert both[1] == pytest.approx(expected, rel=1e-13)
            assert both[0] == flow_map(mech, t)(2.0)

    def test_grey_failure_maps_finite_theta_and_refuses_infinity(self):
        assert not check_hypotheses(ATOMS_NO_GREY).grey
        times = [0.1, 1.0, 3.0]
        for theta in (0.2, 3.0, 100.0):
            expected = reference_flow(ATOMS_NO_GREY, theta, times)
            got = [float(flow_map(ATOMS_NO_GREY, t)(theta)) for t in times]
            assert got == pytest.approx(expected, rel=1e-8)
        with pytest.raises(GreyViolatedError):
            flow_map(ATOMS_NO_GREY, 1.0)(math.inf)
        with pytest.raises(GreyViolatedError):
            extinction_prob(ATOMS_NO_GREY, 1.0)

    def test_table_refuses_a_tail_short_of_the_growth(self):
        # beta > 0 makes psi grow like u**2 only past u ~ 1e300; at the table's
        # top, 1e150, it is still linear, so G there cannot come from its tail
        mech = BranchingMechanism(alpha=0.5, beta=1e-300, levy=LevyMeasure.atoms([(1.0, 2.0)]))
        assert check_hypotheses(mech).grey
        with pytest.raises(MechanismError, match="local exponent"):
            flow_map(mech, 1.0)

    def test_jump_extinction_at_t1_returns_the_flow_from_infinity(self):
        # the theta ladder refused this case; the flow from theta = 1e16 lies
        # below v_bar(1) by about psi(v_bar) * G(1e16), a time shift of order 1e-8
        res = extinction_prob(PURE_JUMP_CUTOFF, 1.0)
        assert res.converged
        from_above = reference_flow(PURE_JUMP_CUTOFF, 1e16, [1.0])[0]
        assert from_above < res.v_bar
        assert res.v_bar == pytest.approx(from_above, rel=1e-7)
        assert res.prob == pytest.approx(math.exp(-res.v_bar), rel=1e-15)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(MechanismError):
            flow_map(QUADRATIC, 0.0)
        with pytest.raises(MechanismError):
            flow_map(PURE_JUMP_CUTOFF, -1.0)


# The formulas of both flow forms as they read before their fast paths
# (in-place Horner, no sign pass without negative input), kept here as the
# reference the fast paths must match bit for bit.
def logistic_reference(mech: BranchingMechanism, t: float, v0) -> np.ndarray:
    growth = math.exp(mech.alpha * t)
    slope = mech.beta * math.expm1(mech.alpha * t) / mech.alpha
    arr = np.asarray(v0, dtype=float)
    top = np.isposinf(arr)
    if top.any():
        return np.where(top, growth / slope, logistic_reference(mech, t, np.where(top, 0.0, arr)))
    pos = np.maximum(arr, 0.0)
    return np.where(arr < 0, growth * arr, growth * pos / (1.0 + slope * pos))


def hermite_reference(h, q: np.ndarray) -> np.ndarray:
    pos = np.interp(q, h.x, h.index)
    i = pos.astype(np.intp)
    s = pos - i
    y0, d0, c2, c3 = h.coef.T[:, i]
    return y0 + s * (d0 + s * (c2 + s * c3))


def table_reference(mech: BranchingMechanism, t: float, v0) -> np.ndarray:
    table = _flow_table(mech)
    lam = table.lam
    v0 = np.asarray(v0, dtype=float)
    out = np.where(v0 < 0.0, math.exp(table.alpha * t), 1.0)
    out *= v0
    above = v0 > lam
    if above.any():
        w0 = np.log(v0[above] - lam) - math.log(lam)
        g0 = np.exp(-hermite_reference(table.up, w0))
        g0[w0 == math.inf] = 0.0
        out[above] = lam + lam * np.exp(hermite_reference(table.up_inv, -np.log(g0 + t)))
    below = (v0 > 0.0) & (v0 < lam)
    if below.any():
        w0 = np.log(v0[below] / (lam - v0[below]))
        out[below] = lam * special.expit(hermite_reference(table.down_inv, hermite_reference(table.down, w0) + t))
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def mixed_inputs(lam: float) -> dict[str, np.ndarray]:
    """Arrays that take each branch of both flow forms, -0.0 and NaN included."""
    finite = np.array([0.0, 1e-300, 1e-8, 0.3 * lam, lam, np.nextafter(lam, 0.0), np.nextafter(lam, 3.0),
                       1.7 * lam, 50.0, 1e6, 1e200])
    return {
        "nonnegative": finite,
        "negative zero": np.r_[finite, -0.0],
        "negatives": np.r_[finite, -0.0, -1e-9, -0.3, -7.0],
        "infinite": np.r_[finite, math.inf, -0.0, -0.3],
        "nan": np.r_[finite, math.nan, -0.0, -0.3],
        "nan and infinite": np.r_[finite, math.nan, math.inf, -2.0],
        "all zero": np.array([0.0, -0.0, 0.0]),
        "empty": np.array([]),
    }


class TestFlowMapFastPaths:
    @pytest.mark.parametrize("t", [0.01, 0.37, 2.0])
    @pytest.mark.parametrize("mech", [QUADRATIC, BranchingMechanism(alpha=2.0, beta=0.5)])
    def test_logistic_keeps_the_bits(self, mech, t):
        flow = flow_map(mech, t)
        for name, v0 in mixed_inputs(lambda_star(mech)).items():
            assert same_bits(flow(v0), logistic_reference(mech, t, v0)), name
            for v in v0:
                assert same_bits(flow(v), logistic_reference(mech, t, v)), (name, v)

    def test_logistic_infinity_beside_nan(self):
        # a NaN in the same array once hid the inf, which then mapped to NaN
        flow = flow_map(QUADRATIC, 0.5)
        out = flow(np.array([math.nan, math.inf, 1.0]))
        assert math.isnan(out[0])
        assert same_bits(out[1:], flow(np.array([math.inf, 1.0])))
        assert out[1] == pytest.approx(2.5415, abs=1e-4)

    @pytest.mark.parametrize("t", [0.01, 0.37, 2.0])
    @pytest.mark.parametrize("name", sorted(TABLE_MECHANISMS))
    def test_table_keeps_the_bits(self, name, t):
        mech = TABLE_MECHANISMS[name]
        flow = flow_map(mech, t)
        for kind, v0 in mixed_inputs(lambda_star(mech)).items():
            assert same_bits(flow(v0), table_reference(mech, t, v0)), kind


class TestHypotheses:
    def test_quadratic_report(self):
        report = check_hypotheses(QUADRATIC)
        assert report.h1 and report.h2 and report.h3 and report.grey
        assert report.growth == 2.0
        # psi is its own envelope -u + u**2
        assert report.h3_witness == (1.0, 1.0, 1.0)

    def test_stable_witness_prefers_exact_exponent(self):
        report = check_hypotheses(stable_mechanism(1.5))
        assert report.h3
        a, b, theta = report.h3_witness
        assert theta == pytest.approx(0.5)
        assert a == pytest.approx(1.0, abs=1e-5)
        assert b == pytest.approx(1.0, abs=1e-5)

    def test_giant_atom_root_far_below_one(self, monkeypatch):
        # below 1e-100 the atom adds 1e102 u**2 / 2 to psi, above it about
        # 100 u, so the root is near 2 / 1e102; bracketing takes 337 halvings
        # from 1/2
        import sbmlab.mechanism as mechanism_module

        calls = _recording(monkeypatch, mechanism_module)
        mech = BranchingMechanism(
            alpha=1.0, beta=1.0, levy=LevyMeasure.atoms([(1e100, 1e-98)])
        )
        report = check_hypotheses(mech)
        assert report.h1
        root = report.lambda_star
        assert root == pytest.approx(2.0134e-102, rel=1e-4)
        assert psi(mech, root * (1.0 - 1e-9)) < 0.0 < psi(mech, root * (1.0 + 1e-9))
        (_f, xa, xb, _xtol, _rtol), _root = calls[0]
        assert (xa, xb) == (0.5 * 2.0**-337, 1.0)

    def test_h1_holds_for_a_stable_index_near_one(self):
        # c Gamma(3 + gamma)/(s - 1)**(3 + gamma) is finite for every gamma
        mech = BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.truncated_stable(c=1.0, index=1.0001))
        assert check_hypotheses(mech).h1 is True

    def test_h2_and_grey_fail_without_strong_nonlinearity(self):
        # a single atom gives psi growing only linearly at infinity, so the
        # reciprocal integrals diverge and both checks must say so; and no
        # envelope -a u + b u**(1+theta) with b > 0 lies below psi
        report = check_hypotheses(ATOMS_NO_GREY)
        assert report.growth == 1.0
        assert not report.h2
        assert not report.grey
        assert not report.h3
        assert report.h3_witness is None

    @pytest.mark.parametrize("name", sorted(WITNESS_MECHANISMS))
    def test_witness_lies_below_psi(self, name):
        mech = WITNESS_MECHANISMS[name]
        a, b, theta = check_hypotheses(mech).h3_witness
        u = np.geomspace(1e-8, 1e12, 20001)
        values = psi(mech, u)
        assert np.all(values >= -a * u + b * u ** (1.0 + theta) - 1e-12 * np.abs(values))

    def test_pure_jump_cutoff_mechanism_passes_every_check(self):
        # psi grows like lam**1.5 at infinity, so every check must pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_hypotheses(PURE_JUMP_CUTOFF)
        assert report.h1 and report.h2 and report.h3 and report.grey
        assert report.lambda_star == pytest.approx(0.5753195056626, rel=1e-10)
        assert psi(PURE_JUMP_CUTOFF, 3e5) > 0.0
        # Grey's condition holds, so extinction is not refused
        extinction_prob(PURE_JUMP_CUTOFF, 1.0)

    @pytest.mark.parametrize(
        "mech",
        [QUADRATIC, PURE_JUMP_CUTOFF, BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.atoms([(0.5, 0.1)]))],
        ids=["quadratic", "pure-jump-cutoff", "no-zero"],
    )
    def test_report_holds_plain_python_types(self, mech):
        report = check_hypotheses(mech)
        for name in ("h1", "h2", "h3", "grey"):
            assert type(getattr(report, name)) is bool, name
        assert type(report.growth) is float
        assert report.lambda_star is None or type(report.lambda_star) is float
        if report.h3_witness is not None:
            assert all(type(v) is float for v in report.h3_witness)
        json.dumps(dataclasses.asdict(report))

    @pytest.mark.parametrize("name", sorted(HYPOTHESIS_DIGESTS))
    def test_report_matches_frozen_digest(self, name):
        # JSON writes each float as its shortest round-trip repr, so the
        # digest pins every bit of every field
        mech = {"quadratic": QUADRATIC, **TABLE_MECHANISMS}[name]
        report = json.dumps(dataclasses.asdict(check_hypotheses(mech)))
        assert hashlib.sha256(report.encode()).hexdigest() == HYPOTHESIS_DIGESTS[name]


class TestSerialization:
    """The CLI's ``mechanism`` block reads back what ``mechanism_to_dict`` writes."""

    @staticmethod
    def _read(blob: str) -> BranchingMechanism:
        return ExperimentConfig.from_sources("mech-check", {"mechanism": json.loads(blob)}, env={}).mechanism

    @staticmethod
    def _exit_code(tmp_path, mechanism: dict) -> int:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"mechanism": mechanism}))
        out = tmp_path / "out"
        code = main(["mech-check", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert not out.exists()
        return code

    @pytest.mark.parametrize(
        "mech",
        [
            QUADRATIC,
            BranchingMechanism(alpha=2.0, beta=0.0, levy=LevyMeasure.atoms([(0.5, 1.0), (3.0, 0.25)])),
            stable_mechanism(1.5, cutoff=10.0),
            BranchingMechanism(
                alpha=1.0,
                beta=0.5,
                levy=LevyMeasure.tabulated(y=(0.5, 1.0, 2.0, 4.0), density=(1.0, 0.5, 0.1, 0.01)),
            ),
        ],
    )
    def test_round_trip(self, mech):
        blob = json.dumps(mechanism_to_dict(mech))
        assert self._read(blob) == mech
        # and the payload is plain JSON
        assert set(json.loads(blob)) == {"alpha", "beta", "levy"}

    def test_infinite_cutoff_survives_round_trip(self):
        # an infinite cutoff is written as null
        mech = stable_mechanism(1.5, cutoff=math.inf)
        assert self._read(json.dumps(mechanism_to_dict(mech))) == mech

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        mechanism = {"alpha": 1.0, "beta": 1.0, "levy": {"kind": "bogus"}}
        assert self._exit_code(tmp_path, mechanism) == EXIT_USAGE
        assert "mechanism.levy.kind: unknown kind 'bogus'" in capsys.readouterr().err

    def test_extra_levy_key_rejected(self, tmp_path, capsys):
        # a key the kind does not use must fail, not be dropped
        mechanism = {"alpha": 1.0, "beta": 1.0, "levy": {"kind": "none", "c": 2.0}}
        assert self._exit_code(tmp_path, mechanism) == EXIT_USAGE
        assert "mechanism.levy: unknown keys ['c']" in capsys.readouterr().err

    def test_extra_top_level_key_rejected(self, tmp_path, capsys):
        mechanism = {"alpha": 1.0, "beta": 1.0, "gamma": 2.0}
        assert self._exit_code(tmp_path, mechanism) == EXIT_USAGE
        assert "mechanism: unknown keys ['gamma']" in capsys.readouterr().err


class TestValidation:
    def test_alpha_must_be_positive(self):
        with pytest.raises(MechanismError):
            BranchingMechanism(alpha=0.0, beta=1.0)
        with pytest.raises(MechanismError):
            BranchingMechanism(alpha=-1.0, beta=1.0)

    def test_trivial_nonlinearity_rejected(self):
        with pytest.raises(MechanismError):
            BranchingMechanism(alpha=1.0, beta=0.0)

    def test_stable_index_range(self):
        with pytest.raises(MechanismError):
            LevyMeasure.truncated_stable(c=1.0, index=0.9, cutoff=math.inf)
        with pytest.raises(MechanismError):
            LevyMeasure.truncated_stable(c=1.0, index=2.0, cutoff=math.inf)

    def test_tabulated_needs_increasing_grid(self):
        with pytest.raises(MechanismError):
            LevyMeasure.tabulated(y=(1.0, 0.5), density=(1.0, 1.0))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LevyMeasure.truncated_stable(c=math.nan, index=1.5),
            lambda: LevyMeasure.truncated_stable(c=math.inf, index=1.5),
            lambda: LevyMeasure.truncated_stable(c=1.0, index=1.5, cutoff=math.nan),
            lambda: LevyMeasure.atoms([(math.nan, 1.0)]),
            lambda: LevyMeasure.atoms([(math.inf, 1.0)]),
            lambda: LevyMeasure.atoms([(1.0, math.nan)]),
            lambda: LevyMeasure.atoms([(1.0, math.inf)]),
            lambda: LevyMeasure.tabulated(y=(math.nan, 1.0), density=(1.0, 1.0)),
            lambda: LevyMeasure.tabulated(y=(0.5, math.inf), density=(1.0, 1.0)),
            lambda: LevyMeasure.tabulated(y=(0.5, 1.0), density=(math.nan, 1.0)),
            lambda: LevyMeasure.tabulated(y=(0.5, 1.0), density=(1.0, math.inf)),
        ],
        ids=[
            "stable-c-nan", "stable-c-inf", "stable-cutoff-nan",
            "atom-position-nan", "atom-position-inf", "atom-weight-nan", "atom-weight-inf",
            "grid-nan", "grid-inf", "density-nan", "density-inf",
        ],
    )
    def test_non_finite_measure_rejected(self, make):
        with pytest.raises(MechanismError):
            make()


def random_mechanisms() -> st.SearchStrategy[BranchingMechanism]:
    atom_positions = st.floats(min_value=0.05, max_value=20.0)
    atom_weights = st.floats(min_value=0.01, max_value=2.0)
    atoms = st.lists(st.tuples(atom_positions, atom_weights), min_size=0, max_size=3)

    def build(alpha: float, beta: float, atom_list) -> BranchingMechanism:
        levy = LevyMeasure.atoms(atom_list) if atom_list else LevyMeasure.none()
        if beta == 0.0 and not atom_list:
            beta = 1.0
        return BranchingMechanism(alpha=alpha, beta=beta, levy=levy)

    return st.builds(
        build,
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.0, max_value=2.0),
        atoms,
    )


class TestStructuralProperties:
    @given(random_mechanisms())
    @settings(max_examples=40, deadline=None)
    def test_psi_convex(self, mech):
        lam = np.linspace(0.0, 6.0, 121)
        vals = psi(mech, lam)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)

    @given(random_mechanisms(), st.floats(0.01, 4.0), st.floats(0.01, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_psi_superadditive(self, mech, a, b):
        tol = 1e-10 * (1.0 + abs(psi(mech, a + b)))
        assert psi(mech, a + b) >= psi(mech, a) + psi(mech, b) - tol

    @given(random_mechanisms())
    @settings(max_examples=25, deadline=None)
    def test_k_bounded_by_alpha_and_decreasing(self, mech):
        lam = np.logspace(-4, 1, 30)
        vals = k(mech, lam)
        assert np.all(vals <= mech.alpha + 1e-10)
        assert np.all(np.diff(vals) <= 1e-10)

    @given(random_mechanisms())
    @settings(max_examples=20, deadline=None)
    def test_lambda_star_is_a_zero(self, mech):
        try:
            root = lambda_star(mech)
        except MechanismError:
            # a mechanism with beta = 0 and weak jumps can stay negative
            # forever; the refusal must then be genuine
            assert psi(mech, 1e6) < 0
            return
        assert abs(psi(mech, root)) < 1e-8 * max(1.0, root)
