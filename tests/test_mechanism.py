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
* The giant-atom report case is a direct finite sum, done inline with floats.
* Truncated-stable jumps with a finite cutoff are checked against 30-digit
  mpmath quadrature of the defining integrals, after substitutions that make
  the integrands smooth at the origin; the package evaluates them through
  an incomplete-gamma closed form and a power series instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from sbmlab.csbp import extinction_prob
from sbmlab.mechanism import (
    EST_K_LAMBDA_GRID,
    H1_GAMMA_GRID,
    H1_NUMERIC_CAP,
    H2_CAP,
    BranchingMechanism,
    GreyViolatedError,
    LevyMeasure,
    MechanismError,
    check_hypotheses,
    flow_map,
    k,
    lambda_star,
    mechanism_from_json,
    mechanism_to_json,
    normalize,
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
    LAMS = np.geomspace(1e-8, H2_CAP, 8)

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


class TestH1Integral:
    def test_stable_closed_form_spot_values(self):
        assert LevyMeasure.truncated_stable(1.0, 1.5).h1_integral(1.0) == pytest.approx(96.0, rel=1e-14)
        cut = LevyMeasure.truncated_stable(1.0, 1.5, cutoff=5.0)
        assert cut.h1_integral(0.5) == pytest.approx(0.81675963487, rel=1e-10)
        assert LevyMeasure.truncated_stable(1.0, 1.5, cutoff=0.3).h1_integral(0.5) == 0.0

    @pytest.mark.parametrize("cutoff", [5.0, math.inf])
    @pytest.mark.parametrize("index", [1.2, 1.5, 1.8])
    def test_stable_matches_mpmath_quadrature(self, index, cutoff):
        mp = pytest.importorskip("mpmath")
        levy = LevyMeasure.truncated_stable(c=0.7, index=index, cutoff=cutoff)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [levy.h1_integral(gamma) for gamma in H1_GAMMA_GRID]
        for gamma, value in zip(H1_GAMMA_GRID, values):
            # y = e^u turns the integral over (1, cutoff) into one over (0, log cutoff)
            with mp.workdps(30):
                s, p = mp.mpf(index), 2 + mp.mpf(gamma)
                top = mp.inf if math.isinf(cutoff) else mp.log(cutoff)
                ref = 0.7 * mp.quad(lambda u: mp.exp(-(s - 1) * u) * u**p, [0, top])
            assert value == pytest.approx(float(ref), rel=1e-10)


class TestLambdaStar:
    def test_quadratic_root(self):
        assert lambda_star(QUADRATIC) == pytest.approx(1.0, abs=1e-12)

    def test_stable_root(self):
        assert lambda_star(stable_mechanism(1.5)) == pytest.approx(1.0, rel=1e-9)

    def test_shifted_quadratic(self):
        # psi = -2u + u**2 has largest zero 2
        mech = BranchingMechanism(alpha=2.0, beta=1.0)
        assert lambda_star(mech) == pytest.approx(2.0, abs=1e-12)

    def test_no_supercritical_root_raises(self):
        # beta = 0 with one small atom: psi stays negative, no positive zero
        mech = BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.atoms([(0.5, 0.1)]))
        with pytest.raises(MechanismError):
            lambda_star(mech)


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
# psi grows only linearly at infinity, so integral^inf du/psi diverges
ATOMS_NO_GREY = BranchingMechanism(alpha=0.5, beta=0.0, levy=LevyMeasure.atoms([(1.0, 2.0)]))


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


class TestHypotheses:
    def test_quadratic_report(self):
        report = check_hypotheses(QUADRATIC)
        assert report.h1 and report.h2 and report.h3 and report.grey
        assert not report.h2_inconclusive
        # no jump measure: the moment integral is zero at every gamma on the grid
        assert report.h1_gamma == max(H1_GAMMA_GRID)
        a, b, theta = report.h3_witness
        assert a == pytest.approx(1.0, abs=1e-6)
        assert b == pytest.approx(1.0, abs=1e-6)
        assert theta == pytest.approx(1.0)

    def test_stable_witness_prefers_exact_exponent(self):
        report = check_hypotheses(stable_mechanism(1.5))
        assert report.h3
        a, b, theta = report.h3_witness
        assert theta == pytest.approx(0.5)
        assert a == pytest.approx(1.0, abs=1e-5)
        assert b == pytest.approx(1.0, abs=1e-5)

    def test_giant_atom_h1_saturates_at_large_gamma(self):
        # w*y = 100 and log(y) = 100*log(10); the weighted moment passes the
        # numeric cap up to gamma = 2 and overflows it from gamma = 4 on
        mech = BranchingMechanism(
            alpha=1.0, beta=1.0, levy=LevyMeasure.atoms([(1e100, 1e-98)])
        )
        log_y = 100.0 * math.log(10.0)
        for gamma in H1_GAMMA_GRID:
            value = 100.0 * log_y ** (2.0 + gamma)
            if gamma <= 2.0:
                assert value < H1_NUMERIC_CAP
            else:
                assert value > H1_NUMERIC_CAP
        report = check_hypotheses(mech)
        assert report.h1
        assert report.h1_gamma == 2.0

    def test_est_k_quadratic_c1_matches_direct_formula(self):
        report = check_hypotheses(QUADRATIC)
        assert report.est_k
        # normalized quadratic: 1 - k(u) = u, so the fitted constant is the
        # grid maximum of u * |log u|**(2+gamma), computable directly
        gamma = report.est_k_gamma
        direct = max(u * abs(math.log(u)) ** (2.0 + gamma) for u in EST_K_LAMBDA_GRID)
        assert report.est_k_c1 == pytest.approx(direct, rel=1e-6)

    def test_h2_and_grey_fail_without_strong_nonlinearity(self):
        # a single atom gives psi growing only linearly at infinity, so the
        # reciprocal integrals diverge and both checks must say so
        mech = BranchingMechanism(alpha=0.5, beta=0.0, levy=LevyMeasure.atoms([(1.0, 2.0)]))
        report = check_hypotheses(mech)
        assert not report.h2
        assert not report.grey

    def test_pure_jump_cutoff_mechanism_passes_every_check(self):
        # psi grows like lam**1.5 up to the cap and beyond, so every check
        # must pass
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
        for name in ("h1", "h2", "h2_inconclusive", "h3", "grey", "est_k"):
            assert type(getattr(report, name)) is bool, name
        for name in (
            "h2_cap_integral",
            "h2_tail_estimate",
            "grey_cap_integral",
            "grey_tail_estimate",
            "est_k_c1",
            "est_k_gamma",
        ):
            assert type(getattr(report, name)) is float, name
        assert report.lambda_star is None or type(report.lambda_star) is float
        for pair in report.h1_values:
            assert all(type(v) is float for v in pair)
        if report.h3_witness is not None:
            assert all(type(v) is float for v in report.h3_witness)
        json.dumps(dataclasses.asdict(report))


class TestNormalize:
    def test_quadratic_fixed_point(self):
        norm = normalize(QUADRATIC)
        assert norm.alpha == pytest.approx(1.0, abs=1e-12)
        assert norm.beta == pytest.approx(1.0, abs=1e-10)
        assert lambda_star(norm) == pytest.approx(1.0, abs=1e-10)

    def test_rescaled_quadratic(self):
        # psi = -2u + 4u**2 has lambda* = 1/2; normalized form is -x + x**2
        mech = BranchingMechanism(alpha=2.0, beta=4.0)
        norm = normalize(mech)
        assert norm.alpha == pytest.approx(1.0, abs=1e-12)
        x = np.linspace(0.0, 3.0, 13)
        np.testing.assert_allclose(psi(norm, x), x * x - x, atol=1e-9)

    def test_idempotent(self):
        mech = BranchingMechanism(alpha=1.7, beta=0.4, levy=LevyMeasure.atoms([(1.3, 0.6)]))
        once = normalize(mech)
        twice = normalize(once)
        x = np.linspace(0.0, 4.0, 17)
        np.testing.assert_allclose(psi(twice, x), psi(once, x), rtol=1e-8, atol=1e-10)

    def test_derivative_at_zero_is_minus_one(self):
        mech = BranchingMechanism(alpha=0.8, beta=0.9, levy=LevyMeasure.atoms([(2.0, 0.1)]))
        norm = normalize(mech)
        h = 1e-6
        slope = (psi(norm, h) - psi(norm, 0.0)) / h
        assert slope == pytest.approx(-1.0, abs=1e-5)


class TestSerialization:
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
        blob = mechanism_to_json(mech)
        back = mechanism_from_json(blob)
        assert back == mech
        # and the payload is plain JSON
        parsed = json.loads(blob)
        assert set(parsed) == {"alpha", "beta", "levy"}

    def test_infinite_cutoff_survives_round_trip(self):
        mech = stable_mechanism(1.5, cutoff=math.inf)
        assert mechanism_from_json(mechanism_to_json(mech)) == mech

    def test_unknown_kind_rejected(self):
        with pytest.raises(MechanismError):
            mechanism_from_json('{"alpha": 1.0, "beta": 1.0, "levy": {"kind": "bogus"}}')


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
