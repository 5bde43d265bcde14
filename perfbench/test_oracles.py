"""Tests of the benchmark's reference oracles and of its metric list.

Run from the repository root with ``python3 -m pytest perfbench``.  The
references are held against mpmath quadrature and against properties of
the closed forms; nothing here imports ``sbmlab``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

import oracles
import tracing

JUMPS = oracles.StableCutoffPsi(alpha=1.0, beta=0.0, c=1.0, index=1.5, cutoff=5.0)


def _mp_stable_psi(lam: float, alpha: float, c: float, s: float, cutoff: float) -> float:
    """-alpha lam + c lam^s int_0^{lam cutoff} g(z) z^(-1-s) dz in 30-digit arithmetic.

    The substitution z = u^k with k = 1/(2-s) makes the integrand, which
    behaves like z^(1-s)/2 at 0, smooth there, so tanh-sinh converges.
    """
    with mp.workdps(30):
        lam_m, s_m = mp.mpf(lam), mp.mpf(s)
        k = 1 / (2 - s_m)

        def g(z):
            if z < mp.mpf("0.5"):
                term, total, n = z * z / 2, mp.mpf(0), 2
                while abs(term) > mp.mpf(10) ** -40 * max(abs(total), mp.mpf(10) ** -300):
                    total += term
                    n += 1
                    term *= -z / n
                return total
            return mp.exp(-z) - 1 + z

        def integrand(u):
            z = u**k
            return g(z) * z ** (-1 - s_m) * k * u ** (k - 1) if u > 0 else k / 2

        top = lam_m * cutoff
        pts = [mp.mpf(0)] + [p ** (1 / k) for p in (mp.mpf(1), mp.mpf(10)) if p < top] + [top ** (1 / k)]
        jump = c * lam_m**s_m * mp.quad(integrand, pts)
        return float(-alpha * lam_m + jump)


@pytest.mark.parametrize("lam", np.logspace(-3.0, 6.0, 19))
def test_stable_psi_matches_mpmath(lam):
    ref = _mp_stable_psi(lam, 1.0, 1.0, 1.5, 5.0)
    assert JUMPS(lam) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("index", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("x", [0.3, 1.0, 1.0001, 7.0])
def test_series_and_closed_form_branches_agree_with_mpmath(index, x):
    ref = _mp_stable_psi(x, 0.0, 1.0, index, 1.0)
    assert oracles.StableCutoffPsi(0.0, 0.0, 1.0, index, 1.0)(x) == pytest.approx(ref, rel=1e-13)


def test_stable_psi_without_cutoff_limit():
    """As the cutoff grows, c lam^s F(lam cutoff) tends to c Gamma(2-s)/(s(s-1)) lam^s."""
    s = 1.5
    far = oracles.StableCutoffPsi(0.0, 0.0, 1.0, s, 1e12)
    assert far(2.0) == pytest.approx(math.gamma(2 - s) / (s * (s - 1)) * 2.0**s, rel=1e-5)


def test_jumps_lambda_star():
    lam = JUMPS.lambda_star()
    assert lam == pytest.approx(0.5753195056626, abs=1e-12)
    assert abs(JUMPS(lam)) < 1e-14


def test_stable_psi_grows_like_lambda_to_the_index():
    """The property the h2 and grey checks rest on: psi(lam) / lam^1.5 settles."""
    ratios = [JUMPS(lam) / lam**1.5 for lam in (1e4, 1e5, 3e5, 1e6)]
    assert all(r > 0 for r in ratios)
    assert ratios[-1] == pytest.approx(ratios[0], rel=0.05)


def test_reference_flow_tends_to_lambda_star():
    v = JUMPS.flow(1.0, [1.0, 10.0, 40.0])
    assert v[0] > v[1] > v[2] > JUMPS.lambda_star()
    assert v[2] == pytest.approx(JUMPS.lambda_star(), abs=1e-9)


@pytest.mark.parametrize("theta", [0.3, 1.0, 5.0])
def test_logistic_flow_solves_its_ode(theta):
    sol = integrate.solve_ivp(lambda _t, v: v - v * v, (0.0, 2.0), [theta], rtol=1e-12, atol=1e-14)
    assert oracles.logistic_flow(theta, 2.0) == pytest.approx(sol.y[0, -1], rel=1e-9)
    assert oracles.logistic_laplace(theta, 2.0, mass=2.0) == pytest.approx(
        math.exp(-2.0 * sol.y[0, -1]), rel=1e-8
    )


def test_logistic_extinction_is_the_large_theta_limit():
    t = 0.7
    assert oracles.logistic_flow(1e12, t) == pytest.approx(oracles.logistic_extinction_exponent(t), rel=1e-10)
    assert oracles.logistic_extinction(t, mass=3.0) == pytest.approx(
        math.exp(-3.0 * math.exp(t) / (math.exp(t) - 1.0)), rel=1e-12
    )


def test_birth_death_matches_its_kolmogorov_equation():
    """q(t) = P(one particle extinct by t) solves q' = d - (b + d) q + b q^2."""
    b, d = 2.5, 1.5
    sol = integrate.solve_ivp(lambda _t, q: d - (b + d) * q + b * q * q, (0.0, 3.0), [0.0], rtol=1e-12, atol=1e-14)
    assert oracles.birth_death_extinction(b, d, 3.0, 1) == pytest.approx(sol.y[0, -1], rel=1e-9)
    assert oracles.birth_death_extinction(b, d, 3.0, 2) == pytest.approx(sol.y[0, -1] ** 2, rel=1e-9)


def test_stepped_birth_death_converges_to_the_continuous_law():
    b, d, t = 2.5, 1.5, 3.0
    gaps = []
    for dt in (0.02, 0.01, 0.005):
        q, mean = oracles.stepped_birth_death(b, d, dt, round(t / dt), 2)
        gaps.append(abs(q - oracles.birth_death_extinction(b, d, t, 2)))
        assert mean == pytest.approx(oracles.birth_death_mean(b, d, t, 2), rel=2 * (b - d) ** 2 * dt * t)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.1)


def test_engine_rates():
    assert oracles.engine_rates(1.0, 1.0, 0.5) == (2.5, 1.5)


def test_gumbel_cdf_is_a_distribution():
    x = np.linspace(-10.0, 20.0, 301)
    f = oracles.gumbel_rightmost_cdf(x, 1.3)
    assert f[0] < 1e-12 and f[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(f) >= 0.0)
    # the median m solves C e^{-sqrt(2) m} = log 2
    m = -math.log(math.log(2.0) / 1.3) / math.sqrt(2.0)
    assert oracles.gumbel_rightmost_cdf(m, 1.3) == pytest.approx(0.5, rel=1e-12)


def test_ebert_van_saarloos_drift():
    k = 3.0 * math.sqrt(math.pi / 2.0)
    assert oracles.ebert_van_saarloos_drift(4.0, 16.0) == pytest.approx(k * 0.25)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    import run

    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_tracer_self_time_and_per_round_metrics():
    tracer = tracing.Tracer()
    # fronts.constant_C (0..10) calls kpp.solve_U (1..7), which calls mechanism.psi_table (2..3)
    tracer.spans += [
        ["fronts.constant_C", "fronts", 0.0, 10.0, -1],
        ["kpp.solve_U", "kpp", 1.0, 7.0, 0],
        ["mechanism.psi_table", "mechanism", 2.0, 3.0, 1],
    ]
    tracer.counts["kpp.node_steps"] += 120.0
    out = tracer.metrics([{"fronts": 12.0}, {"fronts": 8.0}])
    assert out["fronts.constant_C_s"] == 5.0
    assert out["fronts.self_s"] == 2.0
    assert out["kpp.solve_U_s"] == 3.0
    assert out["kpp.self_s"] == 2.5
    assert out["mechanism.psi_table_s"] == 0.5
    assert out["kpp.node_steps"] == 60.0
    assert out["kpp.node_steps_per_s"] == 120.0 / 5.0
    assert out["pipeline.fronts_s"] == 10.0
    assert out["pipeline.kpp_s"] == 0.0
    assert set(out) == {name for name, _unit, _better in tracing.PER_LAYER}
