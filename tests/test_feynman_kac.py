"""Tests for the path-integral Monte Carlo module.

Oracles:
- with the growth factor forced to 1 the path functional has the closed form
  e^(t-r) * (heat kernel smoothing of u(r, .)), computable by quadrature;
- the bridge stay-above formula 1 - exp(-2ab/span) is explicit;
- the straight barrier n has exact endpoint values;
- r = t short-circuits to reading the field.

Monte Carlo comparisons use 3-4 standard errors.  Derived ratios (sandwich
containment, bracket ordering) were measured once on the fixture field and
are asserted as regression bands.
"""

import math

import numpy as np
import pytest

from sbmlab.feynman_kac import (
    BarrierCurves,
    BridgeSampler,
    FkError,
    PathBelowBarrierError,
    RegionViolationError,
    bridge_crossing_prob,
    fk_estimate,
    k_integral_deviation_bound,
    k_integral_diagnostic,
    psi1_psi2_estimate,
    psi_sandwich,
)
from sbmlab.kpp import (
    Grid1D,
    InitialCondition,
    front_m,
    median_m_tilde,
    solve_U,
    tail_error_estimate,
)
from sbmlab.mechanism import BranchingMechanism, LevyMeasure

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())


@pytest.fixture(scope="module")
def heaviside_field_t1():
    grid = Grid1D.auto(t_end=1.0, dx=0.05, dt=0.01)
    times = [round(0.05 * k, 2) for k in range(21)]
    return solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=times)


@pytest.fixture(scope="module")
def heaviside_field_t32():
    # snapshots every 0.25 so interpolation between rows stays accurate in
    # the tail, where the profile moves a full dx in about 0.035 time units
    grid = Grid1D.auto(t_end=32.0, dx=0.05, dt=0.01, pad=40.0)
    times = [round(0.25 * j, 2) for j in range(1, 128)]
    return solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=times)


class TestBridgeSampler:
    def test_endpoints_are_exact(self):
        s = BridgeSampler(x=1.5, y=-2.0, span=3.0, dt=0.003, seed=11)
        paths = s.sample(64)
        assert np.all(paths[:, 0] == 1.5)
        assert np.allclose(paths[:, -1], -2.0, atol=1e-12)

    def test_mean_is_linear_interpolation(self):
        s = BridgeSampler(x=0.0, y=2.0, span=2.0, dt=0.002, seed=7)
        paths = s.sample(4000)
        k = paths.shape[1] // 2
        t_mid = k * s.dt
        expect = 0.0 + (2.0 - 0.0) * t_mid / 2.0
        se = np.std(paths[:, k]) / math.sqrt(paths.shape[0])
        assert abs(np.mean(paths[:, k]) - expect) < 4.0 * se

    def test_covariance_structure(self):
        span = 2.0
        s = BridgeSampler(x=0.0, y=0.0, span=span, dt=0.002, seed=13)
        paths = s.sample(6000)
        idx = [250, 500, 750]
        times = [i * s.dt for i in idx]
        for a in range(3):
            for b in range(a, 3):
                sa, sb = times[a], times[b]
                expect = sa * (span - sb) / span
                got = np.mean(paths[:, idx[a]] * paths[:, idx[b]])
                se = np.std(paths[:, idx[a]] * paths[:, idx[b]]) / math.sqrt(6000)
                assert abs(got - expect) < 4.0 * se


class TestBridgeCrossing:
    def test_formula_value(self):
        got = bridge_crossing_prob(1.0, 1.0, 2.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_nonpositive_end_gives_zero(self):
        assert bridge_crossing_prob(1.0, 0.0, 2.0) == 0.0
        assert bridge_crossing_prob(1.0, -3.0, 2.0) == 0.0
        assert bridge_crossing_prob(-1.0, 1.0, 2.0) == 0.0

    def test_invalid_span(self):
        with pytest.raises(FkError):
            bridge_crossing_prob(1.0, 1.0, 0.0)

    def test_against_bridge_mc(self):
        # survival above zero of a bridge from 1 to 1 over span 2, with the
        # per-step product correction for between-step crossings
        span, n = 2.0, 20000
        s = BridgeSampler(x=1.0, y=1.0, span=span, dt=span * 1e-3, seed=29)
        paths = s.sample(n)
        h = s.dt
        d = paths
        alive = np.all(d > 0.0, axis=1)
        inner = 1.0 - np.exp(-2.0 * d[:, :-1] * d[:, 1:] / h)
        inner[~alive] = 0.0
        est = np.where(alive, np.prod(inner, axis=1), 0.0)
        mean = float(np.mean(est))
        se = float(np.std(est)) / math.sqrt(n)
        assert abs(mean - bridge_crossing_prob(1.0, 1.0, span)) < 3.0 * se


class TestBarrierCurves:
    def test_n_endpoints(self, heaviside_field_t32):
        r, t = 4.0, 32.0
        c = BarrierCurves.from_field(heaviside_field_t32, r=r, t=t, x=80.0)
        assert c.n(r) == pytest.approx(math.sqrt(2.0) * r, abs=1e-12)
        assert c.n(t) == pytest.approx(front_m(1.0, t), abs=1e-12)

    def test_theta_roundtrip_dominates(self, heaviside_field_t32):
        # applying the lift operator to the lowered curve recovers at least L
        r, t = 4.0, 32.0
        c = BarrierCurves.from_field(heaviside_field_t32, r=r, t=t, x=80.0)
        ss = np.linspace(r, t - 2.0 * r - 1e-6, 300)
        for s in ss:
            assert c.theta_apply(c.theta_inv_L, s) >= c.L(s) - 1e-9

    def test_theta_inv_is_below_L(self, heaviside_field_t32):
        r, t = 4.0, 32.0
        c = BarrierCurves.from_field(heaviside_field_t32, r=r, t=t, x=80.0)
        ss = np.linspace(r, t, 500)
        for s in ss:
            assert c.theta_inv_L(s) <= c.L(s) + 1e-9

    def test_barrier_ordering_on_grid(self, heaviside_field_t32):
        # lower barrier <= straight line <= upper barrier; holds from r=2 on
        # this field (measured min gaps 7.3 and 3.2 at r=2, wider at r=4)
        t = 32.0
        for r in (2.0, 4.0):
            x = front_m(1.0, t) + 9.0 * r
            c = BarrierCurves.from_field(heaviside_field_t32, r=r, t=t, x=x)
            ss = np.linspace(r, t, 400)
            for s in ss:
                low, mid, high = c.M_lower(s), c.n(s), c.M_bar(s)
                assert low <= mid + 1e-9
                assert mid <= high + 1e-9

    def test_delta_range_enforced(self, heaviside_field_t32):
        with pytest.raises(FkError):
            BarrierCurves.from_field(heaviside_field_t32, r=4.0, t=32.0, x=80.0, delta=0.6)


class TestFkEstimate:
    def test_r_equal_t_reads_field(self, heaviside_field_t1):
        res = fk_estimate(heaviside_field_t1, QUADRATIC, r=1.0, t=1.0, x=0.3, n_paths=10)
        assert res.mean == pytest.approx(heaviside_field_t1.interp(1.0, 0.3), rel=1e-12)
        assert res.std_error == 0.0

    def test_constant_growth_matches_heat_quadrature(self, heaviside_field_t1):
        r, t, x = 0.5, 1.0, 0.4
        res = fk_estimate(
            heaviside_field_t1,
            QUADRATIC,
            r=r,
            t=t,
            x=x,
            n_paths=40000,
            seed=101,
            k_fn=lambda u: np.ones_like(np.asarray(u)),
        )
        span = t - r
        xs = heaviside_field_t1.grid.x
        u_r = heaviside_field_t1.at(r)
        kernel = np.exp(-((x - xs) ** 2) / (2.0 * span)) / math.sqrt(2.0 * math.pi * span)
        expect = math.exp(span) * float(np.trapezoid(u_r * kernel, xs))
        assert abs(res.mean - expect) < 3.0 * res.std_error

    def test_heaviside_matches_pde(self, heaviside_field_t1):
        res = fk_estimate(
            heaviside_field_t1, QUADRATIC, r=0.5, t=1.0, x=0.0, n_paths=100000, seed=5
        )
        pde = heaviside_field_t1.interp(1.0, 0.0)
        assert abs(res.mean - pde) < 3.0 * res.std_error
        assert res.std_error < 0.01

    def test_determinism_per_seed(self, heaviside_field_t1):
        a = fk_estimate(heaviside_field_t1, QUADRATIC, r=0.5, t=1.0, x=0.0, n_paths=500, seed=3)
        b = fk_estimate(heaviside_field_t1, QUADRATIC, r=0.5, t=1.0, x=0.0, n_paths=500, seed=3)
        assert a.mean == b.mean

    def test_fk_pipeline_defaults_are_frozen(self):
        # the fk pipeline's default run, recorded while Field.interp still
        # binary-searched with np.interp; the cell lookup must not move a bit
        grid = Grid1D.auto(1.0, dx=0.02, dt=0.004, pad=14.0)
        field = solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=(0.5, 1.0))
        res = fk_estimate(field, QUADRATIC, 0.5, 1.0, 0.0, n_paths=20000, seed=1, path_dt=0.002)
        assert (res.mean, res.std_error) == (0.6464556602498297, 0.0022176976148456273)
        assert res.n_paths == 20000


class TestPsiSandwich:
    def test_zero_field_gives_zero(self):
        grid = Grid1D.auto(t_end=32.0, dx=0.1, dt=0.02, pad=40.0)
        zero = solve_U(
            QUADRATIC,
            InitialCondition.bounded(lambda s: 0.0 * np.asarray(s), sup_norm=0.0),
            grid,
            snapshot_times=[4.0],
        )
        x = front_m(1.0, 32.0) + 36.0
        assert psi_sandwich(zero, r=4.0, t=32.0, x=x) == 0.0

    def test_region_enforced(self, heaviside_field_t32):
        with pytest.raises(RegionViolationError):
            psi_sandwich(heaviside_field_t32, r=4.0, t=16.0, x=100.0)
        with pytest.raises(RegionViolationError):
            psi_sandwich(heaviside_field_t32, r=4.0, t=32.0, x=front_m(1.0, 32.0) + 30.0)

    def test_sandwich_ratio_shrinks_with_r(self, heaviside_field_t32):
        # measured on this fixture: u/Psi = 1.743 at r=2, 1.131 at r=4; the
        # r=4 value carries a +0.115 tail-dispersion allowance from the grid
        t = 32.0
        ratios = {}
        for r in (2.0, 4.0):
            x = front_m(1.0, t) + 9.0 * r
            psi = psi_sandwich(heaviside_field_t32, r=r, t=t, x=x)
            u = heaviside_field_t32.interp(t, x)
            ratios[r] = max(u / psi, psi / u)
        assert ratios[4.0] < 1.3
        assert ratios[4.0] < ratios[2.0]


def _clearing_path(curves, t, margin=0.5):
    """A path that rides the straight line, lifted just above the barrier."""
    probe = np.linspace(2.0 * curves.r, t - curves.r, 801)
    gap = max(curves.M_bar(t - s) - curves.n(t - s) for s in probe)
    offset = max(gap, 0.0) + margin
    return lambda s: curves.n(t - s) + offset


class TestKIntegralDiagnostic:
    def test_constant_growth_gives_one(self, heaviside_field_t32):
        r, t = 4.0, 32.0
        x = front_m(1.0, t) + 9.0 * r
        c = BarrierCurves.from_field(heaviside_field_t32, r=r, t=t, x=x)
        got = k_integral_diagnostic(
            heaviside_field_t32,
            _clearing_path(c, t),
            r=r,
            t=t,
            curves=c,
            k_fn=lambda u: np.ones_like(np.asarray(u)),
        )
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_trend_toward_one_in_r(self, heaviside_field_t32):
        # deterministic quadrature: 1 - diag measured 7.9e-8 at r=2 and
        # 3.2e-8 at r=4, so the value climbs toward 1 as r grows
        t = 32.0
        vals = []
        for r in (2.0, 4.0):
            x = front_m(1.0, t) + 9.0 * r
            c = BarrierCurves.from_field(heaviside_field_t32, r=r, t=t, x=x)
            vals.append(
                k_integral_diagnostic(
                    heaviside_field_t32, _clearing_path(c, t), r=r, t=t, curves=c, mech=QUADRATIC
                )
            )
        assert 0.0 < vals[0] < vals[1] < 1.0

    def test_path_below_barrier_raises(self, heaviside_field_t32):
        r, t = 4.0, 32.0
        x = front_m(1.0, t) + 9.0 * r
        c = BarrierCurves.from_field(heaviside_field_t32, r=r, t=t, x=x)
        with pytest.raises(PathBelowBarrierError):
            k_integral_diagnostic(
                heaviside_field_t32,
                lambda s: c.n(t - s) - 50.0,
                r=r,
                t=t,
                curves=c,
                mech=QUADRATIC,
            )

    def test_deviation_bound_contains_diagnostic(self, heaviside_field_t32):
        r, t = 4.0, 32.0
        x = front_m(1.0, t) + 9.0 * r
        c = BarrierCurves.from_field(heaviside_field_t32, r=r, t=t, x=x)
        path = _clearing_path(c, t)
        diag = k_integral_diagnostic(
            heaviside_field_t32, path, r=r, t=t, curves=c, mech=QUADRATIC
        )
        bound = k_integral_deviation_bound(
            heaviside_field_t32, path, r=r, t=t, curves=c, mech=QUADRATIC
        )
        assert math.exp(-bound) - 1e-12 <= diag <= 1.0 + 1e-9


class TestPsi1Psi2:
    def test_bracket_and_ratio(self, heaviside_field_t32):
        # both prefactor constants set to 1.  Measured on this fixture:
        # u/psi2 = 0.80 at r=2 (bracket holds outright, the bound's own slack
        # absorbs the grid bias) and 1.067 at r=4, where psi2 is an exact-
        # kernel value and the comparison needs the scheme's tail-dispersion
        # allowance (+8.5% here).  The psi2/psi1 ratio collapses 4237 -> 27
        # as r doubles.
        t = 32.0
        ratios = []
        for r in (2.0, 4.0):
            x = median_m_tilde(heaviside_field_t32, t) + 8.0 * r
            res = psi1_psi2_estimate(
                heaviside_field_t32, r=r, t=t, x=x, n_bridges=192, seed=23
            )
            u = heaviside_field_t32.interp(t, x)
            slack = tail_error_estimate(heaviside_field_t32, t, x) * u
            assert res.psi2 >= res.psi1 > 0.0
            assert res.psi1 - 3.0 * res.se1 - slack <= u <= res.psi2 + 3.0 * res.se2 + slack
            ratios.append(res.psi2 / res.psi1)
        assert ratios[1] < ratios[0]
        assert ratios[1] < 100.0
