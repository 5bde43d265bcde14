"""Tests for the front limit constants.

Oracles:
- the extrapolation helpers are checked on planted ladders whose limits are
  known exactly;
- for the constants themselves no closed form exists, so the checks are
  structural (zero data, ordering, continuity in the data, the exact shift
  factor e^{sqrt(2) z}, agreement across grid resolutions and with the
  tail-probability trend) plus frozen regression values that pin today's
  configuration;
- the rescaled tail of the wave field at sqrt(2) t closes in on C(phi).
"""

import math

import numpy as np
import pytest

from sbmlab.fronts import (
    DEFAULT_R_LADDER,
    ConstantEstimate,
    FrontsError,
    IntegralCapError,
    NonConvergentLadderError,
    SQRT2,
    TestFunction,
    _aitken,
    _fit_algebraic,
    _phi_precheck,
    _tail_integral,
    _validate_ladder,
    constant_C,
    constant_C_hat,
    constant_C_tilde,
)
from sbmlab.kpp import Grid1D, InitialCondition, KppError, front_m, solve_U, solve_V
from sbmlab.mechanism import BranchingMechanism, LevyMeasure

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0)
PHI = TestFunction.scaled_indicator(1.0)


@pytest.fixture(scope="module")
def c_phi():
    return constant_C(QUADRATIC, PHI)


@pytest.fixture(scope="module")
def c_tilde_0():
    return constant_C_tilde(QUADRATIC)


@pytest.fixture(scope="module")
def c_hat_half():
    return constant_C_hat(QUADRATIC, 0.5)


class TestTestFunction:
    def test_indicator_evaluates_on_its_support(self):
        phi = TestFunction.scaled_indicator(0.7, a=1.0)
        assert phi.evaluate(np.array([0.0, 0.999, 1.0, 5.0])) == pytest.approx(
            [0.0, 0.0, 0.7, 0.7]
        )
        assert phi.sup_norm == 0.7

    def test_bump_is_compact_with_given_peak(self):
        phi = TestFunction.compact_bump(center=2.0, width=0.5, height=0.3)
        assert phi.evaluate(2.0) == pytest.approx(0.3)
        assert phi.evaluate(1.5) == 0.0
        assert phi.evaluate(2.5) == 0.0
        assert phi.evaluate(2.2) > 0.0

    def test_table_interpolates_and_extends(self):
        phi = TestFunction.table((0.0, 1.0), (0.5, 0.2))
        assert phi.evaluate(0.5) == pytest.approx(0.35)
        assert phi.evaluate(-1.0) == 0.0
        assert phi.evaluate(3.0) == pytest.approx(0.2)

    def test_invalid_parameters_raise(self):
        with pytest.raises(FrontsError):
            TestFunction.scaled_indicator(-1.0)
        with pytest.raises(FrontsError):
            TestFunction.compact_bump(0.0, -1.0, 1.0)
        with pytest.raises(FrontsError):
            TestFunction.table((0.0,), (1.0,))
        with pytest.raises(FrontsError):
            TestFunction.table((1.0, 0.0), (1.0, 1.0))

    def test_scaled_and_trivial(self):
        assert TestFunction.zero().is_trivial
        assert TestFunction.scaled_indicator(0.0).is_trivial
        assert not PHI.is_trivial

    def test_initial_condition_reflects_support(self):
        # data supported on y >= 0 must enter the field on x <= 0
        init = PHI.to_initial_condition()
        assert np.array_equal(
            init.field_values(np.array([-0.5, 0.5])), [1.0, 0.0]
        )


class TestLadderExtrapolation:
    def test_algebraic_fit_recovers_planted_limit(self):
        rs = np.array(DEFAULT_R_LADDER)
        vals = 0.7 + (0.3 * np.log(rs) - 0.8) / np.sqrt(rs)
        value, err = _fit_algebraic(tuple(rs), tuple(vals))
        assert value == pytest.approx(0.7, abs=1e-10)
        assert err == pytest.approx(abs(vals[-1] - vals[-2]))

    def test_aitken_recovers_geometric_limit(self):
        vals = tuple(2.0 + 0.5 * 0.3**k for k in range(4))
        value, err = _aitken(vals)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert err == pytest.approx(abs(vals[-1] - vals[-2]))

    def test_zero_ladder_gives_zero(self):
        assert _fit_algebraic(DEFAULT_R_LADDER, (0.0,) * 4) == (0.0, 0.0)
        assert _aitken((0.0,) * 4) == (0.0, 0.0)

    def test_diverging_increments_are_rejected(self):
        with pytest.raises(NonConvergentLadderError):
            _fit_algebraic(DEFAULT_R_LADDER, (1.0, 2.0, 4.5, 12.0))
        with pytest.raises(NonConvergentLadderError):
            _aitken((1.0, 2.0, 4.5, 12.0))

    def test_ladder_validation(self):
        with pytest.raises(FrontsError):
            _validate_ladder((4.0, 8.0), 0.01)
        with pytest.raises(FrontsError):
            _validate_ladder((4.0, 8.0, 8.0), 0.01)
        with pytest.raises(FrontsError):
            _validate_ladder((0.0, 4.0, 8.0), 0.01)


@pytest.mark.parametrize(
    "constant,arg",
    [(constant_C, PHI), (constant_C_tilde, None), (constant_C_hat, 0.5)],
    ids=["C", "C_tilde", "C_hat"],
)
def test_off_grid_rung_is_refused_before_the_march(constant, arg):
    with pytest.raises(FrontsError, match="r_ladder rung 4.005 is not a whole number of steps"):
        constant(QUADRATIC, arg, r_ladder=(4.005, 8.0, 16.0), dt=0.01)


@pytest.mark.parametrize(
    "constant,arg",
    [(constant_C, PHI), (constant_C_tilde, None), (constant_C_hat, 0.5)],
    ids=["C", "C_tilde", "C_hat"],
)
def test_grid_past_the_cap_is_refused_before_the_march(constant, arg):
    with pytest.raises(KppError, match="dx 1e-09 makes [0-9]+ nodes per row, above the cap"):
        constant(QUADRATIC, arg, r_ladder=(4.0, 8.0, 16.0), dx=1e-9)


@pytest.mark.parametrize("constant,arg", [(constant_C_tilde, None), (constant_C_hat, 0.5)], ids=["C_tilde", "C_hat"])
def test_linear_psi_is_refused(constant, arg):
    # psi(u) = -u + 2 (e^-u - 1 + u) grows linearly: (H1) holds, (H3) does not
    mech = BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.atoms([(1.0, 2.0)]))
    with pytest.raises(FrontsError, match=r"h3 failed \(psi grows like u\*\*1 at infinity\)"):
        constant(mech, arg, r_ladder=(4.0, 8.0, 16.0))


class TestConstantC:
    def test_zero_data_gives_zero(self):
        est = constant_C(QUADRATIC, TestFunction.zero())
        assert est.value == 0.0
        assert est.ladder == (0.0,) * len(DEFAULT_R_LADDER)

    def test_frozen_regression_values(self, c_phi):
        assert isinstance(c_phi, ConstantEstimate)
        assert c_phi.r_values == DEFAULT_R_LADDER
        assert c_phi.ladder[0] == pytest.approx(0.197997, rel=1e-4)
        assert c_phi.ladder[-1] == pytest.approx(0.397632, rel=1e-4)
        assert c_phi.value == pytest.approx(0.719040, rel=1e-3)
        assert c_phi.error == pytest.approx(0.070639, rel=1e-3)

    def test_rungs_grow_toward_the_limit(self, c_phi):
        # the slow log r / sqrt(r) correction keeps the rungs well below the
        # fitted limit and still rising at the top of the ladder
        assert all(b > a for a, b in zip(c_phi.ladder, c_phi.ladder[1:]))
        assert c_phi.ladder[-1] < c_phi.value

    def test_shift_covariance(self, c_phi):
        moved = constant_C(QUADRATIC, TestFunction.scaled_indicator(1.0, a=-1.0))
        ratio = moved.value / c_phi.value
        assert abs(ratio / math.exp(SQRT2) - 1.0) < 0.02

    def test_continuity_in_the_data_scale(self, c_phi):
        tenth = constant_C(QUADRATIC, TestFunction.scaled_indicator(0.1))
        hundredth = constant_C(QUADRATIC, TestFunction.scaled_indicator(0.01))
        assert c_phi.value > tenth.value > hundredth.value > 0.0
        assert hundredth.value < 0.05 * c_phi.value
        # pointwise monotonicity in the data holds rung by rung as well
        assert all(s < f for s, f in zip(tenth.ladder, c_phi.ladder))

    def test_far_left_support_is_rejected(self):
        heavy = TestFunction.table((-50.0, -49.0), (1.0, 1.0))
        with pytest.raises(FrontsError):
            constant_C(QUADRATIC, heavy)

    def test_preconditions(self):
        with pytest.raises(FrontsError):
            constant_C(BranchingMechanism(alpha=2.0, beta=1.0), PHI)
        with pytest.raises(FrontsError):
            constant_C(QUADRATIC, PHI, r_ladder=(4.0, 8.0))

    def test_drift_other_than_one_is_refused_by_name(self):
        with pytest.raises(FrontsError, match="got alpha 2; divide alpha, beta and the jump measure by alpha"):
            constant_C(BranchingMechanism(alpha=2.0, beta=2.0), PHI)

    @pytest.mark.parametrize(
        "levy, unit_levy",
        [
            (LevyMeasure.none(), LevyMeasure.none()),
            (
                LevyMeasure.truncated_stable(c=2.0, index=1.5, cutoff=5.0),
                LevyMeasure.truncated_stable(c=1.0, index=1.5, cutoff=5.0),
            ),
        ],
        ids=["quadratic", "truncated-stable"],
    )
    def test_unit_drift_recipe(self, levy, unit_levy):
        # the refusal's recipe: psi / alpha has unit drift, and its field is the
        # given one with time x alpha and space x sqrt(alpha), node for node
        heaviside = InitialCondition.heaviside()
        given = solve_U(
            BranchingMechanism(alpha=2.0, beta=2.0, levy=levy),
            heaviside,
            Grid1D(x_min=-20.0, x_max=20.0, dx=0.05, dt=0.01, t_end=2.0),
        )
        root = math.sqrt(2.0)
        unit = solve_U(
            BranchingMechanism(alpha=1.0, beta=1.0, levy=unit_levy),
            heaviside,
            Grid1D(x_min=-20.0 * root, x_max=20.0 * root, dx=0.05 * root, dt=0.02, t_end=4.0),
        )
        assert given.grid.nx == unit.grid.nx and given.grid.nt == unit.grid.nt
        np.testing.assert_allclose(given.snapshots, unit.snapshots, rtol=0.0, atol=1e-13)


class TestSupportVerdict:
    """phi is refused exactly when it is nonzero somewhere on (-inf, -45]."""

    @pytest.mark.parametrize(
        "phi, accepted",
        [
            (TestFunction.scaled_indicator(1.0, a=-44.99), True),
            (TestFunction.scaled_indicator(1.0, a=-45.0), False),
            (TestFunction.scaled_indicator(1.0, a=-50.0), False),
            (TestFunction.compact_bump(-44.2, 1.0, 1.0), False),
            (TestFunction.compact_bump(-44.0, 1.0, 1.0), True),
            (TestFunction.table((-100.0, -10.0, 0.0), (0.0, 0.0, 1.0)), True),
            (TestFunction.table((-50.0, 0.0), (1.0, 1.0)), False),
            (TestFunction.table((-100.0, -46.0, -44.0), (0.0, 0.0, 1.0)), False),
        ],
        ids=lambda v: repr(v) if isinstance(v, bool) else f"{v.kind}@{v.support_left:g}",
    )
    def test_precheck(self, phi, accepted):
        if accepted:
            assert _phi_precheck(phi).kind == "bounded"
        else:
            with pytest.raises(FrontsError, match=f"support_left {phi.support_left:g}"):
                _phi_precheck(phi)

    def test_support_left(self):
        assert TestFunction.scaled_indicator(2.0, a=-3.0).support_left == -3.0
        assert TestFunction.compact_bump(1.0, 0.5, 2.0).support_left == 0.5
        assert TestFunction.table((-4.0, -2.0, 0.0), (0.0, 0.0, 1.0)).support_left == -2.0
        assert TestFunction.table((-4.0, -2.0, 0.0), (0.5, 0.0, 1.0)).support_left == -4.0
        assert TestFunction.zero().support_left == math.inf
        assert TestFunction.table((0.0, 1.0), (0.0, 0.0)).support_left == math.inf


class TestConstantCTilde:
    def test_frozen_regression_values(self, c_tilde_0):
        assert c_tilde_0.ladder[0] == pytest.approx(1.661118, rel=1e-4)
        assert c_tilde_0.ladder[-1] == pytest.approx(2.276072, rel=1e-4)
        assert c_tilde_0.value == pytest.approx(3.420292, rel=1e-3)

    def test_dominates_plain_constant_rung_by_rung(self, c_phi, c_tilde_0):
        assert all(v > u for u, v in zip(c_phi.ladder, c_tilde_0.ladder))
        assert c_tilde_0.value > c_phi.value

    def test_small_data_returns_to_base_constant(self, c_tilde_0):
        small = constant_C_tilde(QUADRATIC, TestFunction.scaled_indicator(0.01))
        assert abs(small.value / c_tilde_0.value - 1.0) < 0.05

    def test_base_constant_caps_the_plain_one(self, c_phi, c_tilde_0):
        assert c_phi.value < c_tilde_0.value
        assert all(u < c_tilde_0.value for u in c_phi.ladder)

    def test_reproducible_across_resolutions(self, c_tilde_0):
        finer = constant_C_tilde(QUADRATIC, dx=0.035)
        assert abs(finer.value / c_tilde_0.value - 1.0) < 0.03


class TestConstantCHat:
    def test_zero_tilt_rejected(self):
        with pytest.raises(FrontsError):
            constant_C_hat(QUADRATIC, 0.0)
        with pytest.raises(FrontsError):
            constant_C_hat(QUADRATIC, -0.5)

    def test_frozen_regression_values(self, c_hat_half):
        assert c_hat_half.value == pytest.approx(0.857759, rel=1e-3)
        assert c_hat_half.ladder[-1] == pytest.approx(0.940205, rel=1e-3)
        inc = np.abs(np.diff(c_hat_half.ladder))
        assert np.all(np.diff(inc) < 0.0)

    def test_large_tilt_is_ladder_stable(self):
        est = constant_C_hat(QUADRATIC, 3.0)
        ladder = np.asarray(est.ladder)
        assert est.value > 0.0
        assert ladder.max() / ladder.min() < 1.1

    def test_agrees_with_tail_probability_trend(self, c_hat_half):
        # the trend route goes through the field itself at the steep ray,
        # with no shared normalization with the ladder route
        delta = 0.5
        ts = (10.0, 20.0)
        grid = Grid1D.auto(ts[-1], dx=0.02, dt=0.01, pad=delta * ts[-1] + 14.0)
        field = solve_V(QUADRATIC, None, grid, snapshot_times=ts)
        gaps = []
        for t in ts:
            v = float(field.interp(t, (SQRT2 + delta) * t))
            trend = (
                math.sqrt(t)
                * math.exp((delta**2 / 2.0 + SQRT2 * delta) * t)
                * (-math.expm1(-v))
            )
            gaps.append(abs(trend / c_hat_half.value - 1.0))
        assert gaps[1] < gaps[0] < 0.06


class TestTailIntegral:
    """The cap of the overshoot integral: its growth and its two refusals."""

    @staticmethod
    def _caps(monkeypatch) -> list[float]:
        """The upper end of each overshoot quadrature made from here on, in order."""
        caps = []
        trapezoid = np.trapezoid

        def spy(y, x, *args, **kwargs):
            caps.append(float(x[-1]))
            return trapezoid(y, x, *args, **kwargs)

        monkeypatch.setattr(np, "trapezoid", spy)
        return caps

    @pytest.fixture(scope="class")
    def short_field(self):
        grid = Grid1D.auto(4.0, dx=0.05, dt=0.01, pad=8.0)
        return solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=(4.0,))

    def test_cap_grows_once_at_the_top_rung(self, monkeypatch):
        # caps start at 3 r + 40 / (sqrt2 + 3) on the dy = dx / 2 grid; at
        # r = 16 the tail is over 1% and the cap doubles, up to the grid's end
        caps = self._caps(monkeypatch)
        constant_C_hat(QUADRATIC, 3.0, r_ladder=(4.0, 8.0, 16.0))
        assert caps == pytest.approx([21.05, 33.05, 57.05, 81.925], rel=0, abs=1e-9)

    def test_every_rung_grows_before_a_divergent_ladder(self, monkeypatch):
        caps = self._caps(monkeypatch)
        with pytest.raises(NonConvergentLadderError):
            constant_C_hat(QUADRATIC, 5.0, r_ladder=(4.0, 8.0, 16.0))
        assert caps == pytest.approx(
            [18.225, 36.475, 30.225, 60.475, 54.225, 108.475], rel=0, abs=1e-9
        )

    def test_grid_end_too_close_is_refused(self, short_field):
        # sqrt(2) r lies within 7 dx of the grid's end, x_max = 13.7
        with pytest.raises(IntegralCapError, match="grid ends too close to sqrt"):
            _tail_integral(short_field, 9.5, SQRT2, 10.0)

    def test_tail_beyond_the_widest_cap_is_refused(self, short_field):
        # a tilt of 5 makes the integrand grow up to the grid's end, so the
        # cap cannot grow past where it starts
        with pytest.raises(IntegralCapError, match=r"estimated tail beyond the y cap is 52\.7% at r = 4"):
            _tail_integral(short_field, 4.0, SQRT2 + 5.0, 100.0)


class TestFrontLimitCheck:
    def test_gap_trend_closes(self, c_phi):
        # t^{3/2} / ((3 / (2 sqrt(2))) log t) u(t, sqrt(2) t) approaches C(phi)
        ts = (10.0, 20.0, 40.0)
        grid = Grid1D.auto(ts[-1], dx=0.05, dt=0.01, pad=25.0)
        field = solve_U(QUADRATIC, PHI.to_initial_condition(), grid, snapshot_times=ts)
        scaled = [
            t**1.5 / ((3.0 / (2.0 * SQRT2)) * math.log(t)) * float(field.interp(t, SQRT2 * t))
            for t in ts
        ]
        gaps = [abs(s / c_phi.value - 1.0) for s in scaled]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] < 0.7
        # the field at the centered front position has already settled even
        # though the rescaled tail is still far from its limit
        front_vals = np.array([float(field.interp(t, front_m(1.0, t))) for t in ts])
        assert np.all((front_vals > 0.0) & (front_vals < 1.0))
        assert front_vals.max() - front_vals.min() < 0.02
