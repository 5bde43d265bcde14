"""Tests for the reaction-diffusion front solver.

Oracles:
- fixed points u=0 and u=lambda* are preserved exactly by both split stages;
- for amplitude eps -> 0 the equation linearizes to u_t = u_xx/2 + u, whose
  solution for a Gaussian bump is the heat-smoothed bump times e^t, in closed
  form.  At eps = 1e-6 the nonlinear correction is O(eps) relative, far below
  the scheme error, so the closed form is an oracle for the full solver.
- the centering m(t) is an explicit formula;
- spatially flat data theta solve the scalar flow v' = -psi(v): the
  logistic closed form for quadratic psi, and for pure stable psi
  -alpha v + c' v^s the Bernoulli form w = v^(1-s),
  w(t) = c'/alpha + (w0 - c'/alpha) e^((1-s) alpha t).
"""

import hashlib
import math

import numpy as np
import pytest

from sbmlab import kpp as kpp_module
from sbmlab.csbp import extinction_prob
from sbmlab.kpp import (
    FrontTouchedBoundaryError,
    Grid1D,
    InitialCondition,
    KppError,
    front_m,
    median_m_tilde,
    solve_U,
    solve_V,
)
from sbmlab.mechanism import BranchingMechanism, LevyMeasure, flow_map

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())


def pure_stable(alpha: float, index: float, c_prime: float) -> BranchingMechanism:
    """psi(u) = -alpha u + c_prime u^index, with no cutoff and beta = 0."""
    c = c_prime * index * (index - 1.0) / math.gamma(2.0 - index)
    return BranchingMechanism(
        alpha=alpha, beta=0.0, levy=LevyMeasure.truncated_stable(c=c, index=index)
    )


def gaussian_phi(amp: float):
    return lambda s: amp * np.exp(-np.asarray(s) ** 2 / 2.0)


class TestGrid1D:
    def test_auto_satisfies_domain_invariant(self):
        g = Grid1D.auto(t_end=7.0)
        assert g.x_max - g.x_min >= 2.0 * (math.sqrt(2.0) * 7.0 + 20.0) - 1e-9
        assert g.x[0] == pytest.approx(g.x_min)
        assert g.x[-1] == pytest.approx(g.x_max)
        assert np.allclose(np.diff(g.x), g.dx)

    def test_steps_divide_horizon(self):
        g = Grid1D(x_min=-10.0, x_max=10.0, dx=0.1, dt=0.01, t_end=1.0)
        assert g.nt == 100
        assert g.nx == 201

    def test_invalid_grids_raise(self):
        with pytest.raises(KppError):
            Grid1D(x_min=1.0, x_max=-1.0, dx=0.1, dt=0.01, t_end=1.0)
        with pytest.raises(KppError):
            Grid1D(x_min=-1.0, x_max=1.0, dx=-0.1, dt=0.01, t_end=1.0)
        with pytest.raises(KppError):
            Grid1D(x_min=-1.0, x_max=1.0, dx=0.1, dt=0.3, t_end=1.0)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"dx": 1e-9}, "dx 1e-09 makes 62627416999 nodes per row, above the cap of 10000000"),
            ({"dt": 1e-7}, "dt 1e-07 makes 80000000 steps, above the cap of 10000000"),
        ],
        ids=["dx", "dt"],
    )
    def test_grid_past_the_cap_raises(self, spec, message):
        # construction only: the nodes are built on first use of x
        with pytest.raises(KppError, match=message):
            Grid1D.auto(8.0, **spec)
        assert Grid1D.auto(1.0, dt=1e-7).nt == kpp_module.STEP_CAP

    def test_step_rule_is_relative_beyond_one(self):
        # a time names step k when |k dt - t| <= 1e-9 max(1, |t|)
        assert kpp_module._grid_step("t", 0.3, 0.1, KppError) == 3
        assert kpp_module._grid_step("t", 1000.0 + 5e-7, 0.01, KppError) == 100_000
        assert kpp_module._grid_step("t", 0.3 + 2e-9, 0.1, None) is None
        for t in (0.3 + 2e-9, 1000.0 + 2e-6, math.nan, math.inf):
            with pytest.raises(KppError, match="not a whole number of steps"):
                kpp_module._grid_step("t", t, 0.1, KppError)

    def test_nodes_are_built_once_and_read_only(self):
        grid = Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=1.0)
        assert grid.x is grid.x
        assert np.array_equal(grid.x, np.linspace(-8.0, 8.0, 161))
        with pytest.raises(ValueError):
            grid.x[0] = 1.0


class TestInitialCondition:
    def test_heaviside_field_orientation(self):
        init = InitialCondition.heaviside()
        x = np.array([-2.0, -0.05, 0.0, 0.05, 2.0])
        assert np.array_equal(init.field_values(x), [1.0, 1.0, 0.0, 0.0, 0.0])

    def test_bounded_field_is_reflected(self):
        # phi supported on (0, 1) must appear at (-1, 0) in field coordinates
        init = InitialCondition.bounded(
            lambda s: np.where((np.asarray(s) > 0) & (np.asarray(s) < 1), 0.5, 0.0),
            sup_norm=0.5,
        )
        x = np.array([-0.5, 0.5])
        assert np.array_equal(init.field_values(x), [0.5, 0.0])

    def test_constant_phi_is_broadcast(self):
        # a phi that returns one number is the constant field
        init = InitialCondition.bounded(lambda s: 0.25, sup_norm=0.5)
        assert np.array_equal(init.field_values(np.array([-1.0, 0.0, 2.0])), [0.25, 0.25, 0.25])

    def test_phi_above_sup_norm_rejected(self):
        init = InitialCondition.bounded(lambda s: 5.0 + 0.0 * np.asarray(s), sup_norm=0.5)
        grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=0.1)
        with pytest.raises(KppError, match=r"\|phi\| reaches 5 on the march grid, above sup_norm 0.5"):
            solve_U(QUADRATIC, init, grid)

    def test_phi_nan_on_the_probe_grid_rejected(self):
        # NaN only at s in (-1.5, -0.5), inside the march grid
        init = InitialCondition.bounded(
            lambda s: np.where(np.abs(np.asarray(s) + 1.0) < 0.5, np.nan, 0.5), sup_norm=0.5
        )
        grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=0.1)
        with pytest.raises(KppError, match="phi is not finite on the march grid .*sup_norm 0.5"):
            solve_U(QUADRATIC, init, grid)

    def test_phi_nan_on_the_march_grid_rejected(self):
        # NaN only at s > 2
        init = InitialCondition.bounded(
            lambda s: np.where(np.asarray(s) > 2.0, np.nan, 0.5), sup_norm=0.5
        )
        grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=0.1)
        with pytest.raises(KppError, match="phi is not finite on the march grid .*sup_norm 0.5"):
            solve_U(QUADRATIC, init, grid)

    def test_phi_above_sup_norm_on_the_march_grid_rejected(self):
        init = InitialCondition.bounded(
            lambda s: np.where(np.asarray(s) > 2.0, 0.9, 0.5), sup_norm=0.5
        )
        grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=0.1)
        with pytest.raises(KppError, match="reaches 0.9 on the march grid, above sup_norm 0.5"):
            solve_U(QUADRATIC, init, grid)

    def test_barrier_kind_rejected_by_solve_U(self):
        # barrier data has no InitialCondition kind; solve_V builds it
        grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=0.1)
        init = InitialCondition(kind="barrier", phi=None, sup_norm=0.0)
        with pytest.raises(KppError, match="unknown initial-condition kind"):
            solve_U(QUADRATIC, init, grid)


class TestSolveU:
    def test_off_grid_snapshot_is_refused(self):
        # 1e-7 off the grid names no step, though it is within an absolute 1e-6
        grid = Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=1.0)
        with pytest.raises(KppError, match="snapshot time 0.5000001 is not a whole number"):
            solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=[0.5 + 1e-7])

    def test_zero_is_a_fixed_point(self):
        grid = Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=1.0)
        field = solve_U(
            QUADRATIC, InitialCondition.bounded(lambda s: 0.0 * np.asarray(s), sup_norm=0.0), grid
        )
        assert np.max(np.abs(field.at(1.0))) < 1e-12

    def test_lambda_star_is_a_fixed_point(self):
        grid = Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=1.0)
        field = solve_U(
            QUADRATIC,
            InitialCondition.bounded(lambda s: np.ones_like(np.asarray(s, dtype=float)), sup_norm=1.0),
            grid,
        )
        assert np.max(np.abs(field.at(1.0) - 1.0)) < 1e-12

    def test_linearized_gaussian_oracle(self):
        eps = 1e-6
        grid = Grid1D.auto(t_end=1.0, dx=0.05, dt=0.01)
        field = solve_U(QUADRATIC, InitialCondition.bounded(gaussian_phi(eps), sup_norm=eps), grid)
        u = field.at(1.0)
        sig2 = 1.0 + grid.t_end
        exact = eps * math.e / math.sqrt(sig2) * np.exp(-grid.x**2 / (2.0 * sig2))
        scale = eps * math.e / math.sqrt(sig2)
        assert np.max(np.abs(u - exact)) / scale < 1e-3

    def test_second_order_convergence_on_linear_oracle(self):
        eps = 1e-6

        def err(dx, dt):
            grid = Grid1D(x_min=-12.0, x_max=12.0, dx=dx, dt=dt, t_end=0.5)
            field = solve_U(
                QUADRATIC, InitialCondition.bounded(gaussian_phi(eps), sup_norm=eps), grid
            )
            sig2 = 1.0 + 0.5
            exact = eps * math.exp(0.5) / math.sqrt(sig2) * np.exp(-grid.x**2 / (2.0 * sig2))
            return np.max(np.abs(field.at(0.5) - exact))

        coarse = err(0.1, 0.02)
        fine = err(0.05, 0.01)
        assert coarse / fine > 2.5

    def test_bounded_by_initial_sup_and_equilibrium(self):
        grid = Grid1D.auto(t_end=2.0, dx=0.1, dt=0.02)
        field = solve_U(
            QUADRATIC, InitialCondition.bounded(gaussian_phi(1.7), sup_norm=1.7), grid
        )
        for t in field.times:
            u = field.at(t)
            assert np.all(u >= 0.0)
            assert np.max(u) <= 1.7 + 1e-9

    def test_heaviside_supremum_stays_at_equilibrium(self):
        grid = Grid1D.auto(t_end=2.0, dx=0.1, dt=0.02)
        field = solve_U(QUADRATIC, InitialCondition.heaviside(), grid)
        assert np.max(field.at(2.0)) <= 1.0 + 1e-9
        assert np.min(field.at(2.0)) >= -1e-15

    def test_front_touching_boundary_raises(self):
        grid = Grid1D(x_min=-6.0, x_max=6.0, dx=0.1, dt=0.01, t_end=6.0)
        with pytest.raises(FrontTouchedBoundaryError):
            solve_U(QUADRATIC, InitialCondition.heaviside(), grid)

    def test_snapshot_times_are_recorded(self):
        grid = Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=1.0)
        field = solve_U(
            QUADRATIC,
            InitialCondition.heaviside(),
            grid,
            snapshot_times=[0.25, 0.5],
        )
        assert field.times[0] == 0.0
        assert field.times[-1] == pytest.approx(1.0)
        assert any(abs(t - 0.25) < 1e-9 for t in field.times)
        assert field.at(0.5).shape == grid.x.shape

    def test_interp_matches_snapshots_on_nodes(self):
        grid = Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=1.0)
        field = solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=[0.5])
        u = field.at(0.5)
        j = 40
        assert field.interp(0.5, grid.x[j]) == pytest.approx(u[j], rel=1e-12)
        mid = field.interp(0.5, grid.x[j] + grid.dx / 2.0)
        assert min(u[j], u[j + 1]) - 1e-12 <= mid <= max(u[j], u[j + 1]) + 1e-12


def _np_interp_blend(field, t: float, x) -> np.ndarray:
    """The time blend of two ``np.interp`` rows: Field.interp's reference."""
    j = int(np.searchsorted(field.times, t))
    if abs(field.times[j] - t) <= 1e-9:
        return np.interp(x, field.grid.x, field.snapshots[j])
    t0, t1 = field.times[j - 1], field.times[j]
    w = (t - t0) / (t1 - t0)
    lo = np.interp(x, field.grid.x, field.snapshots[j - 1])
    hi = np.interp(x, field.grid.x, field.snapshots[j])
    return (1.0 - w) * lo + w * hi


class TestFieldInterp:
    """Field.interp finds cells on the uniform grid and must equal np.interp bit for bit."""

    GRIDS = {
        "symmetric": Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=1.0),
        "offset": Grid1D(x_min=-7.0 - 1.0 / 3.0, x_max=8.0, dx=1.0 / 30.0, dt=0.01, t_end=1.0),
    }

    @pytest.fixture(scope="class", params=sorted(GRIDS))
    def fields(self, request):
        grid = self.GRIDS[request.param]
        return [
            solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=[0.5]),
            solve_V(QUADRATIC, None, grid, snapshot_times=[0.5]),
        ]

    @staticmethod
    def _points(xs: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(20)
        return np.concatenate(
            [
                rng.uniform(xs[0], xs[-1], 100_000),
                xs,
                0.5 * (xs[:-1] + xs[1:]),
                np.nextafter(xs, np.inf),
                np.nextafter(xs, -np.inf),
                [xs[0] - 5e-10, xs[-1] + 5e-10],
            ]
        )

    # a snapshot time, a time between two snapshots and the two ends
    @pytest.mark.parametrize("t", [0.5, 0.7, 0.0, 1.0])
    def test_array_matches_np_interp_bit_for_bit(self, fields, t):
        for field in fields:
            x = self._points(field.grid.x)
            got = field.interp(t, x)
            want = _np_interp_blend(field, t, x)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("t", [0.5, 0.7])
    def test_scalar_matches_np_interp_bit_for_bit(self, fields, t):
        for field in fields:
            x = self._points(field.grid.x)[99_000:]  # 1000 random points and every special one
            got = np.array([field.interp(t, float(p)) for p in x])
            want = _np_interp_blend(field, t, x)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert type(field.interp(t, float(x[0]))) is float

    def test_shape_follows_input(self, fields):
        field = fields[0]
        x = self._points(field.grid.x)[:6].reshape(2, 3)
        got = field.interp(0.7, x)
        assert got.shape == (2, 3)
        assert np.array_equal(got, _np_interp_blend(field, 0.7, x))
        assert field.interp(0.7, np.empty(0)).shape == (0,)

    def test_outside_the_grid_raises(self, fields):
        field = fields[0]
        xs = field.grid.x
        for x in (xs[0] - 2e-9, xs[-1] + 2e-9, np.array([0.0, xs[-1] + 1.0]), math.nan):
            with pytest.raises(KppError, match="outside the spatial grid"):
                field.interp(0.5, x)
        for t in (-1e-3, 1.0 + 1e-3):
            with pytest.raises(KppError, match="outside snapshot range"):
                field.interp(t, 0.0)


class TestComparisonProperties:
    def test_constant_multiple_comparison(self):
        # u1(0) = c * u2(0) with c > 1 must propagate to u1 <= c u2 + O(grid)
        grid = Grid1D.auto(t_end=1.0, dx=0.05, dt=0.01)
        phi_small = InitialCondition.bounded(gaussian_phi(0.3), sup_norm=0.3)
        phi_large = InitialCondition.bounded(gaussian_phi(0.5), sup_norm=0.5)
        c = 0.5 / 0.3
        u2 = solve_U(QUADRATIC, phi_small, grid).at(1.0)
        u1 = solve_U(QUADRATIC, phi_large, grid).at(1.0)
        violation = np.max(u1 - c * u2)
        assert violation <= 5e-4

    def test_subadditivity(self):
        grid = Grid1D.auto(t_end=1.0, dx=0.05, dt=0.01)
        phi_a = InitialCondition.bounded(gaussian_phi(0.4), sup_norm=0.4)
        phi_b = InitialCondition.bounded(
            lambda s: 0.6 * np.exp(-((np.asarray(s) - 1.0) ** 2)), sup_norm=0.6
        )
        phi_sum = InitialCondition.bounded(
            lambda s: 0.4 * np.exp(-np.asarray(s) ** 2 / 2.0)
            + 0.6 * np.exp(-((np.asarray(s) - 1.0) ** 2)),
            sup_norm=1.0,
        )
        ua = solve_U(QUADRATIC, phi_a, grid).at(1.0)
        ub = solve_U(QUADRATIC, phi_b, grid).at(1.0)
        us = solve_U(QUADRATIC, phi_sum, grid).at(1.0)
        assert np.max(us - ua - ub) <= 5e-4

    def test_weighted_tail_sum_bounded_by_heat_semigroup(self):
        # u(t,x) <= e^t E_x u(0, B_t) integrated against y exp(sqrt2 y) on y>0
        grid = Grid1D.auto(t_end=1.0, dx=0.05, dt=0.01)
        amp, t = 0.5, 1.0
        field = solve_U(QUADRATIC, InitialCondition.bounded(gaussian_phi(amp), sup_norm=amp), grid)
        x = grid.x
        mask = x > 0
        w = x[mask] * np.exp(math.sqrt(2.0) * x[mask])
        lhs = float(np.trapezoid(w * field.at(t)[mask], x[mask]))
        sig2 = 1.0 + t
        heat = amp / math.sqrt(sig2) * np.exp(-x[mask] ** 2 / (2.0 * sig2))
        rhs = math.exp(t) * float(np.trapezoid(w * heat, x[mask]))
        assert lhs <= rhs * (1.0 + 1e-6)


class TestSolveV:
    def test_ladder_output_and_dominance(self):
        grid = Grid1D.auto(t_end=1.0, dx=0.05, dt=0.01)
        phi = InitialCondition.bounded(gaussian_phi(0.8), sup_norm=0.8)
        v_field = solve_V(QUADRATIC, phi, grid)
        u_field = solve_U(QUADRATIC, phi, grid)
        assert v_field.provenance == "V_phi"
        assert v_field.theta == pytest.approx(1e4)
        assert np.all(v_field.at(1.0) >= u_field.at(1.0) - 1e-8)

    def test_pure_barrier_has_V_provenance(self):
        grid = Grid1D.auto(t_end=1.0, dx=0.1, dt=0.02)
        v_field = solve_V(QUADRATIC, None, grid)
        assert v_field.provenance == "V"

    def test_bounded_by_extinction_exponent(self):
        grid = Grid1D.auto(t_end=1.0, dx=0.05, dt=0.01)
        v_field = solve_V(QUADRATIC, None, grid)
        v_bar = extinction_prob(QUADRATIC, t=1.0).v_bar
        assert np.max(v_field.at(1.0)) <= v_bar + 1e-3

    def test_barrier_field_is_one_march_from_truncated_data(self):
        # V is solve_U's march of phi(-x) + 1e4 1_{x<0}, bit for bit
        grid = Grid1D.auto(t_end=1.0, dx=0.1, dt=0.02)
        phi = gaussian_phi(0.5)
        v_field = solve_V(
            QUADRATIC, InitialCondition.bounded(phi, 0.5), grid, snapshot_times=[0.5]
        )
        truncated = InitialCondition.bounded(
            lambda s: phi(s) + np.where(np.asarray(s) > 0.0, 1e4, 0.0), 1e4 + 0.5
        )
        u_field = solve_U(QUADRATIC, truncated, grid, snapshot_times=[0.5])
        assert np.array_equal(v_field.snapshots, u_field.snapshots)
        assert np.array_equal(v_field.median_values, u_field.median_values)
        assert v_field.diagnostics == u_field.diagnostics


@pytest.fixture(scope="module")
def long_heaviside_field():
    grid = Grid1D.auto(t_end=50.0, dx=0.05, dt=0.02)
    return solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=[20.0])


class TestMedian:
    def test_heaviside_median_starts_at_zero(self):
        grid = Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=0.5)
        field = solve_U(QUADRATIC, InitialCondition.heaviside(), grid)
        assert abs(median_m_tilde(field, 0.0)) <= grid.dx

    def test_constant_equilibrium_gives_plus_inf(self):
        grid = Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=0.5)
        field = solve_U(
            QUADRATIC,
            InitialCondition.bounded(lambda s: np.ones_like(np.asarray(s, dtype=float)), sup_norm=1.0),
            grid,
        )
        assert median_m_tilde(field, 0.5) == math.inf

    def test_zero_field_gives_minus_inf(self):
        grid = Grid1D(x_min=-8.0, x_max=8.0, dx=0.1, dt=0.01, t_end=0.5)
        field = solve_U(
            QUADRATIC, InitialCondition.bounded(lambda s: 0.0 * np.asarray(s), sup_norm=0.0), grid
        )
        assert median_m_tilde(field, 0.5) == -math.inf

    def test_median_tracks_centering_at_t20(self, long_heaviside_field):
        gap = median_m_tilde(long_heaviside_field, 20.0) - front_m(1.0, 20.0)
        assert -5.0 <= gap <= 5.0

    def test_median_minus_centering_band_is_narrow(self, long_heaviside_field):
        ts = np.linspace(5.0, 50.0, 181)
        gaps = np.array(
            [median_m_tilde(long_heaviside_field, t) - front_m(1.0, t) for t in ts]
        )
        assert np.all(np.isfinite(gaps))
        assert gaps.max() - gaps.min() <= 2.0


class TestFrontM:
    def test_values(self):
        assert front_m(1.0, 1.0) == pytest.approx(math.sqrt(2.0))
        assert front_m(2.0, 1.0) == pytest.approx(2.0)
        assert front_m(1.0, math.e**2) == pytest.approx(
            math.sqrt(2.0) * math.e**2 - 3.0 / math.sqrt(2.0)
        )

    def test_rejects_nonpositive_time(self):
        with pytest.raises(KppError):
            front_m(1.0, 0.0)


def flat_field(mech: BranchingMechanism, theta: float):
    grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=1.0)
    init = InitialCondition.bounded(lambda s: np.full(np.shape(s), theta), sup_norm=theta)
    return solve_U(mech, init, grid, snapshot_times=[0.25, 0.5, 0.75])


class TestFlatDataFlowOracles:
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.5), (0.3, 3.0)])
    @pytest.mark.parametrize("theta", [0.2, 3.0, 1e3])
    def test_quadratic_march_is_the_logistic_flow(self, alpha, beta, theta):
        field = flat_field(BranchingMechanism(alpha=alpha, beta=beta), theta)
        assert field.diagnostics["reaction"] == "logistic"
        for t in field.times:
            growth = math.exp(alpha * t)
            exact = theta * growth / (1.0 + beta * (growth - 1.0) * theta / alpha)
            assert np.max(np.abs(field.at(t) / exact - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "alpha, index, c_prime",
        # the last has lambda* = 1e-10, which needs lambda_star's relative tolerance
        [(1.0, 1.5, 1.0), (2.0, 1.3, 0.7), (0.5, 1.8, 2.0), (1.0, 1.1, 10.0)],
    )
    @pytest.mark.parametrize("theta", [0.2, 3.0, 1e3])
    def test_stable_march_matches_the_bernoulli_flow(self, alpha, index, c_prime, theta):
        field = flat_field(pure_stable(alpha, index, c_prime), theta)
        assert field.diagnostics["reaction"] == "table"
        rest = c_prime / alpha
        for t in field.times:
            w = rest + (theta ** (1.0 - index) - rest) * math.exp((1.0 - index) * alpha * t)
            exact = w ** (1.0 / (1.0 - index))
            assert np.max(np.abs(field.at(t) / exact - 1.0)) <= 1e-7


class TestDiagnostics:
    def test_logistic_path_takes_one_reaction_map_per_step(self):
        grid = Grid1D.auto(t_end=1.0, dx=0.1, dt=0.02)
        field = solve_U(QUADRATIC, InitialCondition.heaviside(), grid)
        diag = field.diagnostics
        assert diag["reaction"] == "logistic"
        assert diag["steps"] == grid.nt
        assert 0.0 <= diag["max_guard_drift"] <= 1e-6

    def test_barrier_ladder_sums_its_rungs(self):
        # named for the three-rung ladder solve_V marched before; one march now
        grid = Grid1D.auto(t_end=1.0, dx=0.1, dt=0.02)
        field = solve_V(pure_stable(1.0, 1.5, 1.0), None, grid)
        diag = field.diagnostics
        assert diag["reaction"] == "table"
        assert diag["steps"] == grid.nt
        assert 0.0 <= diag["max_guard_drift"] <= 1e-6

    # InitialCondition.bounded refuses non-finite phi, so these feed the
    # march its start field directly: its own guard must still hold

    def test_non_finite_field_raises(self):
        grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=0.1)
        u0 = np.where(np.abs(grid.x) < 1.0, np.nan, 0.0)
        with pytest.raises(KppError, match="non-finite"):
            kpp_module._march(QUADRATIC, u0, grid, None, "U_phi", None)

    @pytest.mark.parametrize("mech", [QUADRATIC, pure_stable(1.0, 1.5, 1.0)], ids=["logistic", "table"])
    @pytest.mark.parametrize("nodes", [(4.95, 6.0), (4.75, 4.95), (-6.0, -4.95)], ids=["left edge", "left guard", "right edge"])
    def test_non_finite_guard_node_raises(self, mech, nodes):
        # a NaN that starts in the edge guard cells must still stop the march;
        # phi(s) is NaN for s in nodes, which is -x in field coordinates
        grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=0.1)
        lo, hi = nodes
        u0 = np.where((-grid.x > lo) & (-grid.x < hi), np.nan, 0.5)
        with pytest.raises(KppError, match="field became non-finite at t=0.010"):
            kpp_module._march(mech, u0, grid, None, "U_phi", None)


# ---------------------------------------------------------------------------
# frozen fields
#
# Digests of the solve_U and solve_V arrays.  The quadratic ones were
# recorded when jump mechanisms still took RK4 reaction sub-steps, and the
# logistic map must still reproduce them bit for bit.  The jump mechanisms'
# were recorded when their reaction became one step of the flow table; they
# moved from the RK4 values by at most 6e-5 absolute (V, truncated at
# theta = 1e4), 4.4e-6 relative elsewhere and 1e-6 in the medians.

QUADRATIC_DIGESTS = {
    "U_snapshots": "6f654f64d5ea73161af24494eeb11c6b32087352659290bd9e0e3464b6209d7e",
    "U_medians": "03916caa8bf46d40d77b6b34315f894bebfe43616a4c72362b00f5ee180ca51c",
    "V_snapshots": "e940a6c080bf8b816e18c024b2b3b62afac936badbe3fa0a042f642d4ad32662",
    "V_medians": "6b8c3b565d52a1092673907d36177de82fbc6021ba65e8a4e2a71d8f5b37c711",
}

JUMP_MECHANISMS = {
    "atoms": BranchingMechanism(alpha=1.0, beta=0.5, levy=LevyMeasure.atoms([(2.0, 0.3)])),
    "stable": pure_stable(1.0, 1.5, 1.0),
    "jumps": BranchingMechanism(
        alpha=1.0, beta=0.0, levy=LevyMeasure.truncated_stable(c=1.0, index=1.5, cutoff=5.0)
    ),
    "tabulated": BranchingMechanism(
        alpha=1.0,
        beta=0.3,
        levy=LevyMeasure.tabulated(y=(0.5, 1.0, 2.0, 4.0), density=(1.0, 0.5, 0.1, 0.01)),
    ),
}

JUMP_DIGESTS = {
    "atoms": {
        "U_snapshots": "5f35c8aecc1a12033357ef58b20e713532600596210392114a9a717d6d1b3caa",
        "U_medians": "f45ada1b851d3421dd558e7f035d4703b20ae270204e021dfc44a7dd3f63c129",
        "V_snapshots": "7f618214af58bba61c8066eee5a9ea917495064d3a6656ef9a6d8b568e2c3d37",
        "V_medians": "556d4d7b946b04348aaf298bc6462c90668f4934f34254da575ce782313282a5",
    },
    "stable": {
        "U_snapshots": "c3cc11e4cd711706b6bf957974af6d97728a6aa00f0abf385df11dd654cb78d6",
        "U_medians": "aba04d9809aef5bbececc574a0190db105827e4ced949117d2b128273c5c001b",
        "V_snapshots": "6732d85b40d216f37c25009a94f48d913c1eee6d5cbb0b8c6894321929908b1d",
        "V_medians": "a0d8220875f7113f95422d26151746737cba32aa4cbdd2554460d0fefb78ef8d",
    },
    "jumps": {
        "U_snapshots": "583015448c23ee58534176933a0f3dbca9ce5f4567280284c5ae17787321dc24",
        "U_medians": "6047faf6843d4ea62e762f246c738915ea3799ba0669ea72862b7044a32988f5",
        "V_snapshots": "6f5f30a0002b0cd09b6de10b125957dd46f4c204ce82bae00a489da307d18144",
        "V_medians": "2a8db3972bd7c6d3ee989777b83135967785ec708096ccbc139d518706ec9c2c",
    },
    "tabulated": {
        "U_snapshots": "caede7ff0fe1b59a7ec499df53bbd06d205c43965a84db09f6b31a833deac645",
        "U_medians": "8c42a5e18259725e077448311f5c82c0872db11b1d265e070e66ef81a60d5477",
        "V_snapshots": "4281ab1c998b14c8a2712bbae72d54a473c787720a9b1a9d2949d3700434cb3f",
        "V_medians": "ca26eae4aecf3987a1727295d1cc0496a13c6b60156648e868e150801bad4361",
    },
}


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=float).tobytes()).hexdigest()


def _field_digests(mech: BranchingMechanism) -> dict[str, str]:
    grid = Grid1D.auto(t_end=1.0, dx=0.1, dt=0.02)
    u = solve_U(mech, InitialCondition.bounded(gaussian_phi(0.8), 0.8), grid, snapshot_times=[0.5])
    v = solve_V(mech, InitialCondition.bounded(gaussian_phi(0.5), 0.5), grid, snapshot_times=[0.5])
    assert u.diagnostics["reaction"] == v.diagnostics["reaction"]
    return {
        "U_snapshots": _sha(u.snapshots),
        "U_medians": _sha(u.median_values),
        "V_snapshots": _sha(v.snapshots),
        "V_medians": _sha(v.median_values),
    }


def test_quadratic_fields_match_frozen_digests():
    assert _field_digests(QUADRATIC) == QUADRATIC_DIGESTS


# named for the RK4 reaction sub-steps these mechanisms took before the
# flow table replaced them
@pytest.mark.parametrize("name", sorted(JUMP_MECHANISMS))
def test_rk4_fields_match_frozen_digests(name):
    mech = JUMP_MECHANISMS[name]
    assert flow_map(mech, 1.0).form == "table"
    assert _field_digests(mech) == JUMP_DIGESTS[name]
