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
from sbmlab.mechanism import BranchingMechanism, LevyMeasure

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

    def test_integrability_flag(self):
        assert InitialCondition.bounded(gaussian_phi(1.0), sup_norm=1.0).integrable_tail
        left_indicator = InitialCondition.bounded(
            lambda s: np.where(np.asarray(s) < 0, 1.0, 0.0), sup_norm=1.0
        )
        assert not left_indicator.integrable_tail

    def test_barrier_kind_rejected_by_solve_U(self):
        grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=0.1)
        with pytest.raises(KppError):
            solve_U(QUADRATIC, InitialCondition.barrier(), grid)


class TestSolveU:
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
        assert v_field.theta_ladder == (1e2, 1e3, 1e4)
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

    def test_theta_increment_ahead_of_front(self):
        # measured on this grid: 1.65e-2, shrinking slowly under refinement;
        # the rungs collapse to the mass flow early on, and v(0.01, 1e3) and
        # v(0.01, 1e4) still differ by 9%, so percent-level increments out
        # here are real and not a bug
        grid = Grid1D.auto(t_end=1.0, dx=0.05, dt=0.01)
        v_field = solve_V(QUADRATIC, None, grid)
        j = int(np.argmin(np.abs(grid.x - 3.0)))
        increments = v_field.increment_at(1.0)
        assert 1e-3 < increments[j] < 2e-2

    def test_increments_are_top_minus_second_rung(self):
        # rungs march independently, so the top rung of the ladder one
        # decade lower is bit for bit the second rung of the default ladder
        grid = Grid1D.auto(t_end=1.0, dx=0.1, dt=0.02)
        v_field = solve_V(QUADRATIC, None, grid)
        lower = solve_V(QUADRATIC, None, grid, theta_ladder=(1e1, 1e2, 1e3))
        assert np.array_equal(v_field.increments, v_field.snapshots - lower.snapshots)
        assert np.all(v_field.increments >= 0.0)
        assert np.all(lower.increments >= 0.0)


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
        "alpha, index, c_prime", [(1.0, 1.5, 1.0), (2.0, 1.3, 0.7), (0.5, 1.8, 2.0)]
    )
    @pytest.mark.parametrize("theta", [0.2, 3.0, 1e3])
    def test_stable_march_matches_the_bernoulli_flow(self, alpha, index, c_prime, theta):
        # measured worst relative error 2.2e-6 (theta = 1e3, where the first
        # step is stiffest); between 1e-13 and 2.4e-8 for theta <= 3
        field = flat_field(pure_stable(alpha, index, c_prime), theta)
        assert field.diagnostics["reaction"] == "rk4"
        rest = c_prime / alpha
        for t in field.times:
            w = rest + (theta ** (1.0 - index) - rest) * math.exp((1.0 - index) * alpha * t)
            exact = w ** (1.0 / (1.0 - index))
            assert np.max(np.abs(field.at(t) / exact - 1.0)) <= 5e-6


class TestDiagnostics:
    def test_logistic_path_takes_one_reaction_map_per_step(self):
        grid = Grid1D.auto(t_end=1.0, dx=0.1, dt=0.02)
        field = solve_U(QUADRATIC, InitialCondition.heaviside(), grid)
        diag = field.diagnostics
        assert diag["reaction"] == "logistic"
        assert diag["steps"] == diag["reaction_substeps"] == grid.nt
        assert 0.0 <= diag["max_guard_drift"] <= 1e-6

    def test_barrier_ladder_sums_its_rungs(self):
        grid = Grid1D.auto(t_end=1.0, dx=0.1, dt=0.02)
        field = solve_V(pure_stable(1.0, 1.5, 1.0), None, grid)
        diag = field.diagnostics
        assert diag["reaction"] == "rk4"
        assert diag["steps"] == 3 * grid.nt
        # the stiff start near theta = 1e4 needs more than one RK4 sub-step
        assert diag["reaction_substeps"] > diag["steps"]
        assert 0.0 <= diag["max_guard_drift"] <= 1e-6

    def test_non_finite_field_raises(self):
        grid = Grid1D(x_min=-5.0, x_max=5.0, dx=0.1, dt=0.01, t_end=0.1)
        init = InitialCondition.bounded(
            lambda s: np.where(np.abs(np.asarray(s)) < 1.0, np.nan, 0.0), sup_norm=0.0
        )
        with pytest.raises(KppError, match="non-finite"):
            solve_U(QUADRATIC, init, grid)


# ---------------------------------------------------------------------------
# frozen RK4 fields
#
# Digests of the solve_U and solve_V arrays for jump mechanisms, recorded
# when every half step still called solveh_banded and psi was evaluated
# twice per RK4 sub-step.  Factoring the diffusion matrices once and
# evaluating psi once per sub-step must reproduce them bit for bit.

RK4_MECHANISMS = {
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

FROZEN_RK4 = {
    "atoms": {
        "U_snapshots": "a4e3a4fbb31bc267b65a36d1f1ba65d6e021fbaf917f4f59c07facc16670da82",
        "U_medians": "81d644172089388e2bd71fba7175a529a096d79706d46d700dd51ec2c835fb1a",
        "V_snapshots": "04570052f5de9708e5f5b6ebb2783fa5ebbd33bbd5cd19c096106578581d637b",
        "V_medians": "ef7917a4621aeb225929006c4f71c42ff42d7de6c5f866a8721eb29c6e909b59",
        "V_increments": "43b35d6e7d6fa3eae77b3bf9f844d56e47565322b4fae8622f480141baa3931b",
    },
    "stable": {
        "U_snapshots": "d01b9600d40ba233135b9fd92643838bbbf354333f8dc03e0cbae44f26f017ef",
        "U_medians": "0c5e581225e5364c9d5ff840129d3c98608c87655ef2b623dc90587927f60fbf",
        "V_snapshots": "0b33cf4b2c9de77a75170c98470a1ee3aac27d5f912e7656557ed0b2529f4652",
        "V_medians": "89dd671baa2b367f6f1075c6b05c0528bfba68457ec1ae289245b11b3851955d",
        "V_increments": "7dfe3680fc0b4cec5e16586159163b4764647c1fe2816f92f91a72001eb3312c",
    },
    "jumps": {
        "U_snapshots": "70b1b8c57d2f65169d3db84b561c721dbad22cf0622aba0da94e0eb6634c6db2",
        "U_medians": "a51d8dc333bedc23ba17aac7d10502fd8ca168ba1ba1efcbc666e3056aa44811",
        "V_snapshots": "465fa3b99ac901775e019b49005062973583086e10e4a5c8e397c34b4f1810c2",
        "V_medians": "39e6779d0c417eb1df3968c64f551f7b563e746a4b1ff316a5baccb60ecfa5ce",
        "V_increments": "51cec4f43922439b20b337787f0674a6eb51f2387f71ab6b662e480bb377f91e",
    },
    "tabulated": {
        "U_snapshots": "c42ed930dc769c11f6740cdb54a859e9c18b2cc3893f11d0af627d4ccf9c65bf",
        "U_medians": "3e1fb2ed1e828ee930443e4064a049ba7d85edc1d6ed9ae27c593928d2a97bc9",
        "V_snapshots": "b68d1df7155be70ad32bab96792460d963e81000b23333cc53442dd890dae890",
        "V_medians": "020c0eeace94f6de87770d03c39a319336e107680bbf2362b54c9a8e6c690494",
        "V_increments": "7c0bcbe37521be2f63429e475ff8bd0f1bb60e87b27ec3ae76c82485af99731c",
    },
}


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=float).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RK4_MECHANISMS))
def test_rk4_fields_match_frozen_digests(name):
    mech = RK4_MECHANISMS[name]
    grid = Grid1D.auto(t_end=1.0, dx=0.1, dt=0.02)
    u = solve_U(mech, InitialCondition.bounded(gaussian_phi(0.8), 0.8), grid, snapshot_times=[0.5])
    v = solve_V(mech, InitialCondition.bounded(gaussian_phi(0.5), 0.5), grid, snapshot_times=[0.5])
    assert u.diagnostics["reaction"] == v.diagnostics["reaction"] == "rk4"
    got = {
        "U_snapshots": _sha(u.snapshots),
        "U_medians": _sha(u.median_values),
        "V_snapshots": _sha(v.snapshots),
        "V_medians": _sha(v.median_values),
        "V_increments": _sha(v.increments),
    }
    assert got == FROZEN_RK4[name]
