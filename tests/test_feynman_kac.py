"""Tests for the path-integral Monte Carlo module.

Oracles:
- with the growth factor forced to 1 the path functional has the closed form
  e^(t-r) * (heat kernel smoothing of u(r, .)), computable by quadrature;
- r = t short-circuits to reading the field.

Monte Carlo comparisons use 3 standard errors.
"""

import math

import numpy as np
import pytest

from sbmlab.feynman_kac import PathExitedFieldError, fk_estimate
from sbmlab.kpp import Grid1D, InitialCondition, solve_U
from sbmlab.mechanism import BranchingMechanism, LevyMeasure

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())


@pytest.fixture(scope="module")
def heaviside_field_t1():
    grid = Grid1D.auto(t_end=1.0, dx=0.05, dt=0.01)
    times = [round(0.05 * k, 2) for k in range(21)]
    return solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=times)


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

    def test_path_leaving_the_grid_names_the_padding(self, heaviside_field_t1):
        x = heaviside_field_t1.grid.x[-1] - 0.05
        with pytest.raises(PathExitedFieldError, match="padding"):
            fk_estimate(heaviside_field_t1, QUADRATIC, r=0.5, t=1.0, x=x, n_paths=100, seed=0)
