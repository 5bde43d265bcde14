"""Per-layer timings for the `fields` workload's path estimate.

Two rows, both on the `fk` pipeline's default field (quadratic psi,
heaviside data, ``Grid1D.auto(1.0, dx=0.02, dt=0.004, pad=14.0)``, snapshots
at t = 0.5 and 1):

- ``Field.interp`` on 20,000 points between the two snapshots, the call
  ``fk_estimate`` makes at each of its path steps;
- one ``fk_estimate`` with the pipeline's defaults (r 0.5, t 1, x 0, 20,000
  paths, seed 1, path_dt 0.002).

Run from the repository root with pytest-benchmark installed:

    python -m pytest bench --benchmark-json=bench-fields.json

``bench/`` is outside the tier-1 ``testpaths``, so the test suite neither
collects nor waits for it.
"""

import numpy as np
import pytest

from sbmlab.feynman_kac import fk_estimate
from sbmlab.kpp import Grid1D, InitialCondition, solve_U
from sbmlab.mechanism import BranchingMechanism, LevyMeasure

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())


@pytest.fixture(scope="module")
def fk_field():
    grid = Grid1D.auto(1.0, dx=0.02, dt=0.004, pad=14.0)
    return solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=(0.5, 1.0))


def test_interp_20000_points_between_snapshots(benchmark, fk_field):
    # Brownian positions at time 0.5 from x = 0, as fk_estimate's paths reach them
    x = np.random.default_rng(0).normal(0.0, np.sqrt(0.5), 20_000)
    out = benchmark(fk_field.interp, 0.75, x)
    assert out.shape == x.shape


def test_fk_estimate_pipeline_defaults(benchmark, fk_field):
    res = benchmark.pedantic(
        fk_estimate,
        args=(fk_field, QUADRATIC, 0.5, 1.0, 0.0),
        kwargs={"n_paths": 20_000, "seed": 1, "path_dt": 0.002},
        rounds=7,
        iterations=1,
        warmup_rounds=1,
    )
    assert (res.mean, res.std_error) == (0.6464556602498297, 0.0022176976148456273)
