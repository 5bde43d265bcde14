"""Per-layer timings for the `particles` workload.

Three rows, all with quadratic psi at the workload's resolution
(epsilon 0.5, dt 0.025):

- one ``simulate`` of 256 replicas to t = 6 with ``stats_only``, the
  `simulate` pipeline's replica run at a quarter of its size (four groups);
- one ``sample_E_star`` draw on a fixed bank, read the way the `extremal`
  pipeline's draw loop reads it: the rightmost atom and the total mass of
  the decorated measure;
- one ``exp_stability_check`` of 200 samples on that bank, with no phi
  panel, as the `extremal` pipeline runs it.

The bank is the workload's: 400 clusters conditioned on
M_3 > sqrt(2) * 3 - 1.4, seed 1.  C~_0 is 1 and the draw floor puts 200
Poisson points above it on average.

Run from the repository root with pytest-benchmark installed:

    python -m pytest bench --benchmark-json=bench-particles.json

``bench/`` is outside the tier-1 ``testpaths``, so the test suite neither
collects nor waits for it.
"""

import math

import numpy as np
import pytest

from sbmlab.extremal import ClusterBank, exp_stability_check, sample_E_star
from sbmlab.mechanism import BranchingMechanism, LevyMeasure
from sbmlab.particles import SimConfig, sample_conditioned_clusters, simulate

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())
C_TILDE_0 = 1.0
FLOOR = -math.log(200.0 / C_TILDE_0) / math.sqrt(2.0)


def _config(n_replicas: int) -> SimConfig:
    return SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=6.0, seed=1,
                     n_replicas=n_replicas, stats_only=True)


@pytest.fixture(scope="module")
def bank():
    sample = sample_conditioned_clusters(_config(1), z=-1.4, t=3.0, n_accept=400)
    return ClusterBank.from_sample(sample)


def test_simulate_256_replicas(benchmark):
    res = benchmark.pedantic(simulate, args=(_config(256),), rounds=7, iterations=1,
                             warmup_rounds=1)
    assert len(res.stats) == 256


def test_sample_E_star_draw(benchmark, bank):
    rng = np.random.default_rng(1)

    def draw():
        d = sample_E_star(C_TILDE_0, bank, rng, x_floor=FLOOR)
        return d.rightmost, float(d.measure.weights.sum())

    rightmost, mass = benchmark(draw)
    assert math.isfinite(rightmost) and mass > 0.0


def test_exp_stability_check_200_samples(benchmark, bank):
    report = benchmark.pedantic(
        exp_stability_check,
        args=(C_TILDE_0, bank),
        kwargs={"a": -math.log(2.0) / math.sqrt(2.0), "seed": 1, "n_samples": 200},
        rounds=7,
        iterations=1,
        warmup_rounds=1,
    )
    assert report.n_samples == 200
