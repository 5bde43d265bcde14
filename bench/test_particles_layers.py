"""Per-layer timings for the `particles` workload.

Seven rows with quadratic psi, six of them at the workload's resolution
(epsilon 0.5, dt 0.025):

- one ``simulate`` of 256 replicas to t = 6 with ``stats_only``, the
  `simulate` pipeline's replica run at a quarter of its size (four groups);
- one ``simulate`` of 60 replicas to t = 10 at epsilon 0.2, dt 0.01 with a
  barrier at offset 5: one group, which from t = 1 on gives every particle
  a position at every step, as ``TestFrontTracking`` in the test suite does;
- one ``sample_E_star`` draw on a fixed bank, read the way the `extremal`
  pipeline's draw loop reads it: the rightmost atom and the total mass,
  both from the bank's per-cluster tops and masses, with no decorated
  measure built;
- one ``exp_stability_check`` of 200 samples on that bank, with no phi
  panel, as the `extremal` pipeline runs it;
- one ``sample_conditioned_clusters`` that builds the bank, as the
  `simulate` pipeline's ``bank`` stage does;
- one ``save_bank`` of that bank and one ``load_bank`` of what it wrote,
  the `simulate` pipeline's last step and the `extremal` pipeline's first.

Two rows on the workload's whole pipelines (quiet, seed 1, the CLI's
artifacts written):

- one `simulate` ``run_pipeline`` of 1000 replicas to t = 6 at the
  workload's resolution with its 400-cluster bank, pinning the bytes of
  ``replicas.csv``, ``snapshots.csv``, ``mt_cdf.csv`` and
  ``bank/clusters.csv``;
- one `extremal` ``run_pipeline`` of 2000 draws with 200 expected points
  and a stability check on 1000 pairs, reading the bank above as
  ``save_bank`` writes it, with C~_0 1, pinning the bytes of
  ``samples.csv``, ``rightmost_cdf.csv`` and ``stability.json``.

The bank is the workload's: 400 clusters conditioned on
M_3 > sqrt(2) * 3 - 1.4, seed 1.  C~_0 is 1 and the draw floor puts 200
Poisson points above it on average.

Run from the repository root with pytest-benchmark installed (the ``bench``
extra: ``pip install -e .[bench]``):

    python -m pytest bench --benchmark-json=bench-particles.json

``bench/`` is outside the tier-1 ``testpaths``, so the test suite neither
collects nor waits for it.
"""

import math

import numpy as np
import pytest

from sbmlab.cli import load_bank, save_bank
from sbmlab.extremal import ClusterBank, exp_stability_check, sample_E_star, truncation_floor
from sbmlab.mechanism import BranchingMechanism, LevyMeasure
from sbmlab.particles import SimConfig, sample_conditioned_clusters, simulate

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())
C_TILDE_0 = 1.0
FLOOR = truncation_floor(C_TILDE_0, 200.0)
BANK = {"z": -1.4, "t": 3.0, "n_accept": 400}


def _config(n_replicas: int) -> SimConfig:
    return SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=6.0, seed=1,
                     n_replicas=n_replicas, stats_only=True)


@pytest.fixture(scope="module")
def bank():
    sample = sample_conditioned_clusters(_config(1), **BANK)
    return ClusterBank.from_sample(sample)


def test_simulate_256_replicas(benchmark):
    res = benchmark.pedantic(simulate, args=(_config(256),), rounds=7, iterations=1,
                             warmup_rounds=1)
    assert res.m.shape == (256, 1)


def test_simulate_barrier_60_replicas(benchmark):
    config = SimConfig(mech=QUADRATIC, epsilon=0.2, dt=0.01, t_end=10.0, seed=55, n_replicas=60,
                       stats_only=True, barrier_offset=5.0)
    res = benchmark.pedantic(simulate, args=(config,), rounds=7, iterations=1, warmup_rounds=1)
    assert res.m.shape == (60, 1)


def test_sample_E_star_draw(benchmark, bank):
    rng = np.random.default_rng(1)

    def draw():
        d = sample_E_star(C_TILDE_0, bank, rng, x_floor=FLOOR)
        return d.rightmost, d.total_mass

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


def test_sample_conditioned_clusters_400(benchmark):
    sample = benchmark.pedantic(
        sample_conditioned_clusters,
        args=(_config(1),),
        kwargs=BANK,
        rounds=7,
        iterations=1,
        warmup_rounds=1,
    )
    assert sample.starts.size - 1 == 400


def test_save_bank(benchmark, bank, tmp_path):
    csv_path, _ = benchmark.pedantic(save_bank, args=(bank, tmp_path / "bank"), rounds=15,
                                     iterations=1, warmup_rounds=1)
    assert csv_path.stat().st_size > 0


def test_load_bank(benchmark, bank, tmp_path):
    save_bank(bank, tmp_path / "bank")
    loaded = benchmark.pedantic(load_bank, args=(tmp_path / "bank",), rounds=15, iterations=1,
                                warmup_rounds=1)
    assert loaded.size == bank.size


def test_simulate_pipeline_workload_config(run_quiet):
    data = {"seed": 1, "replicas": 1000,
            "simulate": {"epsilon": 0.5, "dt": 0.025, "t_end": 6.0, "bank": BANK}}
    digests = run_quiet("simulate", data, ("replicas.csv", "snapshots.csv", "mt_cdf.csv", "bank/clusters.csv"))
    assert digests == [
        "4e7270996cd13cb7e7d2cda0f77e08b57b11a0920b09a674b909dd158e76a0d1",
        "11f7d4f1a671a5c5e56063cae70d80cfd2dc34d8c314bcdb0b84df7e44602817",
        "9c1f179ed667db0e52250bdccfb41b4f34016fcba3e8c05781f4eda168ff345e",
        "9709fa66a5b27f0cd00ff365ca88488d02e3342e5c446e3a1a93358c6b29a7c2",
    ]


def test_extremal_pipeline_workload_config(run_quiet, bank, tmp_path):
    save_bank(bank, tmp_path / "bank")
    data = {
        "seed": 1,
        "replicas": 2000,
        "extremal": {"c_tilde_0": C_TILDE_0, "bank": str(tmp_path / "bank"), "expected_points": 200.0,
                     "stability": {"n_samples": 1000}},
    }
    digests = run_quiet("extremal", data, ("samples.csv", "rightmost_cdf.csv", "stability.json"))
    assert digests == [
        "3056a98269f8fef617e2fb3342c05121d5382551ea7b501992c65366c07ebeda",
        "cb7c652d1ddd6bf653298606b215c2e78488e2cf73424beb97358153ea1ca2cf",
        "07483cb9af69085ca669debadc006fb2e0b56ec910da391f1906650d16eb1135",
    ]
