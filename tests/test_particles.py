"""Tests for the branching-particle engine.

Oracles: the closed-form mass Laplace transform and extinction
probability from the continuous-state module (exact for the limiting
process, so the particle scheme must agree within Monte Carlo error at
small epsilon), plug-in values for the derivative-martingale functional,
and distributional invariances (martingale drift, epsilon robustness,
barrier-offset robustness) at fixed seeds.  Every stochastic assertion
below was sized against a measured run; seeds are frozen so the suite
is deterministic.
"""

import hashlib
import math
import multiprocessing
import os

import numpy as np
import pytest
from scipy import stats as sps

from sbmlab import csbp
from sbmlab import particles as particles_module
from sbmlab.kpp import front_m
from sbmlab.mechanism import BranchingMechanism, LevyMeasure
from sbmlab.particles import (
    AcceptanceTooLowError,
    ConditionedClusterSample,
    ParticleCloud,
    ParticlesError,
    PointMeasure,
    SimConfig,
    derivative_martingale,
    extremal_measure,
    joint_front_stats,
    max_position,
    offspring_table,
    sample_conditioned_cluster,
    sample_conditioned_clusters,
    simulate,
)

SQRT2 = math.sqrt(2.0)
QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())
ATOMIC = BranchingMechanism(
    alpha=1.0, beta=0.6, levy=LevyMeasure.atoms(((0.3, 1.0), (0.75, 0.4)))
)


class TestPointMeasure:
    def test_empty_rightmost_is_minus_infinity(self):
        mu = PointMeasure.empty()
        assert mu.rightmost == -math.inf
        assert mu.total_mass == 0.0
        assert mu.size == 0

    def test_single_atom(self):
        mu = PointMeasure.single(3.2, 0.5)
        assert mu.rightmost == 3.2
        assert mu.total_mass == 0.5

    def test_shift_moves_atoms(self):
        mu = PointMeasure(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert mu.shifted(-0.5).rightmost == pytest.approx(0.5)
        assert mu.shifted(-0.5).total_mass == pytest.approx(3.0)

    def test_integrate_pairs_weights_with_values(self):
        mu = PointMeasure(np.array([0.0, 2.0]), np.array([1.0, 3.0]))
        assert mu.integrate(lambda x: x) == pytest.approx(6.0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ParticlesError):
            PointMeasure(np.array([0.0]), np.array([0.0]))

    def test_rejects_infinite_locations(self):
        with pytest.raises(ParticlesError):
            PointMeasure(np.array([math.inf]), np.array([1.0]))

    @pytest.mark.parametrize(
        "locations, weights",
        [([0.0, math.nan], [1.0, 1.0]), ([0.0, 1.0], [1.0, -0.5]), ([0.0, 1.0], [0.0, 1.0])],
        ids=["nan-location", "negative-weight", "zero-weight"],
    )
    def test_constructor_still_checks_atoms(self, locations, weights):
        # ClusterBank.decorate skips these checks through from_checked; the
        # public constructor must keep them
        with pytest.raises(ParticlesError):
            PointMeasure(np.array(locations), np.array(weights))


class TestCloudObservables:
    def test_max_position_of_empty_cloud(self):
        cloud = ParticleCloud(1.0, np.empty(0), 0.1)
        assert max_position(cloud) == -math.inf
        assert not cloud.alive

    def test_max_position_single_particle(self):
        cloud = ParticleCloud(1.0, np.array([3.2]), 0.1)
        assert max_position(cloud) == pytest.approx(3.2)

    def test_derivative_martingale_unit_mass_one_behind(self):
        # unit mass at sqrt(2) t - 1 contributes 1 * e^{-sqrt(2)}
        t = 2.0
        cloud = ParticleCloud(t, np.array([SQRT2 * t - 1.0]), 1.0)
        assert derivative_martingale(cloud, t) == pytest.approx(math.exp(-SQRT2))
        assert derivative_martingale(cloud, t) == pytest.approx(0.24312, abs=5e-6)

    def test_derivative_martingale_vanishes_at_the_line(self):
        t = 3.0
        cloud = ParticleCloud(t, np.array([SQRT2 * t]), 1.0)
        assert derivative_martingale(cloud, t) == pytest.approx(0.0, abs=1e-15)

    def test_extremal_measure_recenters_by_front_position(self):
        cloud = ParticleCloud(10.0, np.array([5.0, 11.0]), 0.5)
        meas = extremal_measure(cloud, 10.0)
        assert meas.rightmost == pytest.approx(11.0 - front_m(1.0, 10.0))
        assert meas.total_mass == pytest.approx(1.0)

    def test_extremal_measure_of_empty_cloud_is_empty(self):
        assert extremal_measure(ParticleCloud(5.0, np.empty(0), 0.1), 5.0).size == 0

    def test_extremal_measure_needs_positive_time(self):
        with pytest.raises(ParticlesError):
            extremal_measure(ParticleCloud(0.0, np.array([0.0]), 0.1), 0.0)


class TestOffspringTable:
    def test_quadratic_rates_split_the_linear_part(self):
        tab = offspring_table(QUADRATIC, 0.05)
        assert tab.split_rate == pytest.approx(1.0 / 0.05 + 0.5)
        assert tab.death_rate == pytest.approx(1.0 / 0.05 - 0.5)
        assert tab.jump_counts.size == 0

    def test_atom_measure_bins_preserve_mean_inflow(self):
        # ceil(0.3/0.05) = 6 and ceil(0.75/0.05) = 15, rates eps * weight
        tab = offspring_table(ATOMIC, 0.05)
        assert list(tab.jump_counts) == [6, 15]
        assert tab.jump_rates == pytest.approx([0.05 * 1.0, 0.05 * 0.4])
        m1 = float(np.sum(tab.jump_counts * tab.jump_rates))
        assert m1 == pytest.approx(0.3 * 1.0 + 0.75 * 0.4)

    def test_coarse_bins_keep_linear_coefficient_exact(self):
        # ceiling overshoot inflates m1; the drift correction absorbs it
        tab = offspring_table(ATOMIC, 0.1)
        m1 = float(np.sum(tab.jump_counts * tab.jump_rates))
        assert m1 == pytest.approx(0.62)
        assert tab.split_rate - tab.death_rate == pytest.approx(1.0 - m1)

    def test_unbounded_stable_tail_is_lumped(self):
        mech = BranchingMechanism(
            alpha=1.0, beta=0.5, levy=LevyMeasure.truncated_stable(0.2, 1.5)
        )
        tab = offspring_table(mech, 0.05)
        total = mech.levy.mass_between(0.05, math.inf) * 0.05
        assert tab.jump_rates.sum() == pytest.approx(total, rel=1e-9)
        assert tab.split_rate > 0.0 and tab.death_rate > 0.0

    def test_epsilon_too_coarse_for_heavy_jumps_raises(self):
        heavy = BranchingMechanism(
            alpha=1.0, beta=0.01, levy=LevyMeasure.atoms(((4.0, 1.0),))
        )
        with pytest.raises(ParticlesError, match="epsilon too large"):
            offspring_table(heavy, 1.0)


class TestSimConfig:
    def test_dt_above_stability_cap_rejected(self):
        with pytest.raises(ParticlesError, match="stability cap"):
            SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.02, t_end=1.0,
                      seed=1, n_replicas=1)

    def test_snapshot_beyond_horizon_rejected(self):
        with pytest.raises(ParticlesError, match="snapshot"):
            SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=1.0,
                      seed=1, n_replicas=1, snapshot_times=(2.0,))

    def test_snapshots_colliding_on_step_grid_rejected(self):
        with pytest.raises(ParticlesError, match="collide"):
            SimConfig(mech=QUADRATIC, epsilon=2.0, dt=0.1, t_end=1.0,
                      seed=1, n_replicas=1, snapshot_times=(0.26, 0.3))

    def test_barrier_requires_unit_drift(self):
        tilted = BranchingMechanism(alpha=2.0, beta=1.0)
        with pytest.raises(ParticlesError, match="unit-drift"):
            SimConfig(mech=tilted, epsilon=0.1, dt=0.004, t_end=1.0,
                      seed=1, n_replicas=1, barrier_offset=3.0)

    def test_initial_atom_lighter_than_half_particle_rejected(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.01, t_end=1.0,
                        seed=1, n_replicas=1,
                        initial=PointMeasure.single(0.0, 0.2))
        with pytest.raises(ParticlesError, match="lighter"):
            cfg.initial_positions()

    def test_t_end_appended_to_snapshots(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=1.0,
                        seed=1, n_replicas=1, snapshot_times=(0.5,))
        assert cfg.snapshot_times == (0.5, 1.0)


class TestEngineBasics:
    def test_zero_initial_measure_stays_empty(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=0.5,
                        seed=3, n_replicas=2, initial=PointMeasure.empty())
        res = simulate(cfg)
        for stats, snaps in zip(res.stats, res.clouds):
            assert not stats.survived
            assert stats.extinction_time == 0.0
            assert stats.m_path == (-math.inf,)
            assert all(not c.alive for c in snaps)

    def test_same_seed_is_bit_identical(self):
        cfg = SimConfig(mech=ATOMIC, epsilon=0.05, dt=0.002, t_end=0.3,
                        seed=9, n_replicas=8, snapshot_times=(0.1, 0.3))
        a, b = simulate(cfg), simulate(cfg)
        for sa, sb in zip(a.stats, b.stats):
            assert sa.m_path == sb.m_path
            assert sa.z_path == sb.z_path
            assert sa.mass_path == sb.mass_path
        for ca, cb in zip(a.clouds, b.clouds):
            for snap_a, snap_b in zip(ca, cb):
                assert np.array_equal(snap_a.positions, snap_b.positions)

    def test_explosion_guard_flags_and_truncates(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.05, dt=0.002, t_end=3.0,
                        seed=12, n_replicas=3, explosion_cap=60,
                        snapshot_times=(1.0, 3.0))
        res = simulate(cfg)
        exploded = [s for s in res.stats if s.exploded]
        assert exploded
        for s in exploded:
            assert s.survived
            assert math.isnan(s.m_path[-1])

    def test_replica_mass_is_particle_count_times_epsilon(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=0.2,
                        seed=4, n_replicas=3)
        res = simulate(cfg)
        for stats, snaps in zip(res.stats, res.clouds):
            assert stats.mass_path[-1] == pytest.approx(snaps[-1].total_mass)


@pytest.fixture(scope="module")
def extinction_run():
    # quadratic, t = log 2: the limiting extinction probability is e^{-2}
    cfg = SimConfig(mech=QUADRATIC, epsilon=0.02, dt=0.001, t_end=math.log(2.0),
                    seed=20250822, n_replicas=1500, stats_only=True)
    return simulate(cfg)


class TestAgainstMassOracles:
    def test_extinction_frequency_matches_closed_form(self, extinction_run):
        p = 1.0 - extinction_run.survival_frequency()
        target = math.exp(-2.0)
        se = math.sqrt(target * (1.0 - target) / len(extinction_run.stats))
        assert abs(p - target) < 3.0 * se

    def test_extinction_frequency_robust_under_epsilon_halving(self, extinction_run):
        coarse = simulate(SimConfig(mech=QUADRATIC, epsilon=0.04, dt=0.002,
                                    t_end=math.log(2.0), seed=20250823,
                                    n_replicas=1500, stats_only=True))
        p_fine = 1.0 - extinction_run.survival_frequency()
        p_coarse = 1.0 - coarse.survival_frequency()
        se = math.sqrt(2.0 * 0.135 * 0.865 / 1500)
        assert abs(p_fine - p_coarse) < 3.0 * se

    def test_mass_laplace_quadratic(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.02, dt=0.001, t_end=0.5,
                        seed=7, n_replicas=1000, stats_only=True)
        res = simulate(cfg)
        for theta in (0.5, 1.0, 2.0):
            est, se = res.mass_laplace_estimate(theta)
            exact = csbp.mass_laplace(QUADRATIC, theta, 0.5)
            assert abs(est - exact) < 3.0 * se

    def test_mass_laplace_with_jumps(self):
        # end-to-end check of the binned offspring law against the
        # continuous-state transform for a mechanism with two jump atoms
        cfg = SimConfig(mech=ATOMIC, epsilon=0.02, dt=0.0008, t_end=0.5,
                        seed=11, n_replicas=1000, stats_only=True)
        res = simulate(cfg)
        for theta in (0.5, 1.0, 2.0):
            est, se = res.mass_laplace_estimate(theta)
            exact = csbp.mass_laplace(ATOMIC, theta, 0.5)
            assert abs(est - exact) < 3.0 * se

    def test_derivative_martingale_has_no_drift(self):
        # started from unit mass at -1 the expected value stays e^{-sqrt(2)}
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.04, dt=0.002, t_end=0.5,
                        seed=23, n_replicas=1500, stats_only=True,
                        initial=PointMeasure.single(-1.0, 1.0))
        res = simulate(cfg)
        z = res.z_values()
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - math.exp(-SQRT2)) < 3.0 * se


class TestFrontTracking:
    def test_speed_band_at_t_twenty(self):
        # measured once at this seed: mean M/t = 1.281, inside the band
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.01, t_end=20.0,
                        seed=101, n_replicas=60, stats_only=True,
                        barrier_offset=5.0)
        res = simulate(cfg)
        m = res.m_values()
        m = m[np.isfinite(m)]
        assert m.size >= 20
        assert 1.25 <= float(np.mean(m / 20.0)) <= 1.45

    def test_front_law_stable_under_barrier_offset(self):
        out = {}
        for L in (5.0, 7.0):
            cfg = SimConfig(mech=QUADRATIC, epsilon=0.2, dt=0.01, t_end=10.0,
                            seed=55, n_replicas=300, stats_only=True,
                            barrier_offset=L)
            m = simulate(cfg).m_values()
            out[L] = m[np.isfinite(m)]
        ks = sps.ks_2samp(out[5.0], out[7.0])
        assert ks.pvalue > 0.01
        assert abs(np.median(out[5.0]) - np.median(out[7.0])) < 0.5


@pytest.fixture(scope="module")
def small_cluster_sample():
    cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=6.0,
                    seed=606, n_replicas=64, stats_only=True,
                    barrier_offset=4.0)
    return sample_conditioned_clusters(cfg, 0.0, 6.0, n_accept=25)


class TestConditionedClusters:
    def test_clusters_are_recentred_at_their_tip(self, small_cluster_sample):
        assert isinstance(small_cluster_sample, ConditionedClusterSample)
        assert len(small_cluster_sample.clusters) == 25
        for cluster in small_cluster_sample.clusters:
            assert cluster.rightmost == pytest.approx(0.0, abs=1e-12)

    def test_overshoots_are_positive_with_workable_acceptance(self, small_cluster_sample):
        assert np.all(small_cluster_sample.overshoots > 0.0)
        assert 0.0 < small_cluster_sample.acceptance <= 1.0
        assert small_cluster_sample.attempts >= 25
        assert small_cluster_sample.seed == 606

    def test_single_draw_wrapper(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=6.0,
                        seed=607, n_replicas=64, stats_only=True,
                        barrier_offset=4.0)
        delta, overshoot = sample_conditioned_cluster(cfg, 0.0, 6.0)
        assert delta.rightmost == pytest.approx(0.0, abs=1e-12)
        assert overshoot > 0.0

    def test_hopeless_conditioning_raises(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=4.0,
                        seed=608, n_replicas=64, stats_only=True,
                        barrier_offset=4.0)
        with pytest.raises(AcceptanceTooLowError):
            sample_conditioned_clusters(cfg, 8.0, 4.0, n_accept=5, max_attempts=256)


class TestJointFrontStats:
    def test_zero_test_function_gives_unit_laplace(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.2, dt=0.01, t_end=8.0,
                        seed=77, n_replicas=40, stats_only=True,
                        barrier_offset=4.0)
        report = joint_front_stats(cfg, lambda x: np.zeros_like(x),
                                   t_ladder=(4.0, 8.0))
        assert report.laplace_values == pytest.approx((1.0, 1.0))
        assert report.laplace_target is None

    def test_report_shape_with_compact_bump(self):
        from sbmlab.fronts import TestFunction

        cfg = SimConfig(mech=QUADRATIC, epsilon=0.2, dt=0.01, t_end=8.0,
                        seed=78, n_replicas=40, stats_only=True,
                        barrier_offset=4.0)
        phi = TestFunction.compact_bump(center=0.0, width=2.0, height=1.0)
        report = joint_front_stats(cfg, phi, t_ladder=(4.0, 8.0), c_phi=0.5)
        assert report.t_values == (4.0, 8.0)
        assert all(n > 0 for n in report.n_used)
        assert all(-1.0 <= c <= 1.0 for c in report.correlations)
        assert all(0.0 < v <= 1.0 for v in report.laplace_values)
        assert report.laplace_target == pytest.approx(math.exp(-0.5))
        assert len(report.laplace_gaps) == 2


# ---------------------------------------------------------------------------
# frozen random streams
#
# Digests of every replica's paths, flags and cloud positions, recorded
# from the per-replica engine that marched one replica at a time.  The
# engine must reproduce them bit for bit however it lays out the work.


def _digest(result) -> str:
    h = hashlib.sha256()
    for s in result.stats:
        h.update(np.asarray(s.m_path + s.z_path + s.mass_path, dtype=float).tobytes())
        ext = math.nan if s.extinction_time is None else s.extinction_time
        h.update(np.array([ext, float(s.exploded), float(s.survived)]).tobytes())
    for snaps in result.clouds or ():
        for cloud in snaps:
            h.update(np.array([cloud.time, cloud.count]).tobytes())
            h.update(cloud.positions.tobytes())
    return h.hexdigest()


FROZEN = {
    "quadratic": (
        dict(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=1.0, seed=1, n_replicas=5,
             snapshot_times=(0.5, 1.0)),
        "6d70344c4d1a10a5a360f6537ecf244e8c0c981e370cef61fac2f109366d3318",
    ),
    "atoms": (
        dict(mech=ATOMIC, epsilon=0.05, dt=0.002, t_end=0.5, seed=9, n_replicas=6,
             snapshot_times=(0.2, 0.5)),
        "2a00abd2126647894525f6d7c27ff916ec9248bbb75bff57b037605aad5d49fe",
    ),
    "barrier": (
        dict(mech=QUADRATIC, epsilon=0.2, dt=0.01, t_end=4.0, seed=55, n_replicas=6,
             barrier_offset=3.0, snapshot_times=(1.0, 2.5, 4.0)),
        "4eff512f306b676d26fe5d00c05c8321304101e8e8c891926816c238bc27d5ee",
    ),
    "explosion": (
        dict(mech=QUADRATIC, epsilon=0.05, dt=0.002, t_end=3.0, seed=12, n_replicas=6,
             explosion_cap=60, snapshot_times=(1.0, 2.0, 3.0)),
        "aa2269fd24c08346113e071caef3efef49a2356258d8c11bd18565d6871488a3",
    ),
    "empty": (
        dict(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=0.5, seed=3, n_replicas=3,
             initial=PointMeasure.empty()),
        "54b55e8430350d0d3ba356ddb0b8a232b2cca4f5223f41a257475b23e1843e79",
    ),
    "groups": (
        dict(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=2.0, seed=5, n_replicas=150,
             snapshot_times=(1.0, 2.0),
             initial=PointMeasure(np.array([0.0, -0.5]), np.array([1.0, 0.5]))),
        "d1e59ff0cb54df75cf621445c1b9261152017473c1e4e118657a02cbec44cc6b",
    ),
}


class TestFrozenStreams:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_replicas_match_frozen_digest(self, name):
        kwargs, digest = FROZEN[name]
        assert _digest(simulate(SimConfig(**kwargs))) == digest

    @pytest.mark.parametrize("name", ["groups", "barrier", "atoms"])
    @pytest.mark.parametrize("replicas,particles", [(1, 1), (3, 40), (16, 1 << 30)])
    def test_group_layout_does_not_change_the_streams(self, monkeypatch, name, replicas, particles):
        # tiny groups and eager halving march the replicas in many layouts
        monkeypatch.setattr(particles_module, "_GROUP_REPLICAS", replicas)
        monkeypatch.setattr(particles_module, "_GROUP_PARTICLES", particles)
        kwargs, digest = FROZEN[name]
        assert _digest(simulate(SimConfig(**kwargs))) == digest

    def test_frozen_values_in_the_clear(self):
        res = simulate(SimConfig(**FROZEN["quadratic"][0]))
        assert res.stats[0].m_path == (1.3828673264077782, 1.0073468669440018)
        assert [s.extinction_time for s in res.stats] == [None, None, 0.405, 0.755, None]

    def test_explosion_mid_run_is_never_marked_extinct(self):
        res = simulate(SimConfig(**FROZEN["explosion"][0]))
        assert [s.exploded for s in res.stats] == [True] * 5 + [False]
        # replica 3 trips the cap between the first two snapshots
        assert res.stats[3].m_path[0] == 1.61088251626685
        assert all(math.isnan(v) for v in res.stats[3].m_path[1:])
        assert len(res.clouds[3]) == 1
        for s in res.stats[:5]:
            assert s.extinction_time is None and s.survived
        assert res.stats[5].extinction_time == 1.118
        assert res.stats[5].m_path[1:] == (-math.inf, -math.inf)

    def test_replica_stats_do_not_depend_on_n_replicas(self):
        kwargs = dict(FROZEN["atoms"][0], snapshot_times=(0.2, 0.5))
        few = simulate(SimConfig(**dict(kwargs, n_replicas=3)))
        many = simulate(SimConfig(**dict(kwargs, n_replicas=70)))
        for a, b in zip(few.stats, many.stats[:3]):
            assert (a.replica, a.m_path, a.z_path, a.mass_path) == (
                b.replica, b.m_path, b.z_path, b.mass_path)
            assert (a.extinction_time, a.exploded) == (b.extinction_time, b.exploded)
        for ca, cb in zip(few.clouds, many.clouds[:3]):
            for snap_a, snap_b in zip(ca, cb):
                assert np.array_equal(snap_a.positions, snap_b.positions)


# ---------------------------------------------------------------------------
# worker processes

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"),
    reason="groups march in worker processes only where fork and CPU affinity exist",
)


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@needs_fork
class TestWorkerProcesses:
    def test_pool_path_equals_serial_path(self, monkeypatch):
        kwargs, digest = FROZEN["groups"]
        _cpus(monkeypatch, 2)
        pooled = simulate(SimConfig(**kwargs))
        _cpus(monkeypatch, 1)
        serial = simulate(SimConfig(**kwargs))
        assert pooled.diagnostics == {"groups": 3, "workers": 2}
        assert serial.diagnostics == {"groups": 3, "workers": 1}
        assert pooled.clouds is not None
        assert _digest(pooled) == _digest(serial) == digest

    def test_one_group_marches_in_process(self, monkeypatch):
        _cpus(monkeypatch, 2)
        res = simulate(SimConfig(**FROZEN["quadratic"][0]))
        assert res.diagnostics == {"groups": 1, "workers": 1}

    def test_no_worker_outlives_simulate(self, monkeypatch):
        _cpus(monkeypatch, 2)
        res = simulate(SimConfig(**FROZEN["groups"][0]))
        assert res.diagnostics["workers"] == 2
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_the_cluster_bank(self, monkeypatch):
        _cpus(monkeypatch, 2)
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=1.0, seed=21,
                        n_replicas=1, stats_only=True)
        # 100 accepted clusters take batches of 100 replicas: two groups each
        sample = sample_conditioned_clusters(cfg, -6.0, 1.0, n_accept=100)
        assert len(sample.clusters) == 100
        assert multiprocessing.active_children() == []

    def test_a_failing_worker_stops_the_pool(self, monkeypatch):
        def fail(*args):
            raise ParticlesError("group failed")

        _cpus(monkeypatch, 2)
        # the forked workers inherit the patched march
        monkeypatch.setattr(particles_module, "_march", fail)
        with pytest.raises(ParticlesError, match="group failed"):
            simulate(SimConfig(**FROZEN["groups"][0]))
        assert multiprocessing.active_children() == []
