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

import dataclasses
import hashlib
import math
import multiprocessing
import os

import numpy as np
import pytest
from scipy import stats as sps

from sbmlab import csbp
from sbmlab import particles as particles_module
from sbmlab.kpp import Grid1D, InitialCondition, solve_U
from sbmlab.mechanism import BranchingMechanism, LevyMeasure, flow_map
from sbmlab.particles import (
    AcceptanceTooLowError,
    ConditionedClusterSample,
    ParticlesError,
    SimConfig,
    offspring_table,
    sample_conditioned_clusters,
    simulate,
)

SQRT2 = math.sqrt(2.0)
QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())
ATOMIC = BranchingMechanism(
    alpha=1.0, beta=0.6, levy=LevyMeasure.atoms(((0.3, 1.0), (0.75, 0.4)))
)


class TestCloudObservables:
    def test_derivative_martingale_unit_mass_one_behind(self):
        # unit mass at sqrt(2) t - 1 contributes 1 * e^{-sqrt(2)}
        t = 2.0
        z = float(np.sum(particles_module._z_terms(np.array([SQRT2 * t - 1.0]), t)))
        assert z == pytest.approx(math.exp(-SQRT2))
        assert z == pytest.approx(0.24312, abs=5e-6)

    def test_derivative_martingale_vanishes_at_the_line(self):
        t = 3.0
        z = float(np.sum(particles_module._z_terms(np.array([SQRT2 * t]), t)))
        assert z == pytest.approx(0.0, abs=1e-15)


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
        total = mech.levy.moment_between(0, 0.05, math.inf) * 0.05
        assert tab.jump_rates.sum() == pytest.approx(total, rel=1e-9)
        assert tab.split_rate > 0.0 and tab.death_rate > 0.0

    def test_epsilon_too_coarse_for_heavy_jumps_raises(self):
        heavy = BranchingMechanism(
            alpha=1.0, beta=0.01, levy=LevyMeasure.atoms(((4.0, 1.0),))
        )
        with pytest.raises(ParticlesError, match="epsilon too large"):
            offspring_table(heavy, 1.0)


class TestSimConfig:
    def test_steps_past_the_cap_rejected(self):
        with pytest.raises(ParticlesError, match="dt 1e-07 makes 80000000 steps to t_end 8, above the cap"):
            SimConfig(mech=QUADRATIC, epsilon=0.1, dt=1e-7, t_end=8.0, seed=1, n_replicas=1)

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
                      seed=1, n_replicas=1, snapshot_times=(0.3, 0.1 * 3))

    def test_snapshot_order_does_not_matter(self):
        configs = [
            SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=2.0,
                      seed=1, n_replicas=1, snapshot_times=times)
            for times in ((2.0, 1.0), (1.0, 2.0), (1.0,))
        ]
        assert all(c.snapshot_times == (1.0, 2.0) for c in configs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParticlesError, match="seed"):
            SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=1.0, seed=-1, n_replicas=1)

    @pytest.mark.parametrize(
        "times", [{"t_end": 2.01}, {"t_end": 2.0, "snapshot_times": (1.013,)}], ids=["t_end", "snapshot"]
    )
    def test_off_grid_times_rejected(self, times):
        with pytest.raises(ParticlesError, match="not a whole number of steps of 0.025"):
            SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, seed=1, n_replicas=1, **times)

    def test_barrier_requires_unit_drift(self):
        tilted = BranchingMechanism(alpha=2.0, beta=1.0)
        with pytest.raises(ParticlesError, match="unit-drift"):
            SimConfig(mech=tilted, epsilon=0.1, dt=0.004, t_end=1.0,
                      seed=1, n_replicas=1, barrier_offset=3.0)

    def test_initial_atom_lighter_than_half_particle_rejected(self):
        with pytest.raises(ParticlesError, match="lighter"):
            SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.01, t_end=1.0,
                      seed=1, n_replicas=1, initial=((0.0, 0.2),))

    @pytest.mark.parametrize(
        "atom",
        [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, 0.0), (1.0, -0.5), (0.0, math.nan)],
        ids=["nan-location", "inf-location", "-inf-location", "zero-weight", "negative-weight", "nan-weight"],
    )
    def test_bad_initial_atoms_rejected(self, atom):
        with pytest.raises(ParticlesError, match="initial"):
            SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=1.0,
                      seed=1, n_replicas=1, initial=((0.0, 1.0), atom))

    def test_rejects_nonpositive_weights(self):
        # a measure made of one non-positive atom alone, with no good atom beside it
        for weight in (0.0, -1.0):
            with pytest.raises(ParticlesError, match="initial"):
                SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=1.0,
                          seed=1, n_replicas=1, initial=((0.0, weight),))

    def test_initial_measure_over_the_explosion_cap_rejected(self):
        # 100 particles against a cap of 99, refused before they are made
        with pytest.raises(ParticlesError, match="100 particles exceeds explosion_cap 99"):
            SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=1.0, seed=1, n_replicas=1,
                      initial=((0.0, 30.0), (-1.0, 20.0)), explosion_cap=99)
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=1.0, seed=1, n_replicas=1,
                        initial=((0.0, 30.0), (-1.0, 19.5)), explosion_cap=99)
        assert cfg.initial_positions().tolist() == [0.0] * 60 + [-1.0] * 39

    def test_t_end_appended_to_snapshots(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=1.0,
                        seed=1, n_replicas=1, snapshot_times=(0.5,))
        assert cfg.snapshot_times == (0.5, 1.0)


class TestEngineBasics:
    def test_zero_initial_measure_stays_empty(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=0.5,
                        seed=3, n_replicas=2, initial=())
        res = simulate(cfg)
        assert not res.survived.any()
        assert np.array_equal(res.extinction_time, [0.0, 0.0])
        assert np.array_equal(res.m, [[-math.inf], [-math.inf]])
        for snaps in res.clouds:
            assert all(c.size == 0 for c in snaps)

    def test_same_seed_is_bit_identical(self):
        cfg = SimConfig(mech=ATOMIC, epsilon=0.05, dt=0.002, t_end=0.3,
                        seed=9, n_replicas=8, snapshot_times=(0.1, 0.3))
        a, b = simulate(cfg), simulate(cfg)
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.mass, b.mass)
        for ca, cb in zip(a.clouds, b.clouds):
            for snap_a, snap_b in zip(ca, cb):
                assert np.array_equal(snap_a, snap_b)

    def test_explosion_guard_flags_and_truncates(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.05, dt=0.002, t_end=3.0,
                        seed=12, n_replicas=3, explosion_cap=60,
                        snapshot_times=(1.0, 3.0))
        res = simulate(cfg)
        assert res.exploded.any()
        assert res.survived[res.exploded].all()
        assert np.isnan(res.m[res.exploded, -1]).all()

    def test_an_exploding_replica_never_holds_far_more_than_the_cap(self, monkeypatch):
        # every array of particles passes through _counts; none may hold much
        # more than the cap for one replica, though the mean grows to 2 e^12
        largest = []
        counts = particles_module._counts

        def spy(owner, n):
            c = counts(owner, n)
            largest.append(int(c.max(initial=0)))
            return c

        monkeypatch.setattr(particles_module, "_counts", spy)
        res = simulate(SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=12.0, seed=3,
                                 n_replicas=20, stats_only=True, explosion_cap=500))
        assert np.count_nonzero(res.exploded) >= 10
        assert max(largest) <= 3 * 500

    def test_result_arrays_are_read_only(self):
        res = simulate(SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=0.2,
                                 seed=4, n_replicas=3, snapshot_times=(0.1, 0.2)))
        assert res.times == (0.1, 0.2)
        assert res.m.shape == res.z.shape == res.mass.shape == (3, 2)
        assert res.extinction_time.shape == res.exploded.shape == (3,)
        for column in (res.m, res.z, res.mass, res.extinction_time, res.exploded):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_replica_mass_is_particle_count_times_epsilon(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=0.2,
                        seed=4, n_replicas=3)
        res = simulate(cfg)
        for mass, snaps in zip(res.mass[:, -1], res.clouds):
            assert mass == pytest.approx(cfg.epsilon * snaps[-1].size)


class TestEventCounts:
    def _final_count(self, res, cfg) -> int:
        return round(float(np.sum(res.mass[:, -1])) / cfg.epsilon)

    def test_counts_balance_the_population(self):
        cfg = SimConfig(mech=ATOMIC, epsilon=0.05, dt=0.002, t_end=0.5, seed=9, n_replicas=40,
                        stats_only=True)
        res = simulate(cfg)
        d = res.diagnostics
        assert not res.exploded.any()
        assert d["pruned"] == d["barrier_emptied"] == 0
        assert d["splits"] > 0 and d["deaths"] > 0
        assert d["jump_copies"] > d["jumps"] > 0
        n0 = cfg.initial_positions().size
        assert 40 * n0 + d["splits"] + d["jump_copies"] - d["deaths"] == self._final_count(res, cfg)

    def test_pruned_particles_close_the_balance(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.2, dt=0.01, t_end=4.0, seed=55, n_replicas=40,
                        stats_only=True, barrier_offset=3.0)
        res = simulate(cfg)
        d = res.diagnostics
        assert not res.exploded.any()
        assert d["pruned"] > 0 and d["jumps"] == d["jump_copies"] == 0
        extinct = np.count_nonzero(~res.survived)
        assert 0 < d["barrier_emptied"] <= extinct
        n0 = cfg.initial_positions().size
        assert (40 * n0 + d["splits"] - d["deaths"] - d["pruned"]) == self._final_count(res, cfg)


@pytest.fixture(scope="module")
def extinction_run():
    # quadratic, t = 0.693, the step of dt 0.001 nearest log 2: the limiting
    # extinction probability is exp(-v_bar(0.693)) = 0.13530, near e^{-2}
    cfg = SimConfig(mech=QUADRATIC, epsilon=0.02, dt=0.001, t_end=0.693,
                    seed=20250822, n_replicas=1500, stats_only=True)
    return simulate(cfg)


class TestAgainstMassOracles:
    def test_extinction_frequency_matches_closed_form(self, extinction_run):
        p = 1.0 - extinction_run.survived.mean()
        target = csbp.extinction_prob(QUADRATIC, t=0.693).prob
        se = math.sqrt(target * (1.0 - target) / extinction_run.survived.size)
        assert abs(p - target) < 3.0 * se

    def test_extinction_frequency_robust_under_epsilon_halving(self, extinction_run):
        coarse = simulate(SimConfig(mech=QUADRATIC, epsilon=0.04, dt=0.002,
                                    t_end=0.694, seed=20250823,
                                    n_replicas=1500, stats_only=True))
        p_fine = 1.0 - extinction_run.survived.mean()
        p_coarse = 1.0 - coarse.survived.mean()
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
                        initial=((-1.0, 1.0),))
        res = simulate(cfg)
        z = res.z[:, -1]
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - math.exp(-SQRT2)) < 3.0 * se


class TestExactRightmostLaw:
    def test_front_law_matches_the_branching_brownian_oracle(self):
        # with quadratic psi the engine is a branching Brownian motion from
        # N = 1/epsilon particles at 0, each splitting at rate b and dying at
        # rate b - alpha.  So P(M_t <= x) = (1 - p(t, x))^N, where
        # p_t = p_xx/2 + alpha p - b p^2 from 1_{x<0} (McKean 1975): one
        # solve_U with the mechanism (alpha, b).  The grid moves the oracle
        # by about 1.8e-3 at x = 3 (0.6493 here, 0.6484 at dx 0.01 and
        # dt 0.000625, about 0.6475 from an independent march), a quarter
        # of a standard error here.
        eps, t, n = 0.1, 3.0, 4000
        split = offspring_table(QUADRATIC, eps).split_rate
        grid = Grid1D.auto(t, dx=0.02, dt=0.0025)
        p = solve_U(BranchingMechanism(alpha=1.0, beta=split), InitialCondition.heaviside(), grid)
        xs = np.arange(6.0)
        oracle = (1.0 - p.interp(t, xs)) ** round(1.0 / eps)
        res = simulate(SimConfig(mech=QUADRATIC, epsilon=eps, dt=0.01, t_end=t,
                                 seed=31, n_replicas=n, stats_only=True))
        m = res.m[:, -1]
        assert not np.isnan(m).any()
        empirical = np.array([np.mean(m <= x) for x in xs])
        se = np.sqrt(oracle * (1.0 - oracle) / n)
        assert oracle[3] == pytest.approx(0.6493, abs=1e-4)
        assert np.all(np.abs(empirical - oracle) < 4.0 * se)

    def test_front_given_the_cloud_at_s_matches_the_oracle(self):
        # the same branching Brownian motion, seen at s = 1 and t = 3: given
        # the particles x_j alive at s, P(M_t <= y | F_s) is
        # U(y) = prod_j (1 - p(t - s, y - x_j)), and its value at y = -inf,
        # P(extinct by t | F_s) = (1 - a)^n with a = p(t - s, -inf) from the
        # logistic flow a' = alpha a - b a^2, a(0) = 1.  So U(M_t), with U
        # drawn uniformly on [0, P(extinct by t | F_s)] for a replica that
        # dies out by t, is Uniform(0, 1) exactly; measured KS p 0.767 and
        # mean 0.4960 (s.e. 0.0065)
        eps, s, t, n = 0.1, 1.0, 3.0, 2000
        split = offspring_table(QUADRATIC, eps).split_rate
        bbm = BranchingMechanism(alpha=1.0, beta=split)
        p = solve_U(bbm, InitialCondition.heaviside(), Grid1D.auto(t - s, dx=0.02, dt=0.0025, pad=30.0))
        alive = float(flow_map(bbm, t - s)(1.0))
        res = simulate(SimConfig(mech=QUADRATIC, epsilon=eps, dt=0.01, t_end=t,
                                 seed=31, n_replicas=n, snapshot_times=(s, t)))
        m = res.m[:, -1]
        assert not np.isnan(m).any()
        rng = np.random.default_rng(31)
        u = np.empty(n)
        for i, (clouds, top) in enumerate(zip(res.clouds, m)):
            x = clouds[0]
            if top == -math.inf:
                u[i] = rng.uniform(0.0, (1.0 - alive) ** x.size)
            else:
                u[i] = np.prod(1.0 - p.interp(t - s, top - x))
        assert 500 < np.count_nonzero(m == -math.inf) < 900
        assert sps.kstest(u, "uniform").pvalue > 0.01
        assert abs(u.mean() - 0.5) < 4.0 / math.sqrt(12.0 * n)


class TestSteppedLaw:
    def test_mean_population_follows_the_stepped_law(self):
        # epsilon 1 gives N0 = 1 and rates 1.5 (split) and 0.5 (death), so
        # rate * dt = 0.2.  Each step multiplies the mean population by
        # 1 + (1.5 - 0.5) * 0.1 = 1.1: 1.1**30 = 17.45 at t = 3, where the
        # continuous process has e^3 = 20.09.  At seeds 5-7 the mean sat
        # +1.7, -0.8 and +1.0 standard errors from the first and -7.2,
        # -10.1 and -8.1 from the second
        n = 6000
        cfg = SimConfig(mech=QUADRATIC, epsilon=1.0, dt=0.1, t_end=3.0, seed=5, n_replicas=n,
                        stats_only=True)
        assert (cfg.table.split_rate, cfg.table.death_rate) == (1.5, 0.5)
        pop = simulate(cfg).mass[:, -1]
        se = pop.std(ddof=1) / math.sqrt(n)
        assert abs(pop.mean() - 1.1 ** 30) < 4.0 * se
        assert abs(pop.mean() - math.exp(3.0)) > 4.0 * se


class TestBarrierWalk:
    def test_walk_matches_a_step_by_step_loop(self):
        # particles of five replicas walk from random steps and positions
        # near the line; the loop moves each one step at a time with its
        # replica's normals, in the engine's order, and notes its first
        # step below the line
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.2, dt=0.01, t_end=3.0, seed=1, n_replicas=1,
                        barrier_offset=0.5)
        law = particles_module._Law(cfg)
        rng = np.random.default_rng(4)
        seeds = np.random.SeedSequence(9).spawn(5)
        owner = np.sort(rng.integers(0, 5, 400))
        born = rng.integers(150, 200, owner.size)
        to = born + rng.integers(0, 40, owner.size)
        x = law.levels[200] + rng.normal(0.5, 0.6, owner.size)
        group = particles_module._Group(owner, x, born, to + 5)
        x_end, cut = particles_module._walk(law, particles_module._Streams(seeds), group, to, 5)
        want_x, want_cut = x.copy(), np.zeros(owner.size, dtype=np.int64)
        for k, seed in enumerate(seeds):
            child = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (1,))
            z = iter(np.random.default_rng(child).standard_normal(int((to - born)[owner == k].sum())))
            for i in np.flatnonzero(owner == k):
                for step in range(born[i] + 1, to[i] + 1):
                    want_x[i] += math.sqrt(cfg.dt) * next(z)
                    if want_cut[i] == 0 and want_x[i] < law.levels[step]:
                        want_cut[i] = step
        assert 50 < np.count_nonzero(want_cut) < 350
        assert np.array_equal(cut, want_cut)
        kept = want_cut == 0
        assert np.allclose(x_end[kept], want_x[kept], rtol=0.0, atol=1e-12)


class TestFrontTracking:
    def test_speed_band_at_t_twenty(self):
        # measured once at this seed: mean M/t = 1.255 (s.e. 0.017), inside the band
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.01, t_end=20.0,
                        seed=101, n_replicas=60, stats_only=True,
                        barrier_offset=5.0)
        res = simulate(cfg)
        m = res.m[:, -1]
        m = m[np.isfinite(m)]
        assert m.size >= 20
        assert 1.25 <= float(np.mean(m / 20.0)) <= 1.45

    def test_front_law_stable_under_barrier_offset(self):
        out = {}
        for L in (5.0, 7.0):
            cfg = SimConfig(mech=QUADRATIC, epsilon=0.2, dt=0.01, t_end=10.0,
                            seed=55, n_replicas=300, stats_only=True,
                            barrier_offset=L)
            m = simulate(cfg).m[:, -1]
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
        assert small_cluster_sample.starts.size - 1 == 25
        tops = np.maximum.reduceat(small_cluster_sample.locations, small_cluster_sample.starts[:-1])
        for top in tops:
            assert top == pytest.approx(0.0, abs=1e-12)

    def test_overshoots_are_positive_with_workable_acceptance(self, small_cluster_sample):
        assert np.all(small_cluster_sample.overshoots > 0.0)
        assert 0.0 < small_cluster_sample.acceptance <= 1.0
        assert small_cluster_sample.attempts >= 25
        assert small_cluster_sample.seed == 606

    def test_hopeless_conditioning_raises(self):
        cfg = SimConfig(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=4.0,
                        seed=608, n_replicas=64, stats_only=True,
                        barrier_offset=4.0)
        with pytest.raises(AcceptanceTooLowError):
            sample_conditioned_clusters(cfg, 8.0, 4.0, n_accept=5, max_attempts=256)


# ---------------------------------------------------------------------------
# frozen random streams
#
# Digests of every replica's paths, flags and cloud positions, recorded
# from the engine that marches each particle from event to event.  The
# engine must reproduce them bit for bit however it lays out the work:
# group sizes, draw buffers and worker processes.


def _digest(result) -> str:
    # per replica its m, z and mass rows, then [extinction time or nan,
    # exploded, survived]; then per cloud [time, count] and its positions
    h = hashlib.sha256()
    flags = np.column_stack((result.extinction_time, result.exploded, result.survived)).astype(float)
    for paths, row in zip(np.hstack((result.m, result.z, result.mass)), flags):
        h.update(paths.tobytes())
        h.update(row.tobytes())
    for snaps in result.clouds or ():
        for t, positions in zip(result.times, snaps):
            h.update(np.array([t, positions.size]).tobytes())
            h.update(positions.tobytes())
    return h.hexdigest()


FROZEN = {
    "quadratic": (
        dict(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=1.0, seed=1, n_replicas=5,
             snapshot_times=(0.5, 1.0)),
        "16def8a7c8ba8f88d23960e0b8e36f49a5cdc99bdc3b6a2be367b78337bebb27",
    ),
    "atoms": (
        dict(mech=ATOMIC, epsilon=0.05, dt=0.002, t_end=0.5, seed=9, n_replicas=6,
             snapshot_times=(0.2, 0.5)),
        "6bf56d4692acde800bcc3330e6beeaf3a24cdd72062930a4f14f5db4854eaf1b",
    ),
    "barrier": (
        dict(mech=QUADRATIC, epsilon=0.2, dt=0.01, t_end=4.0, seed=55, n_replicas=6,
             barrier_offset=3.0, snapshot_times=(1.0, 2.5, 4.0)),
        "4a21aabdd2512745530859abad3db38a5d99c79dc7655fdd92eac91f164f2b30",
    ),
    "explosion": (
        dict(mech=QUADRATIC, epsilon=0.05, dt=0.002, t_end=3.0, seed=12, n_replicas=6,
             explosion_cap=60, snapshot_times=(1.0, 2.0, 3.0)),
        "d04f5d9d4fd7274fc48d24064641f8bb515988706839237889e632093bd0a2be",
    ),
    "empty": (
        dict(mech=QUADRATIC, epsilon=0.1, dt=0.005, t_end=0.5, seed=3, n_replicas=3,
             initial=()),
        "54b55e8430350d0d3ba356ddb0b8a232b2cca4f5223f41a257475b23e1843e79",
    ),
    "groups": (
        dict(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=2.0, seed=5, n_replicas=150,
             snapshot_times=(1.0, 2.0),
             initial=((0.0, 1.0), (-0.5, 0.5))),
        "5f363fadc6a74fba278388c912d0a09ef9582243a662bdacfd67bb25c3fb457c",
    ),
}


class TestFrozenStreams:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_replicas_match_frozen_digest(self, name):
        kwargs, digest = FROZEN[name]
        assert _digest(simulate(SimConfig(**kwargs))) == digest

    @pytest.mark.parametrize("name", ["groups", "barrier", "atoms"])
    @pytest.mark.parametrize(
        "replicas,buffer", [(1, 1), (3, 7), (64, particles_module._BUFFER_DRAWS)]
    )
    def test_group_layout_does_not_change_the_streams(self, monkeypatch, name, replicas, buffer):
        # tiny groups and buffers march and draw in many layouts: a buffer of
        # one draw refills, or reads past itself, on nearly every take
        monkeypatch.setattr(particles_module, "_GROUP_REPLICAS", replicas)
        monkeypatch.setattr(particles_module, "_BUFFER_DRAWS", buffer)
        kwargs, digest = FROZEN[name]
        assert _digest(simulate(SimConfig(**kwargs))) == digest

    def test_frozen_values_in_the_clear(self):
        res = simulate(SimConfig(**FROZEN["quadratic"][0]))
        assert res.m[0].tolist() == [0.5439335171321195, 1.1730388555962665]
        assert np.array_equal(res.extinction_time, [math.nan] * 4 + [0.55], equal_nan=True)

    def test_explosion_mid_run_is_never_marked_extinct(self):
        res = simulate(SimConfig(**FROZEN["explosion"][0]))
        assert res.exploded.tolist() == [True] * 3 + [False] + [True] * 2
        # replica 2 trips the cap between the first two snapshots
        assert res.m[2, 0] == 1.2134595108505046
        assert np.isnan(res.m[2, 1:]).all()
        assert len(res.clouds[2]) == 1
        assert res.survived.tolist() == [True] * 3 + [False] + [True] * 2
        assert res.extinction_time[3] == 0.79
        assert res.m[3, 1:].tolist() == [-math.inf, -math.inf]

    def test_replica_stats_do_not_depend_on_n_replicas(self):
        kwargs = dict(FROZEN["atoms"][0], snapshot_times=(0.2, 0.5))
        few = simulate(SimConfig(**dict(kwargs, n_replicas=3)))
        many = simulate(SimConfig(**dict(kwargs, n_replicas=70)))
        for name in ("m", "z", "mass", "extinction_time", "exploded"):
            assert np.array_equal(getattr(few, name), getattr(many, name)[:3], equal_nan=True)
        for ca, cb in zip(few.clouds, many.clouds[:3]):
            for snap_a, snap_b in zip(ca, cb):
                assert np.array_equal(snap_a, snap_b)


class TestDrawBuffers:
    @pytest.mark.parametrize("buffer", [1, 7, particles_module._BUFFER_DRAWS])
    @pytest.mark.parametrize("stream,kind", [(0, "clocks"), (1, "moves"), (2, "kinds")])
    def test_two_takes_read_what_one_take_reads(self, monkeypatch, stream, kind, buffer):
        monkeypatch.setattr(particles_module, "_BUFFER_DRAWS", buffer)
        seeds = np.random.SeedSequence(3).spawn(3)

        def read(takes):
            draws = getattr(particles_module._Streams(seeds), kind)
            parts = [[], [], []]
            for counts in takes:
                counts = np.array(counts)
                out = draws.take(counts)
                for k, part in enumerate(np.split(out, np.cumsum(counts)[:-1])):
                    parts[k].append(part)
            return [np.concatenate(p) for p in parts]

        split = read([(5, 0, 300), (2, 9, 1), (0, 40, 3)])
        whole = read([(7, 49, 304)])
        for k, seed in enumerate(seeds):
            assert np.array_equal(split[k], whole[k])
            # replica k reads child (k, stream) of the seed, spawned from its key
            child = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (stream,))
            rng = np.random.default_rng(child)
            n = whole[k].size
            direct = rng.standard_normal(n) if kind == "moves" else rng.random(n)
            assert np.array_equal(whole[k], direct)


# ---------------------------------------------------------------------------
# worker processes

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"),
    reason="groups march in worker processes only where fork and CPU affinity exist",
)


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _layout(result) -> dict:
    return {k: result.diagnostics[k] for k in ("groups", "workers")}


def _events(result) -> dict:
    return {k: v for k, v in result.diagnostics.items() if k not in ("groups", "workers")}


@needs_fork
class TestWorkerProcesses:
    def test_pool_path_equals_serial_path(self, monkeypatch):
        kwargs, digest = FROZEN["groups"]
        _cpus(monkeypatch, 2)
        pooled = simulate(SimConfig(**kwargs))
        _cpus(monkeypatch, 1)
        serial = simulate(SimConfig(**kwargs))
        assert _layout(pooled) == {"groups": 3, "workers": 2}
        assert _layout(serial) == {"groups": 3, "workers": 1}
        assert _events(pooled) == _events(serial)
        assert pooled.clouds is not None
        assert _digest(pooled) == _digest(serial) == digest

    def test_one_group_marches_in_process(self, monkeypatch):
        _cpus(monkeypatch, 2)
        res = simulate(SimConfig(**FROZEN["quadratic"][0]))
        assert _layout(res) == {"groups": 1, "workers": 1}

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
        assert sample.starts.size - 1 == 100
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


def _batchwise_clusters(config, z, t, n_accept, max_attempts):
    """The sampler as one simulate call per rejection batch: the reference."""
    level = SQRT2 * t + z
    batch = max(64, min(4096, n_accept))
    base = dataclasses.replace(
        config, t_end=t, snapshot_times=(t,), stats_only=False, n_replicas=batch
    )
    clusters, overshoots = [], []
    attempts = k = 0
    while len(clusters) < n_accept:
        if attempts >= max_attempts:
            raise AcceptanceTooLowError(
                f"{len(clusters)} accepted in {attempts} attempts "
                f"(acceptance about {(len(clusters) + 1) / (attempts + 1):.2e})"
            )
        result = simulate(
            dataclasses.replace(base, seed=particles_module._batch_seed(config.seed, k))
        )
        k += 1
        attempts += batch
        for exploded, snaps in zip(result.exploded, result.clouds):
            if exploded or not snaps or not snaps[-1].size:
                continue
            m = snaps[-1].max()
            if m > level:
                clusters.append(snaps[-1] - m)
                overshoots.append(m - level)
                if len(clusters) == n_accept:
                    break
    return clusters, overshoots, attempts


# 100 clusters take batches of 100 replicas, a group of 64 and one of 36;
# each case's last used group is pinned by its diagnostics
STREAM_CASES = {
    # the first group of the second batch fills the sample
    "mid-batch": (21, -6.0, {"batches": 2, "groups": 3}),
    # the last group of the tenth batch fills it
    "batch-boundary": (24, 0.45, {"batches": 10, "groups": 20}),
}


def _stream_config(seed: int) -> SimConfig:
    return SimConfig(mech=QUADRATIC, epsilon=0.5, dt=0.025, t_end=1.0, seed=seed,
                     n_replicas=1, stats_only=True)


@needs_fork
class TestStreamedSampler:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_stream_equals_batch_by_batch_simulate(self, monkeypatch, case, cpus):
        seed, z, used = STREAM_CASES[case]
        _cpus(monkeypatch, cpus)
        cfg = _stream_config(seed)
        sample = sample_conditioned_clusters(cfg, z, 1.0, n_accept=100, max_attempts=20_000)
        assert multiprocessing.active_children() == []
        assert sample.diagnostics == dict(used, workers=cpus)
        clusters, overshoots, attempts = _batchwise_clusters(cfg, z, 1.0, 100, 20_000)
        assert sample.attempts == attempts == 100 * used["batches"]
        assert np.array_equal(sample.overshoots, np.array(overshoots))
        assert sample.starts.size - 1 == len(clusters)
        assert np.array_equal(sample.starts, np.cumsum([0] + [c.size for c in clusters]))
        assert np.array_equal(sample.locations, np.concatenate(clusters))
        assert np.array_equal(sample.weights, np.full(sample.locations.size, 0.5))

    @pytest.mark.parametrize("cpus", [1, 2])
    # three batches of 64 start before 150 attempts are reached, none before 0
    @pytest.mark.parametrize("max_attempts,attempts", [(150, 192), (0, 0)])
    def test_exhausted_attempts_give_the_batchwise_error(
        self, monkeypatch, cpus, max_attempts, attempts
    ):
        _cpus(monkeypatch, cpus)
        cfg = _stream_config(608)
        with pytest.raises(AcceptanceTooLowError) as streamed:
            sample_conditioned_clusters(cfg, 8.0, 1.0, n_accept=5, max_attempts=max_attempts)
        assert multiprocessing.active_children() == []
        with pytest.raises(AcceptanceTooLowError) as batchwise:
            _batchwise_clusters(cfg, 8.0, 1.0, 5, max_attempts)
        assert str(streamed.value) == str(batchwise.value)
        assert f"0 accepted in {attempts} attempts" in str(streamed.value)

    def test_a_failing_worker_stops_the_sampler(self, monkeypatch):
        def fail(*args):
            raise ParticlesError("group failed")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(particles_module, "_march", fail)
        with pytest.raises(ParticlesError, match="group failed"):
            sample_conditioned_clusters(_stream_config(21), -6.0, 1.0, n_accept=100)
        assert multiprocessing.active_children() == []
