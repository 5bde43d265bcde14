"""Tests for the decorated point process samplers.

Oracles: Poisson count means from the explicit intensity, the closed-form
void probability and rightmost-point CDF (exact because clusters are
recentred at 0), a one-atom bank that collapses the shift identity to an
elementary integral, and distributional invariances (superposability,
the symmetric stability split) at frozen seeds.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats as sps

from sbmlab.cli import load_bank, save_bank
from sbmlab.extremal import (
    ClusterBank,
    DecoratedSample,
    ExtremalError,
    cluster_shift_identity_check,
    exp_stability_check,
    rightmost_cdf,
    sample_E_infty,
    sample_E_star,
)
from sbmlab.fronts import TestFunction
from sbmlab.particles import ConditionedClusterSample, PointMeasure

SQRT2 = math.sqrt(2.0)


def toy_bank(n_clusters: int = 12) -> ClusterBank:
    """Synthetic bank of small recentred clusters with varied shapes."""
    rng = np.random.default_rng(314)
    clusters = []
    for _ in range(n_clusters):
        depth = rng.integers(1, 5)
        tail = -rng.exponential(0.8, depth - 1) if depth > 1 else np.empty(0)
        locs = np.concatenate([[0.0], tail])
        clusters.append(PointMeasure(locs, np.full(locs.size, 0.25)))
    return ClusterBank(tuple(clusters), z=0.0, t=0.0, acceptance=1.0, seed=314)


@pytest.fixture(scope="module")
def bank():
    return toy_bank()


class TestClusterBank:
    def test_empty_bank_rejected(self):
        with pytest.raises(ExtremalError):
            ClusterBank((), z=0.0, t=0.0, acceptance=1.0, seed=0)

    def test_uncentred_cluster_rejected(self):
        bad = PointMeasure(np.array([-0.5, 0.3]), np.array([1.0, 1.0]))
        with pytest.raises(ExtremalError, match="recentred"):
            ClusterBank((bad,), z=0.0, t=0.0, acceptance=1.0, seed=0)

    def test_split_is_disjoint_and_exhaustive(self, bank):
        parts = bank.split(3)
        assert sum(p.size for p in parts) == bank.size
        seen = {id(c) for p in parts for c in p.clusters}
        assert len(seen) == bank.size

    def test_from_sample_keeps_the_sample_seed(self, bank):
        sample = ConditionedClusterSample(
            clusters=bank.clusters, overshoots=np.ones(bank.size), z=0.5, t=3.0,
            attempts=4 * bank.size, seed=2718,
        )
        made = ClusterBank.from_sample(sample)
        assert (made.seed, made.z, made.t, made.acceptance) == (2718, 0.5, 3.0, 0.25)

    def test_split_more_ways_than_clusters_rejected(self, bank):
        with pytest.raises(ExtremalError):
            bank.split(bank.size + 1)


class TestSampleCounts:
    def test_poisson_count_above_level(self, bank):
        # expected count above x is C~0 * Z * e^{-sqrt(2) x}
        c0, z, floor = 0.7, 1.3, -1.0
        rng = np.random.default_rng(2024)
        counts = np.array([
            sample_E_infty(z, c0, bank, rng, x_floor=floor).count_above(0.0)
            for _ in range(3000)
        ])
        target = c0 * z
        se = math.sqrt(target / 3000)
        assert abs(counts.mean() - target) < 3.0 * se

    def test_doubling_z_doubles_counts(self, bank):
        rng = np.random.default_rng(99)
        n1 = np.array([
            sample_E_infty(1.0, 0.8, bank, rng, x_floor=-1.0).n_points
            for _ in range(3000)
        ])
        n2 = np.array([
            sample_E_infty(2.0, 0.8, bank, rng, x_floor=-1.0).n_points
            for _ in range(3000)
        ])
        se = math.sqrt(n1.var(ddof=1) / 3000 + n2.var(ddof=1) / 3000 / 4.0)
        assert abs(n2.mean() / 2.0 - n1.mean()) < 3.0 * se

    def test_shift_covariance_of_counts(self, bank):
        # counts above x + s are counts above x thinned by e^{-sqrt(2) s}
        rng = np.random.default_rng(543)
        draws = [
            sample_E_infty(1.0, 1.2, bank, rng, x_floor=-2.0) for _ in range(3000)
        ]
        above0 = np.array([d.count_above(0.0) for d in draws])
        above1 = np.array([d.count_above(1.0) for d in draws])
        factor = math.exp(-SQRT2)
        se = math.sqrt(above1.var(ddof=1) + factor**2 * above0.var(ddof=1)) / math.sqrt(3000)
        assert abs(above1.mean() - factor * above0.mean()) < 3.0 * se

    def test_void_probability_above_floor(self, bank):
        # no points at all with probability e^{-rate}
        rng = np.random.default_rng(7)
        empty = np.array([
            sample_E_infty(1.0, 1.5, bank, rng, x_floor=0.0).n_points == 0
            for _ in range(3000)
        ])
        target = math.exp(-1.5)
        se = math.sqrt(target * (1.0 - target) / 3000)
        assert abs(empty.mean() - target) < 3.0 * se

    def test_invalid_inputs_rejected(self, bank):
        with pytest.raises(ExtremalError):
            sample_E_infty(0.0, 1.0, bank, 1)
        with pytest.raises(ExtremalError):
            sample_E_infty(1.0, -2.0, bank, 1)


class TestSampleStructure:
    def test_star_variant_is_unit_weight(self, bank):
        a = sample_E_star(0.9, bank, 42, x_floor=-1.0)
        b = sample_E_infty(1.0, 0.9, bank, 42, x_floor=-1.0)
        assert np.array_equal(a.shifts, b.shifts)
        assert np.array_equal(a.measure.locations, b.measure.locations)

    def test_provenance_reconstructs_measure_exactly(self, bank):
        sample = sample_E_star(1.1, bank, 8, x_floor=-1.5)
        assert isinstance(sample, DecoratedSample)
        rebuilt = sample.reconstruct(bank)
        assert np.array_equal(rebuilt.locations, sample.measure.locations)
        assert np.array_equal(rebuilt.weights, sample.measure.weights)

    def test_zero_poisson_points_give_the_empty_measure(self, bank):
        sample = sample_E_star(1.0, bank, 5, x_floor=60.0)
        assert sample.n_points == 0
        assert sample.measure.size == 0
        assert sample.rightmost == -math.inf
        assert sample.reconstruct(bank).size == 0

    def test_matches_per_point_loop_and_reloaded_bank(self, bank, tmp_path):
        save_bank(bank, tmp_path / "bank")
        reloaded = load_bank(tmp_path / "bank")
        rng = np.random.default_rng(77)
        for _ in range(20):
            sample = sample_E_star(1.2, bank, rng, x_floor=-1.5)
            rebuilt = sample.reconstruct(reloaded)
            assert np.array_equal(rebuilt.locations, sample.measure.locations)
            assert np.array_equal(rebuilt.weights, sample.measure.weights)
            # reference: translate the clusters one Poisson point at a time
            pieces = [(bank.clusters[int(i)].locations + e, bank.clusters[int(i)].weights)
                      for e, i in zip(sample.shifts, sample.cluster_indices)]
            if pieces:
                assert np.array_equal(np.concatenate([p[0] for p in pieces]),
                                      sample.measure.locations)
                assert np.array_equal(np.concatenate([p[1] for p in pieces]),
                                      sample.measure.weights)

    def test_draws_match_frozen_digest(self, bank):
        # recorded from the per-point loop the gather replaced
        h = hashlib.sha256()
        rng = np.random.default_rng(2024)
        for _ in range(5):
            d = sample_E_star(1.3, bank, rng, x_floor=-2.0)
            for arr in (d.shifts, d.cluster_indices, d.measure.locations, d.measure.weights):
                h.update(arr.tobytes())
        assert h.hexdigest() == (
            "8e6f93720248fee2a4b3143195dbcd61710bb39e04771d05c72911d7df9bf8a2"
        )

    def test_rightmost_equals_the_measure_maximum_bit_for_bit(self):
        # tops a hair off 0, as rounding leaves them in a built bank
        clusters = tuple(
            PointMeasure(np.array([top, top - 0.3, -1.0]), np.full(3, 0.5))
            for top in (1e-10, -1e-10, 0.0, 3e-10, -7e-10)
        )
        tipped = ClusterBank(clusters, z=0.0, t=0.0, acceptance=1.0, seed=0)
        rng = np.random.default_rng(5)
        for floor in (-2.0, 0.0, 60.0):
            for _ in range(200):
                d = sample_E_star(1.0, tipped, rng, x_floor=floor)
                assert d.rightmost.hex() == d.measure.rightmost.hex()
        assert d.n_points == 0 and d.rightmost == -math.inf

    def test_measure_is_built_only_when_read(self, bank):
        d = sample_E_star(1.0, bank, 3, x_floor=-1.0)
        assert d.n_points > 0 and math.isfinite(d.rightmost)
        assert "measure" not in vars(d)
        assert d.measure is d.measure

    def test_atoms_never_exceed_the_tip_shift(self, bank):
        sample = sample_E_star(1.0, bank, 11, x_floor=-1.0)
        if sample.n_points:
            assert sample.rightmost == pytest.approx(float(sample.shifts.max()))

    def test_rightmost_cdf_matches_samples(self, bank):
        c0 = 1.5
        floor = _floor_for(c0, 200.0)
        rng = np.random.default_rng(77)
        rights = np.array([
            sample_E_star(c0, bank, rng, x_floor=floor).rightmost
            for _ in range(1500)
        ])
        ks = sps.kstest(rights, lambda x: rightmost_cdf(x, c0))
        assert ks.pvalue > 0.01

    def test_superposability_in_laplace(self, bank):
        # merging draws at Z1 and Z2 matches one draw at Z1 + Z2
        phi = TestFunction.compact_bump(center=0.0, width=1.5, height=1.0)
        z1, z2, c0 = 0.6, 1.1, 1.0
        rng = np.random.default_rng(1234)
        merged = np.empty(1500)
        joint = np.empty(1500)
        for i in range(1500):
            d1 = sample_E_infty(z1, c0, bank, rng, x_floor=-2.0)
            d2 = sample_E_infty(z2, c0, bank, rng, x_floor=-2.0)
            merged[i] = math.exp(-(d1.measure.integrate(phi.evaluate)
                                   + d2.measure.integrate(phi.evaluate)))
            d = sample_E_infty(z1 + z2, c0, bank, rng, x_floor=-2.0)
            joint[i] = math.exp(-d.measure.integrate(phi.evaluate))
        se = math.sqrt(merged.var(ddof=1) / 1500 + joint.var(ddof=1) / 1500)
        assert abs(merged.mean() - joint.mean()) < 3.0 * se


def _floor_for(total_rate: float, expected: float) -> float:
    return -math.log(expected / total_rate) / SQRT2


class TestExpStability:
    def test_nonnegative_shift_rejected(self, bank):
        with pytest.raises(ExtremalError):
            exp_stability_check(1.0, bank, 0.0, seed=1)

    def test_symmetric_split_passes_two_sample_test(self):
        # needs a roomy bank: each arm sees a disjoint third, and the
        # arm-to-arm cluster-law difference shrinks like 1/sqrt(bank)
        roomy = toy_bank(90)
        a = -math.log(2.0) / SQRT2
        phi = TestFunction.compact_bump(center=0.0, width=1.5, height=0.8)
        report = exp_stability_check(1.0, roomy, a, seed=2718, n_samples=1500,
                                     phi_panel=(phi,))
        assert report.b == pytest.approx(a)
        assert report.ks_pvalue > 0.01
        assert report.laplace_gaps[0] < 0.05

    def test_far_left_shift_contributes_nothing_above_fixed_level(self, bank):
        a = -12.0
        report = exp_stability_check(1.0, bank, a, seed=3, n_samples=400)
        # b is then essentially 0 and the split is the identity
        assert abs(report.b) < 1e-6
        assert report.ks_pvalue > 0.01


class TestShiftIdentity:
    def test_zero_test_function_gives_zero_both_sides(self, bank):
        report = cluster_shift_identity_check(TestFunction.zero(), 0.0, 1.0, bank)
        assert report.constant_ratio == 0.0
        assert report.cluster_integral == pytest.approx(0.0, abs=1e-15)
        assert report.relative_gap == 0.0

    def test_single_atom_bank_has_elementary_value(self):
        # one cluster = unit atom at 0: the integral collapses to
        # (1 - e^{-lam}) e^{-sqrt(2) a}
        bank1 = ClusterBank(
            (PointMeasure(np.array([0.0]), np.array([1.0])),),
            z=0.0, t=0.0, acceptance=1.0, seed=0,
        )
        lam, a = 0.9, 0.4
        phi = TestFunction.scaled_indicator(lam, a=a)
        report = cluster_shift_identity_check(phi, 0.0, 1.0, bank1, dx=0.005)
        target = (1.0 - math.exp(-lam)) * math.exp(-SQRT2 * a)
        assert report.cluster_integral == pytest.approx(target, rel=2e-3)

    def test_small_amplitude_scales_linearly(self, bank):
        phi = TestFunction.compact_bump(center=0.0, width=1.0, height=1.0)
        vals = []
        for lam in (0.02, 0.01):
            scaled = phi.scaled(lam)
            report = cluster_shift_identity_check(scaled, 0.0, 1.0, bank)
            vals.append(report.cluster_integral)
        assert vals[0] / vals[1] == pytest.approx(2.0, rel=0.02)
