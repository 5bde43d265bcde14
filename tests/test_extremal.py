"""Tests for the decorated point process samplers.

Oracles: Poisson count means from the explicit intensity, the closed-form
void probability and rightmost-point CDF (exact because clusters are
recentred at 0), and distributional invariances (superposability, the
symmetric stability split) at frozen seeds.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats as sps

from sbmlab.cli import load_bank, save_bank
from sbmlab.extremal import (
    MAX_EXPECTED_POINTS,
    ClusterBank,
    DecoratedSample,
    ExtremalError,
    exp_stability_check,
    rightmost_cdf,
    sample_E_infty,
    sample_E_star,
    truncation_floor,
)
from sbmlab.fronts import TestFunction
from sbmlab.mechanism import BranchingMechanism
from sbmlab.particles import ConditionedClusterSample, SimConfig, sample_conditioned_clusters

SQRT2 = math.sqrt(2.0)


def bank_of(clusters, seed: int = 0) -> ClusterBank:
    """Bank of the (locations, weights) pairs in clusters, in order."""
    return ClusterBank(
        locations=np.concatenate([np.asarray(c[0], dtype=float) for c in clusters] or [np.empty(0)]),
        weights=np.concatenate([np.asarray(c[1], dtype=float) for c in clusters] or [np.empty(0)]),
        starts=np.cumsum([0] + [len(c[0]) for c in clusters]),
        z=0.0, t=0.0, acceptance=1.0, seed=seed,
    )


def cluster(bank: ClusterBank, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Cluster i of bank: its locations and weights."""
    atoms = slice(bank.starts[i], bank.starts[i + 1])
    return bank.locations[atoms], bank.weights[atoms]


def toy_bank(n_clusters: int = 12) -> ClusterBank:
    """Synthetic bank of small recentred clusters with varied shapes."""
    rng = np.random.default_rng(314)
    clusters = []
    for _ in range(n_clusters):
        depth = rng.integers(1, 5)
        tail = -rng.exponential(0.8, depth - 1) if depth > 1 else np.empty(0)
        locs = np.concatenate([[0.0], tail])
        clusters.append((locs, np.full(locs.size, 0.25)))
    return bank_of(clusters, seed=314)


@pytest.fixture(scope="module")
def bank():
    return toy_bank()


class TestClusterBank:
    def test_empty_bank_rejected(self):
        with pytest.raises(ExtremalError):
            bank_of([])

    def test_uncentred_cluster_rejected(self):
        bad = (np.array([-0.5, 0.3]), np.array([1.0, 1.0]))
        with pytest.raises(ExtremalError, match="recentred"):
            bank_of([bad])

    @pytest.mark.parametrize(
        "clusters,message",
        [
            ([([0.0], [1.0]), ([], [])], "cluster 1 is empty"),
            ([([0.0], [1.0]), ([0.0, math.nan], [1.0, 1.0])], "cluster 1 needs finite locations"),
            ([([0.0, -math.inf], [1.0, 1.0])], "cluster 0 needs finite locations"),
            ([([0.0], [1.0]), ([0.0], [1.0]), ([0.0, -1.0], [1.0, -0.5])], "cluster 2 needs finite"),
            ([([0.0], [1.0]), ([0.0], [math.nan])], "cluster 1 needs finite"),
            ([([0.0], [0.0])], "cluster 0 needs finite"),
            ([([0.0], [1.0]), ([0.0, 2e-9], [1.0, 1.0]), ([0.0], [math.inf])],
             "cluster 1 is not recentred"),
        ],
        ids=["empty", "nan-location", "inf-location", "negative-weight", "nan-weight",
             "zero-weight", "first-of-two"],
    )
    def test_bad_atoms_name_the_first_bad_cluster(self, clusters, message):
        with pytest.raises(ExtremalError, match=message):
            bank_of(clusters)

    def test_arrays_are_read_only(self, bank):
        for arr in (bank.locations, bank.weights, bank.starts, bank.tops, bank.masses):
            assert not arr.flags.writeable

    def test_engine_bank_survives_save_and_load_bit_for_bit(self, tmp_path):
        cfg = SimConfig(mech=BranchingMechanism(alpha=1.0, beta=1.0), epsilon=0.5, dt=0.025,
                        t_end=1.0, seed=21, n_replicas=1, stats_only=True)
        made = ClusterBank.from_sample(sample_conditioned_clusters(cfg, -6.0, 1.0, n_accept=30))
        save_bank(made, tmp_path / "bank")
        back = load_bank(tmp_path / "bank")
        for name in ("locations", "weights", "starts"):
            assert getattr(back, name).tobytes() == getattr(made, name).tobytes()
        assert (back.z, back.t, back.acceptance, back.seed) == (made.z, made.t, made.acceptance, 21)
        for seed in range(5):
            d, e = sample_E_star(1.3, made, seed, x_floor=-2.0), sample_E_star(1.3, back, seed, x_floor=-2.0)
            assert np.array_equal(d.cluster_indices, e.cluster_indices)
            for u, v in zip(d.atoms(), e.atoms()):
                assert u.tobytes() == v.tobytes()

    def test_split_is_disjoint_and_exhaustive(self, bank):
        parts = bank.split(3)
        assert sum(p.size for p in parts) == bank.size
        # dealt back in turn, the parts' clusters are the bank's, each once
        dealt = [cluster(parts[i % 3], i // 3) for i in range(bank.size)]
        for i, (locs, wts) in enumerate(dealt):
            assert np.array_equal(locs, cluster(bank, i)[0])
            assert np.array_equal(wts, cluster(bank, i)[1])

    def test_from_sample_keeps_the_sample_seed(self, bank):
        sample = ConditionedClusterSample(
            locations=bank.locations, weights=bank.weights, starts=bank.starts,
            overshoots=np.ones(bank.size), z=0.5, t=3.0,
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
        assert np.array_equal(a.atoms()[0], b.atoms()[0])

    def test_provenance_reconstructs_measure_exactly(self, bank):
        sample = sample_E_star(1.1, bank, 8, x_floor=-1.5)
        assert isinstance(sample, DecoratedSample)
        rebuilt = DecoratedSample(bank, sample.shifts, sample.cluster_indices, sample.x_floor).atoms()
        assert np.array_equal(rebuilt[0], sample.atoms()[0])
        assert np.array_equal(rebuilt[1], sample.atoms()[1])

    def test_zero_poisson_points_give_the_empty_measure(self, bank):
        sample = sample_E_star(1.0, bank, 5, x_floor=60.0)
        assert sample.n_points == 0
        locations, weights = sample.atoms()
        assert locations.size == 0 and weights.size == 0
        assert locations.dtype == weights.dtype == np.float64
        assert sample.rightmost == -math.inf
        assert sample.total_mass == 0.0

    def test_matches_per_point_loop_and_reloaded_bank(self, bank, tmp_path):
        save_bank(bank, tmp_path / "bank")
        reloaded = load_bank(tmp_path / "bank")
        rng = np.random.default_rng(77)
        for _ in range(20):
            sample = sample_E_star(1.2, bank, rng, x_floor=-1.5)
            locations, weights = sample.atoms()
            rebuilt = DecoratedSample(reloaded, sample.shifts, sample.cluster_indices, sample.x_floor).atoms()
            assert np.array_equal(rebuilt[0], locations)
            assert np.array_equal(rebuilt[1], weights)
            # reference: translate the clusters one Poisson point at a time
            pieces = [(cluster(bank, i)[0] + e, cluster(bank, i)[1])
                      for e, i in zip(sample.shifts, sample.cluster_indices)]
            if pieces:
                assert np.array_equal(np.concatenate([p[0] for p in pieces]), locations)
                assert np.array_equal(np.concatenate([p[1] for p in pieces]), weights)

    def test_draws_match_frozen_digest(self, bank):
        # recorded from the per-point loop the gather replaced
        h = hashlib.sha256()
        rng = np.random.default_rng(2024)
        for _ in range(5):
            d = sample_E_star(1.3, bank, rng, x_floor=-2.0)
            for arr in (d.shifts, d.cluster_indices, *d.atoms()):
                h.update(arr.tobytes())
        assert h.hexdigest() == (
            "8e6f93720248fee2a4b3143195dbcd61710bb39e04771d05c72911d7df9bf8a2"
        )

    @pytest.mark.parametrize("floor", [math.nan, -40.0, -math.inf], ids=["nan", "too-low", "-inf"])
    def test_floor_with_a_mean_past_the_cap_rejected(self, bank, floor):
        # numpy refuses each of these Poisson means with a bare ValueError
        with pytest.raises(ExtremalError, match="expects"):
            sample_E_infty(1.0, 1.0, bank, 1, x_floor=floor)

    def test_floor_for_the_largest_mean_is_drawn(self, bank):
        for c0 in (1e-3, 1.0, 7.3):
            floor = truncation_floor(c0, MAX_EXPECTED_POINTS)
            assert sample_E_star(c0, bank, 1, x_floor=floor).n_points > 0.99 * MAX_EXPECTED_POINTS

    def test_rightmost_equals_the_measure_maximum_bit_for_bit(self):
        # tops a hair off 0, as rounding leaves them in a built bank
        tipped = bank_of([
            (np.array([top, top - 0.3, -1.0]), np.full(3, 0.5))
            for top in (1e-10, -1e-10, 0.0, 3e-10, -7e-10)
        ])
        rng = np.random.default_rng(5)
        for floor in (-2.0, 0.0, 60.0):
            for _ in range(200):
                d = sample_E_star(1.0, tipped, rng, x_floor=floor)
                locations = d.atoms()[0]
                assert d.rightmost.hex() == (float(locations.max()) if locations.size else -math.inf).hex()
        assert d.n_points == 0 and d.rightmost == -math.inf

    def test_measure_is_built_only_when_read(self, bank):
        d = sample_E_star(1.0, bank, 3, x_floor=-1.0)
        assert d.n_points > 0 and math.isfinite(d.rightmost) and d.total_mass > 0
        d.atoms()
        # a draw keeps its provenance and nothing else; atoms() gathers afresh
        assert set(vars(d)) == {"bank", "shifts", "cluster_indices", "x_floor"}
        assert d.atoms()[0] is not d.atoms()[0]

    def test_total_mass_is_the_measure_mass_without_building_it(self, bank):
        # the engine's weights at epsilon 0.5: every partial sum is exact
        halves = bank_of([
            (cluster(bank, i)[0], np.full(cluster(bank, i)[0].size, 0.5)) for i in range(bank.size)
        ])
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = sample_E_star(1.0, halves, rng, x_floor=-1.5)
            assert d.total_mass == float(d.atoms()[1].sum())

    def test_total_mass_agrees_to_rounding_for_inexact_weights(self):
        rng = np.random.default_rng(15)
        tenths = bank_of([
            (np.concatenate([[0.0], -rng.exponential(1.0, n)]), np.full(n + 1, 0.1))
            for n in rng.integers(0, 40, 30)
        ])
        for _ in range(50):
            d = sample_E_star(1.0, tenths, rng, x_floor=-2.0)
            assert d.total_mass == pytest.approx(float(d.atoms()[1].sum()), rel=1e-12, abs=0.0)

    def test_atoms_never_exceed_the_tip_shift(self, bank):
        sample = sample_E_star(1.0, bank, 11, x_floor=-1.0)
        if sample.n_points:
            assert sample.rightmost == pytest.approx(float(sample.shifts.max()))

    def test_rightmost_cdf_matches_samples(self, bank):
        c0 = 1.5
        floor = truncation_floor(c0, 200.0)
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

        def integrate(d):
            locations, weights = d.atoms()
            return np.sum(weights * phi.evaluate(locations))

        rng = np.random.default_rng(1234)
        merged = np.empty(1500)
        joint = np.empty(1500)
        for i in range(1500):
            d1 = sample_E_infty(z1, c0, bank, rng, x_floor=-2.0)
            d2 = sample_E_infty(z2, c0, bank, rng, x_floor=-2.0)
            merged[i] = math.exp(-(integrate(d1) + integrate(d2)))
            d = sample_E_infty(z1 + z2, c0, bank, rng, x_floor=-2.0)
            joint[i] = math.exp(-integrate(d))
        se = math.sqrt(merged.var(ddof=1) / 1500 + joint.var(ddof=1) / 1500)
        assert abs(merged.mean() - joint.mean()) < 3.0 * se


class TestExpStability:
    def test_nonnegative_shift_rejected(self, bank):
        with pytest.raises(ExtremalError):
            exp_stability_check(1.0, bank, 0.0, seed=1)

    def test_shift_that_rounds_to_zero_rejected(self, bank):
        with pytest.raises(ExtremalError, match="too close to 0"):
            exp_stability_check(1.0, bank, -1e-20, seed=1, n_samples=10)

    def test_bank_too_small_for_disjoint_arms_rejected(self):
        with pytest.raises(ExtremalError, match="split"):
            exp_stability_check(1.0, toy_bank(2), -1.0, seed=1, n_samples=10)

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
