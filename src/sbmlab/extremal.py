"""Decorated Poisson point process samplers for the limiting front measures.

The limit objects are superpositions of clusters: Poisson points e_j on
the line with intensity proportional to sqrt(2) e^{-sqrt(2) x} dx, each
carrying an independent copy of a cluster measure translated by e_j.
Clusters come from a bank of conditioned samples produced by the particle
engine (each recentered so its rightmost atom sits at 0).

The intensity integrates to infinity toward -infinity, so samples are
truncated at a floor.  All functional comparisons here use test functions
vanishing left of some a, and a floor at or below a makes the truncation
exact rather than approximate; the default floor is instead chosen so the
expected point count is a configured size, which is convenient for count
statistics.

Bank reuse makes draws dependent through the shared clusters, so any
two-sample comparison splits the bank into disjoint parts, one per arm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kpp import SQRT2
from .particles import NEG_INF, ConditionedClusterSample, PointMeasure

DEFAULT_EXPECTED_POINTS = 1000.0


class ExtremalError(ValueError):
    """Invalid inputs for the decorated-process samplers."""


@dataclass(frozen=True, eq=False)
class ClusterBank:
    """Read-only collection of recentred clusters with their provenance.

    Every cluster's rightmost atom must sit at 0 (within rounding); z and
    t record the conditioning level and horizon the clusters were drawn
    at, acceptance the rejection rate observed while building the bank.
    """

    clusters: tuple[PointMeasure, ...]
    z: float
    t: float
    acceptance: float
    seed: int

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ExtremalError("cluster bank must not be empty")
        for i, cluster in enumerate(self.clusters):
            if cluster.size == 0 or abs(cluster.rightmost) > 1e-9:
                raise ExtremalError(
                    f"cluster {i} is not recentred at its rightmost atom"
                )

    @classmethod
    def from_sample(cls, sample: ConditionedClusterSample) -> "ClusterBank":
        return cls(
            clusters=sample.clusters,
            z=sample.z,
            t=sample.t,
            acceptance=sample.acceptance,
            seed=sample.seed,
        )

    @property
    def size(self) -> int:
        return len(self.clusters)

    @functools.cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All atoms in one array: (locations, weights, first atom, atom count) per cluster."""
        sizes = np.array([c.size for c in self.clusters])
        starts = np.cumsum(sizes) - sizes
        locs = np.concatenate([c.locations for c in self.clusters])
        wts = np.concatenate([c.weights for c in self.clusters])
        return locs, wts, starts, sizes

    @functools.cached_property
    def _tops(self) -> np.ndarray:
        """Each cluster's rightmost atom."""
        return np.array([c.rightmost for c in self.clusters])

    @functools.cached_property
    def _masses(self) -> np.ndarray:
        """Each cluster's total mass."""
        return np.array([c.total_mass for c in self.clusters])

    def rightmost(self, shifts: np.ndarray, indices: np.ndarray) -> float:
        """Rightmost atom of decorate(shifts, indices), -inf when there is none.

        Rounded addition is monotone, so the largest translated atom of a
        cluster is its translated top: this equals the maximum over every
        atom of the decorated measure bit for bit, without building it.
        """
        if indices.size == 0:
            return NEG_INF
        return float(np.max(self._tops[indices] + shifts))

    def total_mass(self, indices: np.ndarray) -> float:
        """Total mass of decorate(shifts, indices) for any shifts, without building it.

        The sum runs cluster by cluster, so it equals the measure's own sum
        up to rounding, and exactly when all weights are one power of two,
        as with epsilon = 0.5.
        """
        return float(self._masses[indices].sum())

    def decorate(self, shifts: np.ndarray, indices: np.ndarray) -> PointMeasure:
        """Union of clusters indices[j] translated by shifts[j], in that order."""
        if indices.size == 0:
            return PointMeasure.empty()
        locs, wts, starts, sizes = self._flat
        n_atoms = sizes[indices]
        first = np.cumsum(n_atoms) - n_atoms
        gather = np.arange(int(n_atoms.sum())) + np.repeat(starts[indices] - first, n_atoms)
        # the bank's clusters were validated when it was built
        return PointMeasure.from_checked(locs[gather] + np.repeat(shifts, n_atoms), wts[gather])

    def split(self, n_parts: int = 2) -> tuple["ClusterBank", ...]:
        """Disjoint interleaved sub-banks, one per arm of a comparison."""
        if n_parts < 2 or n_parts > self.size:
            raise ExtremalError("cannot split the bank that many ways")
        return tuple(
            ClusterBank(self.clusters[k::n_parts], self.z, self.t,
                        self.acceptance, self.seed)
            for k in range(n_parts)
        )


@dataclass(frozen=True, eq=False)
class DecoratedSample:
    """One draw of the decorated process above its truncation floor.

    shifts and cluster_indices record, per point, the translation e_j and
    which cluster of bank decorates it.  measure, the union of those
    clusters translated by their points, is built on first access; the
    rightmost atom and the total mass are read from the bank's per-cluster
    tops and masses without it.
    """

    bank: ClusterBank
    shifts: np.ndarray
    cluster_indices: np.ndarray
    x_floor: float

    @functools.cached_property
    def measure(self) -> PointMeasure:
        return self.bank.decorate(self.shifts, self.cluster_indices)

    @property
    def n_points(self) -> int:
        return int(self.shifts.size)

    @property
    def rightmost(self) -> float:
        return self.bank.rightmost(self.shifts, self.cluster_indices)

    @property
    def total_mass(self) -> float:
        return self.bank.total_mass(self.cluster_indices)

    def count_above(self, x: float) -> int:
        """Number of Poisson points (not atoms) above level x."""
        return int(np.sum(self.shifts > x))


def truncation_floor(total_rate: float, expected: float = DEFAULT_EXPECTED_POINTS) -> float:
    """Floor above which total_rate * sqrt(2) e^{-sqrt(2) x} dx has mass ``expected``."""
    return -math.log(expected / total_rate) / SQRT2


def sample_E_infty(
    Z: float,
    C_tilde_0: float,
    bank: ClusterBank,
    seed,
    x_floor: float | None = None,
) -> DecoratedSample:
    """One decorated draw with intensity C_tilde_0 * Z * sqrt(2) e^{-sqrt(2) x} dx.

    seed may be an integer or a Generator, so callers drawing panels can
    stream draws from one generator without reseeding.
    """
    if not (Z > 0.0 and math.isfinite(Z)):
        raise ExtremalError("Z must be positive and finite")
    if not (C_tilde_0 > 0.0 and math.isfinite(C_tilde_0)):
        raise ExtremalError("C_tilde_0 must be positive and finite")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    total = C_tilde_0 * Z
    floor = truncation_floor(total) if x_floor is None else float(x_floor)
    rate_above = total * math.exp(-SQRT2 * floor)
    n = int(rng.poisson(rate_above))
    # tail of the intensity is exponential with rate sqrt(2)
    shifts = floor + rng.exponential(1.0 / SQRT2, n)
    indices = rng.integers(0, bank.size, n)
    return DecoratedSample(bank, shifts, indices, floor)


def sample_E_star(
    C_tilde_0: float,
    bank: ClusterBank,
    seed,
    x_floor: float | None = None,
) -> DecoratedSample:
    """The normalized variant: unit martingale weight."""
    return sample_E_infty(1.0, C_tilde_0, bank, seed, x_floor)


def rightmost_cdf(x, C_tilde_0: float, Z: float = 1.0):
    """P(rightmost decorated atom <= x): exp(-C_tilde_0 Z e^{-sqrt(2) x}).

    Exact above the truncation floor because every cluster's rightmost
    atom is 0, so the sample's maximum is the maximum Poisson point.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-C_tilde_0 * Z * np.exp(-SQRT2 * x))


# ---------------------------------------------------------------------------
# exp-sqrt(2) stability


@dataclass(frozen=True, eq=False)
class ExpStabilityReport:
    """Two-sample comparison of M against T_a M + T_b M-hat.

    ks_statistic and ks_pvalue compare rightmost points; laplace_gaps are
    relative gaps of the empirical Laplace functionals over the phi panel.
    """

    a: float
    b: float
    n_samples: int
    ks_statistic: float
    ks_pvalue: float
    laplace_one: tuple[float, ...]
    laplace_two: tuple[float, ...]
    laplace_gaps: tuple[float, ...]


def exp_stability_check(
    C_tilde_0: float,
    bank: ClusterBank,
    a: float,
    seed,
    n_samples: int = 2000,
    phi_panel=(),
) -> ExpStabilityReport:
    """Check that a split into an a-shifted and a b-shifted copy is neutral.

    b solves e^{sqrt(2) a} + e^{sqrt(2) b} = 1, which needs a < 0.  One
    arm draws the plain process, the other superposes two independent
    draws shifted by a and b; the bank is split three ways so the arms
    share no clusters, and a bank of fewer than three clusters raises
    ExtremalError.  Every draw is truncated where 200 points are expected.
    Rightmost points are compared by a two-sample KS test, and the
    empirical Laplace functionals over phi_panel by their relative gaps.
    """
    if not a < 0.0:
        raise ExtremalError("the shift a must be negative")
    b = math.log(1.0 - math.exp(SQRT2 * a)) / SQRT2
    bank_one, bank_a, bank_b = bank.split(3)
    rng = np.random.default_rng(seed)
    floor = truncation_floor(C_tilde_0, 200.0)
    phis = [p.evaluate if hasattr(p, "evaluate") else p for p in phi_panel]

    right_one = np.empty(n_samples)
    right_two = np.empty(n_samples)
    lap_one = np.zeros((len(phis), n_samples))
    lap_two = np.zeros((len(phis), n_samples))
    for i in range(n_samples):
        plain = sample_E_star(C_tilde_0, bank_one, rng, floor)
        part_a = sample_E_star(C_tilde_0, bank_a, rng, floor - a)
        part_b = sample_E_star(C_tilde_0, bank_b, rng, floor - b)
        right_one[i] = plain.rightmost
        right_two[i] = max(part_a.rightmost + a, part_b.rightmost + b)
        for k, phi in enumerate(phis):
            lap_one[k, i] = plain.measure.integrate(phi)
            from_a = part_a.measure.integrate(lambda y: phi(y + a))
            lap_two[k, i] = from_a + part_b.measure.integrate(lambda y: phi(y + b))
    # imported at its one use, so that no other pipeline pays for loading
    # scipy.stats when the CLI starts
    from scipy import stats

    ks = stats.ks_2samp(right_one, right_two)
    l_one = tuple(float(np.mean(np.exp(-row))) for row in lap_one)
    l_two = tuple(float(np.mean(np.exp(-row))) for row in lap_two)
    gaps = tuple(abs(u - v) / v for u, v in zip(l_one, l_two))
    return ExpStabilityReport(
        a=float(a),
        b=float(b),
        n_samples=n_samples,
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        laplace_one=l_one,
        laplace_two=l_two,
        laplace_gaps=gaps,
    )
