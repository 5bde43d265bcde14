"""Decorated Poisson point process samplers for the limiting front measures.

The limit objects are superpositions of clusters: Poisson points e_j on
the line with intensity proportional to sqrt(2) e^{-sqrt(2) x} dx, each
carrying an independent copy of a cluster measure translated by e_j.
Clusters come from a bank of conditioned samples produced by the particle
engine (each recentered so its rightmost atom sits at 0), held as one
record of flat atom arrays that the sampler fills and the CLI saves.  A
draw is its Poisson points and their clusters' indices; its atoms come
out as the same kind of arrays, (locations, weights), when asked for.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .kpp import SQRT2
from .particles import NEG_INF, ConditionedClusterSample

DEFAULT_EXPECTED_POINTS = 1000.0
# the largest Poisson mean a draw takes: the CLI refuses more expected points
MAX_EXPECTED_POINTS = 1e6


class ExtremalError(ValueError):
    """Invalid inputs for the decorated-process samplers."""


@dataclass(frozen=True, eq=False)
class ClusterBank:
    """Read-only collection of recentred clusters with their provenance.

    The atoms sit in flat arrays, cluster by cluster: cluster i is
    locations[starts[i]:starts[i + 1]] with the same slice of weights.
    Building the bank checks every atom once (no empty cluster, finite
    locations, finite positive weights, each cluster's rightmost atom at 0
    within 1e-9; the first cluster that fails raises ExtremalError) and
    computes tops and masses, each cluster's rightmost atom and total mass,
    from which a draw reads its own.  split and DecoratedSample.atoms
    collect the atoms of chosen clusters through one gather.  z and t
    record the conditioning level and horizon the clusters were drawn at,
    acceptance the rejection rate observed while building it.
    """

    locations: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    z: float
    t: float
    acceptance: float
    seed: int
    tops: np.ndarray = field(init=False, repr=False)
    masses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        locs = np.asarray(self.locations, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        starts = np.asarray(self.starts, dtype=np.int64)
        if starts.ndim != 1 or starts.size < 2:
            raise ExtremalError("cluster bank must not be empty")
        if locs.ndim != 1 or locs.shape != wts.shape or starts[0] != 0 or starts[-1] != locs.size:
            raise ExtremalError("starts must run from 0 to the atom count of matching 1-d arrays")
        empty = np.diff(starts) <= 0
        if empty.any():
            raise ExtremalError(f"cluster {int(np.argmax(empty))} is empty")
        firsts = starts[:-1]
        tops = np.maximum.reduceat(locs, firsts)
        bad_atom = ~(np.isfinite(locs) & np.isfinite(wts) & (wts > 0.0))
        # a NaN or infinite top fails the comparison too
        bad = np.logical_or.reduceat(bad_atom, firsts) | ~(np.abs(tops) <= 1e-9)
        if bad.any():
            i = int(np.argmax(bad))
            if bad_atom[starts[i]:starts[i + 1]].any():
                raise ExtremalError(f"cluster {i} needs finite locations and finite positive weights")
            raise ExtremalError(f"cluster {i} is not recentred at its rightmost atom")
        arrays = {"locations": locs, "weights": wts, "starts": starts,
                  "tops": tops, "masses": np.add.reduceat(wts, firsts)}
        for name, arr in arrays.items():
            arr = arr.view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_sample(cls, sample: ConditionedClusterSample) -> "ClusterBank":
        return cls(
            locations=sample.locations, weights=sample.weights, starts=sample.starts,
            z=sample.z, t=sample.t, acceptance=sample.acceptance, seed=sample.seed,
        )

    @property
    def size(self) -> int:
        return self.starts.size - 1

    def _gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The atom positions of clusters indices, in that order, and each one's atom count."""
        first = self.starts[indices]
        n_atoms = self.starts[indices + 1] - first
        offsets = np.cumsum(n_atoms) - n_atoms
        return np.arange(int(n_atoms.sum())) + np.repeat(first - offsets, n_atoms), n_atoms

    def rightmost(self, shifts: np.ndarray, indices: np.ndarray) -> float:
        """Rightmost atom of the clusters indices[j] translated by shifts[j], -inf when there is none.

        Rounded addition is monotone, so the largest translated atom of a
        cluster is its translated top: this equals the maximum over every
        translated atom bit for bit, without gathering them.
        """
        if indices.size == 0:
            return NEG_INF
        return float(np.max(self.tops[indices] + shifts))

    def total_mass(self, indices: np.ndarray) -> float:
        """Total mass of the clusters indices, however translated, without gathering their atoms.

        The sum runs cluster by cluster, so it equals the sum over the
        gathered weights up to rounding, and exactly when all weights are
        one power of two, as with epsilon = 0.5.
        """
        return float(self.masses[indices].sum())

    def split(self, n_parts: int = 2) -> tuple["ClusterBank", ...]:
        """Disjoint interleaved sub-banks, one per arm of a comparison.

        Part k holds clusters k, k + n_parts, k + 2 n_parts, ... in order.
        """
        if n_parts < 2 or n_parts > self.size:
            raise ExtremalError("cannot split the bank that many ways")
        parts = (self._gather(np.arange(k, self.size, n_parts)) for k in range(n_parts))
        return tuple(
            ClusterBank(self.locations[atoms], self.weights[atoms], np.cumsum([0, *n_atoms]),
                        self.z, self.t, self.acceptance, self.seed)
            for atoms, n_atoms in parts
        )


@dataclass(frozen=True, eq=False)
class DecoratedSample:
    """One draw of the decorated process above its truncation floor.

    shifts and cluster_indices record, per point, the translation e_j and
    which cluster of bank decorates it; the draw stores nothing else.
    atoms() gathers the union of those clusters translated by their points
    on each call; the rightmost atom and the total mass are read from the
    bank's per-cluster tops and masses without it.
    """

    bank: ClusterBank
    shifts: np.ndarray
    cluster_indices: np.ndarray
    x_floor: float

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Locations and weights of clusters cluster_indices[j] translated by shifts[j], in that order."""
        atoms, n_atoms = self.bank._gather(self.cluster_indices)
        return self.bank.locations[atoms] + np.repeat(self.shifts, n_atoms), self.bank.weights[atoms]

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
    stream draws from one generator without reseeding.  A floor whose
    expected point count is not finite or above MAX_EXPECTED_POINTS raises
    ExtremalError.
    """
    if not (Z > 0.0 and math.isfinite(Z)):
        raise ExtremalError("Z must be positive and finite")
    if not (C_tilde_0 > 0.0 and math.isfinite(C_tilde_0)):
        raise ExtremalError("C_tilde_0 must be positive and finite")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    total = C_tilde_0 * Z
    floor = truncation_floor(total) if x_floor is None else float(x_floor)
    rate_above = total * math.exp(-SQRT2 * floor)
    # truncation_floor(total, MAX_EXPECTED_POINTS) comes back within a few ulps of it
    if not rate_above <= MAX_EXPECTED_POINTS * (1.0 + 1e-9):
        raise ExtremalError(
            f"floor {floor:g} expects {rate_above:.4g} points, above the cap of {MAX_EXPECTED_POINTS:g}"
        )
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

    b solves e^{sqrt(2) a} + e^{sqrt(2) b} = 1, which needs a < 0, and
    an a so close to 0 that e^{sqrt(2) a} rounds to 1 raises too.  One
    arm draws the plain process, the other superposes two independent
    draws shifted by a and b; the bank is split three ways so the arms
    share no clusters, and a bank of fewer than three clusters raises
    ExtremalError.  Every draw is truncated where 200 points are expected.
    Rightmost points are compared by a two-sample KS test, and the
    empirical Laplace functionals over phi_panel by their relative gaps.
    """
    if not a < 0.0:
        raise ExtremalError("the shift a must be negative")
    if math.exp(SQRT2 * a) == 1.0:
        raise ExtremalError(f"the shift a = {a:g} is too close to 0: e^(sqrt(2) a) rounds to 1")
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
        if phis:
            (l_plain, w_plain), (l_a, w_a), (l_b, w_b) = plain.atoms(), part_a.atoms(), part_b.atoms()
        for k, phi in enumerate(phis):
            lap_one[k, i] = np.sum(w_plain * phi(l_plain))
            lap_two[k, i] = np.sum(w_a * phi(l_a + a)) + np.sum(w_b * phi(l_b + b))
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
