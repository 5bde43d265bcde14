"""Branching-particle approximation of the measure-valued branching process.

The process is approximated by a cloud of particles of mass ``epsilon``
performing independent Brownian motions between Poissonized branching
events.  Event rates are chosen so the generator of the total-mass
process matches the branching mechanism to first order in ``epsilon``:

* binary split at per-particle rate ``beta'/epsilon + (alpha - m1)/2``,
* death at per-particle rate ``beta'/epsilon - (alpha - m1)/2``,
* a jump of size y in ((k-1)*eps, k*eps] becomes ``k = ceil(y/eps)``
  extra offspring at per-particle rate ``eps * n(bin_k)``, for k >= 2.

Here ``m1 = sum k * eps * n(bin_k)`` is the discretized mean mass carried
by jumps, and ``beta' = beta + (1/2) * integral_0^eps y^2 n(dy)`` folds
the sub-resolution jumps into the quadratic coefficient so the variance
stays correct.  With these choices the total-mass semigroup converges to
the continuous-state process as eps -> 0, which the tests check against
the closed-form mass Laplace transform.

Supercritical mass grows like e^t, so horizons beyond t ~ 15 are out of
reach for the plain scheme.  Front statistics (rightmost particle, the
derivative-martingale value, clusters seen from the tip) are carried by
particles within a few units of the front, so the engine optionally
prunes everything deeper than ``barrier_offset`` below the centered
front position once t >= 1.  Pruning a particle at depth L below the
front discards descendant mass that would return to the front with
probability of order e^{-sqrt(2) L}, which bounds the relative bias;
the tests compare two offsets to confirm the observables are stable.

Replicas are independent: replica i draws from a generator seeded by the
i-th spawn of SeedSequence(seed), so results are bit-identical for a
fixed (seed, config) regardless of how many replicas run.

The engine marches up to 64 consecutive replicas together as one group:
their particles sit in one flat array, and everything but the random
draws (event lookup, deaths, offspring, pruning, snapshots) runs as
vector operations on the whole group.  Each replica still draws its
Gaussian steps and then its event uniforms from its own generator, and
its particles keep the order a replica marched alone would give them,
so the grouping changes no result: the seed contract above is the same,
bit for bit.  A group holding more than 2**15 particles splits in half,
since past that size the flat bookkeeping costs more per particle than
it saves in per-replica calls.

Groups share nothing, so when there are at least two of them and the
process may run on more than one CPU, the groups march in a pool of
worker processes, one per CPU up to one per group.  The workers start
with the ``fork`` method, so they inherit the loaded modules where
``spawn`` would import numpy and scipy again in each of them.  Each
worker returns its group's rows, which land in the result by replica id.
The seed contract is unchanged: the result is the same bits as the
in-process march that runs where there is one group, one CPU or no
``fork``.  The pool lives only inside one ``simulate`` call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import multiprocessing
import os
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .kpp import SQRT2, front_m
from .mechanism import BranchingMechanism

NEG_INF = float("-inf")

EVENT_PROB_CAP = 0.2
DEFAULT_EXPLOSION_CAP = 10_000_000
_JUMP_TAIL_FRACTION = 1e-6
_BARRIER_START_TIME = 1.0
_GROUP_REPLICAS = 64
_GROUP_PARTICLES = 1 << 15


class ParticlesError(ValueError):
    """Invalid configuration or inputs for the particle engine."""


class AcceptanceTooLowError(ParticlesError):
    """Rejection sampling estimated an acceptance rate too small to finish."""


# ---------------------------------------------------------------------------
# point measures and clouds


@dataclass(frozen=True, eq=False)
class PointMeasure:
    """Finite atomic measure: locations with strictly positive weights.

    The rightmost point of the empty measure is -inf by convention.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        locs = np.asarray(self.locations, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if locs.ndim != 1 or wts.ndim != 1 or locs.shape != wts.shape:
            raise ParticlesError("locations and weights must be matching 1-d arrays")
        if locs.size and not np.all(np.isfinite(locs)):
            raise ParticlesError("locations must be finite")
        if wts.size and (not np.all(np.isfinite(wts)) or np.any(wts <= 0.0)):
            raise ParticlesError("weights must be finite and positive")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def from_checked(cls, locations: np.ndarray, weights: np.ndarray) -> "PointMeasure":
        """Measure from matching 1-d float arrays of atoms that passed the constructor's checks."""
        measure = object.__new__(cls)
        object.__setattr__(measure, "locations", locations)
        object.__setattr__(measure, "weights", weights)
        return measure

    @classmethod
    def empty(cls) -> "PointMeasure":
        return cls(np.empty(0), np.empty(0))

    @classmethod
    def single(cls, location: float, weight: float = 1.0) -> "PointMeasure":
        return cls(np.array([float(location)]), np.array([float(weight)]))

    @property
    def size(self) -> int:
        return int(self.locations.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum()) if self.size else 0.0

    @property
    def rightmost(self) -> float:
        return float(self.locations.max()) if self.size else NEG_INF

    def shifted(self, dz: float) -> "PointMeasure":
        """Translate every atom by +dz."""
        return PointMeasure(self.locations + float(dz), self.weights.copy())

    def integrate(self, fn) -> float:
        """Sum of weight * fn(location); fn must accept an ndarray."""
        if not self.size:
            return 0.0
        return float(np.sum(self.weights * np.asarray(fn(self.locations), dtype=float)))


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """Snapshot of the particle system: equal-mass atoms at one time."""

    time: float
    positions: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 1:
            raise ParticlesError("positions must be a 1-d array")
        if pos.size and not np.all(np.isfinite(pos)):
            raise ParticlesError("positions must be finite")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ParticlesError("epsilon must be positive and finite")
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        return int(self.positions.size)

    @property
    def total_mass(self) -> float:
        return self.epsilon * self.count

    @property
    def alive(self) -> bool:
        return self.count > 0


# ---------------------------------------------------------------------------
# offspring rates


@dataclass(frozen=True)
class OffspringTable:
    """Per-particle event rates realizing the mechanism at resolution eps.

    jump_counts[i] >= 2 extra offspring arrive at rate jump_rates[i]; the
    tables are empty for a purely quadratic mechanism.
    """

    split_rate: float
    death_rate: float
    jump_counts: np.ndarray
    jump_rates: np.ndarray

    @property
    def total_rate(self) -> float:
        return self.split_rate + self.death_rate + float(self.jump_rates.sum())


def offspring_table(mech: BranchingMechanism, epsilon: float) -> OffspringTable:
    """Derive split/death/jump rates from (alpha, beta, n) at resolution eps.

    Sub-resolution jumps (y <= eps) enter through the adjusted quadratic
    coefficient beta' = beta + (1/2) int_0^eps y^2 n(dy).  Larger jumps are
    binned by offspring count k = ceil(y/eps).  For a measure with unbounded
    support the far tail (a fraction _JUMP_TAIL_FRACTION of the jump rate)
    is lumped into one bin at the tail's mean size, so the total jump rate
    and the mean mass inflow are both preserved exactly; only the shape of
    the very largest jumps is coarsened.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ParticlesError("epsilon must be positive and finite")
    levy = mech.levy
    beta_eff = mech.beta + 0.5 * levy.moment_between(2, 0.0, epsilon)

    counts: list[int] = []
    rates: list[float] = []
    if not levy.is_trivial:
        y_top = _support_top(levy, epsilon)
        k_top = max(1, int(math.ceil(y_top / epsilon)))
        for k in range(2, k_top + 1):
            r = epsilon * levy.mass_between((k - 1) * epsilon, k * epsilon)
            if r > 0.0:
                counts.append(k)
                rates.append(r)
        tail_mass = levy.mass_between(k_top * epsilon, math.inf)
        if tail_mass > 0.0:
            tail_mean = levy.moment_between(1, k_top * epsilon, math.inf) / tail_mass
            counts.append(max(k_top + 1, int(round(tail_mean / epsilon))))
            rates.append(epsilon * tail_mass)

    jump_counts = np.asarray(counts, dtype=np.int64)
    jump_rates = np.asarray(rates, dtype=float)
    m1 = float(np.sum(jump_counts * jump_rates))
    drift = mech.alpha - m1
    split = beta_eff / epsilon + 0.5 * drift
    death = beta_eff / epsilon - 0.5 * drift
    if split <= 0.0 or death < 0.0:
        raise ParticlesError(
            "epsilon too large for this mechanism: derived split/death rates "
            f"({split:.4g}, {death:.4g}) leave the admissible range"
        )
    return OffspringTable(split, death, jump_counts, jump_rates)


def _support_top(levy, epsilon: float) -> float:
    """Upper end of the jump sizes kept as explicit bins."""
    if levy.kind == "atoms":
        return max(y for y, _ in levy.points)
    if levy.kind == "tabulated":
        return levy.y_grid[-1]
    if levy.kind == "truncated-stable":
        if math.isfinite(levy.cutoff):
            return levy.cutoff
        # mass above y falls off like y**(-index); keep bins until the
        # remaining rate is a negligible fraction of the rate above eps
        return epsilon * _JUMP_TAIL_FRACTION ** (-1.0 / levy.index)
    raise ParticlesError(f"unsupported jump measure kind: {levy.kind}")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Inputs for one batch of replicas.

    snapshot_times defaults to (t_end,); t_end is appended when missing.
    Every snapshot must land on the step grid (a multiple of dt up to
    rounding).  The cap on the per-step event probability (total rate
    times dt at most 0.2) is a validity bound, not an accuracy target;
    the chance of a second event in the same step is dropped, so biases
    scale with rate * dt and accuracy-sensitive runs should keep that
    product near 0.05.  barrier_offset, when set, prunes particles deeper than
    that distance below the centered front once t >= 1; it requires the
    unit-drift normalization since the front location is computed for
    alpha = 1.  stats_only skips cloud snapshots to save memory.
    """

    mech: BranchingMechanism
    epsilon: float
    dt: float
    t_end: float
    seed: int
    n_replicas: int
    initial: PointMeasure | None = None
    snapshot_times: tuple[float, ...] | None = None
    barrier_offset: float | None = None
    explosion_cap: int = DEFAULT_EXPLOSION_CAP
    stats_only: bool = False
    table: OffspringTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ParticlesError("epsilon must be positive and finite")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ParticlesError("dt must be positive and finite")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ParticlesError("t_end must be positive and finite")
        if self.n_replicas < 1:
            raise ParticlesError("n_replicas must be at least 1")
        if self.explosion_cap < 1:
            raise ParticlesError("explosion_cap must be at least 1")
        if self.barrier_offset is not None:
            if not (self.barrier_offset > 0.0 and math.isfinite(self.barrier_offset)):
                raise ParticlesError("barrier_offset must be positive and finite")
            if abs(self.mech.alpha - 1.0) > 1e-9:
                raise ParticlesError(
                    "front tracking assumes the unit-drift normalization (alpha = 1)"
                )
        table = offspring_table(self.mech, self.epsilon)
        cap = EVENT_PROB_CAP / table.total_rate
        if self.dt > cap:
            raise ParticlesError(
                f"dt = {self.dt:.4g} exceeds the stability cap {cap:.4g} "
                f"(total per-particle event rate {table.total_rate:.4g})"
            )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "snapshot_times", self._resolve_snapshots())

    def _resolve_snapshots(self) -> tuple[float, ...]:
        times = list(self.snapshot_times) if self.snapshot_times else []
        if not times or times[-1] < self.t_end:
            times.append(self.t_end)
        times = sorted(float(t) for t in times)
        steps = []
        for t in times:
            if not 0.0 < t <= self.t_end + 1e-9:
                raise ParticlesError("snapshot times must lie in (0, t_end]")
            step = int(round(t / self.dt))
            if step < 1 or abs(step * self.dt - t) > 0.5 * self.dt:
                raise ParticlesError(
                    f"snapshot time {t} does not land on the dt = {self.dt} grid"
                )
            steps.append(step)
        if len(set(steps)) != len(steps):
            raise ParticlesError("snapshot times collide on the step grid")
        return tuple(times)

    def snapshot_steps(self) -> tuple[int, ...]:
        return tuple(int(round(t / self.dt)) for t in self.snapshot_times)

    def initial_positions(self) -> np.ndarray:
        """Expand the initial measure into particle positions.

        Each atom of weight w becomes round(w / epsilon) particles; an atom
        lighter than half a particle cannot be represented and raises.
        """
        init = self.initial if self.initial is not None else PointMeasure.single(0.0)
        if init.size == 0:
            return np.empty(0)
        pieces = []
        for x, w in zip(init.locations, init.weights):
            n = int(round(w / self.epsilon))
            if n < 1:
                raise ParticlesError(
                    f"initial atom of weight {w:.4g} is lighter than half a particle"
                )
            pieces.append(np.full(n, x))
        return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# replica outputs


@dataclass(frozen=True, eq=False)
class ReplicaStats:
    """Per-replica observable paths along the snapshot grid.

    After extinction the rightmost-position entries are -inf and masses
    are zero.  A replica that trips the explosion guard is truncated: the
    remaining entries are nan, exploded is True, and survived stays True
    since the population was alive (and enormous) when the run stopped.
    """

    replica: int
    times: tuple[float, ...]
    m_path: tuple[float, ...]
    z_path: tuple[float, ...]
    mass_path: tuple[float, ...]
    survived: bool
    extinction_time: float | None
    exploded: bool


@dataclass(frozen=True, eq=False)
class SimResult:
    """All replica stats plus (unless stats_only) per-replica cloud snapshots.

    clouds[i] may be shorter than the snapshot grid when replica i hit the
    explosion guard.  diagnostics records the number of replica groups and
    of processes that marched them (1 when they marched in this process).
    """

    stats: tuple[ReplicaStats, ...]
    clouds: tuple[tuple[ParticleCloud, ...], ...] | None
    diagnostics: Mapping[str, int]

    def survival_frequency(self) -> float:
        return sum(1 for s in self.stats if s.survived) / len(self.stats)

    def m_values(self, snapshot: int = -1) -> np.ndarray:
        return np.array([s.m_path[snapshot] for s in self.stats])

    def z_values(self, snapshot: int = -1) -> np.ndarray:
        return np.array([s.z_path[snapshot] for s in self.stats])

    def mass_values(self, snapshot: int = -1) -> np.ndarray:
        return np.array([s.mass_path[snapshot] for s in self.stats])

    def mass_laplace_estimate(self, theta: float, snapshot: int = -1) -> tuple[float, float]:
        """Monte Carlo (mean, std error) of exp(-theta * total mass).

        An exploded replica contributes zero: its mass is at least the cap
        times epsilon, so the exponential is far below resolution.
        """
        masses = self.mass_values(snapshot)
        vals = np.where(np.isnan(masses), 0.0, np.exp(-theta * np.nan_to_num(masses)))
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        return mean, se


# ---------------------------------------------------------------------------
# the engine


def simulate(config: SimConfig) -> SimResult:
    """Run all replicas; bit-identical for a fixed (seed, config).

    Replica i draws from the generator of the i-th spawn of
    SeedSequence(seed), so its stats and clouds do not depend on
    n_replicas.  Up to _GROUP_REPLICAS consecutive replicas march
    together as one group (see _march and _advance).  Two or more groups
    march in fork-started worker processes, one per usable CPU, which
    return each group's rows to be placed by replica id; the pool is
    closed and joined before this returns, also when a worker raises.
    Neither the grouping nor the process a group runs in changes the
    draws, their order or the result.
    """
    n = config.n_replicas
    seeds = np.random.SeedSequence(config.seed).spawn(n)
    starts = range(0, n, _GROUP_REPLICAS)
    groups = [seeds[lo:lo + _GROUP_REPLICAS] for lo in starts]
    workers = _worker_count(len(groups))
    march = functools.partial(_march_replicas, config, config.initial_positions())
    record = _Record(config, n)
    with _group_map(workers) as group_map:
        for lo, part in zip(starts, group_map(march, groups)):
            record.fill(lo, part)
    return record.result({"groups": len(groups), "workers": workers})


def _worker_count(n_groups: int) -> int:
    """Processes to march n_groups groups in: 1, or one per usable CPU where fork exists."""
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n_groups, len(os.sched_getaffinity(0)))


@contextlib.contextmanager
def _group_map(workers: int):
    """The builtin map for one worker, else the imap of a fork pool of that many.

    The pool is closed and joined when the block ends; a block that raises
    terminates the workers first.
    """
    if workers == 1:
        yield map
        return
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        yield pool.imap
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()


def _march_replicas(
    config: SimConfig, initial: np.ndarray, seeds: list[np.random.SeedSequence]
) -> "_Record":
    """March one group, replica k drawing from seeds[k], into a record of its own."""
    record = _Record(config, len(seeds))
    if initial.size == 0:
        for k in range(len(seeds)):
            record.extinct(k, 0, 0.0)
        return record
    group = _Group(
        ids=list(range(len(seeds))),
        rngs=[np.random.default_rng(s) for s in seeds],
        positions=np.tile(initial + 0.0, len(seeds)),
        counts=np.full(len(seeds), initial.size),
    )
    _march(config, group, 0, record)
    return record


def _event_thresholds(table: OffspringTable, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative per-step event probabilities: split, death, then jumps."""
    probs = np.concatenate([[table.split_rate, table.death_rate], table.jump_rates]) * dt
    return np.cumsum(probs), table.jump_counts


def _z_of(positions: np.ndarray, epsilon: float, t: float) -> float:
    """Derivative-martingale value of an equal-mass cloud at time t."""
    if positions.size == 0:
        return 0.0
    y = SQRT2 * t - positions
    return epsilon * float(np.sum(y * np.exp(-SQRT2 * y)))


@dataclass(eq=False)
class _Group:
    """Live replicas marching together.

    positions holds the particles of every replica in one flat array,
    replica by replica in the order of ids; counts[k] > 0 is the number of
    particles of replica ids[k] and rngs[k] is its generator.
    """

    ids: list[int]
    rngs: list[np.random.Generator]
    positions: np.ndarray
    counts: np.ndarray

    def select(self, keep: np.ndarray) -> "_Group":
        """The group restricted to the replicas where keep is True."""
        flags = keep.tolist()
        return _Group(
            ids=[i for i, k in zip(self.ids, flags) if k],
            rngs=[g for g, k in zip(self.rngs, flags) if k],
            positions=self.positions[np.repeat(keep, self.counts)],
            counts=self.counts[keep],
        )


class _Record:
    """Observables of n replicas along the snapshot grid, filled as groups march.

    A replica that explodes keeps nan from then on; one that dies out
    gets -inf, 0 and an empty cloud at every later snapshot.
    """

    def __init__(self, config: SimConfig, n: int):
        snap_steps = config.snapshot_steps()
        k = len(snap_steps)
        self.config = config
        self.snap_steps = snap_steps
        self.m = np.full((n, k), math.nan)
        self.z = np.full((n, k), math.nan)
        self.mass = np.full((n, k), math.nan)
        self.extinction_time: list[float | None] = [None] * n
        self.exploded = [False] * n
        self.clouds: list[list[ParticleCloud]] | None = (
            None if config.stats_only else [[] for _ in range(n)]
        )

    def snapshot(self, group: _Group, j: int) -> None:
        eps = self.config.epsilon
        t = self.config.snapshot_times[j]
        pos = group.positions
        y = SQRT2 * t - pos
        terms = y * np.exp(-SQRT2 * y)
        a = 0
        for i, b in zip(group.ids, np.cumsum(group.counts).tolist()):
            self.m[i, j] = float(pos[a:b].max())
            self.z[i, j] = eps * float(np.sum(terms[a:b]))
            self.mass[i, j] = eps * (b - a)
            if self.clouds is not None:
                self.clouds[i].append(ParticleCloud(t, pos[a:b].copy(), eps))
            a = b

    def extinct(self, i: int, step: int, t: float) -> None:
        """Replica i has no particle left after the given step."""
        self.extinction_time[i] = t
        for j, s in enumerate(self.snap_steps):
            if s >= step:
                self.m[i, j] = NEG_INF
                self.z[i, j] = 0.0
                self.mass[i, j] = 0.0
                if self.clouds is not None:
                    self.clouds[i].append(
                        ParticleCloud(self.config.snapshot_times[j], np.empty(0), self.config.epsilon)
                    )

    def fill(self, lo: int, part: "_Record") -> None:
        """Copy in the rows of part, a record of replicas lo, lo + 1, ..."""
        hi = lo + len(part.exploded)
        self.m[lo:hi], self.z[lo:hi], self.mass[lo:hi] = part.m, part.z, part.mass
        self.extinction_time[lo:hi] = part.extinction_time
        self.exploded[lo:hi] = part.exploded
        if self.clouds is not None:
            self.clouds[lo:hi] = part.clouds

    def result(self, diagnostics: Mapping[str, int]) -> SimResult:
        times = self.config.snapshot_times
        stats = tuple(
            ReplicaStats(
                replica=i,
                times=times,
                m_path=tuple(self.m[i].tolist()),
                z_path=tuple(self.z[i].tolist()),
                mass_path=tuple(self.mass[i].tolist()),
                survived=self.extinction_time[i] is None,
                extinction_time=self.extinction_time[i],
                exploded=self.exploded[i],
            )
            for i in range(len(self.exploded))
        )
        clouds = None if self.clouds is None else tuple(tuple(c) for c in self.clouds)
        return SimResult(stats, clouds, diagnostics)


def _march(config: SimConfig, group: _Group, step: int, record: _Record) -> None:
    """Advance a group from step to the horizon, recording its snapshots.

    Replicas leave the group when they die out or explode.  A group of
    more than _GROUP_PARTICLES particles splits into two halves that march
    on separately: bookkeeping over one flat array saves the per-replica
    call overhead that dominates small populations, but past that size it
    costs more per particle than marching fewer replicas at a time.
    """
    dt = config.dt
    sqrt_dt = math.sqrt(dt)
    thresholds, jump_counts = _event_thresholds(config.table, dt)
    barrier = config.barrier_offset
    cap = config.explosion_cap
    snap_steps = record.snap_steps
    while group.ids and step < snap_steps[-1]:
        if len(group.ids) > 1 and group.positions.size > _GROUP_PARTICLES:
            first = np.arange(len(group.ids)) < len(group.ids) // 2
            _march(config, group.select(first), step, record)
            _march(config, group.select(~first), step, record)
            return
        step += 1
        t_now = step * dt
        level = None
        if barrier is not None and t_now >= _BARRIER_START_TIME:
            level = front_m(1.0, t_now) - barrier
        positions, counts = _advance(group, sqrt_dt, thresholds, jump_counts, level)
        group.positions, group.counts = positions, counts
        if counts.min() == 0 or (positions.size > cap and counts.max() > cap):
            for i, n in zip(group.ids, counts.tolist()):
                if n == 0:
                    record.extinct(i, step, t_now)
                elif n > cap:
                    record.exploded[i] = True
            group = group.select((counts > 0) & (counts <= cap))
        if step in snap_steps:
            record.snapshot(group, snap_steps.index(step))


def _advance(
    group: _Group,
    sqrt_dt: float,
    thresholds: np.ndarray,
    jump_counts: np.ndarray,
    level: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of motion, branching and pruning below level for a group.

    Each replica draws its n Gaussian steps and then random(n) from its
    own generator, exactly as a replica marched alone; the rest runs on
    the whole group.  Replica by replica the new particles are
    [survivors, split copies, jump copies], each in the old order, less
    those below level.  A copy sits at its parent's position, so pruning
    the parents first prunes the same particles.
    """
    counts = group.counts
    sizes = counts.tolist()
    # normal(0, s, n) is 0.0 + s * standard_normal(n); without the 0.0 a zero
    # step may stay -0.0 where normal gives +0.0, which changes a sum only
    # when the position is -0.0 too, and simulate starts from initial + 0.0,
    # after which no position can be -0.0
    noise = np.empty(group.positions.size)
    draws = np.empty(group.positions.size)
    a = 0
    for rng, n in zip(group.rngs, sizes):
        b = a + n
        rng.standard_normal(out=noise[a:b])
        rng.random(out=draws[a:b])
        a = b
    noise *= sqrt_dt
    positions = group.positions + noise
    # an event happens to few particles, so only those are classified
    acting = np.flatnonzero(draws <= thresholds[-1])
    event = thresholds.searchsorted(draws[acting])
    parents = acting[event == 0]
    if jump_counts.size:
        jumping = event >= 2
        parents = np.concatenate(
            [parents, np.repeat(acting[jumping], jump_counts[event[jumping] - 2])]
        )
    if level is None:
        keep = np.ones(positions.size, dtype=bool)
    else:
        keep = positions >= level
        parents = parents[keep[parents]]
    keep[acting[event == 1]] = False
    ends = np.cumsum(counts)
    kept = np.add.reduceat(keep, ends - counts, dtype=np.intp)
    owner = ends.searchsorted(parents, side="right")
    # each copy goes after the survivors of its parent's replica; np.insert
    # keeps the given order of values that share a slot
    slot = np.cumsum(kept)[owner]
    positions = np.insert(positions[keep], slot, positions[parents])
    return positions, kept + np.bincount(owner, minlength=counts.size)


# ---------------------------------------------------------------------------
# cloud observables


def max_position(cloud: ParticleCloud) -> float:
    """Rightmost particle position, -inf for an empty cloud."""
    return float(cloud.positions.max()) if cloud.count else NEG_INF


def derivative_martingale(cloud: ParticleCloud, t: float) -> float:
    """Sum of mass * (sqrt(2) t - x) * exp(-sqrt(2)(sqrt(2) t - x)).

    Weights are signed: particles beyond sqrt(2) t contribute negatively,
    and the value of an empty cloud is 0.
    """
    return _z_of(cloud.positions, cloud.epsilon, t)


def extremal_measure(cloud: ParticleCloud, t: float) -> PointMeasure:
    """The cloud seen from the centered front: every atom shifted by -m(t)."""
    if t <= 0.0:
        raise ParticlesError("extremal measure needs t > 0")
    if cloud.count == 0:
        return PointMeasure.empty()
    shift = front_m(1.0, t)
    return PointMeasure(cloud.positions - shift, np.full(cloud.count, cloud.epsilon))


# ---------------------------------------------------------------------------
# conditioned clusters


@dataclass(frozen=True, eq=False)
class ConditionedClusterSample:
    """Clusters accepted by rejection sampling on M_t > sqrt(2) t + z.

    Each cluster is the final cloud recentered at its rightmost particle,
    so its rightmost point is exactly 0; overshoots[i] is M_t - sqrt(2) t - z
    for the i-th accepted replica.  seed is the config seed the rejection
    batches were spawned from.
    """

    clusters: tuple[PointMeasure, ...]
    overshoots: np.ndarray
    z: float
    t: float
    attempts: int
    seed: int

    @property
    def acceptance(self) -> float:
        return len(self.clusters) / self.attempts if self.attempts else 0.0


def sample_conditioned_clusters(
    config: SimConfig,
    z: float,
    t: float,
    n_accept: int,
    max_attempts: int | None = None,
) -> ConditionedClusterSample:
    """Collect n_accept clusters conditioned on the front exceeding sqrt(2) t + z.

    Replicas run in batches with seeds spawned deterministically from
    config.seed, so the accepted set depends only on (config, z, t).
    Raises AcceptanceTooLowError when a long run of attempts produces
    nothing (estimated acceptance below about 1e-6) or when max_attempts
    (default 500 per requested cluster, at least 20000) is exhausted.
    """
    if n_accept < 1:
        raise ParticlesError("n_accept must be at least 1")
    if max_attempts is None:
        max_attempts = max(20_000, 500 * n_accept)
    level = SQRT2 * t + z
    batch = max(64, min(4096, n_accept))
    base = dataclasses.replace(
        config,
        t_end=t,
        snapshot_times=(t,),
        stats_only=False,
        n_replicas=batch,
    )
    clusters: list[PointMeasure] = []
    overshoots: list[float] = []
    attempts = 0
    batch_index = 0
    while len(clusters) < n_accept:
        if attempts >= max_attempts:
            raise AcceptanceTooLowError(
                f"{len(clusters)} accepted in {attempts} attempts "
                f"(acceptance about {(len(clusters) + 1) / (attempts + 1):.2e})"
            )
        cfg = dataclasses.replace(base, seed=_batch_seed(config.seed, batch_index))
        batch_index += 1
        result = simulate(cfg)
        attempts += cfg.n_replicas
        for stats, snaps in zip(result.stats, result.clouds):
            if stats.exploded or not snaps:
                continue
            cloud = snaps[-1]
            m = max_position(cloud)
            if m > level:
                clusters.append(
                    PointMeasure(
                        cloud.positions - m,
                        np.full(cloud.count, cloud.epsilon),
                    )
                )
                overshoots.append(m - level)
                if len(clusters) == n_accept:
                    break
    return ConditionedClusterSample(
        clusters=tuple(clusters),
        overshoots=np.asarray(overshoots),
        z=float(z),
        t=float(t),
        attempts=attempts,
        seed=config.seed,
    )


def sample_conditioned_cluster(
    config: SimConfig, z: float, t: float
) -> tuple[PointMeasure, float]:
    """One draw from the conditioned-cluster distribution."""
    sample = sample_conditioned_clusters(config, z, t, n_accept=1)
    return sample.clusters[0], float(sample.overshoots[0])


def _batch_seed(seed: int, batch_index: int) -> int:
    # distinct deterministic seeds per rejection batch, clear of the base seed
    return (seed + 0x9E3779B97F4A7C15 * (batch_index + 1)) % (1 << 63)


# ---------------------------------------------------------------------------
# joint front statistics


@dataclass(frozen=True, eq=False)
class FrontStatsReport:
    """Survival-conditioned front observables along a time ladder.

    For each time: number of surviving replicas used (those with a
    positive derivative-martingale value), the sample correlation between
    the integral of phi against the recentered measure and that value,
    and the empirical Laplace functional with its target gap when a limit
    constant was supplied.
    """

    t_values: tuple[float, ...]
    n_used: tuple[int, ...]
    correlations: tuple[float, ...]
    laplace_values: tuple[float, ...]
    laplace_target: float | None
    laplace_gaps: tuple[float, ...] | None


def joint_front_stats(
    config: SimConfig,
    phi,
    t_ladder: tuple[float, ...] = (5.0, 10.0, 20.0),
    c_phi: float | None = None,
) -> FrontStatsReport:
    """Correlate front-recentered integrals of phi with the martingale value.

    phi may be a callable on ndarrays or any object with an evaluate
    method.  Each surviving replica with Z_t > 0 contributes the integral
    of phi against the cloud shifted by -(m(t) + log(Z_t)/sqrt(2)); the
    report carries the correlation with Z_t per time and the empirical
    Laplace functional, compared against exp(-c_phi) when given.
    """
    phi_eval = phi.evaluate if hasattr(phi, "evaluate") else phi
    ladder = tuple(sorted(float(t) for t in t_ladder))
    if len(ladder) < 1 or len(set(ladder)) != len(ladder):
        raise ParticlesError("t_ladder must contain distinct times")
    cfg = dataclasses.replace(
        config, t_end=ladder[-1], snapshot_times=ladder, stats_only=False
    )
    result = simulate(cfg)

    n_used = []
    correlations = []
    laplace_values = []
    for j, t in enumerate(ladder):
        shift0 = front_m(1.0, t)
        integrals = []
        z_vals = []
        for stats, snaps in zip(result.stats, result.clouds):
            if stats.exploded or j >= len(snaps):
                continue
            z = stats.z_path[j]
            if not (z > 0.0) or not stats.survived:
                continue
            cloud = snaps[j]
            shifted = cloud.positions - shift0 - math.log(z) / SQRT2
            integrals.append(cfg.epsilon * float(np.sum(phi_eval(shifted))))
            z_vals.append(z)
        n = len(integrals)
        n_used.append(n)
        if n < 10:
            warnings.warn(
                f"only {n} usable survivors at t = {t}", RuntimeWarning, stacklevel=2
            )
        arr = np.asarray(integrals)
        zs = np.asarray(z_vals)
        if n >= 2 and arr.std() > 0.0 and zs.std() > 0.0:
            correlations.append(float(np.corrcoef(arr, zs)[0, 1]))
        else:
            correlations.append(0.0)
        laplace_values.append(float(np.mean(np.exp(-arr))) if n else math.nan)

    target = math.exp(-float(c_phi)) if c_phi is not None else None
    gaps = None
    if target is not None:
        gaps = tuple(abs(v - target) / target for v in laplace_values)
    return FrontStatsReport(
        t_values=ladder,
        n_used=tuple(n_used),
        correlations=tuple(correlations),
        laplace_values=tuple(laplace_values),
        laplace_target=target,
        laplace_gaps=gaps,
    )
