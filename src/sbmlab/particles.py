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

The law is a stepped one: each step of length dt a particle moves by
N(0, dt) and then has at most one event, with probability
p = total rate * dt.  The engine does not visit every step, though: it
marches each particle from one event to the next.  A particle whose
position x is known at step b has its next event at step e = b + G, with
G ~ Geometric(p); it is at x + N(0, (e - b) dt) there; the event is a
split, a death or a k-jump, with probabilities rate / total rate; and the
offspring start at step e from that position.  That is the stepped law
exactly.  Positions are drawn only at events, at snapshot steps and, with
a barrier, at every step from t = 1 on, where a particle below the line
is pruned before its event makes copies.  So the cost follows the number
of events, about three draws each (a position, a kind and one clock per
offspring), rather than the number of particle-steps.  Every time a
configuration names must be a whole number of steps (``kpp._grid_step``).

Up to 64 consecutive replicas march together as one group, in epochs that
end at the snapshot steps, at the first barrier step and at most two
units of time apart (less when alpha > 1).  Within an epoch the group
marches one generation at a time: the particles alive at its start, then
the offspring of their events in the epoch, and so on; every generation
is kept in replica order.  A replica's count is known exactly up to the
step before its earliest event still to be drawn, so the explosion cap is
checked there and a replica stops as soon as it trips.

Replicas are independent: replica i draws only from the i-th spawn of
SeedSequence(seed), through three child streams derived from its spawn
key (clocks, moves and event kinds), each read through a buffer of its
own that keeps its unread draws when it refills.  So a replica's row of
the result and its clouds do not depend on n_replicas, the group size,
the buffer size or the worker count.

Groups share nothing, so they march as the tasks of the fork pool in
``sbmlab.pool``, whose docstring states its policy: one worker per usable
CPU up to one per group (``pool.worker_count``), and the march in this
process where there is one group, one CPU or no ``fork``.  The result,
``SimResult``, is one record of (replica x snapshot) arrays: M_t, Z_t and
the mass, with a column each for the extinction time and the explosion
flag.  The input is arrays as well: ``SimConfig.initial`` is the starting
measure as (location, weight) pairs, expanded once into the particle
positions every replica starts from.  Each group's rows land in those arrays by replica id, so the
result is the same bits whatever the worker count.  The conditioned
clusters, ``ConditionedClusterSample``, are arrays too: every accepted
cloud's atoms in one flat array with its offsets, the record
``extremal.ClusterBank`` holds.  A pool lives inside one call: one
``simulate``, or one ``sample_conditioned_clusters``, whose rejection
batches stream their groups through a single pool until the bank is full.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .kpp import SQRT2, STEP_CAP, _grid_step, front_m
from .mechanism import BranchingMechanism
from .pool import ordered_map, worker_count

NEG_INF = float("-inf")

EVENT_PROB_CAP = 0.2
DEFAULT_EXPLOSION_CAP = 10_000_000
_JUMP_TAIL_FRACTION = 1e-6
_BARRIER_START_TIME = 1.0
_GROUP_REPLICAS = 64
_EPOCH_TIME = 2.0
_BUFFER_DRAWS = 1 << 10
_REFILL_DRAWS = 256


class ParticlesError(ValueError):
    """Invalid configuration or inputs for the particle engine."""


class AcceptanceTooLowError(ParticlesError):
    """Rejection sampling estimated an acceptance rate too small to finish."""


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
            r = epsilon * levy.moment_between(0, (k - 1) * epsilon, k * epsilon)
            if r > 0.0:
                counts.append(k)
                rates.append(r)
        tail_mass = levy.moment_between(0, k_top * epsilon, math.inf)
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

    The law is stepped: each step of length dt moves a particle by
    N(0, dt) and then gives it at most one event, with probability total
    rate times dt.  The engine marches from event to event (see the
    module docstring), which changes the cost, not the law.
    snapshot_times defaults to (t_end,); t_end is appended when missing.
    t_end and every snapshot must be k steps, |k dt - t| <= 1e-9 max(1, t)
    (``kpp._grid_step``).  The cap on the per-step event probability (total rate
    times dt at most 0.2) is a validity bound, not an accuracy target;
    the chance of a second event in the same step is dropped, so biases
    scale with rate * dt and accuracy-sensitive runs should keep that
    product near 0.05.  barrier_offset, when set, prunes particles deeper
    than that distance below the centered front at every step from
    t = 1 on; it requires the unit-drift normalization since the front
    location is computed for alpha = 1.  A replica whose count exceeds
    explosion_cap at some step is truncated there.  stats_only keeps no
    particle positions (``SimResult.clouds`` is None) to save memory.
    initial is the starting measure as (location, weight) pairs, unit
    mass at 0 by default and () for the empty measure.  An atom of weight
    w becomes round(w / epsilon) particles, so every location must be
    finite, every weight finite, positive and at least half a particle,
    and the whole measure at most explosion_cap particles.
    """

    mech: BranchingMechanism
    epsilon: float
    dt: float
    t_end: float
    seed: int
    n_replicas: int
    initial: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
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
        if self.seed < 0:
            raise ParticlesError("seed must be nonnegative")
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
        self._initial_atoms()

    def _resolve_snapshots(self) -> tuple[float, ...]:
        last = _grid_step("t_end", self.t_end, self.dt, ParticlesError)
        if last > STEP_CAP:
            raise ParticlesError(
                f"dt {self.dt:g} makes {last} steps to t_end {self.t_end:g}, above the cap of {STEP_CAP}"
            )
        times = sorted(float(t) for t in self.snapshot_times or ())
        if not times or times[-1] < self.t_end:
            times.append(float(self.t_end))
        steps = [_grid_step("snapshot time", t, self.dt, ParticlesError) for t in times]
        if steps[0] < 1 or steps[-1] > last:
            raise ParticlesError("snapshot times must lie in (0, t_end]")
        if len(set(steps)) != len(steps):
            raise ParticlesError("snapshot times collide on the step grid")
        return tuple(times)

    def snapshot_steps(self) -> tuple[int, ...]:
        return tuple(_grid_step("snapshot", t, self.dt, ParticlesError) for t in self.snapshot_times)

    def _initial_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The initial locations and each one's particle count, checked."""
        atoms = np.array(self.initial or np.empty((0, 2)), dtype=float)
        if atoms.shape != (len(self.initial), 2):
            raise ParticlesError("initial must be a tuple of (location, weight) pairs")
        locations, weights = atoms.T
        if not np.isfinite(locations).all():
            raise ParticlesError("initial locations must be finite")
        if not (np.isfinite(weights) & (weights > 0.0)).all():
            raise ParticlesError("initial weights must be finite and positive")
        counts = np.rint(weights / self.epsilon)
        if (counts < 1).any():
            w = weights[np.argmax(counts < 1)]
            raise ParticlesError(f"initial atom of weight {w:.4g} is lighter than half a particle")
        if counts.sum() > self.explosion_cap:
            raise ParticlesError(
                f"initial measure of {counts.sum():.4g} particles exceeds explosion_cap {self.explosion_cap}"
            )
        return locations, counts.astype(np.int64)

    def initial_positions(self) -> np.ndarray:
        """The initial measure as particle positions, atom by atom."""
        return np.repeat(*self._initial_atoms())


# ---------------------------------------------------------------------------
# replica outputs


@dataclass(frozen=True, eq=False)
class SimResult:
    """The observables of n replicas along the k snapshot times, one row per replica.

    m[i, j], z[i, j] and mass[i, j] are replica i's rightmost position, its
    derivative-martingale value and its total mass at times[j]: read-only
    (n, k) arrays.  After extinction they are -inf, 0 and 0, and
    extinction_time[i] is when it happened; it is nan while the replica
    is alive, so survived is where it is nan.  A replica that trips the
    explosion guard is truncated: its entries are nan from then on,
    exploded[i] is True and its extinction time stays nan, since the
    population was alive (and enormous) when the run stopped.

    clouds is None with stats_only; otherwise clouds[i][j] holds the
    positions of replica i's particles, each of mass epsilon, at times[j],
    and clouds[i] is shorter than times when replica i exploded.
    diagnostics records the number of replica groups and of processes
    that marched them (1 when they marched in this process), and, summed
    over all replicas, the events by kind (splits, deaths, jumps and the
    extra copies the jumps made), the particles the barrier pruned and the
    replicas it left empty (barrier_emptied: those whose last particle
    went at a step where the barrier pruned one).
    """

    times: tuple[float, ...]
    m: np.ndarray
    z: np.ndarray
    mass: np.ndarray
    extinction_time: np.ndarray
    exploded: np.ndarray
    clouds: tuple[tuple[np.ndarray, ...], ...] | None
    diagnostics: Mapping[str, int]

    @property
    def survived(self) -> np.ndarray:
        return np.isnan(self.extinction_time)

    def mass_laplace_estimate(self, theta: float, snapshot: int = -1) -> tuple[float, float]:
        """Monte Carlo (mean, std error) of exp(-theta * total mass).

        An exploded replica contributes zero: its mass is at least the cap
        times epsilon, so the exponential is far below resolution.
        """
        masses = self.mass[:, snapshot]
        vals = np.where(np.isnan(masses), 0.0, np.exp(-theta * np.nan_to_num(masses)))
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        return mean, se


# ---------------------------------------------------------------------------
# the engine


def simulate(config: SimConfig) -> SimResult:
    """Run all replicas; bit-identical for a fixed (seed, config).

    Replica i draws from the i-th spawn of SeedSequence(seed) only, so
    its row and clouds do not depend on n_replicas.  Up to
    _GROUP_REPLICAS consecutive replicas march together as one group (see
    _march and _epoch).  Two or more groups
    march in fork-started worker processes, one per usable CPU, which
    return each group's rows to be placed by replica id; the workers are
    joined before this returns, also when one of them raises.
    Neither the grouping nor the process a group runs in changes the
    draws, their order or the result.
    """
    n = config.n_replicas
    seeds = np.random.SeedSequence(config.seed).spawn(n)
    starts = range(0, n, _GROUP_REPLICAS)
    groups = [seeds[lo:lo + _GROUP_REPLICAS] for lo in starts]
    workers = worker_count(len(groups))
    march = functools.partial(_march_replicas, config, config.initial_positions())
    record = _Record(config, n)
    with contextlib.closing(ordered_map(march, groups, workers)) as parts:
        for lo, part in zip(starts, parts):
            record.fill(lo, part)
    return record.result({"groups": len(groups), "workers": workers})


def _march_replicas(
    config: SimConfig, initial: np.ndarray, seeds: list[np.random.SeedSequence]
) -> "_Record":
    """March one group, replica k drawing from seeds[k], into a record of its own."""
    n = len(seeds)
    record = _Record(config, n)
    if initial.size == 0:
        for k in range(n):
            record.extinct(k, 0, 0.0)
        return record
    law = _Law(config)
    draws = _Streams(seeds)
    owner = np.repeat(np.arange(n), initial.size)
    clocks = law.clock(draws.clocks.take(np.full(n, initial.size)))
    group = _Group(owner, np.tile(initial + 0.0, n), np.zeros(owner.size, dtype=np.int64), clocks)
    _march(law, group, draws, record)
    return record


def _counts(owner: np.ndarray, n: int) -> np.ndarray:
    """How many entries of the nondecreasing owner equal 0, 1, ..., n - 1."""
    return np.diff(owner.searchsorted(np.arange(n + 1)))


def _z_terms(positions: np.ndarray, t: float) -> np.ndarray:
    """Per-particle terms (sqrt(2) t - x) e^{-sqrt(2) (sqrt(2) t - x)} of the
    derivative martingale; a cloud's value at time t is its mass times their sum."""
    y = SQRT2 * t - positions
    return y * np.exp(-SQRT2 * y)


class _Law:
    """The stepped law of a config, read from event to event.

    Each step a particle moves by N(0, dt) and then has at most one event,
    with probability p = total rate * dt: a split, a death or a k-jump,
    with probabilities proportional to their rates.  So the steps to its
    next event are Geometric(p), it moves by N(0, steps * dt) on the way,
    and the event's kind is independent of both.
    """

    def __init__(self, config: SimConfig):
        table = config.table
        rates = np.concatenate([[table.split_rate, table.death_rate], table.jump_rates])
        dt = config.dt
        self.dt = dt
        self.sqrt_dt = math.sqrt(dt)
        self.log_stay = math.log1p(-table.total_rate * dt)
        # an event's kind is the number of these bounds at or below its uniform
        self.bounds = np.cumsum(rates)[:-1] / rates.sum()
        # the particles an event of each kind leaves in place of one
        self.sizes = np.concatenate([[2, 0], 1 + table.jump_counts]).astype(np.int64)
        self.cap = config.explosion_cap
        self.snap_steps = config.snapshot_steps()
        self.window = max(1, int(_EPOCH_TIME / (max(config.mech.alpha, 1.0) * dt)))
        self.barrier = config.barrier_offset
        # the step that is _BARRIER_START_TIME, else the first one after it
        start = _grid_step("t", _BARRIER_START_TIME, dt, None) or math.ceil(_BARRIER_START_TIME / dt)
        self.barrier_start = start
        # the pruning line by step, -inf where nothing is pruned; it rises
        # with the step, since front_m(1, t) does from t = 1 on
        self.levels = np.full(self.snap_steps[-1] + 1, -math.inf)
        if self.barrier is not None:
            for s in range(start, self.levels.size):
                self.levels[s] = front_m(1.0, s * dt) - self.barrier

    def clock(self, u: np.ndarray) -> np.ndarray:
        """Steps to the next event, Geometric(p) on 1, 2, ..., from uniforms on [0, 1)."""
        steps = np.log1p(-u)
        steps /= self.log_stay
        return steps.astype(np.int64) + 1

    def kind(self, u: np.ndarray) -> np.ndarray:
        """Event kinds from uniforms on [0, 1): 0 split, 1 death, 2 + i the i-th jump."""
        return self.bounds.searchsorted(u, side="right")

    def walks(self, step: int) -> bool:
        """Whether every step after step is a barrier step."""
        return self.barrier is not None and step >= self.barrier_start

    def placed(self, step: int) -> bool:
        """Whether every live particle gets a position at step: a snapshot or barrier step."""
        return step in self.snap_steps or self.levels[step] > -math.inf

    def epoch_end(self, step: int) -> int:
        """The end of the epoch that starts at step.

        An epoch ends at the next snapshot step, at the first barrier step,
        and otherwise after at most self.window steps, so that an
        explosion shows before a replica outgrows the cap by much.
        """
        end = min(next(s for s in self.snap_steps if s > step), step + self.window)
        if self.barrier is not None and step < self.barrier_start:
            end = min(end, self.barrier_start)
        return end


class _Draws:
    """One kind of draw for every replica of a group, read through a buffer per replica.

    Row k of buffer holds replica k's unread draws in read[k]:read[k] +
    left[k].  A refill moves them to the row's start and appends fresh
    draws from the replica's generator: refill[k] of them, or what the
    take needs, and refill[k] doubles up to the row's width, so a replica
    that draws much refills seldom and one that draws little wastes
    little.  A take larger than a row reads past it, straight from the
    generator.  So replica k reads the one sequence its generator yields,
    however its takes and refills fall.
    """

    def __init__(self, rngs: list[np.random.Generator], fill):
        self.rngs = rngs
        self.fill = fill
        # the pages of a row stay untouched until the row fills that far
        self.buffer = np.empty((len(rngs), _BUFFER_DRAWS))
        self.read = np.zeros(len(rngs), dtype=np.intp)
        self.left = np.zeros(len(rngs), dtype=np.intp)
        self.refill = np.full(len(rngs), min(_REFILL_DRAWS, _BUFFER_DRAWS))
        self.rows = np.arange(len(rngs)) * _BUFFER_DRAWS

    def take(self, counts: np.ndarray) -> np.ndarray:
        """The next counts[k] draws of each replica k, replica by replica."""
        short = counts > self.left
        past = self._refill(short, counts) if short.any() else []
        starts = counts.cumsum()
        starts -= counts
        if past:
            # rows too small for their take: every row is copied out on its own
            out = np.empty(starts[-1] + counts[-1])
            for k in np.flatnonzero(counts).tolist():
                a, c, read, left = starts[k], counts[k], self.read[k], self.left[k]
                out[a:a + min(c, left)] = self.buffer[k, read:read + min(c, left)]
                if c > left:
                    self.fill(self.rngs[k], out=out[a + left:a + c])
            self.read += counts
            self.left -= counts
            self.read[past] = self.left[past] = 0
            return out
        offset = self.rows + self.read
        offset -= starts
        index = offset.repeat(counts)
        index += np.arange(index.size)
        self.read += counts
        self.left -= counts
        return self.buffer.take(index)

    def _refill(self, short: np.ndarray, counts: np.ndarray) -> list[int]:
        """Refill the rows where short is True for the take of counts; return those it must read past."""
        width = self.buffer.shape[1]
        past = []
        for k, need, read, left, refill in zip(
            np.flatnonzero(short).tolist(),
            counts[short].tolist(),
            self.read[short].tolist(),
            self.left[short].tolist(),
            self.refill[short].tolist(),
        ):
            if need > width:
                past.append(k)
                continue
            row = self.buffer[k]
            row[:left] = row[read:read + left]
            size = max(need, min(width, left + refill))
            self.fill(self.rngs[k], out=row[left:size])
            self.read[k], self.left[k], self.refill[k] = 0, size, min(width, 2 * refill)
        return past


class _Streams:
    """A group's clock, move and event-kind draws.

    Replica k's seed sequence has three children, derived from its
    spawn_key: (..., 0) yields its clock uniforms, (..., 1) its standard
    normal moves and (..., 2) its event-kind uniforms.
    """

    def __init__(self, seeds: list[np.random.SeedSequence]):
        def rngs(stream: int) -> list[np.random.Generator]:
            return [
                np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                    s.entropy, spawn_key=s.spawn_key + (stream,), pool_size=s.pool_size
                )))
                for s in seeds
            ]

        self.clocks = _Draws(rngs(0), np.random.Generator.random)
        self.moves = _Draws(rngs(1), np.random.Generator.standard_normal)
        self.kinds = _Draws(rngs(2), np.random.Generator.random)


@dataclass(eq=False)
class _Group:
    """Particles of a group of replicas, replica by replica.

    owner[i] is the local index of the replica particle i belongs to, in
    nondecreasing order; x[i] is its position at step born[i] and event[i]
    the step of its next event.
    """

    owner: np.ndarray
    x: np.ndarray
    born: np.ndarray
    event: np.ndarray

    def select(self, keep: np.ndarray) -> "_Group":
        return _Group(self.owner[keep], self.x[keep], self.born[keep], self.event[keep])

    @staticmethod
    def merge(parts: list["_Group"]) -> "_Group":
        """The particles of all parts, replica by replica, each replica's in the order of parts."""
        if len(parts) == 1:
            return parts[0]
        owner = np.concatenate([p.owner for p in parts])
        order = np.argsort(owner, kind="stable")
        return _Group(
            owner[order],
            np.concatenate([p.x for p in parts])[order],
            np.concatenate([p.born for p in parts])[order],
            np.concatenate([p.event for p in parts])[order],
        )


class _Record:
    """Observables of n replicas along the snapshot grid, filled as groups march.

    A replica that explodes keeps nan from then on; one that dies out
    gets -inf, 0 and an empty cloud at every later snapshot (see SimResult).
    """

    def __init__(self, config: SimConfig, n: int):
        snap_steps = config.snapshot_steps()
        k = len(snap_steps)
        self.config = config
        self.snap_steps = snap_steps
        self.m = np.full((n, k), math.nan)
        self.z = np.full((n, k), math.nan)
        self.mass = np.full((n, k), math.nan)
        self.extinction_time = np.full(n, math.nan)
        self.exploded = np.zeros(n, dtype=bool)
        self.clouds: list[list[np.ndarray]] | None = (
            None if config.stats_only else [[] for _ in range(n)]
        )
        # events of each kind (split, death, then the jumps), pruned particles
        # and the replicas that pruning left empty
        self.kinds = np.zeros(2 + config.table.jump_counts.size, dtype=np.int64)
        self.pruned = 0
        self.emptied = 0

    def snapshot(self, j: int, group: _Group, counts: np.ndarray) -> None:
        """Record snapshot j of the replicas with counts[k] > 0 particles in group."""
        eps = self.config.epsilon
        t = self.config.snapshot_times[j]
        pos = group.x
        terms = _z_terms(pos, t)
        ends = np.cumsum(counts).tolist()
        for i in np.flatnonzero(counts).tolist():
            b = ends[i]
            a = b - int(counts[i])
            self.m[i, j] = float(pos[a:b].max())
            self.z[i, j] = eps * float(np.sum(terms[a:b]))
            self.mass[i, j] = eps * (b - a)
            if self.clouds is not None:
                self.clouds[i].append(pos[a:b].copy())

    def extinct(self, i: int, step: int, t: float) -> None:
        """Replica i has no particle left after the given step."""
        self.extinction_time[i] = t
        for j, s in enumerate(self.snap_steps):
            if s >= step:
                self.m[i, j] = NEG_INF
                self.z[i, j] = 0.0
                self.mass[i, j] = 0.0
                if self.clouds is not None:
                    self.clouds[i].append(np.empty(0))

    def tally(self, kind: np.ndarray) -> None:
        """Count events of the given kinds."""
        self.kinds += np.bincount(kind, minlength=self.kinds.size)

    def fill(self, lo: int, part: "_Record") -> None:
        """Copy in the rows of part, a record of replicas lo, lo + 1, ..."""
        hi = lo + len(part.exploded)
        self.m[lo:hi], self.z[lo:hi], self.mass[lo:hi] = part.m, part.z, part.mass
        self.extinction_time[lo:hi] = part.extinction_time
        self.exploded[lo:hi] = part.exploded
        if self.clouds is not None:
            self.clouds[lo:hi] = part.clouds
        self.kinds += part.kinds
        self.pruned += part.pruned
        self.emptied += part.emptied

    def result(self, diagnostics: Mapping[str, int]) -> SimResult:
        """The record's arrays, made read-only, as a SimResult with these diagnostics."""
        columns = (self.m, self.z, self.mass, self.extinction_time, self.exploded)
        for a in columns:
            a.flags.writeable = False
        clouds = None if self.clouds is None else tuple(map(tuple, self.clouds))
        jumps = self.kinds[2:]
        counts = {
            "splits": int(self.kinds[0]),
            "deaths": int(self.kinds[1]),
            "jumps": int(jumps.sum()),
            "jump_copies": int(jumps @ self.config.table.jump_counts),
            "pruned": self.pruned,
            "barrier_emptied": self.emptied,
        }
        return SimResult(self.config.snapshot_times, *columns, clouds, {**diagnostics, **counts})


def _march(law: _Law, group: _Group, draws: _Streams, record: _Record) -> None:
    """March a group from step 0 to the horizon, one epoch at a time (see _epoch)."""
    step = 0
    while group.owner.size and step < law.snap_steps[-1]:
        end = law.epoch_end(step)
        group = _epoch(law, group, draws, record, step, end)
        step = end


def _epoch(
    law: _Law, group: _Group, draws: _Streams, record: _Record, s0: int, s1: int
) -> _Group:
    """March the particles of group, alive at step s0, to step s1, one generation at a time.

    The first generation is group; each next one is the offspring of the
    events of the last that fall by s1.  An event moves its particle to
    its step, where the event's kind is drawn and the offspring start with
    clocks of their own.  A particle whose event falls after s1 is carried
    to s1: moved there where s1 needs positions, and kept with its old
    position otherwise.  Where the steps of the epoch are barrier steps a
    particle walks there step by step instead (see _walk), and one that
    falls below the line is pruned before its event makes copies; at the
    first barrier step, s1 of the epoch before, the particles at s1 below
    the line are pruned the same way.

    After each generation a replica's count is known up to the step
    before the earliest event of its next generation, so a replica that
    may be over the cap is checked up to there, and it leaves the group as
    soon as its count exceeds the cap.  Returns the particles alive at s1,
    replica by replica.
    """
    n = len(record.exploded)
    walking = law.walks(s0)
    placed = law.placed(s1)
    level = law.levels[s1]
    base = _counts(group.owner, n)
    room = law.cap - base  # births a replica may have before it could be over the cap
    born = 0  # births of all replicas, a bound on the births of each
    events = []  # (owner, step, kind) of every event so far
    lost = []  # (owner, step) of every pruned particle so far
    carried = []
    gen = group
    while gen.owner.size:
        due = gen.event <= s1
        if walking or placed:
            # events move their particle to its step, the rest move to s1
            to = np.minimum(gen.event, s1)
            if walking:
                x, cut = _walk(law, draws, gen, to, n)
            else:
                moving = to > gen.born
                owner = gen.owner[moving]
                gap = (to[moving] - gen.born[moving]) * law.dt
                x = gen.x.copy()
                x[moving] += np.sqrt(gap) * draws.moves.take(_counts(owner, n))
                cut = np.where((to == s1) & (x < level), s1, 0)
            low = cut > 0
            if low.any():
                lost.append((gen.owner[low], cut[low]))
                due &= ~low
            stay = ~(due | low)
            carried.append(_Group(gen.owner[stay], x[stay], to[stay], gen.event[stay]))
        else:
            carried.append(gen.select(~due))
        acting = np.flatnonzero(due)
        owner = gen.owner[acting]
        acted = _counts(owner, n)
        at = gen.event[acting]
        if walking or placed:
            x = x[acting]
        else:
            x = gen.x[acting] + np.sqrt((at - gen.born[acting]) * law.dt) * draws.moves.take(acted)
        gen, kind = _offspring(law, draws, owner, acted, x, at)
        events.append((owner, at, kind))
        born += gen.owner.size
        if born > room.min():
            births = np.bincount(
                np.concatenate([e[0] for e in events]),
                weights=law.sizes[np.concatenate([e[2] for e in events])],
                minlength=n,
            )
            if not np.any(births > room):
                continue
            # the count is known exactly up to the step before the next events
            known = np.full(n, s1)
            np.minimum.at(known, gen.owner, gen.event - 1)
            over = _over_cap(law, base, events, lost, known, s0, s1) & (births > room)
            if over.any():
                room[over] = np.iinfo(np.int64).max
                record.exploded[over] = True
                gen = gen.select(~over[gen.owner])

    alive = _Group.merge(carried)
    gone = record.exploded & (base > 0)
    if gone.any():
        alive = alive.select(~gone[alive.owner])
        base[gone] = 0
    counts = _counts(alive.owner, n)
    kinds = np.concatenate([e[2] for e in events])
    record.tally(kinds)
    dead = np.flatnonzero((base > 0) & (counts == 0))
    if dead.size:
        # a replica that dies out does so at its last death or pruning
        owner = np.concatenate([e[0] for e in events])
        at = np.concatenate([e[1] for e in events])
        deaths = law.sizes[kinds] == 0
        last_death = np.full(n, s0)
        np.maximum.at(last_death, owner[deaths], at[deaths])
        last_cut = np.full(n, s0)
        for owner, step in lost:
            np.maximum.at(last_cut, owner, step)
        for k in dead.tolist():
            step = int(max(last_death[k], last_cut[k]))
            record.extinct(k, step, step * law.dt)
        record.emptied += int(np.count_nonzero(last_cut[dead] >= last_death[dead]))
    record.pruned += sum(owner.size for owner, _ in lost)
    if s1 in law.snap_steps:
        record.snapshot(law.snap_steps.index(s1), alive, counts)
    return alive


def _walk(
    law: _Law, draws: _Streams, gen: _Group, to: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Walk the particles of gen by N(0, dt) per step from step born + 1 to to, on barrier steps.

    Returns where each one is at to, and the first step at which it was
    below the line, 0 where it never was.  A replica's moves are summed
    over all of its paths in one running sum, so its positions depend on
    its own draws alone.
    """
    steps = to - gen.born
    cut = np.zeros(steps.size, dtype=np.int64)
    moved = np.flatnonzero(steps > 0)
    if moved.size == 0:
        return gen.x, cut
    last = np.cumsum(steps)  # each path's elements end here in the replica-by-replica draws
    first = last - steps
    bounds = np.concatenate([[0], last])[gen.owner.searchsorted(np.arange(n + 1))]
    counts = np.diff(bounds)
    z = draws.moves.take(counts)
    for k in np.flatnonzero(counts).tolist():
        np.cumsum(z[bounds[k]:bounds[k + 1]], out=z[bounds[k]:bounds[k + 1]])
    # the running sum before each path, within its replica
    before = np.where(first > bounds[gen.owner], z[first - 1], 0.0)
    x = gen.x + law.sqrt_dt * (np.where(steps > 0, z[last - 1], before) - before)
    # in units of sqrt(dt) a particle is below the line at a step where the
    # running sum, less its sum before the path, is below (line - x); the
    # line rises with the step, so only a path whose lowest running sum is
    # below that bound at its last step can have been below it, and only
    # those paths are checked step by step (the margin covers rounding)
    offset = gen.x / law.sqrt_dt - before
    lowest = np.minimum.reduceat(z, first[moved])
    near = moved[lowest < law.levels[to[moved]] / law.sqrt_dt - offset[moved] + 1e-9]
    if near.size:
        lengths = steps[near]
        path = np.repeat(np.arange(near.size), lengths)
        offsets = np.arange(path.size) - (np.cumsum(lengths) - lengths)[path]
        step = (gen.born[near] + 1)[path] + offsets
        below = z[first[near][path] + offsets] < law.levels[step] / law.sqrt_dt - offset[near][path]
        hit = np.flatnonzero(below)
        # the first step below the line on each path that has one
        hit = hit[np.flatnonzero(np.diff(path[hit], prepend=-1))]
        cut[near[path[hit]]] = step[hit]
    return x, cut


def _offspring(
    law: _Law, draws: _Streams, owner: np.ndarray, counts: np.ndarray, x: np.ndarray, at: np.ndarray
) -> tuple[_Group, np.ndarray]:
    """The offspring of events at steps at, and the kind of each event.

    owner is nondecreasing and counts[k] is how many of its entries are k;
    the offspring are born at their parent's position and step, and draw
    the clocks of their next events.
    """
    kind = law.kind(draws.kinds.take(counts))
    sizes = law.sizes[kind]
    child = np.repeat(owner, sizes)
    born = np.repeat(at, sizes)
    clocks = law.clock(draws.clocks.take(_counts(child, counts.size)))
    return _Group(child, np.repeat(x, sizes), born, born + clocks), kind


def _over_cap(
    law: _Law, base: np.ndarray, events, lost, known: np.ndarray, s0: int, s1: int
) -> np.ndarray:
    """Which replicas' counts exceed the cap at some step in s0 + 1 .. known[k].

    base[k] is replica k's count at s0; events holds every event from
    s0 + 1 on as (owner, step, kind) arrays, and lost every pruning as
    (owner, step) arrays.
    """
    n = base.size
    width = s1 - s0
    owner = np.concatenate([e[0] for e in events] + [c[0] for c in lost])
    step = np.concatenate([e[1] for e in events] + [c[1] for c in lost])
    change = np.concatenate([law.sizes[e[2]] - 1 for e in events] + [np.full(c[0].size, -1) for c in lost])
    cells = owner * width + step - (s0 + 1)
    grid = np.bincount(cells, weights=change, minlength=n * width).reshape(n, width)
    over = base[:, None] + np.cumsum(grid, axis=1) > law.cap
    over &= np.arange(width) < (known - s0)[:, None]
    return over.any(axis=1)


# ---------------------------------------------------------------------------
# conditioned clusters


@dataclass(frozen=True, eq=False)
class ConditionedClusterSample:
    """Clusters accepted by rejection sampling on M_t > sqrt(2) t + z.

    Each cluster is the final cloud recentered at its rightmost particle,
    so its rightmost point is exactly 0.  The atoms sit in flat arrays,
    cluster by cluster, as ``extremal.ClusterBank`` holds them: cluster i
    is locations[starts[i]:starts[i + 1]], every weight is epsilon, and
    starts holds one offset more than there are clusters.  overshoots[i] is M_t - sqrt(2) t - z
    for the i-th accepted replica.  seed is the config seed the rejection
    batches were spawned from.  diagnostics records the rejection batches
    and replica groups whose results were used (the group that filled the
    sample is the last) and the processes that marched them.
    """

    locations: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    overshoots: np.ndarray
    z: float
    t: float
    attempts: int
    seed: int
    diagnostics: Mapping[str, int] = field(default_factory=dict)

    @property
    def acceptance(self) -> float:
        return (self.starts.size - 1) / self.attempts if self.attempts else 0.0


def sample_conditioned_clusters(
    config: SimConfig,
    z: float,
    t: float,
    n_accept: int,
    max_attempts: int | None = None,
) -> ConditionedClusterSample:
    """Collect n_accept clusters conditioned on the front exceeding sqrt(2) t + z.

    Replicas run in batches of max(64, min(4096, n_accept)); batch k
    spawns its seeds from _batch_seed(config.seed, k), so the accepted set
    depends only on (config, z, t, n_accept).  The batches' groups stream
    in order through one pool (see pool.ordered_map) and the stream stops at
    the group that fills the sample.  attempts counts whole batches, the
    one that filled the sample included.  A new batch starts only while
    attempts is below max_attempts (default 500 per requested cluster, at
    least 20000); AcceptanceTooLowError is raised when the batches so
    allowed end with fewer than n_accept clusters.
    """
    if n_accept < 1:
        raise ParticlesError("n_accept must be at least 1")
    if max_attempts is None:
        max_attempts = max(20_000, 500 * n_accept)
    level = SQRT2 * t + z
    batch = max(64, min(4096, n_accept))
    # the batches that start while attempts is below max_attempts
    n_batches = max(0, -(-max_attempts // batch))
    per_batch = -(-batch // _GROUP_REPLICAS)
    base = dataclasses.replace(
        config,
        t_end=t,
        snapshot_times=(t,),
        stats_only=False,
        n_replicas=batch,
    )
    march = functools.partial(_march_replicas, base, base.initial_positions())
    workers = worker_count(n_batches * per_batch)
    clusters: list[np.ndarray] = []
    overshoots: list[float] = []
    groups = 0
    stream = ordered_map(march, _batch_groups(config.seed, batch, n_batches), workers)
    with contextlib.closing(stream) as parts:
        for part in parts:
            groups += 1
            for exploded, snaps in zip(part.exploded, part.clouds):
                # a replica that did not explode has its one snapshot
                if exploded or not snaps[-1].size:
                    continue
                positions = snaps[-1]
                m = float(positions.max())
                if m > level:
                    clusters.append(positions - m)
                    overshoots.append(m - level)
                    if len(clusters) == n_accept:
                        break
            if len(clusters) == n_accept:
                break
    if len(clusters) < n_accept:
        attempts = n_batches * batch
        raise AcceptanceTooLowError(
            f"{len(clusters)} accepted in {attempts} attempts "
            f"(acceptance about {(len(clusters) + 1) / (attempts + 1):.2e})"
        )
    batches = -(-groups // per_batch)
    locations = np.concatenate(clusters)
    return ConditionedClusterSample(
        locations=locations,
        weights=np.full(locations.size, base.epsilon),
        starts=np.cumsum([0] + [c.size for c in clusters]),
        overshoots=np.asarray(overshoots),
        z=float(z),
        t=float(t),
        attempts=batches * batch,
        seed=config.seed,
        diagnostics={"batches": batches, "groups": groups, "workers": workers},
    )


def _batch_seed(seed: int, batch_index: int) -> int:
    # distinct deterministic seeds per rejection batch, clear of the base seed
    return (seed + 0x9E3779B97F4A7C15 * (batch_index + 1)) % (1 << 63)


def _batch_groups(seed: int, batch: int, n_batches: int):
    """The replica groups of rejection batches 0 .. n_batches - 1, in order.

    Batch k is the replicas simulate would run for seed _batch_seed(seed, k)
    and n_replicas batch, cut into the same groups.
    """
    for k in range(n_batches):
        seeds = np.random.SeedSequence(_batch_seed(seed, k)).spawn(batch)
        for lo in range(0, batch, _GROUP_REPLICAS):
            yield seeds[lo:lo + _GROUP_REPLICAS]
