"""Path-integral representation of the wave field, with barrier curves.

The field solved by :mod:`sbmlab.kpp` also satisfies a stochastic
representation: its value at (t, x) is the expectation, over Brownian paths
run from x, of the field at an earlier time r weighted by an exponential
growth factor whose rate depends on the field along the path.  This module
estimates that expectation by Monte Carlo (``fk_estimate``), and implements
the deterministic tail approximation ``psi_sandwich`` together with the
bridge-and-barrier bounds ``psi1_psi2_estimate`` that squeeze the field far
ahead of the front.

Bridges are marched by one generator, ``_bridge_march``, which both
``BridgeSampler`` and ``psi1_psi2_estimate`` draw from.  The stay-above
probability 1 - exp(-2 a b / span) of a bridge between clearances a and b
has one implementation, ``_survival_step_factor``; ``bridge_crossing_prob``
and the straight-line factor of ``psi_sandwich`` are that factor over a
single step.

Conventions: mechanisms are assumed normalized (largest zero of the
branching polynomial at 1, drift coefficient 1), so the front speed is
sqrt(2) and the growth rate k is at most 1.  Barrier curves are expressed
in the time variable of the field; bridge paths use their own clock s, and
a barrier evaluated along a bridge is read at field time t - s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .kpp import SQRT2, Field, _as_float, front_m, median_m_tilde
from .mechanism import BranchingMechanism, k as mechanism_k

__all__ = [
    "FkError",
    "RegionViolationError",
    "PathExitedFieldError",
    "BarrierCurves",
    "BridgeSampler",
    "FkResult",
    "Psi12Result",
    "fk_estimate",
    "bridge_crossing_prob",
    "psi_sandwich",
    "psi1_psi2_estimate",
]

# time steps per bridge in psi1_psi2_estimate
_BRIDGE_STEPS = 1000


class FkError(ValueError):
    """Invalid argument to a path-integral routine."""


class RegionViolationError(FkError):
    """The (r, t, x) probe lies outside the validity region of the formula."""


class PathExitedFieldError(FkError):
    """A Monte Carlo path left the spatial grid of the field."""


# ---------------------------------------------------------------------------
# barrier curves


@dataclass(frozen=True, eq=False)
class BarrierCurves:
    """The tilted median curve L and the barriers built from it.

    All curves live on field time s in [0, t].  L interpolates between the
    running median (shifted to start near log r) and its terminal value; the
    upper barrier M_bar lifts L by 4 s^delta near both ends of [r, t - 2r]
    and switches to the flat level (x + median(t)) / 2 on the final stretch;
    the lower barrier M_lower pushes L down by the same margins and is minus
    infinity outside [r + r^delta, t - 2r].  The straight line n joins
    sqrt(2) r at time r to the centering m(t) at time t.
    """

    r: float
    t: float
    x: float
    delta: float
    median_times: np.ndarray
    median_values: np.ndarray
    m_tilde_t: float

    @classmethod
    def from_field(
        cls,
        field: Field,
        r: float,
        t: float,
        x: float,
        delta: float = 0.45,
    ) -> "BarrierCurves":
        r = _as_float("r", r, FkError)
        t = _as_float("t", t, FkError)
        x = _as_float("x", x, FkError)
        delta = _as_float("delta", delta, FkError)
        if not 0.0 < delta < 0.5:
            raise FkError("delta must lie in (0, 1/2)")
        if r <= 1.0:
            raise FkError("r must exceed 1")
        if t <= 3.0 * r:
            raise FkError("need t > 3 r so the barrier windows do not overlap")
        times = np.asarray(field.median_times, dtype=float)
        vals = np.asarray(field.median_values, dtype=float)
        if times[-1] < t - 1e-9:
            raise FkError(f"field horizon {times[-1]} is shorter than t={t}")
        keep = times <= t + 1e-9
        times, vals = times[keep], vals[keep]
        if not np.all(np.isfinite(vals)):
            raise FkError("median trace has non-finite entries on [0, t]")
        m_t = median_m_tilde(field, t)
        return cls(
            r=r,
            t=t,
            x=x,
            delta=delta,
            median_times=times,
            median_values=vals,
            m_tilde_t=float(m_t),
        )

    # -- building blocks ---------------------------------------------------

    def m_tilde(self, s):
        return np.interp(s, self.median_times, self.median_values)

    def L(self, s: float) -> float:
        s = float(s)
        m_s = float(self.m_tilde(s))
        return m_s - (s / self.t) * self.m_tilde_t + ((self.t - s) / self.t) * math.log(self.r)

    def _tilt(self, s: float) -> float:
        """Shift that turns an L-level curve back into field coordinates."""
        return (s / self.t) * self.m_tilde_t - ((self.t - s) / self.t) * math.log(self.r)

    def theta_apply(self, fn: Callable[[float], float], s: float) -> float:
        """The stretch-and-lift operator applied to a curve at time s."""
        r, t, d = self.r, self.t, self.delta
        s = float(s)
        if r <= s <= t / 2.0:
            return fn(s + s**d) + 4.0 * s**d
        if t / 2.0 < s <= t - 2.0 * r:
            return fn(s + (t - s) ** d) + 4.0 * (t - s) ** d
        return fn(s)

    def theta_L(self, s: float) -> float:
        return self.theta_apply(self.L, s)

    def _invert_up(self, s: float) -> float:
        """Solve u + u^delta = s for u."""
        d = self.delta
        return float(brentq(lambda u: u + u**d - s, 1e-12, s, xtol=1e-12))

    def _invert_down(self, s: float) -> float:
        """Solve u + (t - u)^delta = s for u."""
        t, d = self.t, self.delta
        lo = max(1e-12, s - t**d - 1.0)
        return float(brentq(lambda u: u + (t - u) ** d - s, lo, s, xtol=1e-12))

    def theta_inv_L(self, s: float) -> float:
        r, t, d = self.r, self.t, self.delta
        s = float(s)
        if r <= s < r + r**d:
            return -math.inf
        if r + r**d <= s <= t / 2.0 + (t / 2.0) ** d:
            u = self._invert_up(s)
            return self.L(u) - 4.0 * u**d
        if t / 2.0 + (t / 2.0) ** d < s <= t - 2.0 * r:
            u = self._invert_down(s)
            return self.L(u) - 4.0 * (t - u) ** d
        if t - 2.0 * r < s < t - 2.0 * r + (2.0 * r) ** d:
            u = self._invert_down(s)
            return max(self.L(u) - 4.0 * (t - u) ** d, self.L(s))
        return self.L(s)

    # -- barriers ----------------------------------------------------------

    def M_bar(self, s: float) -> float:
        s = float(s)
        if s < -1e-9 or s > self.t + 1e-9:
            raise FkError(f"s={s} outside [0, t]")
        if s <= self.t - 2.0 * self.r:
            top = max(self.theta_L(s), self.theta_inv_L(s), self.L(s))
            return top + self._tilt(s)
        return 0.5 * (self.x + self.m_tilde_t)

    def M_lower(self, s: float) -> float:
        s = float(s)
        r, t, d = self.r, self.t, self.delta
        if s < r + r**d or s > t - 2.0 * r:
            return -math.inf
        return self.theta_inv_L(s) + self._tilt(s)

    def n(self, s: float) -> float:
        s = float(s)
        r, t = self.r, self.t
        if s < r - 1e-9 or s > t + 1e-9:
            raise FkError(f"the straight barrier is defined on [r, t], got s={s}")
        s = min(max(s, r), t)
        m_t = front_m(1.0, t)
        return SQRT2 * r + (s - r) / (t - r) * (m_t - SQRT2 * r)

    def barrier_arrays(self, s_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M_bar, M_lower) sampled at the given field times."""
        up = np.array([self.M_bar(s) for s in s_values])
        low = np.array([self.M_lower(s) for s in s_values])
        return up, low


# ---------------------------------------------------------------------------
# bridges


@dataclass(frozen=True)
class BridgeSampler:
    """Brownian bridge paths from x to y over [0, span] on a uniform grid.

    ``dt`` is quantized at construction so the steps tile the span exactly;
    each step draws from the exact conditional law given the current point
    and the pinned endpoint, so marginals are exact at every grid time.
    """

    x: float
    y: float
    span: float
    dt: float
    seed: int = 0

    def __post_init__(self):
        x = _as_float("x", self.x, FkError)
        y = _as_float("y", self.y, FkError)
        span = _as_float("span", self.span, FkError)
        if span <= 0.0:
            raise FkError("span must be positive")
        dt = _as_float("dt", self.dt, FkError)
        if dt <= 0.0 or dt > span:
            raise FkError("dt must lie in (0, span]")
        m = max(1, round(span / dt))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "dt", span / m)

    @property
    def n_steps(self) -> int:
        return round(self.span / self.dt)

    def sample(self, n: int) -> np.ndarray:
        """n paths as an (n, n_steps + 1) array."""
        if n < 1:
            raise FkError("need at least one path")
        start = np.full(n, self.x)
        rng = np.random.default_rng(self.seed)
        return np.column_stack([start, *_bridge_march(rng, start, self.y, self.span, self.n_steps)])


def _bridge_march(
    rng: np.random.Generator, start: np.ndarray, end: float | np.ndarray, span: float, m: int
):
    """Yield the positions of Brownian bridges from start to end after each of m steps.

    Step i draws from the exact law of the bridge at time (i + 1) span / m
    given its current point; the last step yields end itself.
    """
    h = span / m
    b = start
    for i in range(m - 1):
        tau = span - i * h
        mean = b + (end - b) * (h / tau)
        sd = math.sqrt(max(h * (tau - h) / tau, 0.0))
        b = mean + sd * rng.standard_normal(b.shape)
        yield b
    yield np.broadcast_to(end, b.shape)


def bridge_crossing_prob(a: float, b: float, span: float) -> float:
    """Probability that a bridge between heights a and b stays above 0.

    Zero when either endpoint is at or below the line; otherwise
    1 - exp(-2 a b / span).
    """
    a = _as_float("a", a, FkError)
    b = _as_float("b", b, FkError)
    span = _as_float("span", span, FkError)
    if span <= 0.0:
        raise FkError("span must be positive")
    return float(_survival_step_factor(np.float64(a), np.float64(b), span))


def _survival_step_factor(d_prev: np.ndarray, d_new: np.ndarray, h: float) -> np.ndarray:
    """Per-step probability that the bridge between two positive clearances
    did not touch the barrier in between (piecewise-linear barrier)."""
    both = (d_prev > 0.0) & (d_new > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        expo = np.minimum(-2.0 * d_prev * d_new / h, 0.0)
        fac = np.where(both, -np.expm1(expo), 0.0)
    return fac


# ---------------------------------------------------------------------------
# Monte Carlo representation


@dataclass(frozen=True)
class FkResult:
    mean: float
    std_error: float
    n_paths: int


def fk_estimate(
    field: Field,
    mech: BranchingMechanism | None,
    r: float,
    t: float,
    x: float,
    n_paths: int,
    seed: int = 0,
    path_dt: float | None = None,
    k_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> FkResult:
    """Monte Carlo estimate of the field at (t, x) from its value at time r.

    Averages u(r, B(t-r)) * exp(integral of k(u(t-s, B(s))) ds) over free
    Brownian paths B started at x.  The time integral uses the trapezoid
    rule on the path grid.  With ``r == t`` no paths are needed and the
    field value itself is returned with zero standard error.  ``k_fn``
    replaces the mechanism growth rate when given (the constant-rate
    surrogate k = 1 turns the representation into a pure heat semigroup
    with growth e^(t-r), which is the main oracle for this routine).
    """
    r = _as_float("r", r, FkError)
    t = _as_float("t", t, FkError)
    x = _as_float("x", x, FkError)
    if not 0.0 <= r <= t:
        raise FkError("need 0 <= r <= t")
    if n_paths < 1:
        raise FkError("n_paths must be at least 1")
    if k_fn is None:
        if mech is None:
            raise FkError("provide a mechanism or an explicit k_fn")
        k_fn = functools.partial(mechanism_k, mech)
    if r == t:
        return FkResult(mean=float(field.interp(t, x)), std_error=0.0, n_paths=0)

    span = t - r
    if path_dt is None:
        path_dt = min(0.005, span / 100.0)
    m = max(2, int(math.ceil(span / path_dt)))
    h = span / m
    xs = field.grid.x
    rng = np.random.default_rng(seed)

    b = np.full(n_paths, x)
    integral = np.zeros(n_paths)
    for i in range(m + 1):
        s_i = i * h
        w = 0.5 * h if i in (0, m) else h
        u_here = np.asarray(field.interp(t - s_i, b))
        integral += w * np.asarray(k_fn(u_here), dtype=float)
        if i < m:
            b = b + math.sqrt(h) * rng.standard_normal(n_paths)
            if b.min() < xs[0] or b.max() > xs[-1]:
                raise PathExitedFieldError(
                    "a path left the spatial grid; enlarge the field's padding"
                )
    values = np.asarray(field.interp(r, b)) * np.exp(integral)
    mean = float(np.mean(values))
    se = float(np.std(values) / math.sqrt(n_paths))
    return FkResult(mean=mean, std_error=se, n_paths=n_paths)


# ---------------------------------------------------------------------------
# tail approximation


def psi_sandwich(
    field: Field,
    r: float,
    t: float,
    x: float,
) -> float:
    """Deterministic quadrature for the field far ahead of the front.

    Valid for t >= 8 r and x >= m(t) + 9 r (checked, RegionViolationError
    otherwise); r must be a stored snapshot time.  Integrates the time-r
    field against the tilted Gaussian kernel and the stay-above factor
    of the straight line, over the offset y >= 0 measured from sqrt(2) r.
    """
    r = _as_float("r", r, FkError)
    t = _as_float("t", t, FkError)
    x = _as_float("x", x, FkError)
    if r <= 0.0 or t <= r:
        raise FkError("need 0 < r < t")
    m_t = front_m(1.0, t)
    if t < 8.0 * r - 1e-9:
        raise RegionViolationError(f"need t >= 8 r, got t={t}, r={r}")
    if x < m_t + 9.0 * r - 1e-9:
        raise RegionViolationError(f"need x >= m(t) + 9 r = {m_t + 9.0 * r:.3f}, got x={x}")

    xs = field.grid.x
    row = field.at(r)
    span = t - r
    x_tilde = x - SQRT2 * t
    y_step = 0.5 * field.grid.dx
    y_max = min(xs[-1] - SQRT2 * r, max(x_tilde, 0.0) + 8.0 * math.sqrt(span) + 10.0)
    if y_max <= 0.0:
        raise FkError("field grid does not extend beyond sqrt(2) r")
    y = np.arange(0.0, y_max, y_step)
    u_vals = np.interp(SQRT2 * r + y, xs, row)
    if not np.any(u_vals > 0.0):
        return 0.0
    gauss = np.exp(-((x_tilde - y) ** 2) / (2.0 * span))
    stay = _survival_step_factor(x - m_t, y, span)
    integrand = u_vals * np.exp(SQRT2 * y) * gauss * stay
    integral = float(np.trapezoid(integrand, y))
    prefactor = math.exp(-SQRT2 * x_tilde) / math.sqrt(2.0 * math.pi * span)
    return prefactor * integral


# ---------------------------------------------------------------------------
# bridge bounds


@dataclass(frozen=True)
class Psi12Result:
    psi1: float
    se1: float
    psi2: float
    se2: float
    n_bridges: int


def psi1_psi2_estimate(
    field: Field,
    r: float,
    t: float,
    x: float,
    n_bridges: int = 256,
    seed: int = 0,
) -> Psi12Result:
    """The barrier bounds that squeeze the field at (t, x) from both sides.

    psi1 keeps only bridge paths that stay above the upper barrier M_bar,
    psi2 only those above the lower barrier M_lower; both weight the
    endpoint by the time-r field and the Gaussian kernel, with growth
    e^(t-r) and unit prefactor constants.  The y integral runs over the
    field grid (trapezoid); the stay-above probability at each y node is
    estimated from a common ensemble of bridges with the per-step product
    correction, so psi2 >= psi1 holds path by path.  Valid for t >= 8 r
    and x >= median(t) + 8 r.
    """
    r = _as_float("r", r, FkError)
    t = _as_float("t", t, FkError)
    x = _as_float("x", x, FkError)
    if n_bridges < 8:
        raise FkError("need at least 8 bridges per node")
    if t < 8.0 * r - 1e-9:
        raise RegionViolationError(f"need t >= 8 r, got t={t}, r={r}")
    m_til = median_m_tilde(field, t)
    if x < m_til + 8.0 * r - 1e-9:
        raise RegionViolationError(
            f"need x >= median(t) + 8 r = {m_til + 8.0 * r:.3f}, got x={x}"
        )
    curves = BarrierCurves.from_field(field, r=r, t=t, x=x)

    span = t - r
    xs = field.grid.x
    row = field.at(r)
    y_step = 2.0 * field.grid.dx

    y_nodes = np.arange(xs[0], xs[-1], y_step)
    u_y = np.interp(y_nodes, xs, row)
    log_kernel = -((x - y_nodes) ** 2) / (2.0 * span)
    with np.errstate(divide="ignore"):
        weight = u_y * np.exp(log_kernel) / math.sqrt(2.0 * math.pi * span)
    keep = weight > weight.max() * 1e-12
    y_nodes, weight = y_nodes[keep], weight[keep]
    if y_nodes.size < 4:
        raise FkError("too few y nodes carry weight; check the probe point")

    m = _BRIDGE_STEPS
    h = span / m
    s_grid = np.arange(m + 1) * h
    # one row per barrier: M_bar for psi1, M_lower for psi2
    bars = np.array(curves.barrier_arrays(t - s_grid))[:, :, None]

    n_y = y_nodes.size
    total = n_y * n_bridges
    targets = np.repeat(y_nodes, n_bridges)
    rng = np.random.default_rng(seed)

    start = np.full(total, x)
    p = np.ones((2, total))
    d_prev = start - bars[:, 0]
    for i, b in enumerate(_bridge_march(rng, start, targets, span, m), 1):
        d_new = b - bars[:, i]
        p *= _survival_step_factor(d_prev, d_new, h)
        d_prev = d_new

    p = p.reshape(2, n_y, n_bridges)
    surv = p.mean(axis=2)
    var = p.var(axis=2) / n_bridges

    # trapezoid coefficients on the kept (uniform) node set
    coef = np.full(n_y, y_step)
    coef[0] *= 0.5
    coef[-1] *= 0.5
    growth = math.exp(span)
    psi1, psi2 = (growth * float(np.sum(coef * weight * row)) for row in surv)
    se1, se2 = (growth * math.sqrt(float(np.sum((coef * weight) ** 2 * row))) for row in var)
    return Psi12Result(psi1=psi1, se1=se1, psi2=psi2, se2=se2, n_bridges=n_bridges)
