"""Deterministic solver for the reaction-diffusion front equation.

Solves u_t = u_xx / 2 - psi(u) on a uniform grid with Strang splitting:
a half step of implicit diffusion, a full reaction step, and a second
diffusion half step.  The diffusion halves are Crank-Nicolson, except in
the first two time steps, which use backward Euler to damp the ringing
Crank-Nicolson produces on discontinuous data; both constant tridiagonal
matrices are factored once per march (LAPACK ``dpttrf``) and each half
step is one ``dpttrs`` solve.

The reaction step applies ``mechanism.flow_map``, the time-dt map of
v' = -psi(v), once per step at every node: the logistic closed form for a
mechanism without jumps (exact to rounding), the mechanism's flow table
otherwise (about 1e-9 relative).  ``Field.diagnostics["reaction"]`` records
which ("logistic" or "table").

Fields are stored in the coordinates where the front moves right: bounded
initial data phi enters as u(0, x) = phi(-x), the heaviside kind is
1_{x < 0}, and the barrier field V, the limit of data theta 1_{x < 0} as
theta -> inf, is marched once from the truncation level V_THETA = 1e4 on
x < 0.  Boundary values follow the reaction flow b' = -psi(b), which is the
exact spatially flat solution; plateaus at 0 and the equilibrium are
unchanged by it, and the barrier plateau relaxes the way the total-mass flow
does instead of staying pinned at the truncation level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .mechanism import BranchingMechanism, flow_map

__all__ = [
    "Field",
    "FrontTouchedBoundaryError",
    "Grid1D",
    "InitialCondition",
    "KppError",
    "front_m",
    "median_m_tilde",
    "solve_U",
    "solve_V",
]

SQRT2 = math.sqrt(2.0)  # front speed under the unit-drift normalization

V_THETA = 1e4  # truncation level of the barrier data
FRONT_GUARD_CELLS = 5
FRONT_GUARD_TOL = 1e-6


class KppError(ValueError):
    """Invalid grid, initial data, or a failed solve."""


class FrontTouchedBoundaryError(KppError):
    """The moving front reached the guard cells at a domain edge."""


def _as_float(name: str, value, error: type[Exception]) -> float:
    """``value`` as a finite float, or ``error`` naming the argument."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} must be a real number") from exc
    if not math.isfinite(out):
        raise error(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time grid; dx must divide the span and dt the horizon."""

    x_min: float
    x_max: float
    dx: float
    dt: float
    t_end: float

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise KppError("x_max must exceed x_min")
        if self.dx <= 0 or self.dt <= 0 or self.t_end <= 0:
            raise KppError("dx, dt, t_end must be positive")
        span = self.x_max - self.x_min
        if abs(round(span / self.dx) * self.dx - span) > 1e-9 * max(1.0, span):
            raise KppError("dx must divide x_max - x_min")
        steps = round(self.t_end / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise KppError("dt must divide t_end")

    @classmethod
    def auto(
        cls,
        t_end: float,
        dx: float = 0.05,
        dt: float = 0.01,
        pad: float = 20.0,
    ) -> "Grid1D":
        """Symmetric domain wide enough that the front never nears an edge.

        The half width sqrt(2) t_end + pad covers the front position plus
        its logarithmic lag and the tail the solver needs to resolve.
        """
        half = math.ceil((SQRT2 * t_end + pad) / dx) * dx
        return cls(x_min=-half, x_max=half, dx=dx, dt=dt, t_end=t_end)

    @property
    def nx(self) -> int:
        return round((self.x_max - self.x_min) / self.dx) + 1

    @property
    def nt(self) -> int:
        return round(self.t_end / self.dt)

    @functools.cached_property
    def x(self) -> np.ndarray:
        """The nodes, built once per grid and read-only."""
        nodes = np.linspace(self.x_min, self.x_max, self.nx)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True)
class InitialCondition:
    """Initial data kinds: bounded phi and heaviside.

    ``integrable_tail`` records whether int_0^inf y e^{sqrt2 y} phi(-y) dy is
    finite, probed numerically on [0, 60]; front-limit constants require it,
    plain solves do not.
    """

    kind: str
    phi: Callable | None
    sup_norm: float
    integrable_tail: bool

    @classmethod
    def bounded(cls, phi: Callable, sup_norm: float) -> "InitialCondition":
        if sup_norm < 0 or not math.isfinite(sup_norm):
            raise KppError("sup_norm must be finite and nonnegative")
        return cls(
            kind="bounded",
            phi=phi,
            sup_norm=float(sup_norm),
            integrable_tail=_tail_weight_integrable(phi),
        )

    @classmethod
    def heaviside(cls) -> "InitialCondition":
        return cls(kind="heaviside", phi=None, sup_norm=1.0, integrable_tail=False)

    def field_values(self, x: np.ndarray) -> np.ndarray:
        """Initial field on the grid, in front-moving coordinates."""
        x = np.asarray(x, dtype=float)
        if self.kind == "heaviside":
            return np.where(x < 0.0, 1.0, 0.0)
        if self.kind == "bounded":
            return _eval_phi(self.phi, -x)
        raise KppError(f"unknown initial-condition kind {self.kind!r}")


def _eval_phi(phi: Callable, arg: np.ndarray) -> np.ndarray:
    vals = np.asarray(phi(arg), dtype=float)
    if vals.shape != arg.shape:
        vals = np.array([float(phi(a)) for a in arg])
    return vals


def _tail_weight_integrable(phi: Callable) -> bool:
    y = np.linspace(0.0, 60.0, 2401)
    g = y * np.exp(SQRT2 * y) * _eval_phi(phi, -y)
    peak = float(np.max(np.abs(g)))
    if peak == 0.0:
        return True
    tail = float(np.max(np.abs(g[y >= 45.0])))
    return tail <= 1e-6 * peak


@dataclass(frozen=True, eq=False)
class Field:
    """Solution snapshots plus the per-step median trace.

    ``provenance`` says which object the field represents ("U_phi", "V_phi",
    or "V"); ``theta`` is the truncation level a barrier field was marched
    from, None otherwise.  ``diagnostics`` records the form of the reaction
    map ("logistic" or "table"), the time steps marched and the largest
    drift seen in the edge guard cells.
    """

    grid: Grid1D
    times: np.ndarray
    snapshots: np.ndarray
    provenance: str
    theta: float | None
    median_times: np.ndarray
    median_values: np.ndarray
    diagnostics: Mapping[str, object] = field(default_factory=dict)

    def _row(self, t: float) -> int:
        hits = np.nonzero(np.abs(self.times - t) <= 1e-9)[0]
        if hits.size == 0:
            raise KppError(f"no snapshot at t={t}; have {self.times}")
        return int(hits[0])

    def at(self, t: float) -> np.ndarray:
        return self.snapshots[self._row(t)]

    def interp(self, t: float, x) -> float | np.ndarray:
        """Bilinear value between snapshots; t and x must be inside the grid.

        Each point's cell comes from arithmetic on the uniform grid, not a
        search: j = floor((x - x[0]) / dx), moved by at most one cell so that
        x[j] <= x < x[j + 1] holds against the stored nodes.  The cell and
        the offset x - x[j] serve both snapshot rows of the time blend.  Each
        row is ``np.interp``'s own formula, so a row's values are those of
        ``np.interp(x, grid.x, row)`` bit for bit, node hits included, and
        points up to 1e-9 beyond either end take that end node's value.
        """
        times = self.times
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            raise KppError(f"t={t} outside snapshot range")
        xs = self.grid.x
        x0, x_end, last = xs[0], xs[-1], xs.size - 1
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        # NaN fails both comparisons, so it is rejected here too
        lowest, highest = x_arr.min(initial=np.inf), x_arr.max(initial=-np.inf)
        if not (lowest >= x0 - 1e-9 and highest <= x_end + 1e-9):
            raise KppError("x outside the spatial grid")
        # np.interp gives a point beyond an end that end node's value
        x_arr = x_arr.clip(x0, x_end)
        # augmented assignments work in place on arrays and rebind the numpy
        # scalars a 0-d input turns into, so one path serves both
        cell = x_arr - x0
        cell /= (x_end - x0) / last
        cell = np.minimum(cell.astype(np.intp), last - 1)
        cell -= x_arr < xs[cell]
        cell += x_arr >= xs[cell + 1]
        # cell == last only at x == x_end, a node hit, where the "clip"
        # takes below give cell last - 1's width and fp[last]
        offset = x_arr - xs[cell]
        hit = offset == 0.0
        width = (xs[1:] - xs[:-1]).take(cell, mode="clip")

        def row(k: int) -> np.ndarray:
            fp = self.snapshots[k]
            f_cell = fp[cell]
            val = fp[1:].take(cell, mode="clip")
            val -= f_cell
            val /= width
            val *= offset
            val += f_cell
            return np.where(hit, f_cell, val)

        j = int(times.searchsorted(t))
        j = min(max(j, 0), len(times) - 1)
        if abs(times[j] - t) <= 1e-9:
            out = row(j)
        else:
            j0 = j - 1
            w = (t - times[j0]) / (times[j] - times[j0])
            out = row(j0)
            out *= 1.0 - w
            upper = row(j)
            upper *= w
            out += upper
        if scalar:
            return float(out)
        return out


def front_m(alpha: float, t: float) -> float:
    """Front centering sqrt(2 alpha) t - 3/(2 sqrt(2 alpha)) log t."""
    if alpha <= 0:
        raise KppError("alpha must be positive")
    if t <= 0:
        raise KppError("centering is defined for t > 0")
    root = math.sqrt(2.0 * alpha)
    return root * t - 1.5 / root * math.log(t)


def tail_error_estimate(field: Field, t: float, x: float) -> float:
    """Relative size of the scheme's dispersion excess in the far tail.

    On profiles decaying like e^{-kappa x} the centered second difference
    reads (2 cosh(kappa dx) - 2)/dx^2 = kappa^2 (1 + kappa^2 dx^2 / 12 + ...),
    so the discrete tail grows faster than the exact one by about
    kappa^4 dx^2 / 24 per unit time (diffusion coefficient 1/2).  The local
    decay rate at a probe ahead of the front is close to x/t (Gaussian
    regime), never below sqrt(2) (wave regime).  Returns the accumulated
    relative excess, a suitable grid-error term when comparing far-tail
    values against exact-kernel quadratures.
    """
    if t <= 0.0:
        raise KppError("need t > 0")
    kappa = max(x / t, SQRT2)
    return kappa**4 * field.grid.dx**2 * t / 24.0


def median_m_tilde(field: Field, t: float) -> float:
    """Largest x with field >= 1/2 at time t, from the per-step trace.

    Returns -inf when the whole profile is below 1/2 and +inf when the
    rightmost cell is still above it.
    """
    times, meds = field.median_times, field.median_values
    if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
        raise KppError(f"t={t} outside the solved horizon")
    j = int(np.searchsorted(times, t))
    j = min(max(j, 0), len(times) - 1)
    if abs(times[j] - t) <= 1e-9:
        return float(meds[j])
    j0 = j - 1
    v0, v1 = meds[j0], meds[j]
    if not (math.isfinite(v0) and math.isfinite(v1)):
        return float(v0 if t - times[j0] <= times[j] - t else v1)
    w = (t - times[j0]) / (times[j] - times[j0])
    return float((1.0 - w) * v0 + w * v1)


def _median_of_profile(u: np.ndarray, x: np.ndarray) -> float:
    above = np.nonzero(u >= 0.5)[0]
    if above.size == 0:
        return -math.inf
    i = int(above[-1])
    if i == len(u) - 1:
        return math.inf
    drop = u[i] - u[i + 1]
    if drop <= 0.0:
        return float(x[i])
    return float(x[i] + (x[i + 1] - x[i]) * (u[i] - 0.5) / drop)


def _snapshot_steps(grid: Grid1D, snapshot_times: Sequence[float] | None) -> list[int]:
    steps = {0, grid.nt}
    for t in snapshot_times or ():
        k = round(t / grid.dt)
        if k < 0 or k > grid.nt or abs(k * grid.dt - t) > 1e-6:
            raise KppError(f"snapshot time {t} is not on the time grid")
        steps.add(k)
    return sorted(steps)


def _march(
    mech: BranchingMechanism,
    u0: np.ndarray,
    grid: Grid1D,
    snapshot_times: Sequence[float] | None,
    provenance: str,
    theta: float | None,
) -> Field:
    """March the split scheme from u0 into a Field with its median trace and diagnostics."""
    snapshot_steps = _snapshot_steps(grid, snapshot_times)
    dx2 = grid.dx * grid.dx
    r_cn = grid.dt / (8.0 * dx2)
    r_be = grid.dt / (4.0 * dx2)
    nx = grid.nx
    factors = {}
    for backward_euler, r in ((False, r_cn), (True, r_be)):
        d, e, info = dpttrf(np.full(nx - 2, 1.0 + 2.0 * r), np.full(nx - 3, -r))
        if info != 0:
            raise KppError(f"diffusion matrix factorization failed (info {info})")
        factors[backward_euler] = (r, d, e)

    def diffuse_half(u: np.ndarray, backward_euler: bool) -> None:
        # in place; the two edge nodes do not diffuse
        r, d, e = factors[backward_euler]
        interior = u[1:-1]
        if backward_euler:
            rhs = interior.copy()
        else:
            rhs = interior + r * (u[:-2] - 2.0 * interior + u[2:])
        rhs[0] += r * u[0]
        rhs[-1] += r * u[-1]
        u[1:-1], _info = dpttrs(d, e, rhs, overwrite_b=1)

    # boundary nodes ride along: the reaction flow is their exact evolution
    flow = flow_map(mech, grid.dt)

    guard = FRONT_GUARD_CELLS
    edges = np.r_[0:guard, nx - guard : nx]
    anchors = np.repeat([0, nx - 1], guard)
    x = grid.x
    u = u0.astype(float).copy()
    med_times = np.empty(grid.nt + 1)
    med_vals = np.empty(grid.nt + 1)
    med_times[0] = 0.0
    med_vals[0] = _median_of_profile(u, x)
    snaps = {0: u.copy()} if 0 in snapshot_steps else {}
    snap_set = set(snapshot_steps)
    max_drift = 0.0

    for k in range(grid.nt):
        startup = k < 2
        diffuse_half(u, backward_euler=startup)
        u = flow(u)
        diffuse_half(u, backward_euler=startup)
        np.maximum(u, 0.0, out=u)

        # a non-finite node spreads through the tridiagonal solves to the
        # guard cells, so the drift is NaN exactly when the field is
        drift = float(np.max(np.abs(u[edges] - u[anchors])))
        if not drift <= FRONT_GUARD_TOL:
            t_now = (k + 1) * grid.dt
            if math.isnan(drift):
                raise KppError(f"field became non-finite at t={t_now:.3f}; refine dt")
            raise FrontTouchedBoundaryError(
                f"front entered the edge guard cells at t={t_now:.3f}; enlarge the domain"
            )
        max_drift = max(max_drift, drift)

        med_times[k + 1] = (k + 1) * grid.dt
        med_vals[k + 1] = _median_of_profile(u, x)
        if k + 1 in snap_set:
            snaps[k + 1] = u.copy()

    return Field(
        grid=grid,
        times=np.array([s * grid.dt for s in snapshot_steps]),
        snapshots=np.stack([snaps[s] for s in snapshot_steps]),
        provenance=provenance,
        theta=theta,
        median_times=med_times,
        median_values=med_vals,
        diagnostics={
            "reaction": flow.form,
            "steps": grid.nt,
            "max_guard_drift": max_drift,
        },
    )


def solve_U(
    mech: BranchingMechanism,
    init: InitialCondition,
    grid: Grid1D,
    snapshot_times: Sequence[float] | None = None,
) -> Field:
    """Field of the front equation for bounded or heaviside initial data."""
    return _march(mech, init.field_values(grid.x), grid, snapshot_times, "U_phi", None)


def solve_V(
    mech: BranchingMechanism,
    phi: InitialCondition | None,
    grid: Grid1D,
    snapshot_times: Sequence[float] | None = None,
) -> Field:
    """Barrier field V_phi (V for phi = None), truncated at theta = V_THETA.

    One march of the front equation from phi(-x) + V_THETA 1_{x<0}.  The
    exact fields increase to V_phi as theta -> inf.  At fixed dt the discrete
    field still grows with log theta, through the splitting error of the
    first steps, and that gap closes only as dt -> 0; so V_THETA is a fixed
    convention of the scheme, not a converged limit.
    """
    if phi is not None and phi.kind != "bounded":
        raise KppError("phi must be a bounded initial condition or None")
    x = grid.x
    base = np.zeros_like(x) if phi is None else phi.field_values(x)
    u0 = base + np.where(x < 0.0, V_THETA, 0.0)
    return _march(mech, u0, grid, snapshot_times, "V" if phi is None else "V_phi", V_THETA)
