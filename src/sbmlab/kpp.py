"""Deterministic solver for the reaction-diffusion front equation.

Solves u_t = u_xx / 2 - psi(u) on a uniform grid with Strang splitting:
a half step of implicit diffusion, a full reaction step, and a second
diffusion half step.  The diffusion halves are Crank-Nicolson, except in
the first two time steps, which use backward Euler to damp the ringing
Crank-Nicolson produces on discontinuous data; both constant tridiagonal
matrices are factored once per march (LAPACK ``dpttrf``) and each half
step is one ``dpttrs`` solve, in place on the interior nodes.  The
Crank-Nicolson right-hand side u + r (u[:-2] - 2u + u[2:]) is built with
``out=`` ufuncs in one buffer that lives for the whole march.  Its
operations run in the order the formula reads, only with the operands of a
``*`` or ``+`` swapped where a step works in place; that keeps every bit,
and regrouping would not.

The reaction step applies ``mechanism.flow_map``, the time-dt map of
v' = -psi(v), once per step at every node: the logistic closed form for a
mechanism without jumps (exact to rounding), the mechanism's flow table
otherwise (about 1e-9 relative where psi's local exponent settles inside
|w| <= 25, w = log((v - lambda*)/lambda*), and worse where psi changes
shape beyond: 2.7e-5 in a case ``flow_map`` names).
``Field.diagnostics["reaction"]`` records which ("logistic" or "table").

Fields are stored in the coordinates where the front moves right: bounded
initial data phi enters as u(0, x) = phi(-x), the heaviside kind is
1_{x < 0}, and the barrier field V, the limit of data theta 1_{x < 0} as
theta -> inf, is marched once from the truncation level V_THETA = 1e4 on
x < 0.  Boundary values follow the reaction flow b' = -psi(b), which is the
exact spatially flat solution; plateaus at 0 and the equilibrium are
unchanged by it, and the barrier plateau relaxes the way the total-mass flow
does instead of staying pinned at the truncation level.

Which step a time names has one rule, ``_grid_step``, which every module
that turns a time into a step, or looks up a stored time, goes through.
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
# the most nodes per row, and the most time steps, a grid may have (a row of
# doubles is then 80 MB); the particle engine caps its steps the same way
STEP_CAP = 10_000_000


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


def _grid_step(name: str, t: float, step: float, error: type[Exception] | None) -> int | None:
    """The step k = round(t / step) that t names: |k step - t| <= 1e-9 max(1, |t|).

    Any other t raises ``error`` naming it, or returns None when ``error`` is None.
    """
    t = float(t)  # a numpy scalar would warn where t / step overflows
    k = round(t / step) if step > 0 and math.isfinite(t / step) else None
    if k is None or abs(k * step - t) > 1e-9 * max(1.0, abs(t)):
        if error is None:
            return None
        raise error(f"{name} {t:.12g} is not a whole number of steps of {step:.12g}")
    return k


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time grid: the span is whole steps dx and the horizon whole steps dt."""

    x_min: float
    x_max: float
    dx: float
    dt: float
    t_end: float

    def __post_init__(self):
        if self.dx <= 0 or self.dt <= 0 or self.t_end <= 0:
            raise KppError("dx, dt, t_end must be positive")
        if self.nx < 2 or self.nt < 1:
            raise KppError("x_max - x_min and t_end must each be at least one step")
        if self.nx > STEP_CAP:
            raise KppError(f"dx {self.dx:g} makes {self.nx} nodes per row, above the cap of {STEP_CAP}")
        if self.nt > STEP_CAP:
            raise KppError(f"dt {self.dt:g} makes {self.nt} steps, above the cap of {STEP_CAP}")

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
        return _grid_step("x_max - x_min", self.x_max - self.x_min, self.dx, KppError) + 1

    @property
    def nt(self) -> int:
        return _grid_step("t_end", self.t_end, self.dt, KppError)

    @functools.cached_property
    def x(self) -> np.ndarray:
        """The nodes, built once per grid and read-only."""
        nodes = np.linspace(self.x_min, self.x_max, self.nx)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True)
class InitialCondition:
    """Initial data kinds: bounded phi and heaviside.

    phi is read once, on the march grid, where it must be finite and within
    sup_norm.  Whether its tail weight int_0^inf y e^{sqrt2 y} phi(-y) dy is
    finite, which the front-limit constants need and plain solves do not,
    is a fact about phi's support that ``fronts`` decides.
    """

    kind: str
    phi: Callable | None
    sup_norm: float

    @classmethod
    def bounded(cls, phi: Callable, sup_norm: float) -> "InitialCondition":
        """Data phi with |phi| <= sup_norm, checked when a solve reads it on the march grid."""
        if sup_norm < 0 or not math.isfinite(sup_norm):
            raise KppError("sup_norm must be finite and nonnegative")
        return cls(kind="bounded", phi=phi, sup_norm=float(sup_norm))

    @classmethod
    def heaviside(cls) -> "InitialCondition":
        return cls(kind="heaviside", phi=None, sup_norm=1.0)

    def field_values(self, x: np.ndarray) -> np.ndarray:
        """Initial field on the grid, in front-moving coordinates."""
        x = np.asarray(x, dtype=float)
        if self.kind == "heaviside":
            return np.where(x < 0.0, 1.0, 0.0)
        if self.kind == "bounded":
            return _checked_phi(_eval_phi(self.phi, -x), self.sup_norm)
        raise KppError(f"unknown initial-condition kind {self.kind!r}")


def _eval_phi(phi: Callable, arg: np.ndarray) -> np.ndarray:
    """phi on the array arg; a scalar result, a constant phi, is broadcast to arg's shape."""
    return np.broadcast_to(np.asarray(phi(arg), dtype=float), arg.shape)


def _checked_phi(vals: np.ndarray, sup_norm: float) -> np.ndarray:
    """vals, the values of phi on the march grid, once they are finite and within sup_norm."""
    if not np.all(np.isfinite(vals)):
        raise KppError(f"phi is not finite on the march grid (sup_norm {sup_norm:.6g}); fix phi")
    top = float(np.max(np.abs(vals), initial=0.0))
    if top > sup_norm:
        raise KppError(f"|phi| reaches {top:.6g} on the march grid, above sup_norm {sup_norm:.6g}")
    return vals


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

    def at(self, t: float) -> np.ndarray:
        j0, j1, _ = _rows(self.times, self.grid.dt, t)
        if j0 != j1:
            raise KppError(f"no snapshot at t={t}; have {self.times}")
        return self.snapshots[j0]

    def interp(self, t: float, x) -> float | np.ndarray:
        """Bilinear value between snapshots; t and x must be inside the grid.

        Each point's cell comes from arithmetic on the uniform grid, not a
        search: j = floor((x - x[0]) / dx), moved by at most one cell so that
        x[j] <= x < x[j + 1] holds against the stored nodes.  The cell and
        the offset x - x[j] serve both snapshot rows of the time blend.  Each
        row is ``np.interp``'s own formula, slope * (x - x[j]) + row[j] with
        the row's slopes computed per call, so a row's values are those of
        ``np.interp(x, grid.x, row)`` bit for bit, node hits included, and
        points up to 1e-9 beyond either end take that end node's value.
        """
        j0, j1, w = _rows(self.times, self.grid.dt, t)
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
        # take below gives cell last - 1's slope and the hit gives fp[last]
        offset = x_arr - xs[cell]
        hit = offset == 0.0

        def row(k: int) -> np.ndarray:
            snap = self.snapshots[k]
            f_cell = snap[cell]
            val = ((snap[1:] - snap[:-1]) / (xs[1:] - xs[:-1])).take(cell, mode="clip")
            val *= offset
            val += f_cell
            return np.where(hit, f_cell, val)

        out = row(j0)
        if j1 != j0:
            out *= 1.0 - w
            upper = row(j1)
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
    j0, j1, w = _rows(times, field.grid.dt, t)
    v0, v1 = meds[j0], meds[j1]
    if not (math.isfinite(v0) and math.isfinite(v1)):
        return float(v0 if t - times[j0] <= times[j1] - t else v1)
    return float((1.0 - w) * v0 + w * v1)


def _rows(times: np.ndarray, dt: float, t: float) -> tuple[int, int, float]:
    """Rows j0, j1 of the ascending stored steps ``times`` and weight w of j1 that blend to t."""
    k = _grid_step("t", t, dt, None)
    j = int(times.searchsorted(t if k is None else k * dt))
    if k is not None and j < times.size and times[j] == k * dt:
        return j, j, 0.0
    if not 0 < j < times.size:
        raise KppError(f"t={t} outside snapshot range [{times[0]:g}, {times[-1]:g}]")
    return j - 1, j, (t - times[j - 1]) / (times[j] - times[j - 1])


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
    steps = [_grid_step("snapshot time", t, grid.dt, KppError) for t in snapshot_times or ()]
    if not all(0 <= k <= grid.nt for k in steps):
        raise KppError(f"snapshot times {list(snapshot_times)} must lie in [0, t_end]")
    return sorted({0, grid.nt, *steps})


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

    lap = np.empty(nx - 2)  # the Crank-Nicolson r * (u[:-2] - 2 u + u[2:]), reused by every step

    def diffuse_half(u: np.ndarray, backward_euler: bool) -> None:
        # in place; the two edge nodes do not diffuse
        r, d, e = factors[backward_euler]
        interior = u[1:-1]
        if not backward_euler:
            np.multiply(interior, 2.0, out=lap)
            np.subtract(u[:-2], lap, out=lap)
            np.add(lap, u[2:], out=lap)
            np.multiply(lap, r, out=lap)
            interior += lap
        interior[0] += r * u[0]
        interior[-1] += r * u[-1]
        u[1:-1], _info = dpttrs(d, e, interior, overwrite_b=1)

    # boundary nodes ride along: the reaction flow is their exact evolution
    flow = flow_map(mech, grid.dt)

    guard = FRONT_GUARD_CELLS
    x = grid.x
    u = u0.astype(float).copy()
    med_times = np.empty(grid.nt + 1)
    med_vals = np.empty(grid.nt + 1)
    med_times[0] = 0.0
    med_vals[0] = _median_of_profile(u, x)
    # snapshot_steps starts at step 0
    snapshots = np.empty((len(snapshot_steps), nx))
    snapshots[0] = u
    snap_row = {s: j for j, s in enumerate(snapshot_steps)}
    max_drift = 0.0

    for k in range(grid.nt):
        startup = k < 2
        diffuse_half(u, backward_euler=startup)
        u = flow(u)
        diffuse_half(u, backward_euler=startup)
        np.maximum(u, 0.0, out=u)

        # a non-finite node spreads through the tridiagonal solves to the
        # guard cells, so the drift is NaN exactly when the field is
        # np.maximum, not max(): Python's max(a, nan) returns a
        left, right = u[:guard] - u[0], u[-guard:] - u[-1]
        drift = float(np.maximum(np.abs(left).max(), np.abs(right).max()))
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
        if k + 1 in snap_row:
            snapshots[snap_row[k + 1]] = u

    return Field(
        grid=grid,
        times=np.array([s * grid.dt for s in snapshot_steps]),
        snapshots=snapshots,
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
