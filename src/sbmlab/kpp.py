"""Deterministic solver for the reaction-diffusion front equation.

Solves u_t = u_xx / 2 - psi(u) on a uniform grid with Strang splitting:
a half step of implicit diffusion (Crank-Nicolson, tridiagonal solve), a
full reaction step integrated by classical RK4 with adaptive sub-stepping,
and a second diffusion half step.  The first two time steps use
backward-Euler diffusion halves to damp the ringing Crank-Nicolson produces
on discontinuous data.

Fields are stored in the coordinates where the front moves right: bounded
initial data phi enters as u(0, x) = phi(-x), the heaviside kind is
1_{x < 0}, and the barrier ladder puts its truncation level on x < 0.
Boundary values follow the reaction flow b' = -psi(b), which is the exact
spatially flat solution; plateaus at 0 and the equilibrium are unchanged by
it, and the barrier plateau relaxes the way the total-mass flow does instead
of staying pinned at the truncation level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solveh_banded

from .mechanism import BranchingMechanism, make_psi_eval

__all__ = [
    "Field",
    "FrontTouchedBoundaryError",
    "Grid1D",
    "InitialCondition",
    "KppError",
    "NonMonotoneThetaError",
    "front_m",
    "median_m_tilde",
    "solve_U",
    "solve_V",
]

SQRT2 = math.sqrt(2.0)  # front speed under the unit-drift normalization

V_THETA_LADDER = (1e2, 1e3, 1e4)
FRONT_GUARD_CELLS = 5
FRONT_GUARD_TOL = 1e-6


class KppError(ValueError):
    """Invalid grid, initial data, or a failed solve."""


class FrontTouchedBoundaryError(KppError):
    """The moving front reached the guard cells at a domain edge."""


class NonMonotoneThetaError(KppError):
    """Barrier ladder fields failed to increase with the truncation level."""


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

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


@dataclass(frozen=True)
class InitialCondition:
    """Initial data kinds: bounded phi, barrier (truncated to a ladder), heaviside.

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

    @classmethod
    def barrier(
        cls, phi: Callable | None = None, sup_norm: float = 0.0
    ) -> "InitialCondition":
        return cls(
            kind="barrier",
            phi=phi,
            sup_norm=float(sup_norm),
            integrable_tail=phi is None or _tail_weight_integrable(phi),
        )

    def field_values(self, x: np.ndarray) -> np.ndarray:
        """Initial field on the grid, in front-moving coordinates."""
        x = np.asarray(x, dtype=float)
        if self.kind == "heaviside":
            return np.where(x < 0.0, 1.0, 0.0)
        if self.kind == "bounded":
            return _eval_phi(self.phi, -x)
        raise KppError("barrier data needs a truncation level; use solve_V")


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
    or "V"); barrier fields also carry the truncation ladder, the increment
    between the two largest truncations, and the pointwise extrapolation.
    """

    grid: Grid1D
    times: np.ndarray
    snapshots: np.ndarray
    provenance: str
    theta: float | None
    median_times: np.ndarray
    median_values: np.ndarray
    theta_ladder: tuple[float, ...] | None = None
    increments: np.ndarray | None = None
    extrapolated: np.ndarray | None = None

    def _row(self, t: float) -> int:
        hits = np.nonzero(np.abs(self.times - t) <= 1e-9)[0]
        if hits.size == 0:
            raise KppError(f"no snapshot at t={t}; have {self.times}")
        return int(hits[0])

    def at(self, t: float) -> np.ndarray:
        return self.snapshots[self._row(t)]

    def increment_at(self, t: float) -> np.ndarray:
        if self.increments is None:
            raise KppError("field has no truncation ladder")
        return self.increments[self._row(t)]

    def extrapolated_at(self, t: float) -> np.ndarray:
        if self.extrapolated is None:
            raise KppError("field has no truncation ladder")
        return self.extrapolated[self._row(t)]

    def interp(self, t: float, x) -> float | np.ndarray:
        """Bilinear value between snapshots; t and x must be inside the grid."""
        if t < self.times[0] - 1e-9 or t > self.times[-1] + 1e-9:
            raise KppError(f"t={t} outside snapshot range")
        xs = self.grid.x
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < xs[0] - 1e-9) or np.any(x_arr > xs[-1] + 1e-9):
            raise KppError("x outside the spatial grid")
        j = int(np.searchsorted(self.times, t))
        j = min(max(j, 0), len(self.times) - 1)
        if abs(self.times[j] - t) <= 1e-9:
            out = np.interp(x_arr, xs, self.snapshots[j])
        else:
            j0 = j - 1
            t0, t1 = self.times[j0], self.times[j]
            w = (t - t0) / (t1 - t0)
            lo = np.interp(x_arr, xs, self.snapshots[j0])
            hi = np.interp(x_arr, xs, self.snapshots[j])
            out = (1.0 - w) * lo + w * hi
        if np.ndim(x) == 0:
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
    snapshot_steps: list[int],
):
    """Advance the split scheme, recording snapshots and the median trace."""
    psi_eval = make_psi_eval(mech, u_max=max(float(np.max(u0)) * 1.1, 10.0))
    dx2 = grid.dx * grid.dx
    r_cn = grid.dt / (8.0 * dx2)
    r_be = grid.dt / (4.0 * dx2)
    nx = grid.nx
    ab_cn = np.zeros((2, nx - 2))
    ab_cn[0, 1:] = -r_cn
    ab_cn[1, :] = 1.0 + 2.0 * r_cn
    ab_be = np.zeros((2, nx - 2))
    ab_be[0, 1:] = -r_be
    ab_be[1, :] = 1.0 + 2.0 * r_be

    def diffuse_half(u: np.ndarray, backward_euler: bool) -> np.ndarray:
        interior = u[1:-1]
        if backward_euler:
            rhs = interior.copy()
            rhs[0] += r_be * u[0]
            rhs[-1] += r_be * u[-1]
            new_int = solveh_banded(ab_be, rhs)
        else:
            rhs = interior + r_cn * (u[:-2] - 2.0 * interior + u[2:])
            rhs[0] += r_cn * u[0]
            rhs[-1] += r_cn * u[-1]
            new_int = solveh_banded(ab_cn, rhs)
        out = np.empty_like(u)
        out[0], out[-1] = u[0], u[-1]
        out[1:-1] = new_int
        return out

    def react(u: np.ndarray, span: float) -> np.ndarray:
        # boundary nodes ride along: the reaction flow is their exact evolution
        remaining = span
        while remaining > 1e-14 * span:
            rates = np.abs(psi_eval(u)) / np.maximum(np.abs(u), 1e-12)
            top = float(np.max(rates))
            h = remaining if top <= 0.0 else min(remaining, 0.1 / top)
            if h < span * 1e-7:
                raise KppError("reaction sub-step collapsed; mechanism too stiff")
            k1 = -psi_eval(u)
            k2 = -psi_eval(u + 0.5 * h * k1)
            k3 = -psi_eval(u + 0.5 * h * k2)
            k4 = -psi_eval(u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            remaining -= h
        return u

    x = grid.x
    u = u0.astype(float).copy()
    med_times = np.empty(grid.nt + 1)
    med_vals = np.empty(grid.nt + 1)
    med_times[0] = 0.0
    med_vals[0] = _median_of_profile(u, x)
    snaps = {0: u.copy()} if 0 in snapshot_steps else {}
    snap_set = set(snapshot_steps)

    for k in range(grid.nt):
        startup = k < 2
        u = diffuse_half(u, backward_euler=startup)
        u = react(u, grid.dt)
        u = diffuse_half(u, backward_euler=startup)
        np.maximum(u, 0.0, out=u)

        guard = FRONT_GUARD_CELLS
        if (
            np.max(np.abs(u[:guard] - u[0])) > FRONT_GUARD_TOL
            or np.max(np.abs(u[-guard:] - u[-1])) > FRONT_GUARD_TOL
        ):
            raise FrontTouchedBoundaryError(
                f"front entered the edge guard cells at t={(k + 1) * grid.dt:.3f}; "
                "enlarge the domain"
            )

        med_times[k + 1] = (k + 1) * grid.dt
        med_vals[k + 1] = _median_of_profile(u, x)
        if k + 1 in snap_set:
            snaps[k + 1] = u.copy()

    times = np.array([s * grid.dt for s in snapshot_steps])
    stack = np.stack([snaps[s] for s in snapshot_steps])
    return times, stack, med_times, med_vals


def solve_U(
    mech: BranchingMechanism,
    init: InitialCondition,
    grid: Grid1D,
    snapshot_times: Sequence[float] | None = None,
) -> Field:
    """Field of the front equation for bounded or heaviside initial data."""
    if init.kind not in ("bounded", "heaviside"):
        raise KppError("solve_U takes bounded or heaviside data; use solve_V for barriers")
    steps = _snapshot_steps(grid, snapshot_times)
    u0 = init.field_values(grid.x)
    times, stack, med_t, med_v = _march(mech, u0, grid, steps)
    return Field(
        grid=grid,
        times=times,
        snapshots=stack,
        provenance="U_phi",
        theta=None,
        median_times=med_t,
        median_values=med_v,
    )


def solve_V(
    mech: BranchingMechanism,
    phi: InitialCondition | None,
    grid: Grid1D,
    theta_ladder: tuple[float, ...] = V_THETA_LADDER,
    snapshot_times: Sequence[float] | None = None,
) -> Field:
    """Barrier field as the monotone truncation-ladder limit.

    Each rung solves the front equation with data phi(-x) + theta 1_{x<0};
    the returned field is the largest rung, with the rung-to-rung increment
    and an Aitken extrapolation attached per snapshot.  The exact family is
    increasing in theta, so a decreasing rung signals a discretization bug
    and raises.
    """
    if phi is not None and phi.kind != "bounded":
        raise KppError("phi must be a bounded initial condition or None")
    if len(theta_ladder) < 3 or any(
        b <= a for a, b in zip(theta_ladder, theta_ladder[1:])
    ):
        raise KppError("theta_ladder must be at least three increasing levels")
    steps = _snapshot_steps(grid, snapshot_times)
    x = grid.x
    base = np.zeros_like(x) if phi is None else phi.field_values(x)

    stacks = []
    med = None
    times = None
    for theta in theta_ladder:
        u0 = base + np.where(x < 0.0, theta, 0.0)
        times, stack, med_t, med_v = _march(mech, u0, grid, steps)
        stacks.append(stack)
        med = (med_t, med_v)

    for lo, hi in zip(stacks, stacks[1:]):
        worst = float(np.max(lo - hi))
        if worst > 1e-8 * (1.0 + float(np.max(np.abs(hi)))):
            raise NonMonotoneThetaError(
                f"truncation ladder decreased by {worst:.3e}; refine the grid"
            )

    f1, f2, f3 = stacks[-3], stacks[-2], stacks[-1]
    d1, d2 = f2 - f1, f3 - f2
    denom = d1 - d2
    safe = (d2 > 0.0) & (denom > 1e-300)
    corr = np.where(safe, np.square(d2) / np.where(safe, denom, 1.0), 0.0)
    return Field(
        grid=grid,
        times=times,
        snapshots=f3,
        provenance="V" if phi is None else "V_phi",
        theta=float(theta_ladder[-1]),
        median_times=med[0],
        median_values=med[1],
        theta_ladder=tuple(float(t) for t in theta_ladder),
        increments=d2,
        extrapolated=f3 + corr,
    )
