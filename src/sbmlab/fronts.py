"""Front-limit constants, the traveling wave, and limit-law cross checks.

The three constants share one numerical pattern: solve the field up to a
ladder of reference times r, integrate the time-r profile ahead of sqrt(2) r
against an exponential weight in the overshoot variable y, and extrapolate
the ladder.  At reachable r the plain constants still carry corrections of
order log r / sqrt(r), so their ladders are fitted against that correction
shape; the tilted constant converges geometrically once its linear-in-r
mass growth and the scheme's far-field dispersion are divided out, and is
finished with one Aitken step.  The error bar attached to each estimate is
the magnitude of the last ladder increment, which is honest about the
slowly decaying r corrections rather than trusting the fit residual.

The traveling wave is computed by shooting along the one-dimensional
unstable manifold of the occupied state.  At the critical speed the origin
is a degenerate node, so the connection is attracting in forward x and no
boundary-value iteration is needed; the left tail of the table comes from
the manifold linearization, which is accurate to the square of the starting
offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .kpp import (
    SQRT2,
    Field,
    Grid1D,
    InitialCondition,
    V_THETA_LADDER,
    front_m,
    solve_U,
    solve_V,
    tail_error_estimate,
)
from .mechanism import BranchingMechanism, check_hypotheses, lambda_star, psi

DEFAULT_R_LADDER = (4.0, 8.0, 16.0, 32.0)


class FrontsError(ValueError):
    """Invalid input or a precondition failure in the front-constant layer."""


class ShootingNotConvergedError(FrontsError):
    """The wave trajectory did not reach the far side of the requested table."""


class NonConvergentLadderError(FrontsError):
    """Ladder increments grow without sign of settling; no extrapolation is trusted."""


class IntegralCapError(FrontsError):
    """The overshoot integral still has > 1% estimated mass beyond the cap."""


def _as_float(name: str, value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise FrontsError(f"{name} must be finite")
    return out


def _require_unit_drift(mech: BranchingMechanism) -> None:
    if abs(mech.alpha - 1.0) > 1e-9:
        raise FrontsError(
            "front constants assume unit drift; normalize the mechanism first"
        )


@dataclass(frozen=True)
class TestFunction:
    """Spatial test function phi(y) for the front-limit functionals.

    Kinds: "zero", "scaled-indicator" (lam on [a, inf)), "compact-bump"
    (smooth bump of given center, half-width, peak height), "table"
    (linear interpolation of sample points, zero to the left of the data,
    held constant to the right).  ``in_class_h`` reports membership in the
    admissible class: nonnegative, bounded, vanishing on a left half line.
    """

    # tells pytest not to collect this class despite the Test prefix
    __test__ = False

    kind: str
    lam: float = 0.0
    a: float = 0.0
    center: float = 0.0
    width: float = 0.0
    height: float = 0.0
    ys: tuple[float, ...] = ()
    vals: tuple[float, ...] = ()

    @classmethod
    def zero(cls) -> "TestFunction":
        return cls(kind="zero")

    @classmethod
    def scaled_indicator(cls, lam: float, a: float = 0.0) -> "TestFunction":
        lam = _as_float("lam", lam)
        a = _as_float("a", a)
        if lam < 0:
            raise FrontsError("indicator scale must be nonnegative")
        return cls(kind="scaled-indicator", lam=lam, a=a)

    @classmethod
    def compact_bump(cls, center: float, width: float, height: float) -> "TestFunction":
        center = _as_float("center", center)
        width = _as_float("width", width)
        height = _as_float("height", height)
        if width <= 0:
            raise FrontsError("bump width must be positive")
        if height < 0:
            raise FrontsError("bump height must be nonnegative")
        return cls(kind="compact-bump", center=center, width=width, height=height)

    @classmethod
    def table(cls, ys, vals) -> "TestFunction":
        ys = tuple(float(v) for v in ys)
        vals = tuple(float(v) for v in vals)
        if len(ys) != len(vals) or len(ys) < 2:
            raise FrontsError("table needs matching ys and vals with >= 2 points")
        if any(not math.isfinite(v) for v in ys + vals):
            raise FrontsError("table entries must be finite")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise FrontsError("table ys must be strictly increasing")
        return cls(kind="table", ys=ys, vals=vals)

    def evaluate(self, y) -> np.ndarray | float:
        arr = np.asarray(y, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(arr)
        elif self.kind == "scaled-indicator":
            out = np.where(arr >= self.a, self.lam, 0.0)
        elif self.kind == "compact-bump":
            xi = (arr - self.center) / self.width
            inside = np.abs(xi) < 1.0
            xi2 = np.where(inside, xi * xi, 0.0)
            out = np.where(
                inside, self.height * np.exp(1.0 - 1.0 / (1.0 - xi2)), 0.0
            )
        elif self.kind == "table":
            out = np.interp(arr, self.ys, self.vals, left=0.0, right=self.vals[-1])
        else:
            raise FrontsError(f"unknown test function kind {self.kind!r}")
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def sup_norm(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "scaled-indicator":
            return self.lam
        if self.kind == "compact-bump":
            return self.height
        return float(np.max(np.abs(self.vals)))

    @property
    def support_left(self) -> float:
        """Left edge below which the function vanishes (0.0 for the zero kind)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "scaled-indicator":
            return self.a
        if self.kind == "compact-bump":
            return self.center - self.width
        return self.ys[0]

    @property
    def in_class_h(self) -> bool:
        if self.kind == "table":
            return all(v >= 0.0 for v in self.vals)
        return True

    @property
    def is_trivial(self) -> bool:
        if self.kind == "zero":
            return True
        return self.sup_norm == 0.0

    def shifted(self, z: float) -> "TestFunction":
        """The translate y -> phi(y + z); z > 0 moves support toward the front.

        Support moves left by z, which puts more of the field's mass ahead
        of the reference position sqrt(2) r and multiplies the front
        constant by e^{sqrt(2) z}.
        """
        z = _as_float("z", z)
        if self.kind == "zero":
            return self
        if self.kind == "scaled-indicator":
            return TestFunction.scaled_indicator(self.lam, self.a - z)
        if self.kind == "compact-bump":
            return TestFunction.compact_bump(self.center - z, self.width, self.height)
        return TestFunction.table([y - z for y in self.ys], self.vals)

    def scaled(self, factor: float) -> "TestFunction":
        factor = _as_float("factor", factor)
        if factor < 0:
            raise FrontsError("scale factor must be nonnegative")
        if self.kind == "zero":
            return self
        if self.kind == "scaled-indicator":
            return TestFunction.scaled_indicator(self.lam * factor, self.a)
        if self.kind == "compact-bump":
            return TestFunction.compact_bump(
                self.center, self.width, self.height * factor
            )
        return TestFunction.table(self.ys, [v * factor for v in self.vals])

    def to_initial_condition(self) -> InitialCondition:
        return InitialCondition.bounded(self.evaluate, self.sup_norm)


@dataclass(frozen=True, eq=False)
class TravelingWave:
    """Monotone wave profile table moving at the critical speed.

    The table is non-increasing with values in [0, lam_star] and is
    normalized so the profile crosses lam_star / 2 at x = 0.
    """

    xs: np.ndarray
    values: np.ndarray
    speed: float
    lam_star: float

    def evaluate(self, x) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        out = np.interp(arr, self.xs, self.values,
                        left=float(self.values[0]), right=float(self.values[-1]))
        if out.ndim == 0:
            return float(out)
        return out


def ode_residual(mech: BranchingMechanism, xs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Wave-equation defect 0.5 w'' + sqrt(2) w' - psi(w) on interior nodes.

    Derivatives use fourth-order central stencils, so the defect of a smooth
    exact profile is O(dx^4) and constants are reproduced to rounding.
    """
    xs = np.asarray(xs, dtype=float)
    w = np.asarray(values, dtype=float)
    if xs.shape != w.shape or xs.size < 5:
        raise FrontsError("need matching xs and values with >= 5 points")
    steps = np.diff(xs)
    dx = float(steps[0])
    if np.max(np.abs(steps - dx)) > 1e-9 * max(1.0, dx):
        raise FrontsError("xs must be uniformly spaced")
    wp = (w[:-4] - 8.0 * w[1:-3] + 8.0 * w[3:-1] - w[4:]) / (12.0 * dx)
    wpp = (
        -w[:-4] + 16.0 * w[1:-3] - 30.0 * w[2:-2] + 16.0 * w[3:-1] - w[4:]
    ) / (12.0 * dx * dx)
    return 0.5 * wpp + SQRT2 * wp - np.asarray(psi(mech, w[2:-2]), dtype=float)


def traveling_wave_solve(
    mech: BranchingMechanism,
    half_width: float = 30.0,
    dx: float = 0.01,
) -> TravelingWave:
    """Critical-speed wave by shooting from the occupied state.

    The trajectory starts on the unstable manifold at distance 1e-8 below
    lam_star and is integrated until the profile has decayed through the
    whole table window; the left part of the table beyond the starting
    point is filled with the manifold linearization.  The table keeps the
    natural tail amplitude instead of pinning a boundary value at the right
    edge, because the true profile at x = 30 sits far below any fixed small
    pin and a pinned edge would distort the tail the table is for.
    """
    _require_unit_drift(mech)
    half_width = _as_float("half_width", half_width)
    dx = _as_float("dx", dx)
    if half_width <= 0 or dx <= 0 or half_width < 10 * dx:
        raise FrontsError("need positive dx and a table at least 10 dx wide")
    lam = lambda_star(mech)
    h = 1e-6
    slope = (float(psi(mech, lam + h)) - float(psi(mech, lam - h))) / (2.0 * h)
    if slope <= 0:
        raise ShootingNotConvergedError("mechanism slope at lam_star must be positive")
    mu = -SQRT2 + math.sqrt(2.0 + 2.0 * slope)
    eps = 1e-8

    def rhs(_x, state):
        w, p = state
        return [p, 2.0 * float(psi(mech, max(w, 0.0))) - 2.0 * SQRT2 * p]

    def floor_event(_x, state):
        return state[0] - 1e-19

    floor_event.terminal = True
    floor_event.direction = -1.0

    x_max = 10.0 * half_width
    sol = solve_ivp(
        rhs,
        (0.0, x_max),
        [lam - eps, -mu * eps],
        method="DOP853",
        rtol=1e-12,
        atol=1e-22,
        dense_output=True,
        events=floor_event,
    )
    if not sol.success:
        raise ShootingNotConvergedError(f"wave integration failed: {sol.message}")
    x_stop = float(sol.t[-1])

    def profile(x):
        return float(sol.sol(x)[0])

    scan = np.linspace(0.0, x_stop, 4096)
    below = scan[[profile(s) < lam / 2.0 for s in scan]]
    if below.size == 0:
        raise ShootingNotConvergedError("profile never reached lam_star / 2")
    x_half = brentq(lambda s: profile(s) - lam / 2.0, 0.0, float(below[0]))
    if x_half + half_width > x_stop:
        raise ShootingNotConvergedError(
            "trajectory ended before the right table edge; widen the floor"
        )

    n = round(2.0 * half_width / dx)
    xs = np.linspace(-half_width, half_width, n + 1)
    phys = xs + x_half
    vals = np.empty_like(xs)
    left = phys < 0.0
    vals[left] = lam - eps * np.exp(mu * phys[left])
    vals[~left] = sol.sol(phys[~left])[0]
    vals = np.clip(vals, 0.0, lam)
    vals = np.minimum.accumulate(vals)
    return TravelingWave(xs=xs, values=vals, speed=SQRT2, lam_star=lam)


@dataclass(frozen=True)
class ConstantEstimate:
    """Ladder estimate of one front constant.

    ``value`` is the model extrapolation of the ladder and ``error`` the
    magnitude of the last ladder increment; the raw rungs stay available in
    ``ladder`` so ratios and trend checks can work rung by rung.
    """

    value: float
    error: float
    r_values: tuple[float, ...]
    ladder: tuple[float, ...]


@dataclass(frozen=True)
class FrontConstants:
    """The four limit constants of one mechanism-and-data configuration."""

    C_phi: ConstantEstimate | None = None
    C_tilde_phi: ConstantEstimate | None = None
    C_tilde_0: ConstantEstimate | None = None
    C_hat_delta: ConstantEstimate | None = None


def _validate_ladder(r_ladder) -> tuple[float, ...]:
    rs = tuple(float(r) for r in r_ladder)
    if len(rs) < 3:
        raise FrontsError("r_ladder needs at least three rungs to extrapolate")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise FrontsError("r_ladder must be strictly increasing")
    if rs[0] <= 0:
        raise FrontsError("r_ladder entries must be positive")
    return rs


def _check_divergence(vals: np.ndarray) -> None:
    """Reject ladders whose increments grow geometrically.

    Slowly growing increments are expected at reachable r (the correction
    terms shrink only like log r / sqrt(r)) and the fit models handle them;
    what cannot be extrapolated is an increment sequence that keeps gaining
    both in ratio and in relative size, which is what a genuinely divergent
    quantity produces.
    """
    mags = np.abs(np.diff(vals))
    if mags.size < 2 or mags[-2] == 0.0:
        return
    growing = all(hi > lo for lo, hi in zip(mags, mags[1:]))
    if (
        growing
        and mags[-1] > 1.5 * mags[-2]
        and mags[-1] > 0.05 * abs(float(vals[-1]))
    ):
        raise NonConvergentLadderError(
            f"ladder increments diverge: {[float(v) for v in mags]}"
        )


def _fit_algebraic(rs, vals) -> tuple[float, float]:
    """Extrapolate against the slow-correction shape (d log r + e) / sqrt(r).

    Returns the fitted limit and the last-increment error bar.  Each fitted
    value alone is only good to a few percent at reachable r, but the
    leading correction is shared between fields with different data, so
    ratios of two fits cancel most of it.
    """
    vals = np.asarray(vals, dtype=float)
    if np.max(np.abs(vals)) < 1e-30:
        return 0.0, 0.0
    _check_divergence(vals)
    err = float(abs(vals[-1] - vals[-2]))
    r = np.asarray(rs, dtype=float)
    basis = np.column_stack(
        [np.ones_like(r), np.log(r) / np.sqrt(r), 1.0 / np.sqrt(r)]
    )
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    return float(coef[0]), err


def _aitken(vals) -> tuple[float, float]:
    """One Aitken step on the last three rungs; for geometric ladders.

    Returns (accelerated value, last-increment error bar); falls back to
    the last rung when the increments change sign or the step degenerates.
    """
    vals = np.asarray(vals, dtype=float)
    if np.max(np.abs(vals)) < 1e-30:
        return 0.0, 0.0
    _check_divergence(vals)
    d1 = float(vals[-2] - vals[-3])
    d2 = float(vals[-1] - vals[-2])
    err = abs(d2)
    denom = d1 - d2
    if denom != 0.0 and d1 * d2 > 0:
        return float(vals[-1]) + d2 * d2 / denom, err
    return float(vals[-1]), err


def _tail_integral(field: Field, r: float, rate: float, y_req: float) -> float:
    """sqrt(2/pi) int_0^cap row(sqrt(2) r + y) y e^{rate y} dy.

    For a barrier field the rows are its top truncation rung; the truncation
    bias is far below the r-ladder resolution out there.  The cap starts
    at y_req and grows while the estimated remaining tail exceeds 1% of the
    integral; when the grid cannot host a sufficient cap the computation
    refuses instead of silently truncating.
    """
    dy = field.grid.dx / 2.0
    x0 = SQRT2 * r
    avail = field.grid.x_max - x0 - 2.0 * field.grid.dx
    if avail <= 10.0 * dy:
        raise IntegralCapError("grid ends too close to sqrt(2) r for the overshoot integral")
    row = field.at(r)
    y_cap = min(y_req, avail)
    while True:
        ys = np.arange(0.0, y_cap + dy / 2.0, dy)
        g = np.interp(x0 + ys, field.grid.x, row) * ys * np.exp(rate * ys)
        val = math.sqrt(2.0 / math.pi) * float(np.trapezoid(g, ys))
        if val <= 0.0 or g[-1] <= 0.0:
            return max(val, 0.0)
        if g.size >= 2 and g[-2] > g[-1]:
            local = math.log(g[-2] / g[-1]) / dy
            tail = g[-1] / max(local, 1e-6)
        else:
            tail = g[-1] * max(y_cap, 1.0)
        frac = math.sqrt(2.0 / math.pi) * tail / val
        if frac <= 0.01:
            return val
        grown = min(2.0 * y_cap, avail)
        if grown > 1.05 * y_cap:
            y_cap = grown
            continue
        raise IntegralCapError(
            f"estimated tail beyond the y cap is {frac:.1%} at r = {r:g}; "
            "solve on a wider grid"
        )


def _phi_precheck(phi: TestFunction) -> InitialCondition:
    if not isinstance(phi, TestFunction):
        raise FrontsError("phi must be a TestFunction")
    ic = phi.to_initial_condition()
    if not ic.integrable_tail:
        raise FrontsError(
            "phi has mass too far left for the front-constant quadrature; "
            "supports below about -45 are outside the resolved window"
        )
    return ic


def constant_C(
    mech: BranchingMechanism,
    phi: TestFunction,
    r_ladder=DEFAULT_R_LADDER,
    dx: float = 0.05,
    dt: float = 0.01,
    pad: float | None = None,
) -> ConstantEstimate:
    """Ladder estimate of the front constant of phi.

    Each rung integrates the time-r profile ahead of sqrt(2) r against
    y e^{sqrt(2) y}; the profile there concentrates on y = O(sqrt(r)), so
    the cap grows like sqrt(r) and one field solve serves the whole ladder.
    """
    _require_unit_drift(mech)
    rs = _validate_ladder(r_ladder)
    ic = _phi_precheck(phi)
    if phi.is_trivial:
        return ConstantEstimate(0.0, 0.0, rs, tuple(0.0 for _ in rs))
    y_req = 6.0 * math.sqrt(2.0 * rs[-1]) + 8.0
    if pad is None:
        pad = y_req + 4.0
    grid = Grid1D.auto(rs[-1], dx=dx, dt=dt, pad=pad)
    field = solve_U(mech, ic, grid, snapshot_times=rs)
    vals = tuple(
        _tail_integral(field, r, SQRT2, 6.0 * math.sqrt(2.0 * r) + 8.0) for r in rs
    )
    value, err = _fit_algebraic(rs, vals)
    return ConstantEstimate(value, err, rs, vals)


def constant_C_tilde(
    mech: BranchingMechanism,
    phi: TestFunction | None = None,
    r_ladder=DEFAULT_R_LADDER,
    dx: float = 0.05,
    dt: float = 0.01,
    pad: float | None = None,
    theta_ladder=V_THETA_LADDER,
) -> ConstantEstimate:
    """Ladder estimate of the barrier-field constant; phi = None gives the base one.

    The rows come from the top rung of the barrier field's truncation
    ladder, whose truncation bias sits well below the r-ladder resolution.
    """
    _require_unit_drift(mech)
    rs = _validate_ladder(r_ladder)
    report = check_hypotheses(mech)
    if not (report.h1 and report.h3):
        raise FrontsError("barrier-field constants need the moment and regularity checks to pass")
    ic = None
    if phi is not None and not phi.is_trivial:
        ic = _phi_precheck(phi)
    y_req = 6.0 * math.sqrt(2.0 * rs[-1]) + 8.0
    if pad is None:
        pad = y_req + 4.0
    grid = Grid1D.auto(rs[-1], dx=dx, dt=dt, pad=pad)
    field = solve_V(mech, ic, grid, theta_ladder=theta_ladder, snapshot_times=rs)
    vals = tuple(
        _tail_integral(field, r, SQRT2, 6.0 * math.sqrt(2.0 * r) + 8.0) for r in rs
    )
    value, err = _fit_algebraic(rs, vals)
    return ConstantEstimate(value, err, rs, vals)


def constant_C_hat(
    mech: BranchingMechanism,
    delta: float,
    r_ladder=DEFAULT_R_LADDER,
    dx: float = 0.05,
    dt: float = 0.01,
    pad: float | None = None,
    theta_ladder=V_THETA_LADDER,
) -> ConstantEstimate:
    """Ladder estimate of the tilted barrier-field constant for delta > 0.

    The tilt e^{delta y} moves the integrand peak out to y = delta r, so the
    cap must grow linearly in r; the default 3 r + 40 / (sqrt(2) + delta)
    covers tilts up to delta = 3 with room for the Gaussian spread.

    Two finite-r effects are divided out of each rung before extrapolation.
    First, the r-slice integral concentrates near y = delta r with width
    sqrt(r) and carries total mass 2 delta^2 r times the pointwise tail
    coefficient, growing without bound; dividing by 2 delta^2 r makes the
    rungs share their limit with the tail-probability trend
    sqrt(t) e^{(delta^2/2 + sqrt(2) delta) t} (1 - e^{-V}), which is the
    consistency check this constant feeds.  Second, the scheme's far-field
    dispersion inflates the slice near slope sqrt(2) + delta by the factor
    tail_error_estimate reports; at delta = 3 that factor alone turns a
    flat ladder into an exponentially growing one, so each rung is damped
    by its exponential before the Aitken step.
    """
    _require_unit_drift(mech)
    delta = _as_float("delta", delta)
    if delta <= 0:
        raise FrontsError("delta must be positive")
    rs = _validate_ladder(r_ladder)
    report = check_hypotheses(mech)
    if not (report.h1 and report.h3):
        raise FrontsError("barrier-field constants need the moment and regularity checks to pass")

    def y_req(r: float) -> float:
        return 3.0 * r + 40.0 / (SQRT2 + delta)

    if pad is None:
        # room past the integrand peak at y = delta r: five Gaussian widths
        # plus slack, so the 1% tail rule is satisfiable without re-solving
        peak_need = delta * rs[-1] + 5.0 * math.sqrt(rs[-1]) + 10.0
        pad = max(y_req(rs[-1]), peak_need) + 4.0
    grid = Grid1D.auto(rs[-1], dx=dx, dt=dt, pad=pad)
    field = solve_V(mech, None, grid, theta_ladder=theta_ladder, snapshot_times=rs)
    vals = []
    for r in rs:
        base = _tail_integral(field, r, SQRT2 + delta, y_req(r))
        raw = delta * math.exp(-0.5 * delta * delta * r) * base
        damp = math.exp(-tail_error_estimate(field, r, (SQRT2 + delta) * r))
        vals.append(raw / (2.0 * delta * delta * r) * damp)
    value, err = _aitken(tuple(vals))
    return ConstantEstimate(value, err, rs, tuple(vals))


def limit_wave_profile(c: float, z_samples, x) -> np.ndarray | float:
    """-log E[exp(-c Z e^{-sqrt(2) x})] over an empirical sample of Z.

    Non-increasing in x and bounded by -log P(Z = 0), so a sample with the
    correct extinction atom keeps the profile inside [0, lam_star].
    """
    c = _as_float("c", c)
    if c < 0:
        raise FrontsError("c must be nonnegative")
    z = np.asarray(z_samples, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise FrontsError("z_samples must be a nonempty 1-d array")
    if np.any(z < 0):
        raise FrontsError("z_samples must be nonnegative")
    arr = np.asarray(x, dtype=float)
    ee = np.exp(-SQRT2 * np.atleast_1d(arr))
    means = np.mean(np.exp(-c * np.outer(ee, z)), axis=1)
    out = -np.log(means)
    if arr.ndim == 0:
        return float(out[0])
    return out


@dataclass(frozen=True)
class FrontLimitReport:
    """Self-consistency report for the rescaled front tail; no verdicts.

    ``scaled`` holds t^{3/2} / ((3 / (2 sqrt(2))) log t) times the field at
    sqrt(2) t + x, to be compared with ``target`` = C e^{-sqrt(2) x}; the
    match sharpens only logarithmically in t.  ``u_at_front`` is the field
    at the centered front position plus x, and ``wave_gaps`` compares it
    with the sample-based limit profile when Z samples were supplied.
    """

    t_values: tuple[float, ...]
    x: float
    c_value: float
    scaled: tuple[float, ...]
    target: float
    gaps: tuple[float, ...]
    u_at_front: tuple[float, ...]
    wave_value: float | None
    wave_gaps: tuple[float, ...] | None


def front_limit_check(
    mech: BranchingMechanism,
    phi: TestFunction,
    t_ladder=(10.0, 20.0, 40.0),
    x: float = 0.0,
    c_phi: ConstantEstimate | float | None = None,
    z_samples=None,
    dx: float = 0.05,
    dt: float = 0.01,
    pad: float = 25.0,
) -> FrontLimitReport:
    """Report how the rescaled field tail approaches its limit form.

    Purely diagnostic: it returns the ladder of rescaled values, the target
    built from the front constant, and the pointwise gaps, leaving any
    pass-fail decision to the caller.
    """
    _require_unit_drift(mech)
    ts = tuple(float(t) for t in t_ladder)
    if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])) or ts[0] <= 1.0:
        raise FrontsError("t_ladder must be increasing with entries > 1")
    x = _as_float("x", x)
    ic = _phi_precheck(phi)
    if c_phi is None:
        c_est = constant_C(mech, phi, dx=dx, dt=dt)
        c_value = c_est.value
    elif isinstance(c_phi, ConstantEstimate):
        c_value = c_phi.value
    else:
        c_value = _as_float("c_phi", c_phi)

    if phi.is_trivial:
        zeros = tuple(0.0 for _ in ts)
        return FrontLimitReport(
            t_values=ts,
            x=x,
            c_value=0.0,
            scaled=zeros,
            target=0.0,
            gaps=zeros,
            u_at_front=zeros,
            wave_value=0.0 if z_samples is not None else None,
            wave_gaps=zeros if z_samples is not None else None,
        )

    grid = Grid1D.auto(ts[-1], dx=dx, dt=dt, pad=pad)
    field = solve_U(mech, ic, grid, snapshot_times=ts)
    scaled = []
    u_front = []
    for t in ts:
        u_val = float(field.interp(t, SQRT2 * t + x))
        scale = t ** 1.5 / ((3.0 / (2.0 * SQRT2)) * math.log(t))
        scaled.append(scale * u_val)
        u_front.append(float(field.interp(t, front_m(mech.alpha, t) + x)))
    target = c_value * math.exp(-SQRT2 * x)
    if target > 0:
        gaps = tuple(abs(s / target - 1.0) for s in scaled)
    else:
        gaps = tuple(abs(s) for s in scaled)
    wave_value = None
    wave_gaps = None
    if z_samples is not None:
        wave_value = float(limit_wave_profile(c_value, z_samples, x))
        wave_gaps = tuple(abs(u - wave_value) for u in u_front)
    return FrontLimitReport(
        t_values=ts,
        x=x,
        c_value=c_value,
        scaled=tuple(scaled),
        target=target,
        gaps=gaps,
        u_at_front=tuple(u_front),
        wave_value=wave_value,
        wave_gaps=wave_gaps,
    )
