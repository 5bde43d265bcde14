"""Front-limit constants of the wave field and of the barrier field.

The three constants share one numerical pattern: solve the field up to a
ladder of reference times r, integrate the time-r profile ahead of sqrt(2) r
against an exponential weight in the overshoot variable y, and extrapolate
the ladder.  At reachable r the plain constants still carry corrections of
order log r / sqrt(r), so their ladders are fitted against that correction
shape; the tilted constant converges geometrically once its linear-in-r
mass growth and the scheme's far-field dispersion are divided out, and is
finished with one Aitken step.  The error bar attached to each estimate is
the magnitude of the last ladder increment, which is honest about the
slowly decaying r corrections rather than trusting the fit residual.  The
barrier-field constants C~ and C^ read the field V that ``kpp.solve_V``
marches once from the truncation level theta = 1e4; the error bar covers
neither that truncation nor the time-step bias of the march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kpp import (
    SQRT2,
    Field,
    Grid1D,
    InitialCondition,
    _as_float,
    _grid_step,
    solve_U,
    solve_V,
    tail_error_estimate,
)
from .mechanism import BranchingMechanism, check_hypotheses

DEFAULT_R_LADDER = (4.0, 8.0, 16.0, 32.0)
# room the constants' grids keep beyond what the top rung's overshoot integral reaches
_PAD_SLACK = 4.0
# phi must vanish on (-inf, _SUPPORT_FLOOR] for its front constants
_SUPPORT_FLOOR = -45.0


class FrontsError(ValueError):
    """Invalid input or a precondition failure in the front-constant layer."""


class NonConvergentLadderError(FrontsError):
    """Ladder increments grow without sign of settling; no extrapolation is trusted."""


class IntegralCapError(FrontsError):
    """The overshoot integral still has > 1% estimated mass beyond the cap."""


def _require_unit_drift(mech: BranchingMechanism) -> None:
    if abs(mech.alpha - 1.0) > 1e-9:
        raise FrontsError(
            f"front constants assume unit drift, got alpha {mech.alpha:g}; divide alpha, beta "
            "and the jump measure by alpha, which runs time x alpha and space x sqrt(alpha)"
        )


def _require_h3(mech: BranchingMechanism) -> None:
    """Refuse a mechanism without (H3); (H1) holds for every expressible one."""
    report = check_hypotheses(mech)
    if not report.h3:
        raise FrontsError(
            "barrier-field constants need (H3); h3 failed "
            f"(psi grows like u**{report.growth:g} at infinity)"
        )


@dataclass(frozen=True)
class TestFunction:
    """Spatial test function phi(y) for the front-limit functionals.

    Kinds: "zero", "scaled-indicator" (lam on [a, inf)), "compact-bump"
    (smooth bump of given center, half-width, peak height), "table"
    (linear interpolation of sample points, zero to the left of the data,
    held constant to the right).
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
        lam = _as_float("lam", lam, FrontsError)
        a = _as_float("a", a, FrontsError)
        if lam < 0:
            raise FrontsError("indicator scale must be nonnegative")
        return cls(kind="scaled-indicator", lam=lam, a=a)

    @classmethod
    def compact_bump(cls, center: float, width: float, height: float) -> "TestFunction":
        center = _as_float("center", center, FrontsError)
        width = _as_float("width", width, FrontsError)
        height = _as_float("height", height, FrontsError)
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
        """Infimum of the support: phi vanishes on (-inf, support_left); +inf for a trivial phi.

        A table's support starts at the node before its first nonzero value,
        or at ys[0] when vals[0] is nonzero.
        """
        if self.is_trivial:
            return math.inf
        if self.kind == "scaled-indicator":
            return self.a
        if self.kind == "compact-bump":
            return self.center - self.width
        first = next(i for i, v in enumerate(self.vals) if v != 0.0)
        return self.ys[max(first - 1, 0)]

    @property
    def is_trivial(self) -> bool:
        if self.kind == "zero":
            return True
        return self.sup_norm == 0.0

    def to_initial_condition(self) -> InitialCondition:
        return InitialCondition.bounded(self.evaluate, self.sup_norm)


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


def _validate_ladder(r_ladder, dt: float) -> tuple[float, ...]:
    rs = tuple(float(r) for r in r_ladder)
    if len(rs) < 3:
        raise FrontsError("r_ladder needs at least three rungs to extrapolate")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise FrontsError("r_ladder must be strictly increasing")
    if rs[0] <= 0:
        raise FrontsError("r_ladder entries must be positive")
    for r in rs:
        _grid_step("r_ladder rung", r, dt, FrontsError)
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

    For a barrier field the rows come from its single march at the
    truncation level theta = 1e4.  The cap starts at y_req and grows while
    the estimated remaining tail exceeds 1% of the integral; when the grid
    cannot host a sufficient cap the computation refuses instead of silently
    truncating.
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


def _plain_cap(r: float) -> float:
    """Overshoot cap of the plain constants at rung r: six widths sqrt(2 r), plus 8."""
    return 6.0 * math.sqrt(2.0 * r) + 8.0


def _phi_precheck(phi: TestFunction) -> InitialCondition:
    """phi's initial condition, once phi vanishes on (-inf, -45].

    The overshoot quadrature resolves int y e^{sqrt2 y} phi(-y) dy only for
    data that is zero left of -45, so phi is refused exactly when it is
    nonzero somewhere there: its support starts below -45, or phi(-45) != 0.
    """
    if not isinstance(phi, TestFunction):
        raise FrontsError("phi must be a TestFunction")
    if phi.support_left < _SUPPORT_FLOOR or phi.evaluate(_SUPPORT_FLOOR) != 0.0:
        raise FrontsError(
            f"phi is nonzero at or left of {_SUPPORT_FLOOR:g} (support_left {phi.support_left:g}); "
            "the front-constant quadrature resolves only data that vanishes there"
        )
    return phi.to_initial_condition()


def _plain_ladder(solve, mech, ic, rs, dx: float, dt: float) -> ConstantEstimate:
    """Solve one field with ``solve`` up to the top rung and fit its plain rungs."""
    grid = Grid1D.auto(rs[-1], dx=dx, dt=dt, pad=_plain_cap(rs[-1]) + _PAD_SLACK)
    field = solve(mech, ic, grid, snapshot_times=rs)
    vals = tuple(_tail_integral(field, r, SQRT2, _plain_cap(r)) for r in rs)
    value, err = _fit_algebraic(rs, vals)
    return ConstantEstimate(value, err, rs, vals)


def constant_C(
    mech: BranchingMechanism,
    phi: TestFunction,
    r_ladder=DEFAULT_R_LADDER,
    dx: float = 0.05,
    dt: float = 0.01,
) -> ConstantEstimate:
    """Ladder estimate of the front constant of phi.

    Each rung integrates the time-r profile ahead of sqrt(2) r against
    y e^{sqrt(2) y}; the profile there concentrates on y = O(sqrt(r)), so
    the cap grows like sqrt(r) and one field solve serves the whole ladder.
    """
    _require_unit_drift(mech)
    rs = _validate_ladder(r_ladder, dt)
    ic = _phi_precheck(phi)
    if phi.is_trivial:
        return ConstantEstimate(0.0, 0.0, rs, tuple(0.0 for _ in rs))
    return _plain_ladder(solve_U, mech, ic, rs, dx, dt)


def constant_C_tilde(
    mech: BranchingMechanism,
    phi: TestFunction | None = None,
    r_ladder=DEFAULT_R_LADDER,
    dx: float = 0.05,
    dt: float = 0.01,
) -> ConstantEstimate:
    """Ladder estimate of the barrier-field constant; phi = None gives the base one.

    The rows come from the barrier field marched once from the truncation
    level theta = 1e4 (``kpp.V_THETA``).  A mechanism without (H3), such as
    a psi that grows only linearly, raises FrontsError.
    """
    _require_unit_drift(mech)
    rs = _validate_ladder(r_ladder, dt)
    _require_h3(mech)
    ic = None
    if phi is not None and not phi.is_trivial:
        ic = _phi_precheck(phi)
    return _plain_ladder(solve_V, mech, ic, rs, dx, dt)


def constant_C_hat(
    mech: BranchingMechanism,
    delta: float,
    r_ladder=DEFAULT_R_LADDER,
    dx: float = 0.05,
    dt: float = 0.01,
) -> ConstantEstimate:
    """Ladder estimate of the tilted barrier-field constant for delta > 0.

    The rows come from the barrier field marched once from the truncation
    level theta = 1e4 (``kpp.V_THETA``), as for ``constant_C_tilde``, and
    a mechanism without (H3) raises FrontsError.
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
    delta = _as_float("delta", delta, FrontsError)
    if delta <= 0:
        raise FrontsError("delta must be positive")
    rs = _validate_ladder(r_ladder, dt)
    _require_h3(mech)

    def y_req(r: float) -> float:
        return 3.0 * r + 40.0 / (SQRT2 + delta)

    # room past the integrand peak at y = delta r: five Gaussian widths
    # plus slack, so the 1% tail rule is satisfiable without re-solving
    peak_need = delta * rs[-1] + 5.0 * math.sqrt(rs[-1]) + 10.0
    pad = max(y_req(rs[-1]), peak_need) + _PAD_SLACK
    grid = Grid1D.auto(rs[-1], dx=dx, dt=dt, pad=pad)
    field = solve_V(mech, None, grid, snapshot_times=rs)
    vals = []
    for r in rs:
        base = _tail_integral(field, r, SQRT2 + delta, y_req(r))
        raw = delta * math.exp(-0.5 * delta * delta * r) * base
        damp = math.exp(-tail_error_estimate(field, r, (SQRT2 + delta) * r))
        vals.append(raw / (2.0 * delta * delta * r) * damp)
    value, err = _aitken(tuple(vals))
    return ConstantEstimate(value, err, rs, tuple(vals))
