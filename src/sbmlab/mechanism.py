"""Branching mechanisms and their desk-scale hypothesis checks.

A mechanism is the convex function

    psi(u) = -alpha*u + beta*u**2 + integral (exp(-u*y) - 1 + u*y) n(dy)

with alpha > 0 (supercritical drift), beta >= 0 and a jump measure n on
(0, inf) with finite integral of y**2 ^ y.  Everything downstream (the
reaction-diffusion solver, the mass ordinary differential equation, the
particle engine) consumes mechanisms through this module.

The jump integral of every kind of measure is computed by one vectorized
kernel, ``_jump_excess``, with no adaptive quadrature: atoms are summed
exactly, a tabulated density by the trapezoid rule on its own grid, and
truncated-stable jumps use the incomplete-gamma closed form (a power series
for small arguments).  ``psi``, ``k`` and ``LevyMeasure.excess_integral``
all evaluate through it.

The scalar flow v' = -psi(v) behind the total mass, extinction and the
reaction of the field march has one implementation, ``flow_map``: its
time-t map, defined for v0 = infinity too.  It is the logistic closed form
without jumps; a jump mechanism gets a table of the flow's time coordinate
on each side of lambda*, built once from one vectorized psi call after Grey
(1974), G(v) = integral_v^inf du/psi(u) and v(t) = G^-1(G(v0) + t).

The numeric hypothesis report mirrors the analytic conditions under which the
front theory operates:

* moment condition on large jumps, scanned over an exponent grid,
* finiteness of integral [int_psi]**(-1/2) at infinity (front formation),
* a lower envelope -a*u + b*u**(1+theta) fitted on a log grid,
* instant-extinction integral (reciprocal of psi at infinity),
* smallness of alpha - k near zero against a logarithmic envelope.

Each check is a bounded computation: integrals are capped, tails are fitted
with a power law, and a report never silently extrapolates past its cap.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, optimize, special

H1_GAMMA_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
H1_NUMERIC_CAP = 1e12
H2_CAP = 1e6
EST_K_CAP = 1e7
EST_K_LAMBDA_GRID = tuple(np.logspace(-8.0, -0.05, 40))
_TAIL_EXPONENT_MARGIN = 1.001
_ROOT_BRACKET_CAP = 1e12
# terms n = 2..21 of the small-argument series; the first one dropped is
# below 1e-22 of the sum for X <= 1
_SERIES_TERMS = 20


class MechanismError(ValueError):
    """Invalid mechanism parameters or a failed mechanism computation."""


def _excess(x: np.ndarray | float) -> np.ndarray | float:
    """exp(-x) - 1 + x, stable for tiny x where direct evaluation cancels."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
    out = np.empty_like(x)
    xs = np.where(small, x, 0.0)
    out_small = xs * xs / 2.0 - xs**3 / 6.0 + xs**4 / 24.0
    with np.errstate(over="ignore"):
        out_big = np.where(small, 0.0, np.expm1(-np.where(small, 1.0, x)) + np.where(small, 1.0, x))
    out = np.where(small, out_small, out_big)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class LevyMeasure:
    """Jump measure on (0, inf), one of four kinds.

    none             no jumps.
    truncated-stable density c * y**(-1-index) on (0, cutoff), index in (1, 2).
    atoms            finite collection of (position, weight) pairs.
    tabulated        piecewise-linear density on a given increasing grid.
    """

    kind: str = "none"
    c: float = 0.0
    index: float = 1.5
    cutoff: float = math.inf
    points: tuple[tuple[float, float], ...] = ()
    y_grid: tuple[float, ...] = ()
    density: tuple[float, ...] = ()

    @classmethod
    def none(cls) -> "LevyMeasure":
        return cls(kind="none")

    @classmethod
    def truncated_stable(cls, c: float, index: float, cutoff: float = math.inf) -> "LevyMeasure":
        if c <= 0:
            raise MechanismError("stable coefficient must be positive")
        if not 1.0 < index < 2.0:
            raise MechanismError("stable index must lie in (1, 2)")
        if cutoff <= 0:
            raise MechanismError("cutoff must be positive (math.inf allowed)")
        return cls(kind="truncated-stable", c=float(c), index=float(index), cutoff=float(cutoff))

    @classmethod
    def atoms(cls, points) -> "LevyMeasure":
        pts = tuple((float(y), float(w)) for y, w in points)
        for y, w in pts:
            if y <= 0 or w <= 0:
                raise MechanismError("atom positions and weights must be positive")
        return cls(kind="atoms", points=pts)

    @classmethod
    def tabulated(cls, y, density) -> "LevyMeasure":
        yg = tuple(float(v) for v in y)
        dg = tuple(float(v) for v in density)
        if len(yg) != len(dg) or len(yg) < 2:
            raise MechanismError("tabulated measure needs matching grids of length >= 2")
        if any(b <= a for a, b in zip(yg, yg[1:])) or yg[0] <= 0:
            raise MechanismError("tabulated grid must be positive and strictly increasing")
        if any(d < 0 for d in dg):
            raise MechanismError("tabulated density must be nonnegative")
        return cls(kind="tabulated", y_grid=yg, density=dg)

    @property
    def is_trivial(self) -> bool:
        if self.kind == "none":
            return True
        if self.kind == "atoms":
            return not self.points
        if self.kind == "tabulated":
            return all(d == 0.0 for d in self.density)
        return False

    # ---- integrals ----------------------------------------------------

    def excess_integral(self, lam: float) -> float:
        """integral (exp(-lam*y) - 1 + lam*y) n(dy) for one lam >= 0."""
        return float(_jump_excess(self, np.asarray(lam, dtype=float)))

    def mass_between(self, lo: float, hi: float) -> float:
        """n((lo, hi])."""
        if self.is_trivial or hi <= lo:
            return 0.0
        if self.kind == "atoms":
            return float(sum(w for y, w in self.points if lo < y <= hi))
        if self.kind == "truncated-stable":
            a = max(lo, 0.0)
            b = min(hi, self.cutoff)
            if b <= a:
                return 0.0
            if a == 0.0:
                return math.inf
            return self.c / self.index * (a ** (-self.index) - b ** (-self.index))
        return self._tab_moment(0, lo, hi)

    def moment_between(self, power: int, lo: float, hi: float) -> float:
        """integral y**power n(dy) over (lo, hi]."""
        if self.is_trivial or hi <= lo:
            return 0.0
        if self.kind == "atoms":
            return float(sum(w * y**power for y, w in self.points if lo < y <= hi))
        if self.kind == "truncated-stable":
            a = max(lo, 0.0)
            b = min(hi, self.cutoff)
            if b <= a:
                return 0.0
            p = power - self.index
            if p == 0.0:
                if a == 0.0:
                    return math.inf
                return self.c * math.log(b / a)
            if a == 0.0 and p < 0.0:
                return math.inf
            lo_term = 0.0 if a == 0.0 else a**p
            if math.isinf(b):
                if p >= 0.0:
                    return math.inf
                return -self.c / p * lo_term
            return self.c / p * (b**p - lo_term)
        return self._tab_moment(power, lo, hi)

    def _tab_moment(self, power: int, lo: float, hi: float) -> float:
        yg = np.asarray(self.y_grid)
        dg = np.asarray(self.density)
        a = max(lo, yg[0])
        b = min(hi, yg[-1])
        if b <= a:
            return 0.0
        grid = np.unique(np.concatenate([[a, b], yg[(yg > a) & (yg < b)]]))
        dens = np.interp(grid, yg, dg)
        return float(np.trapezoid(grid**power * dens, grid))

    def h1_integral(self, gamma: float) -> float:
        """integral over y > 1 of y * (log y)**(2+gamma) n(dy)."""
        if self.is_trivial:
            return 0.0
        p = 2.0 + gamma
        if self.kind == "atoms":
            return float(
                sum(w * y * math.log(y) ** p for y, w in self.points if y > 1.0)
            )
        if self.kind == "tabulated":
            yg = np.asarray(self.y_grid)
            dg = np.asarray(self.density)
            mask = yg > 1.0
            if not mask.any():
                return 0.0
            grid = np.concatenate([[1.0], yg[mask]]) if yg[mask][0] > 1.0 else yg[mask]
            dens = np.interp(grid, yg, dg)
            return float(np.trapezoid(grid * np.log(np.maximum(grid, 1.0)) ** p * dens, grid))
        # with y = e^u the integral is c * int_0^log(cutoff) e^(-(s-1)u) u^p du,
        # a lower incomplete gamma function
        if self.cutoff <= 1.0:
            return 0.0
        s = self.index
        frac = float(special.gammainc(p + 1.0, (s - 1.0) * math.log(self.cutoff)))
        return self.c * math.gamma(p + 1.0) * frac / (s - 1.0) ** (p + 1.0)

    # ---- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == "none":
            return {"kind": "none"}
        if self.kind == "atoms":
            return {"kind": "atoms", "atoms": [[y, w] for y, w in self.points]}
        if self.kind == "truncated-stable":
            cutoff = None if math.isinf(self.cutoff) else self.cutoff
            return {"kind": "truncated-stable", "c": self.c, "index": self.index, "cutoff": cutoff}
        return {"kind": "tabulated", "y": list(self.y_grid), "density": list(self.density)}

    @classmethod
    def from_dict(cls, blob: dict) -> "LevyMeasure":
        kind = blob.get("kind")
        if kind == "none":
            return cls.none()
        if kind == "atoms":
            return cls.atoms([tuple(p) for p in blob["atoms"]])
        if kind == "truncated-stable":
            cutoff = blob.get("cutoff")
            return cls.truncated_stable(
                c=blob["c"], index=blob["index"], cutoff=math.inf if cutoff is None else cutoff
            )
        if kind == "tabulated":
            return cls.tabulated(blob["y"], blob["density"])
        raise MechanismError(f"unknown jump measure kind: {kind!r}")


def _stable_cutoff_excess(x: np.ndarray, s: float) -> np.ndarray:
    """F(X) = integral_0^X (e^-z - 1 + z) z^(-1-s) dz for index s in (1, 2), X >= 0.

    Up to X = 1 the alternating series sum_{n>=2} (-1)^n X^(n-s) / (n! (n-s))
    avoids the cancellation of the closed form; above it, integrating by
    parts twice gives

        F(X) = -X^-s g(X)/s + X^(1-s) (1 - e^-X)/(s (1-s))
               - Gamma(2-s) P(2-s, X)/(s (1-s)),

    with g(z) = e^-z - 1 + z and P the regularized lower incomplete gamma.
    """
    n = np.arange(2, 2 + _SERIES_TERMS)
    coeffs = (-1.0) ** n / (special.factorial(n) * (n - s))
    small = x <= 1.0
    # each branch runs on every entry, with a harmless stand-in where the
    # other branch applies
    xs = np.where(small, x, 0.0)
    series = xs ** (2.0 - s) * np.polynomial.polynomial.polyval(xs, coeffs)
    xb = np.where(small, 2.0, x)
    closed = (
        -(xb ** (-s)) * _excess(xb) / s
        - xb ** (1.0 - s) * np.expm1(-xb) / (s * (1.0 - s))
        - math.gamma(2.0 - s) * special.gammainc(2.0 - s, xb) / (s * (1.0 - s))
    )
    return np.where(small, series, closed)


def _jump_excess(levy: LevyMeasure, lam: np.ndarray) -> np.ndarray:
    """integral (exp(-lam*y) - 1 + lam*y) n(dy), elementwise over an array of lam >= 0.

    Every kind evaluates in closed form or by one vectorized sum: atoms sum
    exactly, truncated-stable jumps follow c * lam**s * F(lam * cutoff)
    (the Gamma closed form when the cutoff is infinite), and the tabulated
    density is integrated by the trapezoid rule on its own grid, for all
    lam at once.
    """
    if levy.is_trivial:
        return np.zeros_like(lam)
    if levy.kind == "atoms":
        ys = np.array([p[0] for p in levy.points])
        ws = np.array([p[1] for p in levy.points])
        return np.sum(ws * _excess(np.multiply.outer(lam, ys)), axis=-1)
    if levy.kind == "tabulated":
        yg = np.asarray(levy.y_grid)
        dg = np.asarray(levy.density)
        return np.trapezoid(_excess(np.multiply.outer(lam, yg)) * dg, yg, axis=-1)
    # truncated-stable with no cutoff integrates exactly: differentiating
    # under the integral twice gives Gamma(2-s) * lam**(s-2), so the
    # integral is c * Gamma(2-s)/(s*(s-1)) * lam**s
    s = levy.index
    if math.isinf(levy.cutoff):
        return levy.c * math.gamma(2.0 - s) / (s * (s - 1.0)) * lam**s
    return levy.c * lam**s * _stable_cutoff_excess(lam * levy.cutoff, s)


@dataclass(frozen=True)
class BranchingMechanism:
    """Supercritical branching mechanism; immutable and JSON-serializable."""

    alpha: float
    beta: float
    levy: LevyMeasure = field(default_factory=LevyMeasure.none)

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise MechanismError("alpha must be positive and finite")
        if self.beta < 0 or not math.isfinite(self.beta):
            raise MechanismError("beta must be nonnegative and finite")
        if self.beta == 0.0 and self.levy.is_trivial:
            raise MechanismError("mechanism must be nonlinear: beta > 0 or a nontrivial jump measure")


class NormalizedMechanism(BranchingMechanism):
    """Mechanism brought to unit drift and unit largest zero.

    Behaves exactly like a BranchingMechanism; it only remembers where it
    came from so the rescaling stays inspectable.
    """

    def __init__(self, alpha, beta, levy, base: BranchingMechanism, lam_scale: float, rate_scale: float):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "levy", levy)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "lam_scale", lam_scale)
        object.__setattr__(self, "rate_scale", rate_scale)
        BranchingMechanism.__post_init__(self)


def psi(mech: BranchingMechanism, lam) -> np.ndarray | float:
    """Mechanism value, vectorized over lam >= 0."""
    arr = np.asarray(lam, dtype=float)
    out = -mech.alpha * arr + mech.beta * arr * arr
    if not mech.levy.is_trivial:
        out = out + _jump_excess(mech.levy, arr)
    if out.ndim == 0:
        return float(out)
    return out


def k(mech: BranchingMechanism, lam) -> np.ndarray | float:
    """Per-mass growth factor -psi(u)/u, computed without the 0/0 at zero.

    The drift and quadratic parts are separated algebraically, so only the
    jump term is divided by u; that term is evaluated with a series-safe
    integrand and vanishes smoothly as u -> 0, where k -> alpha.
    """
    arr = np.asarray(lam, dtype=float)
    out = mech.alpha - mech.beta * arr
    if not mech.levy.is_trivial:
        pos = arr > 0
        out = out - np.where(pos, _jump_excess(mech.levy, arr) / np.where(pos, arr, 1.0), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def lambda_star(mech: BranchingMechanism) -> float:
    """Largest zero of the mechanism, bracketed then polished to 1e-12."""
    hi = 1.0
    while psi(mech, hi) <= 0.0:
        hi *= 2.0
        if hi > _ROOT_BRACKET_CAP:
            raise MechanismError(
                "no positive zero below the bracket cap; mechanism may not be supercritical enough"
            )
    lo = hi / 2.0
    while psi(mech, lo) >= 0.0:
        lo /= 2.0
        if lo < 1e-12:
            raise MechanismError("failed to bracket the largest zero from below")
    root = optimize.brentq(lambda u: psi(mech, u), lo, hi, xtol=1e-14, rtol=1e-12)
    return float(root)


def normalize(mech: BranchingMechanism) -> NormalizedMechanism:
    """Rescale argument and rate so drift and largest zero both equal one.

    With s = lambda_star and a = alpha, the map is
    psi_norm(x) = psi(s*x) / (a*s), which transforms the parameters in closed
    form (beta -> beta*s/a, atom (y, w) -> (s*y, w/(a*s)), stable
    (c, index, cutoff) -> (c*s**(index-1)/a, index, s*cutoff), tabulated grid
    y -> s*y with density/(a*s**2) matched so the pushforward is exact).
    """
    s = lambda_star(mech)
    a = mech.alpha
    levy = mech.levy
    if levy.is_trivial:
        new_levy = LevyMeasure.none()
    elif levy.kind == "atoms":
        new_levy = LevyMeasure.atoms([(s * y, w / (a * s)) for y, w in levy.points])
    elif levy.kind == "truncated-stable":
        new_levy = LevyMeasure.truncated_stable(
            c=levy.c * s ** (levy.index - 1.0) / a,
            index=levy.index,
            cutoff=levy.cutoff * s,
        )
    else:
        # density transforms with one factor of s from the substitution and
        # one from the measure scale: n_norm(z) = n(z/s) / (a * s**2)
        new_levy = LevyMeasure.tabulated(
            y=tuple(s * y for y in levy.y_grid),
            density=tuple(d / (a * s * s) for d in levy.density),
        )
    return NormalizedMechanism(
        alpha=1.0,
        beta=mech.beta * s / a,
        levy=new_levy,
        base=mech,
        lam_scale=s,
        rate_scale=a * s,
    )


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of every desk-scale hypothesis check for one mechanism."""

    h1: bool
    h1_gamma: float | None
    h1_values: tuple[tuple[float, float], ...]
    h2: bool
    h2_inconclusive: bool
    h2_cap_integral: float
    h2_tail_estimate: float
    h3: bool
    h3_witness: tuple[float, float, float] | None
    grey: bool
    grey_cap_integral: float
    grey_tail_estimate: float
    est_k: bool
    est_k_c1: float
    est_k_gamma: float
    lambda_star: float | None


def _tail_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Fit y ~ C * x**(-p) on the trailing decade; returns (p, tail integral)."""
    mask = x >= x[-1] / 10.0
    lx, ly = np.log(x[mask]), np.log(np.maximum(y[mask], 1e-300))
    slope, intercept = np.polyfit(lx, ly, 1)
    p = -float(slope)
    if p <= _TAIL_EXPONENT_MARGIN:
        return p, math.inf
    c = math.exp(intercept)
    tail = c * float(x[-1]) ** (1.0 - p) / (p - 1.0)
    return p, tail


def check_hypotheses(mech: BranchingMechanism) -> HypothesisReport:
    """Run every hypothesis check and collect one structured report.

    All verdicts are numeric statements about capped integrals and fitted
    tails, not proofs; the caps and grids are module constants so a report
    can be reproduced exactly.
    """
    # moment condition on large jumps, largest exponent on the grid that
    # stays below the numeric cap
    h1_vals = []
    h1_gamma = None
    for gamma in H1_GAMMA_GRID:
        value = mech.levy.h1_integral(gamma)
        h1_vals.append((gamma, value))
        if math.isfinite(value) and value <= H1_NUMERIC_CAP:
            h1_gamma = gamma
    h1 = h1_gamma is not None

    try:
        lam_star = lambda_star(mech)
    except MechanismError:
        lam_star = None

    # front-formation integral and the instant-extinction integral share a
    # capped grid from lambda*+1 to the cap, with a power-law tail fit
    if lam_star is not None:
        lo = lam_star + 1.0
        xi = np.geomspace(lo, H2_CAP, 600)
        psi_vals = np.asarray(psi(mech, xi))
        inner = integrate.cumulative_trapezoid(psi_vals, xi, initial=0.0)
        # shift by the integral from lambda* to lo, done on its own fine grid
        head = np.linspace(lam_star, lo, 200)
        inner = inner + np.trapezoid(np.asarray(psi(mech, head)), head)
        integrand = 1.0 / np.sqrt(np.maximum(inner, 1e-300))
        h2_cap_integral = float(np.trapezoid(integrand, xi))
        p2, h2_tail = _tail_fit(xi, integrand)
        h2 = math.isfinite(h2_tail)
        h2_inconclusive = h2 and (h2_tail > 0.05 * h2_cap_integral)

        grey_integrand = 1.0 / np.maximum(psi_vals, 1e-300)
        grey_cap = float(np.trapezoid(grey_integrand, xi))
        pg, grey_tail = _tail_fit(xi, grey_integrand)
        grey = math.isfinite(grey_tail)
    else:
        h2 = grey = False
        h2_inconclusive = False
        h2_cap_integral = grey_cap = math.inf
        h2_tail = grey_tail = math.inf

    # lower envelope -a*u + b*u**(1+theta): least squares per theta, then a
    # pointwise check with small slack; the best-fitting passing witness wins
    lam_grid = np.logspace(-3.0, 3.0, 61)
    psi_grid = np.asarray(psi(mech, lam_grid))
    slack = 1e-9 * np.maximum(1.0, np.abs(psi_grid))
    best = None
    for theta in np.arange(0.1, 1.01, 0.1):
        theta = round(float(theta), 10)
        design = np.column_stack([-lam_grid, lam_grid ** (1.0 + theta)])
        coef, *_ = np.linalg.lstsq(design, psi_grid, rcond=None)
        a_fit, b_fit = float(coef[0]), float(coef[1])
        candidates = []
        if a_fit > 0 and b_fit > 0:
            candidates.append((a_fit, b_fit))
        # constructive fallback: keep the fitted drift, lower the envelope
        a_c = a_fit if a_fit > 0 else mech.alpha
        with np.errstate(divide="ignore"):
            b_c = float(np.min((psi_grid + a_c * lam_grid) / lam_grid ** (1.0 + theta)))
        if b_c > 0:
            candidates.append((a_c, b_c))
        for a_w, b_w in candidates:
            envelope = -a_w * lam_grid + b_w * lam_grid ** (1.0 + theta)
            if np.all(psi_grid >= envelope - slack):
                resid = float(np.max(np.abs(psi_grid - envelope) / np.maximum(1.0, np.abs(psi_grid))))
                if best is None or resid < best[0]:
                    best = (resid, (a_w, b_w, theta))
                break
    h3 = best is not None
    h3_witness = best[1] if best else None

    # envelope on alpha - k near zero, using the reported moment exponent
    est_gamma = h1_gamma if h1_gamma is not None else 0.5
    if lam_star is not None:
        norm = normalize(mech)
        grid = np.array(EST_K_LAMBDA_GRID)
        one_minus_k = 1.0 - np.asarray(k(norm, grid))
        weights = np.abs(np.log(grid)) ** (2.0 + est_gamma)
        c1 = float(np.max(one_minus_k * weights))
        est_ok = bool(np.all(one_minus_k >= -1e-12) and math.isfinite(c1) and c1 < EST_K_CAP)
    else:
        c1 = math.inf
        est_ok = False

    return HypothesisReport(
        h1=h1,
        h1_gamma=h1_gamma,
        h1_values=tuple(h1_vals),
        h2=h2,
        h2_inconclusive=h2_inconclusive,
        h2_cap_integral=h2_cap_integral,
        h2_tail_estimate=h2_tail,
        h3=h3,
        h3_witness=h3_witness,
        grey=grey,
        grey_cap_integral=grey_cap,
        grey_tail_estimate=grey_tail,
        est_k=est_ok,
        est_k_c1=c1,
        est_k_gamma=est_gamma,
        lambda_star=lam_star,
    )


class GreyViolatedError(MechanismError):
    """The descent from infinity diverges: integral^inf du / psi(u) is infinite."""


# The flow table of a jump mechanism lives in a log coordinate w on each side
# of lambda*: cells of 0.05 for |w| <= 25, where psi changes shape, and of
# 0.5 out to v = _FLOW_FLOOR below lambda* and v = _FLOW_TOP above it (where
# beta*v**2 and v**index are still finite).  One far node past each end
# carries the asymptotics over every other double: at |w| = _FLOW_FAR_W,
# where v and lambda* agree in double precision, and 30 decades below
# _FLOW_FLOOR and 160 above _FLOW_TOP.
_FLOW_FLOOR = 1e-300
_FLOW_TOP = 1e150
_FLOW_FAR_W = 40.0
_FLOW_FAR_BELOW = 30.0 * math.log(10.0)
_FLOW_FAR_ABOVE = 160.0 * math.log(10.0)
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _cell_edges(lo: float, hi: float) -> np.ndarray:
    """Cell edges from lo <= -25 to hi >= 25: 0.05 apart on [-25, 25], about 0.5 outside."""
    below = np.linspace(lo, -25.0, math.ceil((-25.0 - lo) / 0.5) + 1)
    above = np.linspace(25.0, hi, math.ceil((hi - 25.0) / 0.5) + 1)
    return np.concatenate([below[:-1], np.linspace(-25.0, 25.0, 1001), above[1:]])


def _integrate(edges: np.ndarray, density) -> tuple[np.ndarray, np.ndarray]:
    """A positive density at the edges, and its integral over each cell (8-node Gauss-Legendre)."""
    half = 0.5 * np.diff(edges)
    at_edges = density(edges)
    cells = half * (density((edges[:-1] + half)[:, None] + half[:, None] * _GAUSS_NODES) @ _GAUSS_WEIGHTS)
    if not (np.all(at_edges > 0.0) and np.all(cells > 0.0)):
        raise MechanismError("psi vanishes away from lambda*; the flow table cannot be built")
    return at_edges, cells


class _Hermite:
    """Cubic Hermite interpolant through (x, y) with slopes dy/dx, x increasing.

    Arguments outside [x[0], x[-1]] get the end value.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, slope: np.ndarray):
        rise = np.diff(y)
        d0, d1 = slope[:-1] * np.diff(x), slope[1:] * np.diff(x)
        # on a cell, y = y0 + s (d0 + s (c2 + s c3)) with s in [0, 1]; a last
        # constant cell takes s = 0 at x[-1]
        coef = np.stack([y[:-1], d0, 3.0 * rise - 2.0 * d0 - d1, d0 + d1 - 2.0 * rise])
        self.coef = np.c_[coef, [y[-1], 0.0, 0.0, 0.0]]
        self.x, self.index = x, np.arange(x.size, dtype=float)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        pos = np.interp(q, self.x, self.index)
        i = pos.astype(np.intp)
        s = pos - i
        y0, d0, c2, c3 = self.coef[:, i]
        return y0 + s * (d0 + s * (c2 + s * c3))


class _FlowTable:
    """Time coordinates of the flow v' = -psi(v) on both sides of lambda*.

    Above lambda*, with w = log((v - lambda*)/lambda*), G(v) = integral_v^inf
    du/psi(u) is the time the flow takes to come down from infinity (Grey
    1974), so v(t) = G^-1(G(v0) + t) and G(inf) = 0.  Below lambda*, with
    w = log(v/(lambda* - v)), R(v) = -integral_v^{v_hi} du/psi(u) is the time
    to climb to the top of the table, v_hi, so v(t) = R^-1(R(v0) + t).  In
    these coordinates dG/dw and dR/dw are smooth and tend to constants at the
    fixed points, where psi is linear.  The upper table is interpolated as
    y = -log G, which is linear in w where psi is a power law.  Both
    directions of both tables are cubic Hermite with the exact slopes.

    Past the cells, G and R are linear in w at the fixed points and, above
    _FLOW_TOP, psi is the power law u**p of its local exponent there.
    Grey's condition holds when p - 1 exceeds the margin of the hypothesis
    checks; otherwise G is anchored at _FLOW_TOP instead of infinity, and an
    argument above _FLOW_TOP raises GreyViolatedError.
    """

    def __init__(self, mech: BranchingMechanism):
        lam = self.lam = lambda_star(mech)
        self.alpha = mech.alpha

        # above lambda*: -dG/dw = (v - lambda*)/psi(v)
        up = _cell_edges(-25.0, math.log(_FLOW_TOP / lam))
        f, cells = _integrate(up, lambda w: lam * np.exp(w) / psi(mech, lam + lam * np.exp(w)))
        tail = -math.log(f[-1] / f[-2]) / (up[-1] - up[-2])  # p - 1 for psi ~ u**p
        self.grey = tail > _TAIL_EXPONENT_MARGIN - 1.0
        g_top = f[-1] / tail if self.grey else f[-1]
        g = g_top + np.r_[np.cumsum(cells[::-1])[::-1], 0.0]
        g_far = g[0] + f[0] * (up[0] + _FLOW_FAR_W)
        top = f[-1] / g_top
        w = np.r_[-_FLOW_FAR_W, up, up[-1] + _FLOW_FAR_ABOVE]
        y = np.r_[-math.log(g_far), -np.log(g), -math.log(g_top) + top * _FLOW_FAR_ABOVE]
        slope = np.r_[f[0] / g_far, f / g, top]
        self.w_top = up[-1]
        self.up, self.up_inv = _Hermite(w, y, slope), _Hermite(y, w, 1.0 / slope)

        # below lambda*: dR/dw = (dv/dw)/(-psi(v))
        down = _cell_edges(math.log(_FLOW_FLOOR / lam), 25.0)
        f, cells = _integrate(
            down, lambda w: lam * special.expit(w) * special.expit(-w) / -psi(mech, lam * special.expit(w))
        )
        r = -np.r_[np.cumsum(cells[::-1])[::-1], 0.0]
        w = np.r_[down[0] - _FLOW_FAR_BELOW, down, _FLOW_FAR_W]
        r = np.r_[r[0] - f[0] * _FLOW_FAR_BELOW, r, r[-1] + f[-1] * (_FLOW_FAR_W - down[-1])]
        slope = np.r_[f[0], f, f[-1]]
        self.down, self.down_inv = _Hermite(w, r, slope), _Hermite(r, w, 1.0 / slope)

    def advance(self, v0, t: float) -> np.ndarray:
        v0 = np.asarray(v0, dtype=float)
        # 0 and lambda* are fixed; negative values follow the linear part
        out = np.where(v0 < 0.0, math.exp(self.alpha * t), 1.0)
        out *= v0
        above = v0 > self.lam
        if above.any():
            out[above] = self._descend(v0[above], t)
        below = (v0 > 0.0) & (v0 < self.lam)
        if below.any():
            out[below] = self._climb(v0[below], t)
        return out

    def _descend(self, v0: np.ndarray, t: float) -> np.ndarray:
        w0 = np.log(v0 - self.lam) - math.log(self.lam)
        if not self.grey and np.any(w0 > self.w_top):
            raise GreyViolatedError(
                f"integral^inf du/psi(u) diverges (psi grows about linearly at {_FLOW_TOP:g}); "
                f"the flow from above {_FLOW_TOP:g}, infinity included, is undefined"
            )
        g0 = np.exp(-self.up(w0))
        g0[w0 == math.inf] = 0.0
        return self.lam + self.lam * np.exp(self.up_inv(-np.log(g0 + t)))

    def _climb(self, v0: np.ndarray, t: float) -> np.ndarray:
        w0 = np.log(v0 / (self.lam - v0))
        return self.lam * special.expit(self.down_inv(self.down(w0) + t))


@functools.lru_cache(maxsize=8)
def _flow_table(mech: BranchingMechanism) -> _FlowTable:
    return _FlowTable(mech)


def flow_map(mech: BranchingMechanism, t: float):
    """Time-t map v0 -> v(t) of the flow v' = -psi(v), vectorized; v0 = inf allowed.

    A jump-free mechanism psi(u) = -alpha*u + beta*u**2 has the logistic
    closed form

        v(t) = v0 e^{alpha t} / (1 + beta (e^{alpha t} - 1) v0 / alpha),

    and v(t) = alpha e^{alpha t} / (beta (e^{alpha t} - 1)) from v0 = inf.
    Every jump mechanism goes through its flow table (``_FlowTable``), built
    once per mechanism; against the Bernoulli closed form of pure stable psi
    and DOP853 references its relative error is about 1e-9.  Either way 0
    and lambda* are fixed points and negative inputs follow the linear part,
    to v0 e^{alpha t}.  The flow from infinity raises GreyViolatedError when
    integral^inf du/psi(u) diverges.

    The returned function's ``form`` names the form used: "logistic" or
    "table".
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise MechanismError(f"flow time must be positive and finite, got {t}")
    if not mech.levy.is_trivial:
        table = _flow_table(mech)

        def flow(v0):
            return table.advance(v0, t)

        flow.form = "table"
        return flow

    growth = math.exp(mech.alpha * t)
    slope = mech.beta * math.expm1(mech.alpha * t) / mech.alpha

    def flow(v0):
        arr = np.asarray(v0, dtype=float)
        pos = np.maximum(arr, 0.0)
        if pos.max(initial=0.0) == math.inf:
            top = pos == math.inf
            return np.where(top, growth / slope, flow(np.where(top, 0.0, arr)))
        return np.where(arr < 0, growth * arr, growth * pos / (1.0 + slope * pos))

    flow.form = "logistic"
    return flow


def mechanism_to_dict(mech: BranchingMechanism) -> dict:
    """Plain-JSON form of a mechanism, for serialization, hashing and manifests."""
    return {"alpha": mech.alpha, "beta": mech.beta, "levy": mech.levy.to_dict()}


def mechanism_to_json(mech: BranchingMechanism) -> str:
    return json.dumps(mechanism_to_dict(mech))


def mechanism_from_json(blob: str | dict) -> BranchingMechanism:
    data = json.loads(blob) if isinstance(blob, str) else blob
    try:
        return BranchingMechanism(
            alpha=float(data["alpha"]),
            beta=float(data["beta"]),
            levy=LevyMeasure.from_dict(data.get("levy", {"kind": "none"})),
        )
    except KeyError as exc:
        raise MechanismError(f"mechanism JSON missing field: {exc}") from exc
