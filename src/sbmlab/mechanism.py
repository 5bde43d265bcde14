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

The hypothesis report mirrors the analytic conditions under which the
front theory operates:

* (H1), the moment condition on large jumps;
* (H2), finiteness of integral^inf [integral_lambda*^u psi]**(-1/2) du
  (front formation);
* (H3), a lower envelope psi(u) >= -a*u + b*u**(1+theta) with b > 0;
* Grey's condition, integral^inf du/psi(u) < inf (instant extinction).

Each verdict is decided from the kind of measure, with no grid and no cap.
(H1) holds for every measure a ``LevyMeasure`` can express (see
``HypothesisReport``).  (H2), (H3) and Grey's condition come from psi's
growth exponent at infinity (``_growth`` gives the argument).  The bound on
alpha - k(u) = beta*u + J(u)/u near zero needs no check either: it is at
most u (beta + integral y**2 n(dy) / 2) for a finite measure and exactly
beta*u + C*u**(s-1) for a stable part with no cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

_ROOT_BRACKET_CAP = 1e12
# the last power of two lambda_star tries from below, sqrt(sys.float_info.min).
# Below it u**2, and u**index for a large stable coefficient, go subnormal:
# psi can then change sign where it has no zero (alpha 1 and stable jumps of
# index 1.5 with their zero at 1e-250 have a bracket at 1.45e-216), and the
# products in Brent's steps underflow (a zero at 1e-180 does not converge)
_ROOT_FLOOR = 2.0**-511
# scipy.optimize.brentq's default
_BRENT_MAXITER = 100
# terms n = 2..21 of the small-argument series; the first one dropped is
# below 1e-22 of the sum for X <= 1
_SERIES_TERMS = 20


class MechanismError(ValueError):
    """Invalid mechanism parameters or a failed mechanism computation."""


def _excess(x: np.ndarray | float) -> np.ndarray | float:
    """exp(-x) - 1 + x, stable for tiny x where direct evaluation cancels."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
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
        if not 0 < c < math.inf:
            raise MechanismError("stable coefficient must be positive and finite")
        if not 1.0 < index < 2.0:
            raise MechanismError("stable index must lie in (1, 2)")
        if not cutoff > 0:
            raise MechanismError("cutoff must be positive (math.inf allowed)")
        return cls(kind="truncated-stable", c=float(c), index=float(index), cutoff=float(cutoff))

    @classmethod
    def atoms(cls, points) -> "LevyMeasure":
        pts = tuple((float(y), float(w)) for y, w in points)
        for y, w in pts:
            if not (0 < y < math.inf and 0 < w < math.inf):
                raise MechanismError("atom positions and weights must be positive and finite")
        return cls(kind="atoms", points=pts)

    @classmethod
    def tabulated(cls, y, density) -> "LevyMeasure":
        yg = tuple(float(v) for v in y)
        dg = tuple(float(v) for v in density)
        if len(yg) != len(dg) or len(yg) < 2:
            raise MechanismError("tabulated measure needs matching grids of length >= 2")
        if not all(math.isfinite(v) for v in yg + dg):
            raise MechanismError("tabulated grid and density must be finite")
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

    def moment_between(self, power: int, lo: float, hi: float) -> float:
        """integral y**power n(dy) over (lo, hi]; power 0 gives the mass n((lo, hi])."""
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
        # tabulated: the density is zero off its grid
        yg = np.asarray(self.y_grid)
        dg = np.asarray(self.density)
        a = max(lo, yg[0])
        b = min(hi, yg[-1])
        if b <= a:
            return 0.0
        grid = np.unique(np.concatenate([[a, b], yg[(yg > a) & (yg < b)]]))
        dens = np.interp(grid, yg, dg)
        return float(np.trapezoid(grid**power * dens, grid))

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


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, error: type[Exception], what: str) -> float:
    """Root of f in [xa, xb] by Brent's method: scipy.optimize.brentq's steps and bits.

    The step rules and the arithmetic are those of scipy's C brentq, so the
    root is the same double; the tests pin that.  A bracket whose ends have
    one sign, a NaN value and _BRENT_MAXITER iterations spent without
    convergence raise error, naming what is solved.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise error(f"{what}: the function is NaN at {x!r}")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise error(f"{what}: no sign change on the bracket [{xa!r}, {xb!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise error(f"{what}: no convergence in {_BRENT_MAXITER} iterations on [{xa!r}, {xb!r}] (last {xcur!r})")


def lambda_star(mech: BranchingMechanism) -> float:
    """Largest zero of the mechanism, bracketed then polished to 1e-12 relative.

    The bracket doubles up from 1 until psi > 0, then halves down until
    psi < 0, through powers of two to the floor 2**-511, about 1.5e-154.
    A mechanism whose psi is still >= 0 there raises MechanismError naming
    that floor: alpha 1 with stable jumps of c 1 and index 1.001, say,
    whose zero lies near 1e-3000.
    """
    what = f"lambda_star (alpha {mech.alpha:g}, beta {mech.beta:g}, {mech.levy.kind} jumps)"
    hi = 1.0
    while psi(mech, hi) <= 0.0:
        hi *= 2.0
        if hi > _ROOT_BRACKET_CAP:
            raise MechanismError(
                f"{what}: no positive zero below the bracket cap {_ROOT_BRACKET_CAP:g}; "
                "mechanism may not be supercritical enough"
            )
    lo = hi / 2.0
    while psi(mech, lo) >= 0.0:
        if lo <= _ROOT_FLOOR:
            raise MechanismError(
                f"{what}: psi >= 0 down to the floor {_ROOT_FLOOR!r}; the zero lies below every normal double"
            )
        lo /= 2.0
    # an absolute tolerance alone would stop short of 1e-12 for a small root
    xtol = min(1e-14, 1e-12 * lo)
    return float(_brentq(lambda u: psi(mech, u), lo, hi, xtol, 1e-12, MechanismError, what))


def _growth(mech: BranchingMechanism) -> tuple[float, tuple[float, float, float] | None]:
    """psi's growth exponent p at infinity, psi(u) ~ u**p, and an (H3) witness.

    The witness (a, b, theta) is an envelope psi(u) >= -a*u + b*u**(1+theta)
    for every u >= 0, exact rather than fitted:

    * beta > 0: p = 2 and (alpha, beta, 1), since the jump term is nonnegative;
    * truncated-stable jumps of index s, beta = 0: p = s.  With no cutoff
      psi is exactly -alpha*u + C*u**s, C = c Gamma(2-s)/(s(s-1)), so the
      witness is (alpha, C, s-1).  With cutoff L the jump term
      c u**s F(u L) is at least b u**s, b = c F(1), for u >= 1/L and
      nonnegative below, which gives (alpha + b L**(1-s), b, s-1);
    * atoms or a tabulated density, beta = 0: a finite measure, so psi
      grows linearly, p = 1, and no envelope with b > 0 exists.

    (H2), (H3) and Grey's condition each hold exactly when p > 1: the
    integrands of (H2) and Grey decay like u**(-(p+1)/2) and u**(-p).
    """
    if mech.beta > 0.0:
        return 2.0, (float(mech.alpha), float(mech.beta), 1.0)
    levy = mech.levy
    if levy.kind != "truncated-stable":
        return 1.0, None
    s = levy.index
    if math.isinf(levy.cutoff):
        return s, (float(mech.alpha), levy.c * math.gamma(2.0 - s) / (s * (s - 1.0)), s - 1.0)
    b = levy.c * float(_stable_cutoff_excess(np.array(1.0), s))
    return s, (mech.alpha + b * levy.cutoff ** (1.0 - s), b, s - 1.0)


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of every desk-scale hypothesis check for one mechanism.

    h1           (H1): integral_{y>1} y (log y)**(2+gamma) n(dy) < inf for
                 some gamma > 0.  True for every measure a LevyMeasure can
                 express: atoms, a tabulated density and a stable part with
                 a cutoff have compact support, and a stable part of index
                 s with no cutoff gives c Gamma(3+gamma)/(s-1)**(3+gamma).
    growth       psi's growth exponent p at infinity, psi(u) ~ u**p.
    h2           (H2), front formation: p > 1.
    h3           (H3): an envelope psi(u) >= -a*u + b*u**(1+theta), b > 0.
    h3_witness   that envelope's (a, b, theta), None when h3 is False.
    grey         Grey's condition, integral^inf du/psi(u) < inf: p > 1.
    lambda_star  the largest zero of psi, None when ``lambda_star`` raises.
    """

    h1: bool
    growth: float
    h2: bool
    h3: bool
    h3_witness: tuple[float, float, float] | None
    grey: bool
    lambda_star: float | None


def check_hypotheses(mech: BranchingMechanism) -> HypothesisReport:
    """Run every hypothesis check and collect one structured report.

    (H1) holds for every expressible measure; (H2), (H3) and Grey's
    condition come from ``_growth``.
    """
    growth, witness = _growth(mech)
    try:
        lam_star = lambda_star(mech)
    except MechanismError:
        lam_star = None
    return HypothesisReport(
        h1=True,
        growth=growth,
        h2=growth > 1.0,
        h3=witness is not None,
        h3_witness=witness,
        grey=growth > 1.0,
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

    Arguments outside [x[0], x[-1]] get the end value.  The coefficients are
    stored one row per cell, so a call gathers each argument's four with one
    ``take``.  Horner's rule runs in place in the fixed order
    y0 + s*(d0 + s*(c2 + s*c3)): an in-place step may swap the operands of a
    ``*`` or ``+``, which keeps every bit, but never regroups them.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, slope: np.ndarray):
        rise = np.diff(y)
        d0, d1 = slope[:-1] * np.diff(x), slope[1:] * np.diff(x)
        # on a cell, y = y0 + s (d0 + s (c2 + s c3)) with s in [0, 1]; a last
        # constant cell takes s = 0 at x[-1]
        coef = np.column_stack([y[:-1], d0, 3.0 * rise - 2.0 * d0 - d1, d0 + d1 - 2.0 * rise])
        self.coef = np.r_[coef, [[y[-1], 0.0, 0.0, 0.0]]]
        self.x, self.index = x, np.arange(x.size, dtype=float)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        s = np.interp(q, self.x, self.index)
        i = s.astype(np.intp)
        s -= i
        cell = self.coef.take(i, axis=0)
        out = cell[:, 3] * s
        out += cell[:, 2]
        out *= s
        out += cell[:, 1]
        out *= s
        out += cell[:, 0]
        return out


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
    _FLOW_TOP, psi is the power law u**p of its local exponent there, read
    off the last cell.  Whether Grey's condition holds is psi's growth
    exponent at infinity (``_growth``), not that local reading; where it
    fails, G is anchored at _FLOW_TOP instead of infinity, and an argument
    above _FLOW_TOP raises GreyViolatedError.
    """

    def __init__(self, mech: BranchingMechanism):
        lam = self.lam = lambda_star(mech)
        self.alpha = mech.alpha

        # above lambda*: -dG/dw = (v - lambda*)/psi(v)
        up = _cell_edges(-25.0, math.log(_FLOW_TOP / lam))
        f, cells = _integrate(up, lambda w: lam * np.exp(w) / psi(mech, lam + lam * np.exp(w)))
        tail = -math.log(f[-1] / f[-2]) / (up[-1] - up[-2])  # p - 1 for psi ~ u**p
        growth = _growth(mech)[0]
        self.grey = growth > 1.0
        # G(_FLOW_TOP) = f[-1] / tail holds once psi is near its power law;
        # a tail near 0 (a linear psi, positive only by rounding) would make it huge
        if self.grey and not tail > 0.5 * (growth - 1.0):
            raise MechanismError(
                f"psi's local exponent at {_FLOW_TOP:g} is {tail + 1.0:.6g}, short of its growth "
                f"exponent {growth:g} at infinity; the flow from infinity cannot be tabulated"
            )
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
        out = v0.copy()
        negative = v0 < 0.0
        if negative.any():
            out[negative] *= math.exp(self.alpha * t)
        above = v0 > self.lam
        if above.any():
            out[above] = self._descend(v0[above], t)
        below = (v0 > 0.0) & (v0 < self.lam)
        if below.any():
            out[below] = self._climb(v0[below], t)
        return out

    def _descend(self, v0: np.ndarray, t: float) -> np.ndarray:
        w0 = v0 - self.lam
        np.log(w0, out=w0)
        w0 -= math.log(self.lam)
        if not self.grey and np.any(w0 > self.w_top):
            raise GreyViolatedError(
                f"integral^inf du/psi(u) diverges (psi grows about linearly at {_FLOW_TOP:g}); "
                f"the flow from above {_FLOW_TOP:g}, infinity included, is undefined"
            )
        # g = exp(-up(w0)) + t, with G(inf) = 0
        g = self.up(w0)
        np.negative(g, out=g)
        np.exp(g, out=g)
        g[w0 == math.inf] = 0.0
        g += t
        np.log(g, out=g)
        np.negative(g, out=g)
        v = self.up_inv(g)
        np.exp(v, out=v)
        v *= self.lam
        v += self.lam
        return v

    def _climb(self, v0: np.ndarray, t: float) -> np.ndarray:
        w0 = self.lam - v0
        np.divide(v0, w0, out=w0)
        np.log(w0, out=w0)
        r = self.down(w0)
        r += t
        v = self.down_inv(r)
        special.expit(v, out=v)
        v *= self.lam
        return v


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
    once per mechanism.  Where psi's local exponent settles inside the
    fine cells, |w| <= 25 with w = log((v - lambda*)/lambda*), its relative
    error against the Bernoulli closed form of pure stable psi and DOP853
    references is about 1e-9.  Where psi changes shape beyond them it is
    worse: for alpha 1, beta 1e-12 and one atom (1, 5), whose psi turns
    from about 4u to 1e-12 u**2 near u = 4e12 (w about 29), the map is off a
    DOP853 solve (rtol 1e-13) by 2.7e-5 at v0 = 1e13, t = 0.1 and by 4.9e-6
    at v0 = 1e12, t = 0.5, against 5.1e-9 at v0 = 10, t = 0.5.  Either way 0
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
        # with no sign bit set (no negative, and no -0.0, which np.maximum
        # turns into +0.0) and nothing infinite or NaN, pos is arr and this
        # is the last line's growth * pos / (1 + slope * pos), term for term
        if not np.signbit(arr).any() and arr.max(initial=0.0) < math.inf:
            out = arr * growth
            den = arr * slope
            den += 1.0
            out /= den
            return out
        # found by isposinf, so that a NaN elsewhere in arr cannot hide an inf
        top = np.isposinf(arr)
        if top.any():
            return np.where(top, growth / slope, flow(np.where(top, 0.0, arr)))
        pos = np.maximum(arr, 0.0)
        return np.where(arr < 0, growth * arr, growth * pos / (1.0 + slope * pos))

    flow.form = "logistic"
    return flow


def mechanism_to_dict(mech: BranchingMechanism) -> dict:
    """Plain-JSON form of a mechanism, as the CLI's ``mechanism`` block reads it."""
    return {"alpha": mech.alpha, "beta": mech.beta, "levy": mech.levy.to_dict()}
