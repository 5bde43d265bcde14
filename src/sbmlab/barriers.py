"""Blow-up boundary layers and the constants of the strip-confinement bound.

The central object is the even solution h_A of the stationary problem

    (1/2) h'' = psi_tilde(h),    psi_tilde(z) = -a z + b z**(1 + theta),

on (-A, A) with h(+-A) = +infinity.  It is computed from its first
integral.  With G(h) = -a h**2 + (2b / (2 + theta)) h**(2 + theta) the even
solution satisfies (1/2) h'**2 = G(h) - G(h0), h0 = h_A(0), so the distance
from a point where the profile has value h to the wall is

    D(h) = integral_h^inf dz / sqrt(2 (G(z) - G(h0))).

The centre value h0 is the root of D(h0) = A, and h_A(x) is the root of
D(h) = A - |x|.  D is evaluated with fixed 8-node Gauss-Legendre cells in
two pieces: on (h0, 2 h0] in w = log((z - h0) / h0), where the integrand
tends to a multiple of e^{w/2} at the centre; beyond 2 h0 in
s = z**(-theta/2), where it is bounded and smooth up to s = 0, so infinity
needs no cutoff.  Both pieces depend on h0 only through h0**theta.

Together with h_A, the module's constants give a closed-form upper bound
for the negative log probability that a cloud started at x stays inside
[-A, A] up to time t:

    h_A(x) * exp(-(c4 * (A - |x|)**2 / t - a * t - c5)).

The constants come from an explicit comparison argument, each in closed
form.  An auxiliary shape function f on [-1, 1], here f(y) = (1 - y**2)**2,
has curvature bound K = 16; the damping delta = 1/(2K) < 1/K then gives
c4 = delta * inf f(y) / (1 - y)**2 = 1/32.  c5 is the positive root of the
quadratic that the first of two sufficient inequalities reduces to, up to
rounding, and the second is checked at that root (``strip_constants``).
That c5 is sufficient, not sharp, so the bound is conservative by orders
of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .kpp import _as_float
from .mechanism import _GAUSS_NODES, _GAUSS_WEIGHTS, _brentq

__all__ = [
    "BarriersError",
    "BlowupSolution",
    "StripConstants",
    "equilibrium",
    "c2_constant",
    "c4_convexity",
    "c1_constant",
    "c3_constant",
    "strip_constants",
    "solve_hA",
    "sandwich_bounds",
    "widest_A",
]

#: Cells of the Chebyshev grid on [-A, A] whose interior nodes carry the profile.
_PROFILE_CELLS = 64
# w = log((h - h0) / h0) below which the distance integrand is proportional
# to e^{w/2}, so the rest of the integral is twice its value there
_W_FLOOR = -60.0
# Gauss-Legendre cells of the near piece, on [w, 0]; the far piece takes
# one cell per unit of its exponent p = (4 + 2 theta) / theta, at least 8
_NEAR_CELLS = 60
# log(h0 / equilibrium) * theta at the lower end of the centre-value bracket
_CENTRE_FLOOR = 1e-12
_INVERSION_MAX_ITER = 100

# the bracket in t = log(1 / (1 + lam)) of c4_convexity's stationary point
_C4_T_LOW = -700.0
_C4_T_HIGH = -(2.0**-30)


class BarriersError(ValueError):
    """Invalid input or violated precondition in the barrier machinery."""


def equilibrium(a: float, b: float, theta: float) -> float:
    """Positive zero of psi_tilde: (a / b) ** (1 / theta)."""
    return (a / b) ** (1.0 / theta)


def _amplitude(name: str, base: float, theta: float) -> float:
    """base ** (1 / theta), or BarriersError naming theta where that overflows a double."""
    try:
        return base ** (1.0 / theta)
    except OverflowError:
        raise BarriersError(
            f"{name} = {base:g} ** (1 / theta) overflows a double at theta = {theta:g}"
        ) from None


def c2_constant(b: float, theta: float) -> float:
    """Lower-envelope amplitude (2 / (b * theta)) ** (1 / theta)."""
    return _amplitude("c2", 2.0 / (b * theta), theta)


def c4_convexity(theta: float) -> float:
    """inf over lam >= 0 of ((1+lam)**(1+theta) - (1+lam)) / lam**(1+theta), from its stationary point.

    With s = 1/(1+lam) = e^t the quotient is
    f(t) = -expm1(theta t) / (-expm1(t))**(1+theta) on t < 0; it tends to
    +inf as t -> 0 and to 1 as t -> -inf, so the limit 1 bounds the infimum
    and enters the minimum.  f' = 0 where

        g(t) = (1+theta) (-expm1(theta t)) - theta e^{(theta-1) t} (-expm1(t))

    vanishes.  g is positive near t = 0 and, for theta < 1, negative far
    below, with one sign change on [-700, -2**-30]; Brent's method finds it
    and f there is the infimum, to a few ulps (against a 60-digit mpmath
    minimum, 7.4e-16 relative or better at 121 theta from 1e-4 to 1).  Where
    g(-700) >= 0 (theta = 1, whose quotient is 1 + 1/lam, and theta above
    about 0.999) the minimiser lies below s = e^-700 and the infimum is 1.0
    to double precision.
    """

    def g(t: float) -> float:
        return (1.0 + theta) * -math.expm1(theta * t) - theta * math.exp((theta - 1.0) * t) * -math.expm1(t)

    if g(_C4_T_LOW) >= 0.0:
        return 1.0
    what = f"c4_convexity stationary point (theta {theta:g})"
    # near -700 g reaches theta e^{700 (1 - theta)}, so Brent's interpolation
    # products can overflow; it then bisects, as scipy's brentq does
    with np.errstate(over="ignore", invalid="ignore"):
        t = _brentq(g, _C4_T_LOW, _C4_T_HIGH, 1e-300, 4.0 * np.finfo(float).eps, BarriersError, what)
    return min(-math.expm1(theta * t) / (-math.expm1(t)) ** (1.0 + theta), 1.0)


def c1_constant(a: float, theta: float) -> float:
    """Upper-envelope amplitude (4 / (c4 a theta) * (2/theta + 1)) ** (1/theta)."""
    c4 = c4_convexity(theta)
    return _amplitude("c1", 4.0 / (c4 * a * theta) * (2.0 / theta + 1.0), theta)


def c3_constant(a: float, theta: float) -> float:
    """Log-derivative bound 2 a c1**theta in |h'| / h <= c3 / (A - |x|)."""
    return 2.0 * a * c1_constant(a, theta) ** theta


def _mechanism_args(a, b, theta) -> tuple[float, float, float]:
    """(a, b, theta) as finite floats with a, b > 0 and theta in (0, 1]."""
    a, b, theta = (_as_float(n, v, BarriersError) for n, v in (("a", a), ("b", b), ("theta", theta)))
    if min(a, b, theta) <= 0.0 or theta > 1.0:
        raise BarriersError("need a, b > 0 and theta in (0, 1]")
    return a, b, theta


def _gauss(lo: np.ndarray, hi: np.ndarray, n_cells: int, density) -> np.ndarray:
    """Integral of ``density`` over [lo, hi] for each pair: n_cells equal 8-node Gauss-Legendre cells."""
    frac = ((np.arange(n_cells)[:, None] + 0.5 * (1.0 + _GAUSS_NODES)) / n_cells).ravel()
    weights = np.tile(_GAUSS_WEIGHTS, n_cells) / (2.0 * n_cells)
    span = hi - lo
    return span * (density(lo[:, None] + span[:, None] * frac) @ weights)


@dataclass(frozen=True)
class _FirstIntegral:
    """The distance D to the wall for a centre value h0 with h0**theta = q.

    Points are labelled by w = log((h - h0) / h0); ``distance`` and
    ``density`` = -dD/dw depend on h0 only through q.
    """

    a: float
    b: float
    theta: float
    q: float

    def gain(self, u: np.ndarray) -> np.ndarray:
        """(G(h0 (1 + u)) - G(h0)) / h0**2, formed from u so small u does not cancel."""
        c = 2.0 * self.b / (2.0 + self.theta)
        return -self.a * u * (2.0 + u) + c * self.q * np.expm1((2.0 + self.theta) * np.log1p(u))

    def density(self, w: np.ndarray) -> np.ndarray:
        u = np.exp(w)
        return u / np.sqrt(2.0 * self.gain(u))

    def _far_density(self, s: np.ndarray) -> np.ndarray:
        # in s = (z / h0)**(-theta/2): (2/theta) / sqrt(2 (c q - a s^2 - (c q - a) s^p))
        cq = 2.0 * self.b / (2.0 + self.theta) * self.q
        rest = self.a * s * s + (cq - self.a) * np.power(s, (4.0 + 2.0 * self.theta) / self.theta)
        return (2.0 / self.theta) / np.sqrt(2.0 * (cq - rest))

    def distance(self, w: np.ndarray) -> np.ndarray:
        """D at w >= _W_FLOOR: the near piece up to z = 2 h0, then the far piece."""
        zero = np.zeros_like(w)
        s_top = np.exp(-0.5 * self.theta * np.log1p(np.exp(np.maximum(w, 0.0))))
        far_cells = max(8, math.ceil((4.0 + 2.0 * self.theta) / self.theta))
        near = _gauss(np.minimum(w, 0.0), zero, _NEAR_CELLS, self.density)
        return near + _gauss(zero, s_top, far_cells, self._far_density)

    def centre_distance(self) -> float:
        """D(h0): the distance from w = _W_FLOOR plus the e^{w/2} rest below it."""
        floor = np.array([_W_FLOOR])
        return float(self.distance(floor)[0] + 2.0 * self.density(floor)[0])

    def invert(self, target: np.ndarray) -> np.ndarray:
        """w with D(w) = target, by Newton in w kept inside a bisection bracket.

        Targets at or above D(_W_FLOOR) lie within h0 e^{-60} of the centre
        value and get w = -inf.
        """
        todo = target < self.distance(np.array([_W_FLOOR]))[0]
        t = target[todo]
        lo, hi = np.full(t.shape, _W_FLOOR), np.full(t.shape, np.inf)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # start at the larger of two lower bounds for the root: u = g'(0) x^2 / 2
            # near the centre; near the wall, D with the far integrand frozen at
            # its s = 0 value (2/theta) / sqrt(2 c q)
            u_centre = (self.b * self.q - self.a) * (self.centre_distance() - t) ** 2
            root_2cq = math.sqrt(4.0 * self.b * self.q / (2.0 + self.theta))
            u_wall = (0.5 * self.theta * t * root_2cq) ** (-2.0 / self.theta) - 1.0
            w = np.log(np.maximum(np.maximum(u_centre, u_wall), math.exp(_W_FLOOR)))
            for _ in range(_INVERSION_MAX_ITER):
                gap = self.distance(w) - t
                lo, hi = np.where(gap > 0.0, w, lo), np.where(gap > 0.0, hi, w)
                new = w + gap / self.density(w)
                new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
                done = (np.abs(gap) <= 1e-14 * t) | (np.abs(new - w) <= 1e-13)
                w = new
                if np.all(done):
                    break
        if not (np.all(done) and np.all(np.isfinite(w))):
            raise BarriersError(
                f"D(h) = {np.min(t):g} has no root in double precision: h overflows that close to the wall"
            )
        out = np.full(target.shape, -np.inf)
        out[todo] = w
        return out


@dataclass(frozen=True, eq=False)
class BlowupSolution:
    """The blow-up profile h_A at the interior nodes ``x`` of a Chebyshev grid.

    ``h0`` is the centre value h_A(0).  ``x`` holds the 63 interior nodes of
    a 64-cell grid on [-A, A] (the walls, where h = inf, are left out) and
    ``h`` the profile there.  Each value solves the first integral to about
    1e-14 relative or better; see ``solve_hA`` for the measured accuracy.
    """

    A: float
    a: float
    b: float
    theta: float
    h0: float
    x: np.ndarray
    h: np.ndarray

    def _integral(self) -> _FirstIntegral:
        return _FirstIntegral(self.a, self.b, self.theta, self.h0**self.theta)

    def derivative(self) -> np.ndarray:
        """Exact h' = sign(x) sqrt(2 (G(h) - G(h0))) at the nodes."""
        u = self.h / self.h0 - 1.0
        return np.sign(self.x) * self.h0 * np.sqrt(2.0 * self._integral().gain(u))

    def interpolate(self, xq) -> float | np.ndarray:
        """h_A at xq, from the same inversion of D(h) = A - |xq| as the nodes."""
        xq_arr = np.asarray(xq, dtype=float)
        if not np.all(np.abs(xq_arr) < self.A):
            raise BarriersError("interpolation point outside (-A, A)")
        w = self._integral().invert(self.A - np.abs(xq_arr.ravel()))
        out = (self.h0 * (1.0 + np.exp(w))).reshape(xq_arr.shape)
        return float(out) if np.ndim(xq) == 0 else out

    def log_derivative_max(self) -> float:
        """Measured sup of (A - |x|) |h'| / h over the nodes."""
        return float(np.max((self.A - np.abs(self.x)) * np.abs(self.derivative()) / self.h))


def widest_A(a: float, b: float, theta: float) -> float:
    """The A from which on ``solve_hA`` refuses: D(h0) at theta log(h0 / equilibrium) = 1e-12.

    21.3 for a = b = theta = 1; a call takes about 0.1 ms.
    """
    a, b, theta = _mechanism_args(a, b, theta)
    return _FirstIntegral(a, b, theta, a / b * math.exp(_CENTRE_FLOOR)).centre_distance()


def solve_hA(a: float, b: float, theta: float, A: float) -> BlowupSolution:
    """Blow-up profile on (-A, A) from its first integral.

    The centre value h0 is the root of D(h0) = A, found by Brent's method in
    theta * log(h0 / equilibrium) (D decreases in h0); each node value is
    then the root of D(h) = A - |x|, by Newton in log(h - h0) with
    dD/dh = -1/sqrt(2 (G(h) - G(h0))), inside a bisection bracket.  Against
    a 50-digit mpmath evaluation of the same integral, h0 agrees to 5e-15
    relative or better and the node values to 2e-14 for (a, b, theta, A) =
    (1, 1, 1, 5), (1, 2, 0.5, 3), (2, 0.5, 0.3, 2), (1, 1, 0.1, 6) and
    (1, 1, 1, 0.3), and h0 to 1e-16 for a = b = theta = 1 and A = 10 to 20.
    A solve takes about 10 ms.  A strip so wide that h0 lies within
    1e-12 / theta relative of the equilibrium raises (A at or above
    ``widest_A``; about 21 for a = b = theta = 1), as does one so narrow
    that h0 overflows a double.
    """
    a, b, theta = _mechanism_args(a, b, theta)
    A = _as_float("A", A, BarriersError)
    if A <= 0.0:
        raise BarriersError("A must be positive")

    def excess(ell: float) -> float:
        return _FirstIntegral(a, b, theta, a / b * math.exp(ell)).centre_distance() - A

    widest = widest_A(a, b, theta)
    if A >= widest:
        raise BarriersError(
            f"A = {A:g} is too wide: h_A(0) is within {_CENTRE_FLOOR / theta:g} relative "
            f"of the equilibrium, where the first integral loses precision; narrow it below {widest:.6g}"
        )
    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 700.0 * theta:
            raise BarriersError(f"A = {A:g} is too narrow: h_A(0) exceeds e^700 times the equilibrium")
    what = f"solve_hA centre (a {a:g}, b {b:g}, theta {theta:g}, A {A:g})"
    ell = _brentq(excess, _CENTRE_FLOOR, hi, 1e-300, 4.0 * np.finfo(float).eps, BarriersError, what)
    h0 = equilibrium(a, b, theta) * math.exp(ell / theta)
    if not math.isfinite(h0):
        raise BarriersError(f"A = {A:g} is too narrow: h_A(0) overflows a double")
    x = -A * np.cos(np.pi * np.arange(1, _PROFILE_CELLS) / _PROFILE_CELLS)
    x = 0.5 * (x - x[::-1])  # exactly odd, with x = 0 at the centre
    w = _FirstIntegral(a, b, theta, h0**theta).invert(A - np.abs(x))
    return BlowupSolution(A=A, a=a, b=b, theta=theta, h0=h0, x=x, h=h0 * (1.0 + np.exp(w)))


def sandwich_bounds(sol: BlowupSolution) -> tuple[np.ndarray, np.ndarray]:
    """Analytic envelopes at the nodes ``sol.x``.

    Lower: max(equilibrium, c2 A^{2/theta} (A^2 - x^2)^{-2/theta}).
    Upper: equilibrium * (1 + c1 A^{2/theta} (A^2 - x^2) ^ {-2/theta}).
    """
    eq = equilibrium(sol.a, sol.b, sol.theta)
    shape = sol.A ** (2.0 / sol.theta) * (sol.A**2 - sol.x**2) ** (-2.0 / sol.theta)
    lower = np.maximum(eq, c2_constant(sol.b, sol.theta) * shape)
    upper = eq * (1.0 + c1_constant(sol.a, sol.theta) * shape)
    return lower, upper


@dataclass(frozen=True)
class StripConstants:
    """Everything the confinement bound needs for the mechanism (a, b, theta).

    The class attributes are those of the shape function f(y) = (1 - y^2)^2
    on [0, 1].  (f')^2 / f = 16 y^2, |f'| / (1 - y) = 4 y (1 + y) and
    |f''| = |12 y^2 - 4| have sup ``K`` = 16; the damping ``delta`` is
    1 / (2K), strictly below the required 1 / K; and f / (1 - y)^2 = (1 + y)^2
    is least at y = 0, where it is 1, so ``c4`` = delta.
    """

    K: ClassVar[float] = 16.0
    delta: ClassVar[float] = 1.0 / 32.0
    c4: ClassVar[float] = 1.0 / 32.0

    a: float
    b: float
    theta: float
    c1: float
    c2: float
    c3: float
    c5: float


def strip_constants(a: float, b: float, theta: float) -> StripConstants:
    """Constants of the confinement bound for the mechanism (a, b, theta).

    c5 is the least value that passes the comparison argument's two
    sufficient inequalities at every t > 0.  The first,
    a + (c5/4 - c3 - 1/2) / t >= a + 2 a c1**theta / (c5 t), does not depend
    on t because 2 a c1**theta = c3; it holds from the positive root of
    c5**2 - (4 c3 + 2) c5 - 4 c3 = 0 on, so

        c5 = (2 c3 + 1) + sqrt((2 c3 + 1)**2 + 4 c3),

    up to rounding, and c5 depends on theta alone.  The second,
    a - (c3 + 1/2) / t >= -coef / t with
    coef = b c2**theta delta (e**(theta c5 / 2) - 1) / (2 c5) * inf f/(1-y)**2,
    holds at every t > 0 once coef >= c3 + 1/2; coef grows with c5, and at
    the root it exceeds c3 + 1/2 by a factor above 3.9e16 for theta in
    [0.05, 1].  It is checked here, and a failure raises BarriersError.  So
    does a theta small enough that c1 or c2 overflows a double (for a = 1,
    theta = 0.01).
    """
    a, b, theta = _mechanism_args(a, b, theta)
    c1, c2, c3 = c1_constant(a, theta), c2_constant(b, theta), c3_constant(a, theta)
    c5 = (2.0 * c3 + 1.0) + math.sqrt((2.0 * c3 + 1.0) ** 2 + 4.0 * c3)
    # e^{theta c5 / 2} is capped at e^700, which only lowers coef
    lift = math.expm1(min(0.5 * theta * c5, 700.0))
    coef = b * c2**theta * StripConstants.delta * lift / (2.0 * c5)
    if not coef >= c3 + 0.5:
        raise BarriersError(
            f"c5 = {c5:g} fails the second confinement inequality at theta = {theta:g}"
        )
    return StripConstants(a=a, b=b, theta=theta, c1=c1, c2=c2, c3=c3, c5=c5)
