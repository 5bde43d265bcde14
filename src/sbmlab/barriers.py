"""Blow-up boundary layers, strip-confinement bounds, and tail integrability.

The central object is the even solution h_A of the stationary problem

    (1/2) h'' = psi_tilde(h),    psi_tilde(z) = -a z + b z**(1 + theta),

on (-A, A) with h(+-A) = +infinity.  It is realized as the increasing limit
of finite-boundary solves h(+-A) = m along a ladder of m values; each rung
is a damped Newton iteration on a Chebyshev-clustered grid.  Clustering
matters because the limit behaves like (A - |x|)**(-2/theta) at the edges.
The grid is deliberately modest (tens of cells per side): with the ladder
topping out at m = 1e4 the finite-m solution visibly undershoots the
blow-up envelope only where that envelope exceeds m, and the resolution is
chosen so this deficit zone stays inside the two cells nearest each wall.

From h_A the module evaluates a closed-form upper bound for the negative
log probability that a cloud started at x stays inside [-A, A] up to time
t:

    h_A(x) * exp(-(c4 * (A - |x|)**2 / t - a * t - c5)).

The constants come from an explicit comparison argument.  An auxiliary
shape function f on [-1, 1], here f(y) = (1 - y**2)**2, supplies a measured
curvature bound K; a damping delta < 1/K then gives
c4 = delta * inf f(y) / (1 - y)**2, and c5 is the smallest value passing
the two sufficient inequalities (checked on a time grid, found by
bisection).  That c5 is sufficient, not sharp, so the bound is conservative
by orders of magnitude; the Monte Carlo cross-check is one-sided for
exactly this reason.

The integrability check consumes a barrier field V and verifies the
Gaussian-type spatial decay that makes int_0^inf V(t, x) x e^{theta x} dx
finite: a straight-line fit of log V against x^2 on the far right tail must
return a negative slope, and the weighted integral is reported as a grid
part plus a closed-form Gaussian tail extrapolation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import erfc

from .kpp import Field

__all__ = [
    "BarriersError",
    "NewtonDivergenceError",
    "NonMonotoneLadderError",
    "TailFitError",
    "BlowupSolution",
    "ShapeWitness",
    "StripConstants",
    "IntegrabilityReport",
    "DEFAULT_M_LADDER",
    "equilibrium",
    "c2_constant",
    "c4_convexity",
    "c1_constant",
    "c3_constant",
    "shape_witness",
    "strip_constants",
    "solve_hA",
    "sandwich_bounds",
    "strip_bound",
    "v_integrability_check",
]

DEFAULT_M_LADDER: tuple[float, ...] = (1e2, 1e3, 1e4)

#: Candidate cell counts for the adaptive grid, finest first.  The counts
#: are small on purpose: the two-cell sandwich slack at the walls requires
#: the finite-m deficit zone (where the blow-up envelope exceeds the ladder
#: top) to span at most two cells, and a ladder topping at 1e4 cannot
#: support arbitrarily fine clustering there.
_N_CELLS_CANDIDATES = (64, 48, 40, 32, 24, 16)

_NEWTON_MAX_ITER = 80
_NEWTON_STEP_TOL = 1e-12
_NEWTON_RESIDUAL_TOL = 1e-10
_CONTINUATION_DEPTH = 10

# log grid on [1e-6, 1e8] for the infimum of c4_convexity
_C4_GRID = 4001
# grid on [0, 1] on which shape_witness checks f(y) = (1 - y^2)^2
_WITNESS_GRID = 20001


class BarriersError(ValueError):
    """Invalid input or violated precondition in the barrier machinery."""


class NewtonDivergenceError(BarriersError):
    """The damped Newton iteration failed to converge for some ladder rung."""


class NonMonotoneLadderError(BarriersError):
    """Successive ladder rungs decreased somewhere; the exact family is
    increasing in the boundary value, so this signals a solver bug."""


class TailFitError(BarriersError):
    """The far-tail window of the field was too thin or did not decay."""


def equilibrium(a: float, b: float, theta: float) -> float:
    """Positive zero of psi_tilde: (a / b) ** (1 / theta)."""
    return (a / b) ** (1.0 / theta)


def c2_constant(b: float, theta: float) -> float:
    """Lower-envelope amplitude (2 / (b * theta)) ** (1 / theta)."""
    return (2.0 / (b * theta)) ** (1.0 / theta)


def c4_convexity(theta: float) -> float:
    """inf over lam >= 0 of ((1+lam)**(1+theta) - (1+lam)) / lam**(1+theta).

    The quotient tends to +inf at 0 and to 1 at infinity, so the limit 1
    bounds the infimum from above and always enters the minimum; for
    theta = 1 the quotient is 1 + 1/lam and the infimum is exactly 1.  For
    theta < 1 the infimum sits at a finite lam and dips below 1, so it is
    taken numerically on a wide log grid.  For theta above about 0.96 the
    minimiser lies beyond the grid's top at lam = 1e8, and from about 0.963
    on the result is 1.0; it then overestimates the true infimum by at most
    about 3e-10 (2.7e-10 near theta = 0.9634, by a 250-digit mpmath check).
    """
    lam = np.geomspace(1e-6, 1e8, _C4_GRID)
    ratio = (np.power(1.0 + lam, 1.0 + theta) - (1.0 + lam)) / np.power(
        lam, 1.0 + theta
    )
    return float(min(np.min(ratio), 1.0))


def c1_constant(a: float, theta: float, c4: float | None = None) -> float:
    """Upper-envelope amplitude (4 / (c4 a theta) * (2/theta + 1)) ** (1/theta)."""
    if c4 is None:
        c4 = c4_convexity(theta)
    return (4.0 / (c4 * a * theta) * (2.0 / theta + 1.0)) ** (1.0 / theta)


def c3_constant(a: float, theta: float, c4: float | None = None) -> float:
    """Log-derivative bound 2 a c1**theta in |h'| / h <= c3 / (A - |x|)."""
    if c4 is None:
        c4 = c4_convexity(theta)
    return 2.0 * a * c1_constant(a, theta, c4) ** theta


def _psi_tilde(z: np.ndarray, a: float, b: float, theta: float) -> np.ndarray:
    return -a * z + b * np.power(z, 1.0 + theta)


def _psi_tilde_prime(z: np.ndarray, a: float, b: float, theta: float) -> np.ndarray:
    return -a + b * (1.0 + theta) * np.power(z, theta)


@dataclass(frozen=True, eq=False)
class BlowupSolution:
    """Ladder of finite-boundary solves approximating the blow-up profile.

    ``h_tables`` holds one row per ladder rung, boundary cells included, on
    the shared Chebyshev grid ``x``; ``h`` is the top rung.  ``error`` is
    the sup of the last rung-to-rung increment over the central region
    |x| <= 0.9 A, where the ladder has converged; near the walls the
    increment is dominated by the boundary values themselves and says
    nothing about interior accuracy.
    """

    A: float
    a: float
    b: float
    theta: float
    x: np.ndarray
    h_tables: np.ndarray
    m_ladder: tuple[float, ...]
    newton_iterations: tuple[int, ...]

    @property
    def h(self) -> np.ndarray:
        return self.h_tables[-1]

    @property
    def error(self) -> float:
        core = np.abs(self.x) <= 0.9 * self.A
        inc = self.h_tables[-1][core] - self.h_tables[-2][core]
        return float(np.max(np.abs(inc)))

    def derivative(self) -> np.ndarray:
        return np.gradient(self.h, self.x)

    def interpolate(self, xq) -> float | np.ndarray:
        """Value at xq, linear in log h so the edge growth interpolates sanely."""
        xq_arr = np.asarray(xq, dtype=float)
        if np.any(np.abs(xq_arr) >= self.A):
            raise BarriersError("interpolation point outside (-A, A)")
        out = np.exp(np.interp(xq_arr, self.x, np.log(self.h)))
        if np.ndim(xq) == 0:
            return float(out)
        return out

    def log_derivative_max(self) -> float:
        """Measured sup of (A - |x|) |h'| / h away from the two wall cells."""
        inner = slice(3, len(self.x) - 3)
        ratio = (self.A - np.abs(self.x[inner])) * np.abs(
            self.derivative()[inner]
        ) / self.h[inner]
        return float(np.max(ratio))


def _chebyshev_grid(A: float, n_cells: int) -> np.ndarray:
    k = np.arange(n_cells + 1)
    x = -A * np.cos(np.pi * k / n_cells)
    return 0.5 * (x - x[::-1])


def _second_difference_weights(x: np.ndarray):
    dl = x[1:-1] - x[:-2]
    dr = x[2:] - x[1:-1]
    wl = 2.0 / (dl * (dl + dr))
    wr = 2.0 / (dr * (dl + dr))
    wc = -2.0 / (dl * dr)
    return wl, wc, wr


def _newton_rung(
    h: np.ndarray,
    m: float,
    a: float,
    b: float,
    theta: float,
    weights,
) -> tuple[np.ndarray, int]:
    """Solve one finite-boundary rung, warm-started from ``h``."""
    wl, wc, wr = weights
    h = h.copy()
    h[0] = h[-1] = m

    def residual(v: np.ndarray) -> np.ndarray:
        lap = wl * v[:-2] + wc * v[1:-1] + wr * v[2:]
        return lap - 2.0 * _psi_tilde(v[1:-1], a, b, theta)

    f = residual(h)
    scale = 1.0 + np.abs(wc) * h[1:-1] + 2.0 * np.abs(_psi_tilde(h[1:-1], a, b, theta))
    for iteration in range(_NEWTON_MAX_ITER):
        if np.max(np.abs(f) / scale) < _NEWTON_RESIDUAL_TOL:
            return h, iteration
        diag = wc - 2.0 * _psi_tilde_prime(h[1:-1], a, b, theta)
        n = diag.size
        band = np.zeros((3, n))
        band[0, 1:] = wr[:-1]
        band[1, :] = diag
        band[2, :-1] = wl[1:]
        step = solve_banded((1, 1), band, -f)

        norm_f = float(np.linalg.norm(f / scale))
        lam = 1.0
        while lam >= 1e-9:
            trial = h.copy()
            trial[1:-1] += lam * step
            if np.min(trial) > 0.0:
                f_trial = residual(trial)
                if float(np.linalg.norm(f_trial / scale)) <= (1.0 - 0.25 * lam) * norm_f:
                    break
            lam *= 0.5
        else:
            raise NewtonDivergenceError(
                f"line search stalled at m={m:g} (iteration {iteration})"
            )
        h = trial
        f = f_trial
        scale = 1.0 + np.abs(wc) * h[1:-1] + 2.0 * np.abs(
            _psi_tilde(h[1:-1], a, b, theta)
        )
        if np.max(np.abs(lam * step) / (1.0 + np.abs(h[1:-1]))) < _NEWTON_STEP_TOL:
            return h, iteration + 1
    raise NewtonDivergenceError(f"no convergence after {_NEWTON_MAX_ITER} iterations")


def _rung_with_continuation(
    h: np.ndarray,
    m_from: float,
    m_to: float,
    a: float,
    b: float,
    theta: float,
    weights,
    depth: int = 0,
) -> tuple[np.ndarray, int]:
    try:
        return _newton_rung(h, m_to, a, b, theta, weights)
    except NewtonDivergenceError:
        if depth >= _CONTINUATION_DEPTH:
            raise
        m_mid = math.sqrt(m_from * m_to)
        h_mid, it1 = _rung_with_continuation(
            h, m_from, m_mid, a, b, theta, weights, depth + 1
        )
        h_out, it2 = _rung_with_continuation(
            h_mid, m_mid, m_to, a, b, theta, weights, depth + 1
        )
        return h_out, it1 + it2


def solve_hA(
    a: float,
    b: float,
    theta: float,
    A: float,
    m_ladder: tuple[float, ...] = DEFAULT_M_LADDER,
    n_cells: int | None = None,
) -> BlowupSolution:
    """Blow-up profile on (-A, A) as the monotone limit of finite rungs.

    Each rung solves (1/2) h'' = psi_tilde(h) with h(+-A) = m by damped
    Newton on a Chebyshev grid; rungs are warm-started from one another,
    with geometric continuation inserted whenever a rung refuses to
    converge directly.  A decreasing pair of rungs raises, because the
    exact family is increasing in m by the maximum principle.

    By default the resolution adapts to the ladder: candidates are tried
    finest first, and the first grid on which the analytic sandwich holds
    at every interior point except at most the two cells nearest each wall
    is kept.  A finite top rung undershoots the blow-up envelope wherever
    the envelope exceeds it, so clustering past that zone would only
    manufacture cells the ladder cannot fill.  Pass ``n_cells`` to pin the
    resolution instead.
    """
    if min(a, b, theta, A) <= 0.0:
        raise BarriersError("a, b, theta, A must all be positive")
    if theta > 1.0:
        raise BarriersError("theta must lie in (0, 1]")
    ladder = tuple(float(m) for m in m_ladder)
    if len(ladder) < 2 or any(n <= p for p, n in zip(ladder, ladder[1:])):
        raise BarriersError("m_ladder must be at least two increasing values")
    eq = equilibrium(a, b, theta)
    if ladder[0] <= eq:
        raise BarriersError(
            f"m_ladder must start above the equilibrium {eq:g}"
        )
    if n_cells is None:
        last_err: BarriersError | None = None
        for candidate in _N_CELLS_CANDIDATES:
            try:
                sol = _solve_fixed_grid(a, b, theta, A, ladder, candidate)
            except NewtonDivergenceError as err:
                last_err = err
                continue
            if _sandwich_violation_cells(sol) <= 2:
                return sol
        if last_err is not None:
            raise last_err
        raise NonMonotoneLadderError(
            "no candidate grid confined the finite-ladder deficit to the "
            "two wall cells; raise the ladder top"
        )
    if n_cells < 16 or n_cells % 2:
        raise BarriersError("n_cells must be an even number, at least 16")
    return _solve_fixed_grid(a, b, theta, A, ladder, n_cells)


def _sandwich_violation_cells(sol: BlowupSolution) -> int:
    """Number of interior cells outside the sandwich, counted per wall.

    Violations anywhere except the two cells nearest either wall disqualify
    the grid outright (returned count is the full interior size).
    """
    lower, upper = sandwich_bounds(sol)
    h_i = sol.h[1:-1]
    rel = np.maximum(lower - h_i, h_i - upper) / np.maximum(h_i, 1.0)
    bad = np.nonzero(rel > 1e-6)[0]
    if bad.size == 0:
        return 0
    n = h_i.size
    wall = {0, 1, n - 2, n - 1}
    if not set(bad.tolist()) <= wall:
        return n
    left = int(np.count_nonzero(bad <= 1))
    return max(left, int(bad.size) - left)


def _solve_fixed_grid(
    a: float,
    b: float,
    theta: float,
    A: float,
    ladder: tuple[float, ...],
    n_cells: int,
) -> BlowupSolution:
    eq = equilibrium(a, b, theta)
    x = _chebyshev_grid(A, n_cells)
    weights = _second_difference_weights(x)

    c4 = c4_convexity(theta)
    c1 = c1_constant(a, theta, c4)
    envelope = eq * (
        1.0 + c1 * A ** (2.0 / theta) * (A * A - x[1:-1] ** 2) ** (-2.0 / theta)
    )

    tables = []
    iterations = []
    h = np.empty_like(x)
    h[0] = h[-1] = ladder[0]
    h[1:-1] = np.minimum(envelope, ladder[0])
    m_prev = ladder[0]
    for m in ladder:
        h, its = _rung_with_continuation(h, m_prev, m, a, b, theta, weights)
        tables.append(h.copy())
        iterations.append(its)
        m_prev = m

    stack = np.stack(tables)
    for lo, hi in zip(stack, stack[1:]):
        worst = float(np.max(lo - hi))
        if worst > 1e-7 * (1.0 + float(np.max(hi))):
            raise NonMonotoneLadderError(
                f"ladder decreased by {worst:.3e}; solver bug"
            )

    return BlowupSolution(
        A=float(A),
        a=float(a),
        b=float(b),
        theta=float(theta),
        x=x,
        h_tables=stack,
        m_ladder=ladder,
        newton_iterations=tuple(iterations),
    )


def sandwich_bounds(sol: BlowupSolution) -> tuple[np.ndarray, np.ndarray]:
    """Analytic envelopes at the interior grid points of ``sol``.

    Lower: max(equilibrium, c2 A^{2/theta} (A^2 - x^2)^{-2/theta}).
    Upper: equilibrium * (1 + c1 A^{2/theta} (A^2 - x^2) ^ {-2/theta}).
    """
    xi = sol.x[1:-1]
    eq = equilibrium(sol.a, sol.b, sol.theta)
    shape = sol.A ** (2.0 / sol.theta) * (sol.A**2 - xi**2) ** (-2.0 / sol.theta)
    c4 = c4_convexity(sol.theta)
    lower = np.maximum(eq, c2_constant(sol.b, sol.theta) * shape)
    upper = eq * (1.0 + c1_constant(sol.a, sol.theta, c4) * shape)
    return lower, upper


@dataclass(frozen=True)
class ShapeWitness:
    """Measured properties of the shape function f(y) = (1 - y^2)^2.

    ``K`` bounds (f')^2 / f, |f'| / (1 - y), and f'' on [0, 1]; ``delta``
    is the damping 1 / (2K), strictly below the required 1 / K; ``c4`` is
    delta times the infimum of f(y) / (1 - y)^2.
    """

    K: float
    delta: float
    inf_ratio: float
    c4: float
    endpoint_checks: dict = field(repr=False, default_factory=dict)


@functools.lru_cache(maxsize=1)
def shape_witness() -> ShapeWitness:
    """Verify the required properties of f(y) = (1 - y^2)^2 numerically."""
    y = np.linspace(0.0, 1.0, _WITNESS_GRID)
    f = (1.0 - y * y) ** 2
    fp = -4.0 * y * (1.0 - y * y)
    fpp = -4.0 + 12.0 * y * y

    interior = slice(0, _WITNESS_GRID - 1)
    quot_sq = np.zeros_like(y)
    quot_sq[interior] = fp[interior] ** 2 / f[interior]
    quot_sq[-1] = 16.0
    quot_lin = np.empty_like(y)
    quot_lin[interior] = np.abs(fp[interior]) / (1.0 - y[interior])
    quot_lin[-1] = 8.0

    K = float(max(np.max(quot_sq), np.max(quot_lin), np.max(np.abs(fpp))))
    delta = 1.0 / (2.0 * K)
    ratio = np.empty_like(y)
    ratio[interior] = f[interior] / (1.0 - y[interior]) ** 2
    ratio[-1] = 4.0
    inf_ratio = float(np.min(ratio))

    checks = {
        "f(0)": float(f[0]),
        "f'(0)": float(fp[0]),
        "f(1)": float(f[-1]),
        "f'(1)": float(fp[-1]),
        "f''(1)": float(fpp[-1]),
        "min f on (0,1)": float(np.min(f[1:-1])),
    }
    if not (
        abs(checks["f(0)"] - 1.0) < 1e-12
        and abs(checks["f'(0)"]) < 1e-12
        and abs(checks["f(1)"]) < 1e-12
        and abs(checks["f'(1)"]) < 1e-12
        and checks["f''(1)"] > 0.0
        and checks["min f on (0,1)"] > 0.0
    ):
        raise BarriersError("shape witness failed its endpoint checks")
    return ShapeWitness(
        K=K, delta=delta, inf_ratio=inf_ratio, c4=delta * inf_ratio,
        endpoint_checks=checks,
    )


@dataclass(frozen=True)
class StripConstants:
    """Everything the confinement bound needs, with c5 from bisection."""

    a: float
    b: float
    theta: float
    c1: float
    c2: float
    c3: float
    witness: ShapeWitness
    c5: float

    @property
    def c4(self) -> float:
        return self.witness.c4


def _c5_conditions_hold(
    c5: float,
    a: float,
    b: float,
    theta: float,
    c1: float,
    c2: float,
    c3: float,
    witness: ShapeWitness,
    t_grid: np.ndarray,
) -> bool:
    # First regime: the quadratic-in-f part of the comparison supersolution
    # dominates; needs a + c5/(4t) - c3/t - 1/(2t) >= a + 2 a c1^theta / (c5 t).
    lhs1 = a + (0.25 * c5 - c3 - 0.5) / t_grid
    rhs1 = a + 2.0 * a * c1**theta / (c5 * t_grid)
    if np.any(lhs1 < rhs1):
        return False
    # Second regime: the exponential lift of the boundary layer dominates;
    # needs a - c3/t - 1/(2t) >= -coef / t with
    # coef = b c2^theta delta (e^{theta c5 / 2} - 1) / (2 c5) * inf f/(1-y)^2.
    arg = min(0.5 * theta * c5, 700.0)
    coef = (
        b * c2**theta * witness.delta * math.expm1(arg) / (2.0 * c5)
    ) * witness.inf_ratio
    lhs2 = a + (coef - c3 - 0.5) / t_grid
    return not np.any(lhs2 < 0.0)


@functools.lru_cache(maxsize=32)
def strip_constants(a: float, b: float, theta: float) -> StripConstants:
    """Constants of the confinement bound for the mechanism (a, b, theta).

    c5 is the smallest value satisfying both sufficient inequalities on a
    log time grid spanning [1e-3, 1e3], located by doubling then bisection.
    Both conditions are monotone in c5, so the bisection is exact up to the
    stopping width.
    """
    if min(a, b, theta) <= 0.0 or theta > 1.0:
        raise BarriersError("need a, b > 0 and theta in (0, 1]")
    c4 = c4_convexity(theta)
    c1 = c1_constant(a, theta, c4)
    c2 = c2_constant(b, theta)
    c3 = c3_constant(a, theta, c4)
    witness = shape_witness()
    t_grid = np.geomspace(1e-3, 1e3, 121)

    def ok(c5: float) -> bool:
        return _c5_conditions_hold(c5, a, b, theta, c1, c2, c3, witness, t_grid)

    hi = 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 1e9:
            raise BarriersError("no admissible c5 below 1e9; parameters degenerate")
    lo = hi / 2.0 if hi > 1.0 else 1e-6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9 * hi:
            break
    return StripConstants(
        a=float(a), b=float(b), theta=float(theta),
        c1=c1, c2=c2, c3=c3, witness=witness, c5=float(hi),
    )


@functools.lru_cache(maxsize=8)
def _solved(a: float, b: float, theta: float, A: float) -> BlowupSolution:
    return solve_hA(a, b, theta, A)


def strip_bound(
    a: float,
    b: float,
    theta: float,
    A: float,
    x: float,
    t: float,
    solution: BlowupSolution | None = None,
    constants: StripConstants | None = None,
) -> float:
    """Upper bound for -log P(no mass leaves [-A, A] before t), start at x.

    Evaluates h_A(x) * exp(-(c4 (A - |x|)^2 / t - a t - c5)) with the
    documented defaults: c4 from the shape witness, c5 from bisection.
    Conservative by construction; useful as a one-sided comparison.
    """
    if not abs(x) < A:
        raise BarriersError("need |x| < A")
    if t <= 0.0:
        raise BarriersError("need t > 0")
    if constants is None:
        constants = strip_constants(a, b, theta)
    if solution is None:
        solution = _solved(a, b, theta, A)
    h_x = solution.interpolate(x)
    exponent = constants.c4 * (A - abs(x)) ** 2 / t - a * t - constants.c5
    with np.errstate(over="ignore"):
        return float(h_x * np.exp(-exponent))


@dataclass(frozen=True)
class IntegrabilityReport:
    """Tail fit and weighted integral of a barrier field at its last time.

    The fit is log V = intercept + slope * x^2 over ``fit_window``; the
    reported integral of V(t, x) x e^{theta x} over x >= 0 is the grid
    trapezoid plus the closed-form Gaussian continuation beyond the domain
    edge implied by the fit.
    """

    theta: float
    time: float
    slope: float
    intercept: float
    fit_window: tuple[float, float]
    n_fit_points: int
    grid_part: float
    tail_part: float

    @property
    def integral(self) -> float:
        return self.grid_part + self.tail_part


def _gaussian_tail(
    x0: float, slope: float, intercept: float, theta: float
) -> float:
    """Closed form of int_{x0}^inf x exp(intercept + slope x^2 + theta x) dx."""
    s = -slope
    mu = theta / (2.0 * s)
    amp = math.exp(intercept + theta * theta / (4.0 * s))
    u0 = x0 - mu
    first = math.exp(-s * u0 * u0) / (2.0 * s)
    second = mu * 0.5 * math.sqrt(math.pi / s) * float(erfc(math.sqrt(s) * u0))
    return amp * (first + second)


def v_integrability_check(field_V: Field, theta: float) -> IntegrabilityReport:
    """Verify Gaussian-type right-tail decay of V and report the weighted
    integral int_0^inf V(t, x) x e^{theta x} dx at the field's last time.

    The fit window is where V has fallen to between 1e-14 and 1e-3 of its
    right-half peak (and stays above hard floor 1e-250); fewer than six
    usable points or a non-negative fitted slope raises.  theta = 0 is
    accepted even though the interesting weights are positive; the integral
    only gets smaller.
    """
    if theta < 0.0:
        raise BarriersError("theta must be nonnegative")
    t = float(field_V.times[-1])
    xs = field_V.grid.x
    v = field_V.at(t)
    right = xs >= 0.0
    x_r = xs[right]
    v_r = np.maximum(v[right], 0.0)
    peak = float(np.max(v_r))
    if peak <= 0.0:
        raise TailFitError("field vanishes on the right half; nothing to fit")

    window = (v_r <= 1e-3 * peak) & (v_r >= max(1e-14 * peak, 1e-250))
    if int(np.count_nonzero(window)) < 6:
        raise TailFitError(
            "tail fit window has fewer than 6 points; widen the domain"
        )
    xw = x_r[window]
    logv = np.log(v_r[window])
    slope, intercept = np.polyfit(xw * xw, logv, 1)
    if slope >= 0.0:
        raise TailFitError(f"fitted quadratic coefficient {slope:.3e} is not negative")

    with np.errstate(over="ignore", invalid="ignore"):
        weighted = v_r * x_r * np.exp(theta * x_r)
    weighted = np.where(np.isfinite(weighted), weighted, 0.0)
    grid_part = float(np.trapezoid(weighted, x_r))
    tail_part = _gaussian_tail(float(x_r[-1]), float(slope), float(intercept), theta)

    return IntegrabilityReport(
        theta=float(theta),
        time=t,
        slope=float(slope),
        intercept=float(intercept),
        fit_window=(float(xw[0]), float(xw[-1])),
        n_fit_points=int(xw.size),
        grid_part=grid_part,
        tail_part=tail_part,
    )
