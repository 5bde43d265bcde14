"""Blow-up BVP solver and confinement-bound constants."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from sbmlab import barriers as bar

QUADRATIC_CASE = (1.0, 1.0, 1.0, 5.0)
HEAVY_CASE = (1.0, 2.0, 0.5, 3.0)
ORACLE_CASES = {
    "quadratic": QUADRATIC_CASE,
    "heavy": HEAVY_CASE,
    "theta-0.3": (2.0, 0.5, 0.3, 2.0),
    "theta-0.1": (1.0, 1.0, 0.1, 6.0),
}


@pytest.fixture(scope="module")
def sol_quadratic():
    return bar.solve_hA(*QUADRATIC_CASE)


@pytest.fixture(scope="module")
def sol_heavy():
    return bar.solve_hA(*HEAVY_CASE)


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def oracle_case(request):
    case = ORACLE_CASES[request.param]
    return case, bar.solve_hA(*case)


def quadrature_center_value(a, b, th, A):
    """Blow-up center value via the first integral of the autonomous ODE.

    With G(h) = -a h^2 + 2b/(2+th) h^{2+th} the even solution satisfies
    (1/2)(h')^2 = G(h) - G(h0), so the half width is the h-integral of
    1/sqrt(2(G - G0)) from h0 to infinity; h0 is the root matching A.  The
    integral goes through adaptive quad in two pieces: h = h0 (1 + u^2) up
    to 2 h0, then s = h^(-th/2), in which the tail is bounded on
    [0, (2 h0)^(-th/2)].
    """

    def halfwidth(h0):
        c = 2.0 * b / (2.0 + th)
        G0 = -a * h0 * h0 + c * h0 ** (2.0 + th)

        def delta_G(d):
            # G(h0 + d) - G(h0) computed from the increment d itself, so
            # that increments far below ulp(h0) still register.
            power_diff = h0 ** (2.0 + th) * math.expm1(
                (2.0 + th) * math.log1p(d / h0)
            )
            return -a * d * (2.0 * h0 + d) + c * power_diff

        def near(u):
            if u == 0.0:
                return 2.0 * h0 / math.sqrt(2.0 * h0 * (2.0 * b * h0 ** (1.0 + th) - 2.0 * a * h0))
            return 2.0 * u * h0 / math.sqrt(2.0 * delta_G(h0 * u * u))

        def far(s):
            return (2.0 / th) / math.sqrt(
                2.0 * (c - a * s * s - G0 * s ** ((4.0 + 2.0 * th) / th))
            )

        opts = dict(epsabs=0.0, epsrel=1e-11, limit=200)
        v1, _ = quad(near, 0.0, 1.0, **opts)
        v2, _ = quad(far, 0.0, (2.0 * h0) ** (-th / 2.0), **opts)
        return v1 + v2

    eq = (a / b) ** (1.0 / th)
    # halfwidth decreases in h0: widen the bracket on each side until the
    # sign changes
    gap, hi = 0.1, 2.0 * eq
    while halfwidth(eq * (1.0 + gap)) < A:
        gap *= 0.1
    while halfwidth(hi) > A:
        hi *= 4.0
    lo = eq * (1.0 + gap)
    return brentq(lambda h: halfwidth(h) - A, lo, hi, xtol=1e-14 * eq, rtol=1e-14)


class TestConstants:
    def test_equilibrium(self):
        assert bar.equilibrium(1.0, 1.0, 1.0) == pytest.approx(1.0)
        assert bar.equilibrium(1.0, 2.0, 0.5) == pytest.approx(0.25)

    def test_c2_closed_forms(self):
        assert bar.c2_constant(1.0, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert bar.c2_constant(2.0, 0.5) == pytest.approx(4.0, abs=1e-12)

    def test_c4_quadratic_is_one(self):
        assert bar.c4_convexity(1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.97, 0.99, 0.999, 1.0])
    def test_c4_never_exceeds_limit_at_infinity(self, theta):
        # the quotient tends to 1 at infinity, so its infimum is at most 1
        assert bar.c4_convexity(theta) <= 1.0

    def test_c4_theta_half_matches_direct_minimization(self):
        th = 0.5

        def quotient(lam):
            return ((1.0 + lam) ** (1.0 + th) - (1.0 + lam)) / lam ** (1.0 + th)

        res = minimize_scalar(quotient, bounds=(0.5, 20.0), method="bounded")
        assert bar.c4_convexity(th) == pytest.approx(res.fun, abs=1e-6)

    def test_c4_closed_forms(self):
        # s* = 1/(1 + lam*) solves (1+theta)(1 - s^theta) = theta s^(theta-1) (1 - s);
        # theta = 1/2: s* = 1/4; theta = 1/3: s*^(1/3) = r, 3 r^2 - r - 1 = 0
        eps4 = 4.0 * np.finfo(float).eps
        assert bar.c4_convexity(0.5) == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=eps4, abs=0.0)
        r = (1.0 + math.sqrt(13.0)) / 6.0
        exact = (1.0 - r) / (1.0 - r**3) ** (4.0 / 3.0)
        assert exact == pytest.approx(0.51858735310, abs=1e-11)
        assert bar.c4_convexity(1.0 / 3.0) == pytest.approx(exact, rel=eps4, abs=0.0)

    # the last three send Brent's interpolation products past the largest
    # double near t = -700, which must not leak an overflow warning
    @pytest.mark.parametrize(
        "theta",
        [1e-4, 0.01, 0.1, 0.7, 0.9, 0.963, 0.97]
        + [0.00042358840987061284, 0.0023948424670984167, 0.04964316871858405],
    )
    def test_c4_matches_mpmath_minimum(self, theta):
        # 60 digits: bisect the stationarity condition in t = log s, then the quotient there
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            th = mp.mpf(theta)

            def g(t):
                return (1 + th) * -mp.expm1(th * t) - th * mp.exp((th - 1) * t) * -mp.expm1(t)

            lo, hi = mp.mpf(-700), -mp.mpf(2) ** -30
            assert g(lo) < 0 < g(hi)
            for _ in range(300):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
            exact = float(-mp.expm1(th * lo) / (-mp.expm1(lo)) ** (1 + th))
        assert bar.c4_convexity(theta) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_c1_and_c3_quadratic(self):
        assert bar.c1_constant(1.0, 1.0) == pytest.approx(12.0, abs=1e-12)
        assert bar.c3_constant(1.0, 1.0) == pytest.approx(24.0, abs=1e-12)


class TestShapeWitness:
    def test_measured_bounds(self):
        # the closed forms against the four quotients of f(y) = (1 - y^2)^2 on
        # a 20,001-point grid of [0, 1], with their limits at y = 1
        y = np.linspace(0.0, 1.0, 20001)
        inner = y[:-1]
        f = (1.0 - inner**2) ** 2
        fp = -4.0 * inner * (1.0 - inner**2)
        quot_sq = np.append(fp**2 / f, 16.0)
        quot_lin = np.append(np.abs(fp) / (1.0 - inner), 8.0)
        K = max(np.max(quot_sq), np.max(quot_lin), np.max(np.abs(12.0 * y**2 - 4.0)))
        inf_ratio = np.min(np.append(f / (1.0 - inner) ** 2, 4.0))
        sc = bar.StripConstants
        assert (sc.K, sc.delta, sc.c4) == (K, 1.0 / (2.0 * K), 1.0 / (2.0 * K) * inf_ratio)
        assert (sc.K, sc.delta, sc.c4) == (16.0, 0.03125, 0.03125)


class TestSolveInputs:
    def test_rejects_bad_parameters(self):
        with pytest.raises(bar.BarriersError):
            bar.solve_hA(1.0, 1.0, 1.5, 5.0)
        with pytest.raises(bar.BarriersError):
            bar.solve_hA(1.0, 1.0, 1.0, -2.0)

    def test_too_wide_or_too_narrow_strip_raises(self):
        # for a = b = theta = 1, h_A(0) is within 1e-12 of the equilibrium
        # from A of about 21 on
        bar.solve_hA(1.0, 1.0, 1.0, 20.0)
        with pytest.raises(bar.BarriersError, match="too wide"):
            bar.solve_hA(1.0, 1.0, 1.0, 22.0)
        # theta = 0.1: h_A(0) grows like A^(-20)
        with pytest.raises(bar.BarriersError, match="too narrow"):
            bar.solve_hA(1.0, 1.0, 0.1, 1e-20)

    def test_widest_A_is_where_solve_hA_starts_refusing(self):
        widest = bar.widest_A(1.0, 1.0, 1.0)
        assert 21.0 < widest < 22.0
        with pytest.raises(bar.BarriersError, match="too wide"):
            bar.solve_hA(1.0, 1.0, 1.0, widest)
        sol = bar.solve_hA(1.0, 1.0, 1.0, widest * (1.0 - 1e-12))
        assert abs(sol.h0 - 1.0) < 1e-11

    def test_interior_chebyshev_nodes(self, sol_quadratic):
        A = QUADRATIC_CASE[3]
        k = np.arange(1, 64)
        assert np.allclose(sol_quadratic.x, -A * np.cos(np.pi * k / 64), rtol=0, atol=1e-15)
        assert np.all(np.abs(sol_quadratic.x) < A)
        assert sol_quadratic.x[31] == 0.0
        assert sol_quadratic.h[31] == sol_quadratic.h0


class TestBlowupProfile:
    def test_even_profile(self, sol_quadratic, sol_heavy):
        for sol in (sol_quadratic, sol_heavy):
            gap = np.max(np.abs(sol.h - sol.h[::-1]))
            assert gap <= 1e-9 * np.max(sol.h)

    def test_derivative_vanishes_at_center(self, sol_quadratic, sol_heavy):
        for sol in (sol_quadratic, sol_heavy):
            mid = len(sol.x) // 2
            assert abs(sol.derivative()[mid]) <= 1e-9 * sol.h[mid]

    def _sandwich_ok(self, sol):
        lower, upper = bar.sandwich_bounds(sol)
        bad = np.nonzero((sol.h < lower) | (sol.h > upper))[0]
        assert bad.size == 0, f"sandwich broken at nodes {bad.tolist()}"

    def test_sandwich_quadratic_case(self, sol_quadratic):
        self._sandwich_ok(sol_quadratic)

    def test_sandwich_heavy_case(self, sol_heavy):
        self._sandwich_ok(sol_heavy)

    def test_log_derivative_within_proof_bound(self, sol_quadratic, sol_heavy):
        for sol in (sol_quadratic, sol_heavy):
            assert sol.log_derivative_max() <= bar.c3_constant(sol.a, sol.theta)

    def test_center_matches_quadrature_oracle(self, oracle_case):
        case, sol = oracle_case
        assert sol.h0 == pytest.approx(quadrature_center_value(*case), rel=1e-9)

    def test_center_error_bar_brackets_limit_deficit(self, sol_heavy):
        """In the heavy case the sandwich envelopes at the center bracket the
        quadrature limit, and the solver's deficit against it is below 1e-9
        relative."""
        h0_exact = quadrature_center_value(*HEAVY_CASE)
        lower, upper = bar.sandwich_bounds(sol_heavy)
        mid = len(sol_heavy.x) // 2
        assert lower[mid] <= h0_exact <= upper[mid]
        assert abs(h0_exact - sol_heavy.h[mid]) <= 1e-9 * h0_exact

    def test_extended_ladder_approaches_quadrature_value(self):
        # heavy (a, b, theta) over a ladder of strip widths: each center value
        # matches the quadrature, and they fall strictly toward the equilibrium
        a, b, th, _ = HEAVY_CASE
        centers = []
        for A in (1.5, 3.0, 6.0, 12.0):
            sol = bar.solve_hA(a, b, th, A)
            assert sol.h0 == pytest.approx(quadrature_center_value(a, b, th, A), rel=1e-9)
            centers.append(sol.h0)
        eq = bar.equilibrium(a, b, th)
        assert all(hi > lo > eq for hi, lo in zip(centers, centers[1:]))
        assert centers[-1] - eq < 1e-3 * (centers[0] - eq)

    def test_envelopes_and_slopes_at_every_node(self, oracle_case):
        _, sol = oracle_case
        self._sandwich_ok(sol)
        assert sol.log_derivative_max() <= bar.c3_constant(sol.a, sol.theta)
        assert sol.derivative()[len(sol.x) // 2] == 0.0

    def test_profile_solves_the_ode(self, oracle_case):
        # second differences of the interpolant against (1/2) h'' = -a h + b h^(1+theta),
        # and first differences against the exact derivative
        (a, b, th, A), sol = oracle_case
        for k in (2, 8, 20, 40):
            x = sol.x[k]
            step = 1e-4 * (A - abs(x))
            left, mid, right = sol.interpolate(np.array([x - step, x, x + step]))
            second = (left - 2.0 * mid + right) / step**2
            assert 0.5 * second == pytest.approx(-a * mid + b * mid ** (1.0 + th), rel=1e-5)
            slope = (right - left) / (2.0 * step)
            assert slope == pytest.approx(sol.derivative()[k], rel=1e-5)

    def test_wider_strip_is_smaller_inside(self):
        narrow = bar.solve_hA(1.0, 1.0, 1.0, 4.0)
        wide = bar.solve_hA(1.0, 1.0, 1.0, 5.0)
        xq = np.linspace(-3.2, 3.2, 41)
        assert np.all(wide.interpolate(xq) <= narrow.interpolate(xq) * (1 + 1e-6))

    def test_interpolation_hits_nodes_and_guards_domain(self, sol_quadratic):
        k = len(sol_quadratic.x) // 3
        assert sol_quadratic.interpolate(
            sol_quadratic.x[k]
        ) == pytest.approx(sol_quadratic.h[k], rel=1e-9)
        with pytest.raises(bar.BarriersError):
            sol_quadratic.interpolate(5.0)

    def test_bookkeeping_fields(self, sol_quadratic):
        assert sol_quadratic.h0 > bar.equilibrium(1.0, 1.0, 1.0)
        assert sol_quadratic.h0 == np.min(sol_quadratic.h)
        assert (sol_quadratic.A, sol_quadratic.a, sol_quadratic.b, sol_quadratic.theta) == (
            5.0, 1.0, 1.0, 1.0,
        )


class TestStripBound:
    def test_c5_matches_closed_form_for_quadratic(self):
        sc = bar.strip_constants(1.0, 1.0, 1.0)
        # With c3 = 24 the binding condition reduces to
        # c5^2 - (4 c3 + 2) c5 - 8 a c1 = 0; take the positive root.
        c3 = bar.c3_constant(1.0, 1.0)
        rhs = 2.0 * bar.c1_constant(1.0, 1.0)
        expected = 0.5 * ((4 * c3 + 2) + math.sqrt((4 * c3 + 2) ** 2 + 16 * rhs))
        assert sc.c5 == pytest.approx(expected, rel=1e-15)
        assert sc.c4 == pytest.approx(1.0 / 32.0, abs=1e-10)

    @pytest.mark.parametrize("theta", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 1.0])
    def test_c5_is_least_admissible(self, theta):
        # the two sufficient inequalities on a log time grid: both hold just
        # above c5, and the first fails just below it
        t = np.geomspace(1e-3, 1e3, 121)

        def first_holds(c5, a, sc):
            rhs = a + 2.0 * a * sc.c1**theta / (c5 * t)
            return np.all(a + (0.25 * c5 - sc.c3 - 0.5) / t >= rhs)

        def second_holds(c5, a, b, sc):
            lift = math.expm1(min(0.5 * theta * c5, 700.0))
            # inf f(y) / (1 - y)^2 = 1
            coef = b * sc.c2**theta * sc.delta * lift / (2.0 * c5)
            return np.all(a + (coef - sc.c3 - 0.5) / t >= 0.0)

        for a, b in [(1.0, 1.0), (0.2, 3.0), (5.0, 0.5), (2.0, 2.0)]:
            sc = bar.strip_constants(a, b, theta)
            assert sc.c3 == bar.c3_constant(a, theta)
            assert sc.c5 == (2.0 * sc.c3 + 1.0) + math.sqrt((2.0 * sc.c3 + 1.0) ** 2 + 4.0 * sc.c3)
            above, below = sc.c5 * (1.0 + 1e-12), sc.c5 * (1.0 - 1e-12)
            assert first_holds(above, a, sc) and second_holds(above, a, b, sc)
            assert not first_holds(below, a, sc)

    def test_overflowing_theta_raises(self):
        with pytest.raises(bar.BarriersError, match="theta = 0.01"):
            bar.strip_constants(1.0, 1.0, 0.01)
