"""Reference values the benchmark checks pipeline artifacts against.

Everything here is computed apart from ``sbmlab``: closed forms, scipy
special functions and scipy ODE solvers only.  ``test_oracles.py`` holds
these references against mpmath quadrature and against each other.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# quadratic mechanism psi(u) = -u + u**2: the logistic flow


def logistic_flow(theta: float, t: float) -> float:
    """v(t) solving v' = v - v**2, v(0) = theta."""
    e = math.exp(t)
    return theta * e / (1.0 + theta * (e - 1.0))


def logistic_laplace(theta: float, t: float, mass: float = 1.0) -> float:
    """E[exp(-theta ||X_t||)] = exp(-m v(t, theta)) for the quadratic mechanism."""
    return math.exp(-mass * logistic_flow(theta, t))


def logistic_extinction_exponent(t: float) -> float:
    """v_bar(t) = lim_{theta -> inf} v(t, theta) = e^t / (e^t - 1)."""
    return 1.0 / -math.expm1(-t)


def logistic_extinction(t: float, mass: float = 1.0) -> float:
    """P(extinct by t) = exp(-m e^t / (e^t - 1))."""
    return math.exp(-mass * logistic_extinction_exponent(t))


# ---------------------------------------------------------------------------
# linear birth-death process with the particle engine's own rates


def engine_rates(alpha: float, beta: float, epsilon: float) -> tuple[float, float]:
    """Per-particle split and death rates b = beta/eps + alpha/2, d = beta/eps - alpha/2."""
    return beta / epsilon + 0.5 * alpha, beta / epsilon - 0.5 * alpha


def birth_death_extinction(b: float, d: float, t: float, n0: int) -> float:
    """P(extinct by t) = [d (e^{(b-d)t} - 1) / (b e^{(b-d)t} - d)]^{n0}."""
    g = math.exp((b - d) * t)
    return (d * (g - 1.0) / (b * g - d)) ** n0


def birth_death_mean(b: float, d: float, t: float, n0: int) -> float:
    """E[population at t] = n0 e^{(b-d)t}."""
    return n0 * math.exp((b - d) * t)


def stepped_birth_death(b: float, d: float, dt: float, steps: int, n0: int) -> tuple[float, float]:
    """(P(extinct), mean population) when each step allows at most one event.

    Each particle splits with probability b dt, dies with probability d dt
    and otherwise carries on, so its offspring generating function per step
    is d dt + (1 - (b + d) dt) s + b dt s^2.  The gap between this law and
    the continuous one is the O(rate * dt) bias the engine documents.
    """
    q = 0.0
    for _ in range(steps):
        q = d * dt + (1.0 - (b + d) * dt) * q + b * dt * q * q
    return q**n0, n0 * (1.0 + (b - d) * dt) ** steps


# ---------------------------------------------------------------------------
# decorated Poisson process


def gumbel_rightmost_cdf(x, c_tilde_0: float):
    """P(rightmost atom <= x) = exp(-C~_0 e^{-sqrt(2) x}) for unit martingale weight."""
    return np.exp(-c_tilde_0 * np.exp(-SQRT2 * np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# truncated-stable jumps with a finite cutoff


def _stable_excess_scaled(x: float, s: float) -> float:
    """F(X) = int_0^X (e^-z - 1 + z) z^(-1-s) dz for index s in (1, 2).

    Below X = 1 the alternating series sum_{n>=2} (-1)^n X^(n-s) / (n! (n-s))
    avoids the cancellation of the closed form; above it, integrating by
    parts twice gives

        F(X) = -X^-s g(X)/s + X^(1-s) (1 - e^-X)/(s (1-s))
               - Gamma(2-s) P(2-s, X)/(s (1-s)),

    with g(z) = e^-z - 1 + z and P the regularized lower incomplete gamma.
    """
    if x <= 0.0:
        return 0.0
    if x <= 1.0:
        total, term_pow, fact = 0.0, x * x, 2.0
        for n in range(2, 40):
            total += (-1.0) ** n * term_pow / (fact * (n - s))
            term_pow *= x
            fact *= n + 1
        return total * x ** (-s)
    g = math.exp(-x) - 1.0 + x
    one_minus = -math.expm1(-x)
    return (
        -(x ** (-s)) * g / s
        + x ** (1.0 - s) * one_minus / (s * (1.0 - s))
        - math.gamma(2.0 - s) * special.gammainc(2.0 - s, x) / (s * (1.0 - s))
    )


class StableCutoffPsi:
    """psi(lam) = -alpha lam + beta lam^2 + c lam^s F(lam * cutoff)."""

    def __init__(self, alpha: float, beta: float, c: float, index: float, cutoff: float):
        self.alpha, self.beta, self.c, self.s, self.cutoff = alpha, beta, c, index, cutoff

    def jump_part(self, lam: float) -> float:
        return self.c * lam**self.s * _stable_excess_scaled(lam * self.cutoff, self.s)

    def __call__(self, lam: float) -> float:
        lam = float(lam)
        if lam <= 0.0:
            return -self.alpha * lam
        return -self.alpha * lam + self.beta * lam * lam + self.jump_part(lam)

    def lambda_star(self) -> float:
        """Largest zero; psi < 0 just above 0 and grows like lam^s for large lam."""
        hi = 1.0
        while self(hi) <= 0.0:
            hi *= 2.0
        lo = hi / 2.0
        while self(lo) >= 0.0:
            lo /= 2.0
        return optimize.brentq(self, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    def flow(self, theta: float, times) -> np.ndarray:
        """v(t) solving v' = -psi(v), v(0) = theta, at each of ``times``."""
        times = np.asarray(times, dtype=float)
        sol = integrate.solve_ivp(
            lambda _t, v: [-self(v[0])],
            (0.0, float(times.max())),
            [float(theta)],
            method="DOP853",
            t_eval=times,
            rtol=1e-12,
            atol=1e-14,
        )
        if not sol.success:
            raise RuntimeError(f"reference flow failed: {sol.message}")
        return sol.y[0]


# ---------------------------------------------------------------------------
# front position


def ebert_van_saarloos_drift(t0: float, t1: float) -> float:
    """Growth of median - front_m(t) from t0 to t1 predicted by the 1/sqrt(t) term.

    For u_t = u_xx/2 + u - u^2 the median sits at
    sqrt(2) t - 3/(2 sqrt 2) log t + a - 3 sqrt(pi/2) / sqrt(t) + O(1/t)
    (Ebert and van Saarloos 2000, rescaled from u_t = u_xx + u - u^2 by
    x -> x / sqrt(2)).
    """
    k = 3.0 * math.sqrt(math.pi / 2.0)
    return k * (1.0 / math.sqrt(t0) - 1.0 / math.sqrt(t1))
