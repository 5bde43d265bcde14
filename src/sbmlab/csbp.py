"""Total-mass flow of the measure-valued process.

The total mass is a continuous-state branching process whose Laplace
functional is governed by the scalar flow

    dv/dt = -psi(v),    v(0) = theta,

so that E[exp(-theta ||X_t||)] = exp(-||X_0|| v(t, theta)).  Extinction by
time t has probability exp(-||X_0|| v_bar(t)) with v_bar the theta -> infinity
limit of the flow, which this module estimates from a theta ladder with a
Richardson step (the ladder itself converges only like 1/theta).

The flow takes one of two paths.  A mechanism without jumps uses the
closed-form logistic map of ``mechanism.exact_flow``, exact to rounding;
every jump mechanism integrates the flow with adaptive RK45.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from .mechanism import BranchingMechanism, exact_flow, make_psi_eval

__all__ = [
    "CsbpError",
    "ExtinctionResult",
    "GreyViolatedError",
    "LadderNotConvergedError",
    "extinction_prob",
    "laplace_exponent",
    "mass_laplace",
]

EXTINCTION_THETA_LADDER = (1e2, 1e4, 1e6)


class CsbpError(ValueError):
    """Raised for invalid flow arguments or a failed integration."""


class GreyViolatedError(CsbpError):
    """Extinction asked for a mechanism whose descent from infinity is infinite."""


class LadderNotConvergedError(CsbpError):
    """The theta ladder did not pin the extinction exponent to tolerance."""


@dataclass(frozen=True)
class ExtinctionResult:
    """Extinction probability at a fixed time, with ladder diagnostics.

    ``ladder`` holds the flow values for each rung of the theta ladder and
    ``v_bar`` the extrapolated limit; ``converged`` records whether the
    extrapolation moved the last rung by less than the requested tolerance.
    """

    prob: float
    v_bar: float
    ladder: tuple[float, ...]
    converged: bool


def laplace_exponent(
    mech: BranchingMechanism,
    theta: float,
    t: float,
    rtol: float = 1e-10,
) -> float:
    """Value v(t, theta) of the mass flow started from theta.

    Exact for a mechanism without jumps; otherwise RK45 to ``rtol``.
    """
    if not (theta >= 0.0 and math.isfinite(theta)):
        raise CsbpError(f"theta must be finite and nonnegative, got {theta}")
    if not (t >= 0.0 and math.isfinite(t)):
        raise CsbpError(f"t must be finite and nonnegative, got {t}")
    if theta == 0.0 or t == 0.0:
        return float(theta)

    flow = exact_flow(mech, t)
    if flow is not None:
        return float(flow(theta))

    psi_eval = make_psi_eval(mech, u_max=max(theta, 10.0))

    def rhs(_s, v):
        return [-float(psi_eval(v[0]))]

    sol = solve_ivp(
        rhs,
        (0.0, t),
        [theta],
        method="RK45",
        rtol=rtol,
        atol=1e-12,
    )
    if not sol.success:
        raise CsbpError(f"mass flow integration failed: {sol.message}")
    return float(sol.y[0, -1])


def mass_laplace(
    mech: BranchingMechanism,
    theta: float,
    t: float,
    mass: float = 1.0,
    rtol: float = 1e-10,
) -> float:
    """Laplace functional E[exp(-theta ||X_t||)] for initial mass ``mass``."""
    if not (mass >= 0.0 and math.isfinite(mass)):
        raise CsbpError(f"mass must be finite and nonnegative, got {mass}")
    v = laplace_exponent(mech, theta, t, rtol=rtol)
    return math.exp(-mass * v)


def extinction_prob(
    mech: BranchingMechanism,
    t: float,
    mass: float = 1.0,
    theta_ladder: tuple[float, ...] = EXTINCTION_THETA_LADDER,
    rtol: float = 1e-10,
    tol: float = 1e-5,
    strict: bool = True,
    verify_grey: bool = True,
) -> ExtinctionResult:
    """Probability that the process is extinct at time t.

    The theta -> infinity limit of the flow is taken along ``theta_ladder``
    and accelerated with an Aitken step on the last three rungs, which is
    exact whenever the rungs approach the limit like a single power of
    1/theta (the rate itself varies with the jump measure, so no fixed power
    is assumed).  The residual estimate is the Aitken correction scaled by
    the observed rung ratio; when it exceeds ``tol`` relative to the limit
    the ladder has genuinely not settled, and with ``strict`` a
    :class:`LadderNotConvergedError` is raised (pass a longer ladder or a
    wider ``tol``).
    """
    if t <= 0.0:
        raise CsbpError("extinction requires a positive time horizon")
    if len(theta_ladder) < 3 or any(
        b <= a for a, b in zip(theta_ladder, theta_ladder[1:])
    ):
        raise CsbpError("theta_ladder must be at least three increasing values")
    if verify_grey:
        from .mechanism import check_hypotheses

        if not check_hypotheses(mech).grey:
            raise GreyViolatedError(
                "descent from infinity diverges; extinction has probability zero"
            )

    ladder = tuple(
        laplace_exponent(mech, theta, t, rtol=rtol) for theta in theta_ladder
    )
    v1, v2, v3 = ladder[-3], ladder[-2], ladder[-1]
    d1, d2 = v2 - v1, v3 - v2
    if d1 - d2 > 0.0 and d2 >= 0.0:
        correction = d2 * d2 / (d1 - d2)
        ratio = d2 / d1 if d1 > 0.0 else 0.0
        err_est = correction * ratio
    else:
        # rungs are flat to solver noise, or the differences fail to shrink;
        # either way the last rung is the best value and |d2| bounds the doubt
        correction = 0.0
        err_est = abs(d2)
    v_bar = v3 + correction
    converged = err_est <= tol * (1.0 + abs(v_bar))
    if strict and not converged:
        raise LadderNotConvergedError(
            f"ladder residual estimate {err_est:.3e} exceeds tolerance; "
            f"rungs {ladder}"
        )

    return ExtinctionResult(
        prob=math.exp(-mass * v_bar),
        v_bar=v_bar,
        ladder=ladder,
        converged=converged,
    )
