"""Total-mass flow of the measure-valued process.

The total mass is a continuous-state branching process whose Laplace
functional is governed by the scalar flow

    dv/dt = -psi(v),    v(0) = theta,

so that E[exp(-theta ||X_t||)] = exp(-||X_0|| v(t, theta)).  Extinction by
time t has probability exp(-||X_0|| v_bar(t)), with v_bar(t) the flow started
from theta = infinity.  Both are one evaluation of ``mechanism.flow_map``,
the time-t map of the flow: the logistic closed form for a mechanism without
jumps, and the mechanism's flow table otherwise.  The map accepts infinity,
so v_bar needs no theta ladder, and it raises ``GreyViolatedError`` when
integral^inf du/psi(u) diverges and extinction has probability zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mechanism import BranchingMechanism, GreyViolatedError, flow_map

__all__ = [
    "CsbpError",
    "ExtinctionResult",
    "GreyViolatedError",
    "extinction_prob",
    "laplace_exponent",
    "mass_laplace",
]


class CsbpError(ValueError):
    """Raised for invalid flow arguments."""


@dataclass(frozen=True)
class ExtinctionResult:
    """Extinction probability at a fixed time.

    ``v_bar`` is the flow from infinity.  ``converged`` is always True: the
    flow map either returns within its accuracy or raises.
    """

    prob: float
    v_bar: float
    converged: bool = True


def laplace_exponent(mech: BranchingMechanism, theta: float, t: float) -> float:
    """Value v(t, theta) of the mass flow started from theta."""
    if not (theta >= 0.0 and math.isfinite(theta)):
        raise CsbpError(f"theta must be finite and nonnegative, got {theta}")
    if not (t >= 0.0 and math.isfinite(t)):
        raise CsbpError(f"t must be finite and nonnegative, got {t}")
    if theta == 0.0 or t == 0.0:
        return float(theta)
    return float(flow_map(mech, t)(theta))


def mass_laplace(mech: BranchingMechanism, theta: float, t: float, mass: float = 1.0) -> float:
    """Laplace functional E[exp(-theta ||X_t||)] for initial mass ``mass``."""
    if not (mass >= 0.0 and math.isfinite(mass)):
        raise CsbpError(f"mass must be finite and nonnegative, got {mass}")
    return math.exp(-mass * laplace_exponent(mech, theta, t))


def extinction_prob(mech: BranchingMechanism, t: float, mass: float = 1.0) -> ExtinctionResult:
    """Probability that the process is extinct at time t."""
    if not (t > 0.0 and math.isfinite(t)):
        raise CsbpError("extinction requires a positive, finite time horizon")
    v_bar = float(flow_map(mech, t)(math.inf))
    return ExtinctionResult(prob=math.exp(-mass * v_bar), v_bar=v_bar)
