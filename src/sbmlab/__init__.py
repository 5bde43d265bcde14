"""Desk-scale numerical laboratory for supercritical branching fronts.

The package is organized around one object, a branching mechanism, and the
family of numerical experiments that probe its front behavior:

* ``mechanism``: mechanism algebra, hypothesis checks, the scalar flow.
* ``csbp``: the total-mass ordinary differential equation and extinction.
* ``kpp``: reaction-diffusion solver, centering, and median tracking.
* ``feynman_kac``: Monte Carlo estimate of the path-integral representation.
* ``fronts``: the front limit constants.
* ``particles``: branching-particle approximation of the measure process.
* ``extremal``: decorated Poisson point process sampling and its stability check.
* ``barriers``: blow-up profiles and the constants of the strip confinement bound.
* ``pool``: the fork pool that runs replica groups and front constants on the CPUs.
"""

from .mechanism import (
    BranchingMechanism,
    LevyMeasure,
    MechanismError,
    check_hypotheses,
    k,
    lambda_star,
    psi,
)

__all__ = [
    "BranchingMechanism",
    "LevyMeasure",
    "MechanismError",
    "check_hypotheses",
    "k",
    "lambda_star",
    "psi",
]

__version__ = "0.1.0"
