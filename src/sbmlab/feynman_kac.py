"""Path-integral representation of the wave field.

The field solved by :mod:`sbmlab.kpp` also satisfies a stochastic
representation: its value at (t, x) is the expectation, over Brownian paths
run from x, of the field at an earlier time r weighted by an exponential
growth factor whose rate depends on the field along the path.  This module
estimates that expectation by Monte Carlo (``fk_estimate``); the ``fk``
pipeline compares the estimate with the solved field.

Conventions: ``fk_estimate`` takes any mechanism and assumes nothing of
it.  Its growth rate k(u) = -psi(u)/u is at most alpha for every u >= 0,
since psi(u) + alpha u = beta u**2 plus a nonnegative jump integral, so a
path's weight is at most e^{alpha (t - r)}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kpp import Field, _as_float
from .mechanism import BranchingMechanism, k as mechanism_k

__all__ = [
    "FkError",
    "PathExitedFieldError",
    "FkResult",
    "fk_estimate",
]


class FkError(ValueError):
    """Invalid argument to a path-integral routine."""


class PathExitedFieldError(FkError):
    """A Monte Carlo path left the spatial grid of the field."""


@dataclass(frozen=True)
class FkResult:
    mean: float
    std_error: float
    n_paths: int


def fk_estimate(
    field: Field,
    mech: BranchingMechanism | None,
    r: float,
    t: float,
    x: float,
    n_paths: int,
    seed: int = 0,
    path_dt: float | None = None,
    k_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> FkResult:
    """Monte Carlo estimate of the field at (t, x) from its value at time r.

    Averages u(r, B(t-r)) * exp(integral of k(u(t-s, B(s))) ds) over free
    Brownian paths B started at x.  The time integral uses the trapezoid
    rule on the path grid.  With ``r == t`` no paths are needed and the
    field value itself is returned with zero standard error.  ``k_fn``
    replaces the mechanism growth rate when given (the constant-rate
    surrogate k = 1 turns the representation into a pure heat semigroup
    with growth e^(t-r), which is the main oracle for this routine).
    """
    r = _as_float("r", r, FkError)
    t = _as_float("t", t, FkError)
    x = _as_float("x", x, FkError)
    if not 0.0 <= r <= t:
        raise FkError("need 0 <= r <= t")
    if n_paths < 1:
        raise FkError("n_paths must be at least 1")
    if k_fn is None:
        if mech is None:
            raise FkError("provide a mechanism or an explicit k_fn")
        k_fn = functools.partial(mechanism_k, mech)
    if r == t:
        return FkResult(mean=float(field.interp(t, x)), std_error=0.0, n_paths=0)

    span = t - r
    if path_dt is None:
        path_dt = min(0.005, span / 100.0)
    m = max(2, int(math.ceil(span / path_dt)))
    h = span / m
    xs = field.grid.x
    rng = np.random.default_rng(seed)

    b = np.full(n_paths, x)
    integral = np.zeros(n_paths)
    for i in range(m + 1):
        s_i = i * h
        w = 0.5 * h if i in (0, m) else h
        u_here = np.asarray(field.interp(t - s_i, b))
        integral += w * np.asarray(k_fn(u_here), dtype=float)
        if i < m:
            b = b + math.sqrt(h) * rng.standard_normal(n_paths)
            if b.min() < xs[0] or b.max() > xs[-1]:
                raise PathExitedFieldError(
                    "a path left the spatial grid; enlarge the field's padding"
                )
    values = np.asarray(field.interp(r, b)) * np.exp(integral)
    mean = float(np.mean(values))
    se = float(np.std(values) / math.sqrt(n_paths))
    return FkResult(mean=mean, std_error=se, n_paths=n_paths)
