"""Non-numeric and non-finite arguments raise the layer's typed error.

``fronts``, ``feynman_kac`` and ``barriers`` share one argument converter;
each passes its own error class, so a caller catching FrontsError, FkError
or BarriersError never sees a bare TypeError or ValueError from ``float()``,
nor a number computed from nan or inf.
"""

import math

import pytest

from sbmlab.barriers import BarriersError, solve_hA, strip_constants
from sbmlab.feynman_kac import FkError, fk_estimate
from sbmlab.fronts import FrontsError, TestFunction, constant_C_hat
from sbmlab.mechanism import BranchingMechanism

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TestFunction.scaled_indicator(None),
        lambda: TestFunction.compact_bump("a", 1, 1),
        lambda: constant_C_hat(QUADRATIC, None),
    ],
    ids=["scaled_indicator", "compact_bump", "constant_C_hat"],
)
def test_fronts_rejects_non_numeric_arguments(call):
    with pytest.raises(FrontsError, match="must be a real number"):
        call()


def test_fronts_rejects_non_finite_arguments():
    with pytest.raises(FrontsError, match="lam must be finite"):
        TestFunction.scaled_indicator(math.inf)


def test_feynman_kac_keeps_its_own_error():
    # r is converted before the field is read
    with pytest.raises(FkError, match="r must be a real number"):
        fk_estimate(None, None, None, 1.0, 0.0, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: strip_constants(math.nan, 1.0, 1.0),
        lambda: strip_constants(1.0, 1.0, math.nan),
        lambda: strip_constants(1.0, math.inf, 1.0),
        lambda: strip_constants([1.0], 1.0, 1.0),
        lambda: solve_hA(1.0, 1.0, 1.0, math.nan),
        lambda: solve_hA(1.0, 1.0, 1.0, math.inf),
        lambda: solve_hA(None, 1.0, 1.0, 5.0),
    ],
    ids=[
        "strip_constants-a-nan",
        "strip_constants-theta-nan",
        "strip_constants-b-inf",
        "strip_constants-a-list",
        "solve_hA-A-nan",
        "solve_hA-A-inf",
        "solve_hA-a-None",
    ],
)
def test_barriers_rejects_non_finite_and_non_numeric_arguments(call):
    with pytest.raises(BarriersError, match="must be (finite|a real number)"):
        call()
