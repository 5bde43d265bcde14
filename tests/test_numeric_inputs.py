"""Non-numeric and non-finite arguments raise the layer's typed error.

``fronts`` and ``feynman_kac`` share one argument converter; each passes
its own error class, so a caller catching FrontsError or FkError never
sees a bare TypeError or ValueError from ``float()``.
"""

import math

import pytest

from sbmlab.feynman_kac import FkError, bridge_crossing_prob
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
    with pytest.raises(FkError, match="a must be a real number"):
        bridge_crossing_prob(None, 0.0, 1.0)
