"""The frozen search constants against their analytic bounds.

A frozen value pins one computation's float; its bounds say what any
correct computation must satisfy.  A re-freeze changes values, never a
bound or a tolerance, and both the value it replaces and the new one must
pass here: a ratio is at most its proof ceiling plus CEILING_SLACK, and a
maximizer may only go up.  The control, seminorm, generalized-ratio and
obstruction constants are not paired here yet.
"""

import pytest

import gnlab.extremal as ex
import gnlab.gn as gn
from test_extremal import (BATCH4_MAX, BATCH6_MAX, TINY_RATIO4,
                           TINY_RATIO4_PREVIOUS)

CAP4 = gn.RATIO4_BOUND + ex.CEILING_SLACK
CAP6 = gn.RATIO6_BOUND + ex.CEILING_SLACK
# criterion 3: the default search must reach this much of the ceiling
SEARCH_FLOOR = 1.2


@pytest.mark.parametrize("value, cap", [
    pytest.param(TINY_RATIO4, CAP4, id="TINY_RATIO4"),
    pytest.param(TINY_RATIO4_PREVIOUS, CAP4, id="TINY_RATIO4_PREVIOUS"),
    pytest.param(BATCH4_MAX, CAP4, id="BATCH4_MAX"),
    pytest.param(BATCH6_MAX, CAP6, id="BATCH6_MAX")])
def test_frozen_ratios_are_at_most_their_ceilings(value, cap):
    assert 0.0 < value <= cap


def test_the_tiny_search_maximum_only_goes_up():
    assert TINY_RATIO4_PREVIOUS <= TINY_RATIO4


def test_the_default_search_is_between_its_floor_and_the_ceiling(
        criterion_3_search):
    """Criterion 3's SearchConfig() search reaches 1.2 and its own 10k
    random batch's maximum, and stays at or below the ceiling."""
    search, batch4 = criterion_3_search
    assert batch4["max"] <= search.ratio <= CAP4
    assert SEARCH_FLOOR <= search.ratio
    assert search.search_ratio <= CAP4
