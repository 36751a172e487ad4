import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

LOWER, HIGHER = 1, -1


def test_claim_needs_nine_in_ten_wins_and_medians_apart_by_more_than_the_parent_iqr():
    parent = (0.75, 1.0, 1.25)
    assert pairs.claim_holds(9, 10, parent, 0.25, LOWER)
    assert not pairs.claim_holds(8, 10, parent, 0.25, LOWER)  # too few wins
    assert not pairs.claim_holds(10, 10, parent, 0.5, LOWER)  # a gap of exactly the IQR
    assert not pairs.claim_holds(10, 10, parent, 1.75, LOWER)  # the wrong way
    assert pairs.claim_holds(10, 10, parent, 1.75, HIGHER)


def test_a_median_worse_by_more_than_the_bound_is_worse():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    assert pairs.regression_verdict(parent, [x + 0.3 for x in parent], 0.25, LOWER) == "worse"
    assert pairs.regression_verdict(parent, [x + 0.2 for x in parent], 0.25, LOWER) == "within bound"
    assert pairs.regression_verdict(parent, [x - 0.3 for x in parent], 0.25, HIGHER) == "worse"
    assert pairs.regression_verdict([1.0] * 10, [0.98] * 10, 0.01, HIGHER) == "worse"
    assert pairs.regression_verdict([1.0] * 10, [1.0] * 10, 0.01, HIGHER) == "within bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_the_change_wins_every_pairing():
    parent = [0.6, 1.0, 1.4, 0.7, 1.3, 1.0]  # IQR 0.625, above 0.25 x the median
    assert pairs.regression_verdict(parent, parent, 0.25, LOWER) == "unresolved"
    assert pairs.regression_verdict(parent, [0.5, 0.55, 0.59], 0.25, LOWER) == "within bound"
    assert pairs.regression_verdict(parent, [0.5, 0.55, 0.6], 0.25, LOWER) == "unresolved"  # a tie
    assert pairs.regression_verdict(parent, [1.5, 1.6], 0.25, HIGHER) == "within bound"
    assert pairs.regression_verdict(parent, [x + 0.5 for x in parent], 0.25, LOWER) == "worse"


def test_ratio_quartiles_are_taken_over_the_per_pair_ratios():
    parent = [1.0, 2.0, 4.0, 0.5, 1.0]
    change = [1.1, 1.8, 4.0, 0.6, 0.9]  # ratios 1.1, 0.9, 1.0, 1.2, 0.9
    q1, median, q3 = pairs.ratio_quartiles(parent, change)
    assert median == 1.0
    assert (q1, q3) == pytest.approx((0.9, 1.15))
    assert pairs.ratio_quartiles([2.0], [3.0]) == (1.5, 1.5, 1.5)
    assert pairs.ratio_quartiles([0.0, 2.0], [1.0, 1.0]) == (0.5, 0.5, 0.5)  # a zero parent is skipped
    assert pairs.ratio_quartiles([0.0], [1.0]) is None
