"""Unit tests for ranking metrics (repro.evalx.metrics)."""
from repro.evalx.metrics import (
    average_precision_at_k,
    precision_at_k,
    recall_at_k,
)


def test_precision_perfect():
    assert precision_at_k([1, 2, 3], {1, 2, 3}, 3) == 1.0


def test_precision_half():
    assert precision_at_k([1, 9, 2, 8], {1, 2}, 4) == 0.5


def test_precision_truncates_at_k():
    assert precision_at_k([9, 9, 1], {1}, 2) == 0.0


def test_precision_short_ranking_normalizes_by_returned():
    # 1 returned item, relevant -> P@10 = 1.0 (len(top) normalization)
    assert precision_at_k([1], {1}, 10) == 1.0


def test_precision_empty_ranking():
    assert precision_at_k([], {1}, 5) == 0.0


def test_recall_basic():
    assert recall_at_k([1, 2], {1, 2, 3, 4}, 2) == 0.5


def test_recall_empty_relevant_is_one():
    assert recall_at_k([1], set(), 5) == 1.0


def test_recall_zero():
    assert recall_at_k([9], {1}, 1) == 0.0


def test_ap_perfect_prefix():
    assert average_precision_at_k([1, 2, 9], {1, 2}, 3) == 1.0


def test_ap_penalizes_late_hits():
    early = average_precision_at_k([1, 9, 9], {1}, 3)
    late = average_precision_at_k([9, 9, 1], {1}, 3)
    assert early > late


def test_ap_zero_when_no_hits():
    assert average_precision_at_k([9, 8], {1}, 2) == 0.0


def test_ap_normalizes_by_min_k_rel():
    # 3 relevant but k=2: denominator is 2
    assert average_precision_at_k([1, 2], {1, 2, 3}, 2) == 1.0
