"""Tests for the correlation seeker (paper Listing 3, §V QCR redesign)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.seekers import C
from repro.lake import exact_topk
from repro.oracle import assert_equivalent


def _query(c_lake, kind="cat", i=0):
    qs = [q for q in c_lake.meta["corr_queries"] if q["key_kind"] == kind]
    q = qs[i]
    keys = q["keys"]
    return q, keys, [q["target"][k] for k in keys]


def test_c_splits_keys_by_target_mean():
    keys = ["a", "b", "c", "d"]
    target = [1.0, 2.0, 10.0, 20.0]  # mean 8.25
    s = C(keys, target, k=5)
    assert set(s.k0) == {"a", "b"}
    assert set(s.k1) == {"c", "d"}


def test_c_dedupes_keys_first_observation():
    s = C(["a", "a", "b"], [0.0, 100.0, 10.0], k=5)
    # 'a' keeps its first target (0.0); mean of {0,10}=5 -> a in k0, b in k1
    assert s.k0 == ["a"] and s.k1 == ["b"]


def test_c_drops_null_keys_and_targets():
    s = C(["a", None, "b", "c"], [1.0, 2.0, None, 5.0], k=5)
    assert set(s.q) == {"a", "c"}


def test_c_finds_strongest_candidate(c_lake, c_index):
    q, keys, target = _query(c_lake, "cat")
    res = C(keys, target, k=20, h=10_000).run(c_index)
    gt = exact_topk(c_lake, q, k=3)
    assert res.tables, "correlation seeker returned nothing"
    assert res.tables[0] in gt


def test_c_supports_numeric_keys(c_lake, c_index):
    """BLEND's stated advantage over the QCR baseline (§VI iii)."""
    q, keys, target = _query(c_lake, "num")
    res = C(keys, target, k=20, h=10_000).run(c_index)
    assert set(res.tables) & set(q["candidates"])


def test_c_qcr_scores_in_unit_interval(c_lake, c_index):
    _, keys, target = _query(c_lake, "cat")
    res = C(keys, target, k=20, h=10_000).run(c_index)
    assert all(0.0 <= s <= 1.0 for s in res.scores.values())


def test_c_qcr_matches_manual_computation(spark):
    """QCR computed by the SQL must equal the hand-computed statistic."""
    from repro.core import build_index
    from repro.lake import DataLake

    keys = [f"k{i}" for i in range(10)]
    target = list(np.linspace(-1, 1, 10))
    y = [2 * t + 0.0 for t in target]  # perfectly correlated
    lake = DataLake()
    lake.add("cand", pd.DataFrame({"key": keys, "y": y}))
    idx = build_index(spark, lake, view="TestQcrManual")
    res = C(keys, target, k=5, h=1000).run(idx)
    assert res.tables == [0]
    # perfect correlation -> every pair in quadrant I or III -> QCR = 1
    assert res.scores[0] == pytest.approx(1.0)


def test_c_anticorrelation_also_scores_high(spark):
    from repro.core import build_index
    from repro.lake import DataLake

    keys = [f"k{i}" for i in range(10)]
    target = list(np.linspace(-1, 1, 10))
    y = [-3 * t for t in target]
    lake = DataLake()
    lake.add("anti", pd.DataFrame({"key": keys, "y": y}))
    idx = build_index(spark, lake, view="TestQcrAnti")
    res = C(keys, target, k=5, h=1000).run(idx)
    # ABS(...) folds negative correlation into the same score (§VI i)
    assert res.scores[0] == pytest.approx(1.0)


def test_c_h_sampling_limits_rows(c_lake, c_index):
    _, keys, target = _query(c_lake, "cat")
    small = C(keys, target, k=20, h=5)
    sql = small.sql(c_index.view)
    assert "RowId < 5" in sql
    res = small.run(c_index)  # must still execute fine
    assert isinstance(res.tables, list)


def test_c_sql_oracle(c_lake, c_index):
    _, keys, target = _query(c_lake, "cat", i=1)
    seeker = C(keys, target, k=50, h=10_000)
    spark_df = c_index.spark.sql(seeker.sql(c_index.view))
    assert_equivalent(spark_df, seeker.sql("idx"), idx=c_index.pdf)


def test_c_tid_filter(c_lake, c_index):
    q, keys, target = _query(c_lake, "cat")
    drop = q["candidates"][0]
    res = C(keys, target, k=20, h=10_000).run(c_index, ("NOT IN", [drop]))
    assert drop not in res.tables


def test_c_features(c_lake, c_index):
    _, keys, target = _query(c_lake, "cat")
    s = C(keys, target, k=5)
    assert s.n_columns() == 2
    assert s.input_cardinality() == len(set(keys))
    assert s.avg_frequency(c_index) > 0


def test_c_shuffled_index_still_finds_strongest(c_lake, c_index_rand):
    q, keys, target = _query(c_lake, "cat")
    res = C(keys, target, k=20, h=10_000).run(c_index_rand)
    gt = exact_topk(c_lake, q, k=3)
    assert res.tables[0] in gt


def test_c_empty_query(c_index):
    res = C([], [], k=5).run(c_index)
    assert res.tables == []
