"""Tests for the SC and KW seekers (paper Listing 1 and §VI)."""
import pytest

from repro.core.seekers import KW, SC, CounterPushdown
from repro.oracle import assert_equivalent


def _group_member(lake, gid=0):
    return lake.meta["groups"][gid]


def test_sc_finds_source_table(tiny_lake, tiny_index):
    members = _group_member(tiny_lake)
    tid = members[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    res = SC(col, k=5).run(tiny_index)
    assert res.tables[0] == tid  # full overlap with itself


def test_sc_finds_group_siblings(tiny_lake, tiny_index):
    members = set(_group_member(tiny_lake))
    tid = sorted(members)[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    res = SC(col, k=8).run(tiny_index)
    assert members <= set(res.tables) | {tid}
    assert len(set(res.tables) & members) >= 2


def test_sc_scores_descending(tiny_lake, tiny_index):
    tid = _group_member(tiny_lake)[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    res = SC(col, k=8).run(tiny_index)
    scores = [res.scores[t] for t in res.tables]
    assert scores == sorted(scores, reverse=True)


def test_sc_k_truncates(tiny_lake, tiny_index):
    tid = _group_member(tiny_lake)[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    assert len(SC(col, k=2).run(tiny_index).tables) <= 2


def test_sc_empty_query(tiny_index):
    res = SC([], k=5).run(tiny_index)
    assert res.tables == []


def test_sc_absent_values(tiny_index):
    res = SC(["@@no-such-value@@"], k=5).run(tiny_index)
    assert res.tables == []


def test_sc_tid_filter_in(tiny_lake, tiny_index):
    tid = _group_member(tiny_lake)[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    res = SC(col, k=8).run(tiny_index, ("IN", [tid]))
    assert res.tables == [tid]


def test_sc_tid_filter_not_in(tiny_lake, tiny_index):
    tid = _group_member(tiny_lake)[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    res = SC(col, k=8).run(tiny_index, ("NOT IN", [tid]))
    assert tid not in res.tables


def test_sc_tid_filter_empty_in_matches_nothing(tiny_lake, tiny_index):
    tid = _group_member(tiny_lake)[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    assert SC(col, k=8).run(tiny_index, ("IN", [])).tables == []


def test_sc_tid_filter_empty_not_in_is_noop(tiny_lake, tiny_index):
    tid = _group_member(tiny_lake)[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    a = SC(col, k=8).run(tiny_index, ("NOT IN", []))
    b = SC(col, k=8).run(tiny_index)
    assert a.tables == b.tables


def test_sc_sql_oracle(tiny_lake, tiny_index):
    """Listing 1 executed by Spark must match DuckDB on the same index."""
    tid = _group_member(tiny_lake)[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    seeker = SC(col, k=50)
    spark_df = tiny_index.spark.sql(seeker.sql(tiny_index.view))
    assert_equivalent(spark_df, seeker.sql("idx"), idx=tiny_index.pdf)


def test_sc_normalizes_numeric_queries(spark, tiny_index, tiny_lake):
    # integer-valued floats in the query must match indexed ints
    for tid, df in tiny_lake.tables.items():
        numcols = [c for c in df.columns if df[c].dtype.kind in "if"]
        if numcols:
            vals = [float(v) for v in df[numcols[0]].head(10)]
            res = SC(vals, k=5).run(tiny_index)
            assert tid in res.tables
            break


def test_sc_features(tiny_index, tiny_lake):
    tid = _group_member(tiny_lake)[0]
    col = list(tiny_lake.tables[tid].iloc[:, 0].head(7))
    s = SC(col, k=5)
    assert s.n_columns() == 1
    assert 0 < s.input_cardinality() <= 7
    assert s.avg_frequency(tiny_index) > 0


# --- KW -----------------------------------------------------------------

def test_kw_table_level_grouping(tiny_lake, tiny_index):
    """KW must find a table whose matches span multiple columns."""
    tid = _group_member(tiny_lake)[0]
    df = tiny_lake.tables[tid]
    kws = [df.iloc[0, 0], df.iloc[1, 1]]  # one value from each column
    res = KW(kws, k=10).run(tiny_index)
    assert tid in res.tables
    assert res.scores[tid] == 2.0


def test_kw_vs_sc_grouping_differs(tiny_lake, tiny_index):
    # same two values: SC groups per column so max overlap is 1
    tid = _group_member(tiny_lake)[0]
    df = tiny_lake.tables[tid]
    kws = [df.iloc[0, 0], df.iloc[1, 1]]
    sc = SC(kws, k=10).run(tiny_index)
    assert sc.scores.get(tid, 0) <= 1.0


def test_kw_empty(tiny_index):
    assert KW([], k=3).run(tiny_index).tables == []


def test_kw_sql_oracle(tiny_lake, tiny_index):
    tid = _group_member(tiny_lake)[0]
    df = tiny_lake.tables[tid]
    seeker = KW([df.iloc[0, 0], df.iloc[1, 1], df.iloc[2, 0]], k=50)
    spark_df = tiny_index.spark.sql(seeker.sql(tiny_index.view))
    assert_equivalent(spark_df, seeker.sql("idx"), idx=tiny_index.pdf)


def test_kw_tid_filter(tiny_lake, tiny_index):
    tid = _group_member(tiny_lake)[0]
    df = tiny_lake.tables[tid]
    res = KW([df.iloc[0, 0]], k=10).run(tiny_index, ("NOT IN", [tid]))
    assert tid not in res.tables


def test_kw_pushdown_counts_each_table_once(tiny_lake, tiny_index):
    """A one-KW Counter push-down returns each table of the KW's top-k
    once, with count 1."""
    tid = _group_member(tiny_lake)[0]
    df = tiny_lake.tables[tid]
    seeker = KW([df.iloc[0, 0]], k=10)
    res = CounterPushdown([seeker], k=10).run(tiny_index)
    assert tid in res.tables
    assert sorted(res.tables) == sorted(seeker.run(tiny_index).tables)
    assert set(res.scores.values()) == {1.0}
