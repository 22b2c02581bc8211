"""Tests for the MC seeker (paper Listing 2 + validation)."""
import pandas as pd
import pytest

from repro.core import build_index
from repro.core.seekers import MC
from repro.core.values import norm_cell
from repro.core.xash import super_key
from repro.lake import sample_mc_query
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def mc_query(tiny_lake):
    q, src = sample_mc_query(tiny_lake, gid=0, n_rows=6, seed=20)
    return q, src


@pytest.fixture(scope="module")
def tiny_index_shuffled(spark, tiny_lake):
    index = build_index(spark, tiny_lake, view="TestTinyShuffled", shuffle_rows=True, seed=5)
    yield index
    index.release()


def _mc_reference(lake, query: pd.DataFrame, k: int, tids=None):
    """MC straight from the raw lake rows: a row is a candidate when it
    holds a value of every query column, survives the super-key check when
    its key covers some query tuple's key, and is a TP when its cells
    contain a whole query tuple (query rows with a NULL cell are no
    tuples). Returns (tables, scores, diagnostics) as ``MC.run`` does."""
    cols = [{c for c in map(norm_cell, query[col]) if c is not None} for col in query.columns]
    tuples = [[norm_cell(v) for v in row] for row in query.itertuples(index=False)]
    tuples = [(i, frozenset(t)) for i, t in enumerate(tuples) if None not in t]
    keys = [super_key(t) for _, t in tuples]
    n_sql = n_bloom = tp = 0
    matched, row_counts = {}, {}
    for tid, df in lake.tables.items():
        if tids is not None and tid not in tids:
            continue
        for row in df.itertuples(index=False):
            normed = [norm_cell(v) for v in row]
            cells = {c for c in normed if c is not None}
            if not all(cells & vals for vals in cols):
                continue
            n_sql += 1
            sk = super_key(normed)
            if keys and not any(sk & rk == rk for rk in keys):
                continue
            n_bloom += 1
            hit = {i for i, t in tuples if t <= cells}
            if hit:
                tp += 1
                matched.setdefault(tid, set()).update(hit)
                row_counts[tid] = row_counts.get(tid, 0) + 1
    ranked = sorted(matched, key=lambda t: (-len(matched[t]), -row_counts[t], t))[:k]
    diag = {"sql_rows": n_sql, "bloom_rows": n_bloom, "tp_rows": tp, "fp_rows": n_bloom - tp}
    return ranked, {t: float(len(matched[t])) for t in ranked}, diag


def _reference_queries(lake):
    """Sampled queries plus hand-made ones: a NULL cell, a query whose
    every row has a NULL cell, query columns that share values, three
    columns."""
    qs = [sample_mc_query(lake, gid=g, n_rows=n, seed=s)[0]
          for g, n, s in [(0, 6, 20), (1, 5, 21), (2, 8, 60), (None, 8, 61), (None, 4, 62)]]
    df = lake.tables[lake.meta["groups"][0][0]]
    q = qs[0].copy()
    q.iloc[1, 1] = None
    qs.append(q)
    # row 0 holds a value of each column but no query tuple: all FP
    qs.append(pd.DataFrame({"a": [df.iloc[0, 0], None], "b": [None, df.iloc[0, 1]]}))
    v0, v1 = df.iloc[0, 0], df.iloc[1, 0]
    qs.append(pd.DataFrame({
        "a": [v0, v1, v0, v0],
        "b": [df.iloc[0, 1], v0, v0, df.iloc[2, 1]],
    }))
    if df.shape[1] >= 3:
        qs.append(df.iloc[:5, [0, 1, 2]].reset_index(drop=True))
    return qs


def test_mc_matches_raw_lake_reference(tiny_lake, tiny_index):
    for q in _reference_queries(tiny_lake):
        res = MC(q, k=5).run(tiny_index)
        assert (res.tables, res.scores, res.diagnostics) == _mc_reference(tiny_lake, q, 5)


def test_mc_reference_with_tid_filter(tiny_lake, tiny_index):
    for q in _reference_queries(tiny_lake):
        keep = set(_mc_reference(tiny_lake, q, 1000)[0][1::2])
        res = MC(q, k=1000).run(tiny_index, ("IN", sorted(keep)))
        assert (res.tables, res.scores, res.diagnostics) == _mc_reference(tiny_lake, q, 1000, keep)


def test_mc_same_on_shuffled_index(tiny_lake, tiny_index, tiny_index_shuffled):
    """RowIds do not matter: a shuffled index gives the same tables,
    scores and diagnostics, with and without a TableId filter."""
    for q in _reference_queries(tiny_lake):
        seeker = MC(q, k=10)
        ids = seeker.run(tiny_index).tables
        for filt in (None, ("IN", ids[::2]), ("NOT IN", ids[:1])):
            a, b = seeker.run(tiny_index, filt), seeker.run(tiny_index_shuffled, filt)
            assert (a.tables, a.scores, a.diagnostics) == (b.tables, b.scores, b.diagnostics)


def test_mc_finds_source_table(mc_query, tiny_index):
    q, src = mc_query
    res = MC(q, k=10).run(tiny_index)
    assert src in res.tables


def test_mc_source_score_is_all_rows(mc_query, tiny_index):
    q, src = mc_query
    res = MC(q, k=10).run(tiny_index)
    # the source table contains every query tuple
    assert res.scores[src] == float(len(q.drop_duplicates()))


def test_mc_diagnostics_consistent(mc_query, tiny_index):
    q, _ = mc_query
    d = MC(q, k=10).run(tiny_index).diagnostics
    assert d["bloom_rows"] <= d["sql_rows"]
    assert d["tp_rows"] + d["fp_rows"] == d["bloom_rows"]
    assert d["tp_rows"] > 0


def test_mc_validation_catches_misaligned_rows(tiny_lake, tiny_index):
    """Tuples assembled from two different query rows must not count as TP
    unless a candidate row really contains one full query tuple."""
    q, _ = sample_mc_query(tiny_lake, gid=1, n_rows=5, seed=21)
    res = MC(q, k=10).run(tiny_index)
    for tid in res.tables:
        df = tiny_lake.tables[tid]
        tuples = [
            frozenset(norm_cell(v) for v in row.tolist())
            for _, row in q.iterrows()
        ]
        found = False
        for _, row in df.iterrows():
            cells = {c for c in (norm_cell(v) for v in row.tolist()) if c is not None}
            if any(t <= cells for t in tuples):
                found = True
                break
        assert found, f"table {tid} reported but contains no query tuple"


def test_mc_three_columns(tiny_lake, tiny_index):
    gid = 0
    tid = tiny_lake.meta["groups"][gid][0]
    df = tiny_lake.tables[tid]
    if len(df.columns) >= 3:
        q = df.iloc[:4, [0, 1, 2]].reset_index(drop=True)
    else:
        q = df.iloc[:4, [0, 1]].reset_index(drop=True)
    res = MC(q, k=10).run(tiny_index)
    assert tid in res.tables


def test_mc_tid_filter_in(mc_query, tiny_index):
    q, src = mc_query
    res = MC(q, k=10).run(tiny_index, ("IN", [src]))
    assert res.tables == [src]


def test_mc_tid_filter_not_in(mc_query, tiny_index):
    q, src = mc_query
    res = MC(q, k=10).run(tiny_index, ("NOT IN", [src]))
    assert src not in res.tables


def test_mc_sql_oracle(mc_query, tiny_index):
    """Listing 2's join phase executed by Spark must match DuckDB."""
    q, _ = mc_query
    seeker = MC(q, k=10)
    spark_df = tiny_index.spark.sql(seeker.sql(tiny_index.view))
    assert_equivalent(spark_df, seeker.sql("idx"), idx=tiny_index.pdf)


def test_mc_sql_requires_same_row(tiny_index, tiny_lake):
    """Values from different rows of the same table must NOT join."""
    tid = tiny_lake.meta["groups"][0][0]
    df = tiny_lake.tables[tid]
    # build a query whose tuple mixes row 0's col-0 with row 1's col-1;
    # SQL phase requires both values in the same candidate row
    q = pd.DataFrame({"a": [df.iloc[0, 0]], "b": [df.iloc[1, 1]]})
    res = MC(q, k=10).run(tiny_index)
    for t in res.tables:
        # if reported, some row really contains both values
        want = {norm_cell(df.iloc[0, 0]), norm_cell(df.iloc[1, 1])}
        tab = tiny_lake.tables[t]
        ok = any(
            want <= {c for c in (norm_cell(v) for v in row.tolist()) if c is not None}
            for _, row in tab.iterrows()
        )
        assert ok


def test_mc_empty_query(tiny_index):
    q = pd.DataFrame({"a": [], "b": []})
    res = MC(q, k=5).run(tiny_index)
    assert res.tables == []


def test_mc_features(mc_query, tiny_index):
    q, _ = mc_query
    s = MC(q, k=5)
    assert s.n_columns() == 2
    assert s.input_cardinality() == len(q)
    # product of per-column frequencies
    f = s.avg_frequency(tiny_index)
    assert f > 0


def test_mc_requires_all_columns(tiny_lake, tiny_index):
    """A query with one column full of absent values matches nothing."""
    q, _ = sample_mc_query(tiny_lake, gid=2, n_rows=4, seed=22)
    q = q.copy()
    q.iloc[:, 1] = [f"@@absent{i}@@" for i in range(len(q))]
    res = MC(q, k=10).run(tiny_index)
    assert res.tables == []
    assert res.diagnostics["sql_rows"] == 0
