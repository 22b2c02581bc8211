"""Tests for the synthetic lake substrate (repro.lake.*)."""
import numpy as np
import pandas as pd
import pytest

from repro.lake import (
    DataLake,
    corr_lake,
    exact_topk,
    sample_mc_query,
    union_lake,
    webtable_lake,
)
from repro.lake.corr_bench import region_of
from repro.lake.domains import (
    ALL_DOMAINS,
    NUMERIC_DOMAINS,
    STRING_DOMAINS,
    sample_numeric,
    sample_string,
)


# --- domains ------------------------------------------------------------

def test_string_domains_nonempty_unique():
    for name, pool in STRING_DOMAINS.items():
        assert len(pool) > 0
        assert len(set(pool)) == len(pool), name


def test_domains_deterministic():
    from repro.lake import domains as d2
    assert STRING_DOMAINS["city"] == d2.STRING_DOMAINS["city"]


@pytest.mark.parametrize("dom", NUMERIC_DOMAINS)
def test_sample_numeric_shapes(dom):
    g = np.random.default_rng(0)
    out = sample_numeric(dom, 25, g)
    assert out.shape == (25,)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("dom", list(STRING_DOMAINS))
def test_sample_string_from_pool(dom):
    g = np.random.default_rng(0)
    vals = sample_string(dom, 30, g)
    assert len(vals) == 30
    assert set(vals) <= set(STRING_DOMAINS[dom])


def test_sample_numeric_unknown_domain():
    with pytest.raises(KeyError):
        sample_numeric("nope", 3, np.random.default_rng(0))


def test_all_domains_covers_both():
    assert set(NUMERIC_DOMAINS) <= set(ALL_DOMAINS)
    assert set(STRING_DOMAINS) <= set(ALL_DOMAINS)


# --- DataLake container -------------------------------------------------

def test_datalake_add_and_stats():
    lake = DataLake()
    t0 = lake.add("a", pd.DataFrame({"x": [1, 2], "y": ["u", "v"]}))
    t1 = lake.add("b", pd.DataFrame({"z": [3.0]}))
    assert (t0, t1) == (0, 1)
    assert lake.n_tables == 2
    assert lake.n_columns == 3
    assert lake.n_rows == 3


def test_datalake_stats_row():
    lake = DataLake()
    lake.add("a", pd.DataFrame({"x": [1]}))
    row = lake.stats_row("demo")
    assert row == {"Data lake": "demo", "Tables": 1, "Columns": 1, "Rows": 1}


def test_datalake_absorb_remaps_meta():
    a = webtable_lake(n_groups=2, tables_per_group=2, n_noise_tables=1, seed=5)
    b = union_lake(n_base=2, segments_per_base=3, rows_per_segment=10,
                   n_distractors=1, seed=6)
    n_a = a.n_tables
    a.absorb(b)
    # union gt/queries remapped past the webtable ids
    assert all(t >= n_a for t in a.meta["queries"])
    for q, gts in a.meta["gt"].items():
        assert q >= n_a and all(t >= n_a for t in gts)
    # webtable groups untouched
    assert all(t < n_a for members in a.meta["groups"].values() for t in members)


# --- webtable lake ------------------------------------------------------

def test_webtable_lake_structure(tiny_lake):
    assert tiny_lake.n_tables == 3 * 3 + 3
    assert set(tiny_lake.meta["groups"]) == {0, 1, 2}
    for gid, members in tiny_lake.meta["groups"].items():
        assert len(members) == 3


def test_webtable_lake_group_tables_share_key_values(tiny_lake):
    for gid, members in tiny_lake.meta["groups"].items():
        ent = tiny_lake.meta["entities"][gid]
        for tid in members:
            df = tiny_lake.tables[tid]
            # first two columns come from the entity's key columns
            assert set(df.iloc[:, 0]) <= set(ent.iloc[:, 0])
            assert set(df.iloc[:, 1]) <= set(ent.iloc[:, 1])


def test_webtable_lake_column_domains_cover_all_columns(tiny_lake):
    doms = tiny_lake.meta["column_domains"]
    for tid, df in tiny_lake.tables.items():
        for j in range(len(df.columns)):
            assert (tid, j) in doms


def test_webtable_lake_deterministic():
    a = webtable_lake(n_groups=2, tables_per_group=2, n_noise_tables=1, seed=7)
    b = webtable_lake(n_groups=2, tables_per_group=2, n_noise_tables=1, seed=7)
    assert a.tables.keys() == b.tables.keys()
    for tid in a.tables:
        pd.testing.assert_frame_equal(a.tables[tid], b.tables[tid])


def test_sample_mc_query_comes_from_group(tiny_lake):
    q, tid = sample_mc_query(tiny_lake, n_rows=5, seed=11)
    assert len(q.columns) == 2
    assert len(q) <= 5
    members = [m for g in tiny_lake.meta["groups"].values() for m in g]
    assert tid in members
    # query rows exist verbatim in the source table
    src = tiny_lake.tables[tid]
    merged = q.merge(src.iloc[:, [0, 1]].drop_duplicates(),
                     on=list(q.columns), how="inner")
    assert len(merged) >= len(q.drop_duplicates()) > 0


# --- union lake ---------------------------------------------------------

def test_union_lake_gt_symmetric(u_lake):
    gt = u_lake.meta["gt"]
    for t, others in gt.items():
        assert t not in others
        for o in others:
            assert t in gt[o]


def test_union_lake_gt_size(u_lake):
    # every segment is unionable with the other segments of its base
    for t, others in u_lake.meta["gt"].items():
        assert len(others) == 4 - 1


def test_union_lake_queries_are_first_segments(u_lake):
    assert len(u_lake.meta["queries"]) == 3
    for q in u_lake.meta["queries"]:
        assert q in u_lake.meta["gt"]
        assert q not in u_lake.meta["semantic"]  # queries are verbatim splits


def test_union_lake_semantic_segments_have_low_overlap(u_lake):
    # a semantic segment shares its base's schema but re-sampled values
    for tid in u_lake.meta["semantic"]:
        seg = u_lake.tables[tid]
        base_members = u_lake.meta["gt"][tid]
        verbatim = [t for t in base_members if t not in u_lake.meta["semantic"]]
        assert verbatim, "base must keep verbatim segments"
        other = u_lake.tables[sorted(verbatim)[0]]
        assert list(seg.columns) == list(other.columns)


def test_union_lake_distractors_not_in_gt(u_lake):
    gt_tables = set(u_lake.meta["gt"])
    distractors = set(u_lake.tables) - gt_tables
    assert len(distractors) == 4


# --- correlation lake ---------------------------------------------------

def test_corr_lake_query_structure(c_lake):
    qs = c_lake.meta["corr_queries"]
    assert len(qs) == 3
    kinds = [q["key_kind"] for q in qs]
    assert kinds.count("cat") == 2 and kinds.count("num") == 1
    for q in qs:
        assert len(q["keys"]) == 12
        assert set(q["target"]) == set(q["keys"])
        assert len(q["candidates"]) == 4


def test_corr_lake_numeric_keys_are_numeric_strings(c_lake):
    q = [q for q in c_lake.meta["corr_queries"] if q["key_kind"] == "num"][0]
    for k in q["keys"]:
        int(k)  # must parse


def test_corr_lake_rows_clustered_by_key(c_lake):
    # convenience-sampling handicap requires key-clustered rows: each key's
    # occurrences are contiguous (consecutive duplicates)
    q = c_lake.meta["corr_queries"][0]
    keys = list(c_lake.tables[q["candidates"][0]]["join_key"])
    first_seen = {}
    blocks = [k for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
    assert len(blocks) == len(set(keys))


def test_corr_lake_key_blocks_ordered_by_target(c_lake):
    # the block order correlates with the target (the biased "unknown
    # order" behind the convenience-sampling gap)
    q = c_lake.meta["corr_queries"][0]
    keys = list(c_lake.tables[q["candidates"][0]]["join_key"])
    blocks = [k for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
    targets = [q["target"][k] for k in blocks]
    assert targets == sorted(targets)


def test_corr_lake_region_deterministic(c_lake):
    q = c_lake.meta["corr_queries"][0]
    df = c_lake.tables[q["candidates"][0]]
    assert all(region_of(k) == r for k, r in zip(df["join_key"], df["region"]))


def test_exact_topk_ranks_planted_strength(c_lake):
    # candidate 0 is the strongest planted correlation, last candidates weakest
    for q in c_lake.meta["corr_queries"]:
        top = exact_topk(c_lake, q, k=4)
        assert top[0] == q["candidates"][0]


def test_exact_topk_k_truncates(c_lake):
    q = c_lake.meta["corr_queries"][0]
    assert len(exact_topk(c_lake, q, k=2)) == 2


def test_corr_lake_keys_disjoint_across_queries(c_lake):
    qs = c_lake.meta["corr_queries"]
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            assert not (set(qs[i]["keys"]) & set(qs[j]["keys"]))
