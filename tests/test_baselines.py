"""Tests for the stand-alone baseline systems (repro.baselines)."""
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

import repro
from repro.baselines import CsvStore, Josie, Mate, QcrSketch, Starmie
from repro.lake import exact_topk, sample_mc_query


# --- Josie --------------------------------------------------------------

def test_josie_self_retrieval(tiny_lake):
    j = Josie(tiny_lake)
    tid = tiny_lake.meta["groups"][0][0]
    res = j.query(list(tiny_lake.tables[tid].iloc[:, 0]), k=5)
    assert res.tables[0] == tid
    assert res.columns[0][0] == tid and res.columns[0][1] == 0


def test_josie_overlap_counts_distinct(tiny_lake):
    j = Josie(tiny_lake)
    tid = tiny_lake.meta["groups"][0][0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    res = j.query(col, k=5)
    n_distinct = len(set(c for c in col))
    top = [c for c in res.columns if c[0] == tid and c[1] == 0][0]
    assert top[2] == n_distinct


def test_josie_matches_blend_sc(tiny_lake, tiny_index):
    """Paper §VIII-D: BLEND's SC output and Josie's are identical."""
    from repro.core.seekers import SC

    tid = tiny_lake.meta["groups"][1][0]
    col = list(tiny_lake.tables[tid].iloc[:, 0])
    jt = Josie(tiny_lake).query(col, k=10).tables
    bt = SC(col, k=10).run(tiny_index).tables
    assert set(jt[:3]) == set(bt[:3])


def test_josie_empty_query(tiny_lake):
    assert Josie(tiny_lake).query([], k=5).tables == []


def test_josie_k(tiny_lake):
    res = Josie(tiny_lake).query(list(tiny_lake.tables[0].iloc[:, 0]), k=2)
    assert len(res.columns) <= 2


# --- MATE ---------------------------------------------------------------

def test_mate_self_retrieval(tiny_lake):
    m = Mate(tiny_lake)
    q, src = sample_mc_query(tiny_lake, gid=0, n_rows=5, seed=41)
    res = m.query(q, k=10)
    assert src in res.tables


def test_mate_diagnostics(tiny_lake):
    m = Mate(tiny_lake)
    q, _ = sample_mc_query(tiny_lake, gid=0, n_rows=5, seed=42)
    res = m.query(q, k=10)
    assert res.obtained_rows <= res.candidates
    assert res.tp_rows + res.fp_rows == res.obtained_rows


def test_mate_recall_subsumes_blend(tiny_lake, tiny_index):
    """Bloom property: MATE's TP tables must include BLEND's MC tables."""
    from repro.core.seekers import MC

    q, _ = sample_mc_query(tiny_lake, gid=1, n_rows=6, seed=43)
    mt = Mate(tiny_lake).query(q, k=100).tables
    bt = MC(q, k=100).run(tiny_index).tables
    assert set(bt) <= set(mt)


def test_mate_fp_rate_exceeds_blend(tiny_lake, tiny_index):
    """The Table V shape: MATE passes at least as many non-joinable rows
    to validation as BLEND (its filter is single-column + small Bloom)."""
    from repro.core.seekers import MC

    fp_m = fp_b = 0
    for seed in range(44, 50):
        q, _ = sample_mc_query(tiny_lake, n_rows=6, seed=seed)
        fp_m += Mate(tiny_lake).query(q, k=100).fp_rows
        fp_b += MC(q, k=100).run(tiny_index).diagnostics["fp_rows"]
    assert fp_m >= fp_b


def test_mate_with_store(tiny_lake):
    m = Mate(tiny_lake, store=CsvStore(tiny_lake))
    q, src = sample_mc_query(tiny_lake, gid=2, n_rows=4, seed=51)
    assert src in m.query(q, k=10).tables


# --- QCR sketch ---------------------------------------------------------

def test_qcr_finds_planted_correlation(c_lake):
    qcr = QcrSketch(c_lake, h=256)
    q = [q for q in c_lake.meta["corr_queries"] if q["key_kind"] == "cat"][0]
    keys = q["keys"]
    res = qcr.query(keys, [q["target"][k] for k in keys], k=5)
    assert res.tables
    assert res.tables[0] in exact_topk(c_lake, q, k=3)


def test_qcr_numeric_keys_unsupported(c_lake):
    """The baseline's structural limitation (Table VII NYC (All) gap)."""
    q = [q for q in c_lake.meta["corr_queries"] if q["key_kind"] == "num"][0]
    keys = q["keys"]
    res = QcrSketch(c_lake, h=256).query(keys, [q["target"][k] for k in keys], k=5)
    assert res.tables == []


def test_qcr_sketch_size_bounded(c_lake):
    qcr = QcrSketch(c_lake, h=16)
    assert all(len(s) <= 16 for s in qcr.sketches.values())


def test_qcr_quadratic_pairs(c_lake):
    """One sketch per (cat col x num col) pair — the storage overhead."""
    qcr = QcrSketch(c_lake, h=8)
    tid = c_lake.meta["corr_queries"][0]["candidates"][0]
    pairs = [k for k in qcr.sketches if k[0] == tid]
    # corr candidates: 2 cat cols (join_key, region) x 3 num cols
    assert len(pairs) == 6


def test_qcr_empty_query(c_lake):
    res = QcrSketch(c_lake, h=8).query([], [], k=5)
    assert res.tables == []


def test_qcr_scores_sorted(c_lake):
    qcr = QcrSketch(c_lake, h=64)
    q = [q for q in c_lake.meta["corr_queries"] if q["key_kind"] == "cat"][0]
    keys = q["keys"]
    res = qcr.query(keys, [q["target"][k] for k in keys], k=10)
    scores = [s for *_, s in res.pairs]
    assert scores == sorted(scores, reverse=True)


# --- Starmie ------------------------------------------------------------

def test_starmie_finds_unionable(u_lake):
    # misencode=0: isolate the embedding quality from encoder failures
    star = Starmie(u_lake, noise=0.2, misencode=0.0, seed=1)
    q = u_lake.meta["queries"][0]
    res = star.query(q, k=5)
    gt = u_lake.meta["gt"][q]
    assert len(set(res.tables) & gt) >= 3


def test_starmie_misencoding_degrades_tail(u_lake):
    """Encoder failures push some unionable tables out of the ranking —
    the mechanism behind the paper's large-k crossover (Table VI)."""
    clean = Starmie(u_lake, noise=0.2, misencode=0.0, seed=1)
    lossy = Starmie(u_lake, noise=0.2, misencode=0.9, seed=1)
    hits_clean = hits_lossy = 0
    for q in u_lake.meta["queries"]:
        gt = u_lake.meta["gt"][q]
        hits_clean += len(set(clean.query(q, k=10).tables) & gt)
        hits_lossy += len(set(lossy.query(q, k=10).tables) & gt)
    assert hits_clean > hits_lossy


def test_starmie_excludes_self(u_lake):
    star = Starmie(u_lake)
    q = u_lake.meta["queries"][0]
    assert q not in star.query(q, k=50).tables


def test_starmie_sees_semantic_segments(u_lake):
    """Zero-overlap (semantic) segments are still retrieved — the paper's
    rationale for Starmie's k=10 advantage."""
    star = Starmie(u_lake, noise=0.2, seed=1)
    hits = 0
    for q in u_lake.meta["queries"]:
        sem = u_lake.meta["gt"][q] & u_lake.meta["semantic"]
        if sem:
            found = set(star.query(q, k=8).tables)
            hits += len(found & sem)
    assert hits > 0


def test_starmie_noise_degrades_ranking(u_lake):
    low = Starmie(u_lake, noise=0.05, seed=1)
    high = Starmie(u_lake, noise=2.5, seed=1)
    q = u_lake.meta["queries"][1]
    gt = u_lake.meta["gt"][q]
    hit_low = len(set(low.query(q, k=5).tables) & gt)
    hit_high = len(set(high.query(q, k=5).tables) & gt)
    assert hit_low >= hit_high


def test_starmie_scores_sorted(u_lake):
    star = Starmie(u_lake)
    res = star.query(u_lake.meta["queries"][0], k=10)
    vals = [res.scores[t] for t in res.tables]
    assert vals == sorted(vals, reverse=True)


# --- posting order (Table VIII sizes) ----------------------------------

SRC = os.path.dirname(os.path.dirname(repro.__file__))
_POSTINGS_DIGEST = """
import hashlib
from repro.baselines import Josie, Mate
from repro.lake import webtable_lake
lake = webtable_lake(n_groups=2, tables_per_group=2, n_noise_tables=2, seed=5)
h = hashlib.md5()
for system in (Josie(lake), Mate(lake)):
    h.update(repr(list(system.postings.items())).encode())
print(h.hexdigest())
"""


def test_postings_order_independent_of_hash_seed():
    """Josie's and MATE's postings, and so their Parquet files, come out in
    one order whatever the Python hash seed."""
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", _POSTINGS_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


# --- CsvStore -----------------------------------------------------------

def test_store_roundtrip(tiny_lake):
    store = CsvStore(tiny_lake)
    tid = next(iter(tiny_lake.tables))
    df = store.load(tid)
    assert list(df.columns) == list(tiny_lake.tables[tid].columns)
    assert len(df) == len(tiny_lake.tables[tid])


def test_store_returns_fresh_objects(tiny_lake):
    store = CsvStore(tiny_lake)
    tid = next(iter(tiny_lake.tables))
    assert store.load(tid) is not store.load(tid)
