"""Smoke + shape tests for the per-table harnesses at test scale.

These are the integration tests behind Tables III–VIII: each harness must
produce its rows, and the *shape* invariants the paper claims (and that
are deterministic at tiny scale) must hold. Runtime-ordering claims are
exercised in benchmarks/, not asserted here (timing at test scale is
noise-dominated). Every harness must also release the indexes it
builds: the stored-RDD count after a run is no higher than before it.
"""
from pathlib import Path

import pytest

from repro.harness.common import fmt_markdown
from repro.harness.table3 import run_table3
from repro.harness.table4 import run_table4
from repro.harness.table5 import run_table5
from repro.harness.table6 import run_table6
from repro.harness.table7 import run_table7
from repro.harness.table8 import run_table8


def stored_rdds(spark) -> int:
    """RDDs with blocks held in the block manager (index checkpoints)."""
    return len(spark.sparkContext._jsc.sc().getRDDStorageInfo())


@pytest.fixture(scope="module")
def t3_run(spark):
    """Table III's rows, and the stored-RDD counts before and after the run."""
    before = stored_rdds(spark)
    rows = run_table3(spark, scale="test")
    return rows, before, stored_rdds(spark)


@pytest.fixture(scope="module")
def t3_rows(t3_run):
    return t3_run[0]


def test_table3_releases_its_index(t3_run):
    _rows, before, after = t3_run
    assert after <= before


def test_table3_rows(t3_rows):
    assert [r["Task"] for r in t3_rows] == [
        "With Negative Examples",
        "Data Imputation",
        "Feature Discovery",
        "Multi-Objective Discovery",
    ]
    for r in t3_rows:
        assert r["BLEND Runtime (s)"] > 0
        assert r["B-NO Runtime (s)"] > 0
        assert r["Baseline Runtime (s)"] > 0


def test_table3_loc_shape(t3_rows):
    for r in t3_rows:
        assert r["BLEND LOC"] < r["Baseline LOC"]
        assert r["# Indexes (BLEND/Baseline)"] == "Single/Multi"


def test_table4_rows(spark):
    before = stored_rdds(spark)
    rows = run_table4(spark, scale="test")
    assert stored_rdds(spark) <= before
    assert [r["Seeker"] for r in rows] == ["Mixed", "SC", "MC", "C"]
    for r in rows:
        assert r["Ideal (s)"] <= r["Rand (s)"] + 1e-9
        assert r["Ideal (s)"] <= r["BLEND (s)"] + 1e-9
        assert r["Ideal Accuracy"] == "100%"


def test_table5_rows(spark):
    before = stored_rdds(spark)
    rows = run_table5(spark, scale="test")
    assert stored_rdds(spark) <= before
    assert len(rows) == 2
    for r in rows:
        b_p = float(r["BLEND Precision"].rstrip("%"))
        m_p = float(r["MATE Precision"].rstrip("%"))
        assert b_p >= m_p  # the Table V shape
        assert r["MATE avg obtained rows"] >= r["BLEND avg obtained rows"]


def test_table6_rows(spark):
    before = stored_rdds(spark)
    rows = run_table6(spark, scale="test")
    assert stored_rdds(spark) <= before
    assert rows
    for r in rows:
        for col in ["BLEND P@k", "STARMIE P@k", "BLEND MAP", "STARMIE MAP"]:
            v = float(r[col].rstrip("%"))
            assert 0.0 <= v <= 100.0


def test_table7_rows(spark):
    before = stored_rdds(spark)
    rows = run_table7(spark, scale="test")
    assert stored_rdds(spark) <= before
    assert [r["Benchmark"] for r in rows] == ["NYC (All)-like", "NYC (Cat.)-like"]
    allr, catr = rows
    k = [c for c in allr if c.startswith("BLEND P@")][0].split("@")[1]
    # the baseline's numeric-key blindness: Cat >= All for the baseline
    base_all = float(allr[f"Baseline P@{k}"].rstrip("%"))
    base_cat = float(catr[f"Baseline P@{k}"].rstrip("%"))
    assert base_cat >= base_all
    # BLEND handles numeric keys, so it beats the baseline on All
    blend_all = float(allr[f"BLEND P@{k}"].rstrip("%"))
    assert blend_all >= base_all


def test_table8_rows(spark, tmp_path):
    before = stored_rdds(spark)
    rows = run_table8(spark, scale="test", outdir=str(tmp_path))
    assert stored_rdds(spark) <= before
    assert len(rows) == 3
    for r in rows:
        # the Pr.3 storage claim: unified index < sum of stand-alone indexes
        assert r["BLEND (MB)"] < r["Combination of S.O.T.A. (MB)"]


def test_tables_job_titles_match_results():
    """``jobs/tables.py N`` regenerates ``results/tableN_*.txt``: it knows
    exactly Tables III–VIII, and each prints its committed file's header."""
    from jobs.tables import TABLES

    assert sorted(TABLES) == [3, 4, 5, 6, 7, 8]
    results = Path(__file__).resolve().parent.parent / "results"
    for n, (title, _run) in TABLES.items():
        (path,) = results.glob(f"table{n}_*.txt")
        assert path.read_text(encoding="utf-8").splitlines()[0] == f"## {title}"


def test_fmt_markdown():
    out = fmt_markdown([{"A": 1, "B": 0.5}, {"A": 2, "B": 1.25}])
    assert out.splitlines()[0] == "| A | B |"
    assert "0.500" in out
