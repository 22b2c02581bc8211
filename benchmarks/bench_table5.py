"""Benchmark for Table V (MC precision vs MATE): BLEND's aligned SQL join
must dominate MATE's single-column + Bloom filtering on precision and
pass far fewer rows to validation."""
from benchmarks.scales import bench_scale

from repro.harness.table5 import run_table5


def test_table5_mc_precision(spark, benchmark):
    rows = benchmark.pedantic(
        run_table5, args=(spark,), kwargs={"scale": bench_scale("bench")},
        rounds=1, iterations=1,
    )
    for r in rows:
        b_p = float(r["BLEND Precision"].rstrip("%"))
        m_p = float(r["MATE Precision"].rstrip("%"))
        assert b_p >= m_p
        assert r["MATE avg obtained rows"] >= r["BLEND avg obtained rows"]
