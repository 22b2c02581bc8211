"""Benchmark for Table VI (union-search quality vs the Starmie sim)."""
from benchmarks.scales import bench_scale

from repro.harness.table6 import run_table6


def test_table6_union_quality(spark, benchmark):
    rows = benchmark.pedantic(
        run_table6, args=(spark,), kwargs={"scale": bench_scale("bench")},
        rounds=1, iterations=1,
    )
    assert rows
    # at the largest k, syntactic overlap counting (BLEND) must be at
    # least competitive with the noisy semantic baseline (the paper's
    # "BLEND wins at large k" shape), averaged over lakes
    import statistics
    big_k = max(r["k"] for r in rows)
    at_big = [r for r in rows if r["k"] == big_k]
    blend = statistics.mean(float(r["BLEND P@k"].rstrip("%")) for r in at_big)
    star = statistics.mean(float(r["STARMIE P@k"].rstrip("%")) for r in at_big)
    assert blend >= star - 5.0
