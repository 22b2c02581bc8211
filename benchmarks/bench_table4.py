"""Benchmark for Table IV (optimizer effectiveness): the random-order
baseline must not beat the oracle order, and BLEND must sit between."""
from benchmarks.scales import bench_scale

from repro.harness.table4 import run_table4


def test_table4_optimizer(spark, benchmark):
    rows = benchmark.pedantic(
        run_table4, args=(spark,), kwargs={"scale": bench_scale()},
        rounds=1, iterations=1,
    )
    assert [r["Seeker"] for r in rows] == ["Mixed", "SC", "MC", "C"]
    for r in rows:
        assert r["Ideal (s)"] <= r["Rand (s)"] + 1e-9
        assert r["Ideal (s)"] <= r["BLEND (s)"] + 1e-9
