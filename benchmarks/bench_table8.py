"""Benchmark for Table VIII (index storage): the unified index must be
smaller than the combination of stand-alone indexes on every lake (Pr.3)."""
from benchmarks.scales import bench_scale

from repro.harness.table8 import run_table8


def test_table8_index_size(spark, benchmark):
    rows = benchmark.pedantic(
        run_table8, args=(spark,), kwargs={"scale": bench_scale("bench")},
        rounds=1, iterations=1,
    )
    assert len(rows) == 3
    for r in rows:
        assert r["BLEND (MB)"] < r["Combination of S.O.T.A. (MB)"]
