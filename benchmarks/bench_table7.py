"""Benchmark for Table VII (correlation discovery): BLEND must beat the
categorical-only sketch baseline once numeric join keys are in play."""
from benchmarks.scales import bench_scale

from repro.harness.table7 import run_table7


def test_table7_correlation(spark, benchmark):
    rows = benchmark.pedantic(
        run_table7, args=(spark,), kwargs={"scale": bench_scale("bench")},
        rounds=1, iterations=1,
    )
    allr = [r for r in rows if r["Benchmark"].startswith("NYC (All)")][0]
    k = [c for c in allr if c.startswith("BLEND P@")][0].split("@")[1]
    blend_all = float(allr[f"BLEND P@{k}"].rstrip("%"))
    base_all = float(allr[f"Baseline P@{k}"].rstrip("%"))
    assert blend_all > base_all  # numeric-key support pays off on NYC (All)
