"""Benchmark workload-scale selection."""
import os


def bench_scale(default: str = "test") -> str:
    """Benchmark workload scale; override with REPRO_BENCH_SCALE=bench to
    time the full Table-reproduction workloads (the numbers recorded in
    EXPERIMENTS.md come from ``jobs/tables.py N bench``)."""
    return os.environ.get("REPRO_BENCH_SCALE", default)
