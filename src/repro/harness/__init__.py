"""Experiment harnesses, one per paper table (III–VIII). Each exposes a
``run_tableN(spark, scale=...)`` returning the table's rows as dicts;
``jobs/tables.py N [scale]`` prints table N and ``benchmarks/`` times them."""
