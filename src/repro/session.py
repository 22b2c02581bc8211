"""The one SparkSession bootstrap shared by tests, benchmarks and jobs.

Local master, Arrow enabled, 8 shuffle partitions (the index fits in
memory), broadcast joins disabled (a broadcast is a Spark job of its own).
``requireAllClusterKeysForCoPartition`` is off so that a join on
``(TableId, RowId)`` accepts two sides that are both hash-partitioned on
``TableId`` alone: together with the index layout
(:func:`repro.core.index.build_index`) this lets every seeker run without
a shuffle exchange.

Master and driver memory are read at JVM launch, so they travel in
``PYSPARK_SUBMIT_ARGS`` (``SPARK_MASTER``, ``SPARK_DRIVER_MEM``); a caller
that set ``PYSPARK_SUBMIT_ARGS`` itself keeps its own.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str = "repro") -> SparkSession:
    """Create (or return) the process's SparkSession with the repo's settings."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.requireAllClusterKeysForCoPartition", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
