"""The one SparkSession bootstrap shared by tests, benchmarks and jobs.

Local master, Arrow enabled, 8 shuffle partitions (the index fits in
memory), broadcast joins disabled (a broadcast is a Spark job of its own).
``requireAllClusterKeysForCoPartition`` is off so that a join on
``(TableId, RowId)`` accepts two sides that are both hash-partitioned on
``TableId`` alone: together with the index layout
(:func:`repro.core.index.build_index`) this lets every seeker run without
a shuffle exchange.

Adaptive query execution is off. Under it the checkpointed index reports
no partitioning, and each seeker plans exchanges and runs several jobs
again; a seeker has no shuffle left for it to adapt.

``inSetConversionThreshold`` is 1, so every ``IN`` list of two or more
literals is planned as an ``InSet``, and ``inSetSwitchThreshold`` is 0, so
an ``InSet`` over integers (the optimizer's ``TableId IN`` / ``NOT IN``
rewrites) is a hash set too, not a ``switch`` over its values. The values
then live outside the generated Java: whole-stage codegen reuses its
compiled classes across queries that differ only in their values, instead
of compiling fresh code for each.

``arrow.localRelationThreshold`` is 0, so ``createDataFrame`` of a pandas
frame always sends its Arrow batches to tasks, as Spark already does above
the default 48 MiB. Below it Spark would turn the frame into a
``LocalRelation`` that holds every row in the plan: building the index
would then ship every index row inside the tasks of its ``TableId``
repartition, and the ingest of a small lake would take another path than
that of a large one.

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
        .config("spark.sql.shuffle.partitions", 8)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.execution.arrow.localRelationThreshold", 0)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.requireAllClusterKeysForCoPartition", "false")
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.optimizer.inSetConversionThreshold", 1)
        .config("spark.sql.optimizer.inSetSwitchThreshold", 0)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
