"""The unified BLEND index: one relation ``AllTables`` (paper §V, Fig. 3).

``AllTables(CellValue, TableId, ColumnId, RowId, SuperKey, Quadrant)``
unifies three structures:

- the DataXFormer inverted index (CellValue -> TableId/ColumnId/RowId),
- MATE's XASH *super key* per (table, row) — see :mod:`repro.core.xash`,
- BLEND's reformulated QCR quadrant: a boolean per numeric cell that is
  True iff the cell is >= its column's mean (NULL for non-numeric cells).
  Unlike the original QCR index, the sketch size ``h`` is chosen at query
  time, not baked in at index time.

The index is materialized as a single Spark DataFrame, checkpointed in
memory and registered as a temp view so every seeker is plain Spark SQL
over it — the Spark/Catalyst engine plays the paper's in-DB optimizer
role.
Query time needs nothing else: no seeker reads the raw lake tables (MC
validates candidate rows from the values its own SQL returns), so a
shuffled index keeps no map from RowId back to the lake row.

Layout: the relation is hash-partitioned by ``TableId`` (one partition per
core). Every seeker groups or joins on a key set that contains
``TableId`` — SC groups by (TableId, ColumnId), KW by TableId, MC and C
join on (TableId, RowId) — so Catalyst finds each required distribution
already met and plans no ``Exchange``: a seeker runs as one Spark job.
The joins need ``spark.sql.requireAllClusterKeysForCoPartition`` off,
which :func:`repro.session.get_spark` sets; without it MC and C still
shuffle and give the same answers.

Plan leaf: ``localCheckpoint()`` stores the partitioned rows as blocks
(the index's one in-memory copy) and cuts the lineage, so the view's
plan is a ``LogicalRDD`` leaf that still reports
``HashPartitioning(TableId)``. Cached instead, the view's plan would hold
every index row, and Catalyst would analyze, optimize and cache-match all
of them in every seeker statement. The checkpoint reports its partitioning
only with adaptive query execution off, which ``get_spark`` also sets.

Ingest: ``get_spark`` sets ``spark.sql.execution.arrow.localRelationThreshold``
to 0, so ``createDataFrame`` hands the melted frame to Spark as Arrow
batches that tasks decode, for every lake size; below the default 48 MiB
(about 1.1 M index rows) Spark would build a ``LocalRelation`` holding
every row in the plan and ship it inside the repartition's tasks. The
checkpoint is lazy: the ``count`` that verifies the row total is the one
Spark job that decodes the batches, shuffles them by ``TableId``, stores
the checkpoint blocks and counts the rows. :meth:`BlendIndex.release` frees the blocks.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from ..lake.base import DataLake
from .values import norm_cell
from .xash import super_key

INDEX_SCHEMA = T.StructType(
    [
        T.StructField("CellValue", T.StringType(), False),
        T.StructField("TableId", T.IntegerType(), False),
        T.StructField("ColumnId", T.IntegerType(), False),
        T.StructField("RowId", T.IntegerType(), False),
        T.StructField("SuperKey", T.LongType(), False),
        T.StructField("Quadrant", T.BooleanType(), True),
    ]
)


def table_long_frame(
    tid: int, df: pd.DataFrame, *, row_perm: np.ndarray | None = None
) -> pd.DataFrame:
    """Melt one lake table into AllTables rows (pandas, offline phase).

    Rows come out column-major (all of column 0, then column 1, ...) with
    NULL cells left out. ``row_perm`` (optional) maps original row
    position -> RowId, used by the shuffled index variant (BLEND (rand),
    Table VII).
    """
    n, m = df.shape
    row_ids = np.arange(n) if row_perm is None else np.asarray(row_perm)
    normed = np.empty((m, n), dtype=object)
    quads = np.full((m, n), None, dtype=object)
    for j in range(m):
        s = df.iloc[:, j]
        normed[j] = [norm_cell(v) for v in s.tolist()]
        if pd.api.types.is_numeric_dtype(s) and s.notna().any():
            x = s.astype(float)
            valid = s.notna().to_numpy()
            # astype(object) turns numpy bools into Python bools
            quads[j, valid] = (x.to_numpy()[valid] >= float(x.mean())).astype(object)
    skeys = np.fromiter((super_key(row) for row in normed.T), dtype=np.int64, count=n)
    cells = normed.ravel()
    keep = pd.notna(cells)  # NULL cells match nothing; keep them out
    return pd.DataFrame(
        {
            "CellValue": cells[keep],
            "TableId": np.full(int(keep.sum()), tid, dtype=np.int64),
            "ColumnId": np.repeat(np.arange(m, dtype=np.int64), n)[keep],
            "RowId": np.tile(row_ids.astype(np.int64), m)[keep],
            "SuperKey": np.tile(skeys, m)[keep],
            "Quadrant": quads.ravel()[keep].tolist(),
        }
    )


def build_alltables_pdf(lake: DataLake, *, shuffle_rows: bool = False, seed: int = 0) -> pd.DataFrame:
    """Build the full AllTables relation in pandas. With ``shuffle_rows``
    each table's RowIds are a random permutation of its row positions."""
    g = np.random.default_rng(seed)
    parts = [
        table_long_frame(tid, df, row_perm=g.permutation(len(df)) if shuffle_rows else None)
        for tid, df in lake.tables.items()
    ]
    return pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(
        columns=[f.name for f in INDEX_SCHEMA.fields]
    )


@dataclass
class BlendIndex:
    """Handle over the materialized index + the statistics BLEND's
    optimizer uses (value frequencies for the cost model, §VII-B)."""

    spark: SparkSession
    df: DataFrame
    view: str
    lake: DataLake  # the source tables: samplers, baselines, the benchmark's checks
    pdf: pd.DataFrame  # pandas copy — powers the DuckDB oracle, storage and stats
    value_freq: pd.Series = field(repr=False, default=None)

    def avg_frequency(self, values: list[str]) -> float:
        """Average #occurrences in the lake of the given (normalized)
        values — the optimizer's third cost feature."""
        if not values:
            return 0.0
        return float(np.mean([self.value_freq.get(v, 0) for v in values]))

    def write_parquet(self, path: str) -> int:
        """Serialize the unified index to Parquet; returns bytes on disk.

        Rows are written as one file sorted by (TableId, ColumnId, RowId),
        so each row group's dictionaries and run lengths span few lake
        tables (written in hash-partition order, every row group would
        span every table). ``coalesce(1)`` sorts in one task without a
        shuffle; a global ``orderBy`` would write one file per shuffle
        partition."""
        (self.df.coalesce(1).sortWithinPartitions("TableId", "ColumnId", "RowId")
         .write.mode("overwrite").parquet(path))
        return dir_bytes(path)

    def release(self) -> None:
        """Free the checkpoint blocks that hold the index rows.

        ``df.unpersist()`` does not reach them: the blocks belong to the
        checkpointed RDD under the view's ``LogicalRDD`` leaf, which stays
        in memory until the JVM collects it. Neither the index nor a view
        still registered on it can be queried afterwards."""
        self.df._jdf.queryExecution().analyzed().rdd().unpersist(True)


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def build_index(
    spark: SparkSession,
    lake: DataLake,
    *,
    view: str = "AllTables",
    shuffle_rows: bool = False,
    seed: int = 0,
) -> BlendIndex:
    """Offline phase (paper Fig. 2e): build and register the unified index,
    hash-partitioned by ``TableId`` and checkpointed in one Spark job (see
    the module docstring)."""
    pdf = build_alltables_pdf(lake, shuffle_rows=shuffle_rows, seed=seed)
    sdf = (
        spark.createDataFrame(pdf, schema=INDEX_SCHEMA)
        .repartition(spark.sparkContext.defaultParallelism, "TableId")
        .localCheckpoint(eager=False)
    )
    sdf.createOrReplaceTempView(view)
    n = sdf.count()  # runs the ingest and fills the checkpoint
    assert n == len(pdf)
    freq = pdf["CellValue"].value_counts()
    return BlendIndex(
        spark=spark,
        df=sdf,
        view=view,
        lake=lake,
        pdf=pdf,
        value_freq=freq,
    )
