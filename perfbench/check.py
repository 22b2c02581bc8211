"""Output checks, all outside the timed region.

- Every SQL statement an operation sent to Spark is captured with the rows
  Spark returned, then re-run on DuckDB over the same ``AllTables`` rows
  and compared in ``repro.oracle``'s canonical form.
- Every plan is run again with ``optimize=False`` (B-NO, the unoptimized
  baseline) and its ``result`` compared with the optimized one. A
  difference is reported as ``bno_mismatch_frac``, not as a failure. B-NO
  runs on DuckDB: output invariance is a property of the executor, not of
  the engine, and the engines' agreement is checked statement by statement.
- The index the operations run on is checked by one aggregate statement
  per table. On Spark and on DuckDB (over the frame Spark ingested) it must
  agree on every column; and its cell count, distinct values, columns and
  ColumnId and RowId sums must equal those computed here from the lake's
  tables, so a cell the melt loses, duplicates or misnumbers shows.
"""
from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, field

import duckdb
import pandas as pd

from repro.core import execute_plan
from repro.core.values import norm_cell
from repro.oracle import _canon

#: per-table aggregates that change when any index row is lost, added or altered
INDEX_CHECK_SQL = (
    "SELECT TableId, COUNT(*) AS n, COUNT(DISTINCT CellValue) AS dv,\n"
    "       COUNT(DISTINCT ColumnId) AS nc,\n"
    "       SUM(ColumnId) AS cs, SUM(RowId) AS rs, BIT_XOR(SuperKey) AS sk,\n"
    "       SUM(CASE WHEN Quadrant THEN 1 ELSE 0 END) AS q1,\n"
    "       SUM(CASE WHEN Quadrant IS NULL THEN 1 ELSE 0 END) AS qn\n"
    "FROM {view} GROUP BY TableId"
)
#: the columns of that statement the lake's tables determine on their own
LAKE_COLUMNS = ["TableId", "n", "dv", "nc", "cs", "rs"]


@dataclass
class Statement:
    """One statement an operation ran on Spark, and what Spark returned."""

    op: int
    sql: str
    columns: list[str] | None
    rows: object  # list of Rows from collect(), or a pandas frame
    seeker: str | None = None  # type of the enclosing seeker call, when traced

    def frame(self) -> pd.DataFrame:
        if isinstance(self.rows, pd.DataFrame):
            return self.rows
        return pd.DataFrame([tuple(r) for r in self.rows], columns=self.columns)


@dataclass
class Capture:
    """Collects the statements of the current operation."""

    statements: list[Statement] = field(default_factory=list)
    op: int = -1
    tracer: object = None

    def add(self, sql, columns, rows) -> None:
        seeker = self.tracer.current_seeker() if self.tracer is not None else None
        self.statements.append(Statement(self.op, sql, columns, rows, seeker))


class RecordingSession:
    """Stands in for ``BlendIndex.spark``: forwards ``sql`` to Spark and
    records each statement's result as the program collects it."""

    def __init__(self, spark, capture: Capture, tracer):
        self._spark, self._capture, self._tracer = spark, capture, tracer

    def sql(self, text: str):
        with self._tracer.span("spark.sql"):
            df = self._spark.sql(text)
        return _RecordingFrame(df, text, self._capture, self._tracer)

    def __getattr__(self, name):
        return getattr(self._spark, name)


class _RecordingFrame:
    def __init__(self, df, text, capture, tracer):
        self._df, self._text, self._capture, self._tracer = df, text, capture, tracer

    def collect(self):
        with self._tracer.span("spark.collect") as sp:
            rows = self._df.collect()
            sp.attrs["rows"] = len(rows)
        self._capture.add(self._text, self._df.columns, rows)
        return rows

    def toPandas(self):
        with self._tracer.span("spark.collect") as sp:
            pdf = self._df.toPandas()
            sp.attrs["rows"] = len(pdf)
        self._capture.add(self._text, None, pdf)
        return pdf

    def __getattr__(self, name):
        return getattr(self._df, name)


class DuckOracle:
    """DuckDB over a copy of the index rows, under the Spark view's name."""

    def __init__(self, pdf: pd.DataFrame, view: str):
        self.view = view
        self.con = duckdb.connect()
        self.con.register("index_rows", pdf)
        self.con.execute(f"CREATE TABLE {view} AS SELECT * FROM index_rows")
        self.con.unregister("index_rows")

    def run(self, sql: str) -> tuple[pd.DataFrame, float]:
        t0 = time.perf_counter()
        out = self.con.execute(sql).fetchdf()
        return out, time.perf_counter() - t0

    def close(self) -> None:
        self.con.close()


def same_rows(got: pd.DataFrame, expected: pd.DataFrame) -> bool:
    """Equality in ``repro.oracle``'s canonical form."""
    if set(got.columns) != set(expected.columns) or len(got) != len(expected):
        return False
    try:
        pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)
    except AssertionError:
        return False
    return True


def check_statements(oracle: DuckOracle, statements: list[Statement]):
    """Re-run each statement on DuckDB. Returns the ids of operations with
    a mismatch or an error, and (op, seeker type, DuckDB seconds) for each
    statement a traced seeker call made."""
    bad, timings = set(), []
    for st in statements:
        try:
            expected, secs = oracle.run(st.sql)
            ok = same_rows(st.frame(), expected)
        except Exception as e:  # a statement DuckDB rejects fails its operation
            print(f"# check: op {st.op}: {type(e).__name__}: {e}")
            ok, secs = False, None
        if not ok:
            bad.add(st.op)
            print(f"# check: op {st.op}: Spark and DuckDB differ on: " + " ".join(st.sql.split()))
        elif st.seeker is not None:
            timings.append((st.op, st.seeker, secs))
    return bad, timings


class DuckSession:
    """Stands in for ``BlendIndex.spark`` with DuckDB as the engine."""

    def __init__(self, oracle: DuckOracle):
        self._oracle = oracle

    def sql(self, text: str) -> "_DuckFrame":
        return _DuckFrame(self._oracle.run(text)[0])


class _DuckFrame:
    def __init__(self, pdf: pd.DataFrame):
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self._pdf

    def collect(self) -> list:
        row = namedtuple("Row", self._pdf.columns)
        return [row(*t) for t in self._pdf.itertuples(index=False)]


def bno_mismatch(plan, duck_index, optimized_result: list[int]) -> bool:
    """True when B-NO's ``result`` differs from the optimized ``result``."""
    return execute_plan(plan, duck_index, optimize=False).result != optimized_result


def lake_index_stats(lake) -> pd.DataFrame:
    """The index check's lake-derived columns, from the raw tables: per
    table, the non-null normalized cells, their distinct values, the
    columns holding any, and the sums of their column and row positions."""
    rows = []
    for tid, df in lake.tables.items():
        cells = [(j, i, c) for j, col in enumerate(df.columns)
                 for i, c in enumerate(norm_cell(v) for v in df[col].tolist()) if c is not None]
        if not cells:
            continue  # a table of NULLs has no index rows
        rows.append((tid, len(cells), len({c for _, _, c in cells}), len({j for j, _, _ in cells}),
                     sum(j for j, _, _ in cells), sum(i for _, i, _ in cells)))
    return pd.DataFrame(rows, columns=LAKE_COLUMNS)


def check_index(index, oracle: DuckOracle) -> bool:
    """Compare the cached Spark index with DuckDB over the ingested frame,
    and with the lake's tables it was built from."""
    sql = INDEX_CHECK_SQL.format(view=index.view)
    got = index.spark.sql(sql).toPandas()
    return (same_rows(got, oracle.run(sql)[0])
            and same_rows(got[LAKE_COLUMNS], lake_index_stats(index.lake)))
