"""Seeker operators (paper §IV-A, §VI): SQL over the unified index.

A seeker is one Spark SQL statement over the ``AllTables`` view, mirroring
Listings 1–3 of the paper, plus a pure ranking of the rows that statement
returns. :meth:`Seeker.run` is the one execution path: it builds the SQL,
collects its rows and hands them to the type's ``_rank``. The SQL has a
rewrite hook (``tid_filter``, rendered by ``_tid_predicate``) where the
optimizer injects combiner-dependent predicates (``TableId IN (...)`` /
``NOT IN (...)``, §VII-B "Query rewriting"). The optimizer's Counter
push-down is a seeker too, :class:`CounterPushdown`, whose SQL wraps its
members' SQL.

MC's exact validation needs no raw lake rows: its SQL projects the matched
value of every query column, so the candidate rows come back with the
value combinations they hold.

Seekers return ranked table lists. Ordering is made deterministic with
(score DESC, TableId ASC) tie-breaks so the optimizer's Theorem-1 property
(output invariance) is testable.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .index import BlendIndex
from .values import norm_cell, norm_values, sql_in_list
from .xash import super_key

TidFilter = tuple[str, list[int]] | None  # ("IN" | "NOT IN", table ids)


def _tid_predicate(tid_filter: TidFilter, qualifier: str = "") -> str:
    """Render the rewrite predicate. Empty string when no rewrite."""
    if tid_filter is None:
        return ""
    op, ids = tid_filter
    col = f"{qualifier}TableId"
    if not ids:
        # empty intermediate result: IN () matches nothing, NOT IN () everything
        return f"AND 1=0 " if op == "IN" else ""
    return f"AND {col} {op} ({', '.join(str(int(t)) for t in ids)}) "


@dataclass
class SeekerResult:
    """Outcome of one seeker execution."""

    tables: list[int]
    scores: dict[int, float]
    sql: str
    seconds: float
    diagnostics: dict = field(default_factory=dict)


def _dedupe_topk(rows: list[tuple[int, float]], k: int) -> tuple[list[int], dict[int, float]]:
    """Collapse ranked (TableId, score) rows to distinct tables, keeping
    first-seen (= best) score, truncated to k tables."""
    tables, scores = [], {}
    for tid, s in rows:
        if tid not in scores:
            tables.append(tid)
            scores[tid] = float(s)
            if len(tables) >= k:
                break
    return tables, scores


class Seeker:
    """Base class: cost-model features and the one execution path.

    A subclass supplies ``sql``, ``_rank`` and its features;
    ``avg_frequency`` reads ``q``, the normalized query values."""

    type_name: str = "?"
    k: int = 10

    # --- features used by the optimizer (§VII-B Learning-based cost est.)
    def input_cardinality(self) -> int:
        raise NotImplementedError

    def n_columns(self) -> int:
        raise NotImplementedError

    def avg_frequency(self, index: BlendIndex) -> float:
        return index.avg_frequency(self.q)

    # --- SQL generation and ranking of its result rows
    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        raise NotImplementedError

    def _rank(self, rows: list) -> tuple[list[int], dict[int, float], dict]:
        """(ranked tables, scores, diagnostics) from the SQL's result rows."""
        raise NotImplementedError

    def run(self, index: BlendIndex, tid_filter: TidFilter = None) -> SeekerResult:
        t0 = time.perf_counter()
        sql = self.sql(index.view, tid_filter)
        tables, scores, diagnostics = self._rank(index.spark.sql(sql).collect())
        return SeekerResult(tables, scores, sql, time.perf_counter() - t0, diagnostics)


class _Overlap(Seeker):
    """SC and KW: tables ranked by how many query values they contain."""

    def input_cardinality(self) -> int:
        return len(self.q)

    def n_columns(self) -> int:
        return 1

    def _rank(self, rows: list) -> tuple[list[int], dict[int, float], dict]:
        return (*_dedupe_topk([(r.TableId, r.overlap) for r in rows], self.k), {})


@dataclass
class SC(_Overlap):
    """Single-column join seeker — paper Listing 1.

    Finds tables with a column overlapping the query column the most
    (COUNT(DISTINCT CellValue) per (TableId, ColumnId))."""

    values: list
    k: int = 10
    type_name: str = "SC"

    def __post_init__(self):
        self.q = norm_values(self.values)

    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        return (
            "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS overlap\n"
            f"FROM {view}\n"
            f"WHERE CellValue IN ({sql_in_list(self.q)}) {_tid_predicate(tid_filter)}\n"
            "GROUP BY TableId, ColumnId\n"
            "ORDER BY overlap DESC, TableId ASC, ColumnId ASC\n"
            f"LIMIT {self.k}"
        )


@dataclass
class KW(_Overlap):
    """Keyword seeker — SC without ColumnId in the GROUP BY (§VI):
    overlap is counted over whole tables, not single columns."""

    keywords: list
    k: int = 10
    type_name: str = "KW"

    def __post_init__(self):
        self.q = norm_values(self.keywords)

    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        return (
            "SELECT TableId, COUNT(DISTINCT CellValue) AS overlap\n"
            f"FROM {view}\n"
            f"WHERE CellValue IN ({sql_in_list(self.q)}) {_tid_predicate(tid_filter)}\n"
            "GROUP BY TableId\n"
            "ORDER BY overlap DESC, TableId ASC\n"
            f"LIMIT {self.k}"
        )


@dataclass
class MC(Seeker):
    """Multi-column join seeker — paper Listing 2 + validation.

    SQL: one subquery per query column, joined on (TableId, RowId) —
    candidate rows containing *some* value from every query column. Each
    subquery keeps the value it matched, projected as ``V1…Vn``, so the
    join emits one row per value combination a candidate row holds.
    Ranking (as in MATE/the paper): the super key prunes rows whose value
    combination cannot match any query tuple, then exact validation keeps
    a row when one of its combinations *is* a query tuple — the row then
    contains that tuple. Diagnostics count distinct candidate rows and
    expose the TP/FP counts behind Table V.
    """

    query: pd.DataFrame  # columns = composite key columns
    k: int = 10
    type_name: str = "MC"

    def __post_init__(self):
        self.col_values: list[list[str]] = [
            norm_values(self.query[c]) for c in self.query.columns
        ]
        # normalized query tuple -> the query rows holding it (rows with
        # a NULL cell are dropped)
        self.tuple_rows: dict[frozenset[str], list[int]] = {}
        for i, row in enumerate(self.query.itertuples(index=False)):
            t = [norm_cell(v) for v in row]
            if all(v is not None for v in t):
                self.tuple_rows.setdefault(frozenset(t), []).append(i)
        self.row_superkeys = [super_key(t) for t in self.tuple_rows]

    def input_cardinality(self) -> int:
        return len(self.query)

    def n_columns(self) -> int:
        return len(self.query.columns)

    def avg_frequency(self, index: BlendIndex) -> float:
        # the MC SQL joins the per-column hit sets, hence the *product*
        # of per-column average frequencies (§VII-B)
        f = 1.0
        for vals in self.col_values:
            f *= max(index.avg_frequency(vals), 1e-9)
        return f

    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        subs = []
        for j, vals in enumerate(self.col_values):
            filt = _tid_predicate(tid_filter) if j == 0 else ""  # Example 2: filter Q1
            cols = "TableId, RowId, SuperKey, CellValue" if j == 0 else "TableId, RowId, CellValue"
            subs.append(
                f"(SELECT DISTINCT {cols} FROM {view}\n"
                f"  WHERE CellValue IN ({sql_in_list(vals)}) {filt}) Q{j + 1}"
            )
        joins = subs[0]
        for j in range(1, len(subs)):
            joins += (
                f"\nJOIN {subs[j]}"
                f"\n  ON Q1.TableId = Q{j + 1}.TableId AND Q1.RowId = Q{j + 1}.RowId"
            )
        values = ", ".join(f"Q{j + 1}.CellValue AS V{j + 1}" for j in range(len(subs)))
        return (
            "SELECT Q1.TableId AS TableId, Q1.RowId AS RowId, Q1.SuperKey AS SuperKey,\n"
            f"       {values}\n"
            f"FROM {joins}"
        )

    def _rank(self, rows: list) -> tuple[list[int], dict[int, float], dict]:
        # (TableId, RowId) -> (SuperKey, value combinations of that row)
        cand: dict[tuple[int, int], tuple[int, set]] = {}
        for tid, row_id, sk, *vals in rows:
            cand.setdefault((tid, row_id), (sk, set()))[1].add(frozenset(vals))
        keys = list(cand)
        n_sql = len(keys)
        # --- super-key Bloom filtering, once per candidate row
        if n_sql and self.row_superkeys:
            sk = np.array([cand[c][0] for c in keys], dtype=np.int64)
            keep = np.zeros(n_sql, dtype=bool)
            for rk in self.row_superkeys:
                keep |= (sk & rk) == rk
            keys = [c for c, kp in zip(keys, keep) if kp]
        # --- exact validation: a row holds a query tuple iff the join
        # emitted the combination taking that tuple's value from every Qj
        tp_rows = 0
        matched: dict[int, set[int]] = {}  # tid -> matched query-row indices
        row_counts: dict[int, int] = {}
        for tid, row_id in keys:
            hit = [i for t in cand[(tid, row_id)][1] for i in self.tuple_rows.get(t, ())]
            if hit:
                tp_rows += 1
                matched.setdefault(tid, set()).update(hit)
                row_counts[tid] = row_counts.get(tid, 0) + 1
        ranked = sorted(
            matched, key=lambda t: (-len(matched[t]), -row_counts[t], t)
        )[: self.k]
        scores = {t: float(len(matched[t])) for t in ranked}
        diagnostics = {
            "sql_rows": n_sql,
            "bloom_rows": len(keys),
            "tp_rows": tp_rows,
            "fp_rows": len(keys) - tp_rows,
        }
        return ranked, scores, diagnostics


@dataclass
class C(Seeker):
    """Correlation seeker — paper Listing 3.

    Input: aligned (join key, numerical target) columns. Keys are split
    into k0 (target below its mean) and k1 (target >= mean) *before* the
    query. The SQL joins key hits with numeric cells of the same row and
    computes QCR = |2*(n_I + n_III) - N| / N in one pass. ``h`` rows are
    sampled at query time via ``RowId < h`` — *convenience* sampling on
    the vanilla index, true random sampling when the index was built with
    ``shuffle_rows=True`` (BLEND (rand), Table VII)."""

    join_values: list
    target_values: list
    k: int = 10
    h: int = 256
    #: minimum |QCR| for a triplet to count as "correlating". 0 = faithful
    #: to Listing 3 (pure top-k). The feature-discovery task sets it >0 as
    #: its multicollinearity cutoff: at paper scale top-k over millions of
    #: tables implicitly thresholds strength; at laptop scale an explicit
    #: cutoff is needed for the Difference chain to be meaningful.
    min_qcr: float = 0.0
    type_name: str = "C"

    def __post_init__(self):
        pairs = [
            (norm_cell(j), v)
            for j, v in zip(self.join_values, self.target_values)
            if norm_cell(j) is not None and v is not None and not pd.isna(v)
        ]
        # de-duplicate keys (keep first target observation per key)
        seen: dict[str, float] = {}
        for kk, v in pairs:
            seen.setdefault(kk, float(v))
        mean = float(np.mean(list(seen.values()))) if seen else 0.0
        self.k0 = [kk for kk, v in seen.items() if v < mean]
        self.k1 = [kk for kk, v in seen.items() if v >= mean]

    @property
    def q(self) -> list[str]:
        return self.k0 + self.k1

    def input_cardinality(self) -> int:
        return len(self.k0) + len(self.k1)

    def n_columns(self) -> int:
        return 2

    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        k0l, k1l = sql_in_list(self.k0), sql_in_list(self.k1)
        return (
            "SELECT jk.TableId AS TableId, jk.ColumnId AS KeyCol,\n"
            "       num.ColumnId AS NumCol,\n"
            "       ABS(CAST(2.0 AS DOUBLE) * SUM(CASE\n"
            f"             WHEN (jk.CellValue IN ({k1l}) AND num.Quadrant)\n"
            f"               OR (jk.CellValue IN ({k0l}) AND NOT num.Quadrant)\n"
            "             THEN 1 ELSE 0 END) - COUNT(*)) / COUNT(*) AS qcr\n"
            f"FROM (SELECT TableId, ColumnId, RowId, CellValue FROM {view}\n"
            f"      WHERE CellValue IN ({sql_in_list(self.q)})\n"
            f"        AND RowId < {self.h} {_tid_predicate(tid_filter)}) jk\n"
            f"JOIN (SELECT TableId, ColumnId, RowId, Quadrant FROM {view}\n"
            f"      WHERE Quadrant IS NOT NULL AND RowId < {self.h}) num\n"
            "  ON jk.TableId = num.TableId AND jk.RowId = num.RowId\n"
            " AND jk.ColumnId != num.ColumnId\n"
            "GROUP BY jk.TableId, jk.ColumnId, num.ColumnId\n"
            "ORDER BY qcr DESC, TableId ASC, KeyCol ASC, NumCol ASC\n"
            f"LIMIT {self.k}"
        )

    def _rank(self, rows: list) -> tuple[list[int], dict[int, float], dict]:
        hits = [(r.TableId, r.qcr) for r in rows if r.qcr >= self.min_qcr]
        return (*_dedupe_topk(hits, self.k), {})


@dataclass
class CounterPushdown(Seeker):
    """The Counter combiner over SC/KW seekers, pushed into the index
    (§VII-B): one ``UNION ALL … GROUP BY TableId`` statement in which each
    member contributes each table of its top-k once, as the app-level
    Counter counts it. Ranked by count, then TableId."""

    members: list[_Overlap]
    k: int = 10
    type_name: str = "Counter"

    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        inner = "\nUNION ALL\n".join(
            f"(SELECT DISTINCT TableId FROM (\n{m.sql(view, tid_filter)}\n))"
            for m in self.members
        )
        return (
            f"SELECT TableId, COUNT(*) AS cnt FROM (\n{inner}\n) hits\n"
            "GROUP BY TableId\n"
            f"ORDER BY cnt DESC, TableId ASC\nLIMIT {self.k}"
        )

    def _rank(self, rows: list) -> tuple[list[int], dict[int, float], dict]:
        return [r.TableId for r in rows], {r.TableId: float(r.cnt) for r in rows}, {}


#: rule-based ranking order (§VII-B Rules 1–3): KW first, MC last, SC over C
TYPE_RANK = {"KW": 0, "SC": 1, "C": 2, "MC": 3}
