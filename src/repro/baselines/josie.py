"""JOSIE-style stand-alone single-column join discovery (paper baseline
[69] for §VIII-D and the federated pipelines of Table III).

The real JOSIE is written in Go against PostgreSQL posting lists with
cost-based candidate pruning; its *output* is the exact top-k columns by
set overlap with the query column. We reproduce that output with the same
index skeleton — value -> (table, column) posting lists merged at query
time — which is what the federated baselines in Table III glue together
with application code. (The paper itself notes BLEND's and Josie's outputs
are identical, §VIII-D.)
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.values import norm_cell, norm_values
from ..lake.base import DataLake


@dataclass
class JosieResult:
    columns: list[tuple[int, int, int]]  # (TableId, ColumnId, overlap)
    tables: list[int]
    seconds: float


@dataclass
class Josie:
    """Stand-alone system #1: its own posting-list index over the lake."""

    lake: DataLake
    postings: dict[str, list[tuple[int, int]]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for tid, df in self.lake.tables.items():
            for cid, col in enumerate(df.columns):
                # first-seen order: the postings, and so their Parquet
                # size (Table VIII), must not follow the Python hash seed
                for v in dict.fromkeys(norm_cell(x) for x in df[col].tolist()):
                    if v is not None:
                        self.postings.setdefault(v, []).append((tid, cid))

    def query(self, values: list, k: int = 10) -> JosieResult:
        """Top-k columns by distinct-value overlap with the query column."""
        t0 = time.perf_counter()
        q = norm_values(values)
        overlap: dict[tuple[int, int], int] = {}
        for v in q:
            for loc in self.postings.get(v, ()):
                overlap[loc] = overlap.get(loc, 0) + 1
        ranked = sorted(overlap.items(), key=lambda it: (-it[1], it[0]))[:k]
        cols = [(t, c, o) for (t, c), o in ranked]
        tables, seen = [], set()
        for t, _, _ in cols:
            if t not in seen:
                seen.add(t)
                tables.append(t)
        return JosieResult(cols, tables, time.perf_counter() - t0)
