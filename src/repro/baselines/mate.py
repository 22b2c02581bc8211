"""MATE-style stand-alone multi-column join discovery (paper baseline [24]
for §VIII-E / Table V and the federated pipelines of Table III).

Pipeline, as described in the paper and the MATE original:

1. *initial filtering*: fetch candidate rows whose **most selective single
   query column** has a value match (posting lists);
2. *XASH super-key Bloom check*: prune candidates whose super key cannot
   cover any full query tuple;
3. *row-by-row exact validation* in application code — the bottleneck the
   paper repeatedly blames for the baseline's runtime.

MATE's original XASH is 128 bits over wide web-table rows; scaled to our
small lakes the baseline uses a 32-bit key with 2 bits per value
(:mod:`repro.core.xash` docstring) so the Bloom filter's false-positive
behaviour — the quantity Table V measures — stays proportionate. BLEND's
MC seeker instead requires *every* query column to match in the same row
via its SQL join, which is why its candidate set (and FP count) is orders
of magnitude smaller (§VIII-E).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd

from ..core.values import norm_cell, norm_values
from ..core.xash import super_key
from ..lake.base import DataLake

MATE_BITS = 32
MATE_K = 2


@dataclass
class MateResult:
    tables: list[int]
    seconds: float
    candidates: int  # rows fetched by the initial single-column filter
    obtained_rows: int  # rows surviving the Bloom check (paper: "obtained")
    tp_rows: int
    fp_rows: int


@dataclass
class Mate:
    """Stand-alone system #2: its own XASH index over the lake.

    ``store`` (optional, a :class:`repro.baselines.store.CsvStore`)
    simulates the cross-system row loading a federated deployment pays
    during validation; without it rows are read directly from memory."""

    lake: DataLake
    store: object | None = None
    postings: dict[str, list[tuple[int, int]]] = field(default_factory=dict, repr=False)
    superkeys: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for tid, df in self.lake.tables.items():
            cells = [[norm_cell(v) for v in df[c].tolist()] for c in df.columns]
            for i in range(len(df)):
                row_vals = [cells[j][i] for j in range(len(df.columns))]
                self.superkeys[(tid, i)] = super_key(
                    (v for v in row_vals if v is not None), MATE_BITS, MATE_K
                )
                for v in dict.fromkeys(v for v in row_vals if v is not None):  # first-seen order
                    self.postings.setdefault(v, []).append((tid, i))

    def query(self, query: pd.DataFrame, k: int = 10) -> MateResult:
        t0 = time.perf_counter()
        col_values = [norm_values(query[c]) for c in query.columns]
        tuples: list[frozenset[str]] = []
        for _, row in query.iterrows():
            t = [norm_cell(v) for v in row.tolist()]
            if all(v is not None for v in t):
                tuples.append(frozenset(t))
        required = [super_key(t, MATE_BITS, MATE_K) for t in tuples]

        # 1. initial filtering on the most selective query column
        def posting_size(vals: list[str]) -> int:
            return sum(len(self.postings.get(v, ())) for v in vals)

        init = min(range(len(col_values)), key=lambda j: posting_size(col_values[j]))
        cand: set[tuple[int, int]] = set()
        for v in col_values[init]:
            cand.update(self.postings.get(v, ()))

        # 2. XASH Bloom check against every query tuple's required bits
        obtained = [
            loc
            for loc in cand
            if any((self.superkeys[loc] & r) == r for r in required)
        ]

        # 3. row-by-row exact validation (application level — the paper's
        # bottleneck: load the row, normalize, compare). With a store,
        # each candidate table is (re)loaded across the system boundary.
        loaded: dict[int, pd.DataFrame] = {}

        def _table(tid: int) -> pd.DataFrame:
            if tid not in loaded:
                loaded[tid] = (
                    self.store.load(tid) if self.store is not None else self.lake.tables[tid]
                )
            return loaded[tid]

        tp = 0
        matched: dict[int, set[int]] = {}
        row_counts: dict[int, int] = {}
        for tid, i in obtained:
            row = _table(tid).iloc[i]
            cells = {c for c in (norm_cell(v) for v in row.tolist()) if c is not None}
            hit = [qi for qi, t in enumerate(tuples) if t <= cells]
            if hit:
                tp += 1
                matched.setdefault(tid, set()).update(hit)
                row_counts[tid] = row_counts.get(tid, 0) + 1
        ranked = sorted(matched, key=lambda t: (-len(matched[t]), -row_counts[t], t))[:k]
        return MateResult(
            tables=ranked,
            seconds=time.perf_counter() - t0,
            candidates=len(cand),
            obtained_rows=len(obtained),
            tp_rows=tp,
            fp_rows=len(obtained) - tp,
        )
