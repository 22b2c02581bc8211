"""Task 1 of Table III: data discovery with negative examples (§VIII-B2).

Find tables containing the positive example tuples but *not* any of the
negative example tuples. BLEND: two MC seekers + a Difference combiner
(5 LOC). Federated baseline: MATE for the positives, then row-by-row
application-level validation to drop every candidate table containing a
negative tuple — the validation loop is the paper's stated bottleneck.
"""
from __future__ import annotations

import time

import pandas as pd

from ..baselines.mate import Mate
from ..core.plan import Combiners, Plan, Seekers
from ..core.values import norm_cell
from ..lake.base import DataLake

def build_negative_examples_plan(examples: pd.DataFrame, negatives: pd.DataFrame, k: int = 10) -> Plan:
    plan = Plan()
    plan.add("pos", Seekers.MC(examples, k=5 * k))
    plan.add("neg", Seekers.MC(negatives, k=50 * k))
    plan.add("diff", Combiners.Difference(k=k), ["pos", "neg"])
    return plan


def baseline_negative_examples(
    lake: DataLake, mate: Mate, examples: pd.DataFrame, negatives: pd.DataFrame,
    k: int = 10, store=None,
) -> tuple[list[int], float]:
    """MATE + application-level row-by-row negative filtering (candidate
    tables are re-loaded across the system boundary when a ``store`` is
    given). Returns (result tables, wall seconds)."""
    t0 = time.perf_counter()
    res = mate.query(examples, k=5 * k)
    neg_tuples = []
    for _, row in negatives.iterrows():
        t = [norm_cell(v) for v in row.tolist()]
        if all(v is not None for v in t):
            neg_tuples.append(frozenset(t))
    out: list[int] = []
    for tid in res.tables:
        df = store.load(tid) if store is not None else lake.tables[tid]
        contains = False
        for _, row in df.iterrows():  # the row-by-row validation bottleneck
            cells = {c for c in (norm_cell(v) for v in row.tolist()) if c is not None}
            if any(t <= cells for t in neg_tuples):
                contains = True
                break
        if not contains:
            out.append(tid)
        if len(out) >= k:
            break
    return out, time.perf_counter() - t0
