"""Task 4 of Table III: multi-objective data discovery (§VIII-B5).

The Listing-4 plan minus the imputation sub-plan: keyword search + union
search (SC per column + Counter) + correlation search, aggregated by a
Union combiner (8 LOC). Federated baseline: three systems — Josie for
the keyword/value look-ups, Starmie for union search, the QCR sketches
for correlation — each with its own index, glued in Python.
"""
from __future__ import annotations

import time

import pandas as pd

from ..baselines.josie import Josie
from ..baselines.qcr import QcrSketch
from ..baselines.starmie import Starmie
from ..core.plan import Combiners, Plan, Seekers

def build_multi_objective_plan(
    keywords: list, examples: pd.DataFrame, join_values: list, target: list, k: int = 10
) -> Plan:
    plan = Plan()
    plan.add("kw", Seekers.KW(keywords, k=k))
    for clm in examples.columns:
        plan.add(str(clm), Seekers.SC(list(examples[clm]), k=100))
    plan.add("counter", Combiners.Counter(k=k), [str(c) for c in examples.columns])
    plan.add("correlation", Seekers.Correlation(join_values, target, k=k))
    plan.add("union", Combiners.Union(k=4 * k), ["kw", "counter", "correlation"])
    return plan


def baseline_multi_objective(
    josie: Josie,
    starmie: Starmie,
    qcr: QcrSketch,
    keywords: list,
    examples_tid: int,
    join_values: list,
    target: list,
    k: int = 10,
) -> tuple[list[int], float]:
    """Josie (keywords) + Starmie (union) + QCR (correlation) + Python
    union of the three result sets."""
    t0 = time.perf_counter()
    kw_tables = josie.query(keywords, k=k).tables
    union_tables = starmie.query(examples_tid, k=k).tables
    corr_tables = qcr.query(join_values, target, k=k).tables
    out, seen = [], set()
    for tabs in (kw_tables, union_tables, corr_tables):
        for t in tabs:
            if t not in seen:
                seen.add(t)
                out.append(t)
    return out[: 4 * k], time.perf_counter() - t0
