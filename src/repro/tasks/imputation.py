"""Task 2 of Table III: example-based data imputation (§VIII-B3).

Discover tables containing the complete example rows (functional
dependency evidence) AND the incomplete rows' known values. BLEND: one MC
seeker + one SC seeker + an Intersection combiner — the exact data-
imputation sub-plan of Fig. 4 / Listing 4 lines 10–12, and the subject of
the paper's Example 2 rewrite (SC first, MC restricted to SC's tables).
Federated baseline: MATE + Josie + Python intersection.
"""
from __future__ import annotations

import time

import pandas as pd

from ..baselines.josie import Josie
from ..baselines.mate import Mate
from ..core.plan import Combiners, Plan, Seekers

def build_imputation_plan(examples: pd.DataFrame, queries: list, k: int = 10) -> Plan:
    plan = Plan()
    plan.add("examples", Seekers.MC(examples, k=k))
    plan.add("query", Seekers.SC(queries, k=k))
    plan.add("intersection", Combiners.Intersect(k=k), ["examples", "query"])
    return plan


def baseline_imputation(
    mate: Mate, josie: Josie, examples: pd.DataFrame, queries: list, k: int = 10
) -> tuple[list[int], float]:
    """MATE (complete rows) + Josie (partial rows) + app-level intersect."""
    t0 = time.perf_counter()
    res_m = mate.query(examples, k=k)
    res_j = josie.query(queries, k=k)
    jset = set(res_j.tables)
    out = [t for t in res_m.tables if t in jset][:k]
    return out, time.perf_counter() - t0
