"""Task 3 of Table III: multicollinearity-aware feature discovery
(§VIII-B4).

Find tables with columns correlating with the prediction target but *not*
with any existing feature (to avoid multicollinearity), restricted to
tables joinable on the composite key. BLEND: one correlation seeker for
the target, one per existing feature, chained Difference combiners, and
an MC seeker joined via Intersection (7 LOC). Federated baseline:
multiple QCR rounds + MATE + Python filtering/alignment.
"""
from __future__ import annotations

import time

import pandas as pd

from ..baselines.mate import Mate
from ..baselines.qcr import QcrSketch
from ..core.plan import Combiners, Plan, Seekers

def build_feature_discovery_plan(
    join_values: list, target: list, features: list[list], key_query: pd.DataFrame, k: int = 10
) -> Plan:
    plan = Plan()
    plan.add("target", Seekers.Correlation(join_values, target, k=5 * k))
    prev = "target"
    for i, feat in enumerate(features):
        plan.add(f"feat{i}", Seekers.Correlation(join_values, feat, k=5 * k, min_qcr=0.5))
        plan.add(f"diff{i}", Combiners.Difference(k=5 * k), [prev, f"feat{i}"])
        prev = f"diff{i}"
    plan.add("mc", Seekers.MC(key_query, k=5 * k))
    plan.add("out", Combiners.Intersect(k=k), [prev, "mc"])
    return plan


def baseline_feature_discovery(
    qcr: QcrSketch,
    mate: Mate,
    join_values: list,
    target: list,
    features: list[list],
    key_query: pd.DataFrame,
    k: int = 10,
) -> tuple[list[int], float]:
    """Multiple QCR rounds + MATE joinability + app-level filtering and
    result alignment (the glue code the paper counts against the
    federation: per-pair score aggregation across QCR's column-pair
    output, threshold conversion, and rank-preserving intersection)."""
    t0 = time.perf_counter()
    res_t = qcr.query(join_values, target, k=5 * k)
    # QCR emits (table, cat col, num col, score) pairs; aggregate to the
    # best score per table, preserving the ranking order
    best: dict[int, float] = {}
    for tid, _cj, _nj, s in res_t.pairs:
        if tid not in best or s > best[tid]:
            best[tid] = s
    result = sorted(best, key=lambda t: (-best[t], t))
    for feat in features:  # one QCR round per existing feature
        res_f = qcr.query(join_values, feat, k=5 * k)
        # sketch agreement ~ (QCR+1)/2, so 0.75 matches BLEND's 0.5 cutoff
        collinear = set()
        for tid, _cj, _nj, s in res_f.pairs:
            if s >= 0.75:
                collinear.add(tid)
        result = [t for t in result if t not in collinear]
    res_m = mate.query(key_query, k=5 * k)
    mset = set(res_m.tables)
    out = [t for t in result if t in mset][:k]
    return out, time.perf_counter() - t0
