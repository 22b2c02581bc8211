"""Table VI: union-search quality — BLEND's union plan vs Starmie
(§VIII-F).

BLEND's union plan = one SC seeker per query column + a Counter combiner
(pushed down in-DB by the optimizer). Starmie is the semantic-embedding
simulation. Ground truth comes from the TUS-style split construction
(segments of the same base are unionable; the query table is excluded
from both results and ground truth).

k values are scaled to our lake size: each base has 25 unionable
neighbours, so k in {10, 20, 50} plays the role of the paper's
{10, 20, 50/100} against ground-truth sets of ~25.
"""
from __future__ import annotations

from ..baselines import Starmie
from ..core import build_index, execute_plan
from ..evalx.metrics import average_precision_at_k, precision_at_k, recall_at_k
from ..lake import union_lake
from ..tasks import build_union_plan
from .common import mean, pct

SCALES = {
    "test": dict(ks=(3, 5), lakes={
        "santos-like": dict(n_base=3, segments_per_base=4, rows_per_segment=15,
                            semantic_frac=0.25, n_distractors=4),
    }),
    "bench": dict(ks=(10, 20, 50), lakes={
        "santos-like": dict(n_base=8, segments_per_base=26, rows_per_segment=22,
                            semantic_frac=0.30, n_distractors=20),
        "tus-like": dict(n_base=10, segments_per_base=26, rows_per_segment=18,
                         semantic_frac=0.35, n_distractors=30),
        "tus-large-like": dict(n_base=12, segments_per_base=26, rows_per_segment=18,
                               semantic_frac=0.35, n_distractors=50),
    }),
}


def run_table6(spark, scale: str = "bench", seed: int = 400) -> list[dict]:
    p = SCALES[scale]
    ks = p["ks"]
    rows = []
    for li, (label, params) in enumerate(p["lakes"].items()):
        lake = union_lake(seed=seed + li, **params)
        index = build_index(spark, lake, view=f"AllTablesT6{li}")
        star = Starmie(lake)
        blend_ranked, star_ranked, gts = [], [], []
        for q in lake.meta["queries"]:
            examples = lake.tables[q]
            plan = build_union_plan(examples, k=max(ks) + 1, k_sc=3 * max(ks))
            res = execute_plan(plan, index, optimize=True)
            blend_ranked.append([t for t in res.result if t != q][: max(ks)])
            star_ranked.append(star.query(q, k=max(ks)).tables)
            gts.append(lake.meta["gt"][q])
        index.release()
        for k in ks:
            rows.append(
                {
                    "Lake": label,
                    "k": k,
                    "BLEND P@k": pct(mean(precision_at_k(r, g, k) for r, g in zip(blend_ranked, gts))),
                    "BLEND Recall": pct(mean(recall_at_k(r, g, k) for r, g in zip(blend_ranked, gts))),
                    "BLEND MAP": pct(mean(average_precision_at_k(r, g, k) for r, g in zip(blend_ranked, gts))),
                    "STARMIE P@k": pct(mean(precision_at_k(r, g, k) for r, g in zip(star_ranked, gts))),
                    "STARMIE Recall": pct(mean(recall_at_k(r, g, k) for r, g in zip(star_ranked, gts))),
                    "STARMIE MAP": pct(mean(average_precision_at_k(r, g, k) for r, g in zip(star_ranked, gts))),
                }
            )
    return rows
