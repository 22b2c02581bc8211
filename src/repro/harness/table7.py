"""Table VII: correlation-based discovery — BLEND (convenience sampling),
BLEND (rand) (pre-shuffled index) and the QCR sketch baseline (§VIII-G).

NYC (Cat.) = queries with categorical join keys only (the baseline's
supported case). NYC (All) additionally draws numeric join keys, which
the sketch baseline cannot index — the gap the paper reports. Ground
truth is the exact |Pearson| top-k, as in the paper.
"""
from __future__ import annotations

from ..baselines import QcrSketch
from ..core import build_index
from ..core.seekers import C
from ..lake import corr_lake, exact_topk
from ..lake.base import DataLake
from ..evalx.metrics import precision_at_k, recall_at_k
from .common import mean, pct

# bench: candidates_per_query (20) is well above k (10) so precision
# reflects ranking quality, not mere candidate retrieval; reps_per_key=20
# gives ~512 rows/table so the h=256 sampling clause genuinely binds
# (convenience prefix covers only ~half the keys of a key-sorted table).
SCALES = {
    "test": dict(n_cat=2, n_num=1, n_keys=12, reps=6, cands=6, distract=2, h=32, k=3),
    "bench": dict(n_cat=5, n_num=5, n_keys=32, reps=20, cands=20, distract=5, h=256, k=10),
}


def _blend_topk(index, query: dict, k: int, h: int) -> list[int]:
    keys = query["keys"]
    target = [query["target"][kk] for kk in keys]
    seeker = C(keys, target, k=6 * k, h=h)  # extra triplets, dedupe to k tables
    return seeker.run(index).tables[:k]


def build_table7_lake(scale: str = "bench", seed: int = 500) -> DataLake:
    p = SCALES[scale]
    return corr_lake(
        n_cat_queries=p["n_cat"], n_num_queries=p["n_num"], n_keys=p["n_keys"],
        reps_per_key=p["reps"], candidates_per_query=p["cands"],
        n_distractors=p["distract"], seed=seed,
    )


def run_table7(spark, scale: str = "bench", seed: int = 500) -> list[dict]:
    p = SCALES[scale]
    k, h = p["k"], p["h"]
    lake = build_table7_lake(scale, seed)
    index = build_index(spark, lake, view="AllTablesT7")
    index_rand = build_index(
        spark, lake, view="AllTablesT7R", shuffle_rows=True, seed=seed + 1
    )
    qcr = QcrSketch(lake, h=h)

    per_q = []
    for query in lake.meta["corr_queries"]:
        gt = exact_topk(lake, query, k)
        keys = query["keys"]
        target = [query["target"][kk] for kk in keys]
        sys_ranked = {
            "BLEND": _blend_topk(index, query, k, h),
            "BLEND (rand)": _blend_topk(index_rand, query, k, h),
            "Baseline": qcr.query(keys, target, k=k).tables,
        }
        per_q.append((query["key_kind"], sys_ranked, gt))
    index.release()
    index_rand.release()

    rows = []
    for bench, kinds in [("NYC (All)-like", {"cat", "num"}), ("NYC (Cat.)-like", {"cat"})]:
        sel = [(s, gt) for kind, s, gt in per_q if kind in kinds]
        row = {"Benchmark": bench, "queries": len(sel)}
        for sysname in ["BLEND", "BLEND (rand)", "Baseline"]:
            row[f"{sysname} P@{k}"] = pct(
                mean(precision_at_k(s[sysname], gt, k) for s, gt in sel)
            )
            row[f"{sysname} R@{k}"] = pct(
                mean(recall_at_k(s[sysname], gt, k) for s, gt in sel)
            )
        rows.append(row)
    return rows
