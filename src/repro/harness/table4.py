"""Table IV: optimizer effectiveness (§VIII-C).

N random plans of two seekers connected by an Intersection combiner.
For each plan both execution orders are run *with* query rewriting (the
second seeker is filtered by the first's tables):

- **Rand**  = mean of the two orders (expected runtime of a random pick),
- **BLEND** = the order the optimizer predicts (rules for mixed types,
  the learned cost model within a type) + the prediction overhead,
- **Ideal** = the faster order (oracle optimizer),
- **Accuracy** = fraction of plans where BLEND picked the faster order.
"""
from __future__ import annotations

import time

import numpy as np

from ..core import build_index
from ..core.cost_model import SAMPLERS, CostModel, rank_seekers, train_cost_model
from ..core.index import BlendIndex
from ..core.seekers import Seeker
from ..lake import DataLake, corr_lake, webtable_lake
from .common import mean

# bench: large enough that heavy queries (high-frequency values, wide MC
# joins with thousands of candidate rows to validate) genuinely cost more
# than light ones — otherwise ranking accuracy is indistinguishable from a
# coin flip at laptop scale.
SCALES = {
    "test": dict(n_groups=3, n_plans=4, n_train=4, entity_rows=200,
                 rows=(50, 120)),
    "bench": dict(n_groups=12, n_plans=16, n_train=12, entity_rows=500,
                  rows=(120, 280)),
}


def build_table4_lake(scale: str = "bench", seed: int = 200) -> DataLake:
    p = SCALES[scale]
    lake = webtable_lake(
        n_groups=p["n_groups"], tables_per_group=4, entity_rows=p["entity_rows"],
        rows_per_table=p["rows"], n_noise_tables=8, seed=seed,
    )
    lake.absorb(corr_lake(
        n_cat_queries=3, n_num_queries=1, n_keys=24, reps_per_key=12,
        candidates_per_query=6, n_distractors=3, seed=seed + 1,
    ))
    return lake


def _chain_seconds(index: BlendIndex, first: Seeker, second: Seeker) -> float:
    """Execute the 2-seeker EG in the given order with rewriting.
    Min of two runs — strips GC/compilation spikes that would otherwise
    drown the real cost difference between orders at laptop scale."""
    times = []
    for _ in range(2):
        r1 = first.run(index)
        r2 = second.run(index, ("IN", r1.tables))
        times.append(r1.seconds + r2.seconds)
    return min(times)


def _experiment(index: BlendIndex, cm: CostModel, kinds, n_plans: int, g) -> dict:
    rand_t, blend_t, ideal_t, hits = [], [], [], []
    for _ in range(n_plans):
        ka, kb = kinds(g)
        a, b = SAMPLERS[ka](index, g), SAMPLERS[kb](index, g)
        t_ab = _chain_seconds(index, a, b)
        t_ba = _chain_seconds(index, b, a)
        t0 = time.perf_counter()
        pred_first = rank_seekers([("a", a), ("b", b)], index, cm)[0][0]
        overhead = time.perf_counter() - t0
        t_pred = (t_ab if pred_first == "a" else t_ba) + overhead
        ideal = min(t_ab, t_ba)
        rand_t.append((t_ab + t_ba) / 2)
        blend_t.append(t_pred)
        ideal_t.append(ideal)
        hits.append(t_pred - overhead <= ideal + 1e-12)
    r, bl, i = mean(rand_t), mean(blend_t), mean(ideal_t)
    return {
        "Rand (s)": r,
        "BLEND (s)": bl,
        "Ideal (s)": i,
        "BLEND Gain": f"{100 * (r - bl) / r:.1f}%" if r else "-",
        "Ideal Gain": f"{100 * (r - i) / r:.1f}%" if r else "-",
        "BLEND Accuracy": f"{100 * mean([1.0 if h else 0.0 for h in hits]):.1f}%",
        "Ideal Accuracy": "100%",
    }


def run_table4(spark, scale: str = "bench", seed: int = 200) -> list[dict]:
    """Produce the Table IV rows (Mixed / SC / MC / C)."""
    p = SCALES[scale]
    g = np.random.default_rng(seed)
    lake = build_table4_lake(scale, seed)
    index = build_index(spark, lake, view="AllTablesT4")
    # offline training on random Qs drawn from the same lake and the same
    # query distribution (§VII-B); doubles as JVM/Catalyst warm-up
    cm = train_cost_model(index, n_per_type=p["n_train"], seed=seed + 7)

    def mixed(g):
        ks = ["KW", "SC", "C", "MC"]
        a, b = g.choice(len(ks), size=2, replace=False)
        return ks[int(a)], ks[int(b)]

    rows = []
    for label, kinds in [
        ("Mixed", mixed),
        ("SC", lambda g: ("SC", "SC")),
        ("MC", lambda g: ("MC", "MC")),
        ("C", lambda g: ("C", "C")),
    ]:
        row = {"Seeker": label}
        row.update(_experiment(index, cm, kinds, p["n_plans"], g))
        rows.append(row)
    index.release()
    return rows
