"""Table V: multi-column join precision — BLEND's MC seeker vs MATE
(§VIII-E).

A TP is a candidate row that truly contains a full query tuple; an FP is
a row that reached validation but is not joinable. BLEND's SQL requires
every query column to match in the same row, so only super-key/alignment
collisions survive; MATE's single-column initial filter + small XASH
Bloom passes far more rows. Recall is 100% for both by the Bloom-filter
property (no false negatives), as the paper notes.
"""
from __future__ import annotations

import numpy as np

from ..baselines import CsvStore, Mate
from ..core import build_index
from ..core.seekers import MC
from ..lake import sample_mc_query, webtable_lake
from .common import mean

SCALES = {
    "test": dict(n_q=3, dwtc=dict(n_groups=4, tables_per_group=3, entity_rows=120),
                 opendata=dict(n_groups=3, tables_per_group=3, entity_rows=100)),
    "bench": dict(n_q=12,
                  dwtc=dict(n_groups=10, tables_per_group=5, entity_rows=260,
                            rows_per_table=(60, 140), n_noise_tables=12),
                  opendata=dict(n_groups=6, tables_per_group=4, entity_rows=160,
                                rows_per_table=(40, 90), n_noise_tables=8)),
}


def run_table5(spark, scale: str = "bench", k: int = 10, seed: int = 300) -> list[dict]:
    p = SCALES[scale]
    rows = []
    for li, (label, params) in enumerate(
        [("DWTC-like", p["dwtc"]), ("Open Data-like", p["opendata"])]
    ):
        lake = webtable_lake(seed=seed + li, **params)
        index = build_index(spark, lake, view=f"AllTablesT5{li}")
        mate = Mate(lake, store=CsvStore(lake))
        b_tp = b_fp = m_tp = m_fp = 0
        b_rows, m_rows, b_sec, m_sec = [], [], [], []
        for qi in range(p["n_q"]):
            q, _src = sample_mc_query(lake, n_rows=8, seed=seed * 1000 + li * 100 + qi)
            res_b = MC(q, k=k).run(index)
            res_m = mate.query(q, k=k)
            b_tp += res_b.diagnostics["tp_rows"]
            b_fp += res_b.diagnostics["fp_rows"]
            m_tp += res_m.tp_rows
            m_fp += res_m.fp_rows
            b_rows.append(res_b.diagnostics["bloom_rows"])
            m_rows.append(res_m.obtained_rows)
            b_sec.append(res_b.seconds)
            m_sec.append(res_m.seconds)
        index.release()
        rows.append(
            {
                "Lake": label,
                "BLEND TP": b_tp,
                "BLEND FP": b_fp,
                "BLEND Precision": f"{100 * b_tp / max(1, b_tp + b_fp):.2f}%",
                "MATE TP": m_tp,
                "MATE FP": m_fp,
                "MATE Precision": f"{100 * m_tp / max(1, m_tp + m_fp):.2f}%",
                "BLEND avg obtained rows": mean(b_rows),
                "MATE avg obtained rows": mean(m_rows),
                "BLEND Runtime (s)": mean(b_sec),
                "MATE Runtime (s)": mean(m_sec),
            }
        )
    return rows
