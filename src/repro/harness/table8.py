"""Table VIII: index storage — BLEND's single relation vs the combination
of stand-alone state-of-the-art indexes (§VIII-H).

For each lake we serialize: BLEND's unified ``AllTables`` (one Parquet
relation) and the combination (DataXFormer inverted index + Josie posting
lists + MATE XASH postings/super keys + Starmie vectors + QCR sketches),
every relational structure written by the same Parquet writer so the
comparison measures content, not format overhead.
"""
from __future__ import annotations

import os
import tempfile

from ..baselines import storage_report
from ..core import build_index
from ..lake import corr_lake, union_lake, webtable_lake

SCALES = {
    "test": dict(web=dict(n_groups=3, tables_per_group=3),
                 uni=dict(n_base=3, segments_per_base=4),
                 cor=dict(n_cat_queries=2, n_num_queries=1, n_keys=10,
                          reps_per_key=5, candidates_per_query=3, n_distractors=2)),
    "bench": dict(web=dict(n_groups=10, tables_per_group=5, entity_rows=220,
                           rows_per_table=(50, 120), n_noise_tables=10),
                  uni=dict(n_base=10, segments_per_base=10, rows_per_segment=30,
                           n_distractors=15),
                  cor=dict(n_cat_queries=5, n_num_queries=5, n_keys=30,
                           reps_per_key=12, candidates_per_query=8, n_distractors=5)),
}


def run_table8(spark, scale: str = "bench", seed: int = 600, outdir: str | None = None) -> list[dict]:
    p = SCALES[scale]
    outdir = outdir or tempfile.mkdtemp(prefix="blend_storage_")
    lakes = {
        "webtable-like": webtable_lake(seed=seed, **p["web"]),
        "union-bench-like": union_lake(seed=seed + 1, **p["uni"]),
        "corr-bench-like": corr_lake(seed=seed + 2, **p["cor"]),
    }
    rows = []
    for li, (label, lake) in enumerate(lakes.items()):
        index = build_index(spark, lake, view=f"AllTablesT8{li}")
        sizes = storage_report(index, os.path.join(outdir, label))
        index.release()
        rows.append(
            {
                "Lake": label,
                "BLEND (MB)": sizes["blend"] / 1e6,
                "Combination of S.O.T.A. (MB)": sizes["combination"] / 1e6,
                "Savings": f"{100 * (1 - sizes['blend'] / sizes['combination']):.1f}%",
                "DataXFormer (MB)": sizes["dataxformer"] / 1e6,
                "Josie (MB)": sizes["josie"] / 1e6,
                "MATE (MB)": sizes["mate"] / 1e6,
                "QCR (MB)": sizes["qcr"] / 1e6,
                "Starmie (MB)": sizes["starmie"] / 1e6,
            }
        )
    return rows
