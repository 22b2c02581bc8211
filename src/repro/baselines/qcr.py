"""QCR-sketch stand-alone correlation discovery (paper baseline [49] for
§VIII-G / Table VII).

Santos et al. index, per (table, categorical column, numerical column)
pair, the ``h`` smallest hashes of (key, quadrant) observations — the
quadrant being whether the numerical value is above its column mean. A
query builds the same sketch from (join key, target) and estimates the
correlation from sketch agreement; positive and negative correlation
require two runs (flipped quadrants).

The two structural limitations the paper exploits are reproduced:

- only *categorical* join keys are indexed (numeric-key queries return
  nothing — the NYC (All) gap in Table VII);
- ``h`` is fixed at index-build time (BLEND chooses it per query);
- storage is quadratic in columns per table (every cat x num pair gets
  its own sketch — the Table VIII storage overhead).
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import pandas as pd

from ..core.values import norm_cell
from ..lake.base import DataLake


def _h64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def _sketch(pairs: set[tuple[str, bool]], h: int) -> frozenset[int]:
    """h smallest 64-bit hashes of the distinct (key, quadrant) pairs."""
    return frozenset(sorted(_h64(f"{k}|{int(q)}") for k, q in pairs)[:h])


@dataclass
class QcrResult:
    tables: list[int]
    pairs: list[tuple[int, int, int, float]]  # (tid, cat col, num col, score)
    seconds: float


@dataclass
class QcrSketch:
    """Stand-alone system #3: its own sketch index over the lake."""

    lake: DataLake
    h: int = 256
    sketches: dict[tuple[int, int, int], frozenset[int]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self):
        for tid, df in self.lake.tables.items():
            cats = [
                j for j, c in enumerate(df.columns)
                if not pd.api.types.is_numeric_dtype(df[c])
            ]
            nums = [
                j for j, c in enumerate(df.columns)
                if pd.api.types.is_numeric_dtype(df[c]) and df[c].notna().any()
            ]
            for cj in cats:
                keys = [norm_cell(v) for v in df.iloc[:, cj].tolist()]
                for nj in nums:
                    col = df.iloc[:, nj].astype(float)
                    mean = float(col.mean())
                    pairs = {
                        (k, bool(v >= mean))
                        for k, v in zip(keys, col.tolist())
                        if k is not None and not pd.isna(v)
                    }
                    self.sketches[(tid, cj, nj)] = _sketch(pairs, self.h)

    def query(self, join_values: list, target_values: list, k: int = 10) -> QcrResult:
        """Top-k tables by estimated |correlation|; two runs (positive and
        negative quadrant orientation), best of both. Numeric join keys are
        unsupported: if every key parses as a number the index has no
        matching categorical column, mirroring the original system."""
        t0 = time.perf_counter()
        obs: dict[str, float] = {}
        for kk, v in zip(join_values, target_values):
            n = norm_cell(kk)
            if n is not None and v is not None and not pd.isna(v):
                obs.setdefault(n, float(v))
        scores: dict[tuple[int, int, int], float] = {}
        if obs:
            mean = sum(obs.values()) / len(obs)
            pos = {(kk, v >= mean) for kk, v in obs.items()}
            neg = {(kk, not (v >= mean)) for kk, v in obs.items()}
            sq_pos, sq_neg = _sketch(pos, self.h), _sketch(neg, self.h)
            denom = max(1, min(len(sq_pos), self.h))
            for key, sk in self.sketches.items():
                m = max(len(sq_pos & sk), len(sq_neg & sk))
                if m:
                    scores[key] = m / denom
        ranked = sorted(scores.items(), key=lambda it: (-it[1], it[0]))[: 5 * k]
        pairs = [(t, cj, nj, s) for (t, cj, nj), s in ranked]
        tables, seen = [], set()
        for t, _, _, _ in pairs:
            if t not in seen:
                seen.add(t)
                tables.append(t)
                if len(tables) >= k:
                    break
        return QcrResult(tables, pairs[: 5 * k], time.perf_counter() - t0)
