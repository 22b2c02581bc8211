"""Ranking-quality metrics used throughout the evaluation (paper §VIII):
precision@k, recall@k and average precision@k, defined exactly as
in the union-search literature the paper follows [25], [45], [34]."""
from __future__ import annotations

from typing import Iterable, Sequence


def precision_at_k(ranked: Sequence, relevant: Iterable, k: int) -> float:
    """|top-k ∩ relevant| / min(k, |ranked[:k]|); 0 when nothing returned."""
    rel = set(relevant)
    top = list(ranked)[:k]
    if not top:
        return 0.0
    return sum(1 for t in top if t in rel) / len(top)


def recall_at_k(ranked: Sequence, relevant: Iterable, k: int) -> float:
    """|top-k ∩ relevant| / |relevant|; 1.0 for an empty relevant set."""
    rel = set(relevant)
    if not rel:
        return 1.0
    top = list(ranked)[:k]
    return sum(1 for t in top if t in rel) / len(rel)


def average_precision_at_k(ranked: Sequence, relevant: Iterable, k: int) -> float:
    """AP@k: mean of precision@i over relevant hit positions i <= k,
    normalized by min(k, |relevant|)."""
    rel = set(relevant)
    if not rel:
        return 1.0
    top = list(ranked)[:k]
    hits, score = 0, 0.0
    for i, t in enumerate(top, start=1):
        if t in rel:
            hits += 1
            score += hits / i
    denom = min(k, len(rel))
    return score / denom if denom else 0.0
