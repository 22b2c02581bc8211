"""Evaluation metrics for discovery quality (Tables V–VII)."""
from .metrics import average_precision_at_k, precision_at_k, recall_at_k

__all__ = ["precision_at_k", "recall_at_k", "average_precision_at_k"]
