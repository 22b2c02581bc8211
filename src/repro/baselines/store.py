"""Simulated cross-system data loading for the federated baselines.

The paper attributes much of the federated baselines' runtime to
"time-consuming data loading between the database and memory" (§VIII-B5):
MATE/Josie/QCR are separate processes that fetch candidate table rows
from PostgreSQL/files and parse them in the application. Our stand-alone
baselines live in the same Python process, so without this shim they
would pay *no* loading cost at all and the comparison would be unfairly
tilted the other way.

:class:`CsvStore` stands in for that transfer: each lake table is held as
serialized CSV text and every access parses it back into a DataFrame —
the same serialize/parse code path a file- or DB-federated pipeline
executes. BLEND does not use the store: its validation reads rows the
database (index) already returned. Documented in DESIGN.md §Substitutions.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import pandas as pd

from ..lake.base import DataLake


@dataclass
class CsvStore:
    """Lake tables as CSV text; ``load`` parses on every call."""

    lake: DataLake
    _blobs: dict[int, str] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for tid, df in self.lake.tables.items():
            buf = io.StringIO()
            df.to_csv(buf, index=False)
            self._blobs[tid] = buf.getvalue()

    def load(self, tid: int) -> pd.DataFrame:
        """Deserialize one table (the cross-system transfer cost)."""
        return pd.read_csv(io.StringIO(self._blobs[tid]))
