"""The data-lake substrate: a collection of small relational tables.

The paper evaluates on real lakes (Gittables, DWTC, NYC open data, …);
we substitute deterministic synthetic lakes with *planted* ground truth
(see DESIGN.md § Substitutions). A :class:`DataLake` holds the tables as
pandas frames — the tables themselves are small; the large artifact is the
cell-level ``AllTables`` index built over them in Spark.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd


@dataclass
class DataLake:
    """A data lake: ``tables[tid]`` is a pandas DataFrame, ``names[tid]`` a
    human-readable name, ``meta`` carries generator ground truth (planted
    join groups, union labels, column domains, correlation targets…)."""

    tables: dict[int, pd.DataFrame] = field(default_factory=dict)
    names: dict[int, str] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def add(self, name: str, df: pd.DataFrame) -> int:
        tid = len(self.tables)
        self.tables[tid] = df.reset_index(drop=True)
        self.names[tid] = name
        return tid

    def absorb(self, other: "DataLake", prefix: str = "") -> dict[int, int]:
        """Append every table of ``other`` *including* its ground-truth
        metadata, remapping table ids; returns old-tid -> new-tid. Used to
        build the combined lake for the complex-task experiments (Table
        III), where one unified index serves keyword, join, union and
        correlation workloads simultaneously."""
        m = {tid: self.add(prefix + other.names[tid], df) for tid, df in other.tables.items()}
        om, tm = other.meta, self.meta
        tm.setdefault("column_domains", {}).update(
            {(m[t], j): d for (t, j), d in om.get("column_domains", {}).items()}
        )
        goff = len(tm.setdefault("groups", {}))
        for gid, members in om.get("groups", {}).items():
            tm["groups"][goff + gid] = [m[t] for t in members]
            if gid in om.get("entities", {}):
                tm.setdefault("entities", {})[goff + gid] = om["entities"][gid]
        tm.setdefault("gt", {}).update(
            {m[t]: {m[x] for x in xs} for t, xs in om.get("gt", {}).items()}
        )
        tm.setdefault("queries", []).extend(m[t] for t in om.get("queries", []))
        tm.setdefault("semantic", set()).update(m[t] for t in om.get("semantic", set()))
        tm.setdefault("topics", {}).update(
            {m[t]: topic for t, topic in om.get("topics", {}).items()}
        )
        for q in om.get("corr_queries", []):
            q2 = dict(q)
            q2["candidates"] = [m[t] for t in q["candidates"]]
            tm.setdefault("corr_queries", []).append(q2)
        return m

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    @property
    def n_columns(self) -> int:
        return sum(len(df.columns) for df in self.tables.values())

    @property
    def n_rows(self) -> int:
        return sum(len(df) for df in self.tables.values())

    def stats_row(self, label: str) -> dict:
        """One row of our Table-II analogue (lake statistics)."""
        return {
            "Data lake": label,
            "Tables": self.n_tables,
            "Columns": self.n_columns,
            "Rows": self.n_rows,
        }
