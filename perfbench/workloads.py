"""The closed-loop workloads and the seeded inputs they run.

Each workload is a list of operation classes. One *cycle* runs one
operation of every class, in a fixed order, so every class has an equal
share of the operations a run completes. The inputs of cycle ``c`` are a
pure function of the workload seed and ``c``: two runs with one seed see
the same operations, and so do the first cycles of a traced and an
untraced run.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np
import pandas as pd

from repro.core import execute_plan
from repro.core.index import BlendIndex
from repro.core.seekers import C, KW, MC, SC, Seeker
from repro.core.values import norm_cell
from repro.harness import table3
from repro.tasks import (
    build_feature_discovery_plan,
    build_imputation_plan,
    build_multi_objective_plan,
    build_negative_examples_plan,
)

VIEW = "AllTables"
SCALE = "bench"
#: every run indexes the same lake (98,035 index rows); ``--seed`` drives
#: the workload inputs, so lake size does not vary between seeds
LAKE_SEED = 100
K = 10

#: |Q| ranges of the seekers workload, as (values, MC rows) per size class.
#: No column of the lake holds more than 377 distinct values, and no key
#: column of a numeric target more than 217, so large queries stop at 200.
SMALL, LARGE = ((4, 16), (3, 9)), ((150, 201), (40, 121))


@dataclass
class Op:
    """One operation: ``call()`` runs it and returns the program's output."""

    call: Callable[[], object]
    #: the plan, for the B-NO comparison of the plans workload
    plan: object = None
    #: |Q| of a seeker call: values (SC, KW), join keys (C) or rows (MC)
    size: int | None = None


# --- seekers: single seeker calls, built the way Table IV samples queries,
# except that a query holds |Q| distinct values: a sampler draws from the
# lake columns with at least |Q| distinct values, without replacement


def _distinct(items, keys) -> list:
    """The first item of each distinct, non-null normalized key."""
    seen: dict = {}
    for item, key in zip(items, keys):
        if None not in key:
            seen.setdefault(key, item)
    return list(seen.values())


def _sources(lake) -> dict[str, list]:
    """Per seeker type, the lake's query sources, each a list of distinct
    query items: cell values of one column (SC), rows of a column pair
    (MC) and (join key, target) pairs of a numeric column (C)."""
    src: dict[str, list] = {"SC": [], "MC": [], "C": []}
    for df in lake.tables.values():
        normed = {c: [norm_cell(v) for v in df[c].tolist()] for c in df.columns}
        for c in df.columns:
            src["SC"].append(_distinct(df[c].tolist(), [(n,) for n in normed[c]]))
        for a, b in combinations(range(len(df.columns)), 2):
            ca, cb = df.columns[a], df.columns[b]
            rows = _distinct(range(len(df)), list(zip(normed[ca], normed[cb])))
            src["MC"].append(df.iloc[rows, [a, b]].reset_index(drop=True))
        for num in df.columns:
            if not pd.api.types.is_numeric_dtype(df[num]) or len(df.columns) < 2:
                continue
            key = [c for c in df.columns if c != num][0]
            pairs = list(zip(df[key].tolist(), df[num].tolist()))
            keys = [(k if n is not None else None,) for k, n in zip(normed[key], normed[num])]
            src["C"].append(_distinct(pairs, keys))
    return src


def _size(g, large: bool, mc: bool = False) -> int:
    lo, hi = (LARGE if large else SMALL)[1 if mc else 0]
    return int(g.integers(lo, hi))


def _draw(sources: list, n: int, g):
    """One source with at least ``n`` items, and ``n`` distinct positions in it."""
    cands = [s for s in sources if len(s) >= n]
    src = cands[int(g.integers(0, len(cands)))]
    return src, g.choice(len(src), size=n, replace=False)


def _sc(src, pool, g, large) -> SC:
    vals, idx = _draw(src["SC"], _size(g, large), g)
    return SC([vals[i] for i in idx], k=K)


def _kw(src, pool, g, large) -> KW:
    return KW([pool[i] for i in g.choice(len(pool), size=_size(g, large), replace=False)], k=K)


def _mc(src, pool, g, large) -> MC:
    rows, idx = _draw(src["MC"], _size(g, large, mc=True), g)
    return MC(rows.iloc[idx].reset_index(drop=True), k=K)


def _c(src, pool, g, large) -> C:
    pairs, idx = _draw(src["C"], _size(g, large), g)
    return C([pairs[i][0] for i in idx], [pairs[i][1] for i in idx], k=K)


_SAMPLERS = {"SC": _sc, "KW": _kw, "MC": _mc, "C": _c}
SEEKER_CLASSES = [f"{t}.{s}" for t in _SAMPLERS for s in ("small", "large")]


class Seekers:
    """Single SC, KW, MC and C calls; half small and half large |Q|.
    Inputs are a function of (seed, cycle, class); cycles -1 and -2 warm up."""

    name = "seekers"
    classes = SEEKER_CLASSES

    def __init__(self, lake, index: BlendIndex, seed: int):
        self.index, self.seed = index, seed
        self.sources = _sources(lake)
        # sorted: value_counts orders ties by a per-process string hash
        self.pool = sorted(index.value_freq.index)

    def warmup(self) -> list[Op]:
        # two cycles: the first measured cycle after one was still ~12% slower
        return [self.op(c, cls) for c in (-1, -2) for cls in self.classes]

    def seeker(self, cycle: int, cls: str) -> Seeker:
        g = np.random.default_rng([self.seed, cycle + 2, self.classes.index(cls)])
        t, size = cls.split(".")
        return _SAMPLERS[t](self.sources, self.pool, g, size == "large")

    def op(self, cycle: int, cls: str) -> Op:
        s, index = self.seeker(cycle, cls), self.index
        return Op(lambda: s.run(index), size=s.input_cardinality())


# --- plans: the four Table III task plans, inputs generated like table3

#: cycles of distinct plan inputs; later cycles reuse them in turn
PLAN_INPUTS = 8


class Plans:
    """The four Table III task plans, executed with the optimizer on."""

    name = "plans"
    classes = ["negative_examples", "imputation", "feature_discovery", "multi_objective"]

    def __init__(self, lake, index: BlendIndex, seed: int):
        self.index = index
        g = np.random.default_rng(seed)
        n, n_neg = PLAN_INPUTS + 2, table3.SCALES[SCALE]["n_neg"]
        # same generators and draw order as table3.run_table3
        neg = table3._neg_examples_workload(lake, n, g, n_neg)
        imp = table3._imputation_workload(lake, n, g)
        feat = table3._feature_discovery_workload(lake, n, g)
        multi = table3._multi_objective_workload(lake, n, g)
        self.builders = {
            "negative_examples": lambda i: build_negative_examples_plan(*neg[i], K),
            "imputation": lambda i: build_imputation_plan(*imp[i], K),
            "feature_discovery": lambda i: build_feature_discovery_plan(*feat[i], K),
            "multi_objective": lambda i: build_multi_objective_plan(
                multi[i][0], multi[i][1], multi[i][3], multi[i][4], K),
        }

    def warmup(self) -> list[Op]:
        # two cycles: the first measured cycle after one was still ~15% slower
        return [self.op(c, cls) for c in (-1, -2) for cls in self.classes]

    def op(self, cycle: int, cls: str) -> Op:
        # the inputs after the measured ones are the warm-up's
        plan = self.builders[cls](cycle % PLAN_INPUTS if cycle >= 0 else PLAN_INPUTS - 1 - cycle)
        index = self.index
        return Op(lambda: execute_plan(plan, index, optimize=True), plan=plan)


WORKLOADS = {w.name: w for w in (Seekers, Plans)}


def build_lake():
    return table3.build_combined_lake(SCALE, LAKE_SEED)
