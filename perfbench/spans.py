"""Spans around the program's public functions, kept in memory.

Tracing is switched on per operation by ``instrument``: it wraps
``Seeker.run`` and ``Seeker.sql`` of every seeker type, ``rank_seekers`` as
the executor calls it and ``build_alltables_pdf`` as ``build_index`` calls
it, and restores the originals on exit. The benchmark opens the operation
and index-build spans itself, and ``check.RecordingSession`` the Spark
ones. A span's self time is its duration minus that of its child spans.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core import executor as executor_mod
from repro.core import index as index_mod
from repro.core.seekers import C, KW, MC, SC

SEEKER_TYPES = (SC, KW, MC, C)


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    op: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer, self.span = tracer, span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        sp = self.span
        sp.end = time.perf_counter()
        self.tracer.stack.pop()
        if sp.parent is not None:
            sp.parent.child_s += sp.seconds


class _Off:
    """The span handed out while tracing is off; records nothing."""

    def __init__(self):
        self.attrs = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.attrs.clear()


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        self._off = _Off()

    def span(self, name: str, **attrs):
        if not self.active:
            return self._off
        sp = Span(name, time.perf_counter(), self.stack[-1] if self.stack else None,
                  self.op, attrs=attrs)
        self.spans.append(sp)
        self.stack.append(sp)
        return _Open(self, sp)

    def current_seeker(self) -> str | None:
        for sp in reversed(self.stack):
            if sp.name == "seeker.run":
                return sp.attrs["type"]
        return None

    def named(self, name: str, ops=None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (ops is None or s.op in ops)]


@contextmanager
def instrument(tracer: Tracer):
    """Trace every call made inside the block."""
    saved = []

    def patch(owner, attr, wrapper):
        # an inherited method is wrapped on the subclass and deleted on exit
        saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def seeker_run(fn):
        def run(self, index, tid_filter=None, **kw):
            ids = len(tid_filter[1]) if tid_filter else 0
            with tracer.span("seeker.run", type=self.type_name, filter_ids=ids) as sp:
                res = fn(self, index, tid_filter, **kw)
                sp.attrs.update(sql_chars=len(res.sql), **res.diagnostics)
            return res
        return run

    def seeker_sql(fn):
        def sql(self, *a, **kw):
            with tracer.span("seeker.sql", type=self.type_name):
                return fn(self, *a, **kw)
        return sql

    def timed(name):
        def wrap(fn):
            def call(*a, **kw):
                with tracer.span(name):
                    return fn(*a, **kw)
            return call
        return wrap

    for cls in SEEKER_TYPES:
        patch(cls, "run", seeker_run)
        patch(cls, "sql", seeker_sql)
    patch(executor_mod, "rank_seekers", timed("cost_model.rank"))
    patch(index_mod, "build_alltables_pdf", timed("index.melt"))
    tracer.active = True
    try:
        yield tracer
    finally:
        tracer.active = False
        for owner, attr, fn in reversed(saved):
            if fn is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, fn)


class JobCounter:
    """Spark jobs, stages and tasks per operation, via job groups."""

    def __init__(self, sc):
        self.sc = sc
        self.groups: dict[int, str] = {}

    def start(self, op: int) -> None:
        self.groups[op] = f"perfbench-op-{op}"
        self.sc.setJobGroup(self.groups[op], f"operation {op}")

    def stop(self) -> None:
        self.sc.setLocalProperty("spark.jobGroup.id", None)

    def counts(self, op: int) -> tuple[int, int, int]:
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(self.groups[op])
        stages = set()
        for j in jobs:
            info = st.getJobInfo(j)
            stages.update(info.stageIds if info else [])
        tasks = 0
        for s in stages:
            info = st.getStageInfo(s)
            tasks += info.numTasks if info else 0
        return len(jobs), len(stages), tasks
