"""Plan optimization and execution (paper §VII-B).

One loop over the plan in topological order; every statement is one
seeker's SQL, run by ``Seeker.run`` and recorded by ``_run``.

- **BLEND** (``optimize=True``): a seeker with exactly one consumer runs
  in that consumer's step, where the optimizer may rewrite it. Intersect
  is an *execution group*: its pending seekers are ranked (rules + cost
  model) and each runs with ``TableId IN (…)`` of the intermediate result
  so far. Difference runs its subtrahend first and its minuend with
  ``TableId NOT IN (…)``. A Counter over pending SC/KW seekers runs as one
  :class:`~repro.core.seekers.CounterPushdown` statement. Union members
  run plain — exactly the paper's rewrite table.
- **B-NO** (``optimize=False``): the same loop with rewriting off. Every
  seeker runs plain at its own node, in plan insertion order
  (``topological`` puts every seeker first), and the combiners are
  applied at the application level — the paper's unoptimized baseline.

A seeker shared by several consumers runs plain at its own node in both
modes: a result filtered for one combiner would be incorrect input for
another.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .combiners import Counter, Difference, Intersect
from .cost_model import CostModel, rank_seekers
from .index import BlendIndex
from .plan import Plan
from .seekers import KW, SC, CounterPushdown, Seeker, TidFilter


@dataclass
class PlanResult:
    """Execution outcome: per-node ranked outputs + bookkeeping."""

    outputs: dict[str, list[int]]
    result: list[int]
    seconds: float
    seeker_seconds: dict[str, float] = field(default_factory=dict)
    sqls: list[str] = field(default_factory=list)
    order: list[str] = field(default_factory=list)  # seeker execution order
    rewrites: dict[str, str] = field(default_factory=dict)  # node -> rewrite kind


def _run(
    res: PlanResult, index: BlendIndex, name: str, seeker: Seeker,
    tid_filter: TidFilter = None, *, rewrite: str | None = None, members: list[str] | None = None,
) -> list[int]:
    """Run one statement and record it as node ``name``'s output. A
    push-down's ``members`` stand in the execution order for its node."""
    out = seeker.run(index, tid_filter)
    res.outputs[name] = out.tables
    res.seeker_seconds[name] = out.seconds
    res.sqls.append(out.sql)
    res.order.extend(members or [name])
    rewrite = rewrite or (tid_filter[0] if tid_filter else None)
    if rewrite:
        res.rewrites[name] = rewrite
    return out.tables


def execute_plan(plan: Plan, index: BlendIndex, *, optimize: bool = True,
                 cost_model: CostModel | None = None) -> PlanResult:
    """Execute ``plan`` against ``index``; see module docstring."""
    t0 = time.perf_counter()
    res = PlanResult(outputs={}, result=[], seconds=0.0)
    outputs = res.outputs
    consumers = plan.consumers()

    for node in plan.topological():
        if node.is_seeker:
            # with one consumer, it runs in that consumer's step
            if not optimize or len(consumers[node.name]) != 1:
                _run(res, index, node.name, node.op)
            continue

        comb = node.op
        # the seekers this combiner owns alone; shared seekers and upstream
        # combiners were computed at their own nodes
        pending = [plan.nodes[i] for i in node.inputs if i not in outputs]

        if isinstance(comb, Intersect):
            # execution group: intersect the computed inputs, then chain
            # IN-rewrites through the ranked pending seekers
            ir: list[int] | None = None
            for name in node.inputs:
                if name in outputs:
                    keep = set(outputs[name])
                    ir = outputs[name] if ir is None else [t for t in ir if t in keep]
            for name, op in rank_seekers([(p.name, p.op) for p in pending], index, cost_model):
                if ir is None:
                    ir = _run(res, index, name, op)
                else:
                    keep = set(ir)
                    ir = [t for t in _run(res, index, name, op, ("IN", ir)) if t in keep]
        elif isinstance(comb, Difference):
            a_name, b_name = node.inputs
            # subtrahend first (its tables become the NOT IN filter)
            if b_name not in outputs:
                _run(res, index, b_name, plan.nodes[b_name].op)
            if a_name not in outputs:
                _run(res, index, a_name, plan.nodes[a_name].op, ("NOT IN", outputs[b_name]))
        elif (
            isinstance(comb, Counter) and len(pending) == len(node.inputs)
            and all(isinstance(p.op, (SC, KW)) for p in pending)
        ):
            # the members run inside the push-down; the Counter is their
            # only consumer, so they get no outputs of their own
            _run(res, index, node.name, CounterPushdown([p.op for p in pending], k=comb.k),
                 rewrite="COUNT-pushdown", members=[p.name for p in pending])
            continue
        else:  # Union, or a Counter that cannot be pushed down: no rewriting
            for p in pending:
                _run(res, index, p.name, p.op)

        outputs[node.name] = comb.apply([outputs[i] for i in node.inputs])

    res.result = outputs[plan.result_node]
    res.seconds = time.perf_counter() - t0
    return res
