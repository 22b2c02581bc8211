"""Plan optimization and execution (paper §VII-B).

Two execution modes:

- **BLEND** (``optimize=True``): the optimizer identifies *execution
  groups* (EGs) — seekers feeding the same Intersection combiner — orders
  EGs topologically, ranks seekers inside each EG (rules + cost model),
  and rewrites each subsequent seeker's SQL with the intermediate results
  of the previous one (``TableId IN/NOT IN (…)``). Counter combiners over
  SC/KW seekers are pushed down into a single in-DB
  ``UNION ALL … GROUP BY TableId ORDER BY COUNT(*)`` query, in which each
  member contributes each table of its top-k once, as the app-level
  Counter counts it. Difference
  always executes its subtrahend first and rewrites the minuend with
  ``NOT IN``. Union members run independently (no rewriting) — exactly
  the paper's rewrite table.

- **B-NO** (``optimize=False``): every seeker runs independently in plan
  insertion order, combiners are applied at the application level — the
  paper's unoptimized baseline in Table III.

Rewriting is only applied to seekers with a *single* consumer: a result
filtered for one combiner would be incorrect input for another.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .combiners import Counter, Difference, Intersect, Union
from .cost_model import CostModel, rank_seekers
from .index import BlendIndex
from .plan import Node, Plan
from .seekers import KW, SC, SeekerResult


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


def _run_seeker(
    node: Node, index: BlendIndex, res: PlanResult, tid_filter=None, rewrite: str | None = None
) -> list[int]:
    out: SeekerResult = node.op.run(index, tid_filter)
    res.outputs[node.name] = out.tables
    res.seeker_seconds[node.name] = out.seconds
    res.sqls.append(out.sql)
    res.order.append(node.name)
    if rewrite:
        res.rewrites[node.name] = rewrite
    return out.tables


def execute_plan(
    plan: Plan,
    index: BlendIndex,
    *,
    optimize: bool = True,
    cost_model: CostModel | None = None,
) -> PlanResult:
    """Execute ``plan`` against ``index``; see module docstring."""
    t0 = time.perf_counter()
    res = PlanResult(outputs={}, result=[], seconds=0.0)
    outputs = res.outputs
    consumers = plan.consumers()
    topo = plan.topological()

    if not optimize:
        # B-NO: every seeker runs plain, in plan order. The loop below then
        # finds every input computed and only applies the combiners.
        for node in topo:
            if node.is_seeker:
                _run_seeker(node, index, res)

    for node in topo:
        if node.name in outputs:
            continue
        if node.is_seeker:
            # executed lazily by its consumer's EG when it has exactly one
            # consumer (rewriting opportunity); otherwise run it plain now
            if len(consumers[node.name]) == 1:
                continue
            _run_seeker(node, index, res)
            continue

        comb = node.op
        # inputs not yet computed: seekers exclusively owned by this
        # combiner (shared seekers ran above; upstream combiners appear
        # earlier in topo order)
        pending = [plan.nodes[i] for i in node.inputs if i not in outputs]

        if isinstance(comb, Intersect):
            # --- Execution Group: rank seekers, chain IN-rewrites
            computed = [i for i in node.inputs if i in outputs]
            ir: list[int] | None = None
            for name in computed:
                tabs = outputs[name]
                ir = tabs if ir is None else [t for t in ir if t in set(tabs)]
            ranked = rank_seekers([(p.name, p.op) for p in pending], index, cost_model)
            for name, _ in ranked:
                node_p = plan.nodes[name]
                filt = ("IN", ir) if ir is not None else None
                tabs = _run_seeker(
                    node_p, index, res, filt, rewrite="IN" if ir is not None else None
                )
                ir = tabs if ir is None else [t for t in tabs if t in set(ir)]
        elif isinstance(comb, Difference):
            a_name, b_name = node.inputs
            # subtrahend first (its tables become the NOT IN filter)
            if b_name not in outputs:
                _run_seeker(plan.nodes[b_name], index, res)
            if a_name not in outputs:
                _run_seeker(
                    plan.nodes[a_name],
                    index,
                    res,
                    ("NOT IN", outputs[b_name]),
                    rewrite="NOT IN",
                )
        elif isinstance(comb, Counter):
            pushable = pending and all(
                isinstance(p.op, (SC, KW)) for p in pending
            ) and len(pending) == len(node.inputs)
            if pushable:
                inner = "\nUNION ALL\n".join(
                    f"({p.op.inner_sql(index.view)})" for p in pending
                )
                sql = (
                    "SELECT TableId, COUNT(*) AS cnt FROM (\n"
                    f"{inner}\n) hits\n"
                    "GROUP BY TableId\n"
                    f"ORDER BY cnt DESC, TableId ASC\nLIMIT {comb.k}"
                )
                ts = time.perf_counter()
                rows = index.spark.sql(sql).collect()
                res.sqls.append(sql)
                res.rewrites[node.name] = "COUNT-pushdown"
                res.seeker_seconds[node.name] = time.perf_counter() - ts
                outputs[node.name] = [r.TableId for r in rows]
                # the members ran inside the push-down; the Counter is
                # their only consumer, so they get no outputs of their own
                res.order.extend(p.name for p in pending)
                continue
            for p in pending:
                _run_seeker(p, index, res)
        else:  # Union — no rewriting (paper's rewrite table)
            for p in pending:
                _run_seeker(p, index, res)

        outputs[node.name] = comb.apply([outputs[i] for i in node.inputs])

    res.result = outputs[plan.result_node]
    res.seconds = time.perf_counter() - t0
    return res
