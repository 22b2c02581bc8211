"""Tests for plan execution + optimization (§VII-B, Theorem 1).

Theorem-1 checks compare the optimized (BLEND) and unoptimized (B-NO)
paths with k chosen large enough that LIMIT truncation never binds (see
DESIGN.md § Semantics caveat — the paper's proof has the same implicit
assumption)."""
import pandas as pd
import pytest

from repro.core import build_index, execute_plan
from repro.core.plan import Combiners, Plan, Seekers
from repro.lake import DataLake, sample_mc_query

BIG_K = 1000


def _col(lake, gid, member=0, col=0):
    tid = lake.meta["groups"][gid][member]
    return list(lake.tables[tid].iloc[:, col]), tid


def test_single_seeker_plan(tiny_lake, tiny_index):
    vals, tid = _col(tiny_lake, 0)
    plan = Plan().add("s", Seekers.SC(vals, k=5))
    res = execute_plan(plan, tiny_index)
    assert res.result[0] == tid
    assert res.order == ["s"]
    assert res.seconds > 0


def test_intersect_theorem1(tiny_lake, tiny_index):
    vals, tid = _col(tiny_lake, 0)
    q, src = sample_mc_query(tiny_lake, gid=0, n_rows=5, seed=31)
    plan = Plan()
    plan.add("sc", Seekers.SC(vals, k=BIG_K))
    plan.add("mc", Seekers.MC(q, k=BIG_K))
    plan.add("i", Combiners.Intersect(k=BIG_K), ["sc", "mc"])
    opt = execute_plan(plan, tiny_index, optimize=True)
    noopt = execute_plan(plan, tiny_index, optimize=False)
    assert opt.result == noopt.result
    assert opt.rewrites.get("mc") == "IN"  # SC ran first (Rule 2), MC rewritten


def test_intersect_rule_order(tiny_lake, tiny_index):
    vals, _ = _col(tiny_lake, 0)
    q, _ = sample_mc_query(tiny_lake, gid=0, n_rows=5, seed=32)
    plan = Plan()
    plan.add("mc", Seekers.MC(q, k=BIG_K))
    plan.add("sc", Seekers.SC(vals, k=BIG_K))
    plan.add("i", Combiners.Intersect(k=BIG_K), ["mc", "sc"])
    opt = execute_plan(plan, tiny_index, optimize=True)
    assert opt.order.index("sc") < opt.order.index("mc")


def test_difference_theorem1(tiny_lake, tiny_index):
    q1, _ = sample_mc_query(tiny_lake, gid=0, n_rows=5, seed=33)
    q2, _ = sample_mc_query(tiny_lake, gid=0, n_rows=3, seed=34)
    plan = Plan()
    plan.add("pos", Seekers.MC(q1, k=BIG_K))
    plan.add("neg", Seekers.MC(q2, k=BIG_K))
    plan.add("d", Combiners.Difference(k=BIG_K), ["pos", "neg"])
    opt = execute_plan(plan, tiny_index, optimize=True)
    noopt = execute_plan(plan, tiny_index, optimize=False)
    assert opt.result == noopt.result
    assert opt.rewrites.get("pos") == "NOT IN"
    # subtrahend executes first
    assert opt.order.index("neg") < opt.order.index("pos")


def test_counter_pushdown_theorem1(tiny_lake, tiny_index):
    v0, _ = _col(tiny_lake, 0, col=0)
    v1, _ = _col(tiny_lake, 0, col=1)
    plan = Plan()
    plan.add("s0", Seekers.SC(v0, k=BIG_K))
    plan.add("s1", Seekers.SC(v1, k=BIG_K))
    plan.add("cnt", Combiners.Counter(k=BIG_K), ["s0", "s1"])
    opt = execute_plan(plan, tiny_index, optimize=True)
    noopt = execute_plan(plan, tiny_index, optimize=False)
    assert opt.rewrites.get("cnt") == "COUNT-pushdown"
    assert opt.result == noopt.result


def test_counter_pushdown_counts_each_table_once_per_seeker(spark):
    """Table 0 holds the first query column's values in two of its columns.
    The push-down must count it once for that seeker, as the app-level
    Counter does, not once per matching column."""
    lake = DataLake()
    lake.add("two_cols", pd.DataFrame({"a": ["x", "y", "z"], "b": ["x", "y", "w"]}))
    lake.add("one", pd.DataFrame({"a": ["x", "q", "r"]}))
    lake.add("two", pd.DataFrame({"c": ["z", "y", "k"]}))
    index = build_index(spark, lake, view="TestCounterTwoCols")
    plan = Plan()
    plan.add("s0", Seekers.SC(["x", "y", "z"], k=10))
    plan.add("s1", Seekers.SC(["k", "r"], k=10))
    plan.add("cnt", Combiners.Counter(k=10), ["s0", "s1"])
    opt = execute_plan(plan, index, optimize=True)
    noopt = execute_plan(plan, index, optimize=False)
    assert opt.rewrites.get("cnt") == "COUNT-pushdown"
    assert noopt.result == [1, 2, 0]
    assert opt.result == noopt.result
    # the members ran inside the push-down and have no outputs of their own
    assert set(opt.outputs) == {"cnt"}
    assert opt.order == ["s0", "s1"]


def test_union_no_rewriting(tiny_lake, tiny_index):
    v0, _ = _col(tiny_lake, 0)
    v1, _ = _col(tiny_lake, 1)
    plan = Plan()
    plan.add("a", Seekers.SC(v0, k=BIG_K))
    plan.add("b", Seekers.SC(v1, k=BIG_K))
    plan.add("u", Combiners.Union(k=BIG_K), ["a", "b"])
    opt = execute_plan(plan, tiny_index, optimize=True)
    noopt = execute_plan(plan, tiny_index, optimize=False)
    assert opt.result == noopt.result
    assert opt.rewrites == {}


def test_shared_seeker_not_rewritten(tiny_lake, tiny_index):
    """A seeker consumed by two combiners must run unfiltered."""
    v0, _ = _col(tiny_lake, 0)
    v1, _ = _col(tiny_lake, 1)
    plan = Plan()
    plan.add("shared", Seekers.SC(v0, k=BIG_K))
    plan.add("b", Seekers.SC(v1, k=BIG_K))
    plan.add("i", Combiners.Intersect(k=BIG_K), ["shared", "b"])
    plan.add("u", Combiners.Union(k=BIG_K), ["shared", "i"])
    opt = execute_plan(plan, tiny_index, optimize=True)
    noopt = execute_plan(plan, tiny_index, optimize=False)
    assert "shared" not in opt.rewrites
    assert opt.result == noopt.result


def test_nested_combiner_feeds_rewrite(tiny_lake, tiny_index):
    """Intersect(combiner-output, seeker): the seeker is filtered by the
    already-computed combiner result (Example 2 generalized)."""
    v0, _ = _col(tiny_lake, 0)
    v1, _ = _col(tiny_lake, 0, member=1)
    q, _ = sample_mc_query(tiny_lake, gid=0, n_rows=5, seed=35)
    plan = Plan()
    plan.add("a", Seekers.SC(v0, k=BIG_K))
    plan.add("b", Seekers.SC(v1, k=BIG_K))
    plan.add("u", Combiners.Union(k=BIG_K), ["a", "b"])
    plan.add("mc", Seekers.MC(q, k=BIG_K))
    plan.add("i", Combiners.Intersect(k=BIG_K), ["u", "mc"])
    opt = execute_plan(plan, tiny_index, optimize=True)
    noopt = execute_plan(plan, tiny_index, optimize=False)
    assert opt.rewrites.get("mc") == "IN"
    assert opt.result == noopt.result


def test_outputs_contain_all_nodes(tiny_lake, tiny_index):
    v0, _ = _col(tiny_lake, 0)
    v1, _ = _col(tiny_lake, 1)
    plan = Plan()
    plan.add("a", Seekers.SC(v0, k=5))
    plan.add("b", Seekers.SC(v1, k=5))
    plan.add("u", Combiners.Union(k=5), ["a", "b"])
    res = execute_plan(plan, tiny_index, optimize=False)
    assert set(res.outputs) == {"a", "b", "u"}


def test_empty_intersection_short_circuits(tiny_lake, tiny_index):
    """When the first seeker returns nothing, the rewritten second seeker
    gets an impossible predicate (AND 1=0) and returns empty fast."""
    v1, _ = _col(tiny_lake, 1)
    plan = Plan()
    plan.add("none", Seekers.SC(["@@absent@@"], k=BIG_K))
    plan.add("b", Seekers.SC(v1, k=BIG_K))
    plan.add("i", Combiners.Intersect(k=BIG_K), ["none", "b"])
    opt = execute_plan(plan, tiny_index, optimize=True)
    assert opt.result == []
    assert opt.outputs["b"] == []  # rewritten to the empty filter


def test_seeker_seconds_recorded(tiny_lake, tiny_index):
    v0, _ = _col(tiny_lake, 0)
    plan = Plan().add("a", Seekers.SC(v0, k=5))
    res = execute_plan(plan, tiny_index)
    assert res.seeker_seconds["a"] > 0
    assert len(res.sqls) == 1


def test_multi_objective_plan_executes(tiny_lake, tiny_index):
    """End-to-end Listing-4-minus-imputation plan on the tiny lake."""
    tid = tiny_lake.meta["groups"][0][0]
    examples = tiny_lake.tables[tid].iloc[:8, :2]
    plan = Plan()
    plan.add("kw", Seekers.KW([examples.iloc[0, 0]], k=10))
    for clm in examples.columns:
        plan.add(str(clm), Seekers.SC(list(examples[clm]), k=100))
    plan.add("counter", Combiners.Counter(k=10), [str(c) for c in examples.columns])
    plan.add("corr", Seekers.Correlation(["x"], [1.0], k=10))
    plan.add("union", Combiners.Union(k=40), ["kw", "counter", "corr"])
    opt = execute_plan(plan, tiny_index, optimize=True)
    noopt = execute_plan(plan, tiny_index, optimize=False)
    assert tid in opt.result
    assert opt.result == noopt.result
