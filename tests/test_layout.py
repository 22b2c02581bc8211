"""Plan shape of the seekers over the TableId-partitioned index.

``build_index`` hash-partitions the cached ``AllTables`` by ``TableId``, so
every seeker statement (plain or with the optimizer's ``TableId IN`` /
``NOT IN`` rewrite) plans no ``Exchange`` and runs as one Spark job. The
same rows registered unpartitioned take the shuffle path and must give the
same answers.
"""
from __future__ import annotations

import uuid
from dataclasses import replace

import pytest

from repro.core.index import INDEX_SCHEMA
from repro.core.seekers import C, KW, MC, SC

TYPES = ["SC", "KW", "MC", "C"]
FILTERS = ["plain", "IN", "NOT IN"]


@pytest.fixture(scope="module")
def seekers(tiny_lake):
    t0 = tiny_lake.tables[0]
    return {
        "SC": SC(t0["product_key"].tolist()),
        "KW": KW(t0["category_attr"].tolist()[:10] + t0["status_info"].tolist()[:3]),
        "MC": MC(t0[["product_key", "category_attr"]].head(8)),
        "C": C(t0["product_key"].tolist(), t0["size_val"].tolist()),
    }


@pytest.fixture(scope="module")
def flat_index(spark, tiny_index):
    """The tiny index's rows, cached but not partitioned by TableId."""
    view = "TestTinyFlat"
    df = spark.createDataFrame(tiny_index.pdf, schema=INDEX_SCHEMA).cache()
    df.createOrReplaceTempView(view)
    yield replace(tiny_index, df=df, view=view)
    df.unpersist()


def _tid_filter(tiny_lake, kind):
    if kind == "plain":
        return None
    return (kind, sorted(tiny_lake.tables)[::2])  # both kinds keep some hits


def _exchanges(spark, sql: str) -> int:
    """``Exchange`` nodes in the statement's physical plan. The walk follows
    ``children()`` only, so the plan that built the cache is not counted."""
    stack, n = [spark.sql(sql)._jdf.queryExecution().executedPlan()], 0
    while stack:
        node = stack.pop()
        if node.nodeName() == "AdaptiveSparkPlan":
            node = node.executedPlan()
        n += "Exchange" in node.nodeName()
        children = node.children()
        stack.extend(children.apply(i) for i in range(children.size()))
    return n


def _jobs_run(spark, fn) -> int:
    """Number of Spark jobs ``fn()`` runs."""
    sc = spark.sparkContext
    group = f"test-layout-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job events arrive asynchronously
    return len(sc.statusTracker().getJobIdsForGroup(group))


def test_index_partitioned_by_tableid(spark, tiny_index):
    parts = tiny_index.df.rdd.glom().map(
        lambda rows: sorted({r.TableId for r in rows})).collect()
    assert len(parts) == spark.sparkContext.defaultParallelism
    seen = [t for p in parts for t in p]
    assert len(seen) == len(set(seen)) == len(tiny_index.lake.tables)


@pytest.mark.parametrize("kind", FILTERS)
@pytest.mark.parametrize("name", TYPES)
def test_seeker_plans_no_exchange(spark, tiny_index, tiny_lake, seekers, name, kind):
    sql = seekers[name].sql(tiny_index.view, _tid_filter(tiny_lake, kind))
    assert _exchanges(spark, sql) == 0


@pytest.mark.parametrize("kind", FILTERS)
@pytest.mark.parametrize("name", TYPES)
def test_seeker_call_runs_one_job(spark, tiny_index, tiny_lake, seekers, name, kind):
    filt = _tid_filter(tiny_lake, kind)
    seekers[name].run(tiny_index, filt)  # warm: first calls may plan differently
    assert _jobs_run(spark, lambda: seekers[name].run(tiny_index, filt)) == 1


@pytest.mark.parametrize("kind", FILTERS)
@pytest.mark.parametrize("name", TYPES)
def test_shuffle_path_gives_same_results(
    spark, tiny_index, flat_index, tiny_lake, seekers, name, kind
):
    seeker, filt = seekers[name], _tid_filter(tiny_lake, kind)
    assert _exchanges(spark, seeker.sql(flat_index.view, filt)) > 0
    part, flat = seeker.run(tiny_index, filt), seeker.run(flat_index, filt)
    assert part.tables  # the comparison is not vacuous
    assert part.tables == flat.tables
    assert part.scores == flat.scores
