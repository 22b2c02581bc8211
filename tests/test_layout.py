"""Plan shape of the index build and of the seekers over its TableId layout.

``build_index`` ingests the melted frame as Arrow batches that tasks
decode, hash-partitions ``AllTables`` by ``TableId`` and checkpoints it, all
in one Spark job. Every seeker statement (plain or with the optimizer's
``TableId IN`` / ``NOT IN`` rewrite) then plans no ``Exchange`` and runs as
one Spark job, and its plan reads the index through a leaf that does not
carry the index rows. The same rows registered unpartitioned take the
shuffle path and must give the same answers.
"""
from __future__ import annotations

import uuid
from dataclasses import replace

import pytest

from repro.core.index import INDEX_SCHEMA, build_index
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


def _plan_nodes(plan) -> list[str]:
    """Node names of a Catalyst plan tree, subquery plans included."""
    stack, names = [plan], []
    while stack:
        node = stack.pop()
        names.append(node.nodeName())
        for kids in (node.children(), node.subqueries()):
            stack.extend(kids.apply(i) for i in range(kids.size()))
    return names


def _cached_partitions(spark) -> dict[int, int]:
    """RDD id -> number of its partitions held in the block manager."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return {info.id(): info.numCachedPartitions() for info in infos}


def _checkpoint_rdd_id(index) -> int:
    """Id of the checkpointed RDD under the index's ``LogicalRDD`` leaf."""
    return index.df._jdf.queryExecution().analyzed().rdd().id()


def test_build_index_runs_one_job(spark, tiny_lake):
    """The verifying count is the one job: it decodes the Arrow batches,
    shuffles them by ``TableId`` and fills the checkpoint."""
    built = []
    assert _jobs_run(spark, lambda: built.append(
        build_index(spark, tiny_lake, view="TestLayoutBuild"))) == 1
    built[0].release()


def test_index_frame_enters_spark_through_tasks(spark, tiny_index):
    """``createDataFrame`` of an index frame is an RDD of Arrow batches,
    not a ``LocalRelation`` whose rows the plan ships inside the tasks."""
    df = spark.createDataFrame(tiny_index.pdf, schema=INDEX_SCHEMA)
    nodes = _plan_nodes(df._jdf.queryExecution().analyzed())
    assert "LogicalRDD" in nodes
    assert "LocalRelation" not in nodes


def test_release_frees_the_checkpoint(spark, tiny_lake):
    """Build, build, release the first: only the second index's partitions
    stay stored, and all of them are, before any seeker runs (so no seeker
    pays for the ingest)."""
    before = set(_cached_partitions(spark))
    first = build_index(spark, tiny_lake, view="TestLayoutFirst")
    second = build_index(spark, tiny_lake, view="TestLayoutSecond")
    first.release()
    try:
        new = {k: v for k, v in _cached_partitions(spark).items() if k not in before}
        assert new == {_checkpoint_rdd_id(second): spark.sparkContext.defaultParallelism}
    finally:
        second.release()


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


@pytest.mark.parametrize("kind", FILTERS)
@pytest.mark.parametrize("name", TYPES)
def test_seeker_plan_holds_no_local_relation(spark, tiny_index, tiny_lake, seekers, name, kind):
    """A ``LocalRelation`` carries the index rows inside the plan, and every
    statement would analyze and optimize them again."""
    sql = seekers[name].sql(tiny_index.view, _tid_filter(tiny_lake, kind))
    nodes = _plan_nodes(spark.sql(sql)._jdf.queryExecution().analyzed())
    assert "LogicalRDD" in nodes
    assert "LocalRelation" not in nodes


@pytest.mark.parametrize("n", [2, 10])
def test_sc_in_list_optimizes_to_inset(spark, tiny_index, tiny_lake, n):
    """The query values live in an ``InSet`` outside the generated code, so
    whole-stage codegen can reuse its compiled classes across queries.
    Spark's default keeps lists of up to 10 values as ``In``."""
    sc = SC(tiny_lake.tables[0]["product_key"].tolist()[:n])
    assert len(sc.q) == n
    plan = spark.sql(sc.sql(tiny_index.view))._jdf.queryExecution().optimizedPlan()
    assert " INSET " in plan.toString()


def _compiles(spark, fn) -> int:
    """Whole-stage codegen compilations while ``fn()`` runs."""
    timer = spark._jvm.org.apache.spark.metrics.source.CodegenMetrics.METRIC_COMPILATION_TIME()
    before = timer.getCount()
    fn()
    return timer.getCount() - before


def _seeker_on_rows(name, df):
    """A seeker of type ``name`` whose query comes from the rows ``df``."""
    keys = df["product_key"].tolist()
    return {
        "SC": lambda: SC(keys),
        "KW": lambda: KW(keys),
        "MC": lambda: MC(df[["product_key", "category_attr"]]),
        "C": lambda: C(keys, df["size_val"].tolist()),
    }[name]()


@pytest.mark.parametrize("kind", ["IN", "NOT IN"])
@pytest.mark.parametrize("name", TYPES)
def test_new_values_reuse_compiled_code(spark, tiny_index, tiny_lake, name, kind):
    """A seeker statement that differs from an earlier one only in its query
    values and its ``TableId`` list compiles no new code."""
    t0, tids = tiny_lake.tables[0], sorted(tiny_lake.tables)
    first, second = _seeker_on_rows(name, t0.iloc[:6]), _seeker_on_rows(name, t0.iloc[6:12])
    first.run(tiny_index, (kind, tids[:3]))
    assert _compiles(spark, lambda: second.run(tiny_index, (kind, tids[3:7]))) == 0
