"""Every SQL shape the executor emits, checked against the DuckDB oracle,
and every statement of a plan traced to one ``Seeker.run`` call.

The shapes are each seeker type plain, rewritten with ``TableId IN`` and
``NOT IN`` (also with an empty id list, which renders as ``AND 1=0`` and
as no predicate), and the Counter push-down."""
import pytest

from repro.core import execute_plan
from repro.core.plan import Combiners, Plan
from repro.core.seekers import C, KW, MC, SC, CounterPushdown, Seeker
from repro.lake import sample_mc_query
from repro.oracle import assert_equivalent

FILTERS = ["plain", "IN", "NOT IN", "IN []", "NOT IN []"]


@pytest.fixture(scope="module")
def pool(tiny_lake):
    """One seeker per type, plus a push-down of two SC and one KW, built
    from group 0 of the tiny lake."""
    t0, t3 = tiny_lake.tables[0], tiny_lake.tables[3]
    q, _ = sample_mc_query(tiny_lake, gid=0, n_rows=5, seed=31)
    kw = KW(list(t0.iloc[:3, 0]), k=10)
    return {
        "SC": SC(list(t0.iloc[:, 0]), k=10),
        "KW": kw,
        "MC": MC(q, k=10),
        "C": C(list(t3.iloc[:, 0]), list(t3.iloc[:, 3]), k=10),
        "Counter": CounterPushdown(
            [SC(list(t0.iloc[:, 0]), k=10), SC(list(t0.iloc[:, 1]), k=10), kw], k=10),
    }


def _filter(kind: str, seeker: Seeker, index):
    if kind == "plain":
        return None
    if kind.endswith("[]"):
        return (kind[:-3], [])
    tables = seeker.run(index).tables
    assert tables, "the plain query must hit tables for the rewrite to test anything"
    # IN keeps part of the plain result and names a table outside it
    ids = tables[: max(1, len(tables) // 2)] + ([11] if kind == "IN" else [])
    return (kind, ids)


@pytest.mark.parametrize("kind", FILTERS)
@pytest.mark.parametrize("seeker", ["SC", "KW", "MC", "C", "Counter"])
def test_sql_shape_matches_duckdb(pool, tiny_index, seeker, kind):
    s = pool[seeker]
    tid_filter = _filter(kind, s, tiny_index)
    spark_df = tiny_index.spark.sql(s.sql(tiny_index.view, tid_filter))
    assert_equivalent(spark_df, s.sql("idx", tid_filter), idx=tiny_index.pdf)


def test_every_statement_goes_through_seeker_run(pool, tiny_index, monkeypatch):
    """A plan with a push-down, an IN and a NOT IN rewrite: each statement
    in ``PlanResult.sqls`` comes from exactly one ``Seeker.run`` call."""
    run, sqls = Seeker.run, []

    def counted(self, index, tid_filter=None):
        out = run(self, index, tid_filter)
        sqls.append(out.sql)
        return out

    monkeypatch.setattr(Seeker, "run", counted)
    sc, sc2, kw = pool["Counter"].members
    plan = Plan()
    plan.add("s0", sc).add("s1", sc2)
    plan.add("cnt", Combiners.Counter(k=10), ["s0", "s1"])
    plan.add("sc", pool["SC"]).add("mc", pool["MC"])
    plan.add("i", Combiners.Intersect(k=10), ["sc", "mc"])
    plan.add("kw", kw).add("c", pool["C"])
    plan.add("d", Combiners.Difference(k=10), ["kw", "c"])
    plan.add("u", Combiners.Union(k=30), ["cnt", "i", "d"])
    res = execute_plan(plan, tiny_index, optimize=True)
    assert sorted(res.rewrites.values()) == ["COUNT-pushdown", "IN", "NOT IN"]
    assert sqls == res.sqls
    assert len(sqls) == 5
