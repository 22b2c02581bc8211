"""Sanity tests for the provided synth_data generators + DuckDB oracle."""
import pytest

from repro import synth_data
from repro.oracle import assert_equivalent


def test_lineitem_schema(spark):
    df = synth_data.lineitem(spark, sf=0.001)
    assert "l_orderkey" in df.columns and "l_quantity" in df.columns
    assert df.count() == 6000


def test_orders_deterministic(spark):
    a = synth_data.orders(spark, sf=0.001, seed=1).toPandas()
    b = synth_data.orders(spark, sf=0.001, seed=1).toPandas()
    assert a.equals(b)


def test_zipf_keys_skewed(spark):
    df = synth_data.zipf_keys(spark, n=5000, n_keys=100, alpha=1.2).toPandas()
    counts = df["k"].value_counts()
    assert counts.iloc[0] > counts.iloc[-1]


def test_uniform_keys_range(spark):
    df = synth_data.uniform_keys(spark, n=1000, n_keys=50).toPandas()
    assert df["k"].between(1, 50).all()


def test_oracle_catches_agreement(spark):
    li = synth_data.lineitem(spark, sf=0.001)
    li.createOrReplaceTempView("li_oracle_test")
    got = spark.sql(
        "SELECT l_returnflag AS f, COUNT(*) AS n FROM li_oracle_test GROUP BY l_returnflag"
    )
    assert_equivalent(
        got,
        "SELECT l_returnflag AS f, COUNT(*) AS n FROM li GROUP BY l_returnflag",
        li=li,
    )


def test_oracle_catches_mismatch(spark):
    li = synth_data.lineitem(spark, sf=0.001)
    li.createOrReplaceTempView("li_oracle_test2")
    got = spark.sql("SELECT COUNT(*) AS n FROM li_oracle_test2 WHERE l_quantity > 25")
    with pytest.raises(AssertionError):
        assert_equivalent(
            got,
            "SELECT COUNT(*) AS n FROM li WHERE l_quantity > 26",
            li=li,
        )


def test_tpch_slices_into_lake(spark, tiny_lake):
    """add_tpch_slices extends a lake with OLAP-schema members."""
    from repro.lake import add_tpch_slices, webtable_lake

    lake = webtable_lake(n_groups=2, tables_per_group=2, n_noise_tables=1, seed=9)
    before = lake.n_tables
    tids = add_tpch_slices(lake, spark, sf=0.002, n_slices=3, slice_rows=20)
    assert lake.n_tables == before + 3
    for tid in tids:
        assert (tid, 0) in lake.meta["column_domains"]
        assert len(lake.tables[tid]) == 20
