"""Tests for the unified AllTables index (repro.core.index)."""
import os

import numpy as np
import pandas as pd
import pytest

from repro.core.index import build_alltables_pdf, build_index, table_long_frame
from repro.core.values import norm_cell
from repro.core.xash import super_key
from repro.lake import DataLake


@pytest.fixture(scope="module")
def mini_lake():
    lake = DataLake()
    lake.add("t0", pd.DataFrame({"name": ["a", "b", "c"], "val": [1.0, 2.0, 30.0]}))
    lake.add("t1", pd.DataFrame({"k": ["b", "x"], "s": ["yes", "no"]}))
    return lake


def test_long_frame_columns(mini_lake):
    pdf = table_long_frame(0, mini_lake.tables[0])
    assert list(pdf.columns) == [
        "CellValue", "TableId", "ColumnId", "RowId", "SuperKey", "Quadrant",
    ]


def test_long_frame_cell_count(mini_lake):
    pdf = table_long_frame(0, mini_lake.tables[0])
    assert len(pdf) == 6  # 3 rows x 2 cols, no NULLs


def test_long_frame_skips_nulls():
    df = pd.DataFrame({"a": ["x", None], "b": [1.0, float("nan")]})
    pdf = table_long_frame(5, df)
    assert len(pdf) == 2
    assert set(pdf["TableId"]) == {5}


def test_long_frame_quadrant_semantics(mini_lake):
    pdf = table_long_frame(0, mini_lake.tables[0])
    nums = pdf[pdf["ColumnId"] == 1].sort_values("RowId")
    # mean(1,2,30)=11 -> quadrants F,F,T
    assert list(nums["Quadrant"]) == [False, False, True]
    strs = pdf[pdf["ColumnId"] == 0]
    assert strs["Quadrant"].isna().all()


def test_long_frame_superkey_matches_row(mini_lake):
    df = mini_lake.tables[0]
    pdf = table_long_frame(0, df)
    row0 = pdf[pdf["RowId"] == 0]
    expected = super_key([norm_cell(df.iloc[0, 0]), norm_cell(df.iloc[0, 1])])
    assert set(row0["SuperKey"]) == {expected}


def test_long_frame_row_perm():
    df = pd.DataFrame({"a": ["x", "y"]})
    pdf = table_long_frame(0, df, row_perm=np.array([1, 0]))
    by_val = pdf.set_index("CellValue")["RowId"]
    assert by_val["x"] == 1 and by_val["y"] == 0


def _melt_reference(tid, df, row_perm=None):
    """Cell-by-cell melt: the loop ``table_long_frame`` replaced."""
    n = len(df)
    row_ids = row_perm if row_perm is not None else np.arange(n)
    normed, quads = [], []
    for j in range(df.shape[1]):
        s = df.iloc[:, j]
        normed.append([norm_cell(v) for v in s.tolist()])
        if pd.api.types.is_numeric_dtype(s) and s.notna().any():
            mean = float(s.astype(float).mean())
            quads.append([bool(float(v) >= mean) if pd.notna(v) else None for v in s.tolist()])
        else:
            quads.append([None] * n)
    skeys = [super_key(normed[j][i] for j in range(df.shape[1])) for i in range(n)]
    recs = {c: [] for c in ["CellValue", "TableId", "ColumnId", "RowId", "SuperKey", "Quadrant"]}
    for j in range(df.shape[1]):
        for i in range(n):
            if normed[j][i] is None:
                continue
            for c, v in zip(recs, (normed[j][i], tid, j, int(row_ids[i]), skeys[i], quads[j][i])):
                recs[c].append(v)
    return pd.DataFrame(recs)


def _expected(rows):
    """A long frame from (CellValue, TableId, ColumnId, RowId, SuperKey,
    Quadrant) tuples, with the dtypes ``table_long_frame`` produces."""
    cols = list(zip(*rows)) if rows else [[]] * 6
    return pd.DataFrame({
        "CellValue": np.array(cols[0], dtype=object),
        "TableId": np.array(cols[1], dtype=np.int64),
        "ColumnId": np.array(cols[2], dtype=np.int64),
        "RowId": np.array(cols[3], dtype=np.int64),
        "SuperKey": np.array(cols[4], dtype=np.int64),
        "Quadrant": list(cols[5]),
    })


def _check_melt(got, rows):
    pd.testing.assert_frame_equal(got, _expected(rows), check_exact=True)
    assert [type(q) for q in got["Quadrant"]] == [type(r[5]) for r in rows]


def test_long_frame_null_only_column():
    df = pd.DataFrame({"a": ["x", "y"], "b": [None, None], "n": [np.nan, np.nan]})
    sk = [super_key(["x"]), super_key(["y"])]
    _check_melt(table_long_frame(3, df), [("x", 3, 0, 0, sk[0], None), ("y", 3, 0, 1, sk[1], None)])


def test_long_frame_all_null_row():
    df = pd.DataFrame({"a": ["x", None, "z"], "v": [2.0, np.nan, 4.0]})
    sk0, sk2 = super_key(["x", "2"]), super_key(["z", "4"])
    _check_melt(table_long_frame(0, df), [
        ("x", 0, 0, 0, sk0, None), ("z", 0, 0, 2, sk2, None),
        ("2", 0, 1, 0, sk0, False), ("4", 0, 1, 2, sk2, True),
    ])


def test_long_frame_empty_table():
    for df in (pd.DataFrame({"a": [], "b": []}), pd.DataFrame(index=range(3))):
        _check_melt(table_long_frame(1, df), [])


def test_long_frame_shuffled_rowids():
    df = pd.DataFrame({"a": ["p", "q", "r"], "b": [1, 2, None]}, dtype=object)
    sk = [super_key(["p", "1"]), super_key(["q", "2"]), super_key(["r"])]
    _check_melt(table_long_frame(0, df, row_perm=np.array([2, 0, 1])), [
        ("p", 0, 0, 2, sk[0], None), ("q", 0, 0, 0, sk[1], None), ("r", 0, 0, 1, sk[2], None),
        ("1", 0, 1, 2, sk[0], None), ("2", 0, 1, 0, sk[1], None),
    ])


def test_long_frame_bool_cells():
    df = pd.DataFrame({"flag": [True, False, True]})
    sk_t, sk_f = super_key(["true"]), super_key(["false"])
    # bool is numeric to pandas: mean 2/3, so True -> upper quadrant
    _check_melt(table_long_frame(0, df), [
        ("true", 0, 0, 0, sk_t, True), ("false", 0, 0, 1, sk_f, False),
        ("true", 0, 0, 2, sk_t, True),
    ])


def test_long_frame_numeric_nan_quadrant():
    df = pd.DataFrame({"k": ["a", "b", "c", "d"], "v": [1.0, np.nan, 5.0, 3.5]})
    sk = [super_key(["a", "1"]), super_key(["b"]), super_key(["c", "5"]), super_key(["d", "3.5"])]
    # mean over the non-NULL cells = 3.1667; the NaN cell has no row, the
    # string column no quadrant
    _check_melt(table_long_frame(0, df), [
        ("a", 0, 0, 0, sk[0], None), ("b", 0, 0, 1, sk[1], None),
        ("c", 0, 0, 2, sk[2], None), ("d", 0, 0, 3, sk[3], None),
        ("1", 0, 1, 0, sk[0], False), ("5", 0, 1, 2, sk[2], True), ("3.5", 0, 1, 3, sk[3], True),
    ])


def test_long_frame_matches_loop_reference(tiny_lake, c_lake):
    g = np.random.default_rng(0)
    for lake in (tiny_lake, c_lake):
        for tid, df in lake.tables.items():
            for perm in (None, g.permutation(len(df))):
                got = table_long_frame(tid, df, row_perm=perm)
                pd.testing.assert_frame_equal(got, _melt_reference(tid, df, perm), check_exact=True)


def test_build_alltables_pdf_shuffle_roundtrip(mini_lake, tiny_lake):
    """Shuffling permutes RowIds only: each (TableId, RowId) holds exactly
    the cells of one lake row, and every lake row has one RowId."""
    moved = []
    for lake in (mini_lake, tiny_lake):
        pdf = build_alltables_pdf(lake, shuffle_rows=True, seed=1)
        moved.append(not pdf["RowId"].equals(build_alltables_pdf(lake)["RowId"]))
        for tid, df in lake.tables.items():
            rows = sorted(
                sorted((j, c) for j, c in enumerate(map(norm_cell, row)) if c is not None)
                for row in df.itertuples(index=False)
            )
            sub = pdf[pdf["TableId"] == tid]
            got = sorted(
                sorted(zip(g["ColumnId"], g["CellValue"])) for _, g in sub.groupby("RowId")
            )
            assert got == [r for r in rows if r]
            assert set(sub["RowId"]) <= set(range(len(df)))
    assert any(moved)


def test_build_index_counts(spark, mini_lake):
    idx = build_index(spark, mini_lake, view="TestMini")
    assert idx.df.count() == len(idx.pdf) == 10


def test_build_index_registers_view(spark, mini_lake):
    build_index(spark, mini_lake, view="TestMini2")
    n = spark.sql("SELECT COUNT(*) AS n FROM TestMini2").collect()[0].n
    assert n == 10


def test_value_freq(tiny_index):
    f = tiny_index.value_freq
    # frequencies must equal pandas value counts of the long frame
    assert f.sum() == len(tiny_index.pdf)
    some_val = tiny_index.pdf["CellValue"].iloc[0]
    assert f[some_val] == (tiny_index.pdf["CellValue"] == some_val).sum()


def test_avg_frequency(tiny_index):
    v = tiny_index.pdf["CellValue"].iloc[0]
    assert tiny_index.avg_frequency([v]) == float(tiny_index.value_freq[v])
    assert tiny_index.avg_frequency([]) == 0.0
    assert tiny_index.avg_frequency(["@@absent@@"]) == 0.0


def test_quadrant_nullable_boolean_in_spark(tiny_index):
    schema = dict(tiny_index.df.dtypes)
    assert schema["Quadrant"] == "boolean"
    assert schema["SuperKey"] == "bigint"
    assert schema["CellValue"] == "string"


def test_index_matches_duckdb_scan(tiny_index):
    """Oracle: Spark's view of the index equals the pandas long frame."""
    from repro.oracle import assert_equivalent

    got = tiny_index.spark.sql(
        f"SELECT CellValue, TableId, ColumnId, RowId FROM {tiny_index.view}"
    )
    assert_equivalent(
        got,
        "SELECT CellValue, TableId, ColumnId, RowId FROM idx",
        idx=tiny_index.pdf,
    )


def test_write_parquet_bytes(tmp_path, tiny_index):
    n = tiny_index.write_parquet(str(tmp_path / "idx"))
    assert n > 0
    assert os.path.isdir(tmp_path / "idx")


def test_write_parquet_roundtrip(tmp_path, spark, tiny_index):
    """The Parquet is one file, sorted, holding exactly the index rows."""
    tiny_index.write_parquet(str(tmp_path / "idx"))
    files = sorted((tmp_path / "idx").glob("part-*.parquet"))
    assert len(files) == 1
    key = ["TableId", "ColumnId", "RowId"]
    back = pd.read_parquet(files[0])  # file order, not Spark's read order
    assert back[key].equals(back[key].sort_values(key, ignore_index=True))
    pd.testing.assert_frame_equal(
        back,
        tiny_index.pdf.sort_values(key, ignore_index=True),
        check_dtype=False,
    )


def test_empty_lake_index(spark):
    idx = build_index(spark, DataLake(), view="TestEmpty")
    assert idx.df.count() == 0
