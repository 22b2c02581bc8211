"""Unit tests for cell-value normalization (repro.core.values)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.index import build_index
from repro.core.seekers import KW, SC
from repro.core.values import norm_cell, norm_values, sql_in_list, sql_quote
from repro.lake import DataLake
from repro.oracle import assert_equivalent


@pytest.mark.parametrize(
    "value,expected",
    [
        (5, "5"),
        (5.0, "5"),
        (np.int64(7), "7"),
        (np.float64(7.0), "7"),
        (-3, "-3"),
        (0, "0"),
        (2.5, "2.5"),
        (1.234567891, "1.23457"),
        ("hello", "hello"),
        ("  padded  ", "padded"),
        ("", None),
        ("   ", None),
        (None, None),
        (float("nan"), None),
        (True, "true"),
        (False, "false"),
        (np.str_(" np str "), "np str"),
        (np.float32(2.5), "2.5"),
        (np.float32(7.0), "7"),
        # every scalar pd.isna accepts is a NULL cell, not the text of its repr
        (pd.NA, None),
        (pd.NaT, None),
        (np.datetime64("NaT"), None),
        (np.timedelta64("NaT"), None),
        (np.float32("nan"), None),
        (np.float16("nan"), None),
    ],
)
def test_norm_cell(value, expected):
    assert norm_cell(value) == expected


def test_norm_cell_numpy_nan():
    assert norm_cell(np.nan) is None


def test_norm_values_float32_array_drops_nan():
    assert norm_values(np.array([1.0, np.nan, 2.5], dtype=np.float32)) == ["1", "2.5"]


def test_norm_cell_pandas_na_float():
    s = pd.Series([1.0, None])
    assert norm_cell(s.iloc[1]) is None


def test_integral_float_matches_int():
    # numeric join keys must match across representations (paper §VI iii)
    assert norm_cell(42) == norm_cell(42.0) == norm_cell(np.float64(42.0))


def test_norm_values_dedup_order():
    assert norm_values(["b", "a", "b", None, "a"]) == ["b", "a"]


def test_norm_values_drops_nulls():
    assert norm_values([None, float("nan"), ""]) == []


def test_norm_values_mixed_types():
    assert norm_values([1, "1", 2.0]) == ["1", "2"]


def test_sql_quote_plain():
    assert sql_quote("abc") == "'abc'"


def test_sql_quote_escapes_single_quote():
    assert sql_quote("O'Brien") == "'O''Brien'"


def test_sql_in_list_basic():
    assert sql_in_list(["a", "b"]) == "'a', 'b'"


def test_sql_in_list_empty_matches_nothing():
    # empty Q must compare against a value no normalized cell can be
    assert sql_in_list([]) == "''"


def test_norm_cell_float_formatting_stable():
    assert norm_cell(0.1 + 0.2) == norm_cell(0.30000000000000004)


@pytest.mark.parametrize("v", [1e-7, 123456.789, -0.5, 3.14159])
def test_norm_cell_float_roundtrip_is_deterministic(v):
    assert norm_cell(v) == norm_cell(v)


def test_sql_quote_backslash_is_chr92():
    # Spark string literals read `\` as an escape character, DuckDB's do
    # not; chr(92) spells it the same way in both engines
    assert sql_quote("C:\\temp") == "'C:' || chr(92) || 'temp'"
    assert sql_quote("end\\") == "'end' || chr(92) || ''"
    assert sql_quote("a\\'b") == "'a' || chr(92) || '''b'"


#: cell values whose backslashes Spark's literal parser would rewrite
BACKSLASHED = ["C:\\temp", "ends\\", "\\", "a\\'b", "\\u0041", "\\\\share", "x\\\\'y"]


@pytest.fixture(scope="module")
def na_index(spark):
    """Nullable-integer, nullable-string and datetime columns with NA cells."""
    lake = DataLake()
    lake.add("a", pd.DataFrame({
        "n": pd.array([1, pd.NA, 2], dtype="Int64"),
        "s": pd.array(["x", pd.NA, "y"], dtype="string"),
    }))
    lake.add("b", pd.DataFrame({"n": pd.array([pd.NA, 5, 6], dtype="Int64")}))
    lake.add("dates", pd.DataFrame({"d": pd.to_datetime(["2020-01-01", None])}))
    index = build_index(spark, lake, view="TestNA")
    yield index
    index.release()


def test_na_cells_are_not_indexed(na_index):
    assert len(na_index.pdf) == 4 + 2 + 1
    assert not na_index.pdf["CellValue"].isin(["<NA>", "NaT", "nan"]).any()


def test_sc_with_na_query_value_finds_only_true_match(na_index):
    seeker = SC([1, pd.NA])
    assert seeker.q == ["1"]
    assert seeker.run(na_index).tables == [0]
    spark_df = na_index.spark.sql(seeker.sql(na_index.view))
    assert_equivalent(spark_df, seeker.sql("idx"), idx=na_index.pdf)


@pytest.mark.parametrize("text", ["<NA>", "NaT"])
def test_kw_missing_value_text_matches_nothing(na_index, text):
    assert KW([text]).run(na_index).tables == []


@pytest.fixture(scope="module")
def backslash_index(spark):
    lake = DataLake()
    lake.add("paths", pd.DataFrame({"p": BACKSLASHED + ["it's"]}))
    # what the escaped spellings would read as, if Spark parsed them
    lake.add("decoys", pd.DataFrame({"p": ["C:\temp", "A", "\\share", "a'b", "x\\'y"]}))
    index = build_index(spark, lake, view="TestBackslash")
    yield index
    index.release()


@pytest.mark.parametrize("value", BACKSLASHED)
def test_backslash_value_round_trips(backslash_index, value):
    seeker = KW([value], k=10)
    assert seeker.run(backslash_index).tables == [0]
    spark_df = backslash_index.spark.sql(seeker.sql(backslash_index.view))
    assert_equivalent(spark_df, seeker.sql("idx"), idx=backslash_index.pdf)


def test_backslash_values_in_one_list(backslash_index):
    seeker = SC(BACKSLASHED + ["it's"], k=10)
    res = seeker.run(backslash_index)
    assert res.tables == [0]
    assert res.scores[0] == len(BACKSLASHED) + 1
    spark_df = backslash_index.spark.sql(seeker.sql(backslash_index.view))
    assert_equivalent(spark_df, seeker.sql("idx"), idx=backslash_index.pdf)
