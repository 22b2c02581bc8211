"""Unit tests for cell-value normalization (repro.core.values)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.values import norm_cell, norm_values, sql_in_list, sql_quote


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
    ],
)
def test_norm_cell(value, expected):
    assert norm_cell(value) == expected


def test_norm_cell_numpy_nan():
    assert norm_cell(np.nan) is None


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
