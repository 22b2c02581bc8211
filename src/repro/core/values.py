"""Cell-value normalization shared by the index builder, seekers and baselines.

Every cell in the lake is serialized to a canonical string before it enters
the ``AllTables`` inverted index (paper §V: *CellValue* is a varchar). The
same normalization must be applied to query-side values, otherwise numeric
join keys would not match — supporting numeric join keys is one of BLEND's
explicitly claimed advantages over the QCR baseline (§VI, Table VII).
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np
import pandas as pd
from pandas.api.types import is_scalar


def norm_cell(v) -> str | None:
    """Canonical string form of one cell value.

    Integers (and integral floats) render without a decimal point so that
    ``5``, ``5.0`` and numpy int64(5) all map to ``"5"``. Floats render via
    ``%.6g`` so the oracle and both engines agree. Every scalar that
    ``pd.isna`` accepts (None, NaN of any float width, ``pd.NA``, ``pd.NaT``,
    numpy ``NaT``) maps to ``None``: it is excluded from the index, and a
    NULL cell matches nothing.
    """
    if isinstance(v, str):  # the common case, checked first (numpy str_ too)
        s = v.strip()
        return s if s else None
    if isinstance(v, np.floating):  # float32 and float16; float64 is a float
        v = float(v)
    if isinstance(v, float):  # the next most common case
        if math.isnan(v):
            return None
        return str(int(v)) if v.is_integer() else "%.6g" % v
    if is_scalar(v) and pd.isna(v):
        return None
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)) or (hasattr(v, "dtype") and pd.api.types.is_integer_dtype(v)):
        return str(int(v))
    s = str(v).strip()
    return s if s else None


def norm_values(values: Iterable) -> list[str]:
    """Normalize an iterable of cells, dropping NULLs and de-duplicating
    while preserving first-seen order (query sets are sets of values)."""
    seen: dict[str, None] = {}
    for v in values:
        n = norm_cell(v)
        if n is not None and n not in seen:
            seen[n] = None
    return list(seen)


def sql_quote(value: str) -> str:
    """Quote a normalized value as a SQL string expression.

    Single quotes are doubled. Spark reads ``\\`` inside a string literal
    as an escape character and DuckDB does not, so each backslash is
    spliced in as ``chr(92)``, which both engines read the same way; a
    value without a backslash stays one plain literal.
    """
    return "'" + value.replace("'", "''").replace("\\", "' || chr(92) || '") + "'"


def sql_in_list(values: Iterable[str]) -> str:
    """Render ``values`` as the body of a SQL ``IN (...)`` list.

    An empty query set must match nothing; we emit a value no normalized
    cell can equal (normalized cells are non-empty strings).
    """
    vals = list(values)
    if not vals:
        return "''"
    return ", ".join(sql_quote(v) for v in vals)
