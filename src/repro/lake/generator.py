"""Generic "webtable" lake generator with planted joinable groups.

Substitutes the paper's real web-table corpora (DWTC, Gittables, German
open data — Table II) at laptop scale. Ground truth is planted: tables in
the same *group* are projections/row-samples of one underlying entity
relation, so multi-column joinability between them is known by
construction. :func:`add_tpch_slices` can add TPC-H-lite slices from
:mod:`repro.synth_data` as further members; no lake of the paper tables
calls it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .. import synth_data
from .base import DataLake
from .domains import NUMERIC_DOMAINS, STRING_DOMAINS, sample_numeric, sample_string

_KEY1_DOMAINS = ["person", "product", "project", "code"]
_KEY2_DOMAINS = ["department", "city", "category", "company"]


def _entity_table(g: np.random.Generator, n_rows: int) -> tuple[pd.DataFrame, list[str]]:
    """One underlying entity relation: two string key columns + one extra
    string column + 1–2 numeric columns. Returns (frame, column domains)."""
    d1 = _KEY1_DOMAINS[g.integers(0, len(_KEY1_DOMAINS))]
    d2 = _KEY2_DOMAINS[g.integers(0, len(_KEY2_DOMAINS))]
    d3 = list(STRING_DOMAINS)[g.integers(0, len(STRING_DOMAINS))]
    nd = [NUMERIC_DOMAINS[g.integers(0, len(NUMERIC_DOMAINS))]]
    cols = {
        f"{d1}_key": sample_string(d1, n_rows, g),
        f"{d2}_attr": sample_string(d2, n_rows, g),
        f"{d3}_info": sample_string(d3, n_rows, g),
        f"{nd[0]}_val": sample_numeric(nd[0], n_rows, g),
    }
    if g.random() < 0.5:
        nd.append(NUMERIC_DOMAINS[g.integers(0, len(NUMERIC_DOMAINS))])
        cols[f"{nd[1]}_val2"] = sample_numeric(nd[1], n_rows, g)
    return pd.DataFrame(cols), [d1, d2, d3] + nd


def webtable_lake(
    *,
    n_groups: int = 10,
    tables_per_group: int = 4,
    entity_rows: int = 120,
    rows_per_table: tuple[int, int] = (30, 80),
    n_noise_tables: int = 10,
    seed: int = 0,
) -> DataLake:
    """Build a webtable-style lake.

    ``meta`` keys:
      - ``groups``: group id -> list of member table ids,
      - ``entities``: group id -> the underlying entity frame,
      - ``column_domains``: (tid, col index) -> domain name.
    """
    g = np.random.default_rng(seed)
    lake = DataLake(meta={"groups": {}, "entities": {}, "column_domains": {}})

    for gid in range(n_groups):
        entity, domains = _entity_table(g, entity_rows)
        lake.meta["entities"][gid] = entity
        members = []
        for m in range(tables_per_group):
            n = int(g.integers(rows_per_table[0], rows_per_table[1] + 1))
            rows = g.choice(entity_rows, size=min(n, entity_rows), replace=False)
            # keep both key columns, drop each non-key column with prob 1/3
            keep = [0, 1] + [j for j in range(2, len(entity.columns)) if g.random() > 1 / 3]
            sub = entity.iloc[sorted(rows), keep].reset_index(drop=True)
            tid = lake.add(f"group{gid}_t{m}", sub)
            members.append(tid)
            for out_j, ent_j in enumerate(keep):
                lake.meta["column_domains"][(tid, out_j)] = domains[ent_j]
        lake.meta["groups"][gid] = members

    for i in range(n_noise_tables):
        n = int(g.integers(rows_per_table[0], rows_per_table[1] + 1))
        sdoms = list(g.choice(list(STRING_DOMAINS), size=2, replace=False))
        ndom = NUMERIC_DOMAINS[g.integers(0, len(NUMERIC_DOMAINS))]
        df = pd.DataFrame(
            {
                f"{sdoms[0]}_a": sample_string(sdoms[0], n, g),
                f"{sdoms[1]}_b": sample_string(sdoms[1], n, g),
                f"{ndom}_c": sample_numeric(ndom, n, g),
            }
        )
        tid = lake.add(f"noise_{i}", df)
        for j, d in enumerate(sdoms + [ndom]):
            lake.meta["column_domains"][(tid, j)] = d
    return lake


def add_tpch_slices(lake: DataLake, spark, *, sf: float = 0.002, slice_rows: int = 50,
                    n_slices: int = 4, seed: int = 7) -> list[int]:
    """Mix TPC-H-lite slices into ``lake`` as additional member tables.

    Uses the provided :mod:`repro.synth_data` generators (customer/orders/
    part) and slices them row-wise; each slice becomes a lake table with
    pseudo-domains ``tpch_<column>`` recorded in ``column_domains``.
    """
    g = np.random.default_rng(seed)
    frames = {
        "customer": synth_data.customer(spark, sf=sf, seed=seed).toPandas()[
            ["c_custkey", "c_mktsegment", "c_acctbal"]
        ],
        "orders": synth_data.orders(spark, sf=sf, seed=seed + 1).toPandas()[
            ["o_orderkey", "o_orderpriority", "o_totalprice"]
        ],
        "part": synth_data.part(spark, sf=sf, seed=seed + 2).toPandas()[
            ["p_partkey", "p_brand", "p_type", "p_retailprice"]
        ],
    }
    tids = []
    names = list(frames)
    for i in range(n_slices):
        name = names[i % len(names)]
        pdf = frames[name]
        start = int(g.integers(0, max(1, len(pdf) - slice_rows)))
        sub = pdf.iloc[start : start + slice_rows].reset_index(drop=True)
        tid = lake.add(f"tpch_{name}_{i}", sub)
        for j, c in enumerate(sub.columns):
            lake.meta["column_domains"][(tid, j)] = f"tpch_{c}"
        tids.append(tid)
    lake.meta.setdefault("tpch", []).extend(tids)
    return tids


def sample_mc_query(lake: DataLake, *, gid: int | None = None, n_rows: int = 8,
                    seed: int = 0) -> tuple[pd.DataFrame, int]:
    """Sample a 2-column composite-key query table from a planted group.

    Returns (query frame with the two string key columns, source table id).
    Rows are drawn from one member table, so at least the other members of
    the group contain joinable rows.
    """
    g = np.random.default_rng(seed)
    groups = lake.meta["groups"]
    if gid is None:
        gid = int(g.integers(0, len(groups)))
    tid = groups[gid][int(g.integers(0, len(groups[gid])))]
    df = lake.tables[tid]
    rows = g.choice(len(df), size=min(n_rows, len(df)), replace=False)
    return df.iloc[sorted(rows), [0, 1]].reset_index(drop=True), tid
