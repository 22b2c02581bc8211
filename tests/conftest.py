"""Shared test fixtures: tiny lakes and their BLEND indexes.

All fixtures are session-scoped: each index is built once (a Spark
createDataFrame, a TableId repartition and a local checkpoint, in one
job), shared by every test that reads it and released at teardown. Tests
never mutate lakes or indexes. The SparkSession is the root conftest's
``spark`` fixture.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_index
from repro.lake import corr_lake, union_lake, webtable_lake


@pytest.fixture(scope="session")
def tiny_lake():
    return webtable_lake(
        n_groups=3, tables_per_group=3, entity_rows=60,
        rows_per_table=(15, 30), n_noise_tables=3, seed=1,
    )


@pytest.fixture(scope="session")
def tiny_index(spark, tiny_lake):
    index = build_index(spark, tiny_lake, view="TestTiny")
    yield index
    index.release()


@pytest.fixture(scope="session")
def u_lake():
    return union_lake(
        n_base=3, segments_per_base=4, rows_per_segment=15,
        semantic_frac=0.34, n_distractors=4, seed=2,
    )


@pytest.fixture(scope="session")
def u_index(spark, u_lake):
    index = build_index(spark, u_lake, view="TestUnion")
    yield index
    index.release()


@pytest.fixture(scope="session")
def c_lake():
    return corr_lake(
        n_cat_queries=2, n_num_queries=1, n_keys=12, reps_per_key=6,
        candidates_per_query=4, n_distractors=2, seed=3,
    )


@pytest.fixture(scope="session")
def c_index(spark, c_lake):
    index = build_index(spark, c_lake, view="TestCorr")
    yield index
    index.release()


@pytest.fixture(scope="session")
def c_index_rand(spark, c_lake):
    index = build_index(spark, c_lake, view="TestCorrRand", shuffle_rows=True, seed=9)
    yield index
    index.release()


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
