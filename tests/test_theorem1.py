"""Theorem 1 as a property: on random plan DAGs, the optimized (BLEND) and
unoptimized (B-NO) executions return the same result.

Plans draw their seekers from a fixed pool over the tiny lake and combine
them with every combiner type, sharing seekers between consumers and
nesting combiners. Every ``k`` is 1000, so LIMIT truncation never binds
(DESIGN.md § Semantics caveat)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import execute_plan
from repro.core.plan import Combiners, Plan
from repro.core.seekers import C, KW, MC, SC
from repro.lake import sample_mc_query

BIG_K = 1000
COMBINERS = {
    "Intersect": (Combiners.Intersect, 2, 3),
    "Union": (Combiners.Union, 2, 3),
    "Difference": (Combiners.Difference, 2, 2),
    "Counter": (Combiners.Counter, 1, 3),
}


@pytest.fixture(scope="module")
def pool(tiny_lake):
    t = tiny_lake.tables
    q0, _ = sample_mc_query(tiny_lake, gid=0, n_rows=5, seed=31)
    q1, _ = sample_mc_query(tiny_lake, gid=1, n_rows=4, seed=32)
    return [
        SC(list(t[0].iloc[:, 0]), k=BIG_K),
        SC(list(t[1].iloc[:, 1]), k=BIG_K),
        SC(list(t[3].iloc[:, 0]), k=BIG_K),
        KW(list(t[0].iloc[:4, 0]) + list(t[6].iloc[:2, 1]), k=BIG_K),
        KW(list(t[9].iloc[:3, 0]), k=BIG_K),
        MC(q0, k=BIG_K),
        MC(q1, k=BIG_K),
        C(list(t[3].iloc[:, 0]), list(t[3].iloc[:, 3]), k=BIG_K),
    ]


@st.composite
def plans(draw, pool):
    plan, names = Plan(), []
    for i in range(draw(st.integers(2, 5))):
        plan.add(f"s{i}", pool[draw(st.integers(0, len(pool) - 1))])
        names.append(f"s{i}")
    for j in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(COMBINERS)))
        cls, lo, hi = COMBINERS[kind]
        inputs = draw(st.lists(st.sampled_from(names), min_size=lo, max_size=hi, unique=True))
        plan.add(f"c{j}", cls(k=BIG_K), inputs)
        names.append(f"c{j}")
    return plan


def test_theorem1_random_plans(pool, tiny_index):
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(plans(pool))
    def check(plan):
        blend = execute_plan(plan, tiny_index, optimize=True)
        bno = execute_plan(plan, tiny_index, optimize=False)
        assert blend.result == bno.result

    check()
