"""Tests for the cost model and the two-step seeker ranking (§VII-B)."""
import numpy as np
import pytest

from repro.core.cost_model import (
    CostModel,
    featurize,
    rank_seekers,
    sample_c_query,
    sample_kw_query,
    sample_mc_query,
    sample_sc_query,
    train_cost_model,
)
from repro.core.seekers import C, KW, MC, SC


def test_featurize_shape(tiny_index):
    x = featurize(SC(["a", "b"], k=5), tiny_index)
    assert x.shape == (5,)
    assert x[0] == 1.0 and x[1] == 2.0 and x[2] == 1.0


def test_cost_model_fit_predict(tiny_index):
    cm = CostModel()
    xs = [np.array([1.0, c, 1.0, 2.0, 2.0 * c]) for c in range(1, 20)]
    samples = [("SC", x, 0.1 + 0.05 * x[1]) for x in xs]
    cm.fit(samples)
    small = SC(["a"], k=5)
    # larger Q with identical frequency must predict larger runtime
    big = SC([f"v{i}" for i in range(15)], k=5)
    assert cm.predict(big, tiny_index) > cm.predict(small, tiny_index)


def test_cost_model_fallback_heuristic(tiny_index):
    cm = CostModel()
    small = SC(["a"], k=5)
    big = SC([f"v{i}" for i in range(20)], k=5)
    assert cm.predict(big, tiny_index) > cm.predict(small, tiny_index)


@pytest.mark.parametrize(
    "sampler,cls",
    [
        (sample_sc_query, SC),
        (sample_kw_query, KW),
        (sample_mc_query, MC),
        (sample_c_query, C),
    ],
)
def test_samplers_produce_valid_seekers(tiny_index, rng, sampler, cls):
    s = sampler(tiny_index, rng)
    assert isinstance(s, cls)
    assert s.input_cardinality() >= 0
    assert s.n_columns() >= 1


def test_samplers_draw_light_and_heavy_queries(tiny_index):
    """Training and Table IV share these samplers; ranking only matters
    when they draw both light and heavy queries."""
    g = np.random.default_rng(0)
    sizes = [len(sample_sc_query(tiny_index, g).values) for _ in range(20)]
    assert min(sizes) < 15 and max(sizes) >= 200


def test_train_cost_model_runs(tiny_index):
    cm = train_cost_model(tiny_index, n_per_type=2, seed=1, types=("SC", "KW"))
    assert set(cm.coef) == {"SC", "KW"}
    assert all(len(w) == 5 for w in cm.coef.values())


# --- ranking rules (Rules 1-3) -----------------------------------------

def _mk_mc():
    import pandas as pd
    return MC(pd.DataFrame({"a": ["x"], "b": ["y"]}), k=5)


def test_rule1_kw_first(tiny_index):
    ranked = rank_seekers(
        [("mc", _mk_mc()), ("kw", KW(["a"], k=5)), ("sc", SC(["a"], k=5))],
        tiny_index, None,
    )
    assert ranked[0][0] == "kw"


def test_rule2_mc_last(tiny_index):
    ranked = rank_seekers(
        [("mc", _mk_mc()), ("c", C(["a"], [1.0], k=5)), ("sc", SC(["a"], k=5))],
        tiny_index, None,
    )
    assert ranked[-1][0] == "mc"


def test_rule3_sc_before_c(tiny_index):
    ranked = rank_seekers(
        [("c", C(["a"], [1.0], k=5)), ("sc", SC(["a"], k=5))], tiny_index, None
    )
    assert [n for n, _ in ranked] == ["sc", "c"]


def test_same_type_ranked_by_cost(tiny_index):
    cm = CostModel(coef={"SC": [0.0, 1.0, 0.0, 0.0, 0.0]})  # cost = card
    small = SC(["a"], k=5)
    big = SC([f"v{i}" for i in range(10)], k=5)
    ranked = rank_seekers([("big", big), ("small", small)], tiny_index, cm)
    assert [n for n, _ in ranked] == ["small", "big"]


def test_rank_deterministic_tiebreak(tiny_index):
    a, b = SC(["a"], k=5), SC(["a"], k=5)
    ranked = rank_seekers([("b", b), ("a", a)], tiny_index, None)
    assert [n for n, _ in ranked] == ["a", "b"]  # name tie-break
