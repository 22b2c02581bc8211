"""Tests for the Plan API and DAG helpers (paper §IV-C, §VII-A)."""
import pandas as pd
import pytest

from repro.core.plan import Combiners, Plan, Seekers


def _sc(vals=("a", "b"), k=5):
    return Seekers.SC(list(vals), k=k)


def test_add_seeker():
    plan = Plan().add("s", _sc())
    assert plan.nodes["s"].is_seeker


def test_add_combiner_with_inputs():
    plan = Plan().add("a", _sc()).add("b", _sc())
    plan.add("i", Combiners.Intersect(k=5), ["a", "b"])
    assert plan.nodes["i"].inputs == ["a", "b"]


def test_duplicate_name_rejected():
    plan = Plan().add("a", _sc())
    with pytest.raises(ValueError, match="duplicate"):
        plan.add("a", _sc())


def test_seeker_with_inputs_rejected():
    plan = Plan().add("a", _sc())
    with pytest.raises(ValueError, match="no node inputs"):
        plan.add("b", _sc(), ["a"])


def test_unknown_input_rejected():
    with pytest.raises(ValueError, match="unknown input"):
        Plan().add("i", Combiners.Union(k=5), ["nope", "nah"])


def test_difference_arity_enforced():
    plan = Plan().add("a", _sc()).add("b", _sc()).add("c", _sc())
    with pytest.raises(ValueError, match="exactly two"):
        plan.add("d", Combiners.Difference(k=5), ["a", "b", "c"])


def test_intersect_needs_two():
    plan = Plan().add("a", _sc())
    with pytest.raises(ValueError, match="at least two"):
        plan.add("i", Combiners.Intersect(k=5), ["a"])


def test_counter_allows_one():
    plan = Plan().add("a", _sc())
    plan.add("c", Combiners.Counter(k=5), ["a"])
    assert plan.nodes["c"].inputs == ["a"]


def test_non_operator_rejected():
    with pytest.raises(TypeError):
        Plan().add("x", object())


def test_consumers():
    plan = Plan().add("a", _sc()).add("b", _sc())
    plan.add("i", Combiners.Intersect(k=5), ["a", "b"])
    cons = plan.consumers()
    assert cons["a"] == ["i"] and cons["b"] == ["i"] and cons["i"] == []


def test_sinks_and_result_node():
    plan = Plan().add("a", _sc()).add("b", _sc())
    plan.add("i", Combiners.Intersect(k=5), ["a", "b"])
    assert plan.sinks() == ["i"]
    assert plan.result_node == "i"


def test_result_node_multiple_sinks_takes_last():
    plan = Plan().add("a", _sc()).add("b", _sc())
    assert plan.result_node == "b"


def test_result_node_empty_plan():
    with pytest.raises(ValueError, match="empty plan"):
        Plan().result_node


def test_topological_order():
    plan = Plan().add("a", _sc()).add("b", _sc())
    plan.add("i", Combiners.Intersect(k=5), ["a", "b"])
    plan.add("c", _sc())
    plan.add("u", Combiners.Union(k=5), ["i", "c"])
    order = [n.name for n in plan.topological()]
    assert order.index("i") > order.index("a")
    assert order.index("i") > order.index("b")
    assert order.index("u") > order.index("i")
    assert order.index("u") > order.index("c")


def test_seekers_accessor():
    plan = Plan().add("a", _sc()).add("b", _sc())
    plan.add("i", Combiners.Intersect(k=5), ["a", "b"])
    assert {n.name for n in plan.nodes.values() if n.is_seeker} == {"a", "b"}


def test_listing4_style_plan_builds():
    """The multi-objective plan of Listing 4 (minus imputation)."""
    examples = pd.DataFrame({"c0": ["x", "y"], "c1": ["u", "v"]})
    plan = Plan()
    plan.add("kw", Seekers.KW(["a"], k=10))
    for clm in examples.columns:
        plan.add(clm, Seekers.SC(list(examples[clm]), k=100))
    plan.add("counter", Combiners.Counter(k=10), list(examples.columns))
    plan.add("correlation", Seekers.Correlation(["k1", "k2"], [1.0, 2.0], k=10))
    plan.add("union", Combiners.Union(k=40), ["kw", "counter", "correlation"])
    assert plan.result_node == "union"
    assert sum(n.is_seeker for n in plan.nodes.values()) == 4


def test_namespaces_match_paper_api():
    assert hasattr(Seekers, "SC") and hasattr(Seekers, "KW")
    assert hasattr(Seekers, "MC") and hasattr(Seekers, "Correlation")
    for c in ["Intersect", "Union", "Difference", "Counter"]:
        assert hasattr(Combiners, c)
