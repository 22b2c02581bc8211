"""Discovery plans (paper §IV-C grammar, §VII-A API).

A :class:`Plan` is a DAG of named nodes; each node is a seeker (leaf —
its input is the query ``Q``) or a combiner (inner node — its inputs are
other nodes). ``Seekers`` / ``Combiners`` namespaces mirror the paper's
API (Listing 4: ``plan.add('kw', Seekers.KW(keywords, k=10))``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import combiners as _combiners
from . import seekers as _seekers
from .combiners import Combiner
from .seekers import Seeker


class Seekers:
    """Namespace matching the paper's ``Seekers.*`` API."""

    SC = _seekers.SC
    KW = _seekers.KW
    MC = _seekers.MC
    Correlation = _seekers.C


class Combiners:
    """Namespace matching the paper's ``Combiners.*`` API."""

    Intersect = _combiners.Intersect
    Union = _combiners.Union
    Difference = _combiners.Difference
    Counter = _combiners.Counter


@dataclass
class Node:
    name: str
    op: Seeker | Combiner
    inputs: list[str] = field(default_factory=list)

    @property
    def is_seeker(self) -> bool:
        return isinstance(self.op, Seeker)


class Plan:
    """A declarative discovery plan (DAG of seekers and combiners)."""

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}

    def add(self, name: str, op: Seeker | Combiner, inputs: list[str] | None = None) -> "Plan":
        """Add a node. Seekers take no inputs; combiners list the names of
        previously added nodes (grammar §IV-C)."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        inputs = list(inputs or [])
        if isinstance(op, Seeker):
            if inputs:
                raise ValueError("seekers take no node inputs (their input is Q)")
        elif isinstance(op, Combiner):
            for i in inputs:
                if i not in self.nodes:
                    raise ValueError(f"unknown input node {i!r}")
            if isinstance(op, _combiners.Difference):
                if len(inputs) != 2:
                    raise ValueError("Difference takes exactly two inputs")
            elif isinstance(op, _combiners.Counter):
                if len(inputs) < 1:
                    raise ValueError("Counter needs at least one input")
            elif len(inputs) < 2:
                raise ValueError(f"{op.type_name} needs at least two inputs")
        else:
            raise TypeError(f"not a seeker or combiner: {op!r}")
        self.nodes[name] = Node(name, op, inputs)
        return self

    # --- DAG helpers -----------------------------------------------------
    def consumers(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for node in self.nodes.values():
            for i in node.inputs:
                out[i].append(node.name)
        return out

    def sinks(self) -> list[str]:
        cons = self.consumers()
        return [n for n in self.nodes if not cons[n]]

    def topological(self) -> list[Node]:
        """Kahn topological order (insertion order among ready nodes).
        Acyclicity is guaranteed by construction (inputs must pre-exist),
        but we assert it anyway."""
        order, done = [], set()
        pending = list(self.nodes.values())
        while pending:
            ready = [n for n in pending if all(i in done for i in n.inputs)]
            assert ready, "cycle in plan DAG"
            for n in ready:
                order.append(n)
                done.add(n.name)
            pending = [n for n in pending if n.name not in done]
        return order

    @property
    def result_node(self) -> str:
        """The plan's result: its (single) sink; with multiple sinks, the
        last one added (Listing 4 style plans end with the aggregator)."""
        s = self.sinks()
        if not s:
            raise ValueError("empty plan")
        return s[-1]
