"""Maximum and feasibility solving for degree-constrained subgraphs.

Both phases run on the generic alternating-trail search: first, deficient
vertices (below their lower bound) are repaired one unit at a time by trails
that add net degree there without hurting anyone else; then the subgraph is
grown by augmenting trails until none exists, which certifies maximality.
"""

from __future__ import annotations

from .augmenting import Gadget, find_alternating_trail, growing_trail
from .core import DegreeBounds, Graph, Subgraph, is_ab_constrained
from .errors import ContractError, SynthesisError
from .trail_type import Trail


def feasible_subgraph(graph: Graph, bounds: DegreeBounds) -> Subgraph | None:
    """Some subgraph within the bounds, or None when the lower bounds are unsatisfiable."""
    sub = Subgraph(graph)
    while True:
        deficient = next(
            (v for v in range(graph.n) if sub.degrees[v] < bounds.lower[v]), None
        )
        if deficient is None:
            return sub
        v = deficient
        add_sinks = {
            w for w in range(graph.n) if w != v and sub.degrees[w] < bounds.upper[w]
        }
        if sub.degrees[v] + 2 <= bounds.upper[v]:
            add_sinks.add(v)
        remove_sinks = {
            w for w in range(graph.n) if w != v and sub.degrees[w] > bounds.lower[w]
        }
        trail = find_alternating_trail(
            graph, graph.edge_ids, sub.edge_set, {v}, add_sinks, remove_sinks
        )
        if trail is None:
            return None
        sub.flip(trail.edges)


def augment_trail(
    graph: Graph, bounds: DegreeBounds, sub: Subgraph, gadget: Gadget | None = None
) -> Trail | None:
    """A trail whose flip grows ``sub`` by one edge and stays feasible, or None.

    ``gadget``, when given, spans the whole host around ``sub``.
    """
    if gadget is None:
        gadget = Gadget(graph, graph.edge_ids, sub.edge_set)
    return growing_trail(gadget, bounds, sub)


def augment(
    graph: Graph, bounds: DegreeBounds, sub: Subgraph, gadget: Gadget | None = None
) -> Subgraph | None:
    """One edge bigger and still feasible, or None iff ``sub`` is maximum.

    ``gadget``, when given, spans the whole host around ``sub``.
    """
    if not is_ab_constrained(sub, bounds):
        raise ContractError("augment requires a feasible subgraph")
    trail = augment_trail(graph, bounds, sub, gadget)
    if trail is None:
        return None
    out = sub.copy()
    out.flip(trail.edges)
    if len(out) != len(sub) + 1 or not is_ab_constrained(out, bounds):
        raise SynthesisError("augmenting trail produced an invalid subgraph")
    return out


def is_maximum(
    graph: Graph, bounds: DegreeBounds, sub: Subgraph, gadget: Gadget | None = None
) -> bool:
    """``gadget``, when given, spans the whole host around ``sub``."""
    if not is_ab_constrained(sub, bounds):
        raise ContractError("maximality test requires a feasible subgraph")
    return augment_trail(graph, bounds, sub, gadget) is None


def maximum_dcs(graph: Graph, bounds: DegreeBounds) -> Subgraph | None:
    """A feasible subgraph of maximum edge count, or None when none exists."""
    sub = feasible_subgraph(graph, bounds)
    if sub is None:
        return None
    gadget = Gadget(graph, graph.edge_ids, sub.edge_set)
    while True:
        bigger = augment(graph, bounds, sub, gadget)
        if bigger is None:
            return sub
        for e in sub.edge_set ^ bigger.edge_set:
            gadget.flip(e)
        sub = bigger
