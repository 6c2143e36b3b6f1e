"""Maximum and feasibility solving for degree-constrained subgraphs.

Both phases run on the generic alternating-trail search: first, deficient
vertices (below their lower bound) are repaired one unit at a time by trails
that add net degree there without hurting anyone else; then the subgraph is
grown by augmenting trails until none exists, which certifies maximality.
Each phase keeps one whole-host gadget in step with the trails it flips.
"""

from __future__ import annotations

from .augmenting import Gadget, growing_trail
# Not called here; bound because the benchmark's traced run wraps this name
# (``perfbench/tracer.py``, ``_WRAPS``).
from .augmenting import find_alternating_trail  # noqa: F401
from .core import DegreeBounds, Graph, Subgraph, is_ab_constrained
from .errors import ContractError, SynthesisError
from .trail_type import Trail


def feasible_subgraph(graph: Graph, bounds: DegreeBounds) -> Subgraph | None:
    """Some subgraph within the bounds, or None when the lower bounds are unsatisfiable."""
    sub = Subgraph(graph)
    gadget = Gadget(graph, graph.edge_ids, sub.edge_set)
    degrees, lower, upper = sub.degrees, bounds.lower, bounds.upper
    room = {w for w in range(graph.n) if degrees[w] < upper[w]}
    spare = {w for w in range(graph.n) if degrees[w] > lower[w]}
    # A repair moves the degree only at its ends and puts no vertex below its
    # lower bound, so repairing in vertex order repairs the first deficient one.
    for v in range(graph.n):
        while degrees[v] < lower[v]:
            trail = gadget.search({v}, room, spare, closes=lambda x: degrees[x] + 2 <= upper[x])
            if trail is None:
                return None
            sub.flip(trail.edges)
            for e in trail.edges:
                gadget.flip(e)
            for x in (trail.vertices[0], trail.vertices[-1]):
                room.discard(x)
                spare.discard(x)
                if degrees[x] < upper[x]:
                    room.add(x)
                if degrees[x] > lower[x]:
                    spare.add(x)
    return sub


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
