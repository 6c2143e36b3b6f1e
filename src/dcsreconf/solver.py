"""Maximum and feasibility solving for degree-constrained subgraphs.

Both phases run on the generic alternating-trail search: first, deficient
vertices (below their lower bound) are repaired one unit at a time by trails
that add net degree there without hurting anyone else; then the subgraph is
grown by the growing trails of ``augmenting.growing_trails``, the generator
``decider.Peel`` also takes its growing trails from, until none is left. A
growing search that finds nothing certifies maximality: one search from
every vertex with room, and one more from all of them but one when the
first closes at a vertex with room for one edge (``Gadget.search``). Each
phase keeps one whole-host gadget and one ``Ends`` in step with the trails
flipped.
"""

from __future__ import annotations

from .augmenting import Ends, Gadget, growing_trail, growing_trails
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
    ends = Ends(sub, bounds)
    # A repair moves the degree only at its ends and puts no vertex below its
    # lower bound, so repairing in vertex order repairs the first deficient one.
    for v in range(graph.n):
        while sub.degrees[v] < bounds.lower[v]:
            trail = gadget.search({v}, ends.room, ends.spare, ends.closes(False))
            if trail is None:
                return None
            sub.flip(trail.edges)
            gadget.flip(trail.edges)
            ends.settle(trail)
    return sub


def augment_trail(graph: Graph, bounds: DegreeBounds, sub: Subgraph) -> Trail | None:
    """A trail whose flip grows ``sub`` by one edge and stays feasible, or None."""
    return growing_trail(Gadget(graph, graph.edge_ids, sub.edge_set), bounds, sub)


def augment(graph: Graph, bounds: DegreeBounds, sub: Subgraph) -> Subgraph | None:
    """One edge bigger and still feasible, or None iff ``sub`` is maximum."""
    if not is_ab_constrained(sub, bounds):
        raise ContractError("augment requires a feasible subgraph")
    trail = augment_trail(graph, bounds, sub)
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
    if gadget is None:
        gadget = Gadget(graph, graph.edge_ids, sub.edge_set)
    return growing_trail(gadget, bounds, sub) is None


def maximum_dcs(graph: Graph, bounds: DegreeBounds) -> Subgraph | None:
    """A feasible subgraph of maximum edge count, or None when none exists."""
    sub = feasible_subgraph(graph, bounds)
    if sub is None:
        return None
    gadget = Gadget(graph, graph.edge_ids, sub.edge_set)
    ends = Ends(sub, bounds)
    # Each growing trail is flipped in the gadget rather than dropped; see
    # ``growing_trails`` for why its cursors stay exact.
    for trail in growing_trails(gadget, ends):
        sub.flip(trail.edges)
        gadget.flip(trail.edges)
        ends.settle(trail)
    if not is_ab_constrained(sub, bounds) or growing_trail(gadget, bounds, sub) is not None:
        raise SynthesisError("growing phase stopped short of a maximum subgraph")
    return sub
