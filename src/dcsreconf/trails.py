"""Alternating-trail construction, classification, and decomposition."""

from __future__ import annotations

from enum import Enum

from .augmenting import Gadget, find_alternating_trail, growing_trail
from .core import DegreeBounds, Graph, Subgraph, is_ab_constrained, symmetric_difference
from .errors import ContractError, SynthesisError
from .trail_type import Trail, alternates

__all__ = [
    "Trail",
    "TrailClass",
    "find_alternating_trail",
    "find_maximal_alternating_trail",
    "find_augmenting_trail",
    "alternating_trail_decomposition",
    "classify_trail",
    "is_alternatingly_ab_tight",
]


class TrailClass(Enum):
    OPEN_EVEN_OR_UNLOCKED_CYCLE = "open-even-or-unlocked-cycle"
    M_AUGMENTING = "m-augmenting"
    N_AUGMENTING = "n-augmenting"
    B_TIGHT_CYCLE = "b-tight-cycle"
    ALT_AB_TIGHT_CYCLE = "alt-ab-tight-cycle"


def find_maximal_alternating_trail(diff: Subgraph, current: Subgraph, start_edge: int) -> Trail:
    """Grow a maximal alternating trail in ``diff`` around ``start_edge``.

    Both ends are extended greedily (smallest admissible edge index first)
    until no unused edge of the opposite side continues the sequence; the
    construction closes the trail automatically when the ends meet.
    """
    if start_edge not in diff:
        raise ContractError(f"start edge {start_edge} not in the symmetric difference")
    graph = diff.graph
    u, v = graph.edges[start_edge]
    vertices = [u, v]
    edges = [start_edge]
    used = {start_edge}

    def extension(at: int, side_of: int) -> int | None:
        want_inside = side_of not in current
        for e in graph.incident[at]:
            if e in used or e not in diff:
                continue
            if (e in current) == want_inside:
                return e
        return None

    while True:
        e = extension(vertices[-1], edges[-1])
        if e is not None:
            vertices.append(graph.other_end(e, vertices[-1]))
            edges.append(e)
            used.add(e)
            continue
        e = extension(vertices[0], edges[0])
        if e is not None:
            vertices.insert(0, graph.other_end(e, vertices[0]))
            edges.insert(0, e)
            used.add(e)
            continue
        break
    trail = Trail(tuple(vertices), tuple(edges))
    if trail.edges[0] > trail.edges[-1]:
        trail = trail.reversed()
    return trail


def find_augmenting_trail(
    graph: Graph,
    bounds: DegreeBounds,
    current: Subgraph,
    target: Subgraph,
    gadget: Gadget | None = None,
) -> Trail | None:
    """A trail in current^target whose flip grows ``current`` by one edge.

    The trail starts and ends with target-side edges at vertices that can
    accept another edge; when both ends coincide, that vertex needs room for
    two. Returns None when no such trail exists. A caller searching in a loop
    passes one ``gadget`` over current^target around ``current`` and keeps it
    in step with both.
    """
    if gadget is None:
        gadget = Gadget(graph, current.edge_set ^ target.edge_set, current.edge_set)
    return growing_trail(gadget, bounds, current)


def alternating_trail_decomposition(
    graph: Graph, bounds: DegreeBounds, source: Subgraph, target: Subgraph
) -> tuple[list[Subgraph], list[Trail]]:
    """Partition source^target into alternating trails, preferring growth.

    Returns the intermediate subgraphs and the trails, where each next
    subgraph is the previous one with its trail flipped, ending at the
    target. Peeling has two phases: growing trails (flip adds an edge) while
    a search finds one, then the maximal trail around the least edge left
    for every remaining trail, with no further search, since none can find
    a growing trail after the first miss.
    """
    if source == target:
        raise ContractError("decomposition requires distinct source and target")
    if not is_ab_constrained(source, bounds):
        raise ContractError("decomposition requires a feasible source")
    snapshots: list[Subgraph] = []
    trails: list[Trail] = []
    cur = source.copy()
    remaining = symmetric_difference(source, target)
    gadget = Gadget(graph, remaining.edge_set, source.edge_set)
    order = sorted(remaining.edge_set)  # fallback starts: the least edge left
    cursor = 0
    growing = True
    while remaining.edge_set:
        snapshots.append(cur.copy())
        trail = None
        if growing:
            trail = find_augmenting_trail(graph, bounds, cur, target, gadget)
            # No later peel can create a growing trail once a search misses:
            # the pool only loses edges, none changes side, and a maximal
            # trail's flip gives room only at an end with no outside pool
            # edge left (see ``decider._process``).
            growing = trail is not None
        if trail is None:
            while order[cursor] not in remaining:
                cursor += 1
            trail = find_maximal_alternating_trail(remaining, cur, order[cursor])
        trails.append(trail)
        for e in trail.edges:
            gadget.drop(e)
            remaining.remove(e)
        cur.flip(trail.edges)
        # a flip moves the degree only at the trail's vertices
        if not all(bounds.lower[v] <= cur.degrees[v] <= bounds.upper[v] for v in trail.vertices):
            raise SynthesisError("decomposition produced an infeasible intermediate subgraph")
    return snapshots, trails


def is_alternatingly_ab_tight(cycle: Trail, current: Subgraph, bounds: DegreeBounds) -> bool:
    """Whether the cycle's vertices alternate lower-tight / upper-tight.

    Two phase patterns are possible (lower-tight on even positions or on odd
    positions); either one qualifies. Only closed even-length trails have
    this property.
    """
    if not cycle.is_closed or len(cycle) % 2 != 0:
        raise ContractError("alternating tightness applies to closed even-length trails")
    pattern_even_lower = True
    pattern_even_upper = True
    for i in range(len(cycle)):
        v = cycle.vertices[i]
        d = current.degrees[v]
        a_tight = d == bounds.lower[v]
        b_tight = d == bounds.upper[v]
        even = i % 2 == 0
        if not ((a_tight == even) and (b_tight != even)):
            pattern_even_lower = False
        if not ((b_tight == even) and (a_tight != even)):
            pattern_even_upper = False
        if not (pattern_even_lower or pattern_even_upper):
            return False
    return pattern_even_lower or pattern_even_upper


def classify_trail(trail: Trail, current: Subgraph, bounds: DegreeBounds) -> TrailClass:
    """Assign a maximal trail to the single case its shape and tightness select."""
    if not trail.edges:
        raise ContractError("cannot classify an empty trail")
    if not alternates(trail, current):
        raise ContractError("trail does not alternate around the current subgraph")
    if len(trail) % 2 == 1:
        first_inside = trail.edges[0] in current
        last_inside = trail.edges[-1] in current
        if first_inside != last_inside:
            raise ContractError("odd trail with mismatched dangling sides")
        return TrailClass.N_AUGMENTING if first_inside else TrailClass.M_AUGMENTING
    if trail.is_closed:
        if is_alternatingly_ab_tight(trail, current, bounds):
            return TrailClass.ALT_AB_TIGHT_CYCLE
        if all(current.degrees[v] == bounds.upper[v] for v in trail.vertices):
            return TrailClass.B_TIGHT_CYCLE
    return TrailClass.OPEN_EVEN_OR_UNLOCKED_CYCLE
