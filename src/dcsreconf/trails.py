"""Alternating-trail search and classification.

Growing trails come from a gadget search, maximal trails from a greedy walk
around one edge over a gadget's pool (``augmenting.Gadget.maximal_trail``);
``classify_trail`` picks the single case a peeled trail falls under, closed
ones by ``cycle_tightness``. The loop that peels current^target into trails
is ``decider.Peel``, which walks its own pool gadget, the edges left.
"""

from __future__ import annotations

from enum import Enum
from typing import Collection

from .augmenting import Gadget, find_alternating_trail, growing_trail
from .core import DegreeBounds, Graph, Subgraph
from .errors import ContractError
from .trail_type import Trail, alternates

__all__ = [
    "Trail",
    "TrailClass",
    "find_alternating_trail",
    "find_maximal_alternating_trail",
    "find_augmenting_trail",
    "classify_trail",
    "cycle_tightness",
]


class TrailClass(Enum):
    OPEN_EVEN_OR_UNLOCKED_CYCLE = "open-even-or-unlocked-cycle"
    M_AUGMENTING = "m-augmenting"
    N_AUGMENTING = "n-augmenting"
    B_TIGHT_CYCLE = "b-tight-cycle"
    ALT_AB_TIGHT_CYCLE = "alt-ab-tight-cycle"


def find_maximal_alternating_trail(
    diff: Collection[int], current: Subgraph, start_edge: int
) -> Trail:
    """Grow a maximal alternating trail in ``diff`` around ``start_edge``.

    ``diff`` holds edge ids of ``current``'s graph. Both ends are extended
    greedily (smallest admissible edge index first) until no unused edge of
    the opposite side continues the sequence; the construction closes the
    trail automatically when the ends meet. One walk on a fresh gadget; see
    ``Gadget.maximal_trail``, which a peel loop calls on its own pool.
    """
    if start_edge not in diff:
        raise ContractError(f"start edge {start_edge} not in the symmetric difference")
    return Gadget(current.graph, diff, current.edge_set).maximal_trail(start_edge)


def find_augmenting_trail(
    graph: Graph, bounds: DegreeBounds, current: Subgraph, target: Subgraph
) -> Trail | None:
    """A trail in current^target whose flip grows ``current`` by one edge.

    The trail starts and ends with target-side edges at vertices that can
    accept another edge; when both ends coincide, that vertex needs room for
    two. Returns None when no such trail exists. One ``growing_trail`` on a
    fresh gadget: a search from every vertex with room, then the closing
    rule's retries, if any (``Gadget.search``); a peel loop takes its growing
    trails from ``augmenting.growing_trails`` instead.
    """
    gadget = Gadget(graph, current.edge_set ^ target.edge_set, current.edge_set)
    return growing_trail(gadget, bounds, current)


def cycle_tightness(cycle: Trail, current: Subgraph, bounds: DegreeBounds) -> str | None:
    """'upper' when every vertex of a closed even trail is at its upper bound,
    else 'lower' when every one is at its lower bound, else 'alternating' when
    each is at exactly one bound, role 'a' at the lower and 'b' at the upper,
    and the roles alternate (so a vertex visited twice has one role); else None.
    """
    if not cycle.is_closed or len(cycle) % 2 != 0:
        raise ContractError("cycle tightness applies to closed even-length trails")
    lower, upper, degrees, vs = bounds.lower, bounds.upper, current.degrees, cycle.vertices[:-1]
    if all(degrees[v] == upper[v] for v in vs):
        return "upper"
    if all(degrees[v] == lower[v] for v in vs):
        return "lower"
    before = None  # whether the previous vertex is lower-tight
    for v in vs:
        a_tight = degrees[v] == lower[v]
        if a_tight == (degrees[v] == upper[v]) or a_tight == before:
            return None
        before = a_tight
    return "alternating"


def classify_trail(trail: Trail, current: Subgraph, bounds: DegreeBounds) -> TrailClass:
    """Assign a maximal trail to the single case its shape and tightness select."""
    if not trail.edges:
        raise ContractError("cannot classify an empty trail")
    if not alternates(trail, current):
        raise ContractError("trail does not alternate around the current subgraph")
    if len(trail) % 2 == 1:  # alternating, so both ends lie on one side
        return TrailClass.N_AUGMENTING if trail.edges[0] in current else TrailClass.M_AUGMENTING
    if trail.is_closed:
        tightness = cycle_tightness(trail, current, bounds)
        if tightness == "alternating":
            return TrailClass.ALT_AB_TIGHT_CYCLE
        if tightness == "upper":
            return TrailClass.B_TIGHT_CYCLE
    return TrailClass.OPEN_EVEN_OR_UNLOCKED_CYCLE
