"""Alternating-trail search and classification.

Growing trails come from a gadget search, maximal trails from a greedy walk
around one edge over a gadget's pool (``augmenting.Gadget.maximal_trail``);
``classify_trail`` picks the single case a peeled trail falls under. The loop
that peels current^target into trails is ``decider.Peel``, which walks its
own pool gadget, the edges left.
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
    "is_alternatingly_ab_tight",
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
    two. Returns None when no such trail exists. One search on a fresh
    gadget; a peel loop takes its growing trails from
    ``augmenting.growing_trails`` instead.
    """
    gadget = Gadget(graph, current.edge_set ^ target.edge_set, current.edge_set)
    return growing_trail(gadget, bounds, current)


def ab_tight_roles(cycle: Trail, current: Subgraph, bounds: DegreeBounds) -> list[str] | None:
    """Per-position roles of an alternately tight cycle, or None if it is not one.

    A vertex takes role 'a' at its lower bound and 'b' at its upper bound
    (exactly one of them), and the roles alternate around the cycle in
    either phase. Only closed even-length trails have this property.
    """
    if not cycle.is_closed or len(cycle) % 2 != 0:
        raise ContractError("alternating tightness applies to closed even-length trails")
    roles: list[str] = []
    for v in cycle.vertices[:-1]:
        d = current.degrees[v]
        a_tight = d == bounds.lower[v]
        role = "a" if a_tight else "b"
        if a_tight == (d == bounds.upper[v]) or (roles and roles[-1] == role):
            return None
        roles.append(role)
    return roles


def is_alternatingly_ab_tight(cycle: Trail, current: Subgraph, bounds: DegreeBounds) -> bool:
    """Whether the cycle's vertices alternate lower-tight / upper-tight."""
    return ab_tight_roles(cycle, current, bounds) is not None


def classify_trail(trail: Trail, current: Subgraph, bounds: DegreeBounds) -> TrailClass:
    """Assign a maximal trail to the single case its shape and tightness select."""
    if not trail.edges:
        raise ContractError("cannot classify an empty trail")
    if not alternates(trail, current):
        raise ContractError("trail does not alternate around the current subgraph")
    if len(trail) % 2 == 1:  # alternating, so both ends lie on one side
        return TrailClass.N_AUGMENTING if trail.edges[0] in current else TrailClass.M_AUGMENTING
    if trail.is_closed:
        if is_alternatingly_ab_tight(trail, current, bounds):
            return TrailClass.ALT_AB_TIGHT_CYCLE
        if all(current.degrees[v] == bounds.upper[v] for v in trail.vertices):
            return TrailClass.B_TIGHT_CYCLE
    return TrailClass.OPEN_EVEN_OR_UNLOCKED_CYCLE
