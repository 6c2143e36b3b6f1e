"""The trail data model: an edge-distinct walk, vertices may repeat."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import ne

from .core import Graph, Subgraph
from .errors import ContractError


@dataclass(frozen=True)
class Trail:
    """A walk v0 -e0- v1 ... e(t-1)- vt with pairwise distinct edges."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) + 1:
            raise ContractError("trail: vertex/edge sequence lengths inconsistent")
        if len(self.edges) > 1 and len(set(self.edges)) != len(self.edges):
            raise ContractError("trail: repeated edge")

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_closed(self) -> bool:
        return len(self.edges) >= 1 and self.vertices[0] == self.vertices[-1]

    def reversed(self) -> Trail:
        return Trail(tuple(reversed(self.vertices)), tuple(reversed(self.edges)))

    def segment(self, lo: int, hi: int) -> Trail:
        """Subtrail spanning edge positions [lo, hi); empty segments are invalid."""
        if not 0 <= lo < hi <= len(self.edges):
            raise ContractError(f"trail segment [{lo}, {hi}) out of range")
        return Trail(self.vertices[lo : hi + 1], self.edges[lo:hi])

    def rotated(self, j: int) -> Trail:
        """The same closed trail re-rooted to start at vertex position ``j``."""
        if not self.is_closed:
            raise ContractError("only closed trails can be rotated")
        t = len(self.edges)
        j %= t
        vs = self.vertices[j:t] + self.vertices[: j + 1]
        es = self.edges[j:] + self.edges[:j]
        return Trail(vs, es)


def concat(first: Trail, second: Trail) -> Trail:
    """Join two trails sharing first's end vertex; edges must stay distinct."""
    if first.vertices[-1] != second.vertices[0]:
        raise ContractError("trail concatenation endpoints do not meet")
    return Trail(first.vertices + second.vertices[1:], first.edges + second.edges)


def single_edge_trail(graph: Graph, e: int, start: int) -> Trail:
    return Trail((start, graph.other_end(e, start)), (e,))


def alternates(trail: Trail, current: Subgraph) -> bool:
    """True iff trail edges alternate in/out of ``current`` along the sequence."""
    if len(trail.edges) < 2:
        return True
    sides = list(map(current.edge_set.__contains__, trail.edges))
    return all(map(ne, sides, islice(sides, 1, None)))


def inside_first(trail: Trail, current: Subgraph) -> Trail:
    """Orient an even trail so its first edge lies inside ``current``."""
    if len(trail) % 2 != 0 or not trail.edges:
        raise ContractError("only non-empty even trails have a canonical inside-first form")
    if trail.edges[0] in current:
        return trail
    flipped = trail.reversed()
    if flipped.edges[0] not in current:
        raise ContractError("trail does not alternate around the current subgraph")
    return flipped


def reverse_keep_first_edge(trail: Trail) -> Trail:
    """Reverse a closed trail's orientation while keeping its first edge first.

    Maps v0 -e0- v1 ... vt to v1 -e0- v0 -e(t-1)- v(t-1) ... -e1- v1, which
    swaps the roles of the first edge's endpoints without changing which edge
    leads the sequence.
    """
    if not trail.is_closed:
        raise ContractError("re-rooting applies to closed trails only")
    return trail.reversed().rotated(len(trail) - 1)
