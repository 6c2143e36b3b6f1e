"""Host graph, subgraphs as edge sets, moves, and the move-sequence verifier.

Edges carry stable integer indices assigned at construction time; every other
module exchanges edge indices, never endpoint pairs, so that trails revisiting
vertices stay unambiguous. Switching edges off (``Graph.without``) keeps
those indices, so there is one edge index space throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import IllegalMoveError, InputError

ADD = "add"
REMOVE = "remove"


class Graph:
    """Simple undirected graph with ``n`` vertices labelled ``0..n-1``.

    ``edge_ids`` lists the edges switched on, in index order: all of
    ``range(m)`` on a constructed graph, fewer on a view from ``without``.
    Each ``incident[v]`` is in index order too, on a view as well.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InputError("vertex-count", f"vertex count must be >= 0, got {n}")
        self.n = n
        self.edges: list[tuple[int, int]] = []
        self.incident: list[list[int]] = [[] for _ in range(n)]
        pairs, incident = self.edges, self.incident
        seen: set[int] = set()  # u * n + v for u < v
        for idx, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InputError("edge-endpoint", f"edge {idx} endpoint out of range: ({u}, {v})")
            if u == v:
                raise InputError("edge-selfloop", f"edge {idx} is a self-loop at {u}")
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise InputError("edge-parallel", f"edge {idx} duplicates {(min(u, v), max(u, v))}")
            seen.add(key)
            pairs.append((u, v))
            incident[u].append(idx)
            incident[v].append(idx)
        self.m = len(pairs)
        self.degree = [len(self.incident[v]) for v in range(n)]
        self.edge_ids: Sequence[int] = range(self.m)

    def without(self, frozen: Iterable[int]) -> Graph:
        """The same graph with the ``frozen`` edges switched off.

        The view shares ``edges``, ``m`` and every edge index; ``incident``,
        ``degree`` and ``edge_ids`` leave the frozen edges out.
        """
        frozen = set(frozen)
        view = Graph.__new__(Graph)
        view.n, view.m, view.edges = self.n, self.m, self.edges
        view.incident = [[e for e in inc if e not in frozen] for inc in self.incident]
        view.degree = [len(inc) for inc in view.incident]
        view.edge_ids = [e for e in self.edge_ids if e not in frozen]
        return view

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise InputError("edge-endpoint", f"vertex {v} is not an endpoint of edge {e}")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class DegreeBounds:
    """Per-vertex degree bounds with 0 <= lower(v) <= upper(v) <= deg(v)."""

    def __init__(self, graph: Graph, lower: Iterable[int], upper: Iterable[int]):
        self.lower = list(lower)
        self.upper = list(upper)
        if len(self.lower) != graph.n or len(self.upper) != graph.n:
            raise InputError("bound-length", "bound arrays must have one entry per vertex")
        for v in range(graph.n):
            a, b = self.lower[v], self.upper[v]
            if a < 0:
                raise InputError("bound-negative", f"lower bound at vertex {v} is negative")
            if a > b:
                raise InputError("bound-order", f"lower bound exceeds upper bound at vertex {v}")
            if b > graph.degree[v]:
                raise InputError(
                    "bound-degree", f"upper bound at vertex {v} exceeds its degree {graph.degree[v]}"
                )

    def __repr__(self) -> str:
        return f"DegreeBounds(lower={self.lower}, upper={self.upper})"


class Subgraph:
    """An edge subset of a host graph with an incrementally maintained degree cache."""

    __slots__ = ("graph", "edge_set", "degrees")

    def __init__(self, graph: Graph, edges: Iterable[int] = ()):
        self.graph = graph
        self.edge_set: set[int] = set()
        self.degrees = [0] * graph.n
        for e in edges:
            self.add(e)

    def add(self, e: int) -> None:
        if not (0 <= e < self.graph.m):
            raise InputError("edge-index", f"edge index {e} out of range")
        if e in self.edge_set:
            raise IllegalMoveError(f"edge {e} already present")
        self.edge_set.add(e)
        u, v = self.graph.edges[e]
        self.degrees[u] += 1
        self.degrees[v] += 1

    def remove(self, e: int) -> None:
        if e not in self.edge_set:
            raise IllegalMoveError(f"edge {e} not present")
        self.edge_set.remove(e)
        u, v = self.graph.edges[e]
        self.degrees[u] -= 1
        self.degrees[v] -= 1

    def flip(self, edges: Iterable[int]) -> None:
        """Remove each of ``edges`` that is present and add each that is not."""
        for e in edges:
            if e in self.edge_set:
                self.remove(e)
            else:
                self.add(e)

    def copy(self) -> Subgraph:
        out = Subgraph.__new__(Subgraph)
        out.graph = self.graph
        out.edge_set = set(self.edge_set)
        out.degrees = list(self.degrees)
        return out

    def __contains__(self, e: int) -> bool:
        return e in self.edge_set

    def __len__(self) -> int:
        return len(self.edge_set)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.edge_set))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgraph)
            and other.graph is self.graph
            and other.edge_set == self.edge_set
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.edge_set))

    def __repr__(self) -> str:
        return f"Subgraph({sorted(self.edge_set)})"


@dataclass(frozen=True)
class Move:
    kind: str  # ADD or REMOVE
    edge: int

    def inverse(self) -> Move:
        return Move(REMOVE if self.kind == ADD else ADD, self.edge)


@dataclass
class Instance:
    """A reconfiguration question: transform source into target under slack k."""

    graph: Graph
    bounds: DegreeBounds
    source: Subgraph
    target: Subgraph
    k: int

    def size_floor(self) -> int:
        return min(len(self.source), len(self.target)) - self.k

    def validate(self) -> None:
        if self.k < 1:
            raise InputError("slack", f"slack must be >= 1, got {self.k}")
        if self.source.graph is not self.graph or self.target.graph is not self.graph:
            raise InputError("host-mismatch", "source/target live on a different host graph")
        if not is_ab_constrained(self.source, self.bounds):
            raise InputError("infeasible-source", "source violates the degree bounds")
        if not is_ab_constrained(self.target, self.bounds):
            raise InputError("infeasible-target", "target violates the degree bounds")


def degree_in(sub: Subgraph, v: int) -> int:
    """Number of subgraph edges incident to ``v``."""
    if not (0 <= v < sub.graph.n):
        raise InputError("vertex-index", f"vertex {v} out of range")
    return sub.degrees[v]


def symmetric_difference(h: Subgraph, k: Subgraph) -> Subgraph:
    """Edges in exactly one of the two subgraphs (same host required)."""
    if h.graph is not k.graph:
        raise InputError("host-mismatch", "subgraphs live on different host graphs")
    return Subgraph(h.graph, h.edge_set ^ k.edge_set)


def is_ab_constrained(sub: Subgraph, bounds: DegreeBounds) -> bool:
    """True iff every vertex degree lies within its bounds."""
    return all(
        bounds.lower[v] <= sub.degrees[v] <= bounds.upper[v] for v in range(sub.graph.n)
    )


@dataclass(frozen=True)
class Tightness:
    a_tight: bool
    b_tight: bool

    @property
    def fixed(self) -> bool:
        return self.a_tight and self.b_tight


def vertex_tightness(sub: Subgraph, bounds: DegreeBounds, v: int) -> Tightness:
    """Whether ``v`` sits exactly at its lower and/or upper bound in ``sub``."""
    d = degree_in(sub, v)
    return Tightness(a_tight=(d == bounds.lower[v]), b_tight=(d == bounds.upper[v]))


def apply_move(sub: Subgraph, move: Move) -> Subgraph:
    """Apply one add/remove step in place and return the subgraph."""
    if move.kind == ADD:
        sub.add(move.edge)
    elif move.kind == REMOVE:
        sub.remove(move.edge)
    else:
        raise InputError("move-kind", f"unknown move kind {move.kind!r}")
    return sub


@dataclass
class VerificationResult:
    ok: bool
    step: int | None = None  # first offending step (0-based), None when ok
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_move_sequence(inst: Instance, seq: list[Move]) -> VerificationResult:
    """Replay ``seq`` from the source and check every intermediate state.

    A sequence is accepted iff each step's precondition holds, every state
    (including the final one) satisfies the degree bounds and the size floor
    min(|source|, |target|) - k, and the final state equals the target.
    """
    floor = inst.size_floor()
    cur = inst.source.copy()
    for i, move in enumerate(seq):
        try:
            apply_move(cur, move)
        except IllegalMoveError as exc:
            return VerificationResult(False, i, f"illegal move: {exc.message}")
        u, v = inst.graph.edges[move.edge]
        for w in (u, v):
            if not inst.bounds.lower[w] <= cur.degrees[w] <= inst.bounds.upper[w]:
                return VerificationResult(False, i, f"degree bound violated at vertex {w}")
        if len(cur) < floor:
            return VerificationResult(False, i, f"size {len(cur)} fell below floor {floor}")
    if cur != inst.target:
        return VerificationResult(False, len(seq), "final state differs from target")
    return VerificationResult(True)


def reversed_moves(seq: list[Move]) -> list[Move]:
    """The sequence that undoes ``seq``: reversed order, adds and removes swapped."""
    return [m.inverse() for m in reversed(seq)]
