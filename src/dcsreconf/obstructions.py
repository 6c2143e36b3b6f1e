"""Fixed-edge detection and instance restriction.

An edge is "fixed" relative to the current solution when no legal move
sequence can ever flip it: seeded by edges at vertices whose lower and upper
bounds coincide, then propagated through vertices pinned at a bound whose
relevant incident edges are all fixed already. Restriction switches the fixed
edges off (``Graph.without``) and keeps every edge index.
"""

from __future__ import annotations

from .core import DegreeBounds, Graph, Instance, Subgraph
from .errors import ContractError


def m_fixed_subgraph(graph: Graph, bounds: DegreeBounds, current: Subgraph) -> Subgraph:
    """Least fixpoint of the two propagation rules, seeded at pinned vertices.

    Rule 1: if deg(v) equals the upper bound and every current edge at v is
    fixed, all edges at v are fixed (v can never accept another edge).
    Rule 2: if deg(v) equals the lower bound and every non-current edge at v
    is fixed, all edges at v are fixed (v can never shed an edge).

    Worked off a stack: a vertex at a bound counts the unfixed edges on its
    pinned side (current at the upper bound, non-current at the lower one)
    and is pushed when the count reaches 0, so each edge is fixed once.
    """
    member, degrees = current.edge_set, current.degrees
    side: list[bool | None] = [None] * graph.n
    unfixed = [0] * graph.n
    stack: list[int] = []
    for v in range(graph.n):
        if bounds.lower[v] != bounds.upper[v]:
            if degrees[v] == bounds.upper[v]:
                side[v], unfixed[v] = True, degrees[v]
            elif degrees[v] == bounds.lower[v]:
                side[v], unfixed[v] = False, graph.degree[v] - degrees[v]
            else:
                continue
        if not unfixed[v]:
            stack.append(v)
    fixed: set[int] = set()
    while stack:
        for e in graph.incident[stack.pop()]:
            if e in fixed:
                continue
            fixed.add(e)
            for x in graph.edges[e]:
                if side[x] == (e in member):
                    unfixed[x] -= 1
                    if not unfixed[x]:
                        stack.append(x)
    return Subgraph(graph, fixed)


def fixed_edge_witness(source: Subgraph, target: Subgraph, fixed: Subgraph) -> int | None:
    """Smallest-index edge on which source and target differ despite being fixed."""
    conflict = (source.edge_set ^ target.edge_set) & fixed.edge_set
    return min(conflict) if conflict else None


def restrict_instance(inst: Instance, fixed: Subgraph) -> Instance:
    """Switch the fixed edges off and shift the bounds by the frozen degrees.

    The restricted instance lives on ``inst.graph.without(fixed)``, so every
    edge keeps its index and its moves, witnesses and trails need no mapping
    back; nothing frozen returns ``inst`` itself. Requires source and target
    to agree on the fixed edges. Upper bounds are additionally clamped to the
    remaining degree: a vertex that can never reach its nominal bound inside
    the restricted graph keeps the same feasible set either way, and clamping
    keeps the bounds structurally valid.
    """
    if not fixed.edge_set:
        return inst
    if (inst.source.edge_set ^ inst.target.edge_set) & fixed.edge_set:
        raise ContractError("cannot restrict: source and target disagree on a fixed edge")
    graph = inst.graph.without(fixed.edge_set)
    frozen_deg = [0] * graph.n
    for e in fixed.edge_set & inst.source.edge_set:
        u, v = graph.edges[e]
        frozen_deg[u] += 1
        frozen_deg[v] += 1
    lower = [max(0, inst.bounds.lower[v] - frozen_deg[v]) for v in range(graph.n)]
    upper = [min(inst.bounds.upper[v] - frozen_deg[v], graph.degree[v]) for v in range(graph.n)]
    bounds = DegreeBounds(graph, lower, upper)
    source = Subgraph(graph, inst.source.edge_set - fixed.edge_set)
    target = Subgraph(graph, inst.target.edge_set - fixed.edge_set)
    sub = Instance(graph, bounds, source, target, inst.k)
    sub.validate()
    return sub
