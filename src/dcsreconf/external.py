"""Reconfiguration of locked cycles using edges outside the symmetric difference.

A uniformly upper-tight cycle can only flip at the tight floor if some cycle
vertex can temporarily shed an edge through an escape trail ending at a
vertex with spare capacity; an alternately tight cycle can only flip if some
feasible subgraph agreeing with the current one on the cycle breaks the
tightness pattern. Both routines restore every off-cycle side effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .augmenting import Gadget, find_alternating_trail
from .core import DegreeBounds, Graph, Move, Subgraph
from .errors import ContractError, LockedCycleError, SynthesisError
from .internal import _elementary
from .solver import feasible_subgraph
from .trail_type import Trail, concat, single_edge_trail
from .trails import is_alternatingly_ab_tight


@dataclass(frozen=True)
class EvenSet:
    """Vertices that can reach spare capacity along an alternating trail.

    A vertex belongs to the set when it is strictly below its upper bound
    (the empty trail already ends at spare capacity), or when it is strictly
    above its lower bound and some even-length alternating trail starting
    with a current edge leads to a vertex strictly below its upper bound.
    For a maximum current subgraph this is exactly the set of vertices left
    below their upper bound by some maximum feasible subgraph.
    """

    members: frozenset[int]

    def __contains__(self, v: int) -> bool:
        return v in self.members


def _escape_trail(
    graph: Graph,
    bounds: DegreeBounds,
    current: Subgraph,
    candidates: set[int],
    gadget: Gadget | None = None,
) -> Trail | None:
    """Even alternating trail from a candidate, first edge inside, ending at slack.

    Searched in reverse (from the slack vertices back to the candidates) so
    the generic engine's start convention applies; edge-distinctness is
    enforced by the engine's gadget construction. ``gadget``, when given,
    spans the whole host around ``current``.
    """
    slack = {v for v in range(graph.n) if current.degrees[v] < bounds.upper[v]}
    goals = {v for v in candidates if current.degrees[v] > bounds.lower[v]}
    if gadget is None:
        found = find_alternating_trail(
            graph, graph.edge_ids, current.edge_set, slack, set(), goals
        )
    else:
        found = gadget.search(slack, set(), goals)
    return found.reversed() if found is not None else None


def compute_even_set(graph: Graph, bounds: DegreeBounds, current: Subgraph) -> EvenSet:
    members = set()
    gadget = Gadget(graph, graph.edge_ids, current.edge_set)
    for v in range(graph.n):
        if current.degrees[v] < bounds.upper[v]:
            members.add(v)  # the empty trail already ends at spare capacity
        elif current.degrees[v] > bounds.lower[v] and _escape_trail(
            graph, bounds, current, {v}, gadget
        ) is not None:
            members.add(v)
    return EvenSet(frozenset(members))


def _rooted_loop(cycle: Trail, root: int, first_inside: bool, current: Subgraph) -> Trail:
    """The cycle as a closed trail starting at ``root`` with the wanted side first."""
    for p in range(len(cycle)):
        if cycle.vertices[p] == root:
            rot = cycle.rotated(p)
            if (rot.edges[0] in current) != first_inside:
                rot = rot.reversed()
            if (rot.edges[0] in current) == first_inside:
                return rot
    raise ContractError(f"vertex {root} does not lie on the cycle")


def _cycle_minus_edge(cycle: Trail, drop: int, start: int) -> Trail:
    """The open remainder of the cycle after ``drop``, walked from ``start``."""
    for orientation in (cycle, cycle.reversed()):
        for j, e in enumerate(orientation.edges):
            if e == drop:
                rot = orientation.rotated((j + 1) % len(orientation))
                if rot.vertices[0] == start:
                    return rot.segment(0, len(rot) - 1)
    raise ContractError(f"edge {drop} with endpoint {start} not found on the cycle")


def _assert_net_effect(
    before: Subgraph, after: Subgraph, cycle: Trail, where: str
) -> None:
    expected = before.edge_set ^ set(cycle.edges)
    if after.edge_set != expected:
        raise SynthesisError(f"{where} left stray side effects outside the cycle")


def _btight_cycle(
    cycle: Trail,
    ctx: Subgraph,
    graph: Graph,
    bounds: DegreeBounds,
    out: list[Move],
    gadget: Gadget | None = None,
) -> None:
    if not cycle.is_closed or len(cycle) % 2 != 0:
        raise ContractError("closed even-length cycle expected")
    for v in cycle.vertices:
        if ctx.degrees[v] != bounds.upper[v]:
            raise ContractError(f"cycle vertex {v} is not at its upper bound")
    escape = _escape_trail(graph, bounds, ctx, set(cycle.vertices), gadget)
    if escape is None:
        raise LockedCycleError(cycle, "upper-tight")
    snapshot = ctx.copy()
    cyc_edges = set(cycle.edges)
    shared = [i for i, e in enumerate(escape.edges) if e in cyc_edges]
    last = shared[-1] if shared else None
    if last is not None and escape.edges[last] in ctx:
        # the escape leaves the cycle over a current edge: flip from that edge
        # on, then sweep back together with the remaining open cycle part
        sweep_out = escape.segment(last, len(escape))
        _elementary(sweep_out, ctx, bounds, out)
        y = escape.vertices[last + 1]
        rest = _cycle_minus_edge(cycle, escape.edges[last], y)
        sweep_back = concat(escape.segment(last + 1, len(escape)).reversed(), rest)
        _elementary(sweep_back, ctx, bounds, out)
    else:
        start = last + 1 if last is not None else 0
        y = escape.vertices[start]
        sweep_out = escape.segment(start, len(escape))
        _elementary(sweep_out, ctx, bounds, out)
        loop = _rooted_loop(cycle, y, first_inside=True, current=ctx)
        sweep_back = concat(sweep_out.reversed(), loop)
        _elementary(sweep_back, ctx, bounds, out)
    _assert_net_effect(snapshot, ctx, cycle, "upper-tight cycle reconfiguration")


def _pattern_roles(cycle: Trail, current: Subgraph, bounds: DegreeBounds) -> list[str]:
    """Per-position tightness role ('a' or 'b') under the pattern that holds."""
    even_lower = all(
        (current.degrees[cycle.vertices[i]] == bounds.lower[cycle.vertices[i]])
        == (i % 2 == 0)
        for i in range(len(cycle))
    )
    return ["a" if (i % 2 == 0) == even_lower else "b" for i in range(len(cycle))]


def exists_unlocking_subgraph(
    cycle: Trail, current: Subgraph, graph: Graph, bounds: DegreeBounds
) -> Subgraph | None:
    """A feasible subgraph agreeing with ``current`` on the cycle, pattern broken.

    Probes run on the host with the cycle edges switched off, shift the bounds
    by the frozen degrees and force selected cycle vertices off their
    tightness role; single-vertex probes are tried first, then pairs (one
    breaking each phase pattern), which suffices for completeness.
    """
    if not is_alternatingly_ab_tight(cycle, current, bounds):
        raise ContractError("cycle is not alternately tight in the current subgraph")
    roles = _pattern_roles(cycle, current, bounds)
    frozen = [0] * graph.n
    kept = [e for e in cycle.edges if e in current]
    for e in kept:
        u, v = graph.edges[e]
        frozen[u] += 1
        frozen[v] += 1
    host = graph.without(cycle.edges)
    base_lower = [max(0, bounds.lower[v] - frozen[v]) for v in range(graph.n)]
    base_upper = [
        min(bounds.upper[v] - frozen[v], host.degree[v]) for v in range(graph.n)
    ]

    def probe(forced: dict[int, tuple[int | None, int | None]]) -> Subgraph | None:
        lo = list(base_lower)
        hi = list(base_upper)
        for v, (force_lo, force_hi) in forced.items():
            if force_lo is not None:
                lo[v] = max(lo[v], force_lo)
            if force_hi is not None:
                hi[v] = min(hi[v], force_hi)
            if lo[v] > hi[v]:
                return None
        solved = feasible_subgraph(host, DegreeBounds(host, lo, hi))
        if solved is None:
            return None
        return Subgraph(graph, solved.edge_set.union(kept))

    def breaker(i: int) -> tuple[int, tuple[int | None, int | None]]:
        # forcing the vertex off its role's bound, expressed in shifted bounds
        v = cycle.vertices[i]
        if roles[i] == "a":
            return v, (max(0, bounds.lower[v] + 1 - frozen[v]), None)
        return v, (None, bounds.upper[v] - 1 - frozen[v])

    positions = range(len(cycle))
    probes: list[dict[int, tuple[int | None, int | None]]] = []
    for i in positions:
        v, force = breaker(i)
        probes.append({v: force})
    for i in positions:
        for j in positions:
            if roles[i] == roles[j]:  # want one break per phase pattern
                continue
            vi, fi = breaker(i)
            vj, fj = breaker(j)
            forced: dict[int, tuple[int | None, int | None]] = {vi: fi}
            if vj in forced:
                lo_i, hi_i = forced[vj]
                lo_j, hi_j = fj
                forced[vj] = (
                    lo_j if lo_i is None else lo_i if lo_j is None else max(lo_i, lo_j),
                    hi_j if hi_i is None else hi_i if hi_j is None else min(hi_i, hi_j),
                )
            else:
                forced[vj] = fj
            probes.append(forced)
    seen: set[tuple] = set()
    for forced in probes:
        key = tuple(sorted(forced.items()))
        if key in seen:
            continue
        seen.add(key)
        candidate = probe(forced)
        if candidate is not None and not is_alternatingly_ab_tight(
            cycle, candidate, bounds
        ):
            return candidate
    return None


def _alt_cycle(
    cycle: Trail,
    ctx: Subgraph,
    unlocked: Subgraph,
    graph: Graph,
    bounds: DegreeBounds,
    out: list[Move],
) -> None:
    if not is_alternatingly_ab_tight(cycle, ctx, bounds):
        raise ContractError("cycle is not alternately tight in the current subgraph")
    if any((e in ctx) != (e in unlocked) for e in cycle.edges):
        raise ContractError("unlocking subgraph disagrees with the current one on the cycle")
    if is_alternatingly_ab_tight(cycle, unlocked, bounds):
        raise ContractError("proposed subgraph does not break the tightness pattern")
    roles = _pattern_roles(cycle, ctx, bounds)
    chosen = None
    for i in range(len(cycle)):
        v = cycle.vertices[i]
        bound = bounds.lower[v] if roles[i] == "a" else bounds.upper[v]
        if unlocked.degrees[v] != bound:
            chosen = (i, v, roles[i])
            break
    if chosen is None:
        raise SynthesisError("pattern reported broken but every role is still tight")
    i, v, role = chosen
    snapshot = ctx.copy()
    bridge = _bridge_trail(graph, ctx, unlocked, v, want_inside=(role == "b"))
    tt = len(cycle)
    if role == "b":
        if len(bridge) % 2 == 0:
            loop = _rooted_loop(cycle, v, first_inside=True, current=ctx)
            _elementary(concat(loop, bridge), ctx, bounds, out)
            _elementary(bridge, ctx, bounds, out)  # undo the off-cycle effects
        else:
            rot = _rooted_loop(cycle, v, first_inside=False, current=ctx)
            sweep = concat(bridge.reversed(), rot.segment(0, tt - 1))
            _elementary(sweep, ctx, bounds, out)
            back = concat(
                single_edge_trail(graph, rot.edges[-1], rot.vertices[tt - 1]), bridge
            )
            _elementary(back, ctx, bounds, out)
    else:
        if len(bridge) % 2 == 0:
            loop = _rooted_loop(cycle, v, first_inside=True, current=ctx)
            _elementary(concat(bridge.reversed(), loop), ctx, bounds, out)
            _elementary(bridge, ctx, bounds, out)
        else:
            rot = _rooted_loop(cycle, v, first_inside=True, current=ctx)
            sweep = concat(rot.segment(0, tt - 1).reversed(), bridge)
            _elementary(sweep, ctx, bounds, out)
            back = concat(
                bridge.reversed(),
                single_edge_trail(graph, rot.edges[-1], v),
            )
            _elementary(back, ctx, bounds, out)
    _assert_net_effect(snapshot, ctx, cycle, "alternately tight cycle reconfiguration")


def _bridge_trail(
    graph: Graph, current: Subgraph, unlocked: Subgraph, start: int, want_inside: bool
) -> Trail:
    """Maximal alternating trail between the two subgraphs, grown from ``start``.

    The first edge lies inside the current subgraph but outside the unlocking
    one (or vice versa); extension continues at the far end only, taking the
    smallest admissible edge index, until no continuation remains.
    """
    pool = current.edge_set ^ unlocked.edge_set
    first = None
    for e in sorted(graph.incident[start]):
        if e in pool and (e in current) == want_inside:
            first = e
            break
    if first is None:
        raise SynthesisError(f"no bridge edge at vertex {start}")
    vertices = [start, graph.other_end(first, start)]
    edges = [first]
    used = {first}
    while True:
        at = vertices[-1]
        want = edges[-1] not in current
        nxt = None
        for e in sorted(graph.incident[at]):
            if e in pool and e not in used and (e in current) == want:
                nxt = e
                break
        if nxt is None:
            break
        vertices.append(graph.other_end(nxt, at))
        edges.append(nxt)
        used.add(nxt)
    return Trail(tuple(vertices), tuple(edges))
