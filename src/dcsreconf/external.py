"""Reconfiguration of locked cycles using edges outside the symmetric difference.

A uniformly upper-tight cycle can only flip at the tight floor if some cycle
vertex can temporarily shed an edge through an escape trail ending at a
vertex with spare capacity; an alternately tight cycle can only flip if an
unlocking trail exists: one that uses no cycle edge, leaves a cycle vertex
over the edge that moves it off its role's bound, and ends where the far end
can take the change. Both routines restore every off-cycle side effect.
"""

from __future__ import annotations

from .augmenting import Gadget
from .core import DegreeBounds, Graph, Move, Subgraph
from .errors import ContractError, LockedCycleError, SynthesisError
from .internal import _elementary
# Not called here; bound because the benchmark's traced run wraps these names
# (``perfbench/tracer.py``, ``_WRAPS``).
from .augmenting import find_alternating_trail  # noqa: F401
from .solver import feasible_subgraph  # noqa: F401
from .trail_type import Trail, concat, single_edge_trail
from .trails import is_alternatingly_ab_tight


def _escape_trail(
    graph: Graph,
    bounds: DegreeBounds,
    current: Subgraph,
    candidates: set[int],
    gadget: Gadget,
) -> Trail | None:
    """Even alternating trail from a candidate, first edge inside, ending at slack.

    Searched in reverse (from the slack vertices back to the candidates) so
    the generic engine's start convention applies; edge-distinctness is
    enforced by the engine's gadget construction. ``gadget`` spans the whole
    host around ``current``.
    """
    slack = {v for v in range(graph.n) if current.degrees[v] < bounds.upper[v]}
    goals = {v for v in candidates if current.degrees[v] > bounds.lower[v]}
    found = gadget.search(slack, set(), goals)
    return found.reversed() if found is not None else None


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
    gadget: Gadget,
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
) -> Trail | None:
    """A trail whose flip unlocks an alternately tight cycle, or None if it is locked.

    The trail uses no cycle edge and alternates around ``current``. It leaves
    a cycle vertex over the edge that moves it off its role's bound (a
    non-member edge at an a-role vertex, a member edge at a b-role vertex)
    and ends where the far end can take the change. Such a trail exists
    exactly when some feasible subgraph agreeing with ``current`` on the cycle
    breaks the pattern: their symmetric difference splits into alternating
    trails, and the one leaving a broken vertex is such a trail.

    a-role starts are searched on a gadget around ``current``, b-role starts
    on one around the pool's complement, where a member edge first is the
    usual non-member edge first and room and spare swap places.
    """
    if not is_alternatingly_ab_tight(cycle, current, bounds):
        raise ContractError("cycle is not alternately tight in the current subgraph")
    roles = _pattern_roles(cycle, current, bounds)
    host = graph.without(cycle.edges)
    room = [b - d for b, d in zip(bounds.upper, current.degrees)]
    spare = [d - a for d, a in zip(current.degrees, bounds.lower)]
    for role in ("a", "b"):
        inside = role == "b"
        # a start without an off-cycle edge on its side finds nothing, so a
        # side's gadget is built only when some start has one
        starts = {
            v
            for v, r in zip(cycle.vertices, roles)
            if r == role and any((e in current) == inside for e in host.incident[v])
        }
        if not starts:
            continue
        member = {e for e in host.edge_ids if e not in current} if inside else current.edge_set
        # A start's degree moves one step the way its first edge's flip moves
        # it; ``ahead[v]`` and ``behind[v]`` count the steps ``v`` can take
        # that way and the other way, so a trail may close only at a start
        # that can take two steps ahead.
        ahead, behind = (spare, room) if inside else (room, spare)
        add_sinks = {v for v, steps in enumerate(ahead) if steps > 0}
        remove_sinks = {v for v, steps in enumerate(behind) if steps > 0}
        gadget = Gadget(graph, host.edge_ids, member)
        found = gadget.search(starts, add_sinks, remove_sinks, closes=lambda v: ahead[v] >= 2)
        if found is not None:
            return found
    return None


def _alt_cycle(
    cycle: Trail,
    ctx: Subgraph,
    bridge: Trail,
    graph: Graph,
    bounds: DegreeBounds,
    out: list[Move],
) -> None:
    if not is_alternatingly_ab_tight(cycle, ctx, bounds):
        raise ContractError("cycle is not alternately tight in the current subgraph")
    if not bridge.edges or set(bridge.edges) & set(cycle.edges):
        raise ContractError("the bridge must be non-empty and share no edge with the cycle")
    v = bridge.vertices[0]
    role = "b" if bridge.edges[0] in ctx else "a"
    roles_at_v = [r for u, r in zip(cycle.vertices, _pattern_roles(cycle, ctx, bounds)) if u == v]
    if not roles_at_v:
        raise ContractError(f"bridge starts at vertex {v}, which is not on the cycle")
    if role not in roles_at_v:
        raise ContractError(f"bridge's first edge does not move vertex {v} off its role's bound")
    snapshot = ctx.copy()
    tt = len(cycle)
    # An even bridge extends the cycle rooted on its own side and is flipped
    # back afterwards; an odd one is swept with all but the cycle's last edge,
    # which is flipped with the bridge on the way back.
    even = len(bridge) % 2 == 0
    loop = _rooted_loop(cycle, v, first_inside=(role == "b") == even, current=ctx)
    if even:
        _elementary(concat(loop, bridge), ctx, bounds, out)
        _elementary(bridge, ctx, bounds, out)  # undo the off-cycle effects
    else:
        _elementary(concat(bridge.reversed(), loop.segment(0, tt - 1)), ctx, bounds, out)
        last = single_edge_trail(graph, loop.edges[-1], loop.vertices[tt - 1])
        _elementary(concat(last, bridge), ctx, bounds, out)
    _assert_net_effect(snapshot, ctx, cycle, "alternately tight cycle reconfiguration")
