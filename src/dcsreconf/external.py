"""Reconfiguration of locked cycles using edges outside the symmetric difference.

A uniformly upper-tight cycle can only flip at the tight floor if some cycle
vertex can temporarily shed an edge through an escape trail ending at a
vertex with spare capacity; an alternately tight cycle can only flip if an
unlocking trail exists: one that uses no cycle edge, leaves a cycle vertex
over the edge that moves it off its role's bound, and ends where the far end
can take the change. Each vertex of such a cycle sits at exactly one of its
bounds, so its role is read from its degree: 'b' at the upper bound, 'a' at
the lower. Both trails are searched forward from the cycle, with
the side of the first edge set per search, on the whole-host gadget and the
``augmenting.Ends`` that ``decider.Peel`` keeps around the current subgraph.
Both routines restore every off-cycle side effect.
"""

from __future__ import annotations

from .augmenting import Ends, Gadget
from .core import DegreeBounds, Move, Subgraph
from .errors import ContractError, LockedCycleError, SynthesisError
from .internal import _elementary
# Not called here; bound because the benchmark's traced run wraps these names
# (``perfbench/tracer.py``, ``_WRAPS``).
from .augmenting import find_alternating_trail  # noqa: F401
from .solver import feasible_subgraph  # noqa: F401
from .trail_type import Trail, concat
from .trails import is_alternatingly_ab_tight


def _escape_trail(candidates: set[int], gadget: Gadget, ends: Ends) -> Trail | None:
    """Even alternating trail from a candidate, first edge inside, ending with room."""
    return gadget.search(candidates & ends.spare, ends.room, first_inside=True)


def _rooted_loop(cycle: Trail, root: int, first_inside: bool, current: Subgraph) -> Trail:
    """The cycle as a closed trail starting at ``root`` with the wanted side first.

    The cycle alternates, so the two cycle edges at any visit of ``root`` lie
    on opposite sides: its first visit, walked one way or the other, will do.
    """
    if root not in cycle.vertices:
        raise ContractError(f"vertex {root} does not lie on the cycle")
    rot = cycle.rotated(cycle.vertices.index(root))
    return rot if (rot.edges[0] in current) == first_inside else rot.reversed()


def _cycle_minus_edge(cycle: Trail, drop: int, start: int) -> Trail:
    """The open remainder of the cycle after ``drop``, walked from ``start``."""
    for orientation in (cycle, cycle.reversed()):
        for j, e in enumerate(orientation.edges):
            if e == drop:
                rot = orientation.rotated((j + 1) % len(orientation))
                if rot.vertices[0] == start:
                    return rot.segment(0, len(rot) - 1)
    raise ContractError(f"edge {drop} with endpoint {start} not found on the cycle")


def _assert_net_effect(moves: list[Move], cycle: Trail, where: str) -> None:
    """The moves flip exactly the cycle: its edges an odd number of times, others evenly."""
    odd: set[int] = set()
    for move in moves:
        odd ^= {move.edge}
    if odd != set(cycle.edges):
        raise SynthesisError(f"{where} left stray side effects outside the cycle")


def _btight_cycle(
    cycle: Trail,
    ctx: Subgraph,
    bounds: DegreeBounds,
    out: list[Move],
    gadget: Gadget,
    ends: Ends,
) -> None:
    if not cycle.is_closed or len(cycle) % 2 != 0:
        raise ContractError("closed even-length cycle expected")
    for v in cycle.vertices:
        if ctx.degrees[v] != bounds.upper[v]:
            raise ContractError(f"cycle vertex {v} is not at its upper bound")
    escape = _escape_trail(set(cycle.vertices), gadget, ends)
    if escape is None:
        raise LockedCycleError(cycle, "upper-tight")
    before = len(out)
    cyc_edges = set(cycle.edges)
    last = max((i for i, e in enumerate(escape.edges) if e in cyc_edges), default=None)
    if last is not None and escape.edges[last] in ctx:
        # the escape leaves the cycle over a current edge: flip from that edge
        # on, then sweep back together with the remaining open cycle part
        sweep_out = escape.segment(last, len(escape))
        _elementary(sweep_out, ctx, bounds, out)
        y = escape.vertices[last + 1]
        rest = _cycle_minus_edge(cycle, escape.edges[last], y)
        sweep_back = concat(escape.segment(last + 1, len(escape)).reversed(), rest)
    else:
        start = last + 1 if last is not None else 0
        y = escape.vertices[start]
        sweep_out = escape.segment(start, len(escape))
        _elementary(sweep_out, ctx, bounds, out)
        loop = _rooted_loop(cycle, y, first_inside=True, current=ctx)
        sweep_back = concat(sweep_out.reversed(), loop)
    _elementary(sweep_back, ctx, bounds, out)
    _assert_net_effect(out[before:], cycle, "upper-tight cycle reconfiguration")


def exists_unlocking_subgraph(
    cycle: Trail, current: Subgraph, bounds: DegreeBounds, gadget: Gadget, ends: Ends
) -> Trail | None:
    """A trail whose flip unlocks an alternately tight cycle, or None if it is locked.

    The trail uses no cycle edge and alternates around ``current``. It leaves
    a cycle vertex over the edge that moves it off its role's bound (a
    non-member edge at an a-role vertex, a member edge at a b-role vertex)
    and ends where the far end can take the change. Such a trail exists
    exactly when some feasible subgraph agreeing with ``current`` on the cycle
    breaks the pattern: their symmetric difference splits into alternating
    trails, and the one leaving a broken vertex is such a trail.

    ``gadget`` and ``ends`` span the whole host around ``current``. The
    cycle's edges leave the gadget for the two searches (a-role starts, then
    b-role starts with a member edge first) and come back before returning.
    """
    if not is_alternatingly_ab_tight(cycle, current, bounds):
        raise ContractError("cycle is not alternately tight in the current subgraph")
    # b-role vertices, at their upper bound, shed first; a-role ones gain first
    b_role = {v for v in cycle.vertices if current.degrees[v] == bounds.upper[v]}
    gadget.drop(cycle.edges)
    try:
        for inside, ports_at in ((False, gadget.outside_at), (True, gadget.inside_at)):
            # a start finds nothing without an off-cycle edge on its side
            starts = {v for v in cycle.vertices if (v in b_role) == inside and ports_at[v]}
            found = gadget.search(
                starts, ends.room, ends.spare, ends.closes(inside), first_inside=inside
            )
            if found is not None:
                return found
        return None
    finally:
        gadget.restore(cycle.edges)


def _alt_cycle(
    cycle: Trail, ctx: Subgraph, bridge: Trail, bounds: DegreeBounds, out: list[Move]
) -> None:
    if not is_alternatingly_ab_tight(cycle, ctx, bounds):
        raise ContractError("cycle is not alternately tight in the current subgraph")
    if not bridge.edges or set(bridge.edges) & set(cycle.edges):
        raise ContractError("the bridge must be non-empty and share no edge with the cycle")
    v = bridge.vertices[0]
    if v not in cycle.vertices:
        raise ContractError(f"bridge starts at vertex {v}, which is not on the cycle")
    sheds = bridge.edges[0] in ctx  # a b-role vertex, at its upper bound, sheds first
    if sheds != (ctx.degrees[v] == bounds.upper[v]):
        raise ContractError(f"bridge's first edge does not move vertex {v} off its role's bound")
    before = len(out)
    tt = len(cycle)
    # An even bridge extends the cycle rooted on its own side and is flipped
    # back afterwards; an odd one is swept with all but the cycle's last edge,
    # which is flipped with the bridge on the way back.
    even = len(bridge) % 2 == 0
    loop = _rooted_loop(cycle, v, first_inside=sheds == even, current=ctx)
    if even:
        _elementary(concat(loop, bridge), ctx, bounds, out)
        _elementary(bridge, ctx, bounds, out)  # undo the off-cycle effects
    else:
        _elementary(concat(bridge.reversed(), loop.segment(0, tt - 1)), ctx, bounds, out)
        _elementary(concat(loop.segment(tt - 1, tt), bridge), ctx, bounds, out)
    _assert_net_effect(out[before:], cycle, "alternately tight cycle reconfiguration")
