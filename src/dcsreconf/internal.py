"""Move synthesis for trails reconfigured inside the symmetric difference.

The workhorse is one splitter (``_split``) driven by a work stack (so trail
length is not limited by the recursion limit), with one pivot rule: an even
alternating trail is cut around its first two-edge piece that can flip now (a
closed trail is first rotated to start there) into smaller even pieces whose
reconfiguration order is chosen so that every piece's entry conditions hold
in the subgraph produced by the earlier pieces.
A trail is checked once, where it enters synthesis; its pieces inherit
alternation and "no pinned vertex", and orders are tested on end degrees.
The base case is a two-edge trail handled by one paired remove/add (ordered
by the middle vertex's upper-bound slack). An odd trail, growing or
shrinking, is flipped by one routine (``_odd``) that hands even parts to the
splitter until one edge is left. Emitted sequences touch only trail edges,
keep every intermediate state feasible, and never let the edge count drop
more than one below the ambient size, except for the fully upper-tight
cycles which need a dip of two. The workers mutate the passed subgraph in
place and append to the move list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable

from .core import ADD, REMOVE, DegreeBounds, Move, Subgraph
from .errors import (
    ContractError,
    NeedsK2Error,
    NotInternallyReconfigurableError,
    SynthesisError,
)
from .trail_type import Trail, alternates, inside_first
from .trails import is_alternatingly_ab_tight

@dataclass(frozen=True)
class Violation:
    condition: str
    vertex: int | None = None


def check_internal_conditions(
    trail: Trail, current: Subgraph, bounds: DegreeBounds
) -> Violation | None:
    """Check the exact conditions under which an even trail flips in place.

    Open trails need a start that can shed an edge and an end that can accept
    one; closed trails must not be uniformly upper-tight, uniformly
    lower-tight, or alternately tight; no trail vertex may have coinciding
    bounds. Returns None when every applicable condition holds.
    """
    if not trail.edges or len(trail) % 2 != 0:
        raise ContractError("internal conditions are defined for non-empty even trails")
    if not alternates(trail, current):
        raise ContractError("trail does not alternate around the current subgraph")
    t = inside_first(trail, current)
    for v in t.vertices:
        if bounds.lower[v] == bounds.upper[v]:
            return Violation("pinned-vertex", v)
    return _degree_violation(t, current, bounds)


def _degree_violation(t: Trail, current: Subgraph, bounds: DegreeBounds) -> Violation | None:
    """The first degree condition an inside-first even trail fails, or None."""
    if not t.is_closed:
        if current.degrees[t.vertices[0]] == bounds.lower[t.vertices[0]]:
            return Violation("start-at-lower-bound", t.vertices[0])
        if current.degrees[t.vertices[-1]] == bounds.upper[t.vertices[-1]]:
            return Violation("end-at-upper-bound", t.vertices[-1])
        return None
    if all(current.degrees[v] == bounds.upper[v] for v in t.vertices):
        return Violation("cycle-all-at-upper-bound")
    if all(current.degrees[v] == bounds.lower[v] for v in t.vertices):
        return Violation("cycle-all-at-lower-bound")
    if is_alternatingly_ab_tight(t, current, bounds):
        return Violation("cycle-alternately-tight")
    return None


def _emit(ctx: Subgraph, bounds: DegreeBounds, out: list[Move], kind: str, edge: int) -> None:
    try:
        if kind == ADD:
            ctx.add(edge)
        else:
            ctx.remove(edge)
    except Exception as exc:  # noqa: BLE001 - rewrapped with synthesis context
        raise SynthesisError(f"synthesized an illegal move {kind} {edge}: {exc}") from exc
    lower, upper, degrees = bounds.lower, bounds.upper, ctx.degrees
    for v in ctx.graph.edges[edge]:
        if not lower[v] <= degrees[v] <= upper[v]:
            raise SynthesisError(
                f"synthesized move {kind} {edge} violates bounds at vertex {v}"
            )
    out.append(Move(kind, edge))


def _first_valid_order(
    orders: Iterable[tuple[Trail, ...]], ctx: Subgraph, bounds: DegreeBounds
) -> tuple[Trail, ...]:
    """The first order whose pieces all pass their degree conditions in turn:
    flipping an inside-first even piece moves only its start down a step and
    its end up a step, so an order is tested by shifting those two degrees."""
    degrees = ctx.degrees
    for order in orders:
        shifted: list[Trail] = []
        for part in order:
            t = inside_first(part, ctx)
            if _degree_violation(t, ctx, bounds) is not None:
                break
            degrees[t.vertices[0]] -= 1
            degrees[t.vertices[-1]] += 1
            shifted.append(t)
        for t in shifted:
            degrees[t.vertices[0]] += 1
            degrees[t.vertices[-1]] -= 1
        if len(shifted) == len(order):
            return tuple(order)
    raise SynthesisError("no admissible ordering of trail pieces")


def _elementary(trail: Trail, ctx: Subgraph, bounds: DegreeBounds, out: list[Move]) -> None:
    viol = check_internal_conditions(trail, ctx, bounds)
    if viol is not None:
        raise NotInternallyReconfigurableError(viol.condition, viol.vertex)
    # Pieces are popped in trail order, each split when popped, in the state its
    # order was tested in (what the pieces before it left), so none is rechecked.
    stack = [trail]
    while stack:
        t = inside_first(stack.pop(), ctx)
        if len(t) == 2:
            mid = t.vertices[1]
            if ctx.degrees[mid] == bounds.upper[mid]:
                _emit(ctx, bounds, out, REMOVE, t.edges[0])
                _emit(ctx, bounds, out, ADD, t.edges[1])
            else:
                _emit(ctx, bounds, out, ADD, t.edges[1])
                _emit(ctx, bounds, out, REMOVE, t.edges[0])
            continue
        stack.extend(reversed(_split(t, ctx, bounds)))


def _pivot(t: Trail, ctx: Subgraph, bounds: DegreeBounds) -> int | None:
    """The first even position ``i`` of an inside-first trail whose two-edge
    piece can flip now: ``v_i`` can shed an edge and ``v_{i+2}`` can take one."""
    lower, upper, degrees, vs = bounds.lower, bounds.upper, ctx.degrees, t.vertices
    for i in range(0, len(t) - 1, 2):
        if degrees[vs[i]] > lower[vs[i]] and degrees[vs[i + 2]] < upper[vs[i + 2]]:
            return i
    return None


def _split(t: Trail, ctx: Subgraph, bounds: DegreeBounds) -> tuple[Trail, ...]:
    """An inside-first even trail's pieces in an order whose entry conditions
    all hold: the two-edge piece at a pivot, then the prefix and the suffix.

    A closed trail is first rotated to start at a pivot of one of its two
    inside-first orientations, so its prefix is empty. One of them has a pivot.
    Suppose an orientation has none. If one of its even positions can shed an
    edge, the next even position sits at its upper bound, so it can shed too
    (no vertex is pinned), and so on around the cycle: every even position
    sits at its upper bound, or else every one at its lower bound. The other
    orientation's even positions are the odd ones, so with no pivot there
    either, the odd positions also share one bound. The four combinations are
    uniformly upper-tight, uniformly lower-tight and the two phases of
    alternately tight, which ``_degree_violation`` has excluded. The pivot
    piece then flips first: its end gains a step and starts the rest (open,
    as the host is simple), so that start can shed; its start sheds a step
    and ends the rest, so that end can take an edge. ``_first_valid_order``
    stays as the check on this.
    """
    if t.is_closed:
        for oriented in (t, t.reversed().rotated(1)):
            pivot = _pivot(oriented, ctx, bounds)
            if pivot is not None:
                t, pivot = oriented.rotated(pivot), 0
                break
    else:
        pivot = _pivot(t, ctx, bounds)
    if pivot is None:
        raise SynthesisError("trail admits no two-edge pivot despite valid conditions")
    tt = len(t)
    parts = [t.segment(pivot, pivot + 2)]  # the middle piece, then prefix and suffix
    if pivot > 0:
        parts.append(t.segment(0, pivot))
    if pivot + 2 < tt:
        parts.append(t.segment(pivot + 2, tt))
    return _first_valid_order(permutations(parts), ctx, bounds)  # the middle piece leads if it can


def _odd(trail: Trail, ctx: Subgraph, bounds: DegreeBounds, out: list[Move], grow: bool) -> None:
    """Flip an odd trail whose danglers lie outside ``ctx`` when ``grow`` (the
    net effect adds one edge) and inside otherwise (it removes one)."""
    if len(trail) % 2 != 1:
        raise ContractError("odd-trail synthesis requires an odd trail")
    if not alternates(trail, ctx):
        raise ContractError("trail does not alternate around the current subgraph")
    # an odd alternating trail starts and ends on the same side
    inside = trail.edges[0] in ctx
    if grow and inside:
        raise ContractError("growing trail must dangle outside the current subgraph")
    if not grow and not inside:
        raise ContractError("shrinking trail must dangle inside the current subgraph")
    for v in trail.vertices:
        if bounds.lower[v] == bounds.upper[v]:
            raise NotInternallyReconfigurableError("pinned-vertex", v)
    # each open end moves one step the flip's way; a closed trail's end two
    if trail.is_closed:
        ends, need = (trail.vertices[0],), 2
        condition = "closed-end-lacks-room" if grow else "closed-end-lacks-slack"
    else:
        ends, need = (trail.vertices[0], trail.vertices[-1]), 1
        condition = "end-at-upper-bound" if grow else "end-at-lower-bound"
    for v in ends:
        room = bounds.upper[v] - ctx.degrees[v] if grow else ctx.degrees[v] - bounds.lower[v]
        if room < need:
            raise NotInternallyReconfigurableError(condition, v)
    end_move = ADD if grow else REMOVE
    if len(trail) == 1:
        _emit(ctx, bounds, out, end_move, trail.edges[0])
        return

    def can_pivot(v: int) -> bool:  # can move one step against the flip's way
        return ctx.degrees[v] > bounds.lower[v] if grow else ctx.degrees[v] < bounds.upper[v]
    # Checked once: what remains after each even part passes too. It is an odd
    # segment with a dangler first, so it alternates with no pinned vertex. The
    # part's flip leaves the pivot, now an end, a step to move the flip's way,
    # and spends a step at the old end it covers, no longer an end unless closed.
    while True:
        tt = len(trail)
        if tt == 1:
            _emit(ctx, bounds, out, end_move, trail.edges[0])
            return
        pivot = next((i for i in range(1, tt) if can_pivot(trail.vertices[i])), None)
        if pivot is None:
            # every interior vertex sits at its lower bound (grow) or its
            # upper bound (shrink): lead with the first edge
            _emit(ctx, bounds, out, end_move, trail.edges[0])
            _elementary(trail.segment(1, tt), ctx, bounds, out)
            return
        if pivot % 2 == 0:
            # ``_elementary`` orients the even part itself (``inside_first``)
            even_part = trail.segment(0, pivot)
            rest = trail.segment(pivot, tt)
            if not grow:
                rest = rest.reversed()
        else:
            even_part = trail.segment(pivot, tt)
            rest = trail.segment(0, pivot)
        _elementary(even_part, ctx, bounds, out)
        trail = rest


def _odd_grow(trail: Trail, ctx: Subgraph, bounds: DegreeBounds, out: list[Move]) -> None:
    """Flip an odd trail with outside danglers; net effect adds one edge."""
    _odd(trail, ctx, bounds, out, grow=True)


def _odd_shrink(trail: Trail, ctx: Subgraph, bounds: DegreeBounds, out: list[Move]) -> None:
    """Flip an odd trail with inside danglers; net effect removes one edge."""
    _odd(trail, ctx, bounds, out, grow=False)


def _closed_even(
    trail: Trail, ctx: Subgraph, bounds: DegreeBounds, out: list[Move], allow_deep_dip: bool
) -> None:
    """Flip a closed even trail; needs a two-step dip when fully upper-tight."""
    if not trail.is_closed or len(trail) % 2 != 0:
        raise ContractError("closed even-length trail expected")
    if not alternates(trail, ctx):
        raise ContractError("trail does not alternate around the current subgraph")
    t = inside_first(trail, ctx)
    tt = len(t)
    if all(ctx.degrees[v] == bounds.lower[v] for v in t.vertices):
        # uniformly lower-tight: lead with an addition, close with a removal
        _emit(ctx, bounds, out, ADD, t.edges[-1])
        _elementary(t.segment(1, tt - 1), ctx, bounds, out)
        _emit(ctx, bounds, out, REMOVE, t.edges[0])
    elif all(ctx.degrees[v] == bounds.upper[v] for v in t.vertices):
        if not allow_deep_dip:
            raise NeedsK2Error("uniformly upper-tight cycle needs a dip of two")
        _emit(ctx, bounds, out, REMOVE, t.edges[0])
        _elementary(t.segment(1, tt - 1), ctx, bounds, out)
        _emit(ctx, bounds, out, ADD, t.edges[-1])
    else:
        _elementary(t, ctx, bounds, out)
