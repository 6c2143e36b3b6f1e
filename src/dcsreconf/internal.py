"""Move synthesis for trails reconfigured inside the symmetric difference.

The workhorse is a splitter driven by a work stack (so trail length is not
limited by the recursion limit): an even alternating trail is cut into
smaller even pieces whose reconfiguration order is chosen so that every
piece's entry conditions hold in the subgraph produced by the earlier pieces.
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
from .trail_type import Trail, alternates, inside_first, reverse_keep_first_edge
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
        parts = _closed_split(t, ctx, bounds) if t.is_closed else _open_split(t, ctx, bounds)
        stack.extend(reversed(parts))


def _open_split(t: Trail, ctx: Subgraph, bounds: DegreeBounds) -> tuple[Trail, ...]:
    """An open trail's pieces in an order whose entry conditions all hold."""
    tt = len(t)
    pivot = None
    for i in range(0, tt - 1, 2):
        v, w = t.vertices[i], t.vertices[i + 2]
        if ctx.degrees[v] > bounds.lower[v] and ctx.degrees[w] < bounds.upper[w]:
            pivot = i
            break
    if pivot is None:
        raise SynthesisError("open trail admits no two-edge pivot despite valid conditions")
    parts = [t.segment(pivot, pivot + 2)]  # the middle piece, then prefix and suffix
    if pivot > 0:
        parts.append(t.segment(0, pivot))
    if pivot + 2 < tt:
        parts.append(t.segment(pivot + 2, tt))
    return _first_valid_order(permutations(parts), ctx, bounds)  # the middle piece leads if it can


def _closed_split(t: Trail, ctx: Subgraph, bounds: DegreeBounds) -> tuple[Trail, Trail]:
    """A closed trail cut in two, in an order whose entry conditions both hold."""

    def loose(v: int) -> bool:
        return bounds.lower[v] < ctx.degrees[v] < bounds.upper[v]

    def at_lower(v: int) -> bool:
        return ctx.degrees[v] == bounds.lower[v]

    def at_upper(v: int) -> bool:
        return ctx.degrees[v] == bounds.upper[v]

    tt = len(t)
    v0, v1 = t.vertices[0], t.vertices[1]
    candidates: list[tuple[Trail, Trail]] = []
    if loose(v0) or loose(v1):
        if not loose(v0):
            t = reverse_keep_first_edge(t)
        q = t.segment(0, 2)
        r = t.segment(2, tt)
        if not at_upper(t.vertices[2]):
            candidates = [(q, r), (r, q)]
        else:
            candidates = [(r, q), (q, r)]
    elif (at_lower(v0) and at_upper(v1)) or (at_upper(v0) and at_lower(v1)):
        if at_upper(v0):
            t = reverse_keep_first_edge(t)
        # start sits at its lower bound, its neighbour at the upper one
        for i in range(0, tt, 2):
            if not at_lower(t.vertices[i]):
                q = t.segment(i, tt)
                r = t.segment(0, i)
                candidates = [(q, r), (r, q)]
                break
            if not at_upper(t.vertices[i + 1]):
                flipped = reverse_keep_first_edge(t)
                q = flipped.segment(0, tt - i)
                r = flipped.segment(tt - i, tt)
                candidates = [(q, r), (r, q)]
                break
        if not candidates:
            raise SynthesisError("mixed-tight cycle scan failed despite valid conditions")
    elif at_upper(v0) and at_upper(v1):
        i = _even_position(t, lambda v: not at_upper(v))
        if i is None:
            t = reverse_keep_first_edge(t)
            i = _even_position(t, lambda v: not at_upper(v))
        if i is None:
            raise SynthesisError("upper-tight cycle scan failed despite valid conditions")
        candidates = [(t.segment(0, i), t.segment(i, tt)), (t.segment(i, tt), t.segment(0, i))]
    else:
        i = _even_position(t, lambda v: not at_lower(v))
        if i is None:
            t = reverse_keep_first_edge(t)
            i = _even_position(t, lambda v: not at_lower(v))
        if i is None:
            raise SynthesisError("lower-tight cycle scan failed despite valid conditions")
        candidates = [(t.segment(i, tt), t.segment(0, i)), (t.segment(0, i), t.segment(i, tt))]
    return _first_valid_order(candidates, ctx, bounds)


def _even_position(t: Trail, predicate) -> int | None:
    for i in range(2, len(t) - 1, 2):
        if predicate(t.vertices[i]):
            return i
    return None


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
    if is_alternatingly_ab_tight(t, ctx, bounds):
        raise NotInternallyReconfigurableError("cycle-alternately-tight")
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
