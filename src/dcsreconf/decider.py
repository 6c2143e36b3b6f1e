"""Top-level decision procedure with verified certificates.

Pipeline: detect fixed-edge conflicts, switch the fixed edges off (they keep
their indices, so moves, witnesses and trace entries need no mapping back),
orient so the source is no larger than the target, then peel alternating
trails and dispatch each by its class. ``Peel`` is the one peel loop, and
``alternating_trail_decomposition`` lists what it takes: growing trails while
any is left (from ``augmenting.growing_trails``, which moves past a start for
good once it has no trail), then maximal trails from the least edge left,
with no further search. A ``Peel`` owns what the searches keep in step with
the current subgraph (the pool gadget over the edges left, one ``Ends`` and
the optional whole-host gadget) and applies each trail to them in one place.
At slack 1 with equal sizes the procedure either works between maximum
subgraphs (where locked upper-tight cycles are conclusive) or routes through
a one-edge augmentation of the target. Between maximum subgraphs one
whole-host gadget, built once, answers the maximality test and then every
escape and unlock search; elsewhere the peel builds it at the first
alternately tight cycle. Every Yes answer is replayed through the verifier
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .augmenting import Ends, Gadget, growing_trails
from .core import (
    DegreeBounds,
    Graph,
    Instance,
    Move,
    Subgraph,
    is_ab_constrained,
    reversed_moves,
    verify_move_sequence,
)
from .errors import ContractError, LockedCycleError, SynthesisError
from .external import _alt_cycle, _btight_cycle, exists_unlocking_subgraph
from .internal import _closed_even, _elementary, _odd_grow, _odd_shrink
from .obstructions import fixed_edge_witness, m_fixed_subgraph, restrict_instance
from .solver import augment_trail, is_maximum
from .trail_type import Trail
from .trails import TrailClass, classify_trail
# Not called here; bound because the benchmark's traced run wraps these names
# (``perfbench/tracer.py``, ``_WRAPS``).
from .trails import find_augmenting_trail, find_maximal_alternating_trail  # noqa: F401

FIXED_EDGE = "fixed-edge"
LOCKED_B_TIGHT_CYCLE = "locked-btight-cycle"
LOCKED_ALT_AB_TIGHT_CYCLE = "locked-alt-abtight-cycle"


@dataclass(frozen=True)
class Witness:
    """A No-certificate: the obstruction that makes the target unreachable."""

    kind: str
    edge: int | None = None
    cycle: Trail | None = None
    context: str = ""


@dataclass(frozen=True)
class Decision:
    yes: bool
    moves: tuple[Move, ...] | None = None
    witness: Witness | None = None

    @staticmethod
    def accept(moves) -> Decision:
        return Decision(True, tuple(moves), None)

    @staticmethod
    def reject(witness: Witness) -> Decision:
        return Decision(False, None, witness)


@dataclass
class TraceEntry:
    trail_class: str
    rule: str
    moves: int
    trail: Trail


def decide(inst: Instance) -> Decision:
    decision, _ = decide_with_trace(inst)
    return decision


def decide_with_trace(inst: Instance) -> tuple[Decision, list[TraceEntry]]:
    """Decide the instance; Yes answers come back verified, No answers certified."""
    inst.validate()
    trace: list[TraceEntry] = []
    decision = _decide_core(inst, trace)
    if decision.yes:
        check = verify_move_sequence(inst, list(decision.moves))
        if not check:
            raise SynthesisError(
                f"internal verification failed at step {check.step}: {check.reason}"
            )
        bound = inst.graph.m * inst.graph.m + 2 * inst.graph.m
        if len(decision.moves) > bound:
            raise SynthesisError(
                f"sequence length {len(decision.moves)} exceeds the {bound}-step bound"
            )
    return decision, trace


def _decide_core(inst: Instance, trace: list[TraceEntry]) -> Decision:
    if inst.source == inst.target:
        return Decision.accept(())
    fixed = m_fixed_subgraph(inst.graph, inst.bounds, inst.source)
    conflict = fixed_edge_witness(inst.source, inst.target, fixed)
    if conflict is not None:
        return Decision.reject(Witness(FIXED_EDGE, edge=conflict, context="any slack"))
    return _solve(restrict_instance(inst, fixed), trace)


def _solve(inst: Instance, trace: list[TraceEntry]) -> Decision:
    if len(inst.source) > len(inst.target):
        swapped = Instance(inst.graph, inst.bounds, inst.target, inst.source, inst.k)
        decision = _solve(swapped, trace)
        if decision.yes:
            return Decision.accept(reversed_moves(list(decision.moves)))
        return decision
    if inst.k == 1 and len(inst.source) == len(inst.target):
        host = Gadget(inst.graph, inst.graph.edge_ids, inst.source.edge_set)
        if is_maximum(inst.graph, inst.bounds, inst.source, host):
            return _process(inst, trace, host)
        return _solve_equal_nonmax(inst, trace)
    return _process(inst, trace)


def _solve_equal_nonmax(inst: Instance, trace: list[TraceEntry]) -> Decision:
    """Slack 1, equal sizes, not maximum: grow the target once and come back."""
    grow = augment_trail(inst.graph, inst.bounds, inst.target)
    if grow is None:
        raise SynthesisError("non-maximum subgraph admits no growing trail")
    bigger = inst.target.copy()
    bigger.flip(grow.edges)
    inner = Instance(inst.graph, inst.bounds, inst.source, bigger, 1)
    decision = _process(inner, trace)
    if decision.yes:
        ctx = bigger.copy()
        tail: list[Move] = []
        _odd_shrink(grow, ctx, inst.bounds, tail)
        trace.append(TraceEntry("detour-release", "shrink", len(tail), grow))
        return Decision.accept(list(decision.moves) + tail)
    witness = decision.witness
    if witness.kind != LOCKED_ALT_AB_TIGHT_CYCLE:
        raise SynthesisError("detour run produced an unexpected certificate kind")
    diff = inst.source.edge_set ^ inst.target.edge_set
    if set(witness.cycle.edges) & diff:
        return decision
    # The locked cycle lies outside the actual difference (it was introduced
    # by the detour). Its edges can never change from the source state, so
    # freeze them and decide the rest.
    frozen = Subgraph(inst.graph, witness.cycle.edges)
    return _decide_core(restrict_instance(inst, frozen), trace)


class Peel:
    """Partition current^target into alternating trails, preferring growth.

    Iterating yields ``(trail, TrailClass)`` pairs, each classified around
    ``current``; the caller flips each trail into ``current`` before asking
    for the next. Peeling has two phases: growing trails (flip adds an edge)
    while any is left, then the maximal trail around the least edge left for
    every remaining trail, with no further search.

    A peel is iterated once. It owns what is kept in step with ``current``
    across trails: ``pool``, the gadget over the edges left (its ``index``);
    ``ends``, the ``Ends`` around ``current``; and ``host``, an optional
    gadget over the whole host around ``current``, which the caller may set
    while it holds a trail. The block after the ``yield`` is the one place
    that applies a trail to them.
    """

    def __init__(
        self,
        graph: Graph,
        bounds: DegreeBounds,
        current: Subgraph,
        target: Subgraph,
        host: Gadget | None = None,
    ):
        self.bounds, self.current, self.host = bounds, current, host
        # The caller flips exactly each trail, which then leaves the pool, so
        # no edge left in the pool changes side and one gadget over the
        # difference serves every search.
        self.pool = Gadget(graph, current.edge_set ^ target.edge_set, current.edge_set)
        self.ends = Ends(current, bounds)

    def __iter__(self):
        pool, ends, current, bounds = self.pool, self.ends, self.current, self.bounds
        # While growing, the pool only loses edges, no edge left changes side
        # and room only shrinks, so a trail from a start later was one
        # already: a start that misses (no one-edge trail, or its own search
        # finds nothing) never finds a trail later (Edmonds 1965, as for
        # augmenting paths). ``growing_trails`` moves past each such start for
        # good and runs out exactly when no growing trail is left.
        grown = growing_trails(pool, ends)
        order = pool.edges  # fallback starts: the least edge left
        cursor = 0
        growing = True
        while pool.index:
            # After the growing phase no later peel can create a growing
            # trail. The pool only loses edges and no edge left changes side,
            # so every later candidate was a trail when it ended. Each later
            # trail is maximal (or a closed cycle that moves no degree), so its
            # flip moves degrees only at its ends; and an end that gains room
            # has no outside pool edge left, since the trail would have been
            # extended along it, so no growing trail can end there.
            trail = next(grown, None) if growing else None
            growing = trail is not None
            if trail is None:
                while order[cursor] not in pool.index:
                    cursor += 1
                trail = pool.maximal_trail(order[cursor])
            cls = classify_trail(trail, current, bounds)
            if cls is TrailClass.M_AUGMENTING and not growing:
                raise SynthesisError("fallback trail classified as growing: search is incomplete")
            yield trail, cls
            pool.drop(trail.edges)
            if self.host is not None:
                self.host.flip(trail.edges)
            ends.settle(trail)


def alternating_trail_decomposition(
    graph: Graph, bounds: DegreeBounds, source: Subgraph, target: Subgraph
) -> list[tuple[Trail, TrailClass]]:
    """The trails ``Peel`` takes from source^target, each with its class.

    Each class is the trail's class in the subgraph it was peeled from: the
    source with every earlier trail flipped.
    """
    if source == target:
        raise ContractError("decomposition requires distinct source and target")
    if not is_ab_constrained(source, bounds):
        raise ContractError("decomposition requires a feasible source")
    cur = source.copy()
    peeled = []
    for trail, cls in Peel(graph, bounds, cur, target):
        peeled.append((trail, cls))
        cur.flip(trail.edges)
        # a flip moves the degree only at the trail's vertices
        if not all(bounds.lower[v] <= cur.degrees[v] <= bounds.upper[v] for v in trail.vertices):
            raise SynthesisError("decomposition produced an infeasible intermediate subgraph")
    return peeled


def _process(inst: Instance, trace: list[TraceEntry], host: Gadget | None = None) -> Decision:
    graph, bounds = inst.graph, inst.bounds
    ctx = inst.source.copy()
    out: list[Move] = []
    # Every rule's net effect is exactly its trail's flip, so ``ctx`` is in
    # step with ``peel``, whose whole-host gadget and ``ends`` serve every
    # escape and unlock search. ``host`` is given exactly between maximum
    # subgraphs at slack 1, where upper-tight cycles escape; else
    # ``peel.host`` is built at the first alternately tight cycle.
    escapes = host is not None
    target_size = len(inst.target)
    peel = Peel(graph, bounds, ctx, inst.target, host)
    for trail, cls in peel:
        before = len(out)
        if cls is TrailClass.M_AUGMENTING:
            _odd_grow(trail, ctx, bounds, out)
            rule = "grow"
        elif cls is TrailClass.N_AUGMENTING:
            if len(ctx) < target_size:
                raise SynthesisError("shrinking trail while below target size")
            _odd_shrink(trail, ctx, bounds, out)
            rule = "shrink"
        elif cls is TrailClass.OPEN_EVEN_OR_UNLOCKED_CYCLE:
            if trail.is_closed:
                _closed_even(trail, ctx, bounds, out, allow_deep_dip=False)
                rule = "closed-even"
            else:
                _elementary(trail, ctx, bounds, out)
                rule = "open-even"
        elif cls is TrailClass.B_TIGHT_CYCLE:
            if escapes:
                try:
                    _btight_cycle(trail, ctx, bounds, out, peel.host, peel.ends)
                    rule = "tight-cycle-escape"
                except LockedCycleError:
                    return Decision.reject(
                        Witness(
                            LOCKED_B_TIGHT_CYCLE,
                            cycle=trail,
                            context="slack 1 between maximum subgraphs",
                        )
                    )
            else:
                _closed_even(trail, ctx, bounds, out, allow_deep_dip=True)
                rule = "tight-cycle-dip"
        else:  # alternately tight cycle
            if peel.host is None:
                peel.host = Gadget(graph, graph.edge_ids, ctx.edge_set)
            bridge = exists_unlocking_subgraph(trail, ctx, bounds, peel.host, peel.ends)
            if bridge is None:
                return Decision.reject(
                    Witness(LOCKED_ALT_AB_TIGHT_CYCLE, cycle=trail, context="any slack")
                )
            _alt_cycle(trail, ctx, bridge, graph, bounds, out)
            rule = "tight-cycle-unlock"
        trace.append(TraceEntry(cls.value, rule, len(out) - before, trail))
    if ctx != inst.target:
        raise SynthesisError("trail processing did not arrive at the target")
    return Decision.accept(out)
