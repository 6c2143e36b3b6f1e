"""Top-level decision procedure with verified certificates.

Pipeline: detect fixed-edge conflicts, switch the fixed edges off (they keep
their indices, so moves, witnesses and trace entries need no mapping back),
orient so the source is no larger than the target, then peel alternating
trails (preferring growing ones) and dispatch each by its class. At slack 1
with equal sizes the procedure either works between maximum subgraphs (where
locked upper-tight cycles are conclusive) or routes through a one-edge
augmentation of the target. Every Yes answer is replayed through the verifier
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .augmenting import Gadget
from .core import Instance, Move, Subgraph, reversed_moves, verify_move_sequence
from .errors import LockedCycleError, SynthesisError
from .external import _alt_cycle, _btight_cycle, exists_unlocking_subgraph
from .internal import _closed_even, _elementary, _odd_grow, _odd_shrink
from .obstructions import fixed_edge_witness, m_fixed_subgraph, restrict_instance
from .solver import augment_trail, is_maximum
from .trail_type import Trail
from .trails import (
    TrailClass,
    classify_trail,
    find_augmenting_trail,
    find_maximal_alternating_trail,
)

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
    if inst.source == inst.target:
        return Decision.accept(())
    if len(inst.source) > len(inst.target):
        swapped = Instance(inst.graph, inst.bounds, inst.target, inst.source, inst.k)
        decision = _solve(swapped, trace)
        if decision.yes:
            return Decision.accept(reversed_moves(list(decision.moves)))
        return decision
    if inst.k == 1 and len(inst.source) == len(inst.target):
        if is_maximum(inst.graph, inst.bounds, inst.source):
            return _process(inst, trace, max_regime=True)
        return _solve_equal_nonmax(inst, trace)
    return _process(inst, trace, max_regime=False)


def _solve_equal_nonmax(inst: Instance, trace: list[TraceEntry]) -> Decision:
    """Slack 1, equal sizes, not maximum: grow the target once and come back."""
    grow = augment_trail(inst.graph, inst.bounds, inst.target)
    if grow is None:
        raise SynthesisError("non-maximum subgraph admits no growing trail")
    bigger = inst.target.copy()
    bigger.flip(grow.edges)
    inner = Instance(inst.graph, inst.bounds, inst.source, bigger, 1)
    decision = _process(inner, trace, max_regime=False)
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


def _process(inst: Instance, trace: list[TraceEntry], max_regime: bool) -> Decision:
    graph, bounds = inst.graph, inst.bounds
    ctx = inst.source.copy()
    out: list[Move] = []
    remaining = Subgraph(graph, inst.source.edge_set ^ inst.target.edge_set)
    # Every rule's net effect is exactly its trail's flip, so one gadget over
    # the difference (dropping peeled edges) serves every growing-trail
    # search, and one whole-host gadget (flipping them) every escape search.
    pool = Gadget(graph, remaining.edge_set, ctx.edge_set)
    host: Gadget | None = None
    while remaining.edge_set:
        searched = find_augmenting_trail(graph, bounds, ctx, inst.target, pool)
        if searched is not None:
            trail = searched
        else:
            trail = find_maximal_alternating_trail(remaining, ctx, min(remaining.edge_set))
        cls = classify_trail(trail, ctx, bounds)
        before = len(out)
        if cls is TrailClass.M_AUGMENTING:
            if searched is None:
                raise SynthesisError("fallback trail classified as growing: search is incomplete")
            _odd_grow(trail, ctx, bounds, out)
            rule = "grow"
        elif cls is TrailClass.N_AUGMENTING:
            if len(ctx) < len(inst.target):
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
            if max_regime:
                if host is None:
                    host = Gadget(graph, graph.edge_ids, ctx.edge_set)
                try:
                    _btight_cycle(trail, ctx, graph, bounds, out, host)
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
            bridge = exists_unlocking_subgraph(trail, ctx, graph, bounds)
            if bridge is None:
                return Decision.reject(
                    Witness(LOCKED_ALT_AB_TIGHT_CYCLE, cycle=trail, context="any slack")
                )
            _alt_cycle(trail, ctx, bridge, graph, bounds, out)
            rule = "tight-cycle-unlock"
        trace.append(TraceEntry(cls.value, rule, len(out) - before, trail))
        for e in trail.edges:
            remaining.remove(e)
            pool.drop(e)
            if host is not None:
                host.flip(e)
    if ctx != inst.target:
        raise SynthesisError("trail processing did not arrive at the target")
    return Decision.accept(out)
