"""The decider's outputs on a fixed corpus, pinned by one digest.

Each instance contributes plain tuples from ``decide_with_trace``: the
answer, the moves as (kind, edge), the witness as (kind, edge, cycle edges,
cycle vertices, context), and the trace as (class, rule, moves, trail edges,
trail vertices). The last group also contributes its ``maximum_dcs`` edge
set. A change meant to keep every answer, sequence, certificate and trace
keeps this digest. A change that alters outputs on purpose updates
``DIGEST`` and says why in ``CHANGES.md``. The same corpus checks that
every locked cycle a No answer names is locked in an end of its run.
"""

import hashlib
import random

from helpers import loose_instance, planted_tight_cycles, random_bounds_instance

from dcsreconf.augmenting import Ends, Gadget
from dcsreconf.decider import LOCKED_ALT_AB_TIGHT_CYCLE, LOCKED_B_TIGHT_CYCLE, decide_with_trace
from dcsreconf.external import _btight_cycle, exists_unlocking_subgraph
from dcsreconf.obstructions import m_fixed_subgraph, restrict_instance
from dcsreconf.solver import maximum_dcs
from dcsreconf.trails import cycle_tightness

DIGEST = "c2456ef0f97173453910c6a1ca297944996fd65b3de3eb640e97aa5a094c1464"


def _outputs(inst):
    decision, trace = decide_with_trace(inst)
    moves = [(m.kind, m.edge) for m in decision.moves or ()]
    w = decision.witness
    witness = None
    if w is not None:
        cycle = (None, None) if w.cycle is None else (w.cycle.edges, w.cycle.vertices)
        witness = (w.kind, w.edge, *cycle, w.context)
    steps = [(t.trail_class, t.rule, t.moves, t.trail.edges, t.trail.vertices) for t in trace]
    return (decision.yes, moves, witness, steps)


def _corpus():
    """The corpus, each instance with whether its ``maximum_dcs`` is pinned too."""
    rng = random.Random(7)
    for _ in range(1000):
        yield random_bounds_instance(rng), False
    rng = random.Random(8)
    for i in range(40):
        yield planted_tight_cycles(rng, 200, 3, locked=i % 2 == 1), False
    rng = random.Random(9)
    for _ in range(100):
        yield loose_instance(rng, 30, 80), True


def _corpus_digest() -> str:
    h = hashlib.sha256()

    def feed(value) -> None:
        h.update(repr(value).encode())
        h.update(b"\n")

    for inst, with_maximum in _corpus():
        feed(_outputs(inst))
        if with_maximum:
            best = maximum_dcs(inst.graph, inst.bounds)
            feed(None if best is None else sorted(best.edge_set))
    return h.hexdigest()


def test_outputs_match_the_pinned_digest():
    assert _corpus_digest() == DIGEST


def _locked_in(cycle, end, bounds):
    """How ``cycle`` is locked in the subgraph ``end``, by fresh searches on a
    whole-host gadget: 'upper' with no escape, 'alternating' with no
    unlocking trail, else None."""
    g = end.graph
    host, ends = Gadget(g, g.edge_ids, end.edge_set), Ends(end, bounds)
    tightness = cycle_tightness(cycle, end, bounds)
    if tightness == "upper":
        escape = _btight_cycle(cycle, end.copy(), bounds, [], host, ends)
        return tightness if escape is None else None
    if tightness == "alternating":
        bridge = exists_unlocking_subgraph(cycle, end, bounds, host, ends)
        return tightness if bridge is None else None
    return None


def test_locked_witnesses_are_locked_in_an_end_of_the_restricted_instance():
    """A locked cycle is found in a state of the peel, but its lock holds in
    the source of the run that found it (``decider._process``): the restricted
    instance's source, or its target when the run swapped them."""
    kinds = {LOCKED_B_TIGHT_CYCLE: "upper", LOCKED_ALT_AB_TIGHT_CYCLE: "alternating"}
    seen = dict.fromkeys(kinds, 0)
    for inst, _ in _corpus():
        decision, _ = decide_with_trace(inst)
        w = decision.witness
        if w is None or w.kind not in kinds:
            continue
        seen[w.kind] += 1
        r = restrict_instance(inst, m_fixed_subgraph(inst.graph, inst.bounds, inst.source))
        locks = {_locked_in(w.cycle, end, r.bounds) for end in (r.source, r.target)}
        assert kinds[w.kind] in locks, (w, inst)
    assert all(seen.values()), seen
