"""The decider's outputs on a fixed corpus, pinned by one digest.

Each instance contributes plain tuples from ``decide_with_trace``: the
answer, the moves as (kind, edge), the witness as (kind, edge, cycle edges,
cycle vertices, context), and the trace as (class, rule, moves, trail edges,
trail vertices). The last group also contributes its ``maximum_dcs`` edge
set. A change meant to keep every answer, sequence, certificate and trace
keeps this digest. A change that alters outputs on purpose updates
``DIGEST`` and says why in ``CHANGES.md``.
"""

import hashlib
import random

from helpers import loose_instance, planted_tight_cycles, random_bounds_instance

from dcsreconf.decider import decide_with_trace
from dcsreconf.solver import maximum_dcs

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


def _corpus_digest() -> str:
    h = hashlib.sha256()

    def feed(value) -> None:
        h.update(repr(value).encode())
        h.update(b"\n")

    rng = random.Random(7)
    for _ in range(1000):
        feed(_outputs(random_bounds_instance(rng)))
    rng = random.Random(8)
    for i in range(40):
        feed(_outputs(planted_tight_cycles(rng, 200, 3, locked=i % 2 == 1)))
    rng = random.Random(9)
    for _ in range(100):
        inst = loose_instance(rng, 30, 80)
        feed(_outputs(inst))
        best = maximum_dcs(inst.graph, inst.bounds)
        feed(None if best is None else sorted(best.edge_set))
    return h.hexdigest()


def test_outputs_match_the_pinned_digest():
    assert _corpus_digest() == DIGEST
