"""Command-line surface.

Exit codes: 0 = yes/valid, 1 = no/invalid, 2 = error. Results go to stdout
as JSON; diagnostics and traces go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import Instance, verify_move_sequence
from .decider import alternating_trail_decomposition, decide, decide_with_trace
from .errors import InputError
from .instance_io import moves_from_text, parse_instance, serialize_decision
from .obstructions import m_fixed_subgraph
from .oracle import oracle_decide
from .solver import maximum_dcs


def _load(path: str) -> Instance:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError("io", f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def _cmd_decide(args) -> int:
    inst = _load(args.instance)
    if args.trace:
        decision, trace = decide_with_trace(inst)
        for entry in trace:
            print(
                f"trail={list(entry.trail.edges)} class={entry.trail_class} "
                f"rule={entry.rule} moves={entry.moves}",
                file=sys.stderr,
            )
    else:
        decision = decide(inst)
    sys.stdout.write(serialize_decision(decision))
    return 0 if decision.yes else 1


def _cmd_verify(args) -> int:
    inst = _load(args.instance)
    try:
        moves = moves_from_text(Path(args.moves).read_text())
    except OSError as exc:
        raise InputError("io", f"cannot read {args.moves}: {exc}") from exc
    result = verify_move_sequence(inst, moves)
    if result.ok:
        print(json.dumps({"valid": True}))
        return 0
    print(json.dumps({"valid": False, "step": result.step, "reason": result.reason}))
    return 1


def _cmd_oracle(args) -> int:
    inst = _load(args.instance)
    answer = oracle_decide(inst)
    print(json.dumps({"answer": "yes" if answer else "no"}))
    return 0 if answer else 1


def _cmd_maxdcs(args) -> int:
    inst = _load(args.instance)
    best = maximum_dcs(inst.graph, inst.bounds)
    if best is None:
        print(json.dumps({"feasible": False}))
    else:
        print(json.dumps({"feasible": True, "size": len(best), "edges": sorted(best.edge_set)}))
    return 0


def _cmd_fixed(args) -> int:
    inst = _load(args.instance)
    fixed = m_fixed_subgraph(inst.graph, inst.bounds, inst.source)
    print(json.dumps({"edges": sorted(fixed.edge_set)}))
    return 0


def _cmd_decompose(args) -> int:
    inst = _load(args.instance)
    peeled = []
    if inst.source != inst.target:
        peeled = alternating_trail_decomposition(inst.graph, inst.bounds, inst.source, inst.target)
    entries = [
        {"edges": list(trail.edges), "vertices": list(trail.vertices), "class": cls.value}
        for trail, cls in peeled
    ]
    print(json.dumps({"trails": entries}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcsreconf",
        description="Decide degree-constrained subgraph reconfiguration instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide an instance (exit 0 yes, 1 no)")
    p.add_argument("instance")
    p.add_argument("--trace", action="store_true", help="log per-trail processing to stderr")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("verify", help="check a move sequence against an instance")
    p.add_argument("instance")
    p.add_argument("moves")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive decision on small instances")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("maxdcs", help="maximum feasible subgraph of the instance's graph")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_maxdcs)

    p = sub.add_parser("fixed", help="edges that can never change from the source")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_fixed)

    p = sub.add_parser("decompose", help="alternating-trail decomposition with classes")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_decompose)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
