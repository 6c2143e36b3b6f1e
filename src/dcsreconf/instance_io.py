"""Instance file format and certificate serialization.

An instance is a single JSON document:

    {"version": 1,
     "vertices": 4,
     "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
     "a": [0, 0, 0, 0],
     "b": [1, 1, 1, 1],
     "source": [0, 2],
     "target": [1, 3],
     "k": 1}

Edge indices are array positions; source/target list edge indices. Decisions
serialize to {"answer": "yes", "moves": [...]} or {"answer": "no",
"witness": {...}} with move entries {"op": "add"|"remove", "edge": i}.
"""

from __future__ import annotations

import json
from typing import Any

from .core import DegreeBounds, Graph, Instance, Move, Subgraph
from .decider import FIXED_EDGE, LOCKED_ALT_AB_TIGHT_CYCLE, LOCKED_B_TIGHT_CYCLE, Decision, Witness
from .errors import ContractError, InputError
from .trail_type import Trail

FORMAT_VERSION = 1


def _expect(doc: dict, key: str, kind, code: str) -> Any:
    if key not in doc:
        raise InputError(code, f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(code, f"field {key!r} has the wrong type")
    return value


def _int_list(doc: dict, key: str, code: str) -> list[int]:
    value = _expect(doc, key, list, code)
    for item in value:
        if type(item) is not int:
            raise InputError(code, f"field {key!r} must hold integers")
    return value


def parse_instance(text: str) -> Instance:
    """Parse and fully validate an instance document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("malformed-document", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("malformed-document", "top-level value must be an object")
    version = _expect(doc, "version", int, "malformed-document")
    if version != FORMAT_VERSION:
        raise InputError("unsupported-version", f"unknown format version {version}")
    n = _expect(doc, "vertices", int, "malformed-document")
    raw_edges = _expect(doc, "edges", list, "malformed-document")
    # ``json.loads`` makes exact lists and ints, so ``type(...) is`` tests
    # them as ``isinstance`` would, and rules out bools.
    for i, pair in enumerate(raw_edges):
        if (
            type(pair) is not list
            or len(pair) != 2
            or type(pair[0]) is not int
            or type(pair[1]) is not int
        ):
            raise InputError("malformed-document", f"edge {i} must be a pair of vertex ids")
    graph = Graph(n, raw_edges)
    bounds = DegreeBounds(graph, _int_list(doc, "a", "malformed-document"),
                          _int_list(doc, "b", "malformed-document"))
    source = _edge_subset(graph, _int_list(doc, "source", "malformed-document"), "source")
    target = _edge_subset(graph, _int_list(doc, "target", "malformed-document"), "target")
    k = _expect(doc, "k", int, "malformed-document")
    inst = Instance(graph, bounds, source, target, k)
    inst.validate()
    return inst


def _edge_subset(graph: Graph, indices: list[int], which: str) -> Subgraph:
    # Filled in place: ``Subgraph.add`` would repeat both checks per edge.
    sub = Subgraph(graph)
    edge_set, degrees, ends, m = sub.edge_set, sub.degrees, graph.edges, graph.m
    for e in indices:
        if not 0 <= e < m:
            raise InputError("edge-index", f"{which} lists unknown edge index {e}")
        if e in edge_set:
            raise InputError("edge-index", f"{which} lists edge {e} twice")
        edge_set.add(e)
        u, v = ends[e]
        degrees[u] += 1
        degrees[v] += 1
    return sub


def serialize_instance(inst: Instance) -> str:
    """Canonical single-line form; parse -> serialize is a fixpoint on documents."""
    doc = {
        "version": FORMAT_VERSION,
        "vertices": inst.graph.n,
        "edges": [[u, v] for u, v in inst.graph.edges],
        "a": list(inst.bounds.lower),
        "b": list(inst.bounds.upper),
        "source": sorted(inst.source.edge_set),
        "target": sorted(inst.target.edge_set),
        "k": inst.k,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def serialize_decision(decision: Decision) -> str:
    if decision.yes:
        doc = {
            "answer": "yes",
            "moves": [{"op": m.kind, "edge": m.edge} for m in decision.moves],
        }
    else:
        w = decision.witness
        witness: dict[str, Any] = {"kind": w.kind, "context": w.context}
        if w.edge is not None:
            witness["edge"] = w.edge
        if w.cycle is not None:
            witness["cycle-edges"] = list(w.cycle.edges)
            witness["cycle-vertices"] = list(w.cycle.vertices)
        doc = {"answer": "no", "witness": witness}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def parse_decision(text: str) -> Decision:
    """Parse a decision document (used by the verify subcommand and tests)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("malformed-document", f"invalid JSON: {exc}") from exc
    if isinstance(doc, list):
        doc = {"answer": "yes", "moves": doc}
    if not isinstance(doc, dict):
        raise InputError("malformed-document", "decision must be an object or move list")
    if "moves" in doc and doc.get("answer", "yes") == "yes":
        moves = []
        for i, entry in enumerate(_expect(doc, "moves", list, "malformed-document")):
            if not isinstance(entry, dict) or "op" not in entry or "edge" not in entry:
                raise InputError("malformed-document", f"move {i} must have op and edge")
            op = entry["op"]
            if op not in ("add", "remove"):
                raise InputError("malformed-document", f"move {i} has unknown op {op!r}")
            edge = entry["edge"]
            if not isinstance(edge, int) or isinstance(edge, bool):
                raise InputError("malformed-document", f"move {i} has a non-integer edge")
            moves.append(Move(op, edge))
        return Decision.accept(moves)
    if doc.get("answer") == "no":
        w = doc.get("witness")
        if not isinstance(w, dict) or "kind" not in w:
            raise InputError("malformed-document", "no-answer requires a witness object")
        if w["kind"] not in (FIXED_EDGE, LOCKED_B_TIGHT_CYCLE, LOCKED_ALT_AB_TIGHT_CYCLE):
            raise InputError("malformed-document", f"witness has unknown kind {w['kind']!r}")
        edge, context = w.get("edge"), w.get("context", "")
        if edge is not None and type(edge) is not int:
            raise InputError("malformed-document", "witness has a non-integer edge")
        if type(context) is not str:
            raise InputError("malformed-document", "witness context must be a string")
        # A fixed-edge witness names one edge and no cycle, a cycle witness
        # the reverse.
        if w["kind"] == FIXED_EDGE:
            if edge is None or edge < 0:
                raise InputError("malformed-document", "fixed-edge witness needs an edge >= 0")
            if "cycle-edges" in w or "cycle-vertices" in w:
                raise InputError("malformed-document", "fixed-edge witness carries a cycle")
            return Decision.reject(Witness(FIXED_EDGE, edge=edge, context=context))
        if edge is not None:
            raise InputError("malformed-document", "cycle witness carries an edge")
        edges = _int_list(w, "cycle-edges", "malformed-document")
        vertices = _int_list(w, "cycle-vertices", "malformed-document")
        try:
            cycle = Trail(tuple(vertices), tuple(edges))
        except ContractError as exc:
            raise InputError("malformed-document", f"witness cycle: {exc}") from exc
        return Decision.reject(Witness(w["kind"], cycle=cycle, context=context))
    raise InputError("malformed-document", "unrecognized decision document")


def moves_from_text(text: str) -> list[Move]:
    decision = parse_decision(text)
    if not decision.yes:
        raise InputError("malformed-document", "expected a move sequence, got a no-answer")
    return list(decision.moves)
