import json

import pytest

from dcsreconf.core import Move
from dcsreconf.decider import Decision, Witness, decide
from dcsreconf.errors import InputError
from dcsreconf.instance_io import (
    moves_from_text,
    parse_decision,
    parse_instance,
    serialize_decision,
    serialize_instance,
)
from dcsreconf.trail_type import Trail

MINIMAL = {
    "version": 1,
    "vertices": 2,
    "edges": [[0, 1]],
    "a": [0, 0],
    "b": [1, 1],
    "source": [0],
    "target": [0],
    "k": 1,
}


def doc(**overrides):
    out = dict(MINIMAL)
    out.update(overrides)
    return json.dumps(out)


def test_minimal_document_parses():
    inst = parse_instance(doc())
    assert inst.graph.n == 2 and inst.graph.m == 1
    assert inst.source.edge_set == {0} and inst.k == 1


def test_round_trip_is_stable():
    text = serialize_instance(parse_instance(doc()))
    again = serialize_instance(parse_instance(text))
    assert text == again


def test_error_codes():
    with pytest.raises(InputError) as e:
        parse_instance("{not json")
    assert e.value.code == "malformed-document"
    with pytest.raises(InputError) as e:
        parse_instance("[]")
    assert e.value.code == "malformed-document"
    with pytest.raises(InputError) as e:
        parse_instance(doc(a=[2, 0], b=[1, 1]))
    assert e.value.code == "bound-order"
    with pytest.raises(InputError) as e:
        parse_instance(doc(b=[2, 1]))
    assert e.value.code == "bound-degree"
    with pytest.raises(InputError) as e:
        parse_instance(doc(vertices=3, edges=[[0, 1], [1, 1]], a=[0, 0, 0], b=[1, 2, 0]))
    assert e.value.code == "edge-selfloop"
    with pytest.raises(InputError) as e:
        parse_instance(doc(source=[5]))
    assert e.value.code == "edge-index"
    with pytest.raises(InputError) as e:
        parse_instance(doc(source=[0, 0]))
    assert e.value.code == "edge-index"
    with pytest.raises(InputError) as e:
        parse_instance(doc(k=0))
    assert e.value.code == "slack"
    with pytest.raises(InputError) as e:
        parse_instance(doc(version=9))
    assert e.value.code == "unsupported-version"


def test_infeasible_endpoints_have_distinct_codes():
    bad_source = doc(
        vertices=3,
        edges=[[0, 1], [1, 2]],
        a=[0, 0, 0],
        b=[1, 1, 1],
        source=[0, 1],
        target=[0],
    )
    with pytest.raises(InputError) as e:
        parse_instance(bad_source)
    assert e.value.code == "infeasible-source"
    bad_target = doc(
        vertices=3,
        edges=[[0, 1], [1, 2]],
        a=[0, 0, 0],
        b=[1, 1, 1],
        source=[0],
        target=[0, 1],
    )
    with pytest.raises(InputError) as e:
        parse_instance(bad_target)
    assert e.value.code == "infeasible-target"


def test_decision_serialization_shapes():
    yes = Decision.accept([Move("add", 1), Move("remove", 0)])
    parsed = json.loads(serialize_decision(yes))
    assert parsed == {
        "answer": "yes",
        "moves": [{"op": "add", "edge": 1}, {"op": "remove", "edge": 0}],
    }
    no = Decision.reject(
        Witness("locked-btight-cycle", cycle=Trail((0, 1, 2, 3, 0), (0, 1, 2, 3)))
    )
    parsed = json.loads(serialize_decision(no))
    assert parsed["answer"] == "no"
    assert parsed["witness"]["kind"] == "locked-btight-cycle"
    assert parsed["witness"]["cycle-edges"] == [0, 1, 2, 3]


def test_decision_round_trip():
    yes = Decision.accept([Move("add", 1)])
    assert parse_decision(serialize_decision(yes)) == yes
    moves = moves_from_text('[{"op": "add", "edge": 3}]')
    assert moves == [Move("add", 3)]
    with pytest.raises(InputError):
        moves_from_text('{"answer": "no", "witness": {"kind": "fixed-edge"}}')


@pytest.mark.parametrize(
    "witness, message",
    [
        ({"kind": "stuck"}, "witness has unknown kind 'stuck'"),
        ({"kind": "fixed-edge", "edge": "x"}, "witness has a non-integer edge"),
        ({"kind": "fixed-edge", "edge": True}, "witness has a non-integer edge"),
        ({"kind": "fixed-edge", "edge": 0, "context": [1]}, "witness context must be a string"),
        ({"kind": "fixed-edge"}, "fixed-edge witness needs an edge >= 0"),
        ({"kind": "fixed-edge", "edge": -5}, "fixed-edge witness needs an edge >= 0"),
        (
            {"kind": "fixed-edge", "edge": 0, "cycle-edges": [0, 1], "cycle-vertices": [0, 1, 0]},
            "fixed-edge witness carries a cycle",
        ),
        ({"kind": "locked-btight-cycle"}, "missing field 'cycle-edges'"),
        ({"kind": "locked-alt-abtight-cycle"}, "missing field 'cycle-edges'"),
        (
            {"kind": "locked-btight-cycle", "cycle-vertices": [0, 1, 2, 3, 0]},
            "missing field 'cycle-edges'",
        ),
        (
            {
                "kind": "locked-alt-abtight-cycle",
                "edge": 0,
                "cycle-edges": [0, 1, 2, 3],
                "cycle-vertices": [0, 1, 2, 3, 0],
            },
            "cycle witness carries an edge",
        ),
    ],
    ids=[
        "unknown-kind",
        "string-edge",
        "bool-edge",
        "list-context",
        "fixed-edge-without-edge",
        "negative-edge",
        "fixed-edge-with-cycle",
        "btight-without-cycle",
        "alt-without-cycle",
        "vertices-without-edges",
        "cycle-with-edge",
    ],
)
def test_malformed_witnesses_are_rejected(witness, message):
    with pytest.raises(InputError) as e:
        parse_decision(json.dumps({"answer": "no", "witness": witness}))
    assert (e.value.code, str(e.value)) == ("malformed-document", f"malformed-document: {message}")


@pytest.mark.parametrize(
    "witness",
    [
        Witness("fixed-edge", edge=3, context="frozen"),
        Witness("locked-btight-cycle", cycle=Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))),
        Witness("locked-alt-abtight-cycle", cycle=Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))),
    ],
    ids=lambda w: w.kind,
)
def test_witnesses_of_every_kind_round_trip(witness):
    no = Decision.reject(witness)
    assert parse_decision(serialize_decision(no)) == no


def test_decide_output_parses_back():
    text = serialize_instance(parse_instance(doc(target=[])))
    inst = parse_instance(text)
    decision = decide(inst)
    parsed = parse_decision(serialize_decision(decision))
    assert parsed.yes == decision.yes


@pytest.mark.parametrize(
    "bad_pair",
    [[0, True], [False, 1], [0.0, 1], [0, 1.5], [0, 1, 2], [0], []]
    + ["01", {"u": 0, "v": 1}, 7, None],
)
def test_malformed_edge_pairs_are_rejected(bad_pair):
    """Every edge must be a two-element list of ints (bools are not ints
    here), and the shape of every pair is checked before any endpoint: edge
    1's out-of-range endpoint is not reported."""
    text = doc(vertices=3, edges=[[0, 1], [0, 9], bad_pair], a=[0, 0, 0], b=[1, 1, 0])
    with pytest.raises(InputError) as e:
        parse_instance(text)
    assert e.value.code == "malformed-document"
    assert str(e.value) == "malformed-document: edge 2 must be a pair of vertex ids"


def test_edge_errors_name_the_first_bad_edge():
    base = dict(vertices=3, a=[0, 0, 0], b=[0, 0, 0], source=[], target=[])
    cases = [
        ([[0, 1], [2, 3], [1, 1]], "edge-endpoint", "edge 1 endpoint out of range: (2, 3)"),
        ([[0, 1], [-1, 2]], "edge-endpoint", "edge 1 endpoint out of range: (-1, 2)"),
        ([[0, 1], [2, 2], [1, 0]], "edge-selfloop", "edge 1 is a self-loop at 2"),
        ([[2, 1], [0, 2], [1, 2]], "edge-parallel", "edge 2 duplicates (1, 2)"),
    ]
    for edges, code, message in cases:
        with pytest.raises(InputError) as e:
            parse_instance(doc(edges=edges, **base))
        assert (e.value.code, str(e.value)) == (code, f"{code}: {message}")
    with pytest.raises(InputError) as e:
        parse_instance(doc(a=[0, False]))
    assert (e.value.code, str(e.value)) == (
        "malformed-document", "malformed-document: field 'a' must hold integers"
    )


@pytest.mark.parametrize(
    "text",
    [
        "{",
        "5",
        json.dumps([{"edge": 1}]),
        json.dumps([{"op": "add"}]),
        json.dumps([{"op": "flip", "edge": 0}]),
        json.dumps([{"op": "add", "edge": "0"}]),
        json.dumps({"answer": "no"}),
        json.dumps(
            {
                "answer": "no",
                "witness": {
                    "kind": "locked-btight-cycle",
                    "cycle-edges": [0, 0],
                    "cycle-vertices": [0, 1, 0],
                },
            }
        ),
        json.dumps({"answer": "maybe"}),
    ],
    ids=[
        "invalid-json",
        "scalar",
        "move-without-op",
        "move-without-edge",
        "flip-op",
        "string-edge",
        "no-without-witness",
        "cycle-with-repeated-edge",
        "unknown-answer",
    ],
)
def test_malformed_decisions_are_rejected(text):
    with pytest.raises(InputError) as e:
        parse_decision(text)
    assert e.value.code == "malformed-document"
