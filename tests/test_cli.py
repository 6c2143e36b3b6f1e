import json
import random

from dcsreconf.cli import main
from dcsreconf.decider import alternating_trail_decomposition
from dcsreconf.instance_io import serialize_instance
from dcsreconf.core import DegreeBounds, Instance, Subgraph
from dcsreconf.trail_type import Trail
from dcsreconf.trails import classify_trail

from helpers import (
    bounds,
    cycle_graph,
    graph,
    inst,
    loose_instance,
    path_graph,
    random_bounds_instance,
)


def write_instance(tmp_path, instance, name="instance.json"):
    p = tmp_path / name
    p.write_text(serialize_instance(instance))
    return str(p)


def cycle_swap(k):
    g = cycle_graph(4)
    return inst(g, bounds(g, 0, 1), [0, 2], [1, 3], k)


def test_decide_yes_exit_zero(tmp_path, capsys):
    path = write_instance(tmp_path, cycle_swap(2))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] == "yes" and len(out["moves"]) == 4


def test_decide_no_exit_one(tmp_path, capsys):
    path = write_instance(tmp_path, cycle_swap(1))
    assert main(["decide", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] == "no"
    assert out["witness"]["kind"] == "locked-btight-cycle"


def test_decide_trace_goes_to_stderr(tmp_path, capsys):
    path = write_instance(tmp_path, cycle_swap(2))
    assert main(["decide", "--trace", path]) == 0
    captured = capsys.readouterr()
    assert "rule=" in captured.err
    assert json.loads(captured.out)["answer"] == "yes"


def test_decide_error_exit_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{")
    assert main(["decide", str(p)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["decide", str(tmp_path / "missing.json")]) == 2


def test_verify_accepts_decider_output(tmp_path, capsys):
    path = write_instance(tmp_path, cycle_swap(2))
    main(["decide", path])
    moves = capsys.readouterr().out
    mp = tmp_path / "moves.json"
    mp.write_text(moves)
    assert main(["verify", path, str(mp)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_verify_rejects_wrong_sequence(tmp_path, capsys):
    path = write_instance(tmp_path, cycle_swap(1))
    mp = tmp_path / "moves.json"
    mp.write_text(json.dumps([{"op": "remove", "edge": 0}]))
    assert main(["verify", path, str(mp)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False and "target" in report["reason"]


def test_verify_rejects_malformed_move_files(tmp_path, capsys):
    path = write_instance(tmp_path, cycle_swap(1))
    malformed = [
        {"moves": 5},
        {"answer": "no", "witness": {"kind": "locked-btight-cycle", "cycle-edges": 5}},
        {"answer": "no", "witness": {"kind": "locked-btight-cycle", "cycle-edges": [0, 1, 2, 3]}},
    ]
    for doc in malformed:
        mp = tmp_path / "moves.json"
        mp.write_text(json.dumps(doc))
        assert main(["verify", path, str(mp)]) == 2
        assert "error: malformed-document" in capsys.readouterr().err


def test_oracle_command(tmp_path, capsys):
    assert main(["oracle", write_instance(tmp_path, cycle_swap(2))]) == 0
    assert json.loads(capsys.readouterr().out)["answer"] == "yes"
    assert main(["oracle", write_instance(tmp_path, cycle_swap(1))]) == 1
    capsys.readouterr()


def test_oracle_refuses_large_instance(tmp_path, capsys):
    g = path_graph(18)
    big = inst(g, bounds(g, 0, 1), [], [], 1)
    assert main(["oracle", write_instance(tmp_path, big)]) == 2
    assert "cap" in capsys.readouterr().err


def test_maxdcs_command(tmp_path, capsys):
    assert main(["maxdcs", write_instance(tmp_path, cycle_swap(1))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasible"] is True and out["size"] == 2


def test_fixed_command(tmp_path, capsys):
    g = path_graph(3)
    b = DegreeBounds(g, [0, 1, 0], [1, 1, 1])
    i = Instance(g, b, Subgraph(g, [0]), Subgraph(g, [0]), 1)
    assert main(["fixed", write_instance(tmp_path, i)]) == 0
    assert json.loads(capsys.readouterr().out)["edges"] == [0, 1]


def test_decompose_command(tmp_path, capsys):
    assert main(["decompose", write_instance(tmp_path, cycle_swap(2))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["trails"]) == 1
    assert out["trails"][0]["class"] == "b-tight-cycle"
    assert sorted(out["trails"][0]["edges"]) == [0, 1, 2, 3]


def test_decompose_equal_endpoints(tmp_path, capsys):
    g = path_graph(2)
    i = inst(g, bounds(g, 0, 1), [0], [0], 1)
    assert main(["decompose", write_instance(tmp_path, i)]) == 0
    assert json.loads(capsys.readouterr().out)["trails"] == []


def _peel_state_cases():
    """A hand-made case first: the growing pendant edge (0, 4) fills vertex
    0, which makes the four-cycle upper-tight only after it is flipped. Then
    random-bounds and loose instances with three or more trails of more than
    one class (a class in the source differs from the peel state's in about
    1 of 1,000 random-bounds instances, and never in loose ones)."""
    g = graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (5, 6)])
    yield inst(g, DegreeBounds(g, [0] * 7, [2, 1, 1, 1, 1, 1, 1]), [0, 2, 5], [1, 3, 4], 1)
    rng = random.Random(17)
    for make in (
        lambda: random_bounds_instance(rng),
        lambda: loose_instance(rng, 12, rng.randint(30, 60)),
    ):
        found = 0
        while found < 10:
            i = make()
            if i.source == i.target:
                continue
            peeled = alternating_trail_decomposition(i.graph, i.bounds, i.source, i.target)
            if len(peeled) >= 3 and len({cls for _, cls in peeled}) >= 2:
                found += 1
                yield i


def test_decompose_classes_come_from_the_peel_state(tmp_path, capsys):
    """Each printed class is the trail's class in the state it was peeled
    from, the source with every earlier trail flipped, and not in the source."""
    not_source_class = 0
    for i in _peel_state_cases():
        assert main(["decompose", write_instance(tmp_path, i)]) == 0
        entries = json.loads(capsys.readouterr().out)["trails"]
        assert len(entries) >= 3 and len({entry["class"] for entry in entries}) >= 2
        state = i.source.copy()
        for entry in entries:
            trail = Trail(tuple(entry["vertices"]), tuple(entry["edges"]))
            assert entry["class"] == classify_trail(trail, state.copy(), i.bounds).value
            not_source_class += entry["class"] != classify_trail(trail, i.source, i.bounds).value
            state.flip(trail.edges)
        assert state == i.target
    assert not_source_class > 0


def test_decide_long_path_exits_zero(tmp_path, capsys):
    g = path_graph(1001)
    i = inst(g, bounds(g, 0, 1), range(0, 1000, 2), range(1, 1000, 2), 1)
    assert main(["decide", write_instance(tmp_path, i)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] == "yes"


def test_verify_reports_an_unreadable_moves_file(tmp_path, capsys):
    path = write_instance(tmp_path, cycle_swap(1))
    assert main(["verify", path, str(tmp_path / "missing.json")]) == 2
    assert "error: io:" in capsys.readouterr().err
