import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsreconf.core import (
    ADD,
    REMOVE,
    DegreeBounds,
    Graph,
    Instance,
    Move,
    Subgraph,
    apply_move,
    is_ab_constrained,
    reversed_moves,
    verify_move_sequence,
)
from dcsreconf.errors import IllegalMoveError, InputError

from helpers import bounds, cycle_graph, graph, inst, path_graph, sub


def test_graph_rejects_self_loops_and_parallels():
    with pytest.raises(InputError):
        Graph(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 2)])


def test_bounds_validation():
    g = path_graph(3)
    with pytest.raises(InputError):
        DegreeBounds(g, [2, 0, 0], [1, 2, 1])  # lower above upper
    with pytest.raises(InputError):
        DegreeBounds(g, [0, 0, 0], [2, 2, 2])  # upper above degree at ends
    with pytest.raises(InputError):
        DegreeBounds(g, [-1, 0, 0], [1, 2, 1])


def test_is_ab_constrained_examples():
    g = cycle_graph(4)
    assert is_ab_constrained(sub(g), bounds(g, 0, 1))
    assert not is_ab_constrained(sub(g), bounds(g, [1, 0, 0, 0], 1))
    assert is_ab_constrained(sub(g, [0, 2]), bounds(g, 0, 1))


def test_apply_move_examples():
    g = path_graph(2)
    s = sub(g)
    apply_move(s, Move(ADD, 0))
    assert s.edge_set == {0}
    apply_move(s, Move(REMOVE, 0))
    assert s.edge_set == set()
    apply_move(s, Move(ADD, 0))
    with pytest.raises(IllegalMoveError):
        apply_move(s, Move(ADD, 0))


def test_verify_empty_sequence_when_equal():
    g = cycle_graph(4)
    i = inst(g, bounds(g, 0, 1), [0, 2], [0, 2], 1)
    assert verify_move_sequence(i, [])


def test_verify_detects_floor_violation():
    # swapping the two matchings of a 4-cycle by removing both edges first
    # dips to size 0, below the slack-1 floor of 1, but passes at slack 2
    g = cycle_graph(4)
    seq = [Move(REMOVE, 0), Move(REMOVE, 2), Move(ADD, 1), Move(ADD, 3)]
    tight = inst(g, bounds(g, 0, 1), [0, 2], [1, 3], 1)
    res = verify_move_sequence(tight, seq)
    assert not res.ok
    assert res.step == 1
    assert "floor" in res.reason
    loose = inst(g, bounds(g, 0, 1), [0, 2], [1, 3], 2)
    assert verify_move_sequence(loose, seq)


def test_verify_detects_bound_violation_and_wrong_target():
    g = path_graph(3)
    b = bounds(g, 0, 1)
    i = inst(g, b, [0], [1], 1)
    res = verify_move_sequence(i, [Move(ADD, 1), Move(REMOVE, 0)])
    assert not res.ok and res.step == 0 and "degree" in res.reason
    res2 = verify_move_sequence(i, [Move(REMOVE, 0)])
    assert not res2.ok and "target" in res2.reason
    res3 = verify_move_sequence(i, [Move(REMOVE, 1)])
    assert not res3.ok and "illegal" in res3.reason


def test_instance_validation():
    g = path_graph(3)
    b = bounds(g, 0, 1)
    with pytest.raises(InputError):
        inst(g, b, [0], [1], 0)
    with pytest.raises(InputError):
        Instance(g, b, sub(g, [0, 1]), sub(g, [0]), 1).validate()


_small_edge_sets = st.sets(st.integers(min_value=0, max_value=5), max_size=6)


@given(_small_edge_sets)
@settings(max_examples=50)
def test_degree_sum_is_twice_edges(xs):
    g = graph(6, [(i, (i + 1) % 6) for i in range(6)])
    s = sub(g, xs)
    assert sum(s.degrees) == 2 * len(s)


@given(_small_edge_sets, st.integers(min_value=0, max_value=5))
@settings(max_examples=50)
def test_apply_move_then_inverse_restores(xs, e):
    g = graph(6, [(i, (i + 1) % 6) for i in range(6)])
    s = sub(g, xs)
    before = set(s.edge_set)
    move = Move(REMOVE if e in s else ADD, e)
    apply_move(s, move)
    apply_move(s, move.inverse())
    assert s.edge_set == before


def test_accepted_sequences_have_feasible_prefixes():
    # independent re-check: replay accepted sequences and test feasibility
    # of every prefix state from scratch
    g = cycle_graph(4)
    b = bounds(g, 0, 1)
    i = inst(g, b, [0, 2], [1, 3], 2)
    seq = [Move(REMOVE, 0), Move(REMOVE, 2), Move(ADD, 1), Move(ADD, 3)]
    assert verify_move_sequence(i, seq)
    state = i.source.copy()
    for m in seq:
        apply_move(state, m)
        assert is_ab_constrained(state, b)


def test_reversed_moves_round_trip():
    g = cycle_graph(4)
    seq = [Move(REMOVE, 0), Move(ADD, 1)]
    back = reversed_moves(seq)
    assert back == [Move(REMOVE, 1), Move(ADD, 0)]
    s = sub(g, [0, 2])
    for m in seq + back:
        apply_move(s, m)
    assert s == sub(g, [0, 2])


def source_on_another_host():
    g = path_graph(3)
    Instance(g, bounds(g, 0, 1), sub(path_graph(3)), sub(g), 1).validate()


@pytest.mark.parametrize(
    "make, code",
    [
        (lambda: Graph(-1, []), "vertex-count"),
        (lambda: DegreeBounds(path_graph(3), [0, 0], [1, 1]), "bound-length"),
        (lambda: Subgraph(path_graph(3), [5]), "edge-index"),  # two edges
        (source_on_another_host, "host-mismatch"),
        (lambda: apply_move(sub(path_graph(3)), Move("flip", 0)), "move-kind"),
        (lambda: path_graph(3).other_end(0, 2), "edge-endpoint"),
    ],
    ids=["vertex-count", "bound-length", "edge-index", "host-mismatch", "move-kind", "endpoint"],
)
def test_input_rejections_carry_their_code(make, code):
    with pytest.raises(InputError) as e:
        make()
    assert e.value.code == code
