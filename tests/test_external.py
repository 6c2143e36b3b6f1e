import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcsreconf.augmenting import Ends, Gadget
from dcsreconf.core import (
    DegreeBounds,
    Graph,
    Instance,
    Subgraph,
    is_ab_constrained,
    verify_move_sequence,
)
from dcsreconf.decider import decide
from dcsreconf.errors import ContractError, LockedCycleError
from dcsreconf.external import (
    _alt_cycle,
    _btight_cycle,
    _escape_trail,
    exists_unlocking_subgraph,
)
from dcsreconf.obstructions import m_fixed_subgraph
from dcsreconf.oracle import oracle_decide, oracle_min_k
from dcsreconf.trail_type import Trail, alternates
from dcsreconf.trails import is_alternatingly_ab_tight

from helpers import (
    bounds,
    brute_below_upper_in_some_maximum,
    compute_even_set,
    cycle_graph,
    feasible_subsets,
    flipped,
    graph,
    graphs_up_to_iso,
    on_copy,
    path_graph,
    random_bounds,
    random_connected_graph,
    sub,
    unlocking_trail_by_fresh_gadget,
)


def square_trail():
    return Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))


def btight_moves(trail, current, b):
    """``_btight_cycle``'s moves on a copy, with the whole-host gadget and
    ``Ends`` that ``decide`` keeps between maximum subgraphs."""
    g = current.graph
    gadget = Gadget(g, g.edge_ids, current.edge_set)
    return on_copy(_btight_cycle, trail, current, b, gadget=gadget, ends=Ends(current, b))


def unlock(cycle, current, b):
    """``exists_unlocking_subgraph`` on a whole-host gadget and ``Ends``
    around ``current``. The gadget must come back with every port in place,
    and the trail must be the one a fresh gadget over the off-cycle edges
    finds."""
    g = current.graph
    gadget = Gadget(g, g.edge_ids, current.edge_set)
    ports = [list(map(list, at)) for at in (gadget.inside_at, gadget.outside_at)]
    found = exists_unlocking_subgraph(cycle, current, b, gadget, Ends(current, b))
    assert [gadget.inside_at, gadget.outside_at] == ports
    assert gadget.index == {e: j for j, e in enumerate(gadget.edges)}
    assert found == unlocking_trail_by_fresh_gadget(cycle, current, g, b)
    return found


def test_even_set_empty_for_saturated_cycle():
    g = cycle_graph(4)
    members = compute_even_set(g, bounds(g, 0, 1), sub(g, [0, 2]))
    assert not members.members


def test_even_set_on_path():
    # p-q-r with the left edge current: p escapes over q to r; q has no
    # escape; r sits below its cap and counts via the empty trail
    g = path_graph(3)
    members = compute_even_set(g, bounds(g, 0, 1), sub(g, [0]))
    assert 0 in members
    assert 1 not in members
    assert 2 in members


def test_even_set_of_empty_subgraph_is_everyone_with_capacity():
    g = path_graph(4)
    b = DegreeBounds(g, [0] * 4, [1, 0, 1, 1])
    members = compute_even_set(g, b, sub(g))
    assert members.members == {0, 2, 3}


def test_even_set_matches_brute_force_for_maximum_subgraphs():
    # for a maximum subgraph the set equals the vertices left below their cap
    # by some maximum subgraph, computed here by exhaustive enumeration
    rng = random.Random(61)
    agreements = 0
    for n in (2, 3, 4, 5):
        for g in graphs_up_to_iso(n, connected_only=False):
            if g.m == 0:
                continue
            for _ in range(3):
                b = random_bounds(rng, g)
                states = feasible_subsets(g, b)
                if not states:
                    continue
                best = max(len(s) for s in states)
                want = brute_below_upper_in_some_maximum(g, b)
                for s in states:
                    if len(s) != best:
                        continue
                    got = compute_even_set(g, b, s)
                    assert got.members == want
                    agreements += 1
    assert agreements > 100


def test_btight_cycle_with_pendant_escape():
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    b = bounds(g, 0, 1)
    current = sub(g, [0, 2])
    moves = btight_moves(square_trail(), current, b)
    assert len(moves) >= 4  # the cycle itself plus the escape detour
    i = Instance(g, b, current, sub(g, [1, 3]), 1)
    assert verify_move_sequence(i, moves)
    assert oracle_min_k(g, b, current, sub(g, [1, 3])) == 1


def test_btight_cycle_locked_when_isolated():
    g = cycle_graph(4)
    b = bounds(g, 0, 1)
    current = sub(g, [0, 2])
    with pytest.raises(LockedCycleError):
        btight_moves(square_trail(), current, b)
    assert oracle_min_k(g, b, sub(g, [0, 2]), sub(g, [1, 3])) == 2


def test_btight_cycle_rejects_vertex_below_cap():
    g = cycle_graph(4)
    b = DegreeBounds(g, [0] * 4, [1, 2, 1, 1])
    current = sub(g, [0, 2])
    with pytest.raises(ContractError):
        btight_moves(square_trail(), current, b)


def test_btight_cycle_with_escape_reentering_the_cycle(monkeypatch):
    # a hand-crafted escape that rides along a non-current cycle edge before
    # leaving; the handler must restart its sweep from the clean suffix
    import dcsreconf.external as ext

    g = graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)])
    b = DegreeBounds(g, [0] * 6, [1, 1, 2, 1, 1, 1])
    current = sub(g, [0, 2, 4])
    crafted = Trail((0, 1, 2, 4, 5), (0, 1, 4, 5))
    monkeypatch.setattr(ext, "_escape_trail", lambda *args: crafted)
    moves = btight_moves(square_trail(), current, b)
    target = sub(g, [1, 3, 4])
    i = Instance(g, b, current, target, 1)
    assert verify_move_sequence(i, moves)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_forward_escape_exists_iff_the_backward_search_finds_one(rng):
    """The escape searched forward from the candidates exists exactly when a
    search from the slack vertices back to them finds one, and it is an even
    trail that leaves a candidate over a current edge and ends at slack."""
    n = rng.randint(3, 8)
    g = random_connected_graph(rng, n, rng.randint(n - 1, 12))
    b = random_bounds(rng, g)
    states = feasible_subsets(g, b)
    assume(states)
    current = rng.choice(states)
    candidates = set(rng.sample(range(n), rng.randint(1, n)))
    ends = Ends(current, b)
    escape = _escape_trail(candidates, Gadget(g, g.edge_ids, current.edge_set), ends)
    goals = {v for v in candidates if current.degrees[v] > b.lower[v]}
    slack = {v for v in range(n) if current.degrees[v] < b.upper[v]}
    backward = Gadget(g, g.edge_ids, current.edge_set).search(slack, set(), goals)
    assert (escape is None) == (backward is None)
    if escape is not None:
        assert escape.vertices[0] in goals and escape.vertices[-1] in slack
        assert len(escape) % 2 == 0 and escape.edges[0] in current
        assert alternates(escape, current)


def alt_tight_bounds(g):
    return DegreeBounds(
        g, [1, 0, 1, 0] + [0] * (g.n - 4), [2, 1, 2, 1] + [1] * (g.n - 4)
    )


def test_unlocking_subgraph_absent_for_isolated_cycle():
    g = cycle_graph(4)
    assert unlock(square_trail(), sub(g, [0, 2]), alt_tight_bounds(g)) is None


def test_unlocking_subgraph_found_with_pendant():
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)])
    b = alt_tight_bounds(g)
    current = sub(g, [0, 2])
    bridge = unlock(square_trail(), current, b)
    assert bridge is not None
    unlocked = flipped(current, bridge)
    assert is_ab_constrained(unlocked, b)
    assert unlocked.edge_set & set(square_trail().edges) == current.edge_set
    assert not is_alternatingly_ab_tight(square_trail(), unlocked, b)


def test_unlocking_subgraph_rejects_untight_cycle():
    g = cycle_graph(4)
    with pytest.raises(ContractError):
        unlock(square_trail(), sub(g, [0, 2]), bounds(g, 0, [2, 2, 2, 2]))


def test_alt_cycle_reconfiguration_with_pendant():
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)])
    b = alt_tight_bounds(g)
    current = sub(g, [0, 2])
    unlocked = unlock(square_trail(), current, b)
    moves = on_copy(_alt_cycle, square_trail(), current, unlocked, b)
    i = Instance(g, b, current, sub(g, [1, 3]), 1)
    assert verify_move_sequence(i, moves)
    assert oracle_min_k(g, b, current, sub(g, [1, 3])) == 1


def test_alt_cycle_unlocked_by_shedding_an_outside_edge():
    # v1 is upper-tight only because of a pendant current edge; the unlocking
    # subgraph drops it, so the bridge is a single current edge (odd)
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)])
    b = DegreeBounds(g, [1, 0, 1, 0, 0], [2, 2, 2, 1, 1])
    current = sub(g, [0, 2, 4])
    unlocked = unlock(square_trail(), current, b)
    assert unlocked is not None
    moves = on_copy(_alt_cycle, square_trail(), current, unlocked, b)
    target = sub(g, [1, 3, 4])
    i = Instance(g, b, current, target, 1)
    assert verify_move_sequence(i, moves)
    assert oracle_min_k(g, b, current, target) == 1


def test_alt_cycle_unlocked_through_even_bridge():
    # shedding the pendant at v1 requires first covering v4 elsewhere, so the
    # bridge between the subgraphs has two edges
    g = graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5)])
    b = DegreeBounds(g, [1, 0, 1, 0, 1, 0], [2, 2, 2, 1, 2, 1])
    current = sub(g, [0, 2, 4])
    unlocked = unlock(square_trail(), current, b)
    assert unlocked is not None
    moves = on_copy(_alt_cycle, square_trail(), current, unlocked, b)
    target = sub(g, [1, 3, 4])
    i = Instance(g, b, current, target, 1)
    assert verify_move_sequence(i, moves)
    assert oracle_min_k(g, b, current, target) == 1


def test_alt_cycle_unlocked_by_gaining_through_a_chain():
    # v0 can only rise above its lower bound by taking the chain edge whose
    # far support must be dropped first (even bridge on the gaining side)
    g = graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
    b = DegreeBounds(g, [1, 0, 1, 0, 0, 0], [2, 1, 2, 1, 1, 1])
    current = sub(g, [0, 2, 5])
    unlocked = unlock(square_trail(), current, b)
    assert unlocked is not None
    moves = on_copy(_alt_cycle, square_trail(), current, unlocked, b)
    target = sub(g, [1, 3, 5])
    i = Instance(g, b, current, target, 1)
    assert verify_move_sequence(i, moves)
    assert oracle_min_k(g, b, current, target) == 1


def planted_alt_cycle(rng):
    """An alternately tight 4- or 6-edge cycle in a host of at most 12 edges.

    The current subgraph alternates on the cycle; a-role cycle vertices sit at
    their lower bound, b-role ones at their upper bound, and every other vertex
    is tight on one side, so that bridges are not always single edges.
    """
    length = rng.choice([4, 6])
    n = length + rng.randint(0, 4)
    label = list(range(n))
    rng.shuffle(label)
    ring = [(label[i], label[(i + 1) % length]) for i in range(length)]
    taken = {frozenset(p) for p in ring}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if {u, v} not in taken]
    pairs = ring + rng.sample(others, min(len(others), rng.randint(2, 12 - length)))
    order = list(range(len(pairs)))
    rng.shuffle(order)
    g = Graph(n, [pairs[j] for j in order])
    index = {j: i for i, j in enumerate(order)}
    cycle = Trail(
        tuple(label[i % length] for i in range(length + 1)),
        tuple(index[i] for i in range(length)),
    )
    inside = [index[i] for i in range(0, length, 2)]
    inside += [index[j] for j in range(length, len(pairs)) if rng.random() < 0.5]
    current = sub(g, inside)
    a_parity = rng.randint(0, 1)
    lower, upper = [], []
    for v in range(n):
        d, deg = current.degrees[v], g.degree[v]
        position = label.index(v)
        if position < length:
            at_lower = position % 2 == a_parity
        else:
            at_lower = d < deg and (d == 0 or rng.random() < 0.5)
        if at_lower:
            lower.append(d)
            upper.append(rng.randint(min(d + 1, deg), deg))
        else:
            lower.append(rng.randint(0, max(d - 1, 0)))
            upper.append(d)
    return g, DegreeBounds(g, lower, upper), cycle, current


@settings(max_examples=250, deadline=None)
@given(st.randoms(use_true_random=False))
def test_unlocking_trail_exists_iff_brute_force_finds_an_unlocking_subgraph(rng):
    g, b, cycle, current = planted_alt_cycle(rng)
    # decide never hands the worker a pinned vertex: it switches fixed edges off
    assume(not m_fixed_subgraph(g, b, current).edge_set)
    assert is_alternatingly_ab_tight(cycle, current, b)
    on_cycle = set(cycle.edges)
    off = [e for e in range(g.m) if e not in on_cycle]
    kept = [e for e in cycle.edges if e in current]
    unlockable = False
    for mask in range(1 << len(off)):
        y = sub(g, kept + [e for i, e in enumerate(off) if mask >> i & 1])
        if is_ab_constrained(y, b) and not is_alternatingly_ab_tight(cycle, y, b):
            unlockable = True
            break
    bridge = unlock(cycle, current, b)
    assert (bridge is not None) == unlockable
    if bridge is None:
        return
    unlocked = flipped(current, bridge)
    assert is_ab_constrained(unlocked, b)
    assert not is_alternatingly_ab_tight(cycle, unlocked, b)
    moves = on_copy(_alt_cycle, cycle, current, bridge, b)
    assert verify_move_sequence(Instance(g, b, current, flipped(current, cycle), 1), moves)


@pytest.mark.parametrize(
    "edges, inside, lower, upper",
    [
        # a-role vertex 0 closes a triangle over the pinned vertices 4 and 5
        # but has room for one edge only; a-role vertex 2 has the chain 2-6-7
        (
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 0), (2, 6), (6, 7)],
            [0, 2, 5, 8],
            [1, 0, 1, 0, 1, 1, 0, 0],
            [2, 1, 2, 1, 1, 1, 1, 1],
        ),
        # the same on the b side: b-role vertex 1 can shed one edge only
        (
            [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 1), (3, 6), (6, 7)],
            [0, 2, 4, 6, 7],
            [1, 2, 1, 0, 1, 1, 1, 0],
            [2, 3, 2, 2, 1, 1, 2, 1],
        ),
    ],
)
def test_unlocking_search_is_redone_per_start_after_a_closed_trail_without_room(
    edges, inside, lower, upper
):
    g = graph(8, edges)
    b = DegreeBounds(g, lower, upper)
    current = sub(g, inside)
    bridge = unlock(square_trail(), current, b)
    assert bridge is not None and not bridge.is_closed
    assert bridge.edges == (7, 8)
    assert is_ab_constrained(flipped(current, bridge), b)
    moves = on_copy(_alt_cycle, square_trail(), current, bridge, b)
    target = flipped(current, square_trail())
    assert verify_move_sequence(Instance(g, b, current, target, 1), moves)


def test_alt_cycle_takes_closed_bridges():
    # a closed bridge at a start with room (a side) or spare (b side) for two
    a_side = graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 0)])
    b_side = graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 1)])
    cases = [
        (a_side, [0, 2, 5], [1, 0, 1, 0, 0, 0], [3, 1, 2, 1, 1, 1], 0),
        (b_side, [0, 2, 4, 6], [1, 1, 1, 0, 1, 1], [2, 3, 2, 1, 2, 2], 1),
    ]
    for g, inside, lower, upper, v in cases:
        b = DegreeBounds(g, lower, upper)
        current = sub(g, inside)
        target = flipped(current, square_trail())
        for bridge in (Trail((v, 4, 5, v), (4, 5, 6)), Trail((v, 5, 4, v), (6, 5, 4))):
            moves = on_copy(_alt_cycle, square_trail(), current, bridge, b)
            assert verify_move_sequence(Instance(g, b, current, target, 1), moves)


def test_alt_cycle_locked_is_unreachable_at_any_slack():
    g = cycle_graph(4)
    b = alt_tight_bounds(g)
    assert oracle_min_k(g, b, sub(g, [0, 2]), sub(g, [1, 3])) is None


def test_alt_cycle_worker_rejects_cycle_agreeing_with_target():
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)])
    b = alt_tight_bounds(g)
    current = sub(g, [0, 2])
    on_cycle = Trail((1, 2), (1,))  # a bridge over a cycle edge
    with pytest.raises(ContractError):
        on_copy(_alt_cycle, square_trail(), current, on_cycle, b)


def test_external_routines_restore_side_effects():
    # upper-tight square hanging off a second square that supplies the escape
    g = Graph(
        8,
        [
            (0, 1), (1, 2), (2, 3), (3, 0),  # locked square
            (0, 4), (4, 5), (5, 6), (6, 7),  # escape path with spare ends
        ],
    )
    b = DegreeBounds(g, [0] * 8, [2, 1, 1, 1, 2, 2, 2, 1])
    current = sub(g, [0, 2, 4, 6])
    trail = square_trail()
    moves = btight_moves(trail, current, b)
    after = current.copy()
    for m in moves:
        if m.kind == "add":
            after.add(m.edge)
        else:
            after.remove(m.edge)
    assert after.edge_set ^ current.edge_set == set(trail.edges)
    target = Subgraph(g, after.edge_set)
    i = Instance(g, b, current, target, 1)
    assert verify_move_sequence(i, moves)


FIGURE_EIGHT = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]


def figure_eight_trail():
    """Two squares through vertex 0, which the cycle visits at positions 0 and 4."""
    return Trail((0, 1, 2, 3, 0, 4, 5, 6, 0), tuple(range(8)))


def assert_figure_eight_flips(moves, g, b, current):
    """The moves flip the figure eight at k=1, and both deciders say Yes."""
    i = Instance(g, b, current, flipped(current, figure_eight_trail()), 1)
    assert verify_move_sequence(i, moves)
    assert oracle_decide(i)
    assert decide(i).yes


def test_alt_cycle_odd_bridge_at_a_vertex_visited_twice():
    g = graph(8, FIGURE_EIGHT + [(0, 7)])
    b = DegreeBounds(g, [2, 0, 1, 0, 0, 1, 0, 0], [3, 1, 2, 1, 1, 2, 1, 1])
    current = sub(g, [0, 2, 4, 6])
    assert is_alternatingly_ab_tight(figure_eight_trail(), current, b)
    moves = on_copy(_alt_cycle, figure_eight_trail(), current, Trail((0, 7), (8,)), b)
    assert_figure_eight_flips(moves, g, b, current)


def test_alt_cycle_even_bridge_at_a_vertex_visited_twice():
    g = graph(9, FIGURE_EIGHT + [(0, 7), (7, 8)])
    b = DegreeBounds(g, [2, 0, 1, 0, 0, 1, 0, 0, 0], [3, 1, 2, 1, 1, 2, 1, 2, 1])
    current = sub(g, [0, 2, 4, 6, 9])
    assert is_alternatingly_ab_tight(figure_eight_trail(), current, b)
    moves = on_copy(_alt_cycle, figure_eight_trail(), current, Trail((0, 7, 8), (8, 9)), b)
    assert_figure_eight_flips(moves, g, b, current)


def test_btight_cycle_escape_from_a_vertex_visited_twice(monkeypatch):
    import dcsreconf.external as ext

    g = graph(9, FIGURE_EIGHT + [(0, 7), (7, 8)])
    b = DegreeBounds(g, [0] * 9, [3, 1, 1, 1, 1, 1, 1, 1, 1])
    current = sub(g, [0, 2, 4, 6, 8])
    crafted = Trail((0, 7, 8), (8, 9))
    monkeypatch.setattr(ext, "_escape_trail", lambda *args: crafted)
    moves = btight_moves(figure_eight_trail(), current, b)
    monkeypatch.undo()
    assert_figure_eight_flips(moves, g, b, current)
