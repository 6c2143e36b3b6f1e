import random
from collections import deque
from itertools import permutations

import pytest

from dcsreconf.core import (
    ADD,
    REMOVE,
    DegreeBounds,
    Instance,
    Move,
    Subgraph,
    is_ab_constrained,
    verify_move_sequence,
)
from dcsreconf.decider import Peel
from dcsreconf.errors import (
    ContractError,
    NeedsK2Error,
    NotInternallyReconfigurableError,
    SynthesisError,
)
from dcsreconf.internal import (
    _closed_even,
    _degree_violation,
    _elementary,
    _first_valid_order,
    _odd_grow,
    _odd_shrink,
    check_internal_conditions,
)
from dcsreconf.oracle import enumerate_ab_constrained, oracle_decide
from dcsreconf.trail_type import Trail, inside_first
from dcsreconf.trails import classify_trail, TrailClass

from helpers import (
    bounds,
    cycle_graph,
    flipped,
    graph,
    on_copy,
    path_graph,
    random_bounds,
    random_bounds_instance,
    sub,
)

from test_trails import figure_like_two_loop_host


def apply_all(current, moves):
    out = current.copy()
    for m in moves:
        if m.kind == ADD:
            out.add(m.edge)
        else:
            out.remove(m.edge)
    return out


def test_base_case_orders_by_middle_capacity():
    g = path_graph(3)
    t = Trail((0, 1, 2), (0, 1))
    capped_mid = DegreeBounds(g, [0, 0, 0], [1, 1, 1])
    moves = on_copy(_elementary, t, sub(g, [0]), capped_mid)
    assert moves == [Move(REMOVE, 0), Move(ADD, 1)]
    roomy_mid = DegreeBounds(g, [0, 0, 0], [1, 2, 1])
    moves = on_copy(_elementary, t, sub(g, [0]), roomy_mid)
    assert moves == [Move(ADD, 1), Move(REMOVE, 0)]


def test_check_conditions_open_cases():
    g = path_graph(3)
    t = Trail((0, 1, 2), (0, 1))
    ok = check_internal_conditions(t, sub(g, [0]), bounds(g, 0, 1))
    assert ok is None
    # start vertex pinned (coinciding bounds)
    v = check_internal_conditions(
        t, sub(g, [0]), DegreeBounds(g, [1, 0, 0], [1, 2, 1])
    )
    assert v is not None and v.vertex == 0 and "pinned" in v.condition
    # start vertex sitting at its lower bound without being pinned
    g2 = graph(4, [(0, 1), (1, 2), (0, 3)])
    t2 = Trail((0, 1, 2), (0, 1))
    v2 = check_internal_conditions(
        t2, sub(g2, [0]), DegreeBounds(g2, [1, 0, 0, 0], [2, 2, 1, 1])
    )
    assert v2 is not None and v2.vertex == 0 and "lower" in v2.condition
    # end vertex already at its cap
    g3 = graph(4, [(0, 1), (1, 2), (2, 3)])
    t3 = Trail((0, 1, 2), (0, 1))
    v3 = check_internal_conditions(
        t3, sub(g3, [0, 2]), DegreeBounds(g3, [0, 0, 0, 0], [1, 2, 1, 1])
    )
    assert v3 is not None and v3.vertex == 2 and "upper" in v3.condition


def test_check_conditions_closed_cases():
    g = cycle_graph(4)
    t = Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))
    current = sub(g, [0, 2])
    v = check_internal_conditions(t, current, bounds(g, 0, 1))
    assert v is not None and v.condition == "cycle-all-at-upper-bound"
    v2 = check_internal_conditions(t, current, DegreeBounds(g, [1] * 4, [2] * 4))
    assert v2 is not None and v2.condition == "cycle-all-at-lower-bound"
    v3 = check_internal_conditions(
        t, current, DegreeBounds(g, [1, 0, 1, 0], [2, 1, 2, 1])
    )
    assert v3 is not None and v3.condition == "cycle-alternately-tight"
    with pytest.raises(ContractError):
        check_internal_conditions(Trail((0, 1), (0,)), current, bounds(g, 0, 1))


def test_open_even_maximal_short_and_verified():
    g = path_graph(3)
    t = Trail((0, 1, 2), (0, 1))
    current = sub(g, [0])
    moves = on_copy(_elementary, t, current, bounds(g, 0, 1))
    assert len(moves) == 2
    i = Instance(g, bounds(g, 0, 1), current, sub(g, [1]), 1)
    assert verify_move_sequence(i, moves)


def test_open_even_maximal_length_four():
    g = path_graph(5)
    b = bounds(g, 0, 1)
    current = sub(g, [0, 2])
    t = Trail((0, 1, 2, 3, 4), (0, 1, 2, 3))
    moves = on_copy(_elementary, t, current, b)
    assert len(moves) == 4
    i = Instance(g, b, current, sub(g, [1, 3]), 1)
    assert verify_move_sequence(i, moves)


def test_odd_maximal_single_edge_each_direction():
    g = path_graph(2)
    b = bounds(g, 0, 1)
    t = Trail((0, 1), (0,))
    assert on_copy(_odd_grow, t, sub(g), b) == [Move(ADD, 0)]
    assert on_copy(_odd_shrink, t, sub(g, [0]), b) == [Move(REMOVE, 0)]


def test_odd_maximal_length_three_grow():
    g = path_graph(4)
    b = bounds(g, 0, 1)
    current = sub(g, [1])
    t = Trail((0, 1, 2, 3), (0, 1, 2))
    moves = on_copy(_odd_grow, t, current, b)
    assert len(moves) == 3
    i = Instance(g, b, current, sub(g, [0, 2]), 1)
    assert verify_move_sequence(i, moves)


def test_odd_maximal_length_three_shrink_floor():
    g = path_graph(4)
    b = bounds(g, 0, 1)
    current = sub(g, [0, 2])
    t = Trail((0, 1, 2, 3), (0, 1, 2))
    moves = on_copy(_odd_shrink, t, current, b)
    assert len(moves) == 3
    i = Instance(g, b, current, sub(g, [1]), 2)
    assert verify_move_sequence(i, moves)


def test_odd_grow_rejects_capped_endpoint():
    g = graph(3, [(0, 1), (1, 2)])
    b = DegreeBounds(g, [0, 0, 0], [1, 1, 1])
    t = Trail((0, 1), (0,))
    with pytest.raises(NotInternallyReconfigurableError):
        on_copy(_odd_grow, t, sub(g, [1]), b)


def _odd_rejections():
    """(worker, graph, bounds, current edges, trail, error, condition, vertex);
    a ContractError has no condition and vertex, so its message stands in."""
    p = path_graph(4)
    pinned = DegreeBounds(p, [0, 0, 1, 0], [1, 1, 1, 1])
    three = Trail((0, 1, 2, 3), (0, 1, 2))
    cherry = graph(3, [(0, 1), (1, 2)])
    one = Trail((0, 1), (0,))
    tri = cycle_graph(3)
    closed = Trail((0, 1, 2, 0), (0, 1, 2))
    contract, stuck = ContractError, NotInternallyReconfigurableError
    not_alternating = "trail does not alternate around the current subgraph"
    return {
        "grow-wrong-side": (
            _odd_grow, cherry, bounds(cherry, 0, 1), [0], one, contract,
            "growing trail must dangle outside the current subgraph", None,
        ),
        "shrink-wrong-side": (
            _odd_shrink, cherry, bounds(cherry, 0, 1), [], one, contract,
            "shrinking trail must dangle inside the current subgraph", None,
        ),
        # an odd trail whose danglers differ cannot alternate
        "grow-mismatched-danglers": (
            _odd_grow, p, bounds(p, 0, 2), [1, 2], three, contract, not_alternating, None,
        ),
        "shrink-mismatched-danglers": (
            _odd_shrink, p, bounds(p, 0, 2), [0, 1], three, contract, not_alternating, None,
        ),
        "grow-pinned-vertex": (_odd_grow, p, pinned, [1], three, stuck, "pinned-vertex", 2),
        "shrink-pinned-vertex": (_odd_shrink, p, pinned, [0, 2], three, stuck, "pinned-vertex", 2),
        "grow-pinned-one-edge": (
            _odd_grow, cherry, DegreeBounds(cherry, [0, 1, 0], [1, 1, 1]), [1], one, stuck,
            "pinned-vertex", 1,
        ),
        "shrink-pinned-one-edge": (
            _odd_shrink, cherry, DegreeBounds(cherry, [0, 2, 0], [1, 2, 1]), [0, 1], one, stuck,
            "pinned-vertex", 1,
        ),
        "grow-end-at-upper-bound": (
            _odd_grow, cherry, bounds(cherry, 0, 1), [1], one, stuck, "end-at-upper-bound", 1,
        ),
        "shrink-end-at-lower-bound": (
            _odd_shrink, cherry, DegreeBounds(cherry, [0, 1, 0], [1, 2, 1]), [0], one, stuck,
            "end-at-lower-bound", 1,
        ),
        "grow-closed-end-lacks-room": (
            _odd_grow, tri, DegreeBounds(tri, [0, 0, 0], [1, 2, 2]), [1], closed, stuck,
            "closed-end-lacks-room", 0,
        ),
        "shrink-closed-end-lacks-slack": (
            _odd_shrink, tri, DegreeBounds(tri, [1, 0, 0], [2, 2, 2]), [0, 2], closed, stuck,
            "closed-end-lacks-slack", 0,
        ),
    }


@pytest.mark.parametrize("case", sorted(_odd_rejections()))
def test_odd_workers_reject_with_exact_condition_and_vertex(case):
    worker, g, b, edges, trail, error, condition, vertex = _odd_rejections()[case]
    out: list[Move] = []
    with pytest.raises(error) as info:
        worker(trail, sub(g, edges), b, out)
    assert type(info.value) is error
    if error is NotInternallyReconfigurableError:
        assert (info.value.condition, info.value.vertex) == (condition, vertex)
    else:
        assert str(info.value) == condition
    assert out == []


def test_closed_even_unlocked_cycle_at_tight_floor():
    g = cycle_graph(4)
    b = DegreeBounds(g, [0, 0, 0, 0], [2, 1, 2, 1])
    current = sub(g, [0, 2])
    t = Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))
    moves = on_copy(_closed_even, t, current, b, allow_deep_dip=False)
    assert len(moves) == 4
    i = Instance(g, b, current, sub(g, [1, 3]), 1)
    assert verify_move_sequence(i, moves)


def test_closed_even_capped_cycle_needs_deeper_dip():
    g = cycle_graph(4)
    b = bounds(g, 0, 1)
    current = sub(g, [0, 2])
    t = Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))
    with pytest.raises(NeedsK2Error):
        on_copy(_closed_even, t, current, b, allow_deep_dip=False)
    moves = on_copy(_closed_even, t, current, b, allow_deep_dip=True)
    assert len(moves) == 4
    assert moves[0].kind == REMOVE
    ok_at_2 = Instance(g, b, current, sub(g, [1, 3]), 2)
    assert verify_move_sequence(ok_at_2, moves)
    tight = Instance(g, b, current.copy(), sub(g, [1, 3]), 1)
    assert not verify_move_sequence(tight, moves)


def test_closed_even_floor_tight_cycle_leads_with_addition():
    g = cycle_graph(4)
    b = DegreeBounds(g, [1] * 4, [2] * 4)
    current = sub(g, [0, 2])
    t = Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))
    moves = on_copy(_closed_even, t, current, b, allow_deep_dip=True)
    assert moves[0].kind == ADD
    assert len(moves) == 4
    i = Instance(g, b, current, sub(g, [1, 3]), 1)
    assert verify_move_sequence(i, moves)


def test_closed_even_rejects_alternately_tight():
    g = cycle_graph(4)
    b = DegreeBounds(g, [1, 0, 1, 0], [2, 1, 2, 1])
    t = Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))
    with pytest.raises(NotInternallyReconfigurableError):
        on_copy(_closed_even, t, sub(g, [0, 2]), b, allow_deep_dip=True)


@pytest.mark.parametrize(
    "edges, lower, upper, current, want",
    [
        # mixed-tight: the scan first meets a vertex off its bound at the odd
        # position of vertex 3, so it cuts the reversed cycle
        (
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (0, 5), (2, 6), (2, 7)],
            [3, 0, 1, 0, 0, 0, 0, 0],
            [4, 1, 2, 2, 1, 1, 1, 1],
            [0, 2, 4, 5],
            [Move(ADD, 3), Move(REMOVE, 0), Move(ADD, 1), Move(REMOVE, 2)],
        ),
        # lower-tight: vertex 2 sits at its lower bound, so the cut is taken
        # at the reversed cycle's vertex 3
        (
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5), (1, 6), (2, 7)],
            [2, 2, 2, 0, 0, 0, 0, 0],
            [3, 3, 3, 1, 1, 1, 1, 1],
            [0, 2, 4, 5, 7],
            [Move(ADD, 1), Move(REMOVE, 2), Move(ADD, 3), Move(REMOVE, 0)],
        ),
    ],
    ids=["mixed-tight", "lower-tight"],
)
def test_closed_trail_is_cut_in_its_reversed_orientation(edges, lower, upper, current, want):
    """``_split`` cuts a 4-cycle in its reversed orientation when the forward
    one has no pivot; both workers emit one move per cycle edge, and the
    sequence replays."""
    g = graph(8, edges)
    b = DegreeBounds(g, lower, upper)
    state = sub(g, current)
    t = Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))
    target = Subgraph(g, state.edge_set ^ set(t.edges))
    i = Instance(g, b, state, target, 1)
    assert oracle_decide(i)
    for moves in (
        on_copy(_elementary, t, state, b),
        on_copy(_closed_even, t, state, b, allow_deep_dip=False),
    ):
        assert moves == want
        assert verify_move_sequence(i, moves)


def _random_closed_trail(rng):
    """A closed even alternating trail of 4-12 edges on at most as many
    vertices (fewer force a revisit), on a host with a few extra edges; its
    even positions are in the state, and each bound lies within two steps of
    the vertex's degree."""
    tt = rng.randrange(4, 13, 2)
    n = tt if tt == 4 or rng.random() < 0.3 else rng.randint(tt // 2 + 2, tt - 1)
    while True:
        vs, used = [rng.randrange(n)], set()
        for _ in range(tt - 1):
            step = [w for w in range(n) if w != vs[-1] and frozenset((vs[-1], w)) not in used]
            if not step:
                break
            w = rng.choice(step)
            used.add(frozenset((vs[-1], w)))
            vs.append(w)
        else:
            if vs[-1] != vs[0] and frozenset((vs[-1], vs[0])) not in used:
                used.add(frozenset((vs[-1], vs[0])))
                break
    pairs = [(vs[i], vs[(i + 1) % tt]) for i in range(tt)]
    for _ in range(rng.randint(0, 4)):  # extra edges, some to pendant vertices
        u, w = rng.randrange(n), rng.randrange(n + 3)
        if u != w and frozenset((u, w)) not in used:
            used.add(frozenset((u, w)))
            pairs.append((u, w))
    g = graph(n + 3, pairs)
    inside = list(range(0, tt, 2)) + [e for e in range(tt, g.m) if rng.random() < 0.5]
    state = sub(g, inside)
    lower = [max(0, d - rng.randint(0, 2)) for d in state.degrees]
    upper = [min(g.degree[v], d + rng.randint(0, 2)) for v, d in enumerate(state.degrees)]
    return g, DegreeBounds(g, lower, upper), state, Trail(tuple(vs + vs[:1]), tuple(range(tt)))


def test_closed_trails_flip_exactly_when_their_conditions_hold():
    """``_elementary`` flips a random closed trail one move per edge, through
    feasible states, whenever ``check_internal_conditions`` passes, and raises
    otherwise."""
    rng = random.Random(17)
    flips = revisiting = rejected = 0
    for _ in range(2000):
        g, b, state, t = _random_closed_trail(rng)
        if check_internal_conditions(t, state, b) is not None:
            with pytest.raises(NotInternallyReconfigurableError):
                on_copy(_elementary, t, state, b)
            rejected += 1
            continue
        moves = on_copy(_elementary, t, state, b)
        target = flipped(state, t)
        assert len(moves) == len(t)
        assert apply_all(state, moves).edge_set == target.edge_set
        assert verify_move_sequence(Instance(g, b, state, target, 1), moves)
        flips += 1
        revisiting += len(set(t.vertices)) < len(t)
    assert flips > 400 and revisiting > 200 and rejected > 400


def test_long_revisiting_trail_flips_at_tight_floor():
    g, current, target = figure_like_two_loop_host()
    b = DegreeBounds(g, [0] * g.n, list(g.degree))
    t = Trail((0, 1, 2, 3, 0, 5, 6, 7, 8, 9, 6), tuple(range(10)))
    moves = on_copy(_elementary, t, current, b)
    assert len(moves) == 10
    i = Instance(g, b, current, target, 1)
    assert verify_move_sequence(i, moves)


def _random_trail_cases(seed, want):
    """Trails harvested from decompositions of random feasible instances."""
    rng = random.Random(seed)
    host = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
    cases = []
    while len(cases) < want:
        b = random_bounds(rng, host)
        states = enumerate_ab_constrained(host, b)
        if len(states) < 2:
            continue
        current, target = rng.sample(states, 2)
        if current == target:
            continue
        state = current.copy()
        for trail, _ in Peel(host, b, state, target):
            cases.append((host, b, state.copy(), trail))
            state.flip(trail.edges)
    return cases[:want]


def test_emitted_sequences_have_one_move_per_edge_and_verify():
    succeeded = 0
    for host, b, state, trail in _random_trail_cases(41, 160):
        cls = classify_trail(trail, state, b)
        try:
            if cls is TrailClass.M_AUGMENTING:
                moves = on_copy(_odd_grow, trail, state, b)
                slack = 1
            elif cls is TrailClass.N_AUGMENTING:
                moves = on_copy(_odd_shrink, trail, state, b)
                slack = 2
            elif cls is TrailClass.B_TIGHT_CYCLE:
                moves = on_copy(_closed_even, trail, state, b, allow_deep_dip=True)
                slack = 2
            elif cls is TrailClass.ALT_AB_TIGHT_CYCLE:
                continue
            else:
                if trail.is_closed:
                    moves = on_copy(_closed_even, trail, state, b, allow_deep_dip=False)
                else:
                    moves = on_copy(_elementary, trail, state, b)
                slack = 1
        except NotInternallyReconfigurableError:
            # pinned vertices or tight ends; genuine obstructions are covered
            # by the necessity test below
            continue
        succeeded += 1
        assert len(moves) == len(trail)
        assert {m.edge for m in moves} == set(trail.edges)
        i = Instance(host, b, state.copy(), flipped(state, trail), slack)
        check = verify_move_sequence(i, moves)
        assert check, f"{check.reason} at {check.step}"
    assert succeeded >= 60


def _elementary_pair_reachable(host, b, state, trail):
    """Exhaustive search over paired-move sequences confined to the trail."""
    target = flipped(state, trail)
    floor = len(state) - 1
    edges = list(trail.edges)
    start = frozenset(state.edge_set)
    goal = frozenset(target.edge_set)
    seen = {start}
    queue = deque([start])

    def feasible(edge_set):
        s = Subgraph(host, edge_set)
        return is_ab_constrained(s, b)

    while queue:
        cur = queue.popleft()
        if cur == goal:
            return True
        for e in edges:
            if e not in cur:
                continue
            for f in edges:
                if f in cur or f == e:
                    continue
                nxt = frozenset(cur - {e} | {f})
                if nxt in seen:
                    continue
                mid_remove_first = cur - {e}
                mid_add_first = cur | {f}
                ok = (len(mid_remove_first) >= floor and feasible(mid_remove_first)) or (
                    feasible(mid_add_first)
                )
                if ok and feasible(nxt):
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def test_condition_violations_are_genuine_obstructions():
    checked = 0
    for host, b, state, trail in _random_trail_cases(43, 200):
        if len(trail) % 2 != 0:
            continue
        violation = check_internal_conditions(trail, state, b)
        if violation is None:
            continue
        checked += 1
        assert not _elementary_pair_reachable(host, b, state, trail), violation
    assert checked >= 3


def test_piece_orders_are_tested_on_end_degrees():
    """Even peeled trails cut at even positions into two or three pieces, in
    every order: shifting the earlier pieces' end degrees gives each piece
    the verdict that flipping their edges gives, and ``_first_valid_order``
    accepts an order exactly when every piece passes in turn, leaving the
    subgraph's edges and degrees as they were."""
    rng = random.Random(73)
    trails = orders = accepted = 0
    while trails < 100:
        i = random_bounds_instance(rng)
        b = i.bounds
        # long even trails without a pinned vertex are rare on these hosts,
        # so each host is peeled between several pairs of its states
        states = enumerate_ab_constrained(i.graph, b)
        pairs = [(i.source, i.target)] + [rng.sample(states, 2) for _ in range(40)]
        for source, target in pairs:
            state = source.copy()
            for trail, _ in Peel(i.graph, b, state, target):
                tt = len(trail)
                pinned = any(b.lower[v] == b.upper[v] for v in trail.vertices)
                if tt % 2 == 0 and tt >= 4 and not pinned:
                    trails += 1
                    cuts = sorted(rng.sample(range(2, tt, 2), min(rng.randint(1, 2), tt // 2 - 1)))
                    pieces = [trail.segment(lo, hi) for lo, hi in zip([0] + cuts, cuts + [tt])]
                    for order in permutations(pieces):
                        orders += 1
                        by_flips, by_shifts = state.copy(), state.copy()
                        passes = True
                        for piece in order:
                            want = check_internal_conditions(piece, by_flips, b)
                            t = inside_first(piece, by_shifts)
                            assert _degree_violation(t, by_shifts, b) == want
                            passes = passes and want is None
                            by_flips.flip(piece.edges)
                            by_shifts.degrees[t.vertices[0]] -= 1
                            by_shifts.degrees[t.vertices[-1]] += 1
                            assert by_shifts.degrees == by_flips.degrees
                        ctx = state.copy()
                        try:
                            got = _first_valid_order([order], ctx, b)
                        except SynthesisError:
                            got = None
                        assert got == (order if passes else None)
                        assert ctx.edge_set == state.edge_set and ctx.degrees == state.degrees
                        accepted += passes
                state.flip(trail.edges)
    assert orders > 200 and 0 < accepted < orders
