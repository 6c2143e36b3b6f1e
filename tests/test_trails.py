import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsreconf.augmenting import Gadget, find_alternating_trail
from dcsreconf.core import DegreeBounds, Graph, Subgraph, is_ab_constrained
from dcsreconf.decider import Peel, alternating_trail_decomposition
from dcsreconf.errors import ContractError
from dcsreconf.oracle import enumerate_ab_constrained
from dcsreconf.trail_type import Trail, alternates
from dcsreconf.trails import (
    TrailClass,
    classify_trail,
    find_augmenting_trail,
    find_maximal_alternating_trail,
    is_alternatingly_ab_tight,
)

from helpers import (
    bounds,
    cycle_graph,
    graph,
    loose_instance,
    maximal_trail_by_incidence,
    next_growing_trail,
    path_graph,
    random_bounds,
    random_bounds_instance,
    random_connected_graph,
    sub,
    validate_trail,
)


def brute_has_trail(g, pool, member, sources, add_sinks, remove_sinks):
    """Exhaustive alternating-trail search (reference for the gadget engine)."""
    pool = set(pool)

    def dfs(v, last_inside, used):
        if not last_inside and v in add_sinks:
            return True
        if last_inside and v in remove_sinks:
            return True
        for e in g.incident[v]:
            if e in pool and e not in used and (e in member) != last_inside:
                if dfs(g.other_end(e, v), e in member, used | {e}):
                    return True
        return False

    for u in sources:
        for e in g.incident[u]:
            if e in pool and e not in member:
                if dfs(g.other_end(e, u), False, {e}):
                    return True
    return False


def test_maximal_trail_single_edge():
    g = path_graph(2)
    t = find_maximal_alternating_trail(sub(g, [0]), sub(g, [0]), 0)
    assert len(t) == 1 and t.edges == (0,)


def test_maximal_trail_closes_cycle():
    g = cycle_graph(4)
    diff = sub(g, range(4))
    t = find_maximal_alternating_trail(diff, sub(g, [0, 2]), 0)
    assert len(t) == 4 and t.is_closed
    assert set(t.edges) == {0, 1, 2, 3}


def test_maximal_trail_extends_both_ends():
    g = path_graph(4)  # three edges, middle one inside
    diff = sub(g, range(3))
    t = find_maximal_alternating_trail(diff, sub(g, [1]), 1)
    assert len(t) == 3
    assert set(t.edges) == {0, 1, 2}


def test_maximal_trail_grows_both_halves_of_a_long_path():
    """A 10^4-edge path whose least edge is in the middle: the walk grows
    5,000 edges at each end and returns the whole path, oriented so that it
    starts with the smaller of its two end edges."""
    length = 10_000
    # edge indices rise with the distance from the middle position
    positions = sorted(range(length), key=lambda p: (abs(p - length // 2), p))
    index = {p: e for e, p in enumerate(positions)}
    g = Graph(length + 1, [(p, p + 1) for p in positions])
    current = sub(g, [index[p] for p in range(0, length, 2)])
    t = find_maximal_alternating_trail(sub(g, range(length)), current, 0)
    path = Trail(tuple(range(length + 1)), tuple(index[p] for p in range(length)))
    assert path.edges[0] > path.edges[-1]
    assert t == path.reversed()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_maximal_walk_matches_the_incidence_walk(seed):
    """On a random pool with random edges dropped, the gadget's walk and the
    walk over ``graph.incident`` return the same trail from every edge left."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    g = random_connected_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
    current = sub(g, [e for e in range(g.m) if rng.random() < 0.5])
    pool = Gadget(g, [e for e in range(g.m) if rng.random() < 0.8], current.edge_set)
    pool.drop([e for e in pool.edges if rng.random() < 0.3])
    for e in pool.index:
        expected = maximal_trail_by_incidence(pool.index, current, e)
        assert pool.maximal_trail(e) == expected
        assert find_maximal_alternating_trail(pool.index, current, e) == expected


def test_maximal_trail_rejects_a_start_outside_the_difference():
    g = path_graph(3)
    with pytest.raises(ContractError, match="not in the symmetric difference"):
        find_maximal_alternating_trail(sub(g, [0]), sub(g), 1)


def test_trail_rejects_a_repeated_edge():
    with pytest.raises(ContractError, match="trail: repeated edge"):
        Trail((0, 1, 0), (0, 0))


def test_trail_rejects_inconsistent_lengths():
    with pytest.raises(ContractError, match="trail: vertex/edge sequence lengths inconsistent"):
        Trail((0, 1), (0, 1))


def test_alternates_on_one_edge_and_on_pairs():
    g = path_graph(3)
    current = sub(g, [0])
    assert alternates(Trail((0, 1), (0,)), current)
    assert alternates(Trail((1, 2), (1,)), current)
    assert alternates(Trail((0, 1, 2), (0, 1)), current)
    assert not alternates(Trail((0, 1, 2), (0, 1)), sub(g))
    assert not alternates(Trail((0, 1, 2), (0, 1)), sub(g, [0, 1]))


def test_augmenting_trail_single_edge():
    g = path_graph(2)
    t = find_augmenting_trail(g, bounds(g, 0, 1), sub(g), sub(g, [0]))
    assert t is not None and t.edges == (0,)


def test_augmenting_trail_absent_when_all_capped():
    g = cycle_graph(4)
    t = find_augmenting_trail(g, bounds(g, 0, 1), sub(g, [0, 2]), sub(g, [1, 3]))
    assert t is None


def test_augmenting_trail_star():
    g = graph(4, [(0, 1), (0, 2), (0, 3)])
    b = DegreeBounds(g, [0, 0, 0, 0], [2, 1, 1, 1])
    t = find_augmenting_trail(g, b, sub(g, [0]), sub(g, [0, 1]))
    assert t is not None and t.edges == (1,)


def test_engine_agrees_with_exhaustive_search():
    """Random terminals, plus the two shapes the callers use: growing searches
    (sources equal to the add sinks) and escape searches (remove sinks only),
    which reach sinks through blossoms."""
    rng = random.Random(23)
    for trial in range(1000):
        n = rng.randint(3, 8)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        g = Graph(n, pairs[: rng.randint(2, min(12, len(pairs)))])
        member = {e for e in range(g.m) if rng.random() < 0.5}
        pool = [e for e in range(g.m) if rng.random() < 0.8]
        member &= set(pool)
        sources = {v for v in range(g.n) if rng.random() < 0.5}
        shape = trial % 3
        if shape == 0:
            add_sinks = {v for v in range(g.n) if rng.random() < 0.5}
            remove_sinks = {v for v in range(g.n) if rng.random() < 0.3}
        elif shape == 1:
            add_sinks, remove_sinks = sources, set()
        else:
            add_sinks, remove_sinks = set(), {v for v in range(g.n) if rng.random() < 0.3}
        got = find_alternating_trail(g, pool, member, sources, add_sinks, remove_sinks)
        want = brute_has_trail(g, pool, member, sources, add_sinks, remove_sinks)
        assert (got is not None) == want, (
            f"trial {trial}: engine={'hit' if got else 'miss'} brute={'hit' if want else 'miss'}"
        )
        if got is not None:
            validate_trail(got, g)
            assert set(got.edges) <= set(pool)
            assert got.edges[0] not in member
            assert got.vertices[0] in sources
            sides = [e in member for e in got.edges]
            assert all(sides[i] != sides[i + 1] for i in range(len(sides) - 1))
            if len(got) % 2 == 1:
                assert got.vertices[-1] in add_sinks
            else:
                assert got.vertices[-1] in remove_sinks


def brute_best_within_union(g, b, current, target):
    """Max feasible size among subgraphs between the intersection and the union."""
    fixed_part = current.edge_set & target.edge_set
    optional = sorted(current.edge_set ^ target.edge_set)
    best = -1
    for r in range(len(optional) + 1):
        for combo in itertools.combinations(optional, r):
            s = Subgraph(g, fixed_part | set(combo))
            if is_ab_constrained(s, b):
                best = max(best, len(s))
    return best


def test_augmenting_trail_contract_on_random_instances():
    rng = random.Random(29)
    checked = 0
    while checked < 120:
        g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
        b = random_bounds(rng, g)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        current, target = rng.sample(states, 2)
        checked += 1
        t = find_augmenting_trail(g, b, current, target)
        reachable_best = brute_best_within_union(g, b, current, target)
        if t is None:
            assert reachable_best <= len(current)
            continue
        assert reachable_best > len(current)
        assert len(t) % 2 == 1
        assert set(t.edges) <= current.edge_set ^ target.edge_set
        flipped = current.copy()
        for e in t.edges:
            if e in flipped:
                flipped.remove(e)
            else:
                flipped.add(e)
        assert len(flipped) == len(current) + 1
        assert is_ab_constrained(flipped, b)


def test_decomposition_single_augmentation():
    g = path_graph(2)
    peeled = alternating_trail_decomposition(g, bounds(g, 0, 1), sub(g), sub(g, [0]))
    assert len(peeled) == 1 and peeled[0][0].edges == (0,)
    # classified in the empty source, where the flip adds the edge
    assert peeled[0][1] is TrailClass.M_AUGMENTING


def test_decomposition_rejects_equal_endpoints():
    g = path_graph(2)
    with pytest.raises(ContractError):
        alternating_trail_decomposition(g, bounds(g, 0, 1), sub(g), sub(g))


def test_decomposition_cycle_swap_is_single_closed_trail():
    g = cycle_graph(4)
    peeled = alternating_trail_decomposition(g, bounds(g, 0, 1), sub(g, [0, 2]), sub(g, [1, 3]))
    trails = [trail for trail, _ in peeled]
    assert len(trails) == 1
    assert trails[0].is_closed and len(trails[0]) == 4


def test_decomposition_takes_the_trails_of_fresh_searches():
    """The peel loop keeps one gadget (and its outside vertices) in step with
    its subgraph; it grows a trail exactly when a fresh search finds one, and
    every trail it takes is the one fresh searches would take next: the first
    one-edge trail, else the trail of the least start whose own search finds
    one, else the maximal trail around the least edge left. Checked on loose
    instances and on small random-bounds ones, which also peel closed fallback
    trails and fallback trails through pinned vertices."""
    rng = random.Random(11)
    cases = []
    for _ in range(60):
        m = rng.randint(8, 60)
        cases.append(loose_instance(rng, max(5, m // 3), m))
    cases += [random_bounds_instance(rng) for _ in range(300)]
    one_edge = searched = closed = pinned = 0
    for inst in cases:
        if inst.source == inst.target:
            continue
        cur = inst.source.copy()
        for trail, _ in Peel(inst.graph, inst.bounds, cur, inst.target):
            snap = cur.copy()
            grows = find_augmenting_trail(inst.graph, inst.bounds, snap, inst.target) is not None
            fresh = next_growing_trail(inst.graph, inst.bounds, snap, inst.target)
            assert grows == (fresh is not None)
            if fresh is None:
                diff = Subgraph(inst.graph, snap.edge_set ^ inst.target.edge_set)
                fresh = find_maximal_alternating_trail(diff, snap, min(diff.edge_set))
                closed += fresh.is_closed
                pinned += any(inst.bounds.lower[v] == inst.bounds.upper[v] for v in fresh.vertices)
            else:
                one_edge += len(fresh) == 1
                searched += len(fresh) > 1
            assert trail == fresh
            cur.flip(trail.edges)
    assert one_edge > 0 and searched > 0 and closed > 0 and pinned > 0


def figure_like_two_loop_host():
    """An open ten-edge alternating trail threading two four-cycles.

    Vertices 0 and 6 are revisited: 0-1-2-3-0-5-6-7-8-9-6 with sides
    alternating starting inside the current subgraph.
    """
    edges = [
        (0, 1),  # inside
        (1, 2),
        (2, 3),  # inside
        (3, 0),
        (0, 5),  # inside
        (5, 6),
        (6, 7),  # inside
        (7, 8),
        (8, 9),  # inside
        (9, 6),
    ]
    g = Graph(10, edges)
    current = sub(g, [0, 2, 4, 6, 8])
    target = sub(g, [1, 3, 5, 7, 9])
    return g, current, target


def test_decomposition_recovers_long_revisiting_trail():
    g, current, target = figure_like_two_loop_host()
    lower = [min(current.degrees[v], target.degrees[v]) for v in range(g.n)]
    upper = [max(current.degrees[v], target.degrees[v]) for v in range(g.n)]
    b = DegreeBounds(g, lower, upper)
    trails = [trail for trail, _ in alternating_trail_decomposition(g, b, current, target)]
    assert len(trails) == 1
    assert len(trails[0]) == 10
    assert not trails[0].is_closed
    assert set(trails[0].edges) == set(range(10))


def test_decomposition_partitions_difference():
    rng = random.Random(31)
    done = 0
    while done < 60:
        g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
        b = random_bounds(rng, g)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        current, target = rng.sample(states, 2)
        done += 1
        trails = [trail for trail, _ in alternating_trail_decomposition(g, b, current, target)]
        diff = current.edge_set ^ target.edge_set
        covered: set[int] = set()
        for t in trails:
            assert covered.isdisjoint(t.edges)
            covered.update(t.edges)
        assert covered == diff
        assert sum(len(t) for t in trails) == len(diff)
        state = current.copy()  # each state a trail was peeled from
        for t in trails:
            assert is_ab_constrained(state, b)
            state.flip(t.edges)


def test_classify_augmenting_directions():
    g = path_graph(2)
    t = Trail((0, 1), (0,))
    assert classify_trail(t, sub(g), bounds(g, 0, 1)) is TrailClass.M_AUGMENTING
    assert classify_trail(t, sub(g, [0]), bounds(g, 0, 1)) is TrailClass.N_AUGMENTING


def test_classify_cycles():
    g = cycle_graph(4)
    t = Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))
    current = sub(g, [0, 2])
    assert classify_trail(t, current, bounds(g, 0, 1)) is TrailClass.B_TIGHT_CYCLE
    alt = DegreeBounds(g, [1, 0, 1, 0], [2, 1, 2, 1])
    assert classify_trail(t, current, alt) is TrailClass.ALT_AB_TIGHT_CYCLE
    loose = DegreeBounds(g, [0, 0, 0, 0], [2, 2, 2, 2])
    assert classify_trail(t, current, loose) is TrailClass.OPEN_EVEN_OR_UNLOCKED_CYCLE


def test_classify_open_even():
    g = path_graph(3)
    t = Trail((0, 1, 2), (0, 1))
    assert (
        classify_trail(t, sub(g, [0]), bounds(g, 0, 1))
        is TrailClass.OPEN_EVEN_OR_UNLOCKED_CYCLE
    )


def test_classify_is_total_on_maximal_trails():
    rng = random.Random(37)
    done = 0
    while done < 50:
        g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        b = random_bounds(rng, g)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        current, target = rng.sample(states, 2)
        diff = current.edge_set ^ target.edge_set
        if not diff:
            continue
        done += 1
        t = find_maximal_alternating_trail(Subgraph(g, diff), current, min(diff))
        cls = classify_trail(t, current, b)
        assert cls in TrailClass
        assert classify_trail(t, current, b) is cls  # deterministic


def test_alternating_tightness_examples():
    g = cycle_graph(4)
    t = Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))
    current = sub(g, [0, 2])
    loose = DegreeBounds(g, [0, 0, 0, 0], [2, 2, 2, 2])
    assert not is_alternatingly_ab_tight(t, current, loose)
    alt = DegreeBounds(g, [1, 0, 1, 0], [2, 1, 2, 1])
    assert is_alternatingly_ab_tight(t, current, alt)
    broken = DegreeBounds(g, [1, 0, 1, 0], [2, 2, 2, 1])
    assert not is_alternatingly_ab_tight(t, current, broken)
    with pytest.raises(ContractError):
        is_alternatingly_ab_tight(Trail((0, 1), (0,)), current, alt)
