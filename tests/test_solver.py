import random

import pytest

from dcsreconf.core import DegreeBounds, Graph, is_ab_constrained
from dcsreconf.errors import ContractError
from dcsreconf.solver import (
    augment,
    augment_trail,
    feasible_subgraph,
    is_maximum,
    maximum_dcs,
)

from helpers import (
    bounds,
    brute_max_size,
    cycle_graph,
    feasible_by_fresh_gadgets,
    feasible_subsets,
    graph,
    graphs_up_to_iso,
    path_graph,
    random_bounds,
    random_connected_graph,
    sub,
)


def test_maximum_takes_everything_under_loose_bounds():
    g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    best = maximum_dcs(g, bounds(g, 0, [g.degree[v] for v in range(g.n)]))
    assert best is not None and len(best) == g.m


def test_maximum_matching_of_cycle():
    g = cycle_graph(4)
    best = maximum_dcs(g, bounds(g, 0, 1))
    assert best is not None and len(best) == 2


def test_infeasible_lower_bounds_report_absent():
    g = path_graph(2)
    b = DegreeBounds(g, [1, 1], [1, 1])
    assert feasible_subgraph(g, b) is not None  # the single edge works
    g2 = Graph(3, [(0, 1)])
    with pytest.raises(Exception):
        DegreeBounds(g2, [1, 1, 1], [1, 1, 1])  # vertex 2 has degree 0
    g3 = graph(4, [(0, 1), (2, 3), (1, 2)])
    b3 = DegreeBounds(g3, [1, 1, 1, 1], [1, 1, 1, 1])
    # both pendant edges are forced, but then the middle vertices are full
    assert maximum_dcs(g3, b3) is not None
    g4 = path_graph(3)
    b4 = DegreeBounds(g4, [1, 2, 1], [1, 2, 1])
    assert maximum_dcs(g4, b4) is not None
    g5 = graph(3, [(0, 1), (0, 2)])
    b5 = DegreeBounds(g5, [2, 1, 1], [2, 1, 1])
    assert maximum_dcs(g5, b5) is not None
    b6 = DegreeBounds(g5, [2, 0, 0], [2, 1, 0])
    assert maximum_dcs(g5, b6) is None  # vertex 0 needs both edges, one is capped off


def test_augment_examples():
    g = path_graph(4)
    b = bounds(g, 0, 1)
    assert augment(g, b, sub(g, [0, 2])) is None  # already maximum
    single = augment(g, b, sub(g))
    assert single is not None and len(single) == 1
    via_trail = augment(g, b, sub(g, [1]))
    assert via_trail is not None
    assert via_trail.edge_set == {0, 2}  # the length-three alternating flip


def test_augment_rejects_infeasible_input():
    g = path_graph(3)
    with pytest.raises(ContractError):
        augment(g, bounds(g, 0, 1), sub(g, [0, 1]))


def test_is_maximum_agrees_with_size():
    g = cycle_graph(5)
    b = bounds(g, 0, 1)
    best = maximum_dcs(g, b)
    assert is_maximum(g, b, best)
    assert not is_maximum(g, b, sub(g, [0]))


def test_maximum_matches_brute_force_on_small_hosts():
    rng = random.Random(47)
    checked = 0
    for n in (2, 3, 4, 5):
        for g in graphs_up_to_iso(n, connected_only=False):
            if g.m == 0:
                continue
            for _ in range(3):
                b = random_bounds(rng, g)
                want = brute_max_size(g, b)
                got = maximum_dcs(g, b)
                assert (got is None) == (want is None)
                if got is not None:
                    assert len(got) == want
                    assert is_ab_constrained(got, b)
                checked += 1
    assert checked > 100


def test_maximum_matches_brute_force_up_to_twelve_edges():
    rng = random.Random(53)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(4, 7), rng.randint(4, 12))
        if g.m > 12:
            continue
        b = random_bounds(rng, g)
        want = brute_max_size(g, b)
        got = maximum_dcs(g, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == want


def test_augment_output_always_feasible_and_one_bigger():
    rng = random.Random(59)
    done = 0
    while done < 60:
        g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(3, 9))
        b = random_bounds(rng, g)
        states = feasible_subsets(g, b)
        if not states:
            continue
        s = rng.choice(states)
        done += 1
        bigger = augment(g, b, s)
        best = brute_max_size(g, b)
        if bigger is None:
            assert len(s) == best
        else:
            assert len(bigger) == len(s) + 1
            assert is_ab_constrained(bigger, b)
            trail = augment_trail(g, b, s)
            assert trail is not None and len(trail) % 2 == 1


def test_feasible_subgraph_matches_fresh_gadget_repairs():
    """One kept gadget repairs exactly as a fresh gadget per unit of deficiency,
    on small hosts (about a third with unsatisfiable lower bounds) and on one
    loose 2,000-edge host."""
    rng = random.Random(61)
    unsatisfiable = 0
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(2, 14), rng.randint(1, 30))
        b = random_bounds(rng, g, relax=0.2)
        want = feasible_by_fresh_gadgets(g, b)
        got = feasible_subgraph(g, b)
        if want is None:
            assert got is None
            unsatisfiable += 1
        else:
            assert got is not None and got.edge_set == want.edge_set
    assert 50 < unsatisfiable < 250
    g = random_connected_graph(random.Random(2000), 500, 2000)
    b = DegreeBounds(
        g, [max(0, d // 2 - 1) for d in g.degree], [min(d, d // 2 + 1) for d in g.degree]
    )
    want = feasible_by_fresh_gadgets(g, b)
    got = feasible_subgraph(g, b)
    assert want is not None and got is not None and got.edge_set == want.edge_set
    assert sum(b.lower) > 500  # many units of deficiency were repaired
