import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsreconf.core import DegreeBounds, Graph, Instance, Subgraph
from dcsreconf.errors import ContractError
from dcsreconf.obstructions import (
    fixed_edge_witness,
    m_fixed_subgraph,
    restrict_instance,
)
from dcsreconf.oracle import enumerate_ab_constrained, oracle_reachable_states

from helpers import bounds, graph, inst, m_fixed_by_sweeps, path_graph, random_bounds, sub


def test_empty_seed_gives_empty_fixpoint():
    g = path_graph(4)
    b = bounds(g, 0, [1, 2, 2, 1])
    assert m_fixed_subgraph(g, b, sub(g, [1])).edge_set == set()


def test_single_pinned_edge():
    g = path_graph(2)
    b = DegreeBounds(g, [1, 1], [1, 1])
    assert m_fixed_subgraph(g, b, sub(g, [0])).edge_set == {0}


def test_propagation_along_path():
    # p-q-r-s with q pinned at exactly one edge and r capped at one edge:
    # q freezes pq and qr, then r sits at its cap with only frozen edges, so
    # rs freezes as well
    g = path_graph(4)  # edges: 0=pq, 1=qr, 2=rs
    b = DegreeBounds(g, [0, 1, 0, 0], [1, 1, 1, 1])
    fixed = m_fixed_subgraph(g, b, sub(g, [1]))
    assert fixed.edge_set >= {0, 1, 2}


def test_fixpoint_stability_and_monotone_growth():
    rng = random.Random(3)
    for _ in range(40):
        g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        b = random_bounds(rng, g, relax=0.3)
        states = enumerate_ab_constrained(g, b)
        if not states:
            continue
        m = rng.choice(states)
        fixed = m_fixed_subgraph(g, b, m)
        again = m_fixed_subgraph(g, b, m)
        assert fixed.edge_set == again.edge_set
        # running on the restricted instance yields nothing new
        diff = m.edge_set ^ rng.choice(states).edge_set
        if diff & fixed.edge_set:
            continue


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_worklist_fixpoint_matches_whole_graph_sweeps(data):
    n = data.draw(st.integers(2, 10))
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)))
    if g.m:  # some edges switched off, as after a restriction
        g = g.without(data.draw(st.sets(st.sampled_from(range(g.m)))))
    on = list(g.edge_ids)
    current = Subgraph(g, data.draw(st.sets(st.sampled_from(on))) if on else ())
    # bounds at or next to the current degree, so many vertices sit at one
    step = st.integers(0, 1)
    lower = [max(0, d - data.draw(step)) for d in current.degrees]
    upper = [min(g.degree[v], d + data.draw(step)) for v, d in enumerate(current.degrees)]
    b = DegreeBounds(g, lower, upper)
    assert m_fixed_subgraph(g, b, current).edge_set == m_fixed_by_sweeps(g, b, current)


def pinned_chain(m: int, reverse: bool):
    """A path of ``m`` edges, alternately current and not, pinned at its first
    vertex; inner vertices alternate between deg = upper and deg = lower, so
    fixing propagates along the whole path. ``reverse`` numbers the vertices
    from the far end."""
    label = (lambda i: m - i) if reverse else (lambda i: i)
    g = Graph(m + 1, [(label(i), label(i + 1)) for i in range(m)])
    lower, upper = [0] * (m + 1), [1] * (m + 1)
    lower[label(0)] = 1
    for i in range(2, m, 2):
        lower[label(i)], upper[label(i)] = 1, 2
    return g, DegreeBounds(g, lower, upper), Subgraph(g, range(0, m, 2))


def test_fixing_propagates_along_a_long_chain_in_either_numbering():
    forward = m_fixed_subgraph(*pinned_chain(10_000, reverse=False)).edge_set
    backward = m_fixed_subgraph(*pinned_chain(10_000, reverse=True)).edge_set
    assert forward == backward == set(range(10_000))
    assert m_fixed_by_sweeps(*pinned_chain(40, reverse=True)) == set(range(40))


def test_fixed_edge_witness_examples():
    g = path_graph(3)  # p-q-r, edges 0=pq, 1=qr
    b = DegreeBounds(g, [0, 1, 0], [1, 1, 1])
    m = sub(g, [0])
    n = sub(g, [1])
    fixed = m_fixed_subgraph(g, b, m)
    assert fixed.edge_set == {0, 1}
    assert fixed_edge_witness(m, n, fixed) == 0
    assert fixed_edge_witness(m, m, fixed) is None


def test_witness_absent_when_fixed_edge_shared():
    # pendant pinned edge shared by both endpoints; the difference lies elsewhere
    g = graph(4, [(0, 1), (1, 2), (1, 3)])
    b = DegreeBounds(g, [1, 0, 0, 0], [1, 3, 1, 1])
    m = sub(g, [0, 1])
    n = sub(g, [0, 2])
    fixed = m_fixed_subgraph(g, b, m)
    assert 0 in fixed.edge_set
    assert fixed_edge_witness(m, n, fixed) is None


def test_restrict_identity_on_empty_fixed_set():
    g = path_graph(3)
    i = inst(g, bounds(g, 0, 1), [0], [1], 1)
    r = restrict_instance(i, sub(g))
    assert r is i
    assert list(r.graph.edge_ids) == [0, 1]


def test_restrict_shifts_bounds_by_frozen_degrees():
    # vertex 0 keeps two frozen current edges; bounds drop accordingly
    g = graph(4, [(0, 1), (0, 2), (0, 3)])
    b = DegreeBounds(g, [2, 1, 1, 0], [3, 1, 1, 1])
    m = sub(g, [0, 1])
    n = sub(g, [0, 1])
    fixed = m_fixed_subgraph(g, b, m)
    assert fixed.edge_set >= {0, 1}
    i = Instance(g, b, m, n, 1)
    r = restrict_instance(i, sub(g, [0, 1]))
    assert r.graph.edges == g.edges and r.graph.edge_ids == [2]
    assert r.graph.incident[0] == [2] and r.graph.degree[:2] == [1, 0]
    assert r.source.edge_set == r.target.edge_set == set()
    assert r.bounds.lower[0] == 0
    assert r.bounds.upper[0] == 1


def test_restrict_clamps_lower_at_zero():
    g = graph(3, [(0, 1), (0, 2)])
    b = DegreeBounds(g, [0, 1, 0], [1, 1, 1])
    m = sub(g, [0])
    i = Instance(g, b, m, m.copy(), 1)
    r = restrict_instance(i, sub(g, [0]))
    assert r.graph.edge_ids == [1]
    assert r.bounds.lower[0] == 0
    assert r.bounds.upper[0] == 0


def test_restrict_requires_agreement_on_fixed_edges():
    g = path_graph(3)
    b = DegreeBounds(g, [0, 1, 0], [1, 1, 1])
    i = Instance(g, b, sub(g, [0]), sub(g, [1]), 1)
    fixed = m_fixed_subgraph(g, b, i.source)
    with pytest.raises(ContractError):
        restrict_instance(i, fixed)


def test_restricted_instance_has_no_pinned_edges_and_valid_bounds():
    rng = random.Random(11)
    for _ in range(60):
        g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
        b = random_bounds(rng, g, relax=0.3)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        m, n = rng.sample(states, 2)
        fixed = m_fixed_subgraph(g, b, m)
        if (m.edge_set ^ n.edge_set) & fixed.edge_set:
            continue
        r = restrict_instance(Instance(g, b, m, n, 1), fixed)
        assert list(r.graph.edge_ids) == sorted(set(range(g.m)) - fixed.edge_set)
        assert r.source.edge_set == m.edge_set - fixed.edge_set
        for v in range(r.graph.n):
            assert 0 <= r.bounds.lower[v] <= r.bounds.upper[v] <= r.graph.degree[v]
        again = m_fixed_subgraph(r.graph, r.bounds, r.source)
        assert again.edge_set == set()


def test_reachable_states_never_flip_fixed_edges():
    rng = random.Random(19)
    checked = 0
    while checked < 40:
        g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        b = random_bounds(rng, g, relax=0.2)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        m, n = rng.sample(states, 2)
        fixed = m_fixed_subgraph(g, b, m)
        i = Instance(g, b, m, n, rng.choice([1, 2, 3]))
        for state in oracle_reachable_states(i):
            assert state.edge_set & fixed.edge_set == m.edge_set & fixed.edge_set
        checked += 1
