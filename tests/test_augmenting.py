"""A gadget kept across drops, flips and searches answers like a fresh one."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dcsreconf.augmenting import Gadget, find_alternating_trail, growing_trail
from dcsreconf.core import DegreeBounds, Graph, Subgraph
from dcsreconf.trail_type import Trail


@st.composite
def edited_gadgets(draw):
    """A random graph, pool and member set, then a random run of drops and flips.

    Returns the graph, the gadget after the run, and the pool and member set
    the run leads to.
    """
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=18))
    g = Graph(n, chosen)
    pool = set(draw(st.lists(st.integers(0, g.m - 1), unique=True)))
    member = set(draw(st.lists(st.sampled_from(sorted(pool)), unique=True))) if pool else set()
    gadget = Gadget(g, pool, member)
    for op, e in draw(st.lists(st.tuples(st.sampled_from(["drop", "flip"]), st.integers(0, g.m - 1)))):
        if e not in pool:
            continue
        if op == "drop":
            gadget.drop(e)
            pool.discard(e)
            member.discard(e)
        else:
            gadget.flip(e)
            member ^= {e}
    return g, gadget, pool, member


def terminals(n: int):
    vertex_sets = st.sets(st.integers(0, n - 1))
    return st.tuples(vertex_sets, vertex_sets, vertex_sets)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_gadget_matches_fresh_search(data):
    g, gadget, pool, member = data.draw(edited_gadgets())
    sources, add_sinks, remove_sinks = data.draw(terminals(g.n))
    want = find_alternating_trail(g, pool, member, sources, add_sinks, remove_sinks)
    assert gadget.search(sources, add_sinks, remove_sinks) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_back_to_back_searches_match_fresh_searches(data):
    g, gadget, pool, member = data.draw(edited_gadgets())
    for _ in range(2):
        sources, add_sinks, remove_sinks = data.draw(terminals(g.n))
        want = find_alternating_trail(g, pool, member, sources, add_sinks, remove_sinks)
        assert gadget.search(sources, add_sinks, remove_sinks) == want


def test_search_leaves_the_gadget_state_as_found():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    gadget = Gadget(g, range(g.m), {0, 2})
    before = (list(gadget.parent), list(gadget.base), list(gadget.used))
    assert gadget.search({0, 1, 2, 3}, {0, 1, 2, 3}, {1}) is not None
    assert gadget.search({3}, set(), {3}) == Trail((3, 0, 1, 2, 3), (3, 0, 1, 2))
    assert gadget.search({1}, {1}) is None
    assert (gadget.parent, gadget.base, gadget.used) == before


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_edge_trail_is_preferred(data):
    """A non-member edge from a source to an add sink is returned on its own:
    the first one by source vertex, then by pool order."""
    g, gadget, pool, member = data.draw(edited_gadgets())
    sources, add_sinks, remove_sinks = data.draw(terminals(g.n))
    first = next(
        (
            Trail((x, g.other_end(e, x)), (e,))
            for x in sorted(sources)
            for e in sorted(pool - member)
            if x in g.edges[e] and g.other_end(e, x) in add_sinks
        ),
        None,
    )
    if first is not None:
        assert gadget.search(sources, add_sinks, remove_sinks) == first


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_gadget_tracks_outside_vertices(data):
    g, gadget, pool, member = data.draw(edited_gadgets())
    assert gadget.outside_vertices == {x for e in pool - member for x in g.edges[e]}


def search_with_retries(g, pool, member, sources, add_sinks, remove_sinks, closes):
    """The closing rule on fresh gadgets, in two phases: every source at once,
    then, when that closes at a start that cannot close, once per start
    with that start dropped from the add sinks unless it can close."""
    found = find_alternating_trail(g, pool, member, sources, add_sinks, remove_sinks)
    if found is None or not found.is_closed or closes(found.vertices[0]):
        return found
    for u in sorted(sources):
        sinks = add_sinks if closes(u) else add_sinks - {u}
        found = find_alternating_trail(g, pool, member, {u}, sinks, remove_sinks)
        if found is not None:
            return found
    return None


@st.composite
def closing_cases(draw):
    """An edited gadget on a dense host, with terminals where trails close.

    The host has 3-10 vertices and at least as many edges, about half of them
    members, then a random run of drops and flips; hosts like these have the
    odd cycles a closed odd trail needs. The sources are one vertex or two
    or three. They are add sinks, as in a growing search, with sometimes one
    vertex more; the remove sinks are none or one vertex, and a quarter of
    the vertices can close. Returns the graph, the gadget, its pool and
    member set, the terminals and the vertices that can close.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(3, 10)
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, rng.sample(pairs, rng.randint(n, len(pairs))))
    pool = set(g.edge_ids)
    member = {e for e in pool if rng.random() < 0.5}
    gadget = Gadget(g, pool, member)
    for e in rng.sample(range(g.m), rng.randint(0, g.m // 3)):
        if rng.random() < 0.5:
            gadget.drop(e)
            pool.discard(e)
            member.discard(e)
        else:
            gadget.flip(e)
            member ^= {e}
    sources = set(rng.sample(range(n), 1 if rng.random() < 0.3 else rng.randint(2, 3)))
    add_sinks = sources | ({rng.randrange(n)} if rng.random() < 0.3 else set())
    remove_sinks = {rng.randrange(n)} if rng.random() < 0.3 else set()
    closing = {v for v in range(n) if rng.random() < 0.25}
    return g, gadget, pool, member, (sources, add_sinks, remove_sinks), closing


@settings(max_examples=300, deadline=None)
@given(closing_cases())
def test_search_applies_the_closing_rule_like_a_two_phase_reference(case):
    """A lone source is dropped from the add sinks at once; several sources
    are retried one by one only after a closed trail at a start that cannot
    close. Either way the trail is the two-phase reference's."""
    g, gadget, pool, member, terminals, closing = case
    closes = closing.__contains__
    want = search_with_retries(g, pool, member, *terminals, closes)
    assert gadget.search(*terminals, closes) == want


def growing_trail_over_every_vertex(g, pool, member, degrees, upper):
    """``growing_trail`` on fresh gadgets, testing room at every vertex."""
    room = {v for v in range(g.n) if degrees[v] < upper[v]}
    return search_with_retries(
        g, pool, member, room, room, set(), lambda v: degrees[v] + 2 <= upper[v]
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_growing_trail_tests_room_only_where_a_trail_can_end(data):
    """Room tested only at vertices with an outside port gives the same trail."""
    g, gadget, pool, member = data.draw(edited_gadgets())
    rest = sorted(set(range(g.m)) - pool)
    extra = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    current = Subgraph(g, member | set(extra))
    upper = [data.draw(st.integers(0, g.degree[v])) for v in range(g.n)]
    bounds = DegreeBounds(g, [0] * g.n, upper)
    want = growing_trail_over_every_vertex(g, pool, member, current.degrees, upper)
    assert growing_trail(gadget, bounds, current) == want
