"""A gadget kept across drops, flips and searches answers like a fresh one."""

import itertools
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from dcsreconf.augmenting import Ends, Gadget, find_alternating_trail, growing_trail
from dcsreconf.core import DegreeBounds, Graph, Subgraph
from dcsreconf.trail_type import Trail


@st.composite
def edited_gadgets(draw):
    """A random graph, pool and member set, then a random run of drops,
    restores and flips.

    The graph has 3-12 vertices and 2-18 edges, the pool at least two thirds
    of them on random sides, and the run at most m/2 + 1 steps, flips twice
    as likely as drops, so that few pools end empty. A bounce drops an edge
    and restores it at once; after the run, each edge still dropped may be
    restored, on the side it left from. Returns the graph, the gadget after
    the run, and the pool and member set the run leads to.
    """
    n = draw(st.integers(3, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=2, max_size=18))
    g = Graph(n, chosen)
    pool = set(range(g.m)) - set(draw(st.lists(st.integers(0, g.m - 1), max_size=g.m // 3)))
    sides = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    member = {e for e, inside in zip(sorted(pool), sides) if inside}
    gadget = Gadget(g, pool, member)
    dropped: dict[int, bool] = {}  # edge -> whether it was a member when dropped
    ops = st.tuples(st.sampled_from(["drop", "bounce", "flip", "flip"]), st.integers(0, g.m - 1))
    for op, e in draw(st.lists(ops, max_size=g.m // 2 + 1)):
        if e not in pool:
            continue
        if op == "drop":
            gadget.drop([e])
            pool.discard(e)
            dropped[e] = e in member
            member.discard(e)
        elif op == "bounce":
            gadget.drop([e])
            gadget.restore([e])
        else:
            gadget.flip([e])
            member ^= {e}
    for e, was_member in dropped.items():
        if draw(st.booleans()):
            gadget.restore([e])
            pool.add(e)
            if was_member:
                member.add(e)
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
def test_member_first_search_matches_the_complemented_gadget(data):
    """A search whose first edge is a member edge finds the trail that a
    fresh gadget around the pool's complement finds with the sinks swapped:
    there a member edge first is the usual non-member edge first."""
    g, gadget, pool, member = data.draw(edited_gadgets())
    sources, add_sinks, remove_sinks = data.draw(terminals(g.n))
    closing = data.draw(st.none() | st.sets(st.integers(0, g.n - 1)))
    closes = None if closing is None else closing.__contains__
    complement = Gadget(g, pool, pool - member)
    want = complement.search(sources, remove_sinks, add_sinks, closes)
    assert gadget.search(sources, add_sinks, remove_sinks, closes, first_inside=True) == want


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
            gadget.drop([e])
            pool.discard(e)
            member.discard(e)
        else:
            gadget.flip([e])
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
    are searched again only after a closed trail at a start that cannot
    close: from the other starts when the terminals are symmetric, and one by
    one unless that misses. Either way the trail is the two-phase
    reference's."""
    g, gadget, pool, member, terminals, closing = case
    closes = closing.__contains__
    want = search_with_retries(g, pool, member, *terminals, closes)
    assert gadget.search(*terminals, closes) == want


@settings(max_examples=300, deadline=None)
@given(closing_cases())
def test_member_first_closing_rule_matches_the_complemented_gadget(case):
    """Where trails close, a member-first search applies the closing rule to
    its remove sinks, as the complemented gadget does to its add sinks."""
    g, gadget, pool, member, (sources, add_sinks, remove_sinks), closing = case
    closes = closing.__contains__
    want = Gadget(g, pool, pool - member).search(sources, add_sinks, remove_sinks, closes)
    assert gadget.search(sources, remove_sinks, add_sinks, closes, first_inside=True) == want


def growing_trail_over_every_vertex(g, pool, member, degrees, upper):
    """``growing_trail`` on fresh gadgets, testing room at every vertex."""
    room = {v for v in range(g.n) if degrees[v] < upper[v]}
    return search_with_retries(
        g, pool, member, room, room, set(), lambda v: degrees[v] + 2 <= upper[v]
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_growing_trail_tests_room_only_where_a_trail_can_end(data):
    """On an edited gadget, ``growing_trail`` finds the trail of fresh gadgets
    with room tested at every vertex."""
    g, gadget, pool, member = data.draw(edited_gadgets())
    rest = sorted(set(range(g.m)) - pool)
    extra = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    current = Subgraph(g, member | set(extra))
    upper = [data.draw(st.integers(0, g.degree[v])) for v in range(g.n)]
    bounds = DegreeBounds(g, [0] * g.n, upper)
    want = growing_trail_over_every_vertex(g, pool, member, current.degrees, upper)
    assert growing_trail(gadget, bounds, current) == want


def shortcut_case(rng):
    """Two small hosts side by side, where searches from several starts often
    close at a start that cannot close.

    The first host has 3-6 vertices and holds a closed odd trail
    x -o- a -m- b -o- x (o a non-member edge, m a member); ``x`` is its one
    vertex with room, for one edge, so that trail cannot close. The second
    has 3-7 vertices, 2-7 of them with room for one edge or two where their
    degree allows. In half the cases where the first host has more than
    three vertices, one of them off that trail gets room too, and its trails
    may all end at ``x``. Every edge joining two vertices with room is a
    member, so no one-edge trail joins them. The other edges are members at
    random.

    The starts are the vertices with room, and so are the add sinks, as in a
    growing search. One case in three adds a first-host add sink that is not
    a start, and one in three a first-host remove sink. Returns the graph,
    the member set, the upper bounds and the extra add and remove sinks.
    """
    n1, n2 = rng.randint(3, 6), rng.randint(3, 7)
    x, a, b = rng.sample(range(n1), 3)
    pairs = set()
    for first, size in ((0, n1), (n1, n2)):
        within = list(itertools.combinations(range(first, first + size), 2))
        pairs.update(rng.sample(within, rng.randint(min(size, len(within)), len(within))))
    ab = (min(a, b), max(a, b))
    trail = {(min(x, a), max(x, a)), ab, (min(x, b), max(x, b))}
    g = Graph(n1 + n2, sorted(pairs | trail))
    starts = set(rng.sample(range(n1, n1 + n2), rng.randint(2, n2)))
    if n1 > 3 and rng.random() < 0.5:
        starts.add(rng.choice([v for v in range(n1) if v not in (x, a, b)]))
    member = {
        e
        for e, pair in enumerate(g.edges)
        if pair == ab
        or (pair not in trail and (set(pair) <= starts | {x} or rng.random() < 0.5))
    }
    degrees = Subgraph(g, member).degrees
    upper = list(degrees)
    upper[x] += 1
    for v in starts:
        upper[v] = min(g.degree[v], degrees[v] + rng.randint(1, 2))
    extra, sink = rng.choice([None, "add", "remove"]), rng.choice([v for v in range(n1) if v != x])
    more_add = {sink} if extra == "add" else set()
    more_remove = {sink} if extra == "remove" else set()
    return g, member, upper, more_add, more_remove


def closing_path(g, pool, member, terminals, closes):
    """How ``Gadget.search`` settles a search from several starts, on fresh
    gadgets: 'plain' when the search from every start decides it, 'loop'
    when its trail closes at a start that cannot close and the terminals
    are not symmetric, else 'miss' or 'hit' by the search from the starts
    other than that trail's."""
    sources, add_sinks, remove_sinks = terminals
    found = find_alternating_trail(g, pool, member, *terminals)
    if len(sources) < 2 or found is None or not found.is_closed or closes(found.vertices[0]):
        return "plain"
    if remove_sinks or not add_sinks <= sources:
        return "loop"
    others = sources - {found.vertices[0]}
    return "miss" if find_alternating_trail(g, pool, member, others, add_sinks) is None else "hit"


def test_searches_closing_at_a_start_that_cannot_close_match_the_references():
    """Searches from several starts, biased toward a first trail that closes
    at a start that cannot close. Whether the terminals are not symmetric
    (the per-start loop), or the search from the other starts misses (None
    at once) or hits (the loop), the trail is the two-phase reference's; and
    on symmetric terminals ``growing_trail``'s is that of fresh gadgets
    testing room at every vertex. All three ways are taken often."""
    rng = random.Random(4)
    paths = Counter()
    for _ in range(1200):
        g, member, upper, more_add, more_remove = shortcut_case(rng)
        current = Subgraph(g, member)
        degrees = current.degrees
        room = {v for v in range(g.n) if degrees[v] < upper[v]}
        terminals = (room, room | more_add, more_remove)

        def closes(v):
            return degrees[v] + 2 <= upper[v]

        pool = set(g.edge_ids)
        paths[closing_path(g, pool, member, terminals, closes)] += 1
        gadget = Gadget(g, pool, member)
        want = search_with_retries(g, pool, member, *terminals, closes)
        assert gadget.search(*terminals, closes) == want
        if more_add or more_remove:
            continue
        bounds = DegreeBounds(g, [0] * g.n, upper)
        want = growing_trail_over_every_vertex(g, pool, member, degrees, upper)
        assert growing_trail(gadget, bounds, current) == want
    assert min(paths["loop"], paths["miss"], paths["hit"]) >= 50, paths


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ends_settled_after_each_flip_match_fresh_ends(data):
    """Flip a run of trails found on an edited gadget, each with its
    first edge on a random side, settling after each: ``room`` and
    ``spare`` stay the sets a fresh ``Ends`` builds."""
    g, gadget, pool, member = data.draw(edited_gadgets())
    rest = sorted(set(range(g.m)) - pool)
    extra = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    current = Subgraph(g, member | set(extra))
    lower = [data.draw(st.integers(0, g.degree[v])) for v in range(g.n)]
    upper = [data.draw(st.integers(lower[v], g.degree[v])) for v in range(g.n)]
    bounds = DegreeBounds(g, lower, upper)
    ends = Ends(current, bounds)
    for _ in range(data.draw(st.integers(1, 6))):
        sources, add_sinks, remove_sinks = data.draw(terminals(g.n))
        first_inside = data.draw(st.booleans())
        trail = gadget.search(sources, add_sinks, remove_sinks, first_inside=first_inside)
        if trail is None:
            continue
        current.flip(trail.edges)
        gadget.flip(trail.edges)
        ends.settle(trail)
        fresh = Ends(current, bounds)
        assert (ends.room, ends.spare) == (fresh.room, fresh.spare)
