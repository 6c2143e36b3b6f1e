"""Shared builders and brute-force reference computations for the tests."""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import dcsreconf
from dcsreconf.augmenting import Ends, Gadget, find_alternating_trail
from dcsreconf.core import DegreeBounds, Graph, Instance, Move, Subgraph
from dcsreconf.errors import ContractError
from dcsreconf.external import _escape_trail
from dcsreconf.oracle import enumerate_ab_constrained
from dcsreconf.trail_type import Trail
from dcsreconf.trails import ab_tight_roles


def graph(n: int, edges) -> Graph:
    return Graph(n, edges)


def bounds(g: Graph, lower, upper) -> DegreeBounds:
    if isinstance(lower, int):
        lower = [min(lower, g.degree[v]) for v in range(g.n)]
    if isinstance(upper, int):
        upper = [min(upper, g.degree[v]) for v in range(g.n)]
    return DegreeBounds(g, lower, upper)


def sub(g: Graph, edges=()) -> Subgraph:
    return Subgraph(g, edges)


def inst(g: Graph, b: DegreeBounds, source, target, k: int) -> Instance:
    instance = Instance(g, b, sub(g, source), sub(g, target), k)
    instance.validate()
    return instance


def validate_trail(trail: Trail, g: Graph) -> None:
    """Each trail edge joins the trail's vertices on either side of it in ``g``."""
    for i, e in enumerate(trail.edges):
        u, v = g.edges[e]
        if {trail.vertices[i], trail.vertices[i + 1]} != {u, v}:
            raise ContractError(f"trail edge {e} does not join positions {i},{i + 1}")


def flipped(current: Subgraph, trail) -> Subgraph:
    """A copy of ``current`` with the trail's edges flipped."""
    out = current.copy()
    out.flip(trail.edges)
    return out


def next_growing_trail(g: Graph, b: DegreeBounds, current: Subgraph, target: Subgraph):
    """The growing trail a peel loop takes next, from fresh searches on
    current^target: the first one-edge trail (least start, then least edge),
    else the trail of the least start whose own search finds one, every
    smaller start with room missing on its own fresh gadget. None when no
    start has a trail."""
    diff = current.edge_set ^ target.edge_set
    room = [v for v in range(g.n) if current.degrees[v] < b.upper[v]]
    for x in room:
        for e in sorted(g.incident[x]):
            y = g.other_end(e, x)
            if e in diff and e not in current and current.degrees[y] < b.upper[y]:
                return Trail((x, y), (e,))
    for x in room:
        # the trail may close at x only where x has room for two
        sinks = set(room) if current.degrees[x] + 2 <= b.upper[x] else set(room) - {x}
        trail = find_alternating_trail(g, diff, current.edge_set, {x}, sinks)
        if trail is not None:
            return trail
    return None


def maximal_trail_by_incidence(diff, current: Subgraph, start_edge: int) -> Trail:
    """The maximal alternating trail around ``start_edge`` by a walk over
    ``graph.incident``: each end takes the least unused edge of ``diff`` on
    the opposite side, the back end first.

    Reference for ``Gadget.maximal_trail``, which walks its pool's
    per-vertex port lists instead.
    """
    graph = current.graph
    u, v = graph.edges[start_edge]
    used = {start_edge}

    def extension(at: int, side_of: int) -> int | None:
        want_inside = side_of not in current
        for e in graph.incident[at]:
            if e in used or e not in diff:
                continue
            if (e in current) == want_inside:
                return e
        return None

    def extend(vertices: list[int], edges: list[int]) -> None:
        while (e := extension(vertices[-1], edges[-1])) is not None:
            vertices.append(graph.other_end(e, vertices[-1]))
            edges.append(e)
            used.add(e)

    back_vertices, back_edges = [u, v], [start_edge]
    extend(back_vertices, back_edges)
    front_vertices, front_edges = [v, u], [start_edge]
    extend(front_vertices, front_edges)
    trail = Trail(
        tuple(front_vertices[:1:-1] + back_vertices), tuple(front_edges[:0:-1] + back_edges)
    )
    return trail.reversed() if trail.edges[0] > trail.edges[-1] else trail


def library_lines(f, counts=None) -> int:
    """The line events in ``dcsreconf`` frames while ``f()`` runs.

    ``counts``, when given, says which code objects count instead. A line
    event counts a builtin call once, whatever its size.
    """
    package = str(Path(dcsreconf.__file__).parent)
    counts = counts or (lambda code: code.co_filename.startswith(package))
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if counts(frame.f_code) else None)
    try:
        f()
    finally:
        sys.settrace(before)
    return lines


def on_copy(worker, trail, current: Subgraph, *args, **kwargs) -> list[Move]:
    """The moves an in-place synthesis worker emits for ``trail``, run on a copy.

    The worker is called as ``worker(trail, ctx, *args, out, **kwargs)``, so
    ``current`` is left as it was.
    """
    out: list[Move] = []
    worker(trail, current.copy(), *args, out, **kwargs)
    return out


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def all_subsets(g: Graph):
    for mask in range(1 << g.m):
        yield [e for e in range(g.m) if mask >> e & 1]


def feasible_subsets(g: Graph, b: DegreeBounds) -> list[Subgraph]:
    out = []
    for edges in all_subsets(g):
        s = Subgraph(g, edges)
        if all(b.lower[v] <= s.degrees[v] <= b.upper[v] for v in range(g.n)):
            out.append(s)
    return out


def brute_max_size(g: Graph, b: DegreeBounds) -> int | None:
    sizes = [len(s) for s in feasible_subsets(g, b)]
    return max(sizes) if sizes else None


def brute_below_upper_in_some_maximum(g: Graph, b: DegreeBounds) -> set[int]:
    """Vertices left strictly below their upper bound by some maximum subgraph."""
    states = feasible_subsets(g, b)
    if not states:
        return set()
    best = max(len(s) for s in states)
    out: set[int] = set()
    for s in states:
        if len(s) == best:
            out.update(v for v in range(g.n) if s.degrees[v] < b.upper[v])
    return out


@dataclass(frozen=True)
class EvenSet:
    """Vertices that can reach spare capacity along an alternating trail.

    A vertex belongs to the set when it is strictly below its upper bound
    (the empty trail already ends at spare capacity), or when it is strictly
    above its lower bound and some even-length alternating trail starting
    with a current edge leads to a vertex strictly below its upper bound.
    For a maximum current subgraph this is exactly the set of vertices left
    below their upper bound by some maximum feasible subgraph.
    """

    members: frozenset[int]

    def __contains__(self, v: int) -> bool:
        return v in self.members


def compute_even_set(graph: Graph, bounds: DegreeBounds, current: Subgraph) -> EvenSet:
    """The even set, from one escape-trail search per vertex at its upper bound."""
    members = set()
    gadget = Gadget(graph, graph.edge_ids, current.edge_set)
    ends = Ends(current, bounds)
    for v in range(graph.n):
        if current.degrees[v] < bounds.upper[v]:
            members.add(v)  # the empty trail already ends at spare capacity
        elif _escape_trail({v}, gadget, ends) is not None:
            members.add(v)
    return EvenSet(frozenset(members))


def m_fixed_by_sweeps(graph: Graph, bounds: DegreeBounds, current: Subgraph) -> set[int]:
    """The fixed-edge fixpoint by whole-graph sweeps until nothing changes.

    Reference for ``obstructions.m_fixed_subgraph``: a propagation chain
    numbered against the sweep order gains one edge per sweep.
    """
    fixed: set[int] = set()
    for v in range(graph.n):
        if bounds.lower[v] == bounds.upper[v]:
            fixed.update(graph.incident[v])
    prev = -1
    while len(fixed) > prev:
        prev = len(fixed)
        for v in range(graph.n):
            inc = graph.incident[v]
            in_cur = [e for e in inc if e in current]
            if current.degrees[v] == bounds.upper[v] and all(e in fixed for e in in_cur):
                fixed.update(inc)
            elif current.degrees[v] == bounds.lower[v] and all(
                e in fixed for e in inc if e not in current.edge_set
            ):
                fixed.update(inc)
    return fixed


def feasible_by_fresh_gadgets(graph: Graph, bounds: DegreeBounds) -> Subgraph | None:
    """A feasible subgraph by repairing the first deficient vertex, one search
    on a fresh whole-host gadget per unit of deficiency.

    Reference for ``solver.feasible_subgraph``, which keeps one gadget and
    its sink sets in step with every repair instead.
    """
    sub = Subgraph(graph)
    while True:
        deficient = next(
            (v for v in range(graph.n) if sub.degrees[v] < bounds.lower[v]), None
        )
        if deficient is None:
            return sub
        v = deficient
        add_sinks = {
            w for w in range(graph.n) if w != v and sub.degrees[w] < bounds.upper[w]
        }
        if sub.degrees[v] + 2 <= bounds.upper[v]:
            add_sinks.add(v)
        remove_sinks = {
            w for w in range(graph.n) if w != v and sub.degrees[w] > bounds.lower[w]
        }
        trail = find_alternating_trail(
            graph, graph.edge_ids, sub.edge_set, {v}, add_sinks, remove_sinks
        )
        if trail is None:
            return None
        sub.flip(trail.edges)


def unlocking_trail_by_fresh_gadget(
    cycle: Trail, current: Subgraph, graph: Graph, bounds: DegreeBounds
) -> Trail | None:
    """The unlocking trail of an alternately tight cycle, searched on a fresh
    gadget over the off-cycle edges with sink sets built for this cycle.

    Reference for ``external.exists_unlocking_subgraph``, which searches the
    caller's kept whole-host gadget, with the cycle's edges dropped, and its
    kept ``Ends`` instead.
    """
    roles = ab_tight_roles(cycle, current, bounds)
    if roles is None:
        raise ContractError("cycle is not alternately tight in the current subgraph")
    on_cycle = set(cycle.edges)
    room = [b - d for b, d in zip(bounds.upper, current.degrees)]
    spare = [d - a for d, a in zip(current.degrees, bounds.lower)]
    add_sinks = {v for v, steps in enumerate(room) if steps > 0}
    remove_sinks = {v for v, steps in enumerate(spare) if steps > 0}
    gadget = None
    for inside, ahead in ((False, room), (True, spare)):
        starts = {
            v
            for v, r in zip(cycle.vertices, roles)
            if (r == "b") == inside
            and any(e not in on_cycle and (e in current) == inside for e in graph.incident[v])
        }
        if not starts:
            continue
        if gadget is None:
            pool = [e for e in graph.edge_ids if e not in on_cycle]
            gadget = Gadget(graph, pool, current.edge_set)
        found = gadget.search(
            starts, add_sinks, remove_sinks, lambda v: ahead[v] >= 2, first_inside=inside
        )
        if found is not None:
            return found
    return None


def many_cycle_instance(rng, m: int, cycles: int) -> Instance:
    """A loose host of ``m`` edges plus ``cycles`` alternately tight 4-cycles,
    each unlocked by one pendant edge, at slack 2.

    The filler is ``sparse_connected_graph(rng, m // 3, m)``, the same random
    30% of it in the source and the target, with bounds one below and one
    above each degree (clamped to [0, deg]). Each 4-cycle, on new vertices,
    alternates source and target edges, with bounds (1, 2) and (0, 1) in
    turn; one (0, 1) vertex is raised to (0, 2) and gets a pendant edge in
    both subgraphs to a new (0, 1) vertex. The answer is Yes.
    """
    filler = sparse_connected_graph(rng, m // 3, m)
    edges = list(filler.edges)
    n = filler.n
    common = {e for e in range(filler.m) if rng.random() < 0.3}
    source, target = set(common), set(common)
    lower = [0] * (n + 5 * cycles)
    upper = [0] * (n + 5 * cycles)
    degree = [0] * n
    for e in common:
        for v in filler.edges[e]:
            degree[v] += 1
    for v in range(n):
        lower[v], upper[v] = max(0, degree[v] - 1), min(filler.degree[v], degree[v] + 1)
    for c in range(cycles):
        ring = [n + 5 * c + i for i in range(4)]
        pendant = n + 5 * c + 4
        for i, u in enumerate(ring):
            (source if i % 2 == 0 else target).add(len(edges))
            edges.append((u, ring[(i + 1) % 4]))
            lower[u], upper[u] = (1, 2) if i % 2 == 0 else (0, 1)
        upper[ring[1]] = 2
        source.add(len(edges))
        target.add(len(edges))
        edges.append((ring[1], pendant))
        lower[pendant], upper[pendant] = 0, 1
    g = Graph(n + 5 * cycles, edges)
    return Instance(g, DegreeBounds(g, lower, upper), Subgraph(g, source), Subgraph(g, target), 2)


def _canonical(n: int, edges: frozenset[tuple[int, int]]) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


@lru_cache(maxsize=None)
def graphs_up_to_iso(n: int, connected_only: bool) -> tuple[Graph, ...]:
    """All graphs on exactly ``n`` labelled vertices, one per isomorphism class."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if connected_only and not _is_connected(n, edges):
            continue
        key = _canonical(n, edges)
        if key in seen:
            continue
        seen.add(key)
        out.append(Graph(n, sorted(edges)))
    return tuple(out)


def _is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_bounds(rng, g: Graph, relax: float = 0.5) -> DegreeBounds:
    lower, upper = [], []
    for v in range(g.n):
        hi = rng.randint(0, g.degree[v])
        lo = rng.randint(0, hi)
        if rng.random() < relax:
            lo = max(0, lo - 1)
        lower.append(lo)
        upper.append(hi)
    return DegreeBounds(g, lower, upper)


def random_connected_graph(rng, n: int, m: int) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    rng.shuffle(pool)
    for pair in pool[: max(0, m - len(edges))]:
        edges.add(pair)
    return Graph(n, sorted(edges))


def sparse_connected_graph(rng, n: int, m: int) -> Graph:
    """``random_connected_graph`` for hosts too large to list every vertex
    pair: the extra edges are drawn by rejection instead."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def loose_instance(rng, n: int, m: int, connected=random_connected_graph) -> Instance:
    """Random source and target (each edge with probability 0.4) on a random
    connected host (from ``connected``), bounds one below and one above their
    degrees, k in 1..3."""
    g = connected(rng, n, m)
    s1 = Subgraph(g, [e for e in range(g.m) if rng.random() < 0.4])
    s2 = Subgraph(g, [e for e in range(g.m) if rng.random() < 0.4])
    lower = [max(0, min(s1.degrees[v], s2.degrees[v]) - 1) for v in range(g.n)]
    upper = [
        min(g.degree[v], max(s1.degrees[v], s2.degrees[v]) + 1) for v in range(g.n)
    ]
    return Instance(g, DegreeBounds(g, lower, upper), s1, s2, rng.choice([1, 2, 3]))


def random_bounds_instance(rng) -> Instance:
    """Two distinct feasible subgraphs of a random connected host with 3-8
    vertices and at most 12 edges under ``random_bounds``, k in 1..3 (1 twice
    as often). Such bounds pin vertices (lower = upper) and leave closed
    trails to peel."""
    while True:
        n = rng.randint(3, 8)
        g = random_connected_graph(rng, n, rng.randint(n - 1, 12))
        b = random_bounds(rng, g)
        states = enumerate_ab_constrained(g, b)
        if len(states) >= 2:
            s1, s2 = rng.sample(states, 2)
            return Instance(g, b, s1, s2, rng.choice([1, 1, 2, 3]))


def planted_tight_cycles(rng, m: int, cycles: int, locked: bool) -> Instance:
    """Slack 1 between two maximum subgraphs whose difference is upper-tight cycles.

    ``cycles`` vertex-disjoint alternating cycles of 4, 6 or 8 edges form the
    difference, each with an escape route from one of its vertices to a vertex
    ``s``: an alternating path of 1 to 3 edges in neither subgraph, joined by
    edges in both. Every vertex off the cycles gets an edge in both, and random
    edges (a quarter in both) fill the host to ``m`` edges. Bounds are a=0 and
    b = the source degree, which the target shares, so both are maximum; ``s``
    has one unit of room unless ``locked``. The answer is Yes at slack 1
    exactly when not ``locked``.
    """
    n = max(m // 3, 12 * cycles + 2)
    names = list(range(n))
    rng.shuffle(names)
    fresh = iter(names)
    edges: dict[tuple[int, int], str] = {}

    def add(u: int, v: int, side: str) -> None:
        edges[(min(u, v), max(u, v))] = side

    s = next(fresh)
    for _ in range(cycles):
        ring = [next(fresh) for _ in range(rng.choice((4, 6, 8)))]
        for i, u in enumerate(ring):
            add(u, ring[(i + 1) % len(ring)], "source" if i % 2 else "target")
        at = rng.choice(ring)
        for _ in range(rng.randint(1, 3) - 1):
            z1, z2 = next(fresh), next(fresh)
            add(at, z1, "neither")
            add(z1, z2, "both")
            at = z2
        add(at, s, "neither")
    rest = list(fresh) + [s]
    rng.shuffle(rest)
    for i in range(0, len(rest) - 1, 2):
        add(rest[i], rest[i + 1], "both")
    if len(rest) % 2:
        add(rest[-1], rest[0], "both")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    for pair in rng.sample(pairs, max(0, m - len(edges))):
        edges[pair] = "both" if rng.random() < 0.25 else "neither"
    order = list(edges)
    rng.shuffle(order)
    g = Graph(n, order)
    source = Subgraph(g, [e for e, p in enumerate(order) if edges[p] in ("source", "both")])
    target = Subgraph(g, [e for e, p in enumerate(order) if edges[p] in ("target", "both")])
    upper = list(source.degrees)
    if not locked:
        upper[s] += 1
    return Instance(g, DegreeBounds(g, [0] * n, upper), source, target, 1)


def relabelled(inst: Instance, rng) -> Instance:
    """The same instance with its vertices renamed and its edges reordered."""
    g = inst.graph
    name = list(range(g.n))
    rng.shuffle(name)
    order = list(range(g.m))
    rng.shuffle(order)
    position = {e: i for i, e in enumerate(order)}
    h = Graph(g.n, [(name[g.edges[e][0]], name[g.edges[e][1]]) for e in order])
    lower, upper = [0] * g.n, [0] * g.n
    for v in range(g.n):
        lower[name[v]], upper[name[v]] = inst.bounds.lower[v], inst.bounds.upper[v]

    def moved(sub: Subgraph) -> Subgraph:
        return Subgraph(h, [position[e] for e in sub.edge_set])

    bounds = DegreeBounds(h, lower, upper)
    return Instance(h, bounds, moved(inst.source), moved(inst.target), inst.k)
