"""Shared builders and brute-force reference computations for the tests."""

from __future__ import annotations

import itertools
from functools import lru_cache

from dcsreconf.core import DegreeBounds, Graph, Instance, Move, Subgraph


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


def flipped(current: Subgraph, trail) -> Subgraph:
    """A copy of ``current`` with the trail's edges flipped."""
    out = current.copy()
    out.flip(trail.edges)
    return out


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


def loose_instance(rng, n: int, m: int) -> Instance:
    """Random source and target (each edge with probability 0.4) on a random
    connected host, bounds one below and one above their degrees, k in 1..3."""
    g = random_connected_graph(rng, n, m)
    s1 = Subgraph(g, [e for e in range(g.m) if rng.random() < 0.4])
    s2 = Subgraph(g, [e for e in range(g.m) if rng.random() < 0.4])
    lower = [max(0, min(s1.degrees[v], s2.degrees[v]) - 1) for v in range(g.n)]
    upper = [
        min(g.degree[v], max(s1.degrees[v], s2.degrees[v]) + 1) for v in range(g.n)
    ]
    return Instance(g, DegreeBounds(g, lower, upper), s1, s2, rng.choice([1, 2, 3]))
