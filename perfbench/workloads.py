"""Seeded instance generators for the three benchmark workloads.

Every generator returns plain instance documents (the JSON form that
``dcsreconf.instance_io.parse_instance`` reads) together with what the
construction knows about them: the expected answer, and for expected No
answers the planted cycle whose edges can never change. Nothing here imports
the decider, so the expected answers do not come from the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("loose-random", "tight-trails", "tight-cycles")

# Verdicts per run. The tail metric is the highest percentile with at least
# ten verdicts beyond it, which needs forty or more samples to be a tail.
POOL_SIZE = 40

# Synthesis recurses about once per two trail edges, and a trail of 992 edges
# exhausts the default recursion limit (see CHANGES.md). Tight trails stay
# well below that, so the benchmark times synthesis instead of a crash.
MAX_TRAIL_EDGES = 800


@dataclass
class Case:
    """One generated instance and what its construction guarantees."""

    kind: str
    doc: dict
    expected: bool | None  # None: no answer is known by construction
    frozen_cycle: tuple[int, ...] | None = None  # planted locked cycle (expected No)


def document(n, edges, lower, upper, source, target, k) -> dict:
    return {
        "version": 1,
        "vertices": n,
        "edges": [[u, v] for u, v in edges],
        "a": list(lower),
        "b": list(upper),
        "source": sorted(source),
        "target": sorted(target),
        "k": k,
    }


def degrees(n: int, edges, subset) -> list[int]:
    deg = [0] * n
    for e in subset:
        u, v = edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _random_edges(rng: random.Random, n: int, count: int, present: set) -> list[tuple[int, int]]:
    """``count`` new distinct vertex pairs, drawn uniformly by rejection."""
    if len(present) + count > n * (n - 1) // 2:
        raise ValueError(f"{n} vertices cannot hold {len(present) + count} edges")
    out = []
    while len(out) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or _key(u, v) in present:
            continue
        present.add(_key(u, v))
        out.append(_key(u, v))
    return out


def connected_host(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random connected simple graph: a random spanning tree plus random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    present: set = set()
    for i in range(1, n):
        present.add(_key(order[i], order[rng.randrange(i)]))
    present_list = sorted(present)
    extra = _random_edges(rng, n, max(0, m - len(present_list)), present)
    return sorted(present_list + extra)


# -- loose-random --------------------------------------------------------------


def loose_case(rng: random.Random, m: int) -> Case:
    """The loose-bounds recipe of the acceptance tests.

    Each vertex's bounds sit one below the smaller and one above the larger of
    its two degrees (clamped to [0, deg]), and k is drawn from {1, 2, 3}. The
    answer is not fixed by the construction; Yes answers are replayed and No
    answers must carry a certificate that holds in the source.
    """
    n = max(5, m // 3)
    edges = connected_host(rng, n, m)
    host_deg = degrees(n, edges, range(len(edges)))
    source = [e for e in range(len(edges)) if rng.random() < 0.4]
    target = [e for e in range(len(edges)) if rng.random() < 0.4]
    ds, dt = degrees(n, edges, source), degrees(n, edges, target)
    lower = [max(0, min(ds[v], dt[v]) - 1) for v in range(n)]
    upper = [min(host_deg[v], max(ds[v], dt[v]) + 1) for v in range(n)]
    k = rng.choice([1, 2, 3])
    return Case("loose", document(n, edges, lower, upper, source, target, k), None)


# -- tight-trails ----------------------------------------------------------------


def path_case(length: int) -> Case:
    """A bare path with a=0, b=1: source on the even edges, target on the odd ones, k=1."""
    n = length + 1
    edges = [(i, i + 1) for i in range(length)]
    doc = document(
        n, edges, [0] * n, [1] * n, range(0, length, 2), range(1, length, 2), 1
    )
    return Case("path", doc, True)


def even_cycle_case(length: int) -> Case:
    """A bare even cycle with a=0, b=1 at k=2: the uniformly upper-tight dip."""
    n = length
    edges = [_key(i, (i + 1) % n) for i in range(n)]
    doc = document(
        n, edges, [0] * n, [1] * n, range(0, length, 2), range(1, length, 2), 2
    )
    return Case("cycle", doc, True)


def planted_trails_case(rng: random.Random, lengths: list[int], m: int) -> Case:
    """Vertex-disjoint alternating paths planted in a random host, k=2.

    Source and target share a random set of common edges and differ exactly
    on the planted paths (source on the even positions). Interior vertices
    sit at their upper bound in both; each path's first vertex can shed and
    its last vertex can accept an edge, which are the conditions for flipping
    an open even trail in place, so the answer is Yes.
    """
    n = max(sum(lengths) + len(lengths) + 2, m // 3)
    verts = list(range(n))
    rng.shuffle(verts)
    present: set = set()
    edges: list[tuple[int, int]] = []
    source: list[int] = []
    target: list[int] = []
    lasts = []
    pos = 0
    for length in lengths:
        walk = verts[pos : pos + length + 1]
        pos += length + 1
        lasts.append(walk[-1])
        for i in range(length):
            present.add(_key(walk[i], walk[i + 1]))
            (source if i % 2 == 0 else target).append(len(edges))
            edges.append(_key(walk[i], walk[i + 1]))
    # a random spanning tree keeps the host connected
    for i in range(1, n):
        pair = _key(verts[i], verts[rng.randrange(i)])
        if pair not in present:
            present.add(pair)
            edges.append(pair)
    edges.extend(_random_edges(rng, n, max(0, m - len(edges)), present))
    common = [e for e in range(sum(lengths), len(edges)) if rng.random() < 0.3]
    source += common
    target += common
    ds = degrees(n, edges, source)
    host_deg = degrees(n, edges, range(len(edges)))
    upper = list(ds)
    lower = [0] * n
    for last in lasts:
        upper[last] = ds[last] + 1  # the last vertex gains the final target edge
    for v in range(n):
        if upper[v] == 0:  # untouched vertices get room, so none is pinned
            upper[v] = min(1, host_deg[v])
    return Case("planted", document(n, edges, lower, upper, source, target, 2), True)


# -- tight-cycles ----------------------------------------------------------------


def tight_cycle_case(
    rng: random.Random,
    kind: str,
    m: int,
    cycles: int,
    half: int,
    alt_half: int = 0,
) -> Case:
    """Slack 1 between two maximum subgraphs whose difference is b-tight cycles.

    ``cycles`` vertex-disjoint alternating cycles of length ``2 * half`` form
    the difference. Every vertex has a=0 and b equal to its source degree,
    which its target degree matches, so both subgraphs are maximum by
    counting. Each cycle gets a planted escape route y -o- z1 -c- z2 -o- s
    (o: in neither subgraph, c: in both) to one vertex s.

    kinds:
      escape   b(s) is one above its degree: Yes by the escape-set rule.
      locked   s is at its bound too, nothing has slack: No at slack 1.
      alt-no   as escape, plus an isolated alternately tight cycle of length
               ``2 * alt_half`` in its own component: No at any slack.
      alt-yes  as alt-no, plus a pendant common edge at one upper-tight cycle
               vertex, which unlocks the cycle: Yes.
    """
    cyc_n = cycles * 2 * half
    s = cyc_n
    route0 = s + 1
    filler0 = route0 + 2 * cycles
    n_main = max(filler0 + 4, m // 3)
    present: set = set()
    edges: list[tuple[int, int]] = []
    source: list[int] = []
    target: list[int] = []

    def add(u, v, side):
        present.add(_key(u, v))
        if side in ("s", "c"):
            source.append(len(edges))
        if side in ("t", "c"):
            target.append(len(edges))
        edges.append(_key(u, v))

    perm = list(range(n_main))
    rng.shuffle(perm)  # vertex names carry no structure
    for c in range(cycles):
        ring = [perm[c * 2 * half + i] for i in range(2 * half)]
        for i in range(2 * half):
            add(ring[i], ring[(i + 1) % (2 * half)], "s" if i % 2 == 0 else "t")
        y = ring[rng.randrange(2 * half)]
        z1, z2 = perm[route0 + 2 * c], perm[route0 + 2 * c + 1]
        add(y, z1, "o")
        add(z1, z2, "c")
        add(z2, perm[s], "o")
    # every vertex off the cycles gets a common edge, so no bound is 0 = a
    rest = [perm[v] for v in range(filler0, n_main)] + [perm[s]]
    rng.shuffle(rest)
    for i in range(0, len(rest) - 1, 2):
        add(rest[i], rest[i + 1], "c")
    if len(rest) % 2:
        add(rest[-1], rest[0], "c")
    more = max(0, m - len(edges) - 2 * alt_half)
    for u, v in _random_edges(rng, n_main, more, present):
        add(u, v, "c" if rng.random() < 0.25 else "o")
    # shuffle the main component's edge order; the alternately tight cycle
    # (if any) keeps the highest indices, so the decider peels it last
    order = list(range(len(edges)))
    rng.shuffle(order)
    new_pos = {old: new for new, old in enumerate(order)}
    edges = [edges[old] for old in order]
    source = [new_pos[e] for e in source]
    target = [new_pos[e] for e in target]
    n = n_main
    frozen = None
    alt_roles: dict[int, tuple[int, int]] = {}
    if kind in ("alt-no", "alt-yes"):
        ring = list(range(n, n + 2 * alt_half))
        n += 2 * alt_half
        first = len(edges)
        for i in range(2 * alt_half):
            add(ring[i], ring[(i + 1) % (2 * alt_half)], "s" if i % 2 == 0 else "t")
            alt_roles[ring[i]] = (1, 2) if i % 2 == 0 else (0, 1)
        if kind == "alt-no":
            frozen = tuple(range(first, len(edges)))
        else:
            y0 = ring[1]
            alt_roles[y0] = (0, 2)
            alt_roles[n] = (0, 1)
            add(y0, n, "c")
            n += 1
    ds = degrees(n, edges, source)
    lower = [0] * n
    upper = list(ds)
    for v, (lo, hi) in alt_roles.items():
        lower[v], upper[v] = lo, hi
    if kind != "locked":
        upper[perm[s]] += 1
    expected = kind in ("escape", "alt-yes")
    return Case(kind, document(n, edges, lower, upper, source, target, 1), expected, frozen)
