"""Search for alternating trails with prescribed endpoint types.

A trail here alternates between edges outside and inside a reference edge set
("member" edges), with distinct edges but freely repeated vertices. The search
runs on a gadget graph in the manner of Gabow's reduction: every pool edge is
a matched pair of ports (one per endpoint), passing through a vertex pairs
ports of opposite sides, and two virtual terminals (sigma, tau) encode the
admissible start and end vertices. Alternating trails then correspond exactly
to matching-augmenting paths from sigma to tau, which are found with a
blossom search (the gadget contains odd alternating cycles, so plain BFS is
not enough).

The gadget is implicit and persistent. A ``Gadget`` keeps only the ports of
its pool, each vertex's ports split by side in pool order, and the blossom
search state. A port's neighbours are generated during the search: the ports
of the opposite side at its vertex, then sigma (outside ports at a source).
Tau is adjacent to the outside ports at an add sink and the member ports at
a remove sink; the search tests each port for that as it becomes outer. One
gadget serves every search of a loop: ``drop`` takes an edge out of the pool,
``flip`` moves it to the other side, and each search resets only the nodes it
reached. ``find_alternating_trail`` is the one-shot form.

A search pays for what it finds: it returns as soon as it queues a port at
a sink, without expanding the ports queued before it, so a short trail costs
about as much as the ports the search queues on the way. A gadget also keeps
the set of vertices with an outside port, the only vertices where a growing
trail can start or end, so a growing-trail search tests room there rather
than at every vertex.

``growing_trail`` asks once whether a growing trail exists, with one search
from every vertex with room. A peel loop instead takes its growing trails
from ``growing_trails``: a cursor over one-edge trails, then one search per
start in vertex order. Each moves past a start for good once it has no
trail, which is exact because the pool only loses edges and room only
shrinks, so the whole growing phase costs about what its trails reach plus
one missed search per start.

Every trail search lets a trail end back at its own start only where that
vertex can move two steps; ``Gadget.search`` owns that closing rule.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterable, Iterator

from .core import DegreeBounds, Graph, Subgraph
from .trail_type import Trail

_SIGMA = 0
_TAU = 1


class Gadget:
    """The port gadget of an edge pool around a member set, kept across searches.

    Node ``2 + 2j`` is the port of the pool's ``j``-th edge (in index order)
    at its first endpoint and ``3 + 2j`` the one at its second; the numbering
    stays fixed when edges are dropped or flipped. ``outside_vertices`` holds
    the vertices with at least one outside port.
    """

    def __init__(self, graph: Graph, pool: Iterable[int], member: set[int]):
        self.edges = sorted(pool)
        self.index = {e: j for j, e in enumerate(self.edges)}
        n_nodes = 2 + 2 * len(self.edges)
        vertex_of = [-1, -1] + [x for e in self.edges for x in graph.edges[e]]
        inside = [False, False] + [side for e in self.edges for side in (e in member,) * 2]
        inside_at: list[list[int]] = [[] for _ in range(graph.n)]
        outside_at: list[list[int]] = [[] for _ in range(graph.n)]
        for port in range(2, n_nodes):
            (inside_at if inside[port] else outside_at)[vertex_of[port]].append(port)
        self.vertex_of, self.inside = vertex_of, inside
        self.inside_at, self.outside_at = inside_at, outside_at
        self.outside_vertices = {x for x, ports in enumerate(outside_at) if ports}
        self.match = [-1, -1] + [p ^ 1 for p in range(2, n_nodes)]
        self.parent = [-1] * n_nodes
        self.base = list(range(n_nodes))
        self.used = [False] * n_nodes
        self.stamp = [0] * n_nodes
        self.epoch = 0

    def drop(self, e: int) -> None:
        """Take edge ``e`` out of the pool."""
        j = self.index.pop(e)
        for port in (2 + 2 * j, 3 + 2 * j):
            self._unlink(port)

    def flip(self, e: int) -> None:
        """Move edge ``e`` to the other side of the member set."""
        j = self.index[e]
        for port in (2 + 2 * j, 3 + 2 * j):
            self._unlink(port)
            self.inside[port] = not self.inside[port]
            insort(self._side_list(port), port)
            if not self.inside[port]:
                self.outside_vertices.add(self.vertex_of[port])

    def _side_list(self, port: int) -> list[int]:
        at = self.inside_at if self.inside[port] else self.outside_at
        return at[self.vertex_of[port]]

    def _unlink(self, port: int) -> None:
        ports = self._side_list(port)
        del ports[bisect_left(ports, port)]
        if not ports and not self.inside[port]:
            self.outside_vertices.discard(self.vertex_of[port])

    def search(
        self,
        sources: set[int],
        add_sinks: set[int],
        remove_sinks: set[int] = frozenset(),
        closes: Callable[[int], bool] | None = None,
    ) -> Trail | None:
        """Find a trail within the pool alternating around the member set.

        The trail starts at a vertex in ``sources`` with a non-member edge and
        either ends at a vertex in ``add_sinks`` with a non-member edge (odd
        trail, one more non-member than member edge) or at a vertex in
        ``remove_sinks`` with a member edge (even trail). Returns None when no
        such trail exists.

        ``closes``, when given, says where an odd trail may end back at its
        start. A lone source is taken out of ``add_sinks`` unless it closes;
        the set is restored before the search returns.
        Several are searched at once, and once per start in vertex order only
        when that returns a closed trail at a start that cannot close, since
        then acceptance depends on the start.
        """
        if closes is not None and len(sources) > 1:
            found = self.search(sources, add_sinks, remove_sinks)
            if found is None or not found.is_closed or closes(found.vertices[0]):
                return found
            for u in sorted(sources):
                found = self.search({u}, add_sinks, remove_sinks, closes)
                if found is not None:
                    return found
            return None
        if closes is not None and len(sources) == 1:
            (x,) = sources
            if x in add_sinks and not closes(x):
                # ``x`` leaves the sinks for this search only, which costs O(1)
                # where a copy of the sinks would cost O(|add_sinks|).
                add_sinks.discard(x)
                try:
                    return self._search({x}, add_sinks, remove_sinks)
                finally:
                    add_sinks.add(x)
        return self._search(sources, add_sinks, remove_sinks)

    def _search(
        self, sources: set[int], add_sinks: set[int], remove_sinks: set[int]
    ) -> Trail | None:
        if not self.index or not sources or not (add_sinks or remove_sinks):
            return None
        node_path = _augmenting_node_path(self, sources, add_sinks, remove_sinks)
        if node_path is None:
            return None
        return _decode(self, node_path)


def find_alternating_trail(
    graph: Graph,
    pool: Iterable[int],
    member: set[int],
    sources: set[int],
    add_sinks: set[int],
    remove_sinks: set[int] = frozenset(),
) -> Trail | None:
    """One search on a fresh gadget; see ``Gadget.search``."""
    if not sources or not (add_sinks or remove_sinks):
        return None
    return Gadget(graph, pool, member).search(sources, add_sinks, remove_sinks)


def growing_trail(gadget: Gadget, bounds: DegreeBounds, current: Subgraph) -> Trail | None:
    """A trail in the gadget's pool whose flip grows ``current`` by one edge.

    The gadget's member set must be ``current``. The trail starts and ends
    with non-member edges at vertices that can accept another edge; when both
    ends coincide, that vertex needs room for two. Returns None when no such
    trail exists.
    """
    degrees, upper = current.degrees, bounds.upper
    # Only a vertex with a non-member edge in the pool can start or end a
    # growing trail, so room is tested there alone.
    room = {v for v in gadget.outside_vertices if degrees[v] < upper[v]}
    return gadget.search(room, room, closes=lambda v: degrees[v] + 2 <= upper[v])


def growing_trails(gadget: Gadget, bounds: DegreeBounds, current: Subgraph) -> Iterator[Trail]:
    """The growing trails of a peel loop, one per resume, until none is left.

    The gadget's member set must be ``current``. The caller flips each trail
    into ``current`` and drops its edges from the pool before resuming, and
    changes nothing else, so no edge left in the pool changes side. Each
    trail is one ``growing_trail`` would accept; the generator is exhausted
    exactly when ``growing_trail`` would return None.

    The pool only loses edges and a grown trail's flip raises the degree at
    its two ends only, so the vertices with room only shrink. Hence a vertex
    with no one-edge trail, or whose own search misses, never gets a trail
    later (Edmonds 1965, as for augmenting paths); both cursors below move
    past such a vertex for good. The room set is kept in step with the pool:
    it changes only at the ends of each trail taken.
    """
    degrees, upper = current.degrees, bounds.upper
    room = {v for v in gadget.outside_vertices if degrees[v] < upper[v]}
    starts = sorted(room)
    edges, vertex_of, match = gadget.edges, gadget.vertex_of, gadget.match

    def settle(trail: Trail) -> None:
        """Take the ends of the trail just flipped out of ``room`` once full."""
        for v in (trail.vertices[0], trail.vertices[-1]):
            if degrees[v] >= upper[v]:
                room.discard(v)

    # One-edge trails first, at each start in vertex order: the first outside
    # port whose far end has room. While any one-edge trail is left, that is
    # the trail the multi-source root expansion returns first.
    for x in starts:
        while x in room:
            ports = gadget.outside_at[x]
            far = next((match[p] for p in ports if vertex_of[match[p]] in room), None)
            if far is None:
                break
            trail = Trail((x, vertex_of[far]), (edges[(far - 2) >> 1],))
            yield trail
            settle(trail)
    # Then one search from each start in vertex order, until it misses or the
    # start has no room left.
    for x in starts:
        while x in room:
            trail = gadget.search({x}, room, closes=lambda v: degrees[v] + 2 <= upper[v])
            if trail is None:
                break
            yield trail
            settle(trail)


def _decode(gadget: Gadget, node_path: list[int]) -> Trail:
    """Turn a terminal-to-terminal gadget path back into a trail."""
    assert node_path[0] == _SIGMA and node_path[-1] == _TAU
    inner = node_path[1:-1]
    assert inner and len(inner) % 2 == 0
    vertex_of = gadget.vertex_of

    edges: list[int] = []
    vertices: list[int] = []
    for i in range(0, len(inner), 2):
        entry, arrive = inner[i], inner[i + 1]
        assert gadget.match[entry] == arrive, "gadget path lost alternation"
        from_v = vertex_of[entry]
        if not vertices:
            vertices.append(from_v)
        assert vertices[-1] == from_v, "gadget path lost vertex continuity"
        edges.append(gadget.edges[(entry - 2) >> 1])
        vertices.append(vertex_of[arrive])
    return Trail(tuple(vertices), tuple(edges))


def _augmenting_node_path(
    gadget: Gadget, sources: set[int], add_sinks: set[int], remove_sinks: set[int]
) -> list[int] | None:
    """Blossom search for an augmenting path from sigma to tau.

    Tau's neighbours are the ports at a sink (inside at a remove sink, outside
    at an add sink), so the search returns as soon as such a port becomes
    outer: at the root's expansion, by tree growth, or in a blossom once it is
    relabelled. Blossom contraction keeps explicit member lists per base class
    (in a per-search dict) so each event touches only the absorbed nodes. The
    gadget's search arrays are left as found, early return included: the
    queue keeps every outer node, every other node the search reached is the
    partner of one, and ``stamp`` is versioned by a running epoch.
    """
    parent, base, used, stamp = gadget.parent, gadget.base, gadget.used, gadget.stamp
    match, vertex_of, inside = gadget.match, gadget.vertex_of, gadget.inside
    inside_at, outside_at = gadget.inside_at, gadget.outside_at
    root = _SIGMA
    members: dict[int, list[int]] = {}
    used[root] = True
    queue: list[int] = []  # never shrinks: ``head`` is the next node to expand
    epoch = gadget.epoch
    sinks = (add_sinks, remove_sinks)  # indexed by ``inside``: tau's neighbours

    def lca(a: int, b: int) -> int:
        nonlocal epoch
        epoch += 1
        x = a
        while True:
            x = base[x]
            stamp[x] = epoch
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if stamp[y] == epoch:
                return y
            y = parent[match[y]]

    def mark_path(v: int, stem: int, child: int, absorbed: list[int]) -> None:
        while base[v] != stem:
            absorbed.append(base[v])
            absorbed.append(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    try:
        # The root's expansion: each outside port at a source becomes inner
        # and its partner outer; when the partner is inner already (both ends
        # of the edge are sources), the edge closes a blossom whose base is
        # the root. The root's class is never absorbed, so its member list is
        # not kept.
        for x in sorted(sources):
            for u in outside_at[x]:
                w = match[u]
                parent[u] = root
                if parent[w] != -1:
                    base[u] = base[w] = root
                used[w] = True
                queue.append(w)
                if vertex_of[w] in sinks[inside[w]]:
                    return _walk_back(w, parent, match)
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            x = vertex_of[v]
            if inside[v]:
                neighbours = outside_at[x]
            else:
                neighbours = inside_at[x]
                if x in sources:
                    neighbours = neighbours + [_SIGMA]
            for u in neighbours:
                if base[v] == base[u] or match[v] == u:
                    continue
                if u == root or parent[match[u]] != -1:
                    stem = lca(v, u)
                    absorbed: list[int] = []
                    mark_path(v, stem, u, absorbed)
                    mark_path(u, stem, v, absorbed)
                    bucket = members.get(stem)
                    if bucket is None:
                        bucket = members[stem] = [stem]
                    outer = len(queue)
                    for rep in absorbed:
                        if base[rep] == stem:  # the stem itself, or absorbed already
                            continue
                        group = members.pop(rep, None) or [rep]
                        for i in group:
                            base[i] = stem
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                        bucket.extend(group)
                    for w in queue[outer:]:
                        if vertex_of[w] in sinks[inside[w]]:
                            return _walk_back(w, parent, match)
                elif parent[u] == -1:
                    parent[u] = v
                    w = match[u]
                    used[w] = True
                    queue.append(w)
                    if vertex_of[w] in sinks[inside[w]]:
                        return _walk_back(w, parent, match)
        return None
    finally:
        gadget.epoch = epoch
        used[root] = False
        for w in queue:
            for i in (w, match[w]):
                parent[i] = -1
                base[i] = i
                used[i] = False


def _walk_back(outer: int, parent: list[int], match: list[int]) -> list[int]:
    """The path from sigma to the outer port ``outer`` and on to tau."""
    path = [_TAU]
    v = outer
    while True:
        path.append(v)
        if match[v] == -1:
            break
        w = match[v]
        path.append(w)
        v = parent[w]
    path.reverse()
    return path
