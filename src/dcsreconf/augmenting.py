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
of the opposite side at its vertex, then sigma. Sigma is adjacent to the
ports at a source on the first edge's side, outside unless the caller sets
``first_inside``; tau to the outside ports at an add sink and the member
ports at a remove sink, whichever side the trail starts on. Tau is never
built: the search tests each port for it as the port becomes outer. Sigma is
node 0 and the first entry of the search queue, expanded like any other outer
node. One gadget serves every search of a loop: ``drop`` takes edges out of
the pool, ``restore`` puts them back, ``flip`` moves them to the other side,
and each search resets only the nodes it reached. ``find_alternating_trail``
is the one-shot form. The same port lists serve the peel's maximal walk
(``maximal_trail``): each step reads the pool's opposite-side list at the
end vertex, never the host's incidence lists. The peel's fallback phase is
``maximal_trails``: one such walk around the least edge left per trail.

A search pays for what it finds: it returns as soon as it queues a port at
a sink, without expanding the ports queued before it, and walks that port's
tree back to sigma straight into the ``Trail``. So a short trail costs about
as much as the ports the search queues on the way.

``Ends`` holds where a trail around a subgraph may end, kept in step at each
flipped trail's two ends, and the one closing rule: a trail may end back at
its own start only where that vertex can move two steps.

``growing_trail`` asks once whether a growing trail exists, with one search
from every vertex with room at once. When that search closes at a start
with room for one edge, one more search from the other starts settles a
miss (the trail reversed starts at its other end, see ``Gadget.search``);
only when that one hits does it search once per start in vertex order.
``decider.Peel`` and ``solver.maximum_dcs`` instead take their growing
trails from ``growing_trails``, on their own gadget and ``Ends``: a cursor
over one-edge trails, then one search per start in vertex order, which
moves past a start for good once it misses.
Room only shrinks, whether a peel drops each trail from the pool or the
maximum search flips it, so the whole growing phase costs about what its
trails reach plus one missed search per start.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from .core import DegreeBounds, Graph, Subgraph
from .trail_type import Trail

_SIGMA = 0


class Gadget:
    """The port gadget of an edge pool around a member set, kept across searches.

    Node 0 is sigma and node 1 is unused (tau has no node). Node ``2 + 2j``
    is the port of the pool's ``j``-th edge (in index order) at its first
    endpoint and ``3 + 2j`` the one at its second; the numbering stays fixed
    when edges are dropped, restored or flipped.
    """

    def __init__(self, graph: Graph, pool: Iterable[int], member: set[int]):
        self.edges = sorted(pool)
        self.index = {e: j for j, e in enumerate(self.edges)}
        n_nodes = 2 + 2 * len(self.edges)
        vertex_of, inside = [-1, -1], [False, False]
        inside_at: list[list[int]] = [[] for _ in range(graph.n)]
        outside_at: list[list[int]] = [[] for _ in range(graph.n)]
        # One pass over the edges: ports are appended in increasing order, so
        # each side list comes out sorted.
        port = 2
        for e in self.edges:
            u, v = ends = graph.edges[e]
            side = e in member
            at = inside_at if side else outside_at
            at[u].append(port)
            at[v].append(port + 1)
            vertex_of += ends
            inside += (side, side)
            port += 2
        self.vertex_of, self.inside = vertex_of, inside
        self.inside_at, self.outside_at = inside_at, outside_at
        self.match = [-1, -1] + [p ^ 1 for p in range(2, n_nodes)]
        self.parent = [-1] * n_nodes
        self.base = list(range(n_nodes))
        self.used = [False] * n_nodes
        self.stamp = [0] * n_nodes
        self.epoch = 0

    def drop(self, edges: Iterable[int]) -> None:
        """Take the edges out of the pool."""
        index, vertex_of, inside = self.index, self.vertex_of, self.inside
        inside_at, outside_at = self.inside_at, self.outside_at
        for e in edges:
            j = index.pop(e)
            for port in (2 + 2 * j, 3 + 2 * j):
                ports = (inside_at if inside[port] else outside_at)[vertex_of[port]]
                del ports[bisect_left(ports, port)]

    def restore(self, edges: Iterable[int]) -> None:
        """Put the dropped edges back into the pool, each on the side it left from."""
        for e in edges:
            j = self.index[e] = bisect_left(self.edges, e)
            for port in (2 + 2 * j, 3 + 2 * j):
                insort(self._side_list(port), port)

    def flip(self, edges: Iterable[int]) -> None:
        """Move the edges to the other side of the member set."""
        for e in edges:
            j = self.index[e]
            for port in (2 + 2 * j, 3 + 2 * j):
                ports = self._side_list(port)
                del ports[bisect_left(ports, port)]
                self.inside[port] = not self.inside[port]
                insort(self._side_list(port), port)

    def _side_list(self, port: int) -> list[int]:
        at = self.inside_at if self.inside[port] else self.outside_at
        return at[self.vertex_of[port]]

    def maximal_trail(self, start: int) -> Trail:
        """The maximal alternating trail around the pool edge ``start``.

        Both ends are extended greedily, each step taking the first port of
        an unused edge in the end vertex's opposite-side list, which is in
        edge order, until neither end can go on; the trail closes by itself
        when its ends meet. It is oriented so its first edge is the smaller
        of its two end edges.
        """
        vertex_of, inside = self.vertex_of, self.inside
        inside_at, outside_at = self.inside_at, self.outside_at
        first = 2 + 2 * self.index[start]
        used = {first >> 1}  # an edge's two ports share ``port >> 1``

        def extend(end: int) -> list[int]:
            # The ports the walk leaves from, one per edge, from the end port
            # of the edge it arrived on.
            taken = []
            while True:
                for port in (outside_at if inside[end] else inside_at)[vertex_of[end]]:
                    if port >> 1 not in used:
                        break
                else:
                    return taken
                used.add(port >> 1)
                taken.append(port)
                end = port ^ 1

        # The back grows first; a front step only uses up edges, so a stuck
        # back stays stuck.
        back = extend(first + 1)
        front = extend(first)
        ports = [port ^ 1 for port in reversed(front)] + [first] + back
        edges = self.edges
        trail = Trail(
            tuple([vertex_of[port] for port in ports] + [vertex_of[ports[-1] ^ 1]]),
            tuple([edges[(port - 2) >> 1] for port in ports]),
        )
        return trail.reversed() if trail.edges[0] > trail.edges[-1] else trail

    def maximal_trails(self) -> Iterator[Trail]:
        """The maximal trail around the least edge left, one per resume, until
        the pool is empty; the caller drops each trail before resuming."""
        for e in self.edges:
            if e in self.index:
                yield self.maximal_trail(e)

    def search(
        self,
        sources: set[int],
        add_sinks: set[int],
        remove_sinks: set[int] = frozenset(),
        closes: Callable[[int], bool] | None = None,
        first_inside: bool = False,
    ) -> Trail | None:
        """Find a trail within the pool alternating around the member set.

        The trail starts at a vertex in ``sources`` with a non-member edge
        (a member edge when ``first_inside``) and ends at a vertex in
        ``add_sinks`` with a non-member edge or in ``remove_sinks`` with a
        member edge; it is odd when it ends on its first edge's side. Returns
        None when no such trail exists.

        ``closes``, when given, says where an odd trail may end back at its
        start. A lone source is taken out of its first side's sinks unless it
        closes; the set is restored before the search returns. Several are
        searched at once, and once per start in vertex order only when that
        returns a closed trail at a start ``x`` that cannot close, since then
        acceptance depends on the start.

        Before that loop, a symmetric search settles a miss with one more
        search. It is symmetric when it has no far-side sinks (where a trail
        would end on the side its first edge is not on) and every sink on the
        first side is a source. Then a valid trail from ``x`` is odd and ends
        at another sink, itself a source; reversed, it starts there and ends
        at ``x``, still a sink. So a plain search from the other sources, with
        ``x`` still a sink, finds a trail whenever any valid trail exists, and
        its miss means None. On a hit the loop runs as before and picks the
        same trail. Every growing search is symmetric: its sources and add
        sinks are one room set. A repair search has one source and never gets
        here; an unlock search takes the whole host's room and spare as
        sinks, on both sides and beyond its cycle starts, so it goes straight
        to the loop.
        """
        if closes is not None and len(sources) > 1:
            found = self.search(sources, add_sinks, remove_sinks, first_inside=first_inside)
            if found is None or not found.is_closed or closes(found.vertices[0]):
                return found
            own, far = (remove_sinks, add_sinks) if first_inside else (add_sinks, remove_sinks)
            if not far and own <= sources:
                others = sources - {found.vertices[0]}
                if self._search(others, add_sinks, remove_sinks, first_inside) is None:
                    return None
            for u in sorted(sources):
                found = self.search({u}, add_sinks, remove_sinks, closes, first_inside)
                if found is not None:
                    return found
            return None
        if closes is not None and len(sources) == 1:
            (x,) = sources
            own = remove_sinks if first_inside else add_sinks
            if x in own and not closes(x):
                # ``x`` leaves them for this search only: O(1), where a copy costs O(|own|)
                own.discard(x)
                try:
                    return self._search({x}, add_sinks, remove_sinks, first_inside)
                finally:
                    own.add(x)
        return self._search(sources, add_sinks, remove_sinks, first_inside)

    def _search(
        self, sources: set[int], add_sinks: set[int], remove_sinks: set[int], first_inside: bool
    ) -> Trail | None:
        if not self.index or not sources or not (add_sinks or remove_sinks):
            return None
        return _augmenting_node_path(self, sources, add_sinks, remove_sinks, first_inside)


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


class Ends:
    """Where a trail alternating around ``current`` may end, kept in step with it.

    A trail's last edge moves its far end up when it is a non-member edge and
    down when it is a member edge, so the add sinks of every search around
    ``current`` are ``room`` (below the upper bound) and its remove sinks
    ``spare`` (above the lower bound). Call ``settle`` after each flip.
    """

    def __init__(self, current: Subgraph, bounds: DegreeBounds):
        self.degrees, self.lower, self.upper = current.degrees, bounds.lower, bounds.upper
        self.room = {v for v, (d, b) in enumerate(zip(self.degrees, self.upper)) if d < b}
        self.spare = {v for v, (d, a) in enumerate(zip(self.degrees, self.lower)) if d > a}

    def settle(self, trail: Trail) -> None:
        """Re-test the ends of a trail just flipped: its flip moves degrees there alone."""
        degrees, lower, upper = self.degrees, self.lower, self.upper
        room, spare = self.room, self.spare
        for v in (trail.vertices[0], trail.vertices[-1]):
            if degrees[v] < upper[v]:
                room.add(v)
            else:
                room.discard(v)
            if degrees[v] > lower[v]:
                spare.add(v)
            else:
                spare.discard(v)

    def closes(self, first_inside: bool) -> Callable[[int], bool]:
        """Where a trail may end back at its start: a start whose degree can
        take two steps the way its first edge's flip moves it."""
        degrees, lower, upper = self.degrees, self.lower, self.upper
        if first_inside:
            return lambda v: degrees[v] - 2 >= lower[v]
        return lambda v: degrees[v] + 2 <= upper[v]


def growing_trail(gadget: Gadget, bounds: DegreeBounds, current: Subgraph) -> Trail | None:
    """A trail in the gadget's pool whose flip grows ``current`` by one edge.

    The gadget's member set must be ``current``. The trail starts and ends
    with non-member edges at vertices that can accept another edge; when both
    ends coincide, that vertex needs room for two. Returns None when no such
    trail exists.
    """
    ends = Ends(current, bounds)
    return gadget.search(ends.room, ends.room, closes=ends.closes(False))


def growing_trails(gadget: Gadget, ends: Ends) -> Iterator[Trail]:
    """The growing trails of a grow loop, one per resume, until none is left.

    The gadget's member set must be the subgraph ``ends`` is kept around.
    Before resuming, the caller flips each trail into that subgraph, drops
    its edges from the pool (``decider.Peel``) or flips them in the gadget
    (``solver.maximum_dcs``), and settles ``ends``; it changes nothing else.
    Each trail is one ``growing_trail`` would accept; the generator is
    exhausted exactly when ``growing_trail`` would return None.

    A trail's flip raises the degree at its two ends only, so room only
    shrinks, and a start whose own search misses never gets a trail later.
    With drops, the pool only loses edges and none changes side. With flips,
    this is Edmonds' lemma (1965) that a vertex with no augmenting path has
    none after an augmentation, which carries over through the b-matching
    reduction since a growing trail moves degrees only at its ends. So the
    search cursor below moves past a start for good once it misses. The
    one-edge cursor before it only takes the cheap trails first: with flips,
    a start it passed may get a one-edge trail later, which the search
    cursor finds.
    """
    room, closes = ends.room, ends.closes(False)
    outside_at, vertex_of, edges = gadget.outside_at, gadget.vertex_of, gadget.edges
    # Only a vertex with a non-member edge in the pool can start a growing trail.
    starts = sorted(v for v in room if outside_at[v])

    # One-edge trails first, at each start in vertex order: the first outside
    # port whose far end has room. With drops, while any one-edge trail is
    # left, that is the trail a search from all starts at once returns first.
    for x in starts:
        while x in room:
            for p in outside_at[x]:
                if vertex_of[p ^ 1] in room:
                    break
            else:
                break
            yield Trail((x, vertex_of[p ^ 1]), (edges[(p - 2) >> 1],))
    # Then one search from each start in vertex order, until it misses or the
    # start has no room left.
    for x in starts:
        while x in room and (trail := gadget.search({x}, room, closes=closes)) is not None:
            yield trail


def _augmenting_node_path(
    gadget: Gadget,
    sources: set[int],
    add_sinks: set[int],
    remove_sinks: set[int],
    first_inside: bool,
) -> Trail | None:
    """Blossom search for an augmenting path from sigma to tau, returned as its trail.

    The name predates the ``Trail`` return and stays because the benchmark's
    traced run wraps it as the blossom layer (``perfbench/tracer.py``).

    The queue starts as ``[sigma]``, and sigma is expanded like any other
    outer node: its neighbours are the ports at a source on the first edge's
    side, taken lazily in source order. An edge with both ends at sources
    closes a blossom based at sigma. Tau's neighbours are the ports at a sink
    (inside at a remove sink, outside at an add sink), so the search returns
    at the first port at a sink that becomes outer, by tree growth or in a
    blossom once it is relabelled, walking its tree back to sigma into the
    trail. Blossom contraction keeps explicit member lists per base class
    (in a per-search dict) so each event touches only the absorbed nodes. The
    gadget's search arrays are left as found, early return included: the
    queue keeps every outer node, every other node the search reached is the
    partner of one, and ``stamp`` is versioned by a running epoch.
    """
    parent, base, used, stamp = gadget.parent, gadget.base, gadget.used, gadget.stamp
    match, vertex_of, inside = gadget.match, gadget.vertex_of, gadget.inside
    inside_at, outside_at = gadget.inside_at, gadget.outside_at
    first_at = inside_at if first_inside else outside_at  # sigma's side
    members: dict[int, list[int]] = {}
    used[_SIGMA] = True
    queue = [_SIGMA]  # never shrinks: ``head`` is the next node to expand
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

    def trail_to(v: int) -> Trail:
        # The tree path from sigma to the outer port ``v``, one edge per
        # matched pair; alternation and even length hold by construction.
        vertices, edges = [vertex_of[v]], []
        while v != _SIGMA:
            entry = match[v]
            edges.append(gadget.edges[(entry - 2) >> 1])
            vertices.append(vertex_of[entry])
            v = parent[entry]
            assert v == _SIGMA or vertex_of[v] == vertex_of[entry], "lost vertex continuity"
        return Trail(tuple(reversed(vertices)), tuple(reversed(edges)))

    try:
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            if v == _SIGMA:
                neighbours = chain.from_iterable(first_at[x] for x in sorted(sources))
            else:
                x = vertex_of[v]
                neighbours = outside_at[x] if inside[v] else inside_at[x]
                if inside[v] == first_inside and x in sources:
                    neighbours = neighbours + [_SIGMA]
            for u in neighbours:
                if base[v] == base[u]:
                    continue
                if u == _SIGMA or parent[match[u]] != -1:
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
                            return trail_to(w)
                elif parent[u] == -1:
                    parent[u] = v
                    w = match[u]
                    used[w] = True
                    queue.append(w)
                    if vertex_of[w] in sinks[inside[w]]:
                        return trail_to(w)
        return None
    finally:
        gadget.epoch = epoch
        used[_SIGMA] = False
        # Sigma is unmatched: its partner index -1 would reach the last port.
        for w in islice(queue, 1, None):
            for i in (w, match[w]):
                parent[i] = -1
                base[i] = i
                used[i] = False
