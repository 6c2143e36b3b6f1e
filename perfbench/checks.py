"""Answer checks that share no code with the decider.

Every function here works on the instance document (plain lists) and on the
decision's public fields, so a fault in the library's own verifier, tightness
tests or fixed-edge propagation cannot hide a wrong answer.
"""

from __future__ import annotations


class Host:
    """The parts of an instance document the checks need, as plain lists."""

    def __init__(self, doc: dict):
        self.n = doc["vertices"]
        self.edges = [tuple(pair) for pair in doc["edges"]]
        self.lower = doc["a"]
        self.upper = doc["b"]
        self.source = set(doc["source"])
        self.target = set(doc["target"])
        self.k = doc["k"]
        self.incident: list[list[int]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            self.incident[u].append(e)
            self.incident[v].append(e)

    def degrees(self, subset) -> list[int]:
        deg = [0] * self.n
        for e in subset:
            u, v = self.edges[e]
            deg[u] += 1
            deg[v] += 1
        return deg

    @property
    def floor(self) -> int:
        return min(len(self.source), len(self.target)) - self.k


def replay(host: Host, moves) -> str | None:
    """Replay ``moves`` (pairs of "add"/"remove" and an edge) from the source.

    Returns None when the sequence is a valid reconfiguration, else the reason
    it is not: an illegal move, a bound broken at an endpoint, the size below
    min(|M|, |N|) - k, a wrong final state, or more than |E|^2 + 2|E| moves.
    """
    m = len(host.edges)
    if len(moves) > m * m + 2 * m:
        return f"{len(moves)} moves exceed the bound |E|^2 + 2|E| = {m * m + 2 * m}"
    state = set(host.source)
    deg = host.degrees(state)
    floor = host.floor
    for i, (op, e) in enumerate(moves):
        if not 0 <= e < m:
            return f"move {i}: unknown edge {e}"
        if op == "add":
            if e in state:
                return f"move {i}: adds edge {e}, which is present"
            state.add(e)
            step = 1
        elif op == "remove":
            if e not in state:
                return f"move {i}: removes edge {e}, which is absent"
            state.remove(e)
            step = -1
        else:
            return f"move {i}: unknown operation {op!r}"
        for v in host.edges[e]:
            deg[v] += step
            if not host.lower[v] <= deg[v] <= host.upper[v]:
                return f"move {i}: vertex {v} leaves its bounds"
        if len(state) < floor:
            return f"move {i}: size {len(state)} is below the floor {floor}"
    if state != host.target:
        return "the sequence does not end at the target"
    return None


def _closed_alternating(host: Host, vertices, edges) -> str | None:
    if not edges or len(vertices) != len(edges) + 1 or vertices[0] != vertices[-1]:
        return "the certificate is not a closed walk"
    if len(set(edges)) != len(edges) or len(edges) % 2:
        return "the certificate cycle repeats an edge or has odd length"
    diff = host.source ^ host.target
    for i, e in enumerate(edges):
        if not 0 <= e < len(host.edges):
            return f"the certificate names unknown edge {e}"
        if set(host.edges[e]) != {vertices[i], vertices[i + 1]}:
            return f"certificate edge {e} does not join its listed vertices"
        if e not in diff:
            return f"certificate edge {e} is not in the symmetric difference"
        if i and (e in host.source) == (edges[i - 1] in host.source):
            return "the certificate cycle does not alternate"
    return None


def fixed_edges(host: Host) -> set[int]:
    """Least fixpoint of the two freezing rules, from the definition.

    Edges at a vertex with a = b are fixed. A vertex at its upper bound whose
    present edges are all fixed can never gain an edge, and a vertex at its
    lower bound whose absent edges are all fixed can never lose one; either
    way every edge at it is fixed.
    """
    deg = host.degrees(host.source)
    fixed: set[int] = set()
    for v in range(host.n):
        if host.lower[v] == host.upper[v]:
            fixed.update(host.incident[v])
    changed = True
    while changed:
        changed = False
        for v in range(host.n):
            inc = host.incident[v]
            if all(e in fixed for e in inc):
                continue
            at_upper = deg[v] == host.upper[v] and all(
                e in fixed for e in inc if e in host.source
            )
            at_lower = deg[v] == host.lower[v] and all(
                e in fixed for e in inc if e not in host.source
            )
            if at_upper or at_lower:
                fixed.update(inc)
                changed = True
    return fixed


def certificate(host: Host, witness) -> str | None:
    """Check that a No certificate lies in M^N and holds in the source."""
    deg = host.degrees(host.source)
    if witness.kind == "fixed-edge":
        e = witness.edge
        if e is None or e not in host.source ^ host.target:
            return "the fixed edge is not in the symmetric difference"
        if e not in fixed_edges(host):
            return f"edge {e} is not fixed in the source"
        return None
    if witness.cycle is None:
        return f"certificate {witness.kind!r} carries no cycle"
    vertices, edges = witness.cycle.vertices, witness.cycle.edges
    problem = _closed_alternating(host, vertices, edges)
    if problem:
        return problem
    ring = vertices[:-1]
    if witness.kind == "locked-btight-cycle":
        if host.k != 1 or len(host.source) != len(host.target):
            return "a locked upper-tight cycle settles only slack 1 between equal sizes"
        if any(deg[v] != host.upper[v] for v in ring):
            return "a cycle vertex is below its upper bound in the source"
        return None
    if witness.kind == "locked-alt-abtight-cycle":
        for phase in (0, 1):
            if all(
                (deg[v] == host.lower[v]) == (i % 2 == phase)
                and (deg[v] == host.upper[v]) == (i % 2 != phase)
                for i, v in enumerate(ring)
            ):
                return None
        return "the cycle is not alternately tight in the source"
    return f"unknown certificate kind {witness.kind!r}"


def legal_moves(host: Host, state: set[int], deg: list[int], floor: int | None, near=None):
    """Every legal single move from ``state``; ``floor=None`` ignores the size floor.

    ``near`` may list the vertices worth scanning for additions; it must hold
    every vertex below its upper bound.
    """
    out = []
    for v in sorted(near) if near is not None else range(host.n):
        if deg[v] < host.upper[v]:
            for e in host.incident[v]:
                w = host.edges[e][0] + host.edges[e][1] - v
                if e not in state and deg[w] < host.upper[w] and v < w:
                    out.append(("add", e))
    if floor is None or len(state) - 1 >= floor:
        for e in state:
            u, w = host.edges[e]
            if deg[u] > host.lower[u] and deg[w] > host.lower[w]:
                out.append(("remove", e))
    return out


def _apply(host: Host, state: set[int], deg: list[int], move, sign: int) -> None:
    op, e = move
    adding = (op == "add") == (sign > 0)
    if adding:
        state.add(e)
    else:
        state.remove(e)
    for v in host.edges[e]:
        deg[v] += 1 if adding else -1


def frozen_source(host: Host, frozen_cycle) -> str | None:
    """Confirm, by listing legal moves, that the target cannot be reached.

    With a planted cycle (an isolated alternately tight cycle): no legal move
    from the source touches the cycle at any slack, and every edge at a cycle
    vertex is a cycle edge, so the cycle vertices' degrees, and with them the
    cycle, never change. Without one (slack 1 between maximum subgraphs with
    no slack anywhere): every legal move from the source leads to a state
    whose only legal move undoes it, so the source's component holds the
    source and its neighbours only, and the target is none of them.
    """
    state = set(host.source)
    deg = host.degrees(state)
    if frozen_cycle is not None:
        ring = set(frozen_cycle)
        touched = {v for e in ring for v in host.edges[e]}
        if any(e not in ring for v in touched for e in host.incident[v]):
            return "the planted cycle is not isolated"
        if any(e in ring for _, e in legal_moves(host, state, deg, None)):
            return "a legal move from the source changes the planted cycle"
        if not ring & (host.source ^ host.target):
            return "the planted cycle is not in the symmetric difference"
        return None
    floor = host.floor
    room = {v for v in range(host.n) if deg[v] < host.upper[v]}
    for move in legal_moves(host, state, deg, floor):
        _apply(host, state, deg, move, +1)
        if state == host.target:
            return "the target is one move from the source"
        back = legal_moves(host, state, deg, floor, room | set(host.edges[move[1]]))
        _apply(host, state, deg, move, -1)
        undo = ("remove" if move[0] == "add" else "add", move[1])
        if back != [undo]:
            return f"after {move} other moves than the undo are legal"
    if state == host.target:
        return "source and target coincide"
    return None
