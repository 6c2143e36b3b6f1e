import importlib
import json
import random
from collections import Counter
from functools import partial
from pathlib import Path
from types import CodeType

from hypothesis import given, settings
from hypothesis import strategies as st

from dcsreconf import decider, external
from dcsreconf.augmenting import Ends, Gadget, growing_trails
from dcsreconf.core import (
    DegreeBounds,
    Graph,
    Instance,
    Move,
    Subgraph,
    is_ab_constrained,
    verify_move_sequence,
)
from dcsreconf.decider import (
    FIXED_EDGE,
    LOCKED_ALT_AB_TIGHT_CYCLE,
    LOCKED_B_TIGHT_CYCLE,
    Peel,
    decide,
    decide_with_trace,
)
from dcsreconf.instance_io import parse_instance
from dcsreconf.obstructions import m_fixed_subgraph
from dcsreconf.oracle import enumerate_ab_constrained, oracle_decide
from dcsreconf.trail_type import Trail
from dcsreconf.trails import TrailClass, find_augmenting_trail

from helpers import (
    bounds,
    cycle_graph,
    flipped,
    graph,
    inst,
    library_lines,
    loose_instance,
    many_cycle_instance,
    next_growing_trail,
    path_graph,
    planted_tight_cycles,
    random_bounds,
    random_bounds_instance,
    random_connected_graph,
    relabelled,
    sparse_connected_graph,
    sub,
    unlocking_trail_by_fresh_gadget,
    validate_trail,
)
from test_external import planted_alt_cycle


def test_equal_endpoints_yield_empty_sequence():
    g = cycle_graph(4)
    d = decide(inst(g, bounds(g, 0, 1), [0, 2], [0, 2], 3))
    assert d.yes and d.moves == ()


def test_matching_swap_on_cycle():
    g = cycle_graph(4)
    b = bounds(g, 0, 1)
    tight = decide(inst(g, b, [0, 2], [1, 3], 1))
    assert not tight.yes
    assert tight.witness.kind == LOCKED_B_TIGHT_CYCLE
    assert set(tight.witness.cycle.edges) == {0, 1, 2, 3}
    loose = decide(inst(g, b, [0, 2], [1, 3], 2))
    assert loose.yes and len(loose.moves) == 4


def test_fixed_edge_conflict():
    g = path_graph(3)
    b = DegreeBounds(g, [0, 1, 0], [1, 1, 1])
    d = decide(inst(g, b, [0], [1], 1))
    assert not d.yes
    assert d.witness.kind == FIXED_EDGE
    assert d.witness.edge in {0, 1}


def test_alternately_tight_cycle_locked_for_every_slack():
    g = cycle_graph(4)
    b = DegreeBounds(g, [1, 0, 1, 0], [2, 1, 2, 1])
    for k in (1, 2, 3):
        d = decide(inst(g, b, [0, 2], [1, 3], k))
        assert not d.yes
        assert d.witness.kind == LOCKED_ALT_AB_TIGHT_CYCLE


def test_alternately_tight_cycle_unlocked_by_pendant():
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)])
    b = DegreeBounds(g, [1, 0, 1, 0, 0], [2, 1, 2, 1, 1])
    d = decide(inst(g, b, [0, 2], [1, 3], 1))
    assert d.yes


def test_alternately_tight_cycle_in_k5_is_unlocked_at_every_slack():
    # the cycle on edges 0-3 is alternately tight in the source, but a trail
    # off the cycle unlocks it, so every slack answers Yes
    cases = [
        (
            [(2, 4), (0, 4), (0, 3), (2, 3), (0, 1), (1, 2), (3, 4), (1, 3), (1, 4), (0, 2)],
            [1, 2, 1, 2, 2],
            [2, 4, 2, 3, 3],
            {0, 2, 6, 7, 8},
        ),
        (
            [(0, 3), (3, 4), (1, 4), (0, 1), (1, 2), (0, 4), (0, 2), (2, 3), (1, 3), (2, 4)],
            [2, 2, 3, 2, 1],
            [3, 3, 4, 3, 2],
            {0, 2, 4, 6, 7, 8},
        ),
    ]
    for edges, lower, upper, source in cases:
        g = graph(5, edges)
        b = DegreeBounds(g, lower, upper)
        for k in (1, 2, 3):
            i = inst(g, b, source, source ^ {0, 1, 2, 3}, k)
            assert decide(i).yes
            assert oracle_decide(i)


def test_single_augmentation_trace():
    g = path_graph(2)
    d, trace = decide_with_trace(inst(g, bounds(g, 0, 1), [], [0], 1))
    assert d.yes and len(d.moves) == 1
    assert len(trace) == 1
    assert trace[0].trail_class == "m-augmenting"
    assert trace[0].rule == "grow"
    assert trace[0].moves == 1


def test_cycle_swap_trace_at_slack_two():
    g = cycle_graph(4)
    d, trace = decide_with_trace(inst(g, bounds(g, 0, 1), [0, 2], [1, 3], 2))
    assert d.yes
    assert len(trace) == 1
    assert trace[0].trail_class == "b-tight-cycle"
    assert trace[0].rule == "tight-cycle-dip"
    assert trace[0].moves == 4


def test_empty_trace_when_equal():
    g = path_graph(2)
    d, trace = decide_with_trace(inst(g, bounds(g, 0, 1), [0], [0], 1))
    assert d.yes and trace == []


def test_orientation_swap_when_source_is_larger():
    g = path_graph(4)
    b = bounds(g, 0, 1)
    d = decide(inst(g, b, [0, 2], [1], 1))
    assert d.yes
    i = inst(g, b, [0, 2], [1], 1)
    assert verify_move_sequence(i, list(d.moves))


def test_yes_sequences_always_verify():
    rng = random.Random(67)
    done = 0
    while done < 150:
        g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(2, 9))
        b = random_bounds(rng, g)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        s1, s2 = rng.sample(states, 2)
        k = rng.choice([1, 1, 2, 3])
        i = Instance(g, b, s1.copy(), s2.copy(), k)
        done += 1
        d = decide(i)
        if d.yes:
            assert verify_move_sequence(i, list(d.moves))
            assert len(d.moves) <= g.m * g.m + 2 * g.m


def test_agrees_with_oracle_on_random_instances():
    rng = random.Random(71)
    done = 0
    while done < 200:
        g = random_connected_graph(rng, rng.randint(2, 6), rng.randint(1, 9))
        b = random_bounds(rng, g)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        s1, s2 = rng.sample(states, 2)
        k = rng.choice([1, 1, 2, 3])
        i = Instance(g, b, s1.copy(), s2.copy(), k)
        done += 1
        assert decide(i).yes == oracle_decide(i)


def test_monotone_in_slack():
    rng = random.Random(73)
    done = 0
    while done < 60:
        g = random_connected_graph(rng, rng.randint(3, 5), rng.randint(2, 7))
        b = random_bounds(rng, g)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        s1, s2 = rng.sample(states, 2)
        done += 1
        answers = [
            decide(Instance(g, b, s1.copy(), s2.copy(), k)).yes for k in (1, 2, 3)
        ]
        assert answers == sorted(answers)


def test_witness_and_moves_lift_through_restriction():
    # a pinned pendant edge occupies index 0 and is switched off; the cycle
    # edges keep their indices, so answers name the input's edges
    g = graph(6, [(4, 5), (0, 1), (1, 2), (2, 3), (3, 0)])
    b = DegreeBounds(g, [0, 0, 0, 0, 1, 0], [1, 1, 1, 1, 1, 1])
    tight = decide(inst(g, b, [0, 1, 3], [0, 2, 4], 1))
    assert not tight.yes
    assert tight.witness.kind == LOCKED_B_TIGHT_CYCLE
    assert set(tight.witness.cycle.edges) == {1, 2, 3, 4}
    loose = inst(g, b, [0, 1, 3], [0, 2, 4], 2)
    d, trace = decide_with_trace(loose)
    assert d.yes
    assert verify_move_sequence(loose, list(d.moves))
    assert {m.edge for m in d.moves} == {1, 2, 3, 4}
    assert len(trace) == 1 and set(trace[0].trail.edges) == {1, 2, 3, 4}


def test_equal_size_detour_forwards_locked_cycle_in_difference():
    # equal sizes, not maximum, slack 1: the detour through an augmented
    # target meets the genuinely locked square, whose edges lie in the
    # difference, so the certificate is forwarded
    g = graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7)])
    b = DegreeBounds(
        g, [1, 0, 1, 0, 0, 0, 0, 0], [2, 1, 2, 1, 1, 1, 1, 1]
    )
    i = inst(g, b, [0, 2, 4], [1, 3, 4], 1)
    d = decide(i)
    assert not d.yes
    assert d.witness.kind == LOCKED_ALT_AB_TIGHT_CYCLE
    assert set(d.witness.cycle.edges) == {0, 1, 2, 3}
    assert not oracle_decide(i)


def test_equal_size_detour_freezes_cycle_outside_difference(monkeypatch):
    # the detour can report a locked square that the actual difference never
    # touches; the decider must freeze it and decide the remainder (this
    # branch is staged here because organic inputs reaching it are elusive)
    import dcsreconf.decider as dec

    g = graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7)])
    b = DegreeBounds(
        g, [1, 0, 1, 0, 0, 0, 0, 0], [2, 1, 2, 1, 1, 1, 1, 1]
    )
    i = inst(g, b, [0, 2, 4], [0, 2, 5], 1)
    real_process = dec._process
    staged = {"armed": True}

    def fake_process(inner, trace, host=None):
        if staged["armed"]:
            staged["armed"] = False
            return dec.Decision.reject(
                dec.Witness(
                    dec.LOCKED_ALT_AB_TIGHT_CYCLE,
                    cycle=Trail((0, 1, 2, 3, 0), (0, 1, 2, 3)),
                    context="any slack",
                )
            )
        return real_process(inner, trace, host)

    monkeypatch.setattr(dec, "_process", fake_process)
    d, trace = decide_with_trace(i)
    assert d.yes
    assert verify_move_sequence(i, list(d.moves))
    assert not staged["armed"]  # the staged certificate was consumed
    assert {m.edge for m in d.moves} <= {4, 5, 6}
    # the remainder is decided with the square switched off, and its trace
    # names the input's edges
    assert trace
    for entry in trace:
        validate_trail(entry.trail, i.graph)
        assert set(entry.trail.edges) <= {4, 5, 6}


def test_upper_tight_cycle_escape_at_slack_one():
    # pendant gives one cycle vertex an escape, so the swap works at slack 1
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    b = bounds(g, 0, 1)
    i = inst(g, b, [0, 2], [1, 3], 1)
    d, trace = decide_with_trace(i)
    assert d.yes
    assert verify_move_sequence(i, list(d.moves))
    assert any(entry.rule == "tight-cycle-escape" for entry in trace)
    assert oracle_decide(i)


def test_escapes_end_where_earlier_trails_left_room():
    """The open even trail 5-6-7, peeled first, moves the room from 7 to 5, so
    the upper-tight square's escape must end at 5: straight over 1-5, or on
    through 2-7-6-5, past the vertex 7 that had room before."""
    for route in ((1, 5), (2, 7)):
        g = graph(8, [(5, 6), (6, 7), (0, 1), (1, 2), (2, 3), (3, 0), route])
        i = inst(g, bounds(g, 0, 1), [0, 2, 4], [1, 3, 5], 1)
        d, trace = decide_with_trace(i)
        assert d.yes and verify_move_sequence(i, list(d.moves))
        assert [entry.rule for entry in trace] == ["open-even", "tight-cycle-escape"]
        assert oracle_decide(i)


def test_escapes_in_large_hosts_keep_their_verdict_under_metamorphic_relations():
    """Upper-tight cycles with escape routes in hosts of 200-1,000 edges, past
    the oracle: swapping source and target and renaming vertices and edges
    keep the verdict, Yes at slack 1 stays Yes at slack 2, and every Yes
    replays."""
    rng = random.Random(41)
    for i in range(30):
        locked = i % 3 == 2
        plain = planted_tight_cycles(rng, 200 + 800 * i // 29, rng.randint(2, 8), locked)
        d, trace = decide_with_trace(plain)
        assert d.yes == (not locked)
        assert locked or any(entry.rule == "tight-cycle-escape" for entry in trace)
        related = [
            Instance(plain.graph, plain.bounds, plain.target, plain.source, 1),
            relabelled(plain, rng),
            Instance(plain.graph, plain.bounds, plain.source, plain.target, 2),
        ]
        verdicts = [decide(r) for r in related]
        for r, v in zip([plain] + related, [d] + verdicts):
            if v.yes:
                assert verify_move_sequence(r, list(v.moves))
        swapped, renamed, wider = verdicts
        assert swapped.yes == renamed.yes == d.yes
        assert wider.yes or not d.yes


def test_ten_thousand_edge_tight_cycle_hosts_get_their_expected_answers(monkeypatch):
    """The benchmark's tight-cycle hosts at 10^4 edges, all four kinds: escape
    and alt-yes decide Yes with moves that replay, locked and alt-no decide No
    on the cycle kind that locks them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    kinds = {
        "escape": None,
        "locked": LOCKED_B_TIGHT_CYCLE,
        "alt-no": LOCKED_ALT_AB_TIGHT_CYCLE,
        "alt-yes": None,
    }
    for kind, witness in kinds.items():
        alt_half = 8 if kind.startswith("alt") else 0
        case = workloads.tight_cycle_case(
            random.Random(3), kind, 10_000, cycles=64, half=4, alt_half=alt_half
        )
        i = parse_instance(json.dumps(case.doc))
        d = decide(i)
        assert d.yes == case.expected, kind
        if d.yes:
            assert verify_move_sequence(i, list(d.moves))
        else:
            assert d.witness.kind == witness


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=7, unique=True)
    )
    host = Graph(n, picked)
    upper = [draw(st.integers(0, host.degree[v])) for v in range(n)]
    lower = [draw(st.integers(0, upper[v])) for v in range(n)]
    b = DegreeBounds(host, lower, upper)
    states = enumerate_ab_constrained(host, b)
    if len(states) < 2:
        return None
    i = draw(st.integers(0, len(states) - 1))
    j = draw(st.integers(0, len(states) - 1))
    k = draw(st.sampled_from([1, 2, 3]))
    return Instance(host, b, states[i].copy(), states[j].copy(), k)


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_property_decider_matches_oracle(instance):
    if instance is None:
        return
    decision, trace = decide_with_trace(instance)
    assert decision.yes == oracle_decide(instance)
    for entry in trace:
        validate_trail(entry.trail, instance.graph)


def test_no_witness_cycles_lie_in_the_difference():
    rng = random.Random(79)
    done = 0
    while done < 120:
        g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(3, 9))
        b = random_bounds(rng, g, relax=0.3)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        s1, s2 = rng.sample(states, 2)
        i = Instance(g, b, s1.copy(), s2.copy(), rng.choice([1, 2]))
        done += 1
        d = decide(i)
        if d.yes or d.witness.cycle is None:
            continue
        diff = s1.edge_set ^ s2.edge_set
        assert set(d.witness.cycle.edges) & diff
        if d.witness.kind == LOCKED_B_TIGHT_CYCLE:
            fixed = m_fixed_subgraph(g, b, s1)
            assert not (set(d.witness.cycle.edges) & fixed.edge_set)


def long_path_swap(m: int) -> Instance:
    """A path of ``m`` edges, a=0 and b=1, even edges to odd edges at slack 1."""
    g = path_graph(m + 1)
    return inst(g, bounds(g, 0, 1), range(0, m, 2), range(1, m, 2), 1)


def test_long_path_swap_does_not_exhaust_the_stack():
    for m in (1200, 6000):
        i = long_path_swap(m)
        d = decide(i)
        assert d.yes
        assert verify_move_sequence(i, list(d.moves))


def test_long_upper_tight_cycle_swap_does_not_exhaust_the_stack():
    for m in (1200, 6000):
        g = cycle_graph(m)
        i = inst(g, bounds(g, 0, 1), range(0, m, 2), range(1, m, 2), 2)
        d = decide(i)
        assert d.yes
        assert verify_move_sequence(i, list(d.moves))


def peel_loop_cases():
    """60 loose instances and 300 small random-bounds ones, whose peel loops
    also take closed fallback trails."""
    rng = random.Random(12)
    for _ in range(60):
        m = rng.randint(8, 60)
        yield loose_instance(rng, max(5, m // 3), m)
    for _ in range(300):
        yield random_bounds_instance(rng)


def record_peel_loops(monkeypatch):
    """Wrap ``decider._process``: each run appends its instance, the trace
    entries it added and its decision to the returned list."""
    runs = []
    process = decider._process

    def recorded(inst, trace, host=None):
        first = len(trace)
        decision = process(inst, trace, host)
        runs.append((inst, trace[first:], decision))
        return decision

    monkeypatch.setattr(decider, "_process", recorded)
    return runs


def test_peeled_growing_trails_match_fresh_searches(monkeypatch):
    """Replaying each peel loop's trace on the instance it ran on (restricted,
    oriented, or grown by a detour), each trail is grown exactly when a fresh
    search (on a fresh gadget) finds a growing trail, and it is the trail that
    fresh searches take next: the first one-edge trail where one exists, else
    the trail of the least start whose own search finds one."""
    runs = record_peel_loops(monkeypatch)
    for instance in peel_loop_cases():
        decide_with_trace(instance)
    one_edge = searched = closed = 0
    for inst, entries, decision in runs:
        cur = inst.source
        for entry in entries:
            fresh = find_augmenting_trail(inst.graph, inst.bounds, cur, inst.target)
            assert (entry.rule == "grow") == (fresh is not None)
            if fresh is not None:
                assert entry.trail == next_growing_trail(inst.graph, inst.bounds, cur, inst.target)
                one_edge += len(entry.trail) == 1
                searched += len(entry.trail) > 1
            else:
                closed += entry.trail.is_closed
            cur = flipped(cur, entry.trail)
        if decision.yes:
            assert cur == inst.target
    assert one_edge > 0 and searched > 0 and closed > 0


def test_growing_trail_searches_stop_at_the_first_miss(monkeypatch):
    """Each trail search of a peel loop starts at one vertex and finds a grown
    trail or misses, and a start that misses is never searched again. So a
    loop makes at most as many searches as it grows trails plus the vertices
    with room when it starts."""
    searches: list[tuple[frozenset, bool]] = []
    search = Gadget.search

    def counted(self, sources, *args, **kwargs):
        trail = search(self, sources, *args, **kwargs)
        searches.append((frozenset(sources), trail is not None))
        return trail

    monkeypatch.setattr(Gadget, "search", counted)
    several_fallbacks = searched_loops = 0
    for instance in peel_loop_cases():
        if instance.source == instance.target:
            continue
        g, b, cur = instance.graph, instance.bounds, instance.source.copy()
        room = sum(d < u for d, u in zip(cur.degrees, b.upper))
        searches.clear()
        classes = []
        for trail, cls in Peel(g, b, cur, instance.target):
            classes.append(cls)
            cur.flip(trail.edges)
        grown = classes.count(TrailClass.M_AUGMENTING)
        dead = set()
        for sources, found in searches:
            assert len(sources) == 1 and sources not in dead
            if not found:
                dead.add(sources)
        assert len(searches) <= grown + room
        searched_loops += len(searches) > len(dead) > 0
        several_fallbacks += len(classes) - grown >= 2
    assert searched_loops > 0 and several_fallbacks > 0


def test_loose_twenty_thousand_edge_host_decides_with_replayed_moves():
    """A loose host of 20,000 edges: every difference edge moves once, and
    the moves replay to the target."""
    i = loose_instance(random.Random(20000), 20000 // 3, 20000, sparse_connected_graph)
    d = decide(i)
    assert d.yes
    assert len(d.moves) == len(i.source.edge_set ^ i.target.edge_set)
    assert verify_move_sequence(i, list(d.moves))


def _growing_phase_lines_per_edge(i: Instance) -> float:
    """Lines run inside ``augmenting.growing_trails`` (its own code and the
    code nested in it, not the searches it calls) per difference edge, while
    ``Peel`` takes the difference apart: the growing phase's own work."""
    code = growing_trails.__code__
    codes = {code} | {c for c in code.co_consts if isinstance(c, CodeType)}

    def peel():
        cur = i.source.copy()
        for trail, _ in Peel(i.graph, i.bounds, cur, i.target):
            cur.flip(trail.edges)

    return library_lines(peel, codes.__contains__) / len(i.source.edge_set ^ i.target.edge_set)


def test_growing_phase_work_per_edge_does_not_grow_with_the_host():
    """The one-edge cursor and the per-start searches move past each start
    for good, so the growing phase's own work per difference edge stays flat
    from 2,000 to 8,000 edges (a cursor that rescanned the starts it passed
    would do about four times as much per edge at the larger size)."""
    small, large = (
        loose_instance(random.Random(m), m // 3, m, sparse_connected_graph) for m in (2000, 8000)
    )
    assert _growing_phase_lines_per_edge(large) <= 1.5 * _growing_phase_lines_per_edge(small)


def _decide_lines_ratio(family) -> float:
    """Library lines of one ``decide`` at 4,000 edges over those at 2,000,
    on hosts ``family(random.Random(m), m)`` generated before counting."""
    small, large = (family(random.Random(m), m) for m in (2000, 4000))
    return library_lines(partial(decide, large)) / library_lines(partial(decide, small))


def test_decide_work_on_loose_hosts_grows_linearly():
    """Doubling a loose host about doubles ``decide``'s library lines (1.99
    times on these hosts); a quadratic term would show as about 4."""

    def family(rng, m):
        return loose_instance(rng, m // 3, m, sparse_connected_graph)

    assert _decide_lines_ratio(family) <= 2.3


def test_decide_work_on_many_cycle_hosts_grows_linearly():
    """The same on many-cycle hosts, one alternately tight cycle per 160
    edges, every one unlocked on one whole-host gadget (2.03 times)."""
    assert _decide_lines_ratio(lambda rng, m: many_cycle_instance(rng, m, m // 160)) <= 2.3


def _pinned_loose_instance(rng, m: int, share: float) -> Instance:
    """``loose_instance`` with about ``share`` of the vertices that no
    difference edge touches pinned (lower = upper) at their degree."""
    base = loose_instance(rng, max(6, m // 3), m)
    g = base.graph
    diff = base.source.edge_set ^ base.target.edge_set
    lower, upper = list(base.bounds.lower), list(base.bounds.upper)
    for v in range(g.n):
        if not diff.intersection(g.incident[v]) and rng.random() < share:
            lower[v] = upper[v] = base.source.degrees[v]
    return Instance(g, DegreeBounds(g, lower, upper), base.source, base.target, base.k)


def _behind_pinned_edge(i: Instance) -> Instance:
    """The instance with a disjoint edge prepended on two new vertices, pinned
    at a = b = 1 and present in both source and target."""
    n = i.graph.n
    g = Graph(n + 2, [(n, n + 1)] + i.graph.edges)
    b = DegreeBounds(g, i.bounds.lower + [1, 1], i.bounds.upper + [1, 1])

    def shifted(s: Subgraph) -> Subgraph:
        return Subgraph(g, [0] + [e + 1 for e in s.edge_set])

    return Instance(g, b, shifted(i.source), shifted(i.target), i.k)


def _shift_trail(t: Trail | None) -> Trail | None:
    return None if t is None else Trail(t.vertices, tuple(e + 1 for e in t.edges))


def _assert_shifts_by_one(plain: Instance) -> None:
    d, trace = decide_with_trace(plain)
    shifted_d, shifted_trace = decide_with_trace(_behind_pinned_edge(plain))
    assert shifted_d.yes == d.yes
    if d.yes:
        assert shifted_d.moves == tuple(Move(m.kind, m.edge + 1) for m in d.moves)
    else:
        w, sw = d.witness, shifted_d.witness
        assert (sw.kind, sw.context) == (w.kind, w.context)
        assert sw.edge == (None if w.edge is None else w.edge + 1)
        assert sw.cycle == _shift_trail(w.cycle)
    assert [(e.trail_class, e.rule, e.moves) for e in shifted_trace] == [
        (e.trail_class, e.rule, e.moves) for e in trace
    ]
    assert [e.trail for e in shifted_trace] == [_shift_trail(e.trail) for e in trace]


def test_prepending_a_pinned_edge_shifts_every_index_by_one():
    """Every instance here goes through the fixed-edge path: large loose
    hosts (some with pinned vertices) for long traces, small random ones for
    No answers and their witnesses."""
    rng = random.Random(5)
    for share in (0.0, 0.5, 1.0) * 10:
        _assert_shifts_by_one(_pinned_loose_instance(rng, rng.randint(150, 400), share))
    square = cycle_graph(4)
    alt_tight = DegreeBounds(square, [1, 0, 1, 0], [2, 1, 2, 1])
    detour_host = graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7)])
    detour_bounds = DegreeBounds(detour_host, [1, 0, 1, 0, 0, 0, 0, 0], [2, 1, 2, 1, 1, 1, 1, 1])
    locked = [
        inst(square, bounds(square, 0, 1), [0, 2], [1, 3], 1),
        inst(square, alt_tight, [0, 2], [1, 3], 2),
        inst(detour_host, detour_bounds, [0, 2, 4], [1, 3, 4], 1),
    ]
    for plain in locked:
        assert not decide(plain).yes
        _assert_shifts_by_one(plain)
    no_answers = 0
    done = 0
    while done < 150:
        g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(2, 9))
        b = random_bounds(rng, g, relax=0.3)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        s1, s2 = rng.sample(states, 2)
        plain = Instance(g, b, s1.copy(), s2.copy(), rng.choice([1, 1, 2]))
        _assert_shifts_by_one(plain)
        no_answers += not decide(plain).yes
        done += 1
    assert no_answers > 0


def alt_cycle_instance(rng) -> Instance:
    """A ``planted_alt_cycle`` host, from its subgraph to the one with the
    cycle flipped; on about half the draws the target also flips a random
    set of off-cycle edges (each with probability 0.3, the first of ten draws
    that stays within the bounds). Slack 1."""
    g, b, cycle, current = planted_alt_cycle(rng)
    target = flipped(current, cycle)
    off = [e for e in g.edge_ids if e not in cycle.edges]
    for _ in range(rng.choice((0, 10))):
        extra = target.copy()
        extra.flip([e for e in off if rng.random() < 0.3])
        if is_ab_constrained(extra, b):
            target = extra
            break
    return Instance(g, b, current, target, 1)


def test_kept_gadget_unlock_searches_match_fresh_gadget_searches(monkeypatch):
    """Every alternately tight cycle ``Peel`` yields in ``decide``, on 150
    hosts planted around one such cycle at slack 1 and 2, gets from the kept
    whole-host gadget and ``Ends`` the unlocking trail (or None) that a fresh
    gadget over the off-cycle edges finds."""
    searched = []
    kept = decider.exists_unlocking_subgraph

    def checked(cycle, current, bounds, gadget, ends):
        found = kept(cycle, current, bounds, gadget, ends)
        assert found == unlocking_trail_by_fresh_gadget(cycle, current, current.graph, bounds)
        searched.append(found is not None)
        return found

    monkeypatch.setattr(decider, "exists_unlocking_subgraph", checked)
    rng = random.Random(19)
    for _ in range(150):
        i = alt_cycle_instance(rng)
        for k in (1, 2):
            decide(Instance(i.graph, i.bounds, i.source, i.target, k))
    assert len(searched) >= 100 and True in searched and False in searched


def test_many_alternately_tight_cycles_share_one_whole_host_gadget(monkeypatch):
    """A 4,000-edge host with 32 alternately tight 4-cycles, each unlocked by
    its pendant edge: Yes with moves that replay, every cycle unlocked, and
    at most one gadget over the host (more than half its edges; a gadget
    per cycle would span all but the cycle's) built in the whole ``decide``."""
    whole_host = []

    def counted(graph, pool, member):
        pool = list(pool)
        whole_host.append(len(pool) > graph.m // 2)
        return Gadget(graph, pool, member)

    for module in (decider, external):
        monkeypatch.setattr(module, "Gadget", counted)
    i = many_cycle_instance(random.Random(9), 4000, 32)
    d, trace = decide_with_trace(i)
    assert d.yes
    assert verify_move_sequence(i, list(d.moves))
    assert [entry.rule for entry in trace] == ["tight-cycle-unlock"] * 32
    assert sum(whole_host) <= 1


def _ports(gadget: Gadget, n: int) -> list:
    """The edges at each vertex's inside ports, then at its outside ports."""
    return [
        [[gadget.edges[(p - 2) >> 1] for p in at[v]] for v in range(n)]
        for at in (gadget.inside_at, gadget.outside_at)
    ]


def test_each_peeled_trail_is_applied_to_pool_ends_and_host(monkeypatch):
    """After each trail ``Peel`` yields in ``decide``, its pool holds exactly
    the edges left, its ``ends`` are a fresh ``Ends`` and its host, once it
    has one, has a fresh whole-host gadget's ports at every vertex. Checked
    on the peel-loop cases, 150 planted tight cycles at slack 1 (the host is
    given) and many-cycle hosts (the host is built at the first alternately
    tight cycle). Each ``_process`` builds at most one ``Ends`` and at most
    one gadget besides its pool, over the whole host."""
    checked = Counter()
    builds = None  # the gadget pools and the Ends built in the running _process

    def check(peel: decider.Peel) -> None:
        ctx, target = peel.current, peel.target
        assert set(peel.pool.index) == ctx.edge_set ^ target.edge_set
        fresh = Ends(ctx, peel.bounds)
        assert (peel.ends.room, peel.ends.spare) == (fresh.room, fresh.spare)
        if peel.host is not None:
            g = ctx.graph
            assert _ports(peel.host, g.n) == _ports(Gadget(g, g.edge_ids, ctx.edge_set), g.n)
            checked["host"] += 1
        checked["state"] += 1

    class CheckedPeel(decider.Peel):
        def __init__(self, graph, bounds, current, target, host=None):
            super().__init__(graph, bounds, current, target, host)
            self.target = target

        def __iter__(self):
            # each trail is applied when the next is asked for, so every check
            # sees the state after the trails yielded so far
            for item in super().__iter__():
                check(self)
                yield item
            check(self)

    def counted_gadget(graph, pool, member):
        pool = set(pool)
        if builds is not None:
            builds["pools"].append(pool)
        return Gadget(graph, pool, member)

    def counted_ends(current, bounds):
        if builds is not None:
            builds["ends"] += 1
        return Ends(current, bounds)

    process = decider._process

    def counted_process(inst, trace, host=None):
        nonlocal builds
        builds = {"pools": [], "ends": 0}
        try:
            return process(inst, trace, host)
        finally:
            pools, ends = builds["pools"], builds["ends"]
            builds = None
            assert ends <= 1
            assert pools[0] == inst.source.edge_set ^ inst.target.edge_set
            assert len(pools) <= 2 and all(p == set(inst.graph.edge_ids) for p in pools[1:])

    monkeypatch.setattr(decider, "Peel", CheckedPeel)
    monkeypatch.setattr(decider, "Gadget", counted_gadget)
    monkeypatch.setattr(decider, "Ends", counted_ends)
    monkeypatch.setattr(decider, "_process", counted_process)
    for instance in peel_loop_cases():
        decide(instance)
    rng = random.Random(21)
    for j in range(150):
        decide(planted_tight_cycles(rng, 100 + j, rng.randint(2, 4), locked=j % 3 == 0))
    given = checked["host"]
    for m in (800, 1600):
        decide(many_cycle_instance(random.Random(m), m, m // 160))
    assert checked["state"] > 1000 and given > 100 and checked["host"] - given > 10
