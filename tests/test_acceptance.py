"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import random
import time
from functools import lru_cache

from dcsreconf.core import Instance, is_ab_constrained, verify_move_sequence
from dcsreconf.decider import (
    FIXED_EDGE,
    LOCKED_ALT_AB_TIGHT_CYCLE,
    LOCKED_B_TIGHT_CYCLE,
    decide,
)
from dcsreconf.obstructions import m_fixed_subgraph
from dcsreconf.oracle import (
    enumerate_ab_constrained,
    oracle_decide,
    oracle_reachable_states,
)
from dcsreconf.solver import augment, maximum_dcs
from dcsreconf.trails import cycle_tightness

from helpers import (
    bounds,
    brute_below_upper_in_some_maximum,
    brute_max_size,
    compute_even_set,
    cycle_graph,
    feasible_subsets,
    graphs_up_to_iso,
    loose_instance,
    random_bounds,
    random_connected_graph,
    sub,
)


def _bound_schemes(rng, g):
    schemes = [
        bounds(g, 0, 1),  # matching bounds
        bounds(g, 0, [g.degree[v] for v in range(g.n)]),  # everything allowed
    ]
    for _ in range(3):
        schemes.append(random_bounds(rng, g))
    return schemes


@lru_cache(maxsize=1)
def criterion_suite():
    """Instances for criteria 1, 2, 4, 8: small exhaustive plus random."""
    rng = random.Random(2024)
    instances: list[Instance] = []
    # (a) every connected graph on at most five vertices, several bound
    # schemes each, feasible endpoints sampled from the exhaustive state list
    for n in range(2, 6):
        for g in graphs_up_to_iso(n, connected_only=True):
            if g.m == 0:
                continue
            for b in _bound_schemes(rng, g):
                states = enumerate_ab_constrained(g, b)
                if len(states) < 2:
                    continue
                for _ in range(3):
                    s1, s2 = rng.sample(states, 2)
                    k = rng.choice([1, 2, 3])
                    instances.append(Instance(g, b, s1.copy(), s2.copy(), k))
    count_a = len(instances)
    # (b) at least one thousand random instances with at most twelve edges
    while len(instances) - count_a < 1000:
        n = rng.randint(3, 8)
        mmax = min(12, n * (n - 1) // 2)
        g = random_connected_graph(rng, n, rng.randint(n - 1, mmax))
        if g.m > 12:
            continue
        b = random_bounds(rng, g)
        states = enumerate_ab_constrained(g, b)
        if len(states) < 2:
            continue
        s1, s2 = rng.sample(states, 2)
        k = rng.choice([1, 2, 3])
        instances.append(Instance(g, b, s1.copy(), s2.copy(), k))
    return instances


@lru_cache(maxsize=1)
def suite_decisions():
    return [decide(i) for i in criterion_suite()]


def test_criterion_1_oracle_equivalence():
    suite = criterion_suite()
    decisions = suite_decisions()
    mismatches = 0
    for inst, decision in zip(suite, decisions):
        if decision.yes != oracle_decide(inst):
            mismatches += 1
    assert mismatches == 0
    print(
        f"criterion 1 (oracle equivalence): PASS — "
        f"{len(suite)} instances, 100% agreement"
    )


def test_criterion_2_certificate_validity():
    suite = criterion_suite()
    decisions = suite_decisions()
    for inst, decision in zip(suite, decisions):
        if decision.yes:
            assert verify_move_sequence(inst, list(decision.moves))
            continue
        w = decision.witness
        diff = inst.source.edge_set ^ inst.target.edge_set
        if w.kind == FIXED_EDGE:
            fixed = m_fixed_subgraph(inst.graph, inst.bounds, inst.source)
            assert w.edge in diff and w.edge in fixed.edge_set
        elif w.kind == LOCKED_B_TIGHT_CYCLE:
            assert inst.k == 1
            assert len(inst.source) == len(inst.target)
            best = brute_max_size(inst.graph, inst.bounds)
            assert len(inst.source) == best
            cyc = w.cycle
            assert set(cyc.edges) & diff
            for v in cyc.vertices:
                assert inst.source.degrees[v] == inst.bounds.upper[v]
            escapable = brute_below_upper_in_some_maximum(inst.graph, inst.bounds)
            assert not (set(cyc.vertices) & escapable)
        elif w.kind == LOCKED_ALT_AB_TIGHT_CYCLE:
            cyc = w.cycle
            assert set(cyc.edges) & diff
            assert cycle_tightness(cyc, inst.source, inst.bounds) == "alternating"
            restriction = inst.source.edge_set & set(cyc.edges)
            for state in feasible_subsets(inst.graph, inst.bounds):
                if state.edge_set & set(cyc.edges) == restriction:
                    assert cycle_tightness(cyc, state, inst.bounds) == "alternating"
        else:
            raise AssertionError(f"unknown witness kind {w.kind}")
    print(f"criterion 2 (certificate validity): PASS — {len(suite)} certificates checked")


def test_criterion_3_step_bound():
    decisions = suite_decisions()
    checked = 0
    for inst, decision in zip(criterion_suite(), decisions):
        if decision.yes:
            assert len(decision.moves) <= inst.graph.m**2 + 2 * inst.graph.m
            checked += 1
    rng = random.Random(99)
    sizes = [rng.randint(20, 600) for _ in range(80)]
    sizes += [rng.randint(600, 1200) for _ in range(15)]
    sizes += [rng.randint(1200, 2000) for _ in range(5)]
    for m in sizes:
        n = max(5, m // 3)
        inst = loose_instance(rng, n, m)
        decision = decide(inst)
        if decision.yes:
            assert len(decision.moves) <= inst.graph.m**2 + 2 * inst.graph.m
            checked += 1
    print(f"criterion 3 (step bound): PASS — {checked} yes-sequences within bound")


def test_criterion_4_slack_collapse_and_monotonicity():
    suite = criterion_suite()
    rng = random.Random(7)
    sample = rng.sample(range(len(suite)), 250)
    for idx in sample:
        inst = suite[idx]
        reach2 = oracle_decide(
            Instance(inst.graph, inst.bounds, inst.source.copy(), inst.target.copy(), 2)
        )
        reach3 = oracle_decide(
            Instance(inst.graph, inst.bounds, inst.source.copy(), inst.target.copy(), 3)
        )
        assert not (reach3 and not reach2), "slack 3 reachable but slack 2 not"
        answers = [
            decide(
                Instance(
                    inst.graph, inst.bounds, inst.source.copy(), inst.target.copy(), k
                )
            ).yes
            for k in (1, 2, 3)
        ]
        assert answers == sorted(answers), "decide not monotone in the slack"
    print(
        f"criterion 4 (slack collapse + monotonicity): PASS — {len(sample)} instances"
    )


def test_criterion_5_matching_special_case():
    g = cycle_graph(4)
    b = bounds(g, 0, 1)
    tight = Instance(g, b, sub(g, [0, 2]), sub(g, [1, 3]), 1)
    d1 = decide(tight)
    assert not d1.yes and not oracle_decide(tight)
    loose = Instance(g, b, sub(g, [0, 2]), sub(g, [1, 3]), 2)
    d2 = decide(loose)
    assert d2.yes and len(d2.moves) == 4 and oracle_decide(loose)
    assert verify_move_sequence(loose, list(d2.moves))
    print("criterion 5 (matching special case): PASS — no at slack 1, 4 moves at slack 2")


def test_criterion_6_escape_set_crosscheck():
    rng = random.Random(13)
    hosts = []
    for n in range(2, 6):
        hosts.extend(graphs_up_to_iso(n, connected_only=False))
    for _ in range(15):
        hosts.append(random_connected_graph(rng, 6, rng.randint(5, 10)))
    agreements = 0
    for g in hosts:
        if g.m == 0 or g.m > 10:
            continue
        for b in _bound_schemes(rng, g)[:4]:
            states = feasible_subsets(g, b)
            if not states:
                continue
            best = max(len(s) for s in states)
            want = brute_below_upper_in_some_maximum(g, b)
            for s in states:
                if len(s) == best:
                    assert compute_even_set(g, b, s).members == want
                    agreements += 1
    assert agreements >= 400
    print(
        f"criterion 6 (escape-set crosscheck): PASS — "
        f"{agreements} maximum subgraphs, 100% agreement"
    )


def test_criterion_7_solver_correctness():
    rng = random.Random(17)
    hosts = []
    for n in range(2, 6):
        hosts.extend(graphs_up_to_iso(n, connected_only=False))
    for _ in range(20):
        hosts.append(random_connected_graph(rng, rng.randint(6, 7), rng.randint(6, 12)))
    size_checks = 0
    augment_checks = 0
    for g in hosts:
        if g.m == 0 or g.m > 12:
            continue
        for b in _bound_schemes(rng, g)[:4]:
            want = brute_max_size(g, b)
            got = maximum_dcs(g, b)
            assert (got is None) == (want is None)
            if got is not None:
                assert len(got) == want
                assert is_ab_constrained(got, b)
            size_checks += 1
            states = feasible_subsets(g, b)
            if states:
                s = rng.choice(states)
                bigger = augment(g, b, s)
                if bigger is None:
                    assert len(s) == want
                else:
                    assert len(bigger) == len(s) + 1
                    assert is_ab_constrained(bigger, b)
                augment_checks += 1
    assert size_checks >= 200
    print(
        f"criterion 7 (solver correctness): PASS — "
        f"{size_checks} maxima, {augment_checks} augmentations"
    )


def test_criterion_8_fixed_subgraph_stability():
    suite = criterion_suite()
    rng = random.Random(19)
    sample = rng.sample(range(len(suite)), 400)
    states_seen = 0
    for idx in sample:
        inst = suite[idx]
        fixed = m_fixed_subgraph(inst.graph, inst.bounds, inst.source)
        pinned_part = inst.source.edge_set & fixed.edge_set
        for state in oracle_reachable_states(inst):
            assert state.edge_set & fixed.edge_set == pinned_part
            states_seen += 1
    print(
        f"criterion 8 (fixed edges never flip): PASS — "
        f"{len(sample)} instances, {states_seen} reachable states"
    )


def test_criterion_9_performance_smoke():
    rng = random.Random(23)
    inst = loose_instance(rng, 200, 600)
    start = time.perf_counter()
    decision = decide(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"decide took {elapsed:.2f}s"
    if decision.yes:
        assert verify_move_sequence(inst, list(decision.moves))
    print(
        f"criterion 9 (performance smoke): PASS — "
        f"n=200, m={inst.graph.m}, decided in {elapsed:.2f}s"
    )
