"""Self-test of the benchmark's generators, checks and tracer.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that, on instances of at most 16 edges from every generator, the
answer known by construction agrees with the exhaustive oracle; that the
frozen-source check holds exactly on the instances built to be frozen; that
the replayer accepts the decider's sequences and rejects them with a move
dropped, duplicated or reordered; and that two traced runs count the same.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import random
import sys

import checks
import run
import tracer as tracing
import workloads as wl

ORACLE_EDGES = 16


def small_cases(seed: int) -> list[wl.Case]:
    rng = random.Random(f"selftest:{seed}")
    cases = [
        wl.loose_case(rng, rng.randint(6, 10)),
        wl.path_case(2 * rng.randint(1, 7)),
        wl.even_cycle_case(2 * rng.randint(2, 7)),
        wl.planted_trails_case(rng, [2, 2 * rng.randint(1, 2)], 14),
    ]
    for kind in ("escape", "locked"):
        cases.append(wl.tight_cycle_case(rng, kind, 12, cycles=1, half=2))
    for kind in ("alt-no", "alt-yes"):
        cases.append(wl.tight_cycle_case(rng, kind, 14, cycles=1, half=2, alt_half=2))
    return cases


def check_against_oracle(lib, seeds: int) -> int:
    compared = 0
    for seed in range(seeds):
        for case in small_cases(seed):
            inst = lib.parse_instance(json.dumps(case.doc))
            assert inst.graph.m <= ORACLE_EDGES, (case.kind, inst.graph.m)
            truth = lib.oracle_decide(inst)
            if case.expected is not None:
                assert case.expected == truth, f"{case.kind} seed {seed}: built {case.expected}, oracle {truth}"
            host = checks.Host(case.doc)
            frozen = checks.frozen_source(host, case.frozen_cycle)
            if case.expected is False:
                assert frozen is None, f"{case.kind} seed {seed}: {frozen}"
            elif case.kind in ("escape", "alt-yes"):
                assert frozen is not None, f"{case.kind} seed {seed}: Yes instance passed as frozen"
            decision = lib.decide(inst)
            assert decision.yes == truth, f"{case.kind} seed {seed}: decider disagrees with oracle"
            problem = run.check_answer(case, host, decision)
            assert problem is None, f"{case.kind} seed {seed}: {problem}"
            compared += 1
    return compared


def check_replayer(lib) -> None:
    case = wl.path_case(8)
    host = checks.Host(case.doc)
    moves = [(m.kind, m.edge) for m in lib.decide(lib.parse_instance(json.dumps(case.doc))).moves]
    assert checks.replay(host, moves) is None
    for i in range(len(moves)):
        dropped = moves[:i] + moves[i + 1 :]
        assert checks.replay(host, dropped) is not None, f"accepted move {i} dropped"
        doubled = moves[: i + 1] + moves[i:]
        assert checks.replay(host, doubled) is not None, f"accepted move {i} duplicated"
    # In the source every vertex but the path's last is covered and b = 1, so
    # any sequence that starts with an addition breaks a bound at once.
    first_add = next(i for i, (op, _) in enumerate(moves) if op == "add")
    reordered = [moves[first_add]] + moves[:first_add] + moves[first_add + 1 :]
    assert checks.replay(host, reordered) is not None, "accepted a reordered sequence"
    assert checks.replay(host, moves[::-1]) is not None, "accepted the reversed sequence"


def check_tracer(lib) -> None:
    rng = random.Random("selftest:trace")
    cases = [wl.loose_case(rng, 60), wl.path_case(40)]
    cases += [wl.tight_cycle_case(rng, k, 80, cycles=3, half=2, alt_half=2) for k in ("alt-no", "alt-yes")]
    instances = [lib.parse_instance(json.dumps(c.doc)) for c in cases]
    results = []
    for _ in range(2):
        trace = tracing.Tracer()
        mark = trace.mark()
        with trace.installed():
            for inst in instances:
                with trace.span("decider"):
                    trace.count_rules(lib.decide_with_trace(inst)[1])
        summary = trace.summary(mark, trace.mark())
        assert set(summary) == set(tracing.LAYER_METRICS), "a layer metric is missing"
        results.append({k: summary[k] for k in tracing.COUNT_METRICS + tracing.RATIO_METRICS})
    assert results[0] == results[1], "two traced runs counted differently"
    assert lib.decider.find_augmenting_trail.__module__ == "dcsreconf.trails", "wraps left behind"


def main() -> int:
    lib = run.load_library()
    compared = check_against_oracle(lib, seeds=40)
    print(f"generators agree with the oracle on {compared} instances of <= {ORACLE_EDGES} edges: PASS")
    check_replayer(lib)
    print("replayer rejects dropped, duplicated and reordered moves: PASS")
    check_tracer(lib)
    print("traced runs repeat their counts and restore the library: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
