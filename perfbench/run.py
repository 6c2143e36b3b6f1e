"""Decide-time benchmark for dcsreconf.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload loose-random --seed 1 --seconds 60 --trace 0

The workload's instances are generated from the seed, written as instance
JSON and read back with ``parse_instance`` (the set-up, timed three times).
Then ``decide`` runs on them one at a time in one thread, in whole rounds over
the same instances, until another round would overrun ``--seconds``. Every
answer is checked with the benchmark's own code (see checks.py). The last line
of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
The exit code is 1 when an answer is wrong; without a library under ``src/``
of the checkout the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import tracer as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many verdicts above it


def load_library():
    """Import dcsreconf from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dcsreconf
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dcsreconf from {src}: {exc}")
    if Path(dcsreconf.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: dcsreconf was loaded from {dcsreconf.__file__}, not from {src}")
    return dcsreconf


def make_pool(workload: str, seed: int) -> list[wl.Case]:
    """The workload's instances; the same seed always gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    count = wl.POOL_SIZE
    if workload == "loose-random":
        # sizes are spread evenly, so seeds change structure but not the size mix
        return [wl.loose_case(rng, 800 + 300 * i // (count - 1)) for i in range(count)]
    if workload == "tight-trails":
        pool = []
        for i in range(count):
            length = 2 * ((600 + (wl.MAX_TRAIL_EDGES - 600) * i // (count - 1)) // 2)
            if i % 3 == 0:
                pool.append(wl.path_case(length))
            elif i % 3 == 1:
                pool.append(wl.even_cycle_case(length))
            else:
                half = 2 * (length // 4)
                pool.append(wl.planted_trails_case(rng, [half, length - half], 1500))
        return pool
    if workload == "tight-cycles":
        # per ten: 4 escape, 2 locked, 2 alt-no, 2 alt-yes; the locked kind is
        # the fast one, so the median stays inside the slow cluster
        kinds = ["escape", "alt-no", "escape", "locked", "alt-yes"] * 2
        return [
            wl.tight_cycle_case(
                rng,
                kinds[i % 10],
                2000 + 1000 * i // (count - 1),
                cycles=20,
                half=4,
                alt_half=8 if kinds[i % 10].startswith("alt") else 0,
            )
            for i in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def set_up(lib, cases, path: Path, trace: tracing.Tracer | None):
    """Write the instances as instance JSON and read them back; returns (instances, seconds)."""
    start = time.perf_counter()
    with open(path, "w") as fh:
        for case in cases:
            fh.write(json.dumps(case.doc, separators=(",", ":")) + "\n")
    instances = []
    with open(path) as fh:
        for line in fh:
            if trace is None:
                instances.append(lib.parse_instance(line))
            else:
                with trace.span("instance_io.parse"):
                    instances.append(lib.parse_instance(line))
    elapsed = time.perf_counter() - start
    path.unlink()
    return instances, elapsed


def check_answer(case: wl.Case, host: checks.Host, decision) -> str | None:
    if case.expected is not None and decision.yes != case.expected:
        return f"answered {'yes' if decision.yes else 'no'}, the construction says otherwise"
    if decision.yes:
        return checks.replay(host, [(m.kind, m.edge) for m in decision.moves])
    return checks.certificate(host, decision.witness)


def tail(values: list[float]) -> float:
    """The highest order statistic that still has TAIL_BEYOND values above it."""
    return sorted(values)[len(values) - 1 - TAIL_BEYOND]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = load_library()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    trace = tracing.Tracer() if args.trace else None

    setup_times, parse_times = [], []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        cases = make_pool(args.workload, args.seed)
        generated = time.perf_counter() - begin
        mark = trace.mark() if trace else None
        instances, io_time = set_up(lib, cases, OUT / f"instances-{tag}-{os.getpid()}.jsonl", trace)
        setup_times.append(generated + io_time)
        if trace:
            parse_times.append(trace.summary(mark, trace.mark())["instance_io.parse_s"])
    hosts = [checks.Host(case.doc) for case in cases]
    for case, host in zip(cases, hosts):
        if case.expected is False:
            problem = checks.frozen_source(host, case.frozen_cycle)
            if problem:
                sys.exit(f"perfbench: {case.kind} instance is not frozen as built: {problem}")

    # A caller deciding one instance holds a small heap; freezing the pool
    # keeps the collector from rescanning it during every timed verdict.
    gc.collect()
    gc.freeze()

    attempted = failed = 0
    wrong: list[str] = []
    times: list[list[float]] = [[] for _ in cases]
    edges = moves = diff_edges = 0
    total_time = 0.0
    round_marks = []
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    last_round = 0.0
    with trace.installed() if trace else contextlib.nullcontext():
        while not rounds or time.perf_counter() + last_round <= deadline:
            round_start = time.perf_counter()
            start_mark = trace.mark() if trace else None
            for i, (case, host, inst) in enumerate(zip(cases, hosts, instances)):
                attempted += 1
                try:
                    if trace:
                        with trace.span("decider"):
                            t0 = time.perf_counter()
                            decision, trail_log = lib.decide_with_trace(inst)
                            elapsed = time.perf_counter() - t0
                        trace.count_rules(trail_log)
                    else:
                        t0 = time.perf_counter()
                        decision = lib.decide(inst)
                        elapsed = time.perf_counter() - t0
                except Exception:  # a crash is a failed verdict; the run goes on
                    failed += 1
                    print(f"perfbench: {case.kind} instance {i} raised", file=sys.stderr)
                    traceback.print_exc(limit=3)
                    continue
                problem = check_answer(case, host, decision)
                if problem:
                    failed += 1
                    wrong.append(f"{case.kind} instance {i}: {problem}")
                    continue
                times[i].append(elapsed)
                total_time += elapsed
                edges += len(host.edges)
                if decision.yes:
                    moves += len(decision.moves)
                    diff_edges += len(host.source ^ host.target)
            rounds += 1
            if trace:
                round_marks.append((start_mark, trace.mark()))
            last_round = time.perf_counter() - round_start
    for line in wrong:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)

    per_instance = [statistics.median(t) for t in times if t]
    edges_per_s = edges / total_time if total_time else 0.0
    if trace:
        path = OUT / f"trace-{tag}.json"
        per_round = [trace.summary(start, end) for start, end in round_marks]
        metrics = {}
        for name in tracing.LAYER_METRICS:
            if name in tracing.COUNT_METRICS or name in tracing.RATIO_METRICS:
                values = {r[name] for r in per_round}
                if len(values) > 1:
                    print(f"perfbench: {name} differs between rounds: {values}", file=sys.stderr)
                value = per_round[0][name]
                unit = "ratio" if name in tracing.RATIO_METRICS else "count"
            else:
                value = statistics.fmean(r[name] for r in per_round)
                unit = "s"
            metrics[name] = {"value": value, "unit": unit}
        metrics["instance_io.parse_s"] = {"value": statistics.median(parse_times), "unit": "s"}
        metrics["traced.edges_per_s"] = {"value": edges_per_s, "unit": "edges/s"}
        trace.write(path)
    else:
        metrics = {
            "verdict_s.p50": {"value": statistics.median(per_instance), "unit": "s"},
            "verdict_s.tail": {"value": tail(per_instance), "unit": "s"},
            "edges_per_s": {"value": edges_per_s, "unit": "edges/s"},
            "moves_per_diff_edge": {
                "value": moves / diff_edges if diff_edges else 0.0,
                "unit": "moves/edge",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(
        f"{args.workload} seed {args.seed}: {len(cases)} instances x {rounds} rounds, "
        f"{attempted} verdicts, {failed} failed"
        + ("" if trace else f"; tail = order statistic {len(per_instance) - TAIL_BEYOND}"
           f" of {len(per_instance)} per-instance medians")
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
