"""Spans at the library's layer boundaries, for the traced benchmark run.

A layer's function is wrapped where another module calls it, as the name is
bound in the calling module (``dcsreconf.decider.find_augmenting_trail``,
``dcsreconf.external.find_alternating_trail``, ...). Calls a layer makes to
itself therefore stay unwrapped and the stack stays as deep as in the
untraced run. The one wrap inside a module is
``augmenting._augmenting_node_path``, which splits blossom search from gadget
build. Spans (name, start, end, parent) are kept in memory and written out
when the run ends.

Every time metric is self time: a span's duration minus the time its child
spans cover. The layer times of one verdict therefore add up to its wall time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

RULES = (
    "grow",
    "shrink",
    "open-even",
    "closed-even",
    "tight-cycle-dip",
    "tight-cycle-escape",
    "tight-cycle-unlock",
    "detour-release",
)

# (module where the name is bound, name, span name)
_WRAPS = (
    ("decider", "m_fixed_subgraph", "obstructions.fixed"),
    ("decider", "fixed_edge_witness", "obstructions.fixed"),
    ("decider", "restrict_instance", "obstructions.restrict"),
    ("decider", "find_augmenting_trail", "trails.search"),
    ("decider", "find_maximal_alternating_trail", "trails.maximal"),
    ("decider", "classify_trail", "trails.classify"),
    ("decider", "_elementary", "internal.synth"),
    ("decider", "_odd_grow", "internal.synth"),
    ("decider", "_odd_shrink", "internal.synth"),
    ("decider", "_closed_even", "internal.synth"),
    ("external", "_elementary", "internal.synth"),
    ("decider", "_btight_cycle", "external.escape"),
    ("decider", "exists_unlocking_subgraph", "external.unlock"),
    ("decider", "_alt_cycle", "external.alt_cycle"),
    ("decider", "is_maximum", "solver.is_maximum"),
    ("decider", "augment_trail", "solver.augment"),
    ("external", "feasible_subgraph", "solver.feasible"),
    ("decider", "verify_move_sequence", "core.replay"),
    ("trails", "find_alternating_trail", "augmenting.search"),
    ("solver", "find_alternating_trail", "augmenting.search"),
    ("external", "find_alternating_trail", "augmenting.search"),
    ("augmenting", "_augmenting_node_path", "augmenting.blossom"),
)

# span name -> per-layer time metric (self time)
_TIME_METRICS = {
    "instance_io.parse": "instance_io.parse_s",
    "obstructions.fixed": "obstructions.fixed_s",
    "obstructions.restrict": "obstructions.restrict_s",
    "trails.search": "trails.search_s",
    "trails.maximal": "trails.maximal_s",
    "trails.classify": "trails.classify_s",
    "augmenting.search": "augmenting.build_s",
    "augmenting.blossom": "augmenting.blossom_s",
    "internal.synth": "internal.synth_s",
    "external.escape": "external.escape_s",
    "external.unlock": "external.unlock_s",
    "external.alt_cycle": "external.alt_cycle_s",
    "solver.is_maximum": "solver.is_maximum_s",
    "solver.augment": "solver.augment_s",
    "solver.feasible": "solver.feasible_s",
    "core.replay": "core.replay_s",
    "decider": "decider.self_s",
}

COUNT_METRICS = (
    "trails.search_calls",
    "trails.fallback_searches",
    "augmenting.gadget_builds",
    "augmenting.gadget_nodes",
    "internal.moves",
    "external.escape_calls",
    "external.unlock_probes",
    "solver.is_maximum_calls",
    "solver.feasible_calls",
    "core.replayed_moves",
    "decider.trails_peeled",
) + tuple(f"decider.rule.{rule}" for rule in RULES)

RATIO_METRICS = ("trails.search_found_ratio", "external.unlock_found_ratio")

LAYER_METRICS = tuple(_TIME_METRICS.values()) + COUNT_METRICS + RATIO_METRICS


class Tracer:
    """Records spans and counts; ``installed()`` patches the library while active."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(name, opened)

    def _open(self, name: str) -> tuple[int, int, float]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, name: str, opened: tuple[int, int, float]) -> None:
        end = time.perf_counter()
        index, parent, start = opened
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def _plain(self, original, name):
        def traced(*args, **kwargs):
            opened = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(name, opened)

        return traced

    def _wrapper(self, original, name):
        counts = self.counts
        if name == "augmenting.search":

            def search(graph, pool, member, sources, add_sinks, remove_sinks=frozenset()):
                if len(pool) and sources and (add_sinks or remove_sinks):
                    counts["augmenting.gadget_builds"] += 1
                    counts["augmenting.gadget_nodes"] += 2 + 2 * len(pool)
                opened = self._open(name)
                try:
                    return original(graph, pool, member, sources, add_sinks, remove_sinks)
                finally:
                    self._close(name, opened)

            return search
        if name == "internal.synth":

            def synth(trail, ctx, bounds, out, *rest, **kwargs):
                before = len(out)
                opened = self._open(name)
                try:
                    return original(trail, ctx, bounds, out, *rest, **kwargs)
                finally:
                    self._close(name, opened)
                    counts["internal.moves"] += len(out) - before

            return synth
        if name == "core.replay":

            def replay(inst, seq):
                counts["core.replayed_moves"] += len(seq)
                opened = self._open(name)
                try:
                    return original(inst, seq)
                finally:
                    self._close(name, opened)

            return replay
        plain = self._plain(original, name)
        if name in ("trails.search", "external.unlock"):

            def found(*args, **kwargs):
                result = plain(*args, **kwargs)
                counts[name + ".found"] += result is not None
                return result

            return found
        return plain

    @contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, span_name in _WRAPS:
                module = importlib.import_module(f"dcsreconf.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def mark(self) -> tuple[int, Counter]:
        """A point to measure from: the span count and a copy of the counts."""
        return len(self.spans), Counter(self.counts)

    def count_rules(self, trace_entries) -> None:
        """Count the rule each peeled trail took, from ``decide_with_trace``'s trace."""
        for entry in trace_entries:
            rule = "detour-release" if entry.trail_class == "detour-release" else entry.rule
            self.counts[f"decider.rule.{rule}"] += 1

    def summary(self, since: tuple[int, Counter], until: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics over the spans and counts recorded between two marks."""
        first, counts_before = since
        last, counts_after = until
        spans = self.spans[first:last]
        counts = Counter(counts_after)
        counts.subtract(counts_before)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(spans)
        inner_searches: Counter = Counter()
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent = spans[i]
            duration = end - start
            self_time[name] += duration - child_time[i]
            calls[name] += 1
            if parent >= first:
                child_time[parent - first] += duration
                if name == "augmenting.search" and spans[parent - first][0] == "trails.search":
                    inner_searches[parent] += 1
        out: dict[str, float] = {metric: self_time[span] for span, metric in _TIME_METRICS.items()}
        search_calls = calls["trails.search"]
        probes = calls["solver.feasible"]
        out.update(
            {
                "trails.search_calls": search_calls,
                "trails.fallback_searches": sum(c - 1 for c in inner_searches.values()),
                "augmenting.gadget_builds": counts["augmenting.gadget_builds"],
                "augmenting.gadget_nodes": counts["augmenting.gadget_nodes"],
                "internal.moves": counts["internal.moves"],
                "external.escape_calls": calls["external.escape"],
                "external.unlock_probes": probes,
                "solver.is_maximum_calls": calls["solver.is_maximum"],
                "solver.feasible_calls": probes,
                "core.replayed_moves": counts["core.replayed_moves"],
                "decider.trails_peeled": calls["trails.classify"],
                "trails.search_found_ratio": (
                    counts["trails.search.found"] / search_calls if search_calls else 0.0
                ),
                "external.unlock_found_ratio": (
                    counts["external.unlock.found"] / probes if probes else 0.0
                ),
            }
        )
        for rule in RULES:
            out[f"decider.rule.{rule}"] = counts[f"decider.rule.{rule}"]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
