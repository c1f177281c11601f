"""Outside-in tracer: spans and counts recorded at treepack's module boundaries.

Nothing under src/ changes.  `installed(tracer)` swaps, for the duration of a
`with` block, the module and class attributes that callers look up at call
time (for example `treepack.graphcore.min_cut`, which `steiner_min_cut` and
`mader_split` resolve through their module globals) for wrappers that record
a span per call, then puts the originals back.  Untraced passes therefore
run the library exactly as shipped.

A span is (name, parent span id, start, end, request id); the request id is
the index of the instance being solved, so all spans of one solve share it.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans and counters of one pass over the instance pool."""

    def __init__(self):
        self.spans: list[tuple | None] = []   # index is the span id
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.request = -1

    def span(self, name: str, fn, after=None):
        """Wrap `fn` so each call records a span named `name`; `after`, when
        given, is called with (tracer, result) to add result-derived counts."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end, self.request)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, (name, parent, start, end, req) in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "start": start, "end": end, "request": req}))
                out.write("\n")


def _count_paths(tracer: Tracer, result) -> None:
    # One unit-capacity augmenting path per unit of the returned cut size.
    tracer.counts["graphcore.min_cut.paths"] += result[0]


def _count_accepted_split(tracer: Tracer, _result) -> None:
    tracer.counts["graphcore.mader_split.accepted"] += 1


def _count_steps(tracer: Tracer, result) -> None:
    kinds = tracer.counts
    for step in result.trace.steps:
        kind = type(step).__name__
        if kind == "SuppressStep" or (kind == "SplitStep"
                                      and getattr(step, "removed", None) is not None):
            kinds["graphcore.reduce_instance.steps_suppress"] += 1
        elif kind == "SplitStep":
            kinds["graphcore.reduce_instance.steps_split"] += 1
        elif kind == "DeleteEdgeStep":
            kinds["graphcore.reduce_instance.steps_delete"] += 1
        else:
            kinds["graphcore.reduce_instance.steps_remove"] += 1
        kinds["graphcore.reduce_instance.steps"] += 1


def _count_attempts(tracer: Tracer, result) -> None:
    tracer.counts["generate.attempts"] += result.attempts


def _counting_independent(tracer: Tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def independent(self, subset):
        cache = getattr(self, "_cache", None)
        before = -1 if cache is None else len(cache)
        result = fn(self, subset)
        counts["matroid.independent.calls"] += 1
        if result:
            counts["matroid.independent.accepted"] += 1
        if cache is None or len(cache) != before:
            counts["matroid.independent.misses"] += 1
        return result

    return independent


def _counting_partitions(tracer: Tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def iter_partitions(vertices):
        for p in fn(vertices):
            counts["matroid.iter_partitions.yielded"] += 1
            yield p

    return iter_partitions


def _bindings(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every wrapped lookup site."""
    graphcore = sys.modules["treepack.graphcore"]
    matroid = sys.modules["treepack.matroid"]
    packing = sys.modules["treepack.packing"]
    generate = sys.modules["treepack.generate"]

    def span(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    return [
        (graphcore, "min_cut", span("graphcore.min_cut", _count_paths)),
        # steiner_min_cut is bound twice: graphcore's global (reached through
        # steiner_connectivity) and packing's import (the threshold check).
        (graphcore, "steiner_min_cut", span("graphcore.steiner_min_cut")),
        (packing, "steiner_min_cut", span("graphcore.steiner_min_cut")),
        (graphcore, "split_off", span("graphcore.split_off")),
        (graphcore, "mader_split", span("graphcore.mader_split", _count_accepted_split)),
        (packing, "reduce_instance", span("graphcore.reduce_instance", _count_steps)),
        (packing, "pack_bases", span("matroid.pack_bases")),
        (matroid.Matroid, "independent", lambda fn: _counting_independent(tracer, fn)),
        (matroid, "graphic_independent", span("matroid.graphic_independent")),
        (matroid.HypergraphicMatroid, "witness", span("matroid.witness")),
        (packing, "iter_partitions", lambda fn: _counting_partitions(tracer, fn)),
        (packing, "build_steiner_hypergraph", span("packing.build_steiner_hypergraph")),
        (packing, "prune_to_terminal_tree", span("packing.prune_to_terminal_tree")),
        (packing, "lift_parts", span("packing.lift_parts")),
        (packing, "verify_packing", span("packing.verify_packing")),
        (generate, "generate", span("generate.generate", _count_attempts)),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the library's lookups through `tracer` inside the block."""
    saved = []
    try:
        for owner, attr, make in _bindings(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

COUNTERS = (
    "graphcore.min_cut.calls", "graphcore.min_cut.paths",
    "graphcore.min_cut.calls_in_mader_split", "graphcore.min_cut.calls_in_reduce_guard",
    "graphcore.steiner_min_cut.calls",
    "graphcore.mader_split.calls", "graphcore.mader_split.trials",
    "graphcore.reduce_instance.steps", "graphcore.reduce_instance.steps_split",
    "graphcore.reduce_instance.steps_suppress", "graphcore.reduce_instance.steps_delete",
    "graphcore.reduce_instance.steps_remove",
    "matroid.independent.calls", "matroid.independent.misses",
    "matroid.graphic_independent.calls", "matroid.witness.calls",
    "matroid.iter_partitions.yielded",
    "packing.prune_to_terminal_tree.calls", "packing.verify_packing.calls",
    "generate.attempts",
)

RATIOS = (
    "graphcore.mader_split.accept_ratio",
    "matroid.independent.accept_ratio", "matroid.independent.hit_ratio",
    "trace.overhead_ratio",
)

TIMINGS = (
    "graphcore.min_cut.busy_ms", "graphcore.steiner_min_cut.busy_ms",
    "graphcore.mader_split.busy_ms",
    "graphcore.reduce_instance.busy_ms", "graphcore.reduce_instance.self_ms",
    "matroid.pack_bases.busy_ms", "matroid.pack_bases.self_ms",
    "matroid.graphic_independent.busy_ms", "matroid.witness.busy_ms",
    "packing.pipeline.busy_ms", "packing.pipeline.self_ms",
    "packing.build_steiner_hypergraph.busy_ms",
    "packing.prune_to_terminal_tree.busy_ms", "packing.lift_parts.busy_ms",
    "packing.verify_packing.busy_ms",
    "generate.generate.busy_ms",
)


def unit_of(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "ms" if name.endswith("_ms") else "count"


def summarize(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """The deterministic counters and ratios, and the span timings in ms, of
    one traced pass.

    busy_ms sums span durations; self_ms subtracts the time covered by
    direct child spans.  A min_cut call counts as in mader_split when a
    mader_split span is among its ancestors, and as in the reduce guard when
    its parent is a steiner_min_cut span made directly by reduce_instance
    other than the first and last such span, which are reduce_instance's own
    entry and exit connectivity checks.
    """
    spans = tracer.spans
    counts: Counter[str] = Counter(tracer.counts)
    busy: Counter[str] = Counter()
    child = [0.0] * len(spans)
    under_mader = [False] * len(spans)
    reduce_checks: dict[int, list[int]] = {}
    for sid, (name, parent, start, end, _req) in enumerate(spans):
        busy[name] += end - start
        counts[name + ".calls"] += 1
        if parent < 0:
            continue
        child[parent] += end - start
        parent_name = spans[parent][0]
        under_mader[sid] = under_mader[parent] or parent_name == "graphcore.mader_split"
        if name == "graphcore.steiner_min_cut" and parent_name == "graphcore.reduce_instance":
            reduce_checks.setdefault(parent, []).append(sid)
    guard = {sid for checks in reduce_checks.values() for sid in checks[1:-1]}
    self_time: Counter[str] = Counter()
    for sid, (name, parent, start, end, _req) in enumerate(spans):
        self_time[name] += (end - start) - child[sid]
        if name == "graphcore.min_cut":
            counts["graphcore.min_cut.calls_in_mader_split"] += under_mader[sid]
            counts["graphcore.min_cut.calls_in_reduce_guard"] += parent in guard
    counts["graphcore.mader_split.trials"] = counts["graphcore.split_off.calls"]

    def share(num: int, den: int) -> float:
        return num / den if den else 0.0

    calls = counts["matroid.independent.calls"]
    deterministic = {name: counts[name] for name in COUNTERS}
    deterministic["graphcore.mader_split.accept_ratio"] = share(
        counts["graphcore.mader_split.accepted"], counts["graphcore.mader_split.trials"])
    deterministic["matroid.independent.accept_ratio"] = share(
        counts["matroid.independent.accepted"], calls)
    deterministic["matroid.independent.hit_ratio"] = share(
        calls - counts["matroid.independent.misses"], calls)
    timings = {}
    for name in TIMINGS:
        layer, _, kind = name.rpartition(".")
        timings[name] = (busy if kind == "busy_ms" else self_time)[layer] * 1000.0
    return deterministic, timings
