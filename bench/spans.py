"""Span tracing of gedkit from outside the package.

Each traced function is rebound where its caller looks it up, for example
``gedkit.engine.gen_succr`` (looked up by the engine) or
``gedkit.successors.extension_cost`` (looked up by the successor
generator). A wrapper times the call, charges its duration to the enclosing
span so that self times can be derived, and either records the span (name,
start, end, parent) or, for the per-node calls that run about a million
times in a run, only adds it to an aggregate.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from collections import Counter

from gedkit import bounds, engine, mapping, simsearch, successors

# (owner, attribute, span name, recorded individually). Per-node calls are
# aggregated only; op-level and per-pair calls also keep their spans.
TARGETS = [
    (simsearch, "parse_graph_db", "graphs.parse", True),
    (simsearch, "summarize", "bounds.summarize", False),
    (simsearch, "vertex_partition", "graphs.db_partition", False),
    (simsearch, "lb_from_summaries", "bounds.pair_lb", False),
    (simsearch, "range_query", "simsearch.range_query", True),
    (simsearch, "bss_ged", "engine.bss_ged", True),
    (engine, "bss_ged", "engine.bss_ged", True),
    (engine.SearchRun, "__init__", "engine.init", False),
    (engine.SearchRun, "run", "engine.run", False),
    (engine, "determine_order", "successors.order", False),
    (engine, "vertex_partition", "graphs.partition", False),
    (engine, "gen_succr", "successors.gen", False),
    (engine, "basic_gen_succr", "successors.gen", False),
    (successors, "extension_cost", "successors.extension_cost", False),
    (bounds, "remainder_bounds", "bounds.heuristic", False),
    (mapping.GraphMapping, "mapped_sources", "mapping.mapped_sources", False),
]


class Tracer:
    """Installs timing wrappers on start() and removes them on stop()."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []  # (id, name, start_s, end_s, parent id)
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.engine_stats = Counter()
        self.max_open = 0
        self.generated_by_depth = Counter()
        self.expanded_by_depth = Counter()  # first expansions, by expanded node's layer
        self.graphs_parsed = 0
        self._ids = itertools.count(1)
        self._stack = [[0.0, None]]  # frames: [child time, enclosing span id]
        self._saved: list[tuple] = []
        hooks = {
            "engine.bss_ged": self._on_result,
            "successors.gen": self._on_gen,
            "graphs.parse": self._on_parse,
        }
        self._wrappers = [
            (owner, attr, self._wrap(getattr(owner, attr), name, record, hooks.get(name)))
            for owner, attr, name, record in TARGETS
        ]

    def start(self):
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def stop(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        parent = self._stack[-1]
        frame = [0.0, next(self._ids)]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            parent[0] += t1 - t0
            self.spans.append((frame[1], name, t0, t1, parent[1]))

    def _wrap(self, orig, name, record, hook):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if record else parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if record:
                    spans.append((frame[1], name, t0, t1, parent[1]))
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _on_result(self, args, result):
        s = result.stats
        self.engine_stats.update(
            runs=1, nodes_generated=s.nodes_generated, nodes_expanded=s.nodes_expanded,
            passes=s.passes, backtracks=s.backtracks,
        )
        self.max_open = max(self.max_open, s.max_open)
        self.generated_by_depth[0] += 1  # the root

    def _on_gen(self, args, result):
        layer = args[0].layer
        self.expanded_by_depth[layer] += 1
        self.generated_by_depth[layer + 1] += len(result)

    def _on_parse(self, args, result):
        self.graphs_parsed += len(result[0])

    def total(self, name: str) -> float:
        return self.agg[name][1]

    def self_time(self, name: str) -> float:
        return self.agg[name][2]

    def calls(self, name: str) -> int:
        return self.agg[name][0]

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start_s": a - self.t0, "end_s": b - self.t0, "parent": p}
                for i, n, a, b, p in self.spans
            ],
            "aggregates": {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in self.agg.items()},
            "engine_stats": dict(self.engine_stats),
            "max_open": self.max_open,
        }
