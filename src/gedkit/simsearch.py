"""GED-based similarity search: lower-bound filtering plus capped verification."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .bounds import GraphSummary, lb_from_summaries, summarize
from .engine import (
    ABOVE_BOUND,
    BUDGET_EXHAUSTED,
    DEFAULT_BEAM_WIDTH,
    DEFAULT_NODE_BUDGET,
    WITHIN_THRESHOLD,
    GedResult,
    bss_ged,
)
from .graphs import LabelTable, LabeledGraph, VertexPartition, parse_graph_db, vertex_partition


@dataclass
class GraphDatabase:
    """Id-indexed graph collection with per-graph summaries precomputed."""

    graphs: dict[int, LabeledGraph]
    summaries: dict[int, GraphSummary]
    partitions: dict[int, VertexPartition]
    table: LabelTable
    ids: list[int]

    @classmethod
    def from_graphs(cls, entries: list[tuple[int, LabeledGraph]], table: LabelTable) -> "GraphDatabase":
        graphs = dict(entries)
        return cls(
            graphs=graphs,
            summaries={gid: summarize(g) for gid, g in graphs.items()},
            partitions={gid: vertex_partition(g) for gid, g in graphs.items()},
            table=table,
            ids=[gid for gid, _ in entries],
        )

    @classmethod
    def from_text(cls, text: str, table: LabelTable | None = None) -> "GraphDatabase":
        entries, table = parse_graph_db(text, table)
        return cls.from_graphs(entries, table)

    def __len__(self):
        return len(self.graphs)


def filter_candidates(db: GraphDatabase, query: LabeledGraph, tau: int) -> list[int]:
    """Ids whose lower bound does not rule them out; the rest cannot match."""
    if tau < 0:
        raise ValueError("threshold must be >= 0")
    if query.table is not db.table:
        raise ValueError("query must share the database's label table")
    qsum = summarize(query)
    return [gid for gid in db.ids if lb_from_summaries(db.summaries[gid], qsum) <= tau]


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of one threshold-capped verification.

    decision 'yes' carries a certified upper bound <= tau; 'no' proves the
    distance exceeds tau; 'unknown' means the budget ran out first.
    """

    decision: str
    bound: int | None
    result: GedResult


def verify_within(g: LabeledGraph, q: LabeledGraph, tau: int,
                  w: int = DEFAULT_BEAM_WIDTH, node_budget: int = DEFAULT_NODE_BUDGET,
                  time_limit: float | None = None) -> VerifyOutcome:
    """Decide ged(g, q) <= tau with the engine capped at tau + 1.

    Starting the search with upper bound tau + 1 prunes everything beyond
    the threshold, and the first leaf at or under tau ends the run, so the
    run never finishes with an exact distance.
    """
    if tau < 0:
        raise ValueError("threshold must be >= 0")
    result = bss_ged(
        g, q, w,
        node_budget=node_budget,
        time_limit=time_limit,
        initial_ub=tau + 1,
        stop_threshold=tau,
    )
    if result.status == WITHIN_THRESHOLD:
        return VerifyOutcome("yes", result.upper_bound, result)
    if result.status == ABOVE_BOUND:
        return VerifyOutcome("no", None, result)
    assert result.status == BUDGET_EXHAUSTED
    return VerifyOutcome("unknown", result.upper_bound, result)


@dataclass(frozen=True)
class Match:
    graph_id: int
    bound: int


@dataclass
class QueryResult:
    matches: list[Match]
    unknowns: list[int]
    filtered_count: int
    candidate_count: int
    timings: dict[str, float] = field(default_factory=dict)


def range_query(db: GraphDatabase, query: LabeledGraph, tau: int,
                w: int = DEFAULT_BEAM_WIDTH, threads: int = 1,
                node_budget: int = DEFAULT_NODE_BUDGET,
                time_limit: float | None = None) -> QueryResult:
    """All graphs within distance tau of the query: filter, then verify.

    Candidates are verified in ascending lower-bound order; verification
    jobs are independent, so the result is the same for any thread count.
    """
    if tau < 0:
        raise ValueError("threshold must be >= 0")
    t0 = time.perf_counter()
    qsum = summarize(query)
    bounds = {gid: lb_from_summaries(db.summaries[gid], qsum) for gid in db.ids}
    candidates = [gid for gid in db.ids if bounds[gid] <= tau]
    candidates.sort(key=lambda gid: (bounds[gid], gid))
    t1 = time.perf_counter()

    def job(gid: int) -> tuple[int, VerifyOutcome]:
        return gid, verify_within(db.graphs[gid], query, tau, w, node_budget, time_limit)

    if threads > 1 and len(candidates) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(job, candidates))
    else:
        outcomes = [job(gid) for gid in candidates]
    t2 = time.perf_counter()

    matches = []
    unknowns = []
    for gid, out in outcomes:
        if out.decision == "yes":
            matches.append(Match(gid, out.bound))
        elif out.decision == "unknown":
            unknowns.append(gid)
    matches.sort(key=lambda m: m.graph_id)
    unknowns.sort()
    return QueryResult(
        matches=matches,
        unknowns=unknowns,
        filtered_count=len(db) - len(candidates),
        candidate_count=len(candidates),
        timings={"filter_s": t1 - t0, "verify_s": t2 - t1},
    )
