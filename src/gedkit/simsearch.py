"""GED-based similarity search: lower-bound filtering plus capped verification."""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .bounds import GraphSummary, lb_from_branches, lb_from_summaries, summarize, vertex_branches
from .engine import (
    BUDGET_EXHAUSTED,
    DEFAULT_BEAM_WIDTH,
    DEFAULT_NODE_BUDGET,
    WITHIN_THRESHOLD,
    GedResult,
    bss_ged,
    check_search_args,
)
from .graphs import LabelTable, LabeledGraph, VertexPartition, parse_graph_db, vertex_partition
from .mapping import GraphMapping, edit_cost


@dataclass
class GraphDatabase:
    """Id-indexed graph collection with per-graph summaries precomputed.

    size_index maps each size (|V|, |E|) in the collection to the positions
    in ids of the graphs of that size, ascending. The pair bound is at least
    |n_g - n_q| + |m_g - m_q| (see lb_from_summaries), so the candidate
    filter skips every bucket farther than tau from the query's size without
    computing a bound for any of its members.

    label_postings holds the same buckets' label postings:
    label_postings[(n, m)][l][k - 1] lists, ascending, the positions in ids
    of the bucket's graphs with at least k vertices labelled l. Counting a
    position once per list that holds it, over the lists (l, k) with
    k <= c_q(l), gives exactly that graph's vertex-label intersection with
    the query, sum over l of min(c_g(l), c_q(l)), with no per-graph call.
    """

    graphs: dict[int, LabeledGraph]
    summaries: dict[int, GraphSummary]
    partitions: dict[int, VertexPartition]
    table: LabelTable
    ids: list[int]
    size_index: dict[tuple[int, int], list[int]]
    label_postings: dict[tuple[int, int], dict[int, list[list[int]]]]

    @classmethod
    def from_graphs(cls, entries: list[tuple[int, LabeledGraph]], table: LabelTable) -> "GraphDatabase":
        graphs: dict[int, LabeledGraph] = {}
        for gid, g in entries:
            if gid in graphs:
                raise ValueError(f"duplicate graph id {gid}")
            if g.table is not table:
                # Label ids are compared across graphs, so every graph must
                # be interned in the database's table.
                raise ValueError(f"graph {gid} does not share the database's label table")
            graphs[gid] = g
        ids = list(graphs)
        summaries = {gid: summarize(g) for gid, g in graphs.items()}
        size_index: dict[tuple[int, int], list[int]] = {}
        label_postings: dict[tuple[int, int], dict[int, list[list[int]]]] = {}
        for pos, gid in enumerate(ids):
            s = summaries[gid]
            size = (s.n, s.m)
            size_index.setdefault(size, []).append(pos)
            bucket = label_postings.setdefault(size, {})
            for lab, count in s.vertex_labels.items():
                lists = bucket.setdefault(lab, [])
                while len(lists) < count:
                    lists.append([])
                for k in range(count):
                    lists[k].append(pos)
        return cls(
            graphs=graphs,
            summaries=summaries,
            partitions={gid: vertex_partition(g) for gid, g in graphs.items()},
            table=table,
            ids=ids,
            size_index=size_index,
            label_postings=label_postings,
        )

    @classmethod
    def from_text(cls, text: str, table: LabelTable | None = None) -> "GraphDatabase":
        entries, table = parse_graph_db(text, table)
        return cls.from_graphs(entries, table)

    def __len__(self):
        return len(self.graphs)


def filter_candidates(db: GraphDatabase, query: LabeledGraph, tau: int) -> list[int]:
    """Ids, in db.ids order, of the graphs the pair bound does not rule out.

    Size buckets with |n - n_q| + |m - m_q| > tau are skipped whole: every
    member's pair bound exceeds tau too. In each bucket left, a count test
    over db.label_postings finds each graph's vertex-label intersection
    vinter with the query, and only graphs with vinter >= need, where
    need = max(n, n_q) - tau, go on to the pair bound. The pair bound is at
    least max(n, n_q) - vinter, so it would refute every graph the count
    test drops, and the result equals a full scan. When
    need <= 0 the count test refutes nothing (a graph sharing no label with
    the query may still pass), so the whole bucket goes to the pair bound.
    The graphs not returned cannot be within tau of the query.
    """
    check_search_args(threshold=tau)
    if query.table is not db.table:
        raise ValueError("query must share the database's label table")
    qsum = summarize(query)
    n_q, m_q = qsum.n, qsum.m
    ids, summaries = db.ids, db.summaries
    hits = []
    for (n, m), members in db.size_index.items():
        if abs(n - n_q) + abs(m - m_q) > tau:
            continue
        need = max(n, n_q) - tau
        if need > 0:
            postings = db.label_postings[n, m]
            counts: Counter[int] = Counter()
            for lab, count in qsum.vertex_labels.items():
                for positions in postings.get(lab, ())[:count]:
                    counts.update(positions)
            members = [pos for pos, shared in counts.items() if shared >= need]
        hits.extend(pos for pos in members if lb_from_summaries(summaries[ids[pos]], qsum) <= tau)
    hits.sort()
    return [ids[pos] for pos in hits]


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
    branch_refuted: int
    certified: int
    timings: dict[str, float] = field(default_factory=dict)


def range_query(db: GraphDatabase, query: LabeledGraph, tau: int,
                w: int = DEFAULT_BEAM_WIDTH, threads: int = 1,
                node_budget: int = DEFAULT_NODE_BUDGET) -> QueryResult:
    """All graphs within distance tau of the query: filter, then verify.

    The filter skips size buckets, drops graphs by the label count test and
    applies the pair bound to the rest (see filter_candidates). Each
    candidate it keeps is then checked against the branch bound
    (lb_from_branches given tau: cost rows, row and column minima, then a
    capped solve). A cost row depends only on a candidate vertex's branch
    and the query's branches, so one dict of rows by branch is made when
    the branch stage starts, shared by every candidate of this query, and
    dropped when the call returns.

    A candidate the branch bound does not refute has been solved to
    optimality, and its assignment induces a complete mapping
    (GraphMapping.from_assignment). Any complete mapping's edit cost is an
    upper bound on ged, so when that cost is <= tau the candidate is a match
    with that cost as its bound, and the engine does not run. The rest run
    the engine in decision mode (bss_ged with threshold tau), in db.ids
    order; its first leaf of cost <= tau is the bound. Decision mode accepts
    exactly the graphs with ged <= tau, so certifying changes no match,
    only turns a graph the node budget would leave unknown into a match.

    candidate_count counts every graph the filter kept, branch_refuted those
    of them the branch bound refuted and certified those matched by their
    assignment, so filtered_count + candidate_count == len(db). Engine jobs
    are independent, so the result is the same for any thread count;
    verify_s times the branch stage, the certify step and the engine.
    """
    check_search_args(w, node_budget, tau)
    t0 = time.perf_counter()
    candidates = filter_candidates(db, query, tau)
    t1 = time.perf_counter()

    qbranches = vertex_branches(query)
    rows: dict = {}
    matches = []
    survivors = []
    for gid in candidates:
        g = db.graphs[gid]
        bound, assignment = lb_from_branches(vertex_branches(g), qbranches, tau, rows)
        if bound > tau:
            continue
        cost = edit_cost(GraphMapping.from_assignment(assignment, g.n, query.n), g, query).total
        if cost <= tau:
            matches.append(Match(gid, cost))
        else:
            survivors.append(gid)
    certified = len(matches)

    def job(gid: int) -> tuple[int, GedResult]:
        return gid, bss_ged(db.graphs[gid], query, w, node_budget=node_budget, threshold=tau)

    if threads > 1 and len(survivors) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(job, survivors))
    else:
        outcomes = [job(gid) for gid in survivors]
    t2 = time.perf_counter()

    unknowns = []
    for gid, res in outcomes:
        if res.status == WITHIN_THRESHOLD:
            matches.append(Match(gid, res.upper_bound))
        elif res.status == BUDGET_EXHAUSTED:
            unknowns.append(gid)
    matches.sort(key=lambda m: m.graph_id)
    unknowns.sort()
    return QueryResult(
        matches=matches,
        unknowns=unknowns,
        filtered_count=len(db) - len(candidates),
        candidate_count=len(candidates),
        branch_refuted=len(candidates) - certified - len(survivors),
        certified=certified,
        timings={"filter_s": t1 - t0, "verify_s": t2 - t1},
    )
