"""GED-based similarity search: lower-bound filtering plus capped verification."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bounds import GraphSummary, lb_from_branches, lb_from_summaries, summarize, vertex_branches
from .engine import (
    BUDGET_EXHAUSTED,
    DEFAULT_BEAM_WIDTH,
    DEFAULT_NODE_BUDGET,
    WITHIN_THRESHOLD,
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

    vertex_masks and edge_masks hold the same buckets' label units as
    bitmasks: bit i of vertex_masks[(n, m)][l][k - 1] is set when the i-th
    graph of size_index[(n, m)] has at least k vertices labelled l, and
    edge_masks likewise for edge labels. A label the bucket lacks has no
    entry, and no mask is empty. A query's k-th unit of label l is then
    matched by one mask for the whole bucket, and filter_candidates counts
    each graph's unmatched units with a few integer operations per unit.

    Building the database reads each graph's edges, never its adjacency, so
    a graph builds its per-vertex maps only when range_query's branch bound
    first checks it as a candidate.
    """

    graphs: dict[int, LabeledGraph]
    summaries: dict[int, GraphSummary]
    partitions: dict[int, VertexPartition]
    table: LabelTable
    ids: list[int]
    size_index: dict[tuple[int, int], list[int]]
    vertex_masks: dict[tuple[int, int], dict[int, list[int]]]
    edge_masks: dict[tuple[int, int], dict[int, list[int]]]

    @classmethod
    def from_graphs(cls, entries: list[tuple[int, LabeledGraph]], table: LabelTable) -> "GraphDatabase":
        db = cls(graphs={}, summaries={}, partitions={}, table=table, ids=[],
                 size_index={}, vertex_masks={}, edge_masks={})
        for gid, g in entries:
            if gid in db.graphs:
                raise ValueError(f"duplicate graph id {gid}")
            if g.table is not table:
                # Label ids are compared across graphs, so every graph must
                # be interned in the database's table.
                raise ValueError(f"graph {gid} does not share the database's label table")
            s = summarize(g)
            size = (s.n, s.m)
            members = db.size_index.setdefault(size, [])
            bit = 1 << len(members)
            members.append(len(db.ids))
            _add_units(db.vertex_masks.setdefault(size, {}), s.vertex_labels, bit)
            _add_units(db.edge_masks.setdefault(size, {}), s.edge_labels, bit)
            db.graphs[gid] = g
            db.summaries[gid] = s
            db.partitions[gid] = vertex_partition(g)
            db.ids.append(gid)
        return db

    @classmethod
    def from_text(cls, text: str, table: LabelTable | None = None) -> "GraphDatabase":
        entries, table = parse_graph_db(text, table)
        return cls.from_graphs(entries, table)

    def __len__(self):
        return len(self.graphs)


def _add_units(masks: dict[int, list[int]], counts: dict[int, int], bit: int) -> None:
    """Set bit in masks[l][k - 1] for each label l and each k <= counts[l]."""
    for lab, count in counts.items():
        levels = masks.setdefault(lab, [])
        while len(levels) < count:
            levels.append(0)
        for k in range(count):
            levels[k] |= bit


def filter_candidates(db: GraphDatabase, query: LabeledGraph, tau: int) -> list[int]:
    """Ids, in db.ids order, of the graphs the pair bound does not rule out.

    Size buckets with |n - n_q| + |m - m_q| > tau are skipped whole: every
    member's pair bound exceeds tau too. In each bucket left, a count test
    over the bucket's label masks sends on to the pair bound only the
    graphs whose shared vertex and edge labels reach

        vinter + einter >= need = max(n, n_q) + max(m, m_q) - tau,

    where vinter and einter are the sizes of the vertex- and edge-label
    multiset intersections with the query. The result equals a full scan,
    because the pair bound refutes every graph the count test drops:

        LB >= (max(n, n_q) - vinter) + (max(m, m_q) - einter).

    LB = max(n, n_q) - vinter + max(d1 + d2, d1 + m_q - einter) (see
    bounds._combine), so it suffices that d1 + m_q >= max(m, m_q). The
    degree surpluses satisfy over - under = 2 (m - m_q), the degree-sum
    difference, so d1 = ceil(over / 2) >= max(m - m_q, 0), and then
    d1 + m_q - einter >= max(m, m_q) - einter.

    The query has n_q + m_q label units, and a graph matches vinter +
    einter of them, so it passes when it misses at most slack = n_q + m_q -
    need units (0 <= slack <= tau in an admissible bucket). Misses are
    counted for the whole bucket at once, saturating at slack + 1: at[j]
    holds the graphs that have missed more than j units so far, and a unit
    whose mask is `mask` is missed by miss = full & ~mask. When need <= 0
    the count test refutes nothing (a graph sharing no label with the query
    may still pass), so the whole bucket goes to the pair bound.
    The graphs not returned cannot be within tau of the query.
    """
    check_search_args(threshold=tau)
    if query.table is not db.table:
        raise ValueError("query must share the database's label table")
    qsum = summarize(query)
    n_q, m_q = qsum.n, qsum.m
    ids, summaries = db.ids, db.summaries
    hits = []
    for (n, m), bucket in db.size_index.items():
        if abs(n - n_q) + abs(m - m_q) > tau:
            continue
        members = bucket
        need = max(n, n_q) + max(m, m_q) - tau
        if need > 0:
            full = (1 << len(bucket)) - 1
            slack = n_q + m_q - need
            at = [0] * (slack + 1)
            for masks, counts in ((db.vertex_masks[n, m], qsum.vertex_labels),
                                  (db.edge_masks[n, m], qsum.edge_labels)):
                for lab, count in counts.items():
                    levels = masks.get(lab, ())
                    for k in range(count):
                        miss = full ^ levels[k] if k < len(levels) else full
                        for j in range(slack, 0, -1):
                            at[j] |= at[j - 1] & miss
                        at[0] |= miss
            alive = full ^ at[slack]
            members = []
            while alive:
                low = alive & -alive
                members.append(bucket[low.bit_length() - 1])
                alive ^= low
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
    candidate it keeps is then decided in turn, in db.ids order, on the
    calling thread. First the branch bound (lb_from_branches given tau:
    cost rows, row and column minima, then a capped solve) may refute it.
    A cost row depends only on a candidate vertex's branch and the query's
    branches, so one dict of rows by branch is shared by every candidate of
    this query and dropped when the call returns.

    A candidate the branch bound does not refute has been solved to
    optimality, and its assignment induces a complete mapping
    (GraphMapping.from_assignment). Any complete mapping's edit cost is an
    upper bound on ged, so when that cost is <= tau the candidate is a match
    with that cost as its bound, and the engine does not run. Otherwise the
    engine runs in decision mode (bss_ged with threshold tau); its first
    leaf of cost <= tau is the bound. Decision mode accepts exactly the
    graphs with ged <= tau, so certifying changes no match, only turns a
    graph the node budget would leave unknown into a match.

    candidate_count counts every graph the filter kept, branch_refuted those
    of them the branch bound refuted and certified those matched by their
    assignment, so filtered_count + candidate_count == len(db). Matches and
    unknowns are sorted by id. threads must be 1 (any other value raises
    ValueError); bench/workloads.py still passes it. verify_s times the
    branch bound, the certify step and the engine.
    """
    check_search_args(w, node_budget, tau)
    if type(threads) is not int or threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    t0 = time.perf_counter()
    candidates = filter_candidates(db, query, tau)
    t1 = time.perf_counter()

    qbranches = vertex_branches(query)
    rows: dict = {}
    matches = []
    unknowns = []
    branch_refuted = certified = 0
    for gid in candidates:
        g = db.graphs[gid]
        bound, assignment = lb_from_branches(vertex_branches(g), qbranches, tau, rows)
        if bound > tau:
            branch_refuted += 1
            continue
        cost = edit_cost(GraphMapping.from_assignment(assignment, g.n, query.n), g, query).total
        if cost <= tau:
            certified += 1
            matches.append(Match(gid, cost))
            continue
        res = bss_ged(g, query, w, node_budget=node_budget, threshold=tau)
        if res.status == WITHIN_THRESHOLD:
            matches.append(Match(gid, res.upper_bound))
        elif res.status == BUDGET_EXHAUSTED:
            unknowns.append(gid)
    t2 = time.perf_counter()

    matches.sort(key=lambda m: m.graph_id)
    unknowns.sort()
    return QueryResult(
        matches=matches,
        unknowns=unknowns,
        filtered_count=len(db) - len(candidates),
        candidate_count=len(candidates),
        branch_refuted=branch_refuted,
        certified=certified,
        timings={"filter_s": t1 - t0, "verify_s": t2 - t1},
    )
