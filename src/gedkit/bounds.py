"""Admissible lower bounds: degree-sequence deltas, the pair bound, and h(r)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

from .graphs import (
    LabeledGraph,
    degree_sequence,
    label_multiset,
    multiset_intersection_size,
)
from .mapping import GraphMapping


def _deltas(degs_g: Sequence[int], degs_q: Sequence[int]) -> tuple[int, int]:
    """Positionwise surplus degree mass on each side, halved and rounded up.

    Both non-increasing sequences are walked once, the shorter one read as
    zero-extended; each surplus edge endpoint pairs with another, hence the
    division by two.
    """
    over = under = 0
    for a, b in zip_longest(degs_g, degs_q, fillvalue=0):
        if a > b:
            over += a - b
        else:
            under += b - a
    return -(-over // 2), -(-under // 2)


def _pair_bound(n_g: int, n_q: int, vinter: int, degs_g: Sequence[int],
                degs_q: Sequence[int], m_q: int, einter: int) -> int:
    """The pair bound LB from its ingredients.

    vinter and einter are the sizes of the vertex- and edge-label multiset
    intersections, m_q the target's edge count, and degs_g, degs_q the
    non-increasing degree sequences; trailing zeros do not change the bound.
    """
    d1, d2 = _deltas(degs_g, degs_q)
    return max(n_g, n_q) - vinter + max(d1 + d2, d1 + m_q - einter)


def delta_bounds(g: LabeledGraph, q: LabeledGraph) -> tuple[int, int]:
    """Lower bounds on edge deletions and insertions from degree sequences."""
    return _deltas(degree_sequence(g), degree_sequence(q))


@dataclass(frozen=True)
class GraphSummary:
    """Per-graph inputs of the pair bound, precomputable for databases."""

    n: int
    m: int
    vertex_labels: Counter
    edge_labels: Counter
    degrees: tuple[int, ...]


def summarize(g: LabeledGraph) -> GraphSummary:
    return GraphSummary(
        n=g.n,
        m=g.m,
        vertex_labels=label_multiset(g, "vertices"),
        edge_labels=label_multiset(g, "edges"),
        degrees=degree_sequence(g),
    )


def lb_from_summaries(a: GraphSummary, b: GraphSummary) -> int:
    """Lower bound on ged from two precomputed summaries (source a, target b).

    Costs O(|V| + |E|) of the two graphs: two label-count intersections and
    one walk over the degree sequences, with no per-call container classes.
    tests/reference_bounds.py keeps the Counter-based original that tests
    compare it against.

    Size corollary: the bound is at least |a.n - b.n| + |a.m - b.m|.
    - max(n_a, n_b) - vinter >= |n_a - n_b|, since vinter <= min(n_a, n_b).
    - d1 + d2 >= (over + under) / 2 >= |over - under| / 2 = |m_a - m_b|,
      since over - under is the degree-sum difference 2 (m_a - m_b).
    Similarity search relies on it to skip whole size buckets.
    """
    return _pair_bound(
        a.n, b.n, multiset_intersection_size(a.vertex_labels, b.vertex_labels),
        a.degrees, b.degrees, b.m, multiset_intersection_size(a.edge_labels, b.edge_labels),
    )


def lb_graph(g: LabeledGraph, q: LabeledGraph) -> int:
    """Lower bound on ged(g, q) from label multisets and degree sequences."""
    return lb_from_summaries(summarize(g), summarize(q))


def h_for_mapping(mapping: GraphMapping, g: LabeledGraph, q: LabeledGraph) -> int:
    return max(remainder_bounds(mapping, g, q))


def remainder_bounds(mapping: GraphMapping, g: LabeledGraph, q: LabeledGraph) -> tuple[int, int, int]:
    """The three remainder bounds below a partial mapping; h is their max.

    Each starts from the pair bound on the unmapped parts and adds, per
    mapped vertex, the cheapest reconciliation of its outer edges; the last
    two trade per-vertex tightness for a global outer-vertex correction.

    Costs O(|V| + |E|) per call over flat lists and plain dicts, reading
    mapping.pairs directly and building no per-call container classes.
    tests/reference_bounds.py keeps the Counter-based original that tests
    compare it against.
    """
    pairs = mapping.pairs
    mapped = [False] * g.n
    used = [False] * q.n
    for u, t in pairs:
        if u is not None:
            mapped[u] = True
        if t is not None:
            used[t] = True

    # Multiset intersections count the source side into a dict, then let the
    # target side consume it: every consumed unit is one shared label.
    counts: dict[int, int] = {}
    n_g = 0
    for u, lab in enumerate(g.vertex_labels):
        if not mapped[u]:
            n_g += 1
            counts[lab] = counts.get(lab, 0) + 1
    n_q = vinter = 0
    for v, lab in enumerate(q.vertex_labels):
        if not used[v]:
            n_q += 1
            c = counts.get(lab)
            if c:
                counts[lab] = c - 1
                vinter += 1

    # Edges of the unmapped induced parts. Mapped vertices keep degree 0,
    # which does not change the degree-sequence deltas.
    counts = {}
    deg_g = [0] * g.n
    for u, v, lab in g.edges:
        if not (mapped[u] or mapped[v]):
            counts[lab] = counts.get(lab, 0) + 1
            deg_g[u] += 1
            deg_g[v] += 1
    deg_q = [0] * q.n
    m_q = einter = 0
    for u, v, lab in q.edges:
        if not (used[u] or used[v]):
            m_q += 1
            deg_q[u] += 1
            deg_q[v] += 1
            c = counts.get(lab)
            if c:
                counts[lab] = c - 1
                einter += 1
    deg_g.sort(reverse=True)
    deg_q.sort(reverse=True)
    base = _pair_bound(n_g, n_q, vinter, deg_g, deg_q, m_q, einter)

    # Outer edges: from each mapped vertex to the unmapped part. Neighbours
    # are read by key, with a label lookup only where one is needed: on
    # these short read-only views that is cheaper than .items().
    sum_max = sum_tgt = sum_src = 0
    a_g: set[int] = set()
    a_q: set[int] = set()
    adj_g, adj_q = g.adjacency, q.adjacency
    for u, t in pairs:
        if u is None:
            continue
        counts = {}
        size_u = 0
        adj = adj_g[u]
        for v in adj:
            if not mapped[v]:
                size_u += 1
                lab = adj[v]
                counts[lab] = counts.get(lab, 0) + 1
                a_g.add(v)
        size_t = inter = 0
        if t is not None:
            adj = adj_q[t]
            for v in adj:
                if not used[v]:
                    size_t += 1
                    a_q.add(v)
                    lab = adj[v]
                    c = counts.get(lab)
                    if c:
                        counts[lab] = c - 1
                        inter += 1
        sum_max += max(size_u, size_t) - inter
        sum_tgt += size_t - inter
        sum_src += size_u - inter

    lb1 = base + sum_max
    lb2 = base + sum_tgt + max(0, len(a_g) - len(a_q))
    lb3 = base + sum_src + max(0, len(a_q) - len(a_g))
    return lb1, lb2, lb3


Branch = tuple[int, tuple[int, ...]]


def vertex_branches(g: LabeledGraph) -> list[Branch]:
    """Each vertex's branch: its label and its sorted incident edge labels."""
    adj = g.adjacency
    return [(lab, tuple(sorted(adj[u].values()))) for u, lab in enumerate(g.vertex_labels)]


def min_cost_assignment(cost: Sequence[Sequence[int]]) -> int:
    """Minimum total cost of a perfect assignment on a square integer matrix.

    The Hungarian method with row and column potentials, O(k^3): row i is
    added to the matching along a shortest augmenting path in reduced costs,
    after which the potentials keep every reduced cost non-negative. None
    stands for an unreached column, so the arithmetic stays integral.
    """
    k = len(cost)
    row_pot = [0] * (k + 1)
    col_pot = [0] * (k + 1)
    match = [0] * (k + 1)  # match[j]: 1-based row assigned to column j, 0 if none
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        slack: list[int | None] = [None] * (k + 1)
        done = [False] * (k + 1)
        while match[j0]:
            done[j0] = True
            i0 = match[j0]
            row, pot = cost[i0 - 1], row_pot[i0]
            delta = j1 = None
            for j in range(1, k + 1):
                if not done[j]:
                    cur = row[j - 1] - pot - col_pot[j]
                    if slack[j] is None or cur < slack[j]:
                        slack[j] = cur
                        way[j] = j0
                    if delta is None or slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(k + 1):
                if done[j]:
                    row_pot[match[j]] += delta
                    col_pot[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return sum(cost[match[j] - 1][j - 1] for j in range(1, k + 1))


def lb_from_branches(a: Sequence[Branch], b: Sequence[Branch]) -> int:
    """The branch lower bound on ged from two graphs' vertex branches.

    Costs are doubled to stay integral. Mapping branch u to branch v costs
    2 [l(u) != l(v)] + max(d_u, d_v) - |E_u & E_v|, with E_u the multiset of
    u's incident edge labels; deleting u costs 2 + d_u and inserting v
    2 + d_v. The bound is the minimum-cost assignment, halved, rounded up.

    Admissible: take any complete mapping and its edit path. Charge each edge
    operation in full to the pair of each of its two endpoints, so that the
    charges sum to twice the edge cost. A pair u -> v with p preserved
    edges, s of them with equal labels, is charged d_u + d_v - p - s >=
    max(d_u, d_v) - |E_u & E_v|, because p <= min(d_u, d_v) and
    s <= |E_u & E_v|; a deleted u is charged d_u, an inserted v d_v. With
    twice the vertex costs added, the mapping's pairs form an assignment of
    cost at most twice the mapping's cost, and ged is an integer.

    A substitution never costs more than a deletion plus an insertion, so a
    max(n_a, n_b)-square matrix padded with deletions or insertions reaches
    the minimum over all assignments.
    """
    k = max(len(a), len(b))
    insert_row = [2 + len(eb) for _, eb in b] + [0] * (k - len(b))
    cost = []
    for la, ea in a:
        da = len(ea)
        row = []
        for lb, eb in b:
            db = len(eb)
            # Sorted-merge intersection of the two edge-label multisets: on
            # these short tuples it beats Counter intersections by a third.
            inter = i = j = 0
            while i < da and j < db:
                x, y = ea[i], eb[j]
                if x == y:
                    inter += 1
                    i += 1
                    j += 1
                elif x < y:
                    i += 1
                else:
                    j += 1
            row.append((2 if la != lb else 0) + (da if da > db else db) - inter)
        row += [2 + da] * (k - len(b))
        cost.append(row)
    cost += [insert_row] * (k - len(a))
    return -(-min_cost_assignment(cost) // 2)


def branch_bound(g: LabeledGraph, q: LabeledGraph) -> int:
    """Lower bound on ged(g, q) from vertex branches (see lb_from_branches)."""
    return lb_from_branches(vertex_branches(g), vertex_branches(q))


def make_heuristic(g: LabeledGraph, q: LabeledGraph):
    """Bind h_for_mapping to a graph pair for use by successor generators."""
    return lambda mapping: h_for_mapping(mapping, g, q)
