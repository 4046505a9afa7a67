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


def make_heuristic(g: LabeledGraph, q: LabeledGraph):
    """Bind h_for_mapping to a graph pair for use by successor generators."""
    return lambda mapping: h_for_mapping(mapping, g, q)
