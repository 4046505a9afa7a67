"""Slow reference implementations of the lower bounds in gedkit.bounds.

These are the Counter-based originals of `summarize`, `lb_from_summaries`
and `remainder_bounds`, kept unchanged and independent of the package's
code. Tests require the package's `summarize`, its flat
`lb_from_summaries` and `remainder_bounds`, and every child bound of
`PairHeuristic.children`, to return identical values. The package's
`remainder_bounds` and `children` compose the same source and target
halves, so only this module can serve as their oracle.
"""

from __future__ import annotations

from collections import Counter

from gedkit.bounds import GraphSummary
from gedkit.graphs import LabeledGraph
from gedkit.mapping import GraphMapping


def multiset_intersection_size(a: dict, b: dict) -> int:
    return sum((Counter(a) & Counter(b)).values())


def summarize(g: LabeledGraph) -> GraphSummary:
    return GraphSummary(
        n=g.n,
        m=g.m,
        vertex_labels=Counter(g.vertex_labels),
        edge_labels=Counter(lab for _, _, lab in g.edges),
        degrees=tuple(sorted((len(a) for a in g.adjacency), reverse=True)),
    )


def _deltas(degs_g: tuple[int, ...], degs_q: tuple[int, ...]) -> tuple[int, int]:
    size = max(len(degs_g), len(degs_q))
    dg = degs_g + (0,) * (size - len(degs_g))
    dq = degs_q + (0,) * (size - len(degs_q))
    over = sum(a - b for a, b in zip(dg, dq) if a > b)
    under = sum(b - a for a, b in zip(dg, dq) if a <= b)
    return -(-over // 2), -(-under // 2)


def lb_from_summaries(a: GraphSummary, b: GraphSummary) -> int:
    vterm = max(a.n, b.n) - multiset_intersection_size(a.vertex_labels, b.vertex_labels)
    d1, d2 = _deltas(a.degrees, b.degrees)
    eterm = max(d1 + d2, d1 + b.m - multiset_intersection_size(a.edge_labels, b.edge_labels))
    return vterm + eterm


def remainder_bounds(mapping: GraphMapping, g: LabeledGraph, q: LabeledGraph) -> tuple[int, int, int]:
    mapped = mapping.mapped_sources()
    used_t = mapping.used_targets()
    un_src = set(range(g.n)) - set(mapped)
    un_tgt = set(range(q.n)) - used_t

    # Summaries of the unmapped induced parts.
    v_g2 = Counter(g.vertex_labels[u] for u in un_src)
    v_q2 = Counter(q.vertex_labels[v] for v in un_tgt)
    e_g2 = Counter()
    deg_g2 = Counter()
    for u, v, lab in g.edges:
        if u in un_src and v in un_src:
            e_g2[lab] += 1
            deg_g2[u] += 1
            deg_g2[v] += 1
    e_q2 = Counter()
    deg_q2 = Counter()
    for u, v, lab in q.edges:
        if u in un_tgt and v in un_tgt:
            e_q2[lab] += 1
            deg_q2[u] += 1
            deg_q2[v] += 1
    base = lb_from_summaries(
        GraphSummary(
            len(un_src), sum(e_g2.values()), v_g2, e_g2,
            tuple(sorted((deg_g2[u] for u in un_src), reverse=True)),
        ),
        GraphSummary(
            len(un_tgt), sum(e_q2.values()), v_q2, e_q2,
            tuple(sorted((deg_q2[v] for v in un_tgt), reverse=True)),
        ),
    )

    sum_max = sum_tgt = sum_src = 0
    a_g: set[int] = set()
    a_q: set[int] = set()
    for u, t in mapped.items():
        o_u = Counter()
        for v, lab in g.adjacency[u].items():
            if v in un_src:
                o_u[lab] += 1
                a_g.add(v)
        o_t = Counter()
        if t is not None:
            for v, lab in q.adjacency[t].items():
                if v in un_tgt:
                    o_t[lab] += 1
                    a_q.add(v)
        size_u = sum(o_u.values())
        size_t = sum(o_t.values())
        inter = multiset_intersection_size(o_u, o_t)
        sum_max += max(size_u, size_t) - inter
        sum_tgt += size_t - inter
        sum_src += size_u - inter

    lb1 = base + sum_max
    lb2 = base + sum_tgt + max(0, len(a_g) - len(a_q))
    lb3 = base + sum_src + max(0, len(a_q) - len(a_g))
    return lb1, lb2, lb3
