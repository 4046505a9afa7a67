"""Graph mappings, their induced edit cost, and edit paths."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphs import LabeledGraph, require_shared_table


@dataclass(frozen=True)
class GraphMapping:
    """A (partial or complete) assignment between dummy-extended vertex sets.

    pairs holds (source, target) entries in processing order; either side may
    be None for a dummy, never both. A mapping is complete when every vertex
    of both graphs is covered. Construction raises ValueError for a vertex
    or a vertex count that is not an int (bool included), a negative vertex
    count, a repeated source or target, a dummy-to-dummy pair or a vertex
    out of range.
    """

    pairs: tuple[tuple[int | None, int | None], ...]
    n_source: int
    n_target: int

    def __post_init__(self):
        srcs = [s for s, _ in self.pairs if s is not None]
        tgts = [t for _, t in self.pairs if t is not None]
        if type(self.n_source) is not int or type(self.n_target) is not int:
            raise ValueError("vertex counts must be integers")
        if self.n_source < 0 or self.n_target < 0:
            raise ValueError("vertex counts must be >= 0")
        if any(type(v) is not int for v in (*srcs, *tgts)):
            raise ValueError("mapping vertices must be integers")
        if len(srcs) != len(set(srcs)):
            raise ValueError("repeated source vertex in mapping")
        if len(tgts) != len(set(tgts)):
            raise ValueError("repeated target vertex in mapping")
        if any(s is None and t is None for s, t in self.pairs):
            raise ValueError("pair maps dummy to dummy")
        if any(not 0 <= s < self.n_source for s in srcs):
            raise ValueError("source vertex out of range")
        if any(not 0 <= t < self.n_target for t in tgts):
            raise ValueError("target vertex out of range")

    @classmethod
    def from_assignment(cls, assignment: list[int], n_source: int, n_target: int) -> "GraphMapping":
        """The mapping a square assignment induces: row i goes to column assignment[i].

        Row i < n_source at column j < n_target is the pair (i, j). A
        padding column (j >= n_target) deletes i, the pair (i, None); a
        padding row (i >= n_source) inserts j, the pair (None, j).
        """
        return cls(tuple((i if i < n_source else None, j if j < n_target else None)
                         for i, j in enumerate(assignment)), n_source, n_target)

    def inverse(self) -> "GraphMapping":
        """The same mapping read from the target side: each pair (s, t)
        becomes (t, s), in the same order, and the vertex counts swap."""
        return GraphMapping(tuple((t, s) for s, t in self.pairs), self.n_target, self.n_source)

    def mapped_sources(self) -> dict[int, int | None]:
        """source vertex -> target (or None) for non-dummy sources."""
        return {s: t for s, t in self.pairs if s is not None}

    def used_targets(self) -> set[int]:
        return {t for _, t in self.pairs if t is not None}

    def is_complete(self) -> bool:
        srcs = {s for s, _ in self.pairs if s is not None}
        tgts = self.used_targets()
        return len(srcs) == self.n_source and len(tgts) == self.n_target


def require_complete(psi: GraphMapping, g: LabeledGraph, q: LabeledGraph):
    """Raise ValueError unless psi is a complete mapping between g and q."""
    if (psi.n_source, psi.n_target) != (g.n, q.n) or not psi.is_complete():
        raise ValueError(f"need a complete mapping between {g.n} and {q.n} vertices")


@dataclass(frozen=True)
class EditCostBreakdown:
    """Edit cost split into deletions, insertions, and substitutions."""

    c_d: int
    c_i: int
    c_s: int

    @property
    def total(self) -> int:
        return self.c_d + self.c_i + self.c_s


def induced_structure(psi: GraphMapping, g: LabeledGraph, q: LabeledGraph):
    """Common structure induced by a complete mapping.

    Returns (V_H, E_H): the source vertices mapped to real targets, and the
    source edges whose images are edges of the target graph.
    """
    tgt = psi.mapped_sources()
    v_h = {u for u, t in tgt.items() if t is not None}
    e_h = set()
    for u, v, _ in g.edges:
        tu, tv = tgt.get(u), tgt.get(v)
        if tu is not None and tv is not None and tv in q.adjacency[tu]:
            e_h.add((u, v))
    return v_h, e_h


def edit_cost(psi: GraphMapping, g: LabeledGraph, q: LabeledGraph) -> EditCostBreakdown:
    """Cost of the edit path induced by a complete mapping (batch formula)."""
    require_shared_table(g, q)
    require_complete(psi, g, q)
    return EditCostBreakdown(*_cost_parts(psi.mapped_sources(), g, q))


def _cost_parts(tgt, g: LabeledGraph, q: LabeledGraph) -> tuple[int, int, int]:
    """(c_d, c_i, c_s) of the complete mapping that sends source u to tgt[u].

    tgt[u] is a target vertex, or None when u is deleted, for every u <
    g.n; targets no source reaches are inserted. A source vertex kept on a
    real target saves its deletion and the target's insertion, and so does
    a source edge whose image is a target edge; each kept vertex or edge
    whose label changes costs one substitution. edit_cost and
    descend_assignment both score mappings here.
    """
    glabels, qlabels, qadj = g.vertex_labels, q.vertex_labels, q.adjacency
    kept = subs = 0
    for u in range(g.n):
        t = tgt[u]
        if t is not None:
            kept += 1
            if glabels[u] != qlabels[t]:
                subs += 1
    kept_edges = 0
    for u, v, lab in g.edges:
        tu, tv = tgt[u], tgt[v]
        if tu is not None and tv is not None:
            image = qadj[tu].get(tv)
            if image is not None:
                kept_edges += 1
                if image != lab:
                    subs += 1
    return g.n - kept + g.m - kept_edges, q.n - kept + q.m - kept_edges, subs


def descend_assignment(assignment: list[int], g: LabeledGraph, q: LabeledGraph,
                       deadline: float | None = None) -> tuple[int, list[int]]:
    """Improve a square assignment by first-improvement 2-swap descent.

    assignment is read as GraphMapping.from_assignment reads it: row i < g.n
    goes to column assignment[i], a column >= q.n deletes it, and rows >=
    g.n insert their columns. A swap exchanges the columns of a source row
    and any later row, so it moves a source to another source's target, to
    a deleted or an inserted slot. A swap is kept when it lowers the edit
    cost and undone otherwise; sweeps repeat until one keeps no swap, or
    until time.monotonic() passes deadline, which is checked before each
    source row. Returns (edit cost, improved assignment); the assignment
    passed in is not changed.
    """
    a = list(assignment)
    tgt = [j if j < q.n else None for j in a]
    n, k = g.n, len(a)
    best = sum(_cost_parts(tgt, g, q))
    improved = True
    while improved:
        improved = False
        for i in range(n):
            if deadline is not None and time.monotonic() > deadline:
                return best, a
            for j in range(i + 1, k):
                tgt[i], tgt[j] = tgt[j], tgt[i]
                cost = sum(_cost_parts(tgt, g, q))
                if cost < best:
                    best = cost
                    a[i], a[j] = a[j], a[i]
                    improved = True
                else:
                    tgt[i], tgt[j] = tgt[j], tgt[i]
    return best, a


def realize_edit_path(psi: GraphMapping, g: LabeledGraph, q: LabeledGraph) -> list[dict]:
    """Concrete edit operation list realizing a complete mapping.

    Operations are emitted in an order that keeps every intermediate graph
    valid: edge deletions before their endpoints' deletions, vertex
    insertions before edges touching them. Inserted target vertex y receives
    the fresh id g.n + y. The list length equals edit_cost(psi).total.
    """
    require_shared_table(g, q)
    require_complete(psi, g, q)
    tgt = psi.mapped_sources()
    v_h, e_h = induced_structure(psi, g, q)
    ops: list[dict] = []

    for u, v, _ in g.edges:
        if (u, v) not in e_h:
            ops.append({"op": "del_edge", "u": u, "v": v})
    for u in sorted(tgt):
        if tgt[u] is None:
            ops.append({"op": "del_vertex", "u": u})
    for u in sorted(v_h):
        if g.vertex_labels[u] != q.vertex_labels[tgt[u]]:
            ops.append({"op": "sub_vertex", "u": u, "label": q.vertex_labels[tgt[u]]})
    for u, v in sorted(e_h):
        lab = q.adjacency[tgt[u]][tgt[v]]
        if g.adjacency[u][v] != lab:
            ops.append({"op": "sub_edge", "u": u, "v": v, "label": lab})

    # Preimage ids in the working graph: mapped targets keep their source id,
    # inserted targets get g.n + y.
    pre = {t: u for u, t in tgt.items() if t is not None}
    inserted = sorted(set(range(q.n)) - set(pre))
    for y in inserted:
        pre[y] = g.n + y
        ops.append({"op": "ins_vertex", "u": g.n + y, "label": q.vertex_labels[y]})
    image_eh = {(min(tgt[u], tgt[v]), max(tgt[u], tgt[v])) for u, v in e_h}
    for a, b, lab in q.edges:
        if (a, b) not in image_eh:
            pa, pb = pre[a], pre[b]
            if pa > pb:
                pa, pb = pb, pa
            ops.append({"op": "ins_edge", "u": pa, "v": pb, "label": lab})
    return ops
