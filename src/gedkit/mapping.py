"""Graph mappings, their induced edit cost, and edit paths."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import LabeledGraph, require_shared_table


@dataclass(frozen=True)
class GraphMapping:
    """A (partial or complete) assignment between dummy-extended vertex sets.

    pairs holds (source, target) entries in processing order; either side may
    be None for a dummy, never both. A mapping is complete when every vertex
    of both graphs is covered. Construction raises ValueError for a repeated
    source or target, a dummy-to-dummy pair or a vertex out of range.
    """

    pairs: tuple[tuple[int | None, int | None], ...]
    n_source: int
    n_target: int

    def __post_init__(self):
        srcs = [s for s, _ in self.pairs if s is not None]
        tgts = [t for _, t in self.pairs if t is not None]
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
    tgt = psi.mapped_sources()
    v_h, e_h = induced_structure(psi, g, q)
    c_d = (g.n - len(v_h)) + (g.m - len(e_h))
    c_i = (q.n - len(v_h)) + (q.m - len(e_h))
    c_s = sum(1 for u in v_h if g.vertex_labels[u] != q.vertex_labels[tgt[u]])
    c_s += sum(1 for u, v in e_h if g.adjacency[u][v] != q.adjacency[tgt[u]][tgt[v]])
    return EditCostBreakdown(c_d=c_d, c_i=c_i, c_s=c_s)


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
