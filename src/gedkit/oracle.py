"""Ground truth: exhaustive GED (capped at OracleLimits().max_vertices vertices
per graph) and edit-path checking through the path's own mapping (uncapped,
no isomorphism test).

Everything here is deliberately independent of the reduced successor rules
and the beam-stack engine, so it can certify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import LabeledGraph, require_shared_table
from .mapping import GraphMapping, require_complete


class OracleLimitError(ValueError):
    """Input exceeds the oracle's configured size limits."""


class EditPathError(ValueError):
    """An edit operation cannot be applied to the current working graph."""

    def __init__(self, index: int, op: object, reason: str):
        super().__init__(f"op {index} {op}: {reason}")
        self.index = index
        self.op = op


@dataclass(frozen=True)
class OracleLimits:
    """The oracle's size cap. At 8 vertices a side the unreduced tree has
    count_complete_basic_mappings(8, 8) = 1,441,729 leaves."""

    max_vertices: int = 8


@dataclass(frozen=True)
class OracleResult:
    distance: int
    mapping: GraphMapping
    mappings_enumerated: int


def count_complete_basic_mappings(n_g: int, n_q: int) -> int:
    """Closed-form leaf count of the unreduced tree: every way to send each
    source vertex to a distinct target or to a dummy."""
    return sum(
        math.comb(n_g, k) * math.perm(n_q, k) for k in range(min(n_g, n_q) + 1)
    )


def exhaustive_ged(g: LabeledGraph, q: LabeledGraph) -> OracleResult:
    """Minimum edit cost over every complete mapping, found by full enumeration.

    Walks the unreduced successor tree with no pruning, accumulating the edit
    cost pair by pair, and keeps the cheapest complete mapping. Refuses a
    graph with more than OracleLimits().max_vertices vertices.
    """
    cap = OracleLimits().max_vertices
    if g.n > cap or q.n > cap:
        raise OracleLimitError(f"oracle limited to {cap} vertices, got {g.n} and {q.n}")
    require_shared_table(g, q)

    n_g, n_q = g.n, q.n
    gl, ql = g.vertex_labels, q.vertex_labels
    gadj, qadj = g.adjacency, q.adjacency
    target_of = [-2] * n_g  # -2 unassigned, -1 dummy
    source_of = [-1] * n_q
    used = [False] * n_q

    best_cost = g.n + q.n + g.m + q.m + 1
    best_snapshot: list[int] = []
    enumerated = 0

    def leaf_cost(cost: int) -> int:
        cost += n_q - sum(used)
        for a, b, _ in q.edges:
            if not used[a] or not used[b]:
                cost += 1
        return cost

    def extend_cost(u: int, z: int) -> int:
        # Sources 0..u-1 are already assigned (identity processing order).
        c = 1 if gl[u] != ql[z] else 0
        for w, lab in gadj[u].items():
            if w >= u:
                continue
            a = target_of[w]
            if a == -1:
                c += 1
            else:
                qlab = qadj[z].get(a)
                if qlab is None or qlab != lab:
                    c += 1
        for b in qadj[z]:
            w = source_of[b]
            if w >= 0 and w not in gadj[u]:
                c += 1
        return c

    def rec(u: int, cost: int):
        nonlocal best_cost, best_snapshot, enumerated
        if u == n_g:
            enumerated += 1
            c = leaf_cost(cost)
            if c < best_cost:
                best_cost = c
                best_snapshot = target_of.copy()
            return
        for z in range(n_q):
            if used[z]:
                continue
            d = extend_cost(u, z)
            used[z] = True
            target_of[u] = z
            source_of[z] = u
            rec(u + 1, cost + d)
            used[z] = False
            target_of[u] = -2
            source_of[z] = -1
        d = 1 + sum(1 for w in gadj[u] if w < u and target_of[w] != -2)
        target_of[u] = -1
        rec(u + 1, cost + d)
        target_of[u] = -2

    rec(0, 0)

    pairs = [(u, None if t == -1 else t) for u, t in enumerate(best_snapshot)]
    covered = {t for t in best_snapshot if t >= 0}
    pairs.extend((None, z) for z in range(n_q) if z not in covered)
    mapping = GraphMapping(tuple(pairs), n_g, n_q)
    return OracleResult(best_cost, mapping, enumerated)


# The fields each edit operation must carry besides "op".
_OP_FIELDS = {
    "del_edge": ("u", "v"),
    "ins_edge": ("u", "v", "label"),
    "sub_edge": ("u", "v", "label"),
    "del_vertex": ("u",),
    "ins_vertex": ("u", "label"),
    "sub_vertex": ("u", "label"),
}


def check_edit_path(g: LabeledGraph, q: LabeledGraph, ops: list[dict],
                    mapping: GraphMapping) -> bool:
    """Apply ops to g and test whether the result is q under the mapping.

    Validates applicability op by op: each op must be a dict that carries
    its fields, with int vertex fields; only isolated vertices may be
    deleted, inserted edges and vertices must be new, substituted items must
    exist.
    The result must equal q under the ids realize_edit_path assigns: mapped
    source u keeps id u for its target, inserted target y has id g.n + y.
    Raises ValueError for an incomplete or wrongly sized mapping.
    """
    require_complete(mapping, g, q)
    verts: dict[int, int] = {u: lab for u, lab in enumerate(g.vertex_labels)}
    edges: dict[tuple[int, int], int] = {(u, v): lab for u, v, lab in g.edges}
    incident = {u: 0 for u in verts}
    for u, v in edges:
        incident[u] += 1
        incident[v] += 1

    def key(u, v):
        return (u, v) if u < v else (v, u)

    for i, op in enumerate(ops):
        if not isinstance(op, dict):
            raise EditPathError(i, op, "not a dict")
        kind = op.get("op")
        if kind not in _OP_FIELDS:
            raise EditPathError(i, op, f"unknown operation {kind!r}")
        for name in _OP_FIELDS[kind]:
            if name not in op:
                raise EditPathError(i, op, f"missing field {name!r}")
            if name != "label" and not isinstance(op[name], int):
                raise EditPathError(i, op, f"vertex field {name!r} is not an int")
        if kind == "del_edge":
            k = key(op["u"], op["v"])
            if k not in edges:
                raise EditPathError(i, op, "edge does not exist")
            del edges[k]
            incident[k[0]] -= 1
            incident[k[1]] -= 1
        elif kind == "ins_edge":
            u, v = op["u"], op["v"]
            if u == v:
                raise EditPathError(i, op, "self-loop")
            if u not in verts or v not in verts:
                raise EditPathError(i, op, "endpoint does not exist")
            k = key(u, v)
            if k in edges:
                raise EditPathError(i, op, "duplicate edge")
            edges[k] = op["label"]
            incident[u] += 1
            incident[v] += 1
        elif kind == "del_vertex":
            u = op["u"]
            if u not in verts:
                raise EditPathError(i, op, "vertex does not exist")
            if incident[u]:
                raise EditPathError(i, op, "vertex is not isolated")
            del verts[u]
            del incident[u]
        elif kind == "ins_vertex":
            u = op["u"]
            if u in verts:
                raise EditPathError(i, op, "vertex already exists")
            verts[u] = op["label"]
            incident[u] = 0
        elif kind == "sub_vertex":
            u = op["u"]
            if u not in verts:
                raise EditPathError(i, op, "vertex does not exist")
            verts[u] = op["label"]
        else:  # sub_edge
            k = key(op["u"], op["v"])
            if k not in edges:
                raise EditPathError(i, op, "edge does not exist")
            edges[k] = op["label"]

    pre = {t: u for u, t in mapping.mapped_sources().items() if t is not None}
    ident = [pre.get(y, g.n + y) for y in range(q.n)]
    want_verts = {ident[y]: lab for y, lab in enumerate(q.vertex_labels)}
    want_edges = {key(ident[a], ident[b]): lab for a, b, lab in q.edges}
    return verts == want_verts and edges == want_edges
