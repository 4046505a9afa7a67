"""Search-tree successor generation, vertex processing order, and predicted layer counts."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Collection, Mapping, Sequence

from .bounds import PairHeuristic
from .graphs import LabeledGraph, VertexPartition, vertex_partition

_node_ids = itertools.count()


class SearchNode:
    """One node of the mapping search tree.

    layer is the tree depth: the number of extension steps from the root.
    pairs is the partial mapping as (source, target) pairs in processing
    order. Inner nodes at layer l hold exactly l pairs, each with a real
    source; the final insertion leaf appends all remaining target vertices.

    id comes from one counter shared by every node of the process, so ids
    rise in creation order within any run, even when runs interleave. The
    engine orders nodes of equal f and g by it, which keeps the search tree
    reproducible; ids of different runs are never compared.

    The search keeps its per-node state here: children is None until the
    first expansion, then the generated successors that were still live
    (f below the upper bound) when they were generated, and () once the
    search has no further use for them; visits counts the expansions.
    """

    __slots__ = ("id", "layer", "pairs", "g", "h", "f", "complete", "children", "visits")

    def __init__(self, layer, pairs, g, h, complete):
        self.id = next(_node_ids)
        self.layer = layer
        self.pairs = pairs
        self.g = g
        self.h = h
        self.f = g + h
        self.complete = complete
        self.children = None
        self.visits = 0

    def __repr__(self):
        return f"SearchNode(id={self.id}, layer={self.layer}, g={self.g}, h={self.h})"


def identity_order(g: LabeledGraph) -> tuple[int, ...]:
    return tuple(range(g.n))


def dfs_order(g: LabeledGraph) -> tuple[int, ...]:
    """The paper's processing order: DFS that always follows the
    smallest-ranked neighbor.

    The global rank sorts vertices by (degree ascending, id ascending);
    the DFS restarts from the lowest-ranked vertex not yet seen, so every
    component is covered.

    One stack of vertices gives the recursive DFS preorder: it starts with
    the rank list reversed, a vertex is marked when it is popped, and it
    pushes its unseen neighbors in descending rank, so the smallest-ranked
    one is popped next and the restarts come from the bottom. That is
    O(n + m log n) steps with at most n + 2m entries on the stack, and no
    recursion, so a long path cannot exhaust the recursion limit. It is
    enough although this ablation's order is rebuilt for every run: the
    engine serves graphs of tens of vertices.
    """
    rank = sorted(range(g.n), key=lambda u: (len(g.adjacency[u]), u))
    pos = {u: i for i, u in enumerate(rank)}
    seen = [False] * g.n
    order: list[int] = []
    stack = rank[::-1]
    while stack:
        u = stack.pop()
        if seen[u]:
            continue
        seen[u] = True
        order.append(u)
        stack += sorted((v for v in g.adjacency[u] if not seen[v]), key=pos.__getitem__, reverse=True)
    return tuple(order)


def connected_order(g: LabeledGraph) -> tuple[int, ...]:
    """Most-connected-first order: each next vertex is the unordered one
    with the most edges to vertices already ordered.

    Ties go to the higher degree, then to the rarer label in g, then to the
    lower id. An edge's operation is charged once both its ends are mapped
    (extension_cost), so this order decides edge operations early: the
    fail-first principle (Haralick & Elliott, 1980) and the VF2++ matching
    order (Juttner & Madarasi, 2018). Once a component is entered it is
    finished before the next one starts, since its unordered vertices next
    to ordered ones outrank every vertex with no ordered neighbor.

    Each step scans the unordered vertices' keys (-links, -degree, rarity,
    id) for the smallest, takes that vertex and raises its unordered
    neighbors' links, so the order costs O(n^2 + m) steps. That is enough:
    the order is kept on g (determine_order), and the engine serves graphs
    of tens of vertices.
    """
    adj, labels = g.adjacency, g.vertex_labels
    rarity = Counter(labels)
    keys = {u: (0, -len(adj[u]), rarity[labels[u]], u) for u in range(g.n)}
    order: list[int] = []
    while keys:
        u = min(keys.values())[3]
        del keys[u]
        order.append(u)
        for v in adj[u]:
            if v in keys:
                key = keys[v]
                keys[v] = (key[0] - 1, *key[1:])
    return tuple(order)


# Processing-order policies. "connected" is the default; "dfs" is the
# paper's order and "default" the identity, both kept as ablations.
ORDER_POLICIES = {"connected": connected_order, "dfs": dfs_order, "default": identity_order}
DEFAULT_ORDER_POLICY = "connected"


def determine_order(g: LabeledGraph, policy: str = DEFAULT_ORDER_POLICY) -> tuple[int, ...]:
    """The processing order of g's vertices under an order policy.

    policy is a key of ORDER_POLICIES; ValueError for any other. Only the
    default policy's order is kept on g: its first call stores it in g's
    _order slot and later calls return that same tuple, while a copy of g
    computes its own. The other policies are ablations and recompute their
    order on each call.
    """
    build = ORDER_POLICIES.get(policy)
    if build is None:
        raise ValueError(f"unknown order policy {policy!r}")
    if policy != DEFAULT_ORDER_POLICY:
        return build(g)
    kept = getattr(g, "_order", None)
    if kept is None:
        kept = build(g)
        object.__setattr__(g, "_order", kept)
    return kept


def extension_cost(adj_u: Mapping[int, int], label_u: int, adj_z: Mapping[int, int] | None,
                   label_z: int | None, parent_map: dict[int, int | None],
                   preimage: dict[int, int]) -> int:
    """Edit-cost delta of appending the pair (u -> z) to a partial mapping.

    Counts the vertex operation for u plus every edge operation that becomes
    decidable once u is mapped: source edges to already-mapped vertices and
    target edges between z and already-used targets. adj_u and label_u are
    u's adjacency row and label in the source graph, adj_z and label_z z's
    in the target, both None for the dummy target. The caller reads u's row
    once for all children of one expansion. preimage is the target -> source
    inverse of parent_map's real pairs.
    """
    if adj_z is None:
        cost = 1
        for w in adj_u:
            if w in parent_map:
                cost += 1
        return cost
    cost = int(label_u != label_z)
    for w in adj_u:
        if w not in parent_map:
            continue
        a = parent_map[w]
        if a is None or adj_z.get(a) != adj_u[w]:
            cost += 1
    for b in adj_z:
        w = preimage.get(b)
        if w is not None and w not in adj_u:
            cost += 1
    return cost


def leaf_completion_cost(q: LabeledGraph, used_targets: Collection[int]) -> int:
    """Cost of inserting every remaining target vertex and its edges."""
    cost = q.n - len(used_targets)
    for a, b, _ in q.edges:
        if a not in used_targets or b not in used_targets:
            cost += 1
    return cost


def _extend(r: SearchNode, g: LabeledGraph, q: LabeledGraph, classes: Sequence[Sequence[int]],
            dummy_only_when_forced: bool, order: Sequence[int],
            heuristic: PairHeuristic | None, ub: float) -> list[SearchNode | None]:
    """Successors of r: the smallest unmapped member of each target class,
    then the dummy target.

    With dummy_only_when_forced the dummy is offered only while more source
    than target vertices remain unmapped, otherwise always. Once every source
    vertex is processed, a single leaf inserts all remaining target vertices.
    The heuristic bounds all children in one call.

    A child whose f would be >= ub is dead on arrival and its slot holds
    None, so the list still has one entry per generated successor. Its
    edit cost is skipped when r.g + h already reaches ub, and it gets no
    node once g + h does. The live nodes keep their creation order.
    """
    pairs = r.pairs
    # r is an inner node, so every pair has a real source: only the
    # insertion leaf holds (None, z) pairs, and a leaf is never expanded.
    parent_map = dict(pairs)
    preimage = {a: w for w, a in pairs if a is not None}
    depth = len(pairs)
    n_g, n_q = g.n, q.n
    layer = r.layer + 1
    if depth >= n_g:
        cost = r.g + leaf_completion_cost(q, preimage)
        inserted = tuple((None, z) for z in range(n_q) if z not in preimage)
        return [SearchNode(layer, pairs + inserted, cost, 0, True) if cost < ub else None]
    u = order[depth]
    adj_u, label_u = g.adjacency[u], g.vertex_labels[u]
    adj_q, labels_q = q.adjacency, q.vertex_labels
    used = len(preimage)
    # Children are complete only on the last layer once every target is
    # used: all real children at once, or the dummy alone.
    last = depth + 1 == n_g
    kids = []
    for members in classes:
        for z in members:
            if z not in preimage:
                kids.append((z, last and used + 1 == n_q))
                break
    if not dummy_only_when_forced or n_g - depth > n_q - used:
        kids.append((None, last and used == n_q))
    pending = [z for z, complete in kids if not complete]
    hs = None
    if heuristic is not None and pending:
        hs = iter(heuristic.children(parent_map, preimage, u, pending))
    succ: list[SearchNode | None] = []
    for z, complete in kids:
        h = 0 if complete or hs is None else next(hs)
        if r.g + h >= ub:
            succ.append(None)
            continue
        adj_z, label_z = (None, None) if z is None else (adj_q[z], labels_q[z])
        child_g = r.g + extension_cost(adj_u, label_u, adj_z, label_z, parent_map, preimage)
        succ.append(SearchNode(layer, pairs + ((u, z),), child_g, h, complete) if child_g + h < ub else None)
    return succ


def basic_gen_succr(r: SearchNode, g: LabeledGraph, q: LabeledGraph, order: Sequence[int],
                    heuristic: PairHeuristic | None = None,
                    ub: float = math.inf) -> list[SearchNode | None]:
    """All successors of r: one per unmapped target plus a dummy, no reduction.

    A successor with f >= ub is left as None in its slot (see _extend).
    """
    return _extend(r, g, q, [(z,) for z in range(q.n)], False, order, heuristic, ub)


def gen_succr(r: SearchNode, g: LabeledGraph, q: LabeledGraph, part: VertexPartition,
              order: Sequence[int], heuristic: PairHeuristic | None = None,
              ub: float = math.inf) -> list[SearchNode | None]:
    """Reduced successors of r: class minima only, dummy only when forced.

    Per class of isomorphic target vertices, only the smallest unmapped
    member is extended; a dummy target is offered only while more source
    than target vertices remain unmapped. Cuts invalid and redundant
    mappings from the tree while preserving the minimum cost. A successor
    with f >= ub is left as None in its slot, uncosted when its parent's g
    plus its h already reach ub (see _extend).
    """
    return _extend(r, g, q, part.classes, True, order, heuristic, ub)


def make_root(g: LabeledGraph, q: LabeledGraph, heuristic: PairHeuristic | None = None) -> SearchNode:
    complete = g.n == 0 and q.n == 0
    h = heuristic.root() if heuristic and not complete else 0
    return SearchNode(0, (), 0, h, complete)


def enumerate_search_tree(g: LabeledGraph, q: LabeledGraph, reduced: bool = True,
                          order: Sequence[int] | None = None):
    """Fully expand the search tree without pruning or bounds (h = 0).

    Returns (layer_counts, leaves): node counts for layers 0..|V_G| and all
    complete-mapping leaf nodes. Intended for verification and inspection on
    small graphs; the tree is exponential.
    """
    if order is None:
        order = identity_order(g)
    part = vertex_partition(q)
    root = make_root(g, q)
    layer_counts = [0] * (g.n + 1)
    leaves: list[SearchNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.layer <= g.n:
            layer_counts[node.layer] += 1
        if node.complete:
            leaves.append(node)
            continue
        if reduced:
            stack.extend(gen_succr(node, g, q, part, order))
        else:
            stack.extend(basic_gen_succr(node, g, q, order))
    return layer_counts, leaves


def predicted_layer_count(l: int, n_g: int, n_q: int, class_sizes: Sequence[int]) -> int:
    """Predicted number of reduced-tree nodes in layer l (see
    predicted_layer_counts)."""
    return predicted_layer_counts(l, n_g, n_q, class_sizes)[l]


def predicted_layer_counts(l: int, n_g: int, n_q: int, class_sizes: Sequence[int]) -> list[int]:
    """Predicted numbers of reduced-tree nodes in layers 0..l, from one run.

    A node of layer j is one partial canonical code: the sequence of
    targets that the first j processed vertices take, a target class
    standing for its members and the dummy for deletion. Class i occurs at
    most |C_i| times and the dummy at most max(0, |V_G| - |V_Q|), the most
    the dummy rule ever admits along one path. The count takes one symbol
    at a time: ways[j] counts sequences of length j over the symbols taken
    so far, and a symbol allowed s times fills x <= s of j positions in
    C(j, x) ways. That is O((lambda + 1) * l * min(l, max |C_i|)) integer
    steps.
    """
    if not 0 <= l <= n_g:
        raise ValueError(f"layer {l} out of range 0..{n_g}")
    ways = [1] + [0] * l
    for cap in (*class_sizes, max(0, n_g - n_q)):
        ways = [sum(math.comb(j, x) * ways[j - x] for x in range(min(j, cap) + 1))
                for j in range(l + 1)]
    return ways
