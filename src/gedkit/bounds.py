"""Admissible lower bounds: the pair bound from label multisets and degree
levels, the branch bound, and h(r)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import LabeledGraph, multiset_intersection_size, require_shared_table
from .mapping import GraphMapping


def _levels(degs_g: Sequence[int], degs_q: Sequence[int]) -> tuple[list[int], list[int], int, int]:
    """Degree-level counts of two degree multisets, given in any order.

    Returns (diff, pos, over, under). For each level k from 1 to the top
    degree, diff[k] = #{source degrees >= k} - #{target degrees >= k} and
    pos[k] counts the levels 1..k with diff >= 0; over and under sum the
    positive and negative parts of diff. Index 0 is unused.

    over and under are the surplus degree masses of the sorted sequences.
    Let a (source) and b (target) be the degrees sorted non-increasing, the
    shorter one zero-extended, and let A_k and B_k count the entries >= k,
    so that diff[k] = A_k - B_k. Then sum_i max(a_i - b_i, 0) =
    sum_{k >= 1} max(A_k - B_k, 0) = over: a_i - b_i, when positive, is
    the number of levels k with b_i < k <= a_i, so the left side counts
    the pairs (i, k) with b_i < k <= a_i. For a fixed k, the i with
    a_i >= k are the first A_k and the i with b_i >= k the first B_k,
    since both sequences are non-increasing; so max(A_k - B_k, 0) of them
    have b_i < k, and the right side counts the same pairs. The same holds
    for sum_i max(b_i - a_i, 0) = under, with the negative parts.
    """
    diff = [0] * (max([0, *degs_g, *degs_q]) + 1)
    for a in degs_g:
        diff[a] += 1
    for b in degs_q:
        diff[b] -= 1
    # diff holds the per-degree differences; walk up the levels, from the
    # nonzero counts at level 1, turning them into counts of degrees >= k.
    acc = len(degs_g) - len(degs_q) - diff[0]
    pos = [0] * len(diff)
    over = under = p = 0
    for k in range(1, len(diff)):
        at_k = diff[k]
        diff[k] = acc
        if acc >= 0:
            over += acc
            p += 1
        else:
            under -= acc
        pos[k] = p
        acc -= at_k
    return diff, pos, over, under


def _combine(n_g: int, n_q: int, vinter: int, over: int, under: int, m_q: int, einter: int) -> int:
    """The pair bound LB from its ingredients.

    over and under are the source's and the target's surplus degree masses
    (_levels). Each surplus edge endpoint pairs with another, so halved and
    rounded up they bound the edge deletions d1 and insertions d2. vinter
    and einter are the sizes of the vertex- and edge-label multiset
    intersections and m_q the target's edge count.
    """
    d1, d2 = -(-over // 2), -(-under // 2)
    return max(n_g, n_q) - vinter + max(d1 + d2, d1 + m_q - einter)


def _remainder(g: LabeledGraph, removed: Iterable[int]) -> tuple:
    """Count what is left of g once the `removed` vertices are taken out.

    One pass over the vertices and one over the edges. Returns (removed
    flags, vertex count, label counts, edge-label counts, degrees by vertex,
    edge count); a removed vertex has degree 0. Every pair bound, on whole
    graphs or on the remainders below a search node, is built from these.
    """
    gone = [False] * g.n
    for v in removed:
        gone[v] = True
    n = 0
    counts: dict[int, int] = {}
    for v, lab in enumerate(g.vertex_labels):
        if not gone[v]:
            n += 1
            counts[lab] = counts.get(lab, 0) + 1
    m = 0
    ecounts: dict[int, int] = {}
    deg = [0] * g.n
    for a, b, lab in g.edges:
        if not (gone[a] or gone[b]):
            m += 1
            deg[a] += 1
            deg[b] += 1
            ecounts[lab] = ecounts.get(lab, 0) + 1
    return gone, n, counts, ecounts, deg, m


@dataclass(frozen=True)
class GraphSummary:
    """Per-graph inputs of the pair bound, precomputable for databases.

    vertex_labels and edge_labels map each label to its positive count;
    degrees is the non-increasing degree sequence.
    """

    n: int
    m: int
    vertex_labels: dict[int, int]
    edge_labels: dict[int, int]
    degrees: tuple[int, ...]


def summarize(g: LabeledGraph) -> GraphSummary:
    """The whole graph's remainder: nothing removed, degrees sorted."""
    _, n, counts, ecounts, deg, m = _remainder(g, ())
    deg.sort(reverse=True)
    return GraphSummary(n, m, counts, ecounts, tuple(deg))


def delta_bounds(g: LabeledGraph, q: LabeledGraph) -> tuple[int, int]:
    """Lower bounds on edge deletions and insertions from degree sequences."""
    require_shared_table(g, q)
    _, _, over, under = _levels(summarize(g).degrees, summarize(q).degrees)
    return -(-over // 2), -(-under // 2)


def lb_from_summaries(a: GraphSummary, b: GraphSummary) -> int:
    """Lower bound on ged from two precomputed summaries (source a, target b).

    Costs O(|V| + |E|) of the two graphs: two label-count intersections and
    one count of degree levels, with no per-call container classes.
    tests/reference_bounds.py keeps the Counter-based original that tests
    compare it against.

    Size corollary: the bound is at least |a.n - b.n| + |a.m - b.m|.
    - max(n_a, n_b) - vinter >= |n_a - n_b|, since vinter <= min(n_a, n_b).
    - d1 + d2 >= (over + under) / 2 >= |over - under| / 2 = |m_a - m_b|,
      since over - under is the degree-sum difference 2 (m_a - m_b).
    Similarity search relies on it to skip whole size buckets.
    """
    _, _, over, under = _levels(a.degrees, b.degrees)
    return _combine(a.n, b.n, multiset_intersection_size(a.vertex_labels, b.vertex_labels),
                    over, under, b.m, multiset_intersection_size(a.edge_labels, b.edge_labels))


def lb_graph(g: LabeledGraph, q: LabeledGraph) -> int:
    """Lower bound on ged(g, q) from label multisets and degree sequences."""
    require_shared_table(g, q)
    return lb_from_summaries(summarize(g), summarize(q))


Branch = tuple[int, tuple[int, ...]]


def vertex_branches(g: LabeledGraph) -> list[Branch]:
    """Each vertex's branch: its label and its sorted incident edge labels."""
    adj = g.adjacency
    return [(lab, tuple(sorted(adj[u].values()))) for u, lab in enumerate(g.vertex_labels)]


def min_cost_assignment(cost: Sequence[Sequence[int]],
                        cap: int | None = None) -> tuple[int, list[int] | None]:
    """Minimum-cost perfect assignment on a square integer matrix.

    Returns (value, assignment): assignment[i] is the column of row i, and
    the entries cost[i][assignment[i]] sum to value.

    The Hungarian method with row and column potentials, O(k^3): row i is
    added to the matching along a shortest augmenting path in reduced costs,
    after which the potentials keep every reduced cost non-negative. None
    stands for an unreached column, so the arithmetic stays integral.

    After row i is added, -col_pot[0] is the optimum over rows 1..i alone:
    the first i steps are the whole method on that i-row matrix. With costs
    >= 0 a row subset's optimum never exceeds the full one, so the value
    only grows. Given a cap, the solve stops after the first row that lifts
    it above the cap, and returns it: the optimum when the optimum is <= cap,
    otherwise a value in (cap, optimum]. The assignment is None when the
    solve stopped before its last row, and otherwise optimal; so it is
    always given when the optimum is <= cap.
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
        if cap is not None and -col_pot[0] > cap and i < k:
            return -col_pot[0], None
    assignment = [0] * k
    for j in range(1, k + 1):
        assignment[match[j] - 1] = j - 1
    return -col_pot[0], assignment


def _branch_row(branch: Branch, targets: Sequence[Branch]) -> list[int]:
    """Doubled substitution costs of one source branch against each target branch."""
    la, ea = branch
    da = len(ea)
    row = []
    for lb, eb in targets:
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
    return row


def lb_from_branches(a: Sequence[Branch], b: Sequence[Branch], tau: int | None = None,
                     rows: dict[Branch, list[int]] | None = None) -> tuple[int, list[int] | None]:
    """The branch lower bound on ged from two graphs' vertex branches.

    Returns (bound, assignment). The assignment is an optimal one of the
    max(len(a), len(b))-square matrix below, as min_cost_assignment gives
    it: rows are a's vertices, then padding rows (insertions); columns are
    b's vertices, then padding columns (deletions). It is always given
    without tau, and given tau whenever the bound is <= tau; otherwise it
    may be None.

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

    A row depends only on its source branch and on b, so rows maps source
    branches to their unpadded rows against this b and is filled as rows
    are built; a caller that keeps b fixed may pass one dict to every call.
    Padding goes onto a copy, so a stored row serves graphs of any size.

    Given tau, the first value is the bound when the bound is <= tau, and
    otherwise some admissible value > tau, reached with the least work:
    - Minima. A perfect assignment takes exactly one entry in each row and
      one in each column, so it costs at least the sum of the row minima
      and at least the sum of the column minima. Halving and rounding up
      keep that order, so their max, halved and rounded up, is admissible;
      it ends the call when it exceeds tau.
    - A capped solve (min_cost_assignment with cap 2 tau). Its value is the
      optimum when that is <= 2 tau, and otherwise in (2 tau, optimum];
      halved and rounded up, it is > tau exactly when the bound is.
    """
    if rows is None:
        rows = {}
    k = max(len(a), len(b))
    pad = k - len(b)
    cost = []
    for branch in a:
        row = rows.get(branch)
        if row is None:
            row = rows[branch] = _branch_row(branch, b)
        cost.append(row + [2 + len(branch[1])] * pad)
    if len(a) < k:
        cost += [[2 + len(eb) for _, eb in b]] * (k - len(a))
    if tau is None:
        value, assignment = min_cost_assignment(cost)
        return -(-value // 2), assignment
    low = max(sum(map(min, cost)), sum(map(min, zip(*cost))))
    if low > 2 * tau:
        return -(-low // 2), None
    value, assignment = min_cost_assignment(cost, 2 * tau)
    return -(-value // 2), assignment


def _source_side(g: LabeledGraph, sources: Sequence[int]) -> tuple:
    """The source half of the remainder bounds once `sources` are mapped.

    Counts the unmapped part with _remainder and adds each source's outer
    edges. Returns (n_g, label counts, edge-label counts, degrees of the
    unmapped part by vertex, {source: (outer size, outer edge-label
    counts)}, number of outer source vertices).
    """
    mapped, n_g, counts, ecounts, deg, _ = _remainder(g, sources)
    outer = {}
    a_g: set[int] = set()
    adj_g = g.adjacency
    for s in sources:
        c: dict[int, int] = {}
        size = 0
        adj = adj_g[s]
        for v in adj:
            if not mapped[v]:
                size += 1
                lab = adj[v]
                c[lab] = c.get(lab, 0) + 1
                a_g.add(v)
        outer[s] = (size, c)
    return n_g, counts, ecounts, deg, outer, len(a_g)


def _target_side(q: LabeledGraph, targets: Iterable[int],
                 pairs: Iterable[tuple[int, int | None]], outer: dict) -> tuple:
    """The target half of the remainder bounds once `targets` are used.

    Counts the unused part with _remainder and meets each pair's target
    outer edges with the source half's: pairs are the mapped (source,
    target or None) pairs, outer the source half's outer edges. Returns
    (used flags, label counts, edge-label counts, degrees of the unused part
    by vertex, m_q, the outer-edge sums (max, target, source), the outer
    target vertices, {target: (source size, source counts, target size,
    target counts, shared labels)}).
    """
    used, _, counts, ecounts, deg, m_q = _remainder(q, targets)
    # Outer edges, from each pair to the unmapped part. Neighbours are read
    # by key: on these short read-only views that beats .items().
    adj_q = q.adjacency
    sum_max = sum_tgt = sum_src = 0
    a_q: set[int] = set()
    outer_of: dict[int, tuple] = {}
    for w, t in pairs:
        size_u, c_u = outer[w]
        size_t = inter = 0
        if t is not None:
            d: dict[int, int] = {}
            adj = adj_q[t]
            for v in adj:
                if not used[v]:
                    size_t += 1
                    a_q.add(v)
                    lab = adj[v]
                    d[lab] = d.get(lab, 0) + 1
            inter = multiset_intersection_size(d, c_u)
            outer_of[t] = (size_u, c_u, size_t, d, inter)
        sum_max += (size_u if size_u > size_t else size_t) - inter
        sum_tgt += size_t - inter
        sum_src += size_u - inter
    return used, counts, ecounts, deg, m_q, (sum_max, sum_tgt, sum_src), a_q, outer_of


def remainder_bounds(mapping: GraphMapping, g: LabeledGraph, q: LabeledGraph) -> tuple[int, int, int]:
    """The three remainder bounds below a partial mapping; h is their max.

    Each starts from the pair bound on the unmapped parts and adds, per
    mapped vertex, the cheapest reconciliation of its outer edges; the last
    two trade per-vertex tightness for a global outer-vertex correction.
    An insertion pair (None, t), anywhere in the mapping, only marks t used.

    Built from the same source and target halves as PairHeuristic.children,
    in O(|V| + |E|). tests/reference_bounds.py keeps an independent
    Counter-based original that tests compare both against.
    """
    pairs = [(u, t) for u, t in mapping.pairs if u is not None]
    targets = [t for _, t in mapping.pairs if t is not None]
    n_g, s_counts, s_ecounts, deg_g, outer, a_g = _source_side(g, [u for u, _ in pairs])
    _, t_counts, t_ecounts, deg_q, m_q, sums, a_q, _ = _target_side(q, targets, pairs, outer)
    _, _, over, under = _levels(deg_g, deg_q)
    base = _combine(n_g, q.n - len(targets), multiset_intersection_size(t_counts, s_counts),
                    over, under, m_q, multiset_intersection_size(t_ecounts, s_ecounts))
    n_aq = len(a_q)
    return (base + sums[0], base + sums[1] + max(0, a_g - n_aq), base + sums[2] + max(0, n_aq - a_g))


class PairHeuristic:
    """h for one graph pair: per mapping, or for all children of one parent.

    Called on a mapping it returns max(remainder_bounds(mapping)); the
    engine calls it only at the root. children() gives the same values for
    every child of one parent in one pass. Both compose _source_side and
    _target_side. The source half depends only on which sources are mapped,
    and sources are mapped in a fixed order, so within one run it depends
    only on the depth: it is kept per depth, at most |V_G| + 1 entries, and
    rebuilt when a different source sequence reaches that depth. The target
    half is the parent's, computed once; each child's is the parent's with
    its target z used, applied in O(deg z), and the dummy child takes the
    same update with nothing used.
    """

    __slots__ = ("g", "q", "_sources")

    def __init__(self, g: LabeledGraph, q: LabeledGraph):
        self.g, self.q = g, q
        self._sources: list[tuple | None] = [None] * (g.n + 1)

    def __call__(self, mapping: GraphMapping) -> int:
        return max(remainder_bounds(mapping, self.g, self.q))

    def children(self, parent_map: dict[int, int | None], preimage: dict[int, int],
                 u: int, targets: Sequence[int | None]) -> list[int]:
        """h of each child that extends the parent by (u, z), z in targets.

        parent_map and preimage are the parent's source -> target and
        target -> source maps; None in targets is the dummy child. Equals
        max(remainder_bounds(child mapping)) child by child.

        The degree surpluses are read from degree levels: _levels shows
        that they equal those of the sorted sequences, and it computes the
        parent's level differences diff[k] = A_k - B_k (source minus target
        degrees >= k) and the sums over and under of their positive and
        negative parts once. A child's target degrees are the parent's
        except that z drops from deg z to 0, so B_k falls by one for
        k <= deg z, and each unused neighbour v of z drops by one, from
        deg v, so B_{deg v} falls by one. Each fall raises one diff[k] by
        one, which adds one to over if diff[k] was >= 0 and takes one from
        under otherwise. z's levels are read from the prefix counts pos; the
        neighbours' levels are raised one by one, in place, since two of
        them may share a level, and restored before the next child.
        """
        q = self.q
        key = (*parent_map, u)
        entry = self._sources[len(key)]
        if entry is None or entry[0] != key:
            entry = self._sources[len(key)] = (key, _source_side(self.g, key))
        n_g, s_counts, s_ecounts, deg_g, outer, a_g = entry[1]
        # The parent's target half, met with the children's source half.
        used, t_counts, t_ecounts, deg_q, m_q, sums, a_q, outer_of = _target_side(
            q, preimage, parent_map.items(), outer)
        sum_max, sum_tgt, sum_src = sums
        vinter = multiset_intersection_size(t_counts, s_counts)
        einter = multiset_intersection_size(t_ecounts, s_ecounts)
        n_q = q.n - len(preimage)
        n_aq = len(a_q)
        size_new, c_new = outer[u]
        qlabels, adj_q = q.vertex_labels, q.adjacency
        diff, pos, over, under = _levels(deg_g, deg_q)

        hs = []
        for z in targets:
            m, ei, vi, n_aq_z = m_q, einter, vinter, n_aq
            smax, stgt, ssrc = sum_max, sum_tgt, sum_src
            gone: dict[int, int] = {}
            inter = 0
            raised = []
            # The dummy child (z None) takes the same update with no target
            # used and no neighbours.
            size_z = 0
            adj = ()
            if z is not None:
                # Removing one target unit of a label shrinks an
                # intersection sum(min(T, S)) iff T <= S for that label.
                lab = qlabels[z]
                vi = vinter - 1 if t_counts[lab] <= s_counts.get(lab, 0) else vinter
                n_aq_z = n_aq - 1 if z in a_q else n_aq
                # The new pair's target outer edges: z's edges to unused vertices.
                size_z = deg_q[z]
                adj = adj_q[z]
            # z falls to degree 0, raising levels 1..deg z by one each:
            # pos[deg z] of them add to over, the rest take from under.
            ov = over + pos[size_z]
            un = under - size_z + pos[size_z]
            for v in adj:
                lab = adj[v]
                if used[v]:
                    # The pair of used neighbour v loses its outer edge to z.
                    size_u, c_u, size_t, d, _ = outer_of[v]
                    cut = 1 if d[lab] <= c_u.get(lab, 0) else 0
                    smax += ((size_u if size_u >= size_t else size_t - 1)
                             - (size_u if size_u > size_t else size_t) + cut)
                    stgt += cut - 1
                    ssrc += cut
                else:
                    # Edge z-v leaves the unmapped part and becomes an
                    # outer edge of the new pair (u, z).
                    m -= 1
                    k = gone.get(lab, 0)
                    if t_ecounts[lab] - k <= s_ecounts.get(lab, 0):
                        ei -= 1
                    gone[lab] = k + 1
                    # gone is the new pair's target outer edge-label count;
                    # its intersection with c_new grows while it fits.
                    if k < c_new.get(lab, 0):
                        inter += 1
                    if v not in a_q:
                        n_aq_z += 1
                    # v falls from level k, on top of z's own rise there
                    # when k <= deg z and of earlier neighbours' rises.
                    k = deg_q[v]
                    c = diff[k]
                    if c + (k <= size_z) >= 0:
                        ov += 1
                    else:
                        un -= 1
                    diff[k] = c + 1
                    raised.append(k)
            for k in raised:
                diff[k] -= 1
            smax += (size_new if size_new > size_z else size_z) - inter
            stgt += size_z - inter
            ssrc += size_new - inter
            base = _combine(n_g, n_q if z is None else n_q - 1, vi, ov, un, m, ei)
            lb1 = base + smax
            lb2 = base + stgt + (a_g - n_aq_z if a_g > n_aq_z else 0)
            lb3 = base + ssrc + (n_aq_z - a_g if n_aq_z > a_g else 0)
            hs.append(max(lb1, lb2, lb3))
        return hs
