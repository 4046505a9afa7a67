"""Admissible lower bounds: the pair bound from label multisets and degree
levels, the branch bound, and h(r)."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .graphs import LabeledGraph, multiset_intersection_size, require_shared_table


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


@dataclass(frozen=True, slots=True)
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
    """Label counts and sorted degrees of the whole graph, read from its
    edges, so that a database graph never builds its adjacency."""
    counts: dict[int, int] = {}
    for lab in g.vertex_labels:
        counts[lab] = counts.get(lab, 0) + 1
    ecounts: dict[int, int] = {}
    deg = [0] * g.n
    for a, b, lab in g.edges:
        deg[a] += 1
        deg[b] += 1
        ecounts[lab] = ecounts.get(lab, 0) + 1
    deg.sort(reverse=True)
    return GraphSummary(g.n, g.m, counts, ecounts, tuple(deg))


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
    """Each vertex's branch: its label and its sorted incident edge labels.

    Read from the graph's edges, as summarize is, so that a database member
    the branch bound checks still builds no adjacency: only an engine run
    does."""
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for a, b, lab in g.edges:
        incident[a].append(lab)
        incident[b].append(lab)
    return [(lab, tuple(sorted(labs))) for lab, labs in zip(g.vertex_labels, incident)]


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


_edge_label = itemgetter(2)


def _label_ids(g: LabeledGraph, q: LabeledGraph) -> dict[int, int]:
    """Dense ids 0..k-1 for the k labels, vertex or edge, that the pair uses.

    Label ids are table-wide, so a pair drawn from a table of many labels
    can use large ids. The remainder halves index their count lists by
    these dense ids instead, so the lists are k long whatever the table.
    """
    labels = {*g.vertex_labels, *q.vertex_labels, *map(_edge_label, g.edges), *map(_edge_label, q.edges)}
    return dict(zip(labels, range(len(labels))))


def _graph_totals(g: LabeledGraph, ids: dict[int, int]) -> tuple:
    """The whole-graph tables that both remainder halves start from.

    Returns (vertex labels, each vertex's row as (neighbour, edge label)
    pairs, label counts, edge-label counts, degrees by vertex, edge count),
    read from the vertex labels and the edges, with every label given by
    its dense id in `ids` (_label_ids). The counts are lists indexed by
    dense id: vertex and edge labels share the ids, so one length serves
    both lists and both graphs of a pair.
    """
    labels = tuple(map(ids.__getitem__, g.vertex_labels))
    counts = [0] * len(ids)
    for lab in labels:
        counts[lab] += 1
    ecounts = [0] * len(ids)
    rows: list[list[tuple[int, int]]] = [[] for _ in labels]
    for a, b, lab in g.edges:
        lab = ids[lab]
        ecounts[lab] += 1
        rows[a].append((b, lab))
        rows[b].append((a, lab))
    return labels, tuple(map(tuple, rows)), counts, ecounts, list(map(len, rows)), len(g.edges)


_UNPAIRED = {None: (0, {}, 0, {})}


def _half(totals: tuple, removed: dict, partners: dict, o_counts: list, o_ecounts: list,
          vinter: int, einter: int) -> tuple:
    """One graph's whole-graph tables (_graph_totals) minus the vertices in
    `removed`, taken out in one walk of their rows and met with a partner.

    removed maps each vertex to take out to its partner's key in partners,
    whose entries have the shape of this function's per-vertex entries: a
    used target's partner is the source mapped onto it, among the source
    half's entries, and a mapped source's is _UNPAIRED[None], with no outer
    edges. o_counts and o_ecounts
    are the other side's label and edge-label counts, and vinter and einter
    the intersections of this graph's whole tables with them: the other
    side is the whole target for the source half, and the source half for
    the target half.

    An edge between two removed vertices leaves the remainder once, counted
    from its smaller end; an edge from a removed t to a kept v lowers v's
    degree and becomes one of t's outer edges. Taking one unit of a label
    out shrinks an intersection sum(min(T, S)) iff T <= S for it. Each
    removed vertex's outer edges meet its partner's label by label,
    counting the labels they share.

    Returns (label counts, edge-label counts, vinter, einter, degrees by
    vertex (a removed vertex has 0), edge count, {vertex: (outer size,
    outer edge-label counts, 1 if that size exceeds the partner's else 0,
    the partner's outer edge-label counts)}, the outer vertices, and the
    excess over the partners, outer size and shared labels summed over the
    removed vertices).
    """
    labels, rows, counts, ecounts, deg, m = totals
    counts, ecounts, deg = counts[:], ecounts[:], deg[:]
    excess = total = shared = 0
    outer_vertices: set[int] = set()
    outer: dict[int, tuple] = {}
    for t, w in removed.items():
        lab = labels[t]
        c = counts[lab]
        if c <= o_counts[lab]:
            vinter -= 1
        counts[lab] = c - 1
        deg[t] = 0
        size_w, c_w, _, _ = partners[w]
        d: dict[int, int] = {}
        size = inter = 0
        for v, lab in rows[t]:
            if v not in removed:
                deg[v] -= 1
                size += 1
                k = d.get(lab, 0)
                if k < c_w.get(lab, 0):
                    inter += 1
                d[lab] = k + 1
                outer_vertices.add(v)
            elif v < t:
                continue
            m -= 1
            c = ecounts[lab]
            if c <= o_ecounts[lab]:
                einter -= 1
            ecounts[lab] = c - 1
        drop = 1 if size > size_w else 0
        outer[t] = (size, d, drop, c_w)
        if drop:
            excess += size - size_w
        total += size
        shared += inter
    return counts, ecounts, vinter, einter, deg, m, outer, outer_vertices, excess, total, shared


def remainder_bounds(g_totals: tuple, q_totals: tuple, vinter: int, einter: int) -> int:
    """h at the root, read from the two graphs' whole-graph tables
    (_graph_totals) and the intersections of their label and edge-label
    counts, vinter and einter.

    Nothing is mapped at the root, so no vertex has outer edges and each
    of the three remainder bounds is the pair bound LB(G, Q), as lb_graph
    computes it. Here it comes from the tables that PairHeuristic already
    holds, so a run builds them once. Every other node is bounded by
    PairHeuristic.children; tests/reference_bounds.py keeps the general
    evaluator of any mapping.

    The name is that of the general evaluator this replaced, because
    bench/spans.py traces bounds.remainder_bounds to count one root bound
    per engine run, until ROADMAP item 1 stops binding it.
    """
    g_labels, _, _, _, g_deg, _ = g_totals
    q_labels, _, _, _, q_deg, m_q = q_totals
    _, _, over, under = _levels(g_deg, q_deg)
    return _combine(len(g_labels), len(q_labels), vinter, over, under, m_q, einter)


class PairHeuristic:
    """h for one graph pair: at the root, or for all children of one parent.

    root() gives the pair bound through remainder_bounds; children() gives
    h of every child of one parent in one pass, composing a source half
    and a target half. These are the search's only evaluators of h.

    The heuristic builds each graph's whole-graph tables once
    (_graph_totals): rows of (neighbour, edge label) pairs, label and
    edge-label counts as lists indexed by the pair's dense label ids
    (_label_ids), degrees and the edge count. Both halves come from one
    walk (_half): the totals minus the mapped sources or the used
    targets, taken out along their rows, so a half costs copies of the
    tables plus the removed vertices' degrees, not a pass over the graph.

    The source half depends only on which sources are mapped, and sources
    are mapped in a fixed order, so within one run it depends only on the
    depth: it is kept per depth, at most |V_G| + 1 entries, and rebuilt
    when a different source sequence reaches that depth. Its sources meet
    no partner, and its intersections are counted down from the whole
    graphs'. The target half is the parent's, computed once per call with
    each used target met by its source; each child's is the parent's with
    its target z used, applied in O(deg z) with list reads by dense id,
    and the dummy child takes the same update with nothing used.
    """

    __slots__ = ("_g_totals", "_q_totals", "_q_whole", "_sources")

    def __init__(self, g: LabeledGraph, q: LabeledGraph):
        ids = _label_ids(g, q)
        self._g_totals = g_totals = _graph_totals(g, ids)
        self._q_totals = q_totals = _graph_totals(q, ids)
        # The source half's other side: the whole target's counts and their
        # intersections with the whole source's, which the root bound reads
        # too.
        _, _, g_counts, g_ecounts, _, _ = g_totals
        _, _, q_counts, q_ecounts, _, _ = q_totals
        self._q_whole = (q_counts, q_ecounts, sum(map(min, g_counts, q_counts)),
                         sum(map(min, g_ecounts, q_ecounts)))
        self._sources: list[tuple | None] = [None] * (g.n + 1)

    def root(self) -> int:
        # remainder_bounds is looked up in the module at each call, so a
        # tracer that rebinds bounds.remainder_bounds sees every root bound.
        return remainder_bounds(self._g_totals, self._q_totals, *self._q_whole[2:])

    def children(self, parent_map: dict[int, int | None], preimage: dict[int, int],
                 u: int, targets: Sequence[int | None]) -> list[int]:
        """h of each child that extends the parent by (u, z), z in targets.

        parent_map and preimage are the parent's source -> target and
        target -> source maps, every pair with a real source; None in
        targets is the dummy child. Equals, child by child, the max of the
        three remainder bounds of the child mapping, which
        tests/reference_bounds.py evaluates from scratch.

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
        # The source half of this depth, kept with its nonzero degrees, its
        # number of outer vertices and its number of unmapped sources.
        key = (*parent_map, u)
        entry = self._sources[len(key)]
        if entry is None or entry[0] != key:
            source = _half(self._g_totals, dict.fromkeys(key), _UNPAIRED, *self._q_whole)
            entry = self._sources[len(key)] = (key, source, [d for d in source[4] if d], len(source[7]),
                                               len(self._g_totals[0]) - len(key))
        _, source, deg_g, a_g, n_g = entry
        s_counts, s_ecounts, s_vinter, s_einter, _, _, outer, _, _, s_size, _ = source
        # The parent's target half, met with the children's source half.
        # preimage gives every used target a source: the search inserts
        # targets only at its leaves, which are never bounded. The source
        # half counts every mapped source as if it were deleted;
        # each pair adds the excess of its target's outer edges over its
        # source's and takes out the labels they share.
        t_counts, t_ecounts, vinter, einter, deg_q, m_q, outer_of, a_q, excess, sum_tgt, shared = _half(
            self._q_totals, preimage, outer, s_counts, s_ecounts, s_vinter, s_einter)
        sum_max, sum_tgt, sum_src = s_size + excess - shared, sum_tgt - shared, s_size - shared
        qlabels, rows, _, _, _, _ = self._q_totals
        n_q = len(qlabels) - len(preimage)
        n_aq = len(a_q)
        size_new, c_new, _, _ = outer[u]
        diff, pos, over, under = _levels(deg_g, deg_q)
        vmax = max(n_g, n_q - 1)
        vmax0 = max(n_g, n_q)

        hs = []
        for z in targets:
            ei, vi, n_aq_z = einter, vinter, n_aq
            smax, stgt, ssrc = sum_max, sum_tgt, sum_src
            gone: dict[int, int] = {}
            inter = 0
            raised = []
            # The dummy child (z None) takes the same update with no target
            # used and no neighbours.
            size_z = 0
            row = ()
            if z is not None:
                # Removing one target unit of a label shrinks an
                # intersection sum(min(T, S)) iff T <= S for that label.
                lab = qlabels[z]
                if t_counts[lab] <= s_counts[lab]:
                    vi -= 1
                if z in a_q:
                    n_aq_z -= 1
                # The new pair's target outer edges: z's edges to unused vertices.
                size_z = deg_q[z]
                row = rows[z]
            # z falls to degree 0, raising levels 1..deg z by one each:
            # pos[deg z] of them add to over, the rest take from under.
            ov = over + pos[size_z]
            un = under - size_z + pos[size_z]
            for v, lab in row:
                if v in preimage:
                    # The pair of used neighbour v loses its target outer
                    # edge to z: one unit of its excess over the source
                    # side if it has one (drop), and either a label shared
                    # with the source side or an unshared target edge.
                    _, d, drop, c_u = outer_of[v]
                    if d[lab] <= c_u.get(lab, 0):
                        smax += 1 - drop
                        ssrc += 1
                    else:
                        smax -= drop
                        stgt -= 1
                    continue
                # Edge z-v leaves the unmapped part and becomes an outer
                # edge of the new pair (u, z).
                k = gone.get(lab, 0)
                if t_ecounts[lab] - k <= s_ecounts[lab]:
                    ei -= 1
                gone[lab] = k + 1
                # gone is the new pair's target outer edge-label count;
                # its intersection with c_new grows while it fits.
                if k < c_new.get(lab, 0):
                    inter += 1
                if v not in a_q:
                    n_aq_z += 1
                # v falls from level k, on top of z's own rise there when
                # k <= deg z and of earlier neighbours' rises.
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
            # The source half already counts u's outer edges, as if u were
            # deleted; the pair (u, z) adds the excess of z's and takes
            # out the shared labels.
            smax += (size_z - size_new if size_z > size_new else 0) - inter
            stgt += size_z - inter
            ssrc -= inter
            # _combine, written out: a call would cost a fifth of the child.
            d2 = -(-un // 2)
            e = m_q - size_z - ei
            base = (vmax if z is not None else vmax0) - vi - (-ov // 2) + (d2 if d2 > e else e)
            # The three bounds share base; the outer-vertex correction x
            # goes to the second when positive, and -x to the third. Each
            # pair adds its larger outer size to smax, its target's to stgt
            # and its source's to ssrc, all less the shared labels, so smax
            # is never below stgt or ssrc: the term that x lowers stays
            # under smax, and both terms may take x whatever its sign.
            x = a_g - n_aq_z
            hs.append(base + max(smax, stgt + x, ssrc - x))
        return hs
