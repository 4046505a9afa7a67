import itertools
import random
from collections import Counter

import pytest

import reference_bounds as reference
from conftest import adjacency_built, build_graph, random_pair, unmapped_parts
from gedkit.bounds import (
    GraphSummary,
    PairHeuristic,
    _UNPAIRED,
    _graph_totals,
    _half,
    _label_ids,
    _levels,
    delta_bounds,
    lb_from_branches,
    lb_graph,
    min_cost_assignment,
    summarize,
    lb_from_summaries,
    vertex_branches,
)
from gedkit.graphs import LabelTable, LabeledGraph, vertex_partition
from gedkit.engine import bss_ged
from gedkit.mapping import GraphMapping, edit_cost, realize_edit_path
from gedkit.oracle import count_complete_basic_mappings, exhaustive_ged
from gedkit.successors import (
    ORDER_POLICIES,
    basic_gen_succr,
    determine_order,
    gen_succr,
    identity_order,
    make_root,
)
from gedkit.synth import random_graph, random_graph_db


def as_mapping(pairs, g, q):
    return GraphMapping(pairs, g.n, q.n)


@pytest.mark.parametrize("pairwise", [
    lb_graph, delta_bounds, bss_ged,
    lambda g, q: edit_cost(GraphMapping(((0, 0),), 1, 1), g, q),
    lambda g, q: realize_edit_path(GraphMapping(((0, 0),), 1, 1), g, q),
], ids=["lb_graph", "delta_bounds", "bss_ged", "edit_cost", "realize_edit_path"])
def test_pairwise_calls_need_one_label_table(pairwise):
    # One 'A' vertex each, interned as id 2 in one table and id 1 in the
    # other: compared as raw ids, the labels would differ although ged is 0.
    t1, t2 = LabelTable(), LabelTable()
    t1.intern("X")
    g = LabeledGraph([t1.intern("A")], [], t1)
    q = LabeledGraph([t2.intern("A")], [], t2)
    with pytest.raises(ValueError, match="graphs must share one label table"):
        pairwise(g, q)


def test_delta_bounds_identical(square_star):
    g, _ = square_star
    assert delta_bounds(g, g) == (0, 0)


def test_delta_bounds_square_star(square_star):
    g, q = square_star
    assert delta_bounds(g, q) == (2, 1)
    assert delta_bounds(q, g) == (1, 2)


def test_delta_bounds_single_edge_vs_empty():
    g = build_graph(["A", "B"], [(0, 1, "x")])
    q = build_graph(["A", "B"], [], g.table)
    assert delta_bounds(g, q) == (1, 0)
    assert delta_bounds(q, g) == (0, 1)


def test_lb_graph_self_is_zero(square_star, pendant_pair):
    for g in (*square_star, *pendant_pair):
        assert lb_graph(g, g) == 0


def test_lb_graph_example5_unmapped_parts(pendant_pair):
    g, q = pendant_pair
    mapping = as_mapping(((0, 0), (1, 1)), g, q)
    assert lb_graph(*unmapped_parts(mapping, g, q)) == 2


def test_node_split_example5(pendant_pair):
    # Around {0->0, 1->1} the unmapped parts have 3 and 4 vertices and pair
    # bound 2. The outer edges of both mapped vertices reconcile exactly
    # (LB1 = 2), and the target side has one more outer vertex, {2, 3, 4}
    # against {2, 3} (LB2 = 2, LB3 = 3).
    g, q = pendant_pair
    mapping = as_mapping(((0, 0), (1, 1)), g, q)
    g2, q2 = unmapped_parts(mapping, g, q)
    assert (g2.n, q2.n) == (3, 4)
    assert reference.remainder_bounds(mapping, g, q) == (2, 2, 3)
    # The search bounds that node as the child (1, 1) of the parent {0->0}.
    assert PairHeuristic(g, q).children({0: 0}, {0: 0}, 1, [1]) == [3]


def test_node_split_root_and_leaf(square_star):
    g, q = square_star
    root = as_mapping((), g, q)
    assert unmapped_parts(root, g, q)[0] == g
    # No outer edges at the root: every bound is the pair bound.
    assert reference.remainder_bounds(root, g, q) == (lb_graph(g, q),) * 3
    assert make_root(g, q, PairHeuristic(g, q)).h == lb_graph(g, q)
    # The search never bounds a complete mapping: its leaves take h = 0.
    leaf = as_mapping(((0, 0), (1, 1), (2, 2), (3, 3)), g, q)
    assert unmapped_parts(leaf, g, q)[0].n == 0
    assert reference.remainder_bounds(leaf, g, q) == (0, 0, 0)


def test_h_example5(pendant_pair):
    g, q = pendant_pair
    mapping = as_mapping(((0, 0), (1, 1)), g, q)
    assert reference.remainder_bounds(mapping, g, q) == (2, 2, 3)
    assert PairHeuristic(g, q).children({0: 0}, {0: 0}, 1, [1]) == [3]


def test_h_at_root_and_leaf(square_star, pendant_pair):
    for g, q in (square_star, pendant_pair):
        assert make_root(g, q, PairHeuristic(g, q)).h == lb_graph(g, q)
    g, q = square_star
    leaf = as_mapping(((0, 0), (1, 1), (2, 2), (3, 3)), g, q)
    assert max(reference.remainder_bounds(leaf, g, q)) == 0
    # The last pair completes the mapping; bounded as a child, it gets 0.
    parent = {0: 0, 1: 1, 2: 2}
    assert PairHeuristic(g, q).children(parent, parent, 3, [3]) == [0]


def test_h_with_dummy_target(pendant_pair):
    # Outer edges of a vertex mapped to a dummy must all be paid for.
    g, q = pendant_pair
    assert PairHeuristic(g, q).children({}, {}, 0, [None]) == [7]
    assert 7 >= len(g.adjacency[0]) == 2


def test_root_h_is_pair_bound():
    # At the root nothing is mapped, so h is the pair bound: the root bound
    # reads it off the heuristic's tables, lb_graph off the summaries and
    # the reference off the unmapped parts, here the whole graphs.
    rng = random.Random(49)
    seen = Counter()
    for trial in range(200):
        table = LabelTable()
        alphabet = 1 if trial % 4 == 0 else rng.choice((2, 5))
        density = rng.choice((0.1, 0.3, 0.6))
        g = random_graph(rng, rng.randint(0, 12), density, alphabet, rng.choice((1, 2)), table)
        q = random_graph(rng, rng.randint(0, 12), density, alphabet, rng.choice((1, 2)), table)
        for a, b in ((g, q), (q, g)):
            want = max(reference.remainder_bounds(as_mapping((), a, b), a, b))
            assert make_root(a, b, PairHeuristic(a, b)).h == lb_graph(a, b) == want, (a, b)
        seen["empty"] += g.n == 0 or q.n == 0
        seen["one label"] += alphabet == 1
        seen["unequal"] += g.n != q.n
    assert min(seen.values()) > 5, seen


def test_lb_soundness_against_oracle(small_sweep):
    for pair in small_sweep:
        assert lb_graph(pair.g, pair.q) <= pair.oracle.distance


def test_admissibility_on_full_reduced_trees():
    rng = random.Random(41)

    def check(node, g, q, part, order, heuristic):
        if node.complete:
            return node.g
        best = min(
            check(s, g, q, part, order, heuristic)
            for s in gen_succr(node, g, q, part, order, heuristic)
        )
        assert node.g + node.h <= best
        return best

    for _ in range(12):
        g, q = random_pair(rng, max_n=5)
        part = vertex_partition(q)
        heuristic = PairHeuristic(g, q)
        root = make_root(g, q, heuristic)
        check(root, g, q, part, identity_order(g), heuristic)


def test_batched_child_bounds_equal_remainder_bounds():
    # The successor generators bound all children of a parent in one
    # PairHeuristic.children call; each child's h must equal the
    # independent reference max(remainder_bounds) on its own mapping, the
    # only evaluator of a general mapping. Small pairs are expanded in full, larger
    # ones along random root-to-leaf descents. One shared heuristic serves
    # both orders, so its per-depth source cache is also rebuilt when the
    # source sequence changes.
    rng = random.Random(97)
    seen = Counter()

    def check(kids, g, q):
        for c in kids:
            if not c.complete:
                mapping = GraphMapping(c.pairs, g.n, q.n)
                assert c.h == max(reference.remainder_bounds(mapping, g, q)), (g, q, c.pairs)
                seen["children"] += 1
                seen["dummy"] += c.pairs[-1][1] is None

    for trial in range(48):
        table = LabelTable()
        n_g, n_q = rng.randint(0, 12), rng.randint(0, 12)
        if trial < 24:
            n_g, n_q = min(n_g, 5), min(n_q, 5)
        alphabet = 1 if trial % 3 == 0 else rng.choice((2, 5))
        density = rng.choice((0.1, 0.3, 0.6))
        g = random_graph(rng, n_g, density, alphabet, rng.choice((1, 2)), table)
        q = random_graph(rng, n_q, density, alphabet, rng.choice((1, 2)), table)
        seen["source bigger"] += n_g > n_q
        seen["target bigger"] += n_g < n_q
        seen["isolated"] += any(not g.adjacency[u] for u in range(n_g))
        seen["one label"] += alphabet == 1
        heuristic = PairHeuristic(g, q)
        part = vertex_partition(q)
        for order in (identity_order(g), determine_order(g, "dfs")):
            for reduced in (True, False):
                def successors(node):
                    if reduced:
                        return gen_succr(node, g, q, part, order, heuristic)
                    return basic_gen_succr(node, g, q, order, heuristic)

                root = make_root(g, q, heuristic)
                if trial < 24:
                    stack = [root]
                    while stack:
                        kids = successors(stack.pop())
                        check(kids, g, q)
                        stack.extend(c for c in kids if not c.complete)
                    continue
                for _ in range(4):
                    node = root
                    while not node.complete:
                        kids = successors(node)
                        check(kids, g, q)
                        node = rng.choice(kids)
    assert min(seen.values()) > 0 and seen["children"] > 10_000, seen


def test_levels_equal_deltas():
    # Every pair bound reads its degree surpluses from level counts instead
    # of sorted sequences. On non-increasing sequences of unequal length,
    # with zeros and repeated values, the halved surpluses equal the
    # reference's positionwise walk, and the counts do not depend on the
    # order the degrees come in.
    rng = random.Random(98)
    seen = Counter()
    for _ in range(3000):
        a, b = (sorted((rng.randint(0, rng.choice((1, 3, 6))) for _ in range(rng.randint(0, 9))),
                       reverse=True) for _ in range(2))
        seen["unequal length"] += len(a) != len(b)
        seen["zeros"] += 0 in a and 0 in b
        seen["repeats"] += len(set(a)) < len(a)
        diff, pos, over, under = _levels(a, b)
        assert (-(-over // 2), -(-under // 2)) == reference._deltas(tuple(a), tuple(b)), (a, b)
        assert over == sum(max(x - y, 0) for x, y in itertools.zip_longest(a, b, fillvalue=0))
        assert under == sum(max(y - x, 0) for x, y in itertools.zip_longest(a, b, fillvalue=0))
        top = max([0, *a, *b])
        assert len(diff) == len(pos) == top + 1
        for k in range(1, top + 1):
            assert diff[k] == sum(x >= k for x in a) - sum(y >= k for y in b)
            assert pos[k] == sum(diff[j] >= 0 for j in range(1, k + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        shuffled = _levels(a, b)
        assert shuffled[0][1:] == diff[1:] and shuffled[1:] == (pos, over, under)
    assert min(seen.values()) > 300, seen


def children_against_reference(g, q, pairs, u, targets, heuristic=None):
    """PairHeuristic.children below the parent `pairs`, and each child's reference h."""
    parent_map = dict(pairs)
    preimage = {t: s for s, t in pairs if t is not None}
    got = (heuristic or PairHeuristic(g, q)).children(parent_map, preimage, u, targets)
    want = [max(reference.remainder_bounds(GraphMapping((*pairs, (u, z)), g.n, q.n), g, q))
            for z in targets]
    return got, want


def all_parents(g, q):
    """Every parent (pairs, next source) of the full unreduced tree, identity order."""
    stack = [()]
    while stack:
        pairs = stack.pop()
        if len(pairs) == g.n:
            continue
        yield pairs, len(pairs)
        used = {t for _, t in pairs}
        stack.extend((*pairs, (len(pairs), z)) for z in [*range(q.n), None] if z not in used)


def test_children_star_against_path():
    # One side's top degree lies above every degree of the other side, so
    # z's own levels and its neighbours' reach levels where the difference
    # is positive on one side and negative on the other.
    table = LabelTable()
    star = build_graph(["A"] * 5, [(0, k, "a") for k in range(1, 5)], table)
    path = build_graph(["A", "B", "A", "B", "A"], [(k, k + 1, "a") for k in range(4)], table)
    checked = 0
    for g, q in ((star, path), (path, star)):
        heuristic = PairHeuristic(g, q)
        for pairs, u in all_parents(g, q):
            used = {t for _, t in pairs}
            targets = [z for z in range(q.n) if z not in used] + [None]
            got, want = children_against_reference(g, q, pairs, u, targets, heuristic)
            assert got == want, (g, q, pairs, u)
            checked += len(targets)
    assert checked > 3000


def test_children_neighbours_on_one_level():
    # Degree levels that fall more than once for one child. Source: the
    # path 0-1-2 with u = 0 mapped, so one edge is left (level 1: 2).
    table = LabelTable()
    path = build_graph(["A"] * 3, [(0, 1, "a"), (1, 2, "a")], table)
    # Target: a star with centre 1. Level differences -2, -1, -1 on levels
    # 1, 2, 3. For z = 1 its own fall lifts them to -1, 0, 0, and its three
    # leaves all fall from level 1, lifting it to 0, 1, 2 in turn.
    star = build_graph(["A"] * 4, [(0, 1, "a"), (1, 2, "a"), (1, 3, "a")], table)
    got, want = children_against_reference(path, star, (), 0, [0, 1, 2, 3, None])
    assert got == want
    # z = 1 and its neighbour 2 both fall from level 1: after z's own fall
    # lifts level 1 from -1 to 0, the neighbour's fall adds to the surplus.
    g = build_graph(["A"] * 5, [(0, 2, "a"), (1, 4, "a"), (2, 3, "a")], table)
    q = build_graph(["A"] * 5, [(0, 3, "a"), (0, 4, "a"), (1, 2, "a")], table)
    got, want = children_against_reference(g, q, (), 0, [0, 1, 2, 3, 4, None])
    assert got == want
    # Every unused neighbour of a 4-cycle vertex sits on one level, below
    # random parents of random sources.
    cycle = build_graph(["A"] * 4, [(0, 1, "a"), (1, 2, "a"), (2, 3, "a"), (0, 3, "a")], table)
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.5)), rng.choice((1, 2)),
                         rng.choice((1, 2)), table)
        depth = rng.randint(0, g.n - 1)
        free = list(range(4))
        rng.shuffle(free)
        pairs = tuple((s, free.pop() if free and rng.random() < 0.7 else None)
                      for s in range(depth))
        used = {t for _, t in pairs}
        targets = [z for z in range(4) if z not in used] + [None]
        got, want = children_against_reference(g, cycle, pairs, depth, targets)
        assert got == want, (g, pairs)


def test_children_dummy_only_and_empty_source_remainder():
    table = LabelTable()
    g = build_graph(["A", "B", "A", "C"],
                    [(0, 1, "a"), (1, 2, "b"), (2, 3, "a"), (0, 3, "b")], table)
    q = build_graph(["A", "B"], [(0, 1, "a")], table)
    # Every target vertex used: the dummy child is the only one left.
    for pairs in (((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 1), (1, None), (2, 0))):
        got, want = children_against_reference(g, q, pairs, len(pairs), [None])
        assert got == want, pairs
    # The last source: once u is mapped, the source remainder is empty.
    q = build_graph(["A", "B", "A", "C", "B"],
                    [(0, 1, "a"), (1, 2, "a"), (2, 3, "b"), (1, 4, "b"), (0, 4, "a")], table)
    for pairs in (((0, 0), (1, 1), (2, 2)), ((0, 4), (1, None), (2, 1)), ()):
        g_last = g if pairs else build_graph(["A"], [], table)
        used = {t for _, t in pairs}
        targets = [z for z in range(q.n) if z not in used] + [None]
        got, want = children_against_reference(g_last, q, pairs, g_last.n - 1, targets)
        assert got == want, pairs


def test_children_on_label_indexed_tables():
    # The heuristic counts labels in lists indexed by label id, one length
    # for the pair's vertex and edge labels, and keeps the source half per
    # depth. Child by child it must equal the reference below every parent
    # of the full unreduced tree, on pairs where:
    # - the two graphs draw on disjoint alphabets of one table, so that
    #   every id of one graph exceeds every id of the other;
    # - one token is a vertex label in one graph and an edge label in the
    #   other, so one id is counted in both lists;
    # - a graph has no edges, or no vertices;
    # - the source order is neither identity nor DFS, and one heuristic
    #   serves every order, so its per-depth source half is re-keyed.
    table = LabelTable()
    low = build_graph(["A", "B", "A", "C"], [(0, 1, "a"), (1, 2, "b"), (2, 3, "a")], table)
    high = build_graph(["X", "Y", "X"], [(0, 1, "x"), (1, 2, "y"), (0, 2, "x")], table)
    mixed = build_graph(["a", "A", "b", "x"], [(0, 1, "A"), (1, 2, "X"), (2, 3, "A")], table)
    edgeless = build_graph(["A", "X", "B"], [], table)
    empty = build_graph([], [], table)

    def ids(g):
        return {*g.vertex_labels, *(lab for _, _, lab in g.edges)}

    assert max(ids(low)) < min(ids(high))
    assert set(mixed.vertex_labels) & {lab for _, _, lab in low.edges}
    assert {lab for _, _, lab in mixed.edges} & set(low.vertex_labels)
    graphs = (low, high, mixed, edgeless, empty)
    seen = Counter()
    for g, q in itertools.product(graphs, repeat=2):
        heuristic = PairHeuristic(g, q)
        shuffled = list(range(g.n))
        random.Random(g.n).shuffle(shuffled)
        orders = {identity_order(g), determine_order(g, "dfs"), tuple(reversed(range(g.n))), tuple(shuffled)}
        for order in orders:
            seen["other order"] += order not in (identity_order(g), determine_order(g, "dfs"))
            stack = [make_root(g, q, heuristic)]
            while stack:
                node = stack.pop()
                for c in basic_gen_succr(node, g, q, order, heuristic):
                    mapping = GraphMapping(c.pairs, g.n, q.n)
                    if c.complete:
                        assert c.h == 0 == max(reference.remainder_bounds(mapping, g, q))
                        seen["complete"] += 1
                        continue
                    assert c.h == max(reference.remainder_bounds(mapping, g, q)), (g, q, order, c.pairs)
                    stack.append(c)
                    seen["children"] += 1
                    seen["empty target"] += q.n == 0
                    seen["edgeless"] += g is edgeless or q is edgeless
    assert seen["other order"] >= 6 and min(seen.values()) > 0 and seen["children"] > 5000, seen


def half_from_scratch(g, ids, removed, partner_labels, other_counts, other_ecounts):
    """What _half returns, counted from g.edges: g minus the vertices in
    `removed`, each met with the outer edge labels partner_labels[t]."""
    kept = [v for v in range(g.n) if v not in removed]
    counts = Counter(ids[g.vertex_labels[v]] for v in kept)
    inner = [(a, b, ids[lab]) for a, b, lab in g.edges if a not in removed and b not in removed]
    ecounts = Counter(lab for _, _, lab in inner)
    deg = [0] * g.n
    for a, b, _ in inner:
        deg[a] += 1
        deg[b] += 1
    labels = {t: Counter() for t in removed}
    outer_vertices = set()
    for a, b, lab in g.edges:
        for t, v in ((a, b), (b, a)):
            if t in removed and v not in removed:
                labels[t][ids[lab]] += 1
                outer_vertices.add(v)
    outer = {}
    excess = total = shared = 0
    for t in removed:
        size, size_w = labels[t].total(), partner_labels[t].total()
        outer[t] = (size, labels[t], int(size > size_w), partner_labels[t])
        excess += max(size - size_w, 0)
        total += size
        shared += (labels[t] & partner_labels[t]).total()
    k = len(ids)
    return ([counts[i] for i in range(k)], [ecounts[i] for i in range(k)],
            sum(min(counts[i], other_counts[i]) for i in range(k)),
            sum(min(ecounts[i], other_ecounts[i]) for i in range(k)),
            deg, len(inner), outer, outer_vertices, excess, total, shared)


def test_half_walk_against_edges():
    # The one walk that builds both halves of h, checked output by output
    # rather than through max(LB1, LB2, LB3), where an error that lowers a
    # term other than the maximum would not show. Its source form removes a
    # prefix of a source order, each source met with no partner, against
    # the whole target; its target form removes the used targets of an
    # injective preimage, each met with its source, against that source
    # half. Both must equal a count from scratch over g.edges and q.edges.
    names = ("label counts", "edge-label counts", "vinter", "einter", "degrees", "edge count",
             "outer", "outer vertices", "excess", "outer size", "shared labels")
    rng = random.Random(101)
    seen = Counter()
    for _ in range(1000):
        table = LabelTable()
        alphabet = rng.choice((1, 2, 5))
        density = rng.choice((0.2, 0.5, 0.8))
        g, q = (random_graph(rng, rng.randint(0, 9), density, alphabet, rng.choice((1, 2, 5)), table)
                for _ in range(2))
        ids = _label_ids(g, q)
        g_totals, q_totals = _graph_totals(g, ids), _graph_totals(q, ids)
        q_counts = Counter(ids[lab] for lab in q.vertex_labels)
        q_ecounts = Counter(ids[lab] for _, _, lab in q.edges)
        whole = ([q_counts[i] for i in range(len(ids))], [q_ecounts[i] for i in range(len(ids))],
                 (Counter(ids[lab] for lab in g.vertex_labels) & q_counts).total(),
                 (Counter(ids[lab] for _, _, lab in g.edges) & q_ecounts).total())
        policy = rng.choice(sorted(ORDER_POLICIES))
        key = determine_order(g, policy)[:rng.randint(0, g.n)]
        source = _half(g_totals, dict.fromkeys(key), _UNPAIRED, *whole)
        want = half_from_scratch(g, ids, set(key), {s: Counter() for s in key}, *whole[:2])
        for name, a, b in zip(names, source, want, strict=True):
            assert a == b, (name, policy, key, g, q)

        paired = rng.sample(key, rng.randint(0, min(len(key), q.n)))
        preimage = dict(zip(rng.sample(range(q.n), len(paired)), paired))
        target = _half(q_totals, preimage, source[6], *source[:4])
        partner_labels = {t: want[6][s][1] for t, s in preimage.items()}
        want_t = half_from_scratch(q, ids, set(preimage), partner_labels, want[0], want[1])
        for name, a, b in zip(names, target, want_t, strict=True):
            assert a == b, (name, policy, key, preimage, g, q)
        seen[policy] += 1
        seen[f"{alphabet} labels"] += 1
        seen["shared"] += want_t[10] > 0
        seen["drop"] += any(drop for _, _, drop, _ in want_t[6].values())
        seen["no drop"] += any(not drop for _, _, drop, _ in want_t[6].values())
        seen["unpaired source"] += len(paired) < len(key)
    assert min(seen.values()) > 80, seen


def test_summary_has_slots():
    # The database keeps one summary per member, so a summary carries no
    # per-instance __dict__; it still equals the reference count.
    g = build_graph(["A", "B", "A"], [(0, 1, "x"), (2, 1, "y")])
    summary = summarize(g)
    assert not hasattr(summary, "__dict__") and "degrees" in GraphSummary.__slots__
    assert summary == reference.summarize(g)


def test_sibling_bounds_do_not_depend_on_each_other():
    # children(..., targets) equals one call per target, in any order: no
    # per-child state may leak into the next sibling.
    rng = random.Random(100)
    calls = 0
    for _ in range(60):
        g, q = random_pair(rng, max_n=8, min_n=1, densities=(0.3, 0.6))
        heuristic = PairHeuristic(g, q)
        order = determine_order(g, "dfs")
        node = make_root(g, q, heuristic)
        while len(node.pairs) < g.n:
            pairs = node.pairs
            parent_map = dict(pairs)
            preimage = {t: s for s, t in pairs if t is not None}
            u = order[len(pairs)]
            targets = [z for z in range(q.n) if z not in preimage] + [None]
            together = heuristic.children(parent_map, preimage, u, targets)
            shuffled = targets[:]
            rng.shuffle(shuffled)
            alone = {z: heuristic.children(parent_map, preimage, u, [z]) for z in shuffled}
            assert together == [alone[z][0] for z in targets]
            assert heuristic.children(parent_map, preimage, u, shuffled) == [
                together[targets.index(z)] for z in shuffled]
            calls += 1
            node = rng.choice(basic_gen_succr(node, g, q, order, heuristic))
    assert calls > 200


def renumber(g: LabeledGraph, perm: list[int]) -> LabeledGraph:
    inv = [0] * g.n
    for new, old in enumerate(perm):
        inv[old] = new
    labels = [g.vertex_labels[perm[i]] for i in range(g.n)]
    edges = [(inv[u], inv[v], lab) for u, v, lab in g.edges]
    return LabeledGraph(labels, edges, g.table)


def test_bounds_invariant_under_renumbering():
    rng = random.Random(42)
    for _ in range(15):
        g, q = random_pair(rng, max_n=6)
        pg = list(range(g.n))
        pq = list(range(q.n))
        rng.shuffle(pg)
        rng.shuffle(pq)
        g2, q2 = renumber(g, pg), renumber(q, pq)
        assert delta_bounds(g, q) == delta_bounds(g2, q2)
        assert lb_graph(g, q) == lb_graph(g2, q2)


def test_edge_operation_counts_cover_target_edges(small_sweep):
    # The edge operations realized from an optimal mapping always leave
    # enough shared labels to account for every target edge.
    for pair in small_sweep:
        g, q = pair.g, pair.q
        ops = realize_edit_path(pair.oracle.mapping, g, q)
        gamma2 = sum(1 for op in ops if op["op"] == "ins_edge")
        gamma3 = sum(1 for op in ops if op["op"] == "sub_edge")
        shared = sum(
            (Counter(lab for *_, lab in g.edges) & Counter(lab for *_, lab in q.edges)).values()
        )
        assert shared + gamma2 + gamma3 >= q.m


def test_summarize_matches_reference():
    # Graphs of 0-12 vertices; sparse graphs have isolated vertices (density
    # 0.05 rounds to no edge below 7 vertices), and n = 0 is the empty graph.
    rng = random.Random(48)
    table = LabelTable()
    sizes = isolated = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 12), rng.choice((0.05, 0.1, 0.3, 0.8)),
                         rng.choice((1, 2, 5)), rng.choice((1, 2, 5)), table)
        assert summarize(g) == reference.summarize(g)
        sizes |= 1 << g.n
        isolated += 0 in summarize(g).degrees
    assert sizes == (1 << 13) - 1 and isolated >= 100


def test_lb_from_summaries_matches_lb_graph():
    rng = random.Random(43)
    for _ in range(20):
        g, q = random_pair(rng, max_n=6)
        assert lb_from_summaries(summarize(g), summarize(q)) == lb_graph(g, q)


def test_h_never_negative_and_zero_when_done():
    # Every complete mapping has h = 0. The search bounds only those that
    # insert nothing, as the child that maps the last source.
    rng = random.Random(44)
    bounded = 0
    for _ in range(10):
        g, q = random_pair(rng, max_n=4)
        from conftest import all_complete_mappings

        heuristic = PairHeuristic(g, q)
        for psi in all_complete_mappings(g, q):
            assert max(reference.remainder_bounds(psi, g, q)) == 0
            *parent, (u, z) = psi.pairs
            if u is not None:
                got, want = children_against_reference(g, q, tuple(parent), u, [z], heuristic)
                assert got == want == [0], psi
                bounded += 1
    assert bounded > 10


def test_children_bound_complete_children_by_zero():
    # A child that maps the last source and leaves no target unused is
    # complete: both remainders are empty and no mapped vertex has an edge
    # out of the mapped part, so all three remainder bounds are 0. The
    # generators bound such children in the same call as their siblings,
    # so children must give them 0, the dummy child included.
    rng = random.Random(46)
    seen = Counter()
    for _ in range(40):
        g, q = random_pair(rng, max_n=5)
        heuristic = PairHeuristic(g, q)
        part = vertex_partition(q)
        order = determine_order(g)
        for reduced in (True, False):
            def generate(node, h=None):
                if reduced:
                    return gen_succr(node, g, q, part, order, h)
                return basic_gen_succr(node, g, q, order, h)

            layer = [make_root(g, q)]
            for _ in range(g.n - 1):
                layer = [c for node in layer for c in generate(node)]
            for parent in layer:
                parent_map = dict(parent.pairs)
                preimage = {z: w for w, z in parent.pairs if z is not None}
                kids = generate(parent)
                assert [c.complete for c in kids] == [len(preimage) + (c.pairs[-1][1] is not None) == q.n
                                                      for c in kids]
                complete = [c.pairs[-1][1] for c in kids if c.complete]
                assert heuristic.children(parent_map, preimage, order[-1], complete) == [0] * len(complete)
                assert [c.h for c in generate(parent, heuristic) if c.complete] == [0] * len(complete)
                for z in complete:
                    seen["real" if z is not None else "dummy", reduced] += 1
    assert len(seen) == 4 and sum(seen.values()) > 800, seen


def random_mapping(rng: random.Random, g: LabeledGraph, q: LabeledGraph) -> GraphMapping:
    """A random valid mapping: partial, or complete with trailing insertions.

    Sources map to an unused target or to a dummy target; dummy sources
    (None, t) are mixed in among them.
    """
    sources = list(range(g.n))
    rng.shuffle(sources)
    free = list(range(q.n))
    rng.shuffle(free)
    complete = rng.random() < 0.3
    depth = g.n if complete else rng.randint(0, g.n)
    pairs = []
    for u in sources[:depth]:
        if free and rng.random() < 0.15:
            pairs.append((None, free.pop()))
        pairs.append((u, free.pop() if free and rng.random() < 0.75 else None))
    if complete:
        pairs.extend((None, z) for z in sorted(free))
    return GraphMapping(tuple(pairs), g.n, q.n)


def test_flat_bounds_match_reference():
    # The pair bound against the reference on both argument orders, and
    # h below random parents in random source orders. The search inserts
    # targets only at its leaves, so the children bounded are the random
    # mappings with their insertion pairs left out; one heuristic per pair
    # serves all ten, re-keying its per-depth source half.
    rng = random.Random(45)
    seen = Counter()
    for _ in range(300):
        g, q = random_pair(rng, max_n=12, min_n=0)
        sg, sq = summarize(g), summarize(q)
        assert lb_from_summaries(sg, sq) == reference.lb_from_summaries(sg, sq)
        assert lb_from_summaries(sq, sg) == reference.lb_from_summaries(sq, sg)
        heuristic = PairHeuristic(g, q)
        for _ in range(10):
            mapping = random_mapping(rng, g, q)
            real = [p for p in mapping.pairs if p[0] is not None]
            if not real:
                continue
            (u, z), parent = real[-1], tuple(real[:-1])
            got, want = children_against_reference(g, q, parent, u, [z], heuristic)
            assert got == want, (g, q, real)
            seen["children"] += 1
            seen["dummy"] += z is None
            seen["insertions left out"] += len(real) < len(mapping.pairs)
            seen["complete"] += len(real) == g.n and {t for _, t in real} >= set(range(q.n))
    assert seen["children"] >= 2500 and min(seen.values()) >= 100, seen


def test_pair_bound_size_corollary():
    # LB(a, b) >= |n_a - n_b| + |m_a - m_b| in both argument orders; the
    # similarity-search filter skips whole size buckets on this alone.
    rng = random.Random(46)
    table = LabelTable()
    tight = 0
    for _ in range(2000):
        g, q = (
            random_graph(rng, rng.randint(0, 12), rng.choice((0.1, 0.3, 0.6, 1.0)),
                         rng.choice((1, 2, 5)), rng.choice((1, 2, 5)), table)
            for _ in range(2)
        )
        size_gap = abs(g.n - q.n) + abs(g.m - q.m)
        sg, sq = summarize(g), summarize(q)
        assert lb_from_summaries(sg, sq) >= size_gap
        assert lb_from_summaries(sq, sg) >= size_gap
        tight += lb_from_summaries(sg, sq) == size_gap
    assert tight >= 500


def test_pair_bound_covers_missing_label_units():
    # LB(a, b) >= (max(n_a, n_b) - vinter) + (max(m_a, m_b) - einter) in
    # both argument orders, empty graphs included: the count test of
    # filter_candidates refutes a graph on this alone.
    rng = random.Random(146)
    table = LabelTable()
    tight = empty = 0
    for _ in range(2000):
        g, q = (
            random_graph(rng, rng.randint(0, 12), rng.choice((0.1, 0.3, 0.6, 1.0)),
                         rng.choice((1, 2, 5)), rng.choice((1, 2, 5)), table)
            for _ in range(2)
        )
        empty += g.n == 0 or q.n == 0
        for a, b in ((g, q), (q, g)):
            vinter = sum((Counter(a.vertex_labels) & Counter(b.vertex_labels)).values())
            einter = sum((Counter(lab for *_, lab in a.edges)
                          & Counter(lab for *_, lab in b.edges)).values())
            missing = max(a.n, b.n) - vinter + max(a.m, b.m) - einter
            lb = lb_from_summaries(summarize(a), summarize(b))
            assert lb >= missing
            tight += lb == missing
    assert empty >= 100 and tight >= 3000


def test_min_cost_assignment_matches_brute_force():
    rng = random.Random(47)
    for k in range(8):
        for _ in range(4 if k == 7 else 12):
            high = rng.choice((1, 3, 20))  # small ranges force ties
            cost = [[rng.randint(0, high) for _ in range(k)] for _ in range(k)]
            brute = min(sum(cost[i][p[i]] for i in range(k))
                        for p in itertools.permutations(range(k)))
            assert min_cost_assignment(cost)[0] == brute, cost



def test_capped_assignment_matches_brute_force():
    # Below the cap the optimum itself; above it, a value in (cap, optimum].
    rng = random.Random(51)
    capped = 0
    for k in range(7):
        for _ in range(1 if k == 0 else 10):
            high = rng.choice((1, 3, 12))
            cost = [[rng.randint(0, high) for _ in range(k)] for _ in range(k)]
            brute = min(sum(cost[i][p[i]] for i in range(k))
                        for p in itertools.permutations(range(k)))
            for cap in range(41):
                got, _ = min_cost_assignment(cost, cap)
                if brute <= cap:
                    assert got == brute, (cost, cap)
                else:
                    assert cap < got <= brute, (cost, cap)
                    capped += got < brute
    assert capped > 0


def test_assignment_attains_value():
    # The returned assignment is a permutation whose entries sum to the
    # returned value: always uncapped, and capped wherever the value is
    # within the cap. Above the cap it is None, or, when only the last row
    # lifted the value, the whole optimal assignment.
    rng = random.Random(53)
    given = 0
    for k in range(7):
        for _ in range(1 if k == 0 else 10):
            high = rng.choice((1, 3, 12))
            cost = [[rng.randint(0, high) for _ in range(k)] for _ in range(k)]
            brute = min(sum(cost[i][p[i]] for i in range(k))
                        for p in itertools.permutations(range(k)))
            for cap in (None, *range(41)):
                value, assignment = min_cost_assignment(cost, cap)
                if cap is not None and value > cap and assignment is None:
                    continue
                assert sorted(assignment) == list(range(k)), (cost, cap)
                assert sum(cost[i][assignment[i]] for i in range(k)) == value == brute, (cost, cap)
                given += cap is not None and value > cap
    assert given > 0


def test_branch_stage_decides_like_full_bound():
    # Given tau, lb_from_branches must refute exactly when the full bound
    # exceeds tau, and equal it otherwise, handing out a complete
    # assignment. One row dict per query serves candidates of every size,
    # so padding that leaked into a stored row would change later
    # candidates' bounds.
    rng = random.Random(52)
    table = LabelTable()
    refuted = kept = 0
    for _ in range(30):
        density, vlab, elab = rng.choice((0.2, 0.5, 0.8)), rng.choice((1, 2, 4)), rng.choice((1, 2, 3))
        graphs = [random_graph(rng, rng.randint(0, 9), density, vlab, elab, table) for _ in range(12)]
        graphs.append(LabeledGraph([], [], table))
        query = rng.choice(graphs)
        qb = vertex_branches(query)
        rows = {}
        for g in graphs:
            gb = vertex_branches(g)
            full, _ = lb_from_branches(gb, qb)
            for tau in range(7):
                for staged, assignment in (lb_from_branches(gb, qb, tau, rows),
                                           lb_from_branches(gb, qb, tau)):
                    if full <= tau:
                        assert staged == full
                        assert sorted(assignment) == list(range(max(len(gb), len(qb))))
                    else:
                        assert tau < staged <= full
                refuted += full > tau
                kept += full <= tau
        assert all(len(row) == len(qb) for row in rows.values())
    assert refuted > 100 and kept > 100


def full_branch_bound(g: LabeledGraph, q: LabeledGraph) -> int:
    """The vertex-branch bound of the whole graphs, without tau."""
    return lb_from_branches(vertex_branches(g), vertex_branches(q))[0]


def test_branch_bound_below_oracle(sweep):
    pairs = [(p.g, p.q, p.oracle.distance) for p in sweep]
    rng = random.Random(48)
    while len(pairs) < len(sweep) + 150:
        # Up to 8 vertices, where the oracle stays cheap enough to run.
        g, q = random_pair(rng, max_n=8, min_n=0)
        if count_complete_basic_mappings(g.n, q.n) <= 50_000:
            pairs.append((g, q, exhaustive_ged(g, q).distance))
    assert max(max(g.n, q.n) for g, q, _ in pairs) == 8
    tight = 0
    for g, q, ged in pairs:
        bound = full_branch_bound(g, q)
        assert bound <= ged
        tight += bound == ged
    assert tight >= len(pairs) // 2


def perturbed(rng: random.Random, g: LabeledGraph, edits: int, max_n: int) -> LabeledGraph:
    """g after up to `edits` random relabels, edge deletions and insertions, and vertex insertions."""
    labels = list(g.vertex_labels)
    edges = {(u, v): lab for u, v, lab in g.edges}
    vlabs = sorted(set(labels))
    elabs = sorted(set(edges.values())) or vlabs
    for _ in range(edits):
        op = rng.randrange(4)
        if op == 0:
            labels[rng.randrange(len(labels))] = rng.choice(vlabs)
        elif op == 1 and edges:
            del edges[rng.choice(sorted(edges))]
        elif op == 2:
            u, v = sorted(rng.sample(range(len(labels)), 2))
            edges[(u, v)] = rng.choice(elabs)
        elif len(labels) < max_n:
            labels.append(rng.choice(vlabs))
    return LabeledGraph(labels, [(u, v, lab) for (u, v), lab in edges.items()], g.table)


def test_branch_bound_below_bss_ged_on_larger_graphs():
    # Beyond the oracle's reach. Near neighbours keep bss_ged fast, and they
    # are the pairs similarity search has to verify.
    rng = random.Random(49)
    table = LabelTable()
    for _ in range(40):
        g = random_graph(rng, rng.randint(9, 12), rng.choice((0.2, 0.3, 0.5)),
                         rng.choice((2, 3, 5)), rng.choice((1, 2, 3)), table)
        q = perturbed(rng, g, rng.randint(1, 8), 12)
        assert full_branch_bound(g, q) <= bss_ged(g, q).distance


def test_vertex_branches_read_edges_only():
    # The adjacency formula gives each vertex its label and the sorted
    # labels of its neighbour map; vertex_branches reads g.edges instead,
    # so it builds no adjacency, isolated vertices and empty graphs included.
    entries, _ = random_graph_db(51, 80, 0, 12, 0.3, 3, 3)
    for _, g in entries:
        branches = vertex_branches(g)
        assert not adjacency_built(g)
        assert branches == [(lab, tuple(sorted(g.adjacency[u].values())))
                            for u, lab in enumerate(g.vertex_labels)]


def test_branch_bound_symmetric_and_empty():
    rng = random.Random(50)
    for _ in range(200):
        g, q = random_pair(rng, max_n=10, min_n=0)
        assert full_branch_bound(g, q) == full_branch_bound(q, g)
        empty = LabeledGraph([], [], g.table)
        assert full_branch_bound(g, empty) == full_branch_bound(empty, g) == g.n + g.m
    assert full_branch_bound(empty, empty) == 0
