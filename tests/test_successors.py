import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import (
    PENDANT_PAIR_TEXT,
    all_complete_mappings,
    build_graph,
    canonical_code,
    code_compare,
    oracle_pairs,
    parse_pair,
    random_pair,
)
from gedkit import successors
from gedkit.bounds import PairHeuristic
from gedkit.cli import main
from gedkit.engine import EXACT, bss_ged
from gedkit.graphs import parse_graph_db, vertex_partition
from gedkit.mapping import GraphMapping, edit_cost
from gedkit.oracle import exhaustive_ged
from gedkit.successors import (
    DEFAULT_ORDER_POLICY,
    ORDER_POLICIES,
    basic_gen_succr,
    connected_order,
    determine_order,
    dfs_order,
    enumerate_search_tree,
    gen_succr,
    identity_order,
    make_root,
    predicted_layer_count,
    predicted_layer_counts,
)


def test_basic_root_successors_square_star(square_star):
    g, q = square_star
    root = make_root(g, q)
    succ = basic_gen_succr(root, g, q, identity_order(g))
    assert len(succ) == q.n + 1  # every target plus the dummy
    targets = [s.pairs[-1][1] for s in succ]
    assert targets == [0, 1, 2, 3, None]


def test_basic_final_layer_single_leaf():
    g = build_graph(["A"], [])
    q = build_graph(["A", "B", "C"], [], g.table)
    root = make_root(g, q)
    node = basic_gen_succr(root, g, q, identity_order(g))[0]  # maps 0 -> 0
    (leaf,) = basic_gen_succr(node, g, q, identity_order(g))
    assert leaf.complete
    insertion_pairs = [p for p in leaf.pairs if p[0] is None]
    assert insertion_pairs == [(None, 1), (None, 2)]


def test_basic_tree_minimum_is_ged_square_star(square_star):
    g, q = square_star
    _, leaves = enumerate_search_tree(g, q, reduced=False)
    assert min(leaf.g for leaf in leaves) == 4
    assert len(leaves) == 209  # sum over k of C(4,k) * P(4,k)


def test_reduced_root_successors_square_star(square_star):
    g, q = square_star
    root = make_root(g, q)
    succ = gen_succr(root, g, q, vertex_partition(q), identity_order(g))
    assert [s.pairs[-1][1] for s in succ] == [0, 3]


def test_reduced_tree_square_star(square_star):
    g, q = square_star
    layer_counts, leaves = enumerate_search_tree(g, q, reduced=True)
    assert len(leaves) == 4
    assert min(leaf.g for leaf in leaves) == 4
    assert layer_counts == [1, 2, 3, 4, 4]


def test_equal_sizes_never_map_to_dummy(square_star):
    g, q = square_star
    assert g.n == q.n
    _, leaves = enumerate_search_tree(g, q, reduced=True)
    for leaf in leaves:
        assert all(s is not None and t is not None for s, t in leaf.pairs)


def test_determine_order_pendant_pair_example():
    g, _, _ = parse_pair(PENDANT_PAIR_TEXT)
    assert determine_order(g, "dfs") == (1, 3, 0, 2, 4)


def test_determine_order_edgeless_and_components():
    g = build_graph(["A", "B", "C"], [])
    assert determine_order(g, "dfs") == (0, 1, 2)
    two = build_graph(["A"] * 5, [(0, 1, "x"), (2, 3, "x"), (3, 4, "x")])
    order = determine_order(two, "dfs")
    assert sorted(order) == [0, 1, 2, 3, 4]


def recursive_order(g):
    """The recursive DFS that determine_order must reproduce."""
    rank = sorted(range(g.n), key=lambda u: (len(g.adjacency[u]), u))
    pos = {u: i for i, u in enumerate(rank)}
    seen = [False] * g.n
    order = []

    def dfs(u):
        order.append(u)
        seen[u] = True
        for v in sorted(g.adjacency[u], key=pos.__getitem__):
            if not seen[v]:
                dfs(v)

    for u in rank:
        if not seen[u]:
            dfs(u)
    return tuple(order)


def test_determine_order_matches_recursive_dfs():
    rng = random.Random(33)
    for _ in range(200):
        g, _ = random_pair(rng, max_n=12, min_n=0, densities=(0.1, 0.2, 0.3, 0.5, 0.8))
        assert determine_order(g, "dfs") == recursive_order(g)


def test_determine_order_long_path():
    n = 1500
    g = build_graph(["A"] * n, [(i, i + 1, "x") for i in range(n - 1)])
    assert determine_order(g, "dfs") == tuple(range(n))


def test_connected_order_pendant_pair_tie_breaks():
    # g: 0 A, 1 B, 2 A, 3 A, 4 C; edges 0-2, 0-3, 1-3, 2-4, 3-4.
    g, _, _ = parse_pair(PENDANT_PAIR_TEXT)
    # 3 has the highest degree (3). Its neighbours 0, 1 and 4 then have one
    # ordered neighbour each: 1 has degree 1 against 2, and 4 (C, one
    # vertex) is rarer than 0 (A, three). Then 0 and 2 tie on one ordered
    # neighbour, degree 2 and label A, and the lower id goes first. 2 now
    # has two ordered neighbours, and 1 comes last.
    assert connected_order(g) == (3, 4, 0, 2, 1)
    assert determine_order(g, "connected") == (3, 4, 0, 2, 1)


def _component_of(g):
    comp = list(range(g.n))

    def find(u):
        while comp[u] != u:
            comp[u] = comp[comp[u]]
            u = comp[u]
        return u

    for u, v, _ in g.edges:
        comp[find(u)] = find(v)
    return [find(u) for u in range(g.n)]


def reference_connected_order(g):
    """connected_order's rule, one full scan per step."""
    rarity = Counter(g.vertex_labels)
    order = []
    while len(order) < g.n:
        placed = set(order)
        order.append(max((u for u in range(g.n) if u not in placed),
                         key=lambda u: (sum(v in placed for v in g.adjacency[u]),
                                        len(g.adjacency[u]), -rarity[g.vertex_labels[u]], -u)))
    return tuple(order)


def test_connected_order_grows_each_component():
    rng = random.Random(34)
    for _ in range(200):
        g, _ = random_pair(rng, max_n=12, min_n=0, densities=(0.1, 0.2, 0.3, 0.5, 0.8))
        order = connected_order(g)
        assert sorted(order) == list(range(g.n))
        assert order == reference_connected_order(g)
        # Within each component every vertex after the first has a
        # neighbour placed earlier, and the components do not interleave.
        comp = _component_of(g)
        started, placed = [], set()
        for u in order:
            if comp[u] not in started:
                started.append(comp[u])
            else:
                assert comp[u] == started[-1]
                assert any(v in placed for v in g.adjacency[u])
            placed.add(u)


def test_order_policies():
    g, _, _ = parse_pair(PENDANT_PAIR_TEXT)
    assert determine_order(g, "default") == identity_order(g) == (0, 1, 2, 3, 4)
    assert determine_order(g, "dfs") == (1, 3, 0, 2, 4)
    with pytest.raises(ValueError, match="order policy"):
        determine_order(g, "random")
    # Only the default policy's order is kept on the graph.
    assert getattr(g, "_order", None) is None
    order = determine_order(g, "connected")
    assert determine_order(g, "connected") is order and g._order is order
    assert determine_order(g) is order
    assert determine_order(g, "dfs") == (1, 3, 0, 2, 4)


def test_default_order_is_the_kept_connected_order():
    rng = random.Random(37)
    for _ in range(20):
        g, _ = random_pair(rng, max_n=12, min_n=0)
        order = determine_order(g)
        assert order == connected_order(g)
        assert order is g._order is determine_order(g, DEFAULT_ORDER_POLICY) is determine_order(g)


def test_orders_match_references_beyond_twelve_vertices():
    rng = random.Random(38)
    seen = Counter()
    for density in (0.05, 0.1, 0.2, 0.3, 0.5):
        for _ in range(12):
            g, _ = random_pair(rng, max_n=40, min_n=13, densities=(density,))
            assert dfs_order(g) == recursive_order(g), (density, g)
            assert connected_order(g) == reference_connected_order(g), (density, g)
            seen["several components"] += len(set(_component_of(g))) > 1
            seen["over 30 vertices"] += g.n > 30
    assert min(seen.values()) > 0, seen


def test_orders_on_the_24_vertex_smoke_pair(tmp_path):
    # The pair that the installed-script smoke run inspects.
    out = tmp_path / "big.txt"
    assert main(["gen", str(out), "--count", "2", "--min-vertices", "24", "--max-vertices", "24",
                 "--vertex-labels", "30", "--seed", "1"]) == 0
    graphs, _ = parse_graph_db(out.read_text())
    assert [g.n for _, g in graphs] == [24, 24]
    for _, g in graphs:
        assert dfs_order(g) == recursive_order(g)
        assert connected_order(g) == reference_connected_order(g)


def test_connected_order_long_path():
    # Every inner vertex has degree 2, so the scan starts at vertex 1 and
    # walks the path up; the two ends tie, and the lower id goes first.
    n = 1500
    g = build_graph(["A"] * n, [(i, i + 1, "x") for i in range(n - 1)])
    assert connected_order(g) == (*range(1, n - 1), 0, n - 1)


@settings(max_examples=100, deadline=None)
@given(oracle_pairs())
def test_every_policy_finds_the_oracle_distance(pair):
    g, q = pair
    want = exhaustive_ged(g, q).distance
    for order in ORDER_POLICIES:
        for succ in ("basic", "reduced"):
            res = bss_ged(g, q, order_policy=order, succ_policy=succ)
            assert (res.status, res.distance) == (EXACT, want), (order, succ)


def test_predicted_layer_counts_square_star(square_star):
    g, q = square_star
    sizes = [len(c) for c in vertex_partition(q).classes]
    assert predicted_layer_count(0, g.n, q.n, sizes) == 1
    assert predicted_layer_count(4, g.n, q.n, sizes) == 4
    assert sum(predicted_layer_count(l, g.n, q.n, sizes) for l in range(g.n + 1)) == 14


def test_predicted_layer_counts_match_actual_trees():
    rng = random.Random(31)
    for _ in range(12):
        g, q = random_pair(rng, max_n=6)
        part = vertex_partition(q)
        sizes = [len(c) for c in part.classes]
        for order in (identity_order(g), determine_order(g, "dfs")):
            layer_counts, _ = enumerate_search_tree(g, q, reduced=True, order=order)
            predicted = [predicted_layer_count(l, g.n, q.n, sizes) for l in range(g.n + 1)]
            assert layer_counts == predicted


def test_predicted_layer_counts_match_brute_force():
    # Layer l holds one node per sequence of l symbols over the target
    # classes and the dummy, class i used at most |C_i| times and the dummy
    # at most max(0, n_g - n_q) times.
    rng = random.Random(36)
    for _ in range(150):
        n_q = rng.randint(0, 6)
        n_g = rng.randint(0, 8)
        sizes = []
        while sum(sizes) < n_q:
            sizes.append(rng.randint(1, n_q - sum(sizes)))
        caps = sizes + [max(0, n_g - n_q)]
        per_layer = []
        for l in range(min(n_g, 6) + 1):
            brute = sum(
                all(Counter(seq)[i] <= cap for i, cap in enumerate(caps))
                for seq in itertools.product(range(len(caps)), repeat=l)
            )
            assert predicted_layer_count(l, n_g, n_q, sizes) == brute, (l, n_g, n_q, sizes)
            per_layer.append(brute)
        assert predicted_layer_counts(len(per_layer) - 1, n_g, n_q, sizes) == per_layer


def test_predicted_layer_count_many_classes():
    # 1,200 singleton classes, more than Python's default recursion limit
    # of frames: layer 3 holds every ordered choice of three distinct targets.
    assert predicted_layer_count(3, 1200, 1200, [1] * 1200) == 1200 * 1199 * 1198


def test_predicted_layer_count_rejects_layer_out_of_range():
    for l in (-1, 5):
        for count in (predicted_layer_count, predicted_layer_counts):
            with pytest.raises(ValueError, match="out of range"):
                count(l, 4, 4, [2, 2])


def test_reduced_leaves_have_max_size_length():
    rng = random.Random(32)
    for _ in range(10):
        g, q = random_pair(rng, max_n=6)
        _, leaves = enumerate_search_tree(g, q, reduced=True)
        for leaf in leaves:
            assert len(leaf.pairs) == max(g.n, q.n)
            assert GraphMapping(leaf.pairs, g.n, q.n).is_complete()


def test_reduced_subset_of_basic_with_equal_minimum():
    rng = random.Random(33)
    for _ in range(10):
        g, q = random_pair(rng, max_n=5)
        _, basic_leaves = enumerate_search_tree(g, q, reduced=False)
        _, reduced_leaves = enumerate_search_tree(g, q, reduced=True)
        basic_costs = {leaf.g for leaf in basic_leaves}
        reduced_costs = {leaf.g for leaf in reduced_leaves}
        assert reduced_costs <= basic_costs
        assert min(reduced_costs) == min(basic_costs)
        assert len(reduced_leaves) <= len(basic_leaves)
        if len(vertex_partition(q).classes) < q.n:
            assert len(reduced_leaves) < len(basic_leaves)


def test_reduced_leaves_one_per_code_and_minimal():
    rng = random.Random(34)
    for _ in range(6):
        g, q = random_pair(rng, max_n=4)
        part = vertex_partition(q)
        _, reduced_leaves = enumerate_search_tree(g, q, reduced=True)
        leaf_maps = [GraphMapping(leaf.pairs, g.n, q.n) for leaf in reduced_leaves]
        codes = [canonical_code(psi, part) for psi in leaf_maps]
        assert len(codes) == len(set(codes))
        by_code = {}
        for psi in all_complete_mappings(g, q):
            by_code.setdefault(canonical_code(psi, part), []).append(psi)
        for psi, code in zip(leaf_maps, codes):
            group = by_code[code]
            assert all(code_compare(psi, other, part) <= 0 for other in group)


def test_reduced_leaf_costs_match_batch_formula():
    rng = random.Random(35)
    for _ in range(8):
        g, q = random_pair(rng, max_n=5)
        _, leaves = enumerate_search_tree(g, q, reduced=True)
        for leaf in leaves:
            assert leaf.g == edit_cost(GraphMapping(leaf.pairs, g.n, q.n), g, q).total


def test_successor_emission_order_is_deterministic(pendant_pair):
    g, q = pendant_pair
    part = vertex_partition(q)
    root = make_root(g, q)
    succ = gen_succr(root, g, q, part, identity_order(g))
    # Class-minimum targets in class-index order; no dummy since |G| < |Q|.
    expected = [members[0] for members in part.classes]
    assert [s.pairs[-1][1] for s in succ] == expected
    bigger = build_graph(["A"] * 3, [], g.table)
    smaller = build_graph(["A"], [], g.table)
    root2 = make_root(bigger, smaller)
    succ2 = gen_succr(root2, bigger, smaller, vertex_partition(smaller), identity_order(bigger))
    assert [s.pairs[-1][1] for s in succ2] == [0, None]


def test_empty_graph_edge_cases():
    empty = build_graph([], [])
    q = build_graph(["A", "B"], [(0, 1, "x")], empty.table)
    layer_counts, leaves = enumerate_search_tree(empty, q, reduced=True)
    assert layer_counts == [1]
    assert len(leaves) == 1
    assert leaves[0].g == q.n + q.m
    layer_counts2, leaves2 = enumerate_search_tree(q, empty, reduced=True)
    assert len(leaves2) == 1
    assert leaves2[0].g == q.n + q.m


def test_generators_leave_dead_successors_unbuilt(monkeypatch):
    # Given ub, a generator returns one slot per successor it generates
    # without ub: None where the child's f reaches ub, otherwise the same
    # node in the same order. The edit cost runs only for children whose
    # parent g plus own h stays below ub.
    rng = random.Random(24)
    calls = []
    exact_cost = successors.extension_cost

    def counting(adj_u, label_u, adj_z, label_z, parent_map, preimage):
        calls.append((adj_u, label_u, adj_z, label_z))
        return exact_cost(adj_u, label_u, adj_z, label_z, parent_map, preimage)

    def rows(g, q, u, z):
        """The arguments that identify the child (u, z) in a call."""
        if z is None:
            return (g.adjacency[u], g.vertex_labels[u], None, None)
        return (g.adjacency[u], g.vertex_labels[u], q.adjacency[z], q.vertex_labels[z])

    def fields(nodes):
        return [(n.pairs, n.g, n.h, n.complete) for n in nodes]

    monkeypatch.setattr(successors, "extension_cost", counting)
    seen = Counter()
    for _ in range(40):
        g, q = random_pair(rng, max_n=6)
        ged = bss_ged(g, q).distance
        heuristic = PairHeuristic(g, q)
        part = vertex_partition(q)
        order = determine_order(g, "dfs")
        for reduced in (True, False):
            def generate(node, ub=math.inf):
                calls.clear()
                if reduced:
                    return gen_succr(node, g, q, part, order, heuristic, ub)
                return basic_gen_succr(node, g, q, order, heuristic, ub)

            node = make_root(g, q, heuristic)
            while not node.complete:
                full = generate(node)
                fs = sorted({c.f for c in full})
                # Every child f, one above the largest, the parent's f, the
                # decision-mode bounds tau + 1 around the distance, and none.
                for ub in {*fs, fs[-1] + 1, node.f, ged, ged + 1, math.inf}:
                    kids = generate(node, ub)
                    assert len(kids) == len(full)
                    assert [k is None for k in kids] == [c.f >= ub for c in full]
                    assert fields(k for k in kids if k is not None) == fields(c for c in full if c.f < ub)
                    costed = [c for c in full if node.g + c.h < ub]
                    assert calls == [rows(g, q, *c.pairs[-1]) for c in costed if node.layer < g.n]
                    seen["live"] += sum(c.f < ub for c in full)
                    seen["costed, then dead"] += sum(c.f >= ub for c in costed)
                    seen["dead uncosted"] += len(full) - len(costed)
                node = rng.choice(full)
    assert min(seen.values()) > 0, seen
