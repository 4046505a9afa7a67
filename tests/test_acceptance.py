"""Acceptance suite: worked-example exactness plus the property sweeps.

Each criterion prints one PASS/FAIL line; run with -s to see them live.
"""

import itertools
import random
import time
from contextlib import contextmanager

import reference_bounds as reference
from conftest import SQUARE_STAR_TEXT, canonical_code, unmapped_parts
from gedkit.bounds import PairHeuristic, lb_graph
from gedkit.cli import main
from gedkit.engine import EXACT, bss_ged
from gedkit.graphs import LabelTable, vertex_partition
from gedkit.mapping import GraphMapping, edit_cost, realize_edit_path
from gedkit.oracle import check_edit_path, exhaustive_ged
from gedkit.simsearch import GraphDatabase, filter_candidates, range_query
from gedkit.successors import (
    determine_order,
    enumerate_search_tree,
    gen_succr,
    identity_order,
    make_root,
    predicted_layer_count,
)
from gedkit.synth import random_graph, random_graph_db

WIDTHS = (1, 2, 15, 50)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {desc}")


def test_criterion_01_square_star_distance(square_star, tmp_path):
    with criterion(1, "square/star example pair: dist = 4 for w in {1,2,15,50}, under 1 s each"):
        g, q = square_star
        db = tmp_path / "square_star.txt"
        db.write_text(SQUARE_STAR_TEXT)
        for w in WIDTHS:
            t0 = time.perf_counter()
            res = bss_ged(g, q, w)
            elapsed = time.perf_counter() - t0
            assert res.status == EXACT and res.distance == 4
            assert elapsed < 1.0
            assert main(["dist", str(db), "0", "1", "--beam", str(w), "--json"]) == 0


def test_criterion_02_worked_cost_examples(square_star):
    with criterion(2, "worked cost examples: (C_D,C_I,C_S)=(2,1,1); twin mappings cost 4, code <1,1,1,2>"):
        g, q = square_star
        psi = GraphMapping(((0, 0), (1, 1), (2, 2), (3, 3)), 4, 4)
        cost = edit_cost(psi, g, q)
        assert (cost.c_d, cost.c_i, cost.c_s) == (2, 1, 1)
        psi2 = GraphMapping(((0, 1), (1, 2), (2, 0), (3, 3)), 4, 4)
        part = vertex_partition(q)
        assert edit_cost(psi, g, q).total == edit_cost(psi2, g, q).total == 4
        assert canonical_code(psi, part) == canonical_code(psi2, part) == (1, 1, 1, 2)


def test_criterion_03_reduced_tree_shape(square_star):
    with criterion(3, "reduced tree on square/star example pair: 4 mappings, layer-1 targets {0,3}, N_4 = 4"):
        g, q = square_star
        part = vertex_partition(q)
        root = make_root(g, q)
        layer1 = gen_succr(root, g, q, part, identity_order(g))
        assert {s.pairs[-1][1] for s in layer1} == {0, 3}
        _, leaves = enumerate_search_tree(g, q, reduced=True)
        assert len(leaves) == 4
        sizes = [len(c) for c in part.classes]
        assert predicted_layer_count(4, g.n, q.n, sizes) == 4


def test_criterion_04_heuristic_example(pendant_pair):
    with criterion(4, "heuristic example: LB(G2,Q2)=2, LB1=2, LB2=2, LB3=3, h=3"):
        g, q = pendant_pair
        mapping = GraphMapping(((0, 0), (1, 1)), g.n, q.n)
        assert lb_graph(*unmapped_parts(mapping, g, q)) == 2
        lb1, lb2, lb3 = reference.remainder_bounds(mapping, g, q)
        assert (lb1, lb2, lb3) == (2, 2, 3)
        # The search bounds that node as the child (1, 1) of {0->0}.
        assert PairHeuristic(g, q).children({0: 0}, {0: 0}, 1, [1]) == [max(lb1, lb2, lb3)] == [3]


def test_criterion_05_processing_order(pendant_pair):
    with criterion(5, "ordering example: DFS order on the pendant pair source is (1,3,0,2,4)"):
        g, _ = pendant_pair
        assert determine_order(g, "dfs") == (1, 3, 0, 2, 4)


def test_criterion_06_oracle_equivalence_sweep(sweep):
    with criterion(6, f"oracle equivalence: {len(sweep)} pairs x w in {WIDTHS}, under 5 min"):
        assert len(sweep) >= 200
        t0 = time.perf_counter()
        for pair in sweep:
            for w in WIDTHS:
                res = bss_ged(pair.g, pair.q, w)
                assert res.status == EXACT
                assert res.distance == pair.oracle.distance
        engine_seconds = time.perf_counter() - t0
        assert sweep.oracle_seconds + engine_seconds < 300


def test_criterion_07_bound_soundness(sweep):
    with criterion(7, "bounds: LB <= ged on all pairs; g+h admissible on full trees (<=5 vertices)"):
        for pair in sweep:
            assert lb_graph(pair.g, pair.q) <= pair.oracle.distance

        def best_completion(node, g, q, part, order, heuristic):
            if node.complete:
                return node.g
            best = min(
                best_completion(s, g, q, part, order, heuristic)
                for s in gen_succr(node, g, q, part, order, heuristic)
            )
            assert node.g + node.h <= best
            return best

        checked = 0
        for pair in sweep:
            if pair.g.n > 5 or pair.q.n > 5:
                continue
            part = vertex_partition(pair.q)
            heuristic = PairHeuristic(pair.g, pair.q)
            root = make_root(pair.g, pair.q, heuristic)
            assert best_completion(root, pair.g, pair.q, part,
                                   identity_order(pair.g), heuristic) == pair.oracle.distance
            checked += 1
        assert checked >= 20


def test_criterion_08_reduction_properties(sweep):
    with criterion(8, "reduction: fewer leaves, equal minima, unique codes, layer counts = predictions"):
        for pair in sweep:
            g, q = pair.g, pair.q
            part = vertex_partition(q)
            layer_counts, leaves = enumerate_search_tree(g, q, reduced=True)
            basic_leaf_count = pair.oracle.mappings_enumerated
            assert len(leaves) <= basic_leaf_count
            assert min(leaf.g for leaf in leaves) == pair.oracle.distance
            if len(part.classes) < q.n:
                assert len(leaves) < basic_leaf_count
            codes = [canonical_code(GraphMapping(leaf.pairs, g.n, q.n), part) for leaf in leaves]
            assert len(codes) == len(set(codes))
            sizes = [len(c) for c in part.classes]
            predicted = [predicted_layer_count(l, g.n, q.n, sizes) for l in range(g.n + 1)]
            assert layer_counts == predicted


def test_criterion_09_search_engine_properties(sweep):
    with criterion(9, "engine: ub non-increasing, visits <= |V_Q|+3, symmetric, triangle inequality"):
        for pair in sweep:
            res = bss_ged(pair.g, pair.q, 1)
            hist = res.stats.ub_history
            assert all(a > b for a, b in zip(hist, hist[1:]))
            assert res.stats.max_visits <= pair.q.n + 3
            assert bss_ged(pair.q, pair.g, 15).distance == pair.oracle.distance

        rng = random.Random(77)
        table = LabelTable()
        graphs = [
            random_graph(rng, rng.randint(2, 5), rng.choice((0.2, 0.5, 0.8)),
                         rng.choice((1, 2, 5)), rng.choice((1, 2, 5)), table)
            for _ in range(12)
        ]
        triples = list(itertools.combinations(range(len(graphs)), 3))[:50]
        assert len(triples) >= 50
        dist = {}

        def d(i, j):
            key = (min(i, j), max(i, j))
            if key not in dist:
                dist[key] = exhaustive_ged(graphs[key[0]], graphs[key[1]]).distance
            return dist[key]

        for a, b, c in triples:
            assert d(a, c) <= d(a, b) + d(b, c)


def test_criterion_10_similarity_search():
    with criterion(10, "similarity search: match sets equal oracle scan for tau in 0..4, under 5 min"):
        t0 = time.perf_counter()
        entries, table = random_graph_db(
            seed=31415, count=100, n_min=2, n_max=7, density=0.5,
            n_vertex_labels=4, n_edge_labels=2,
        )
        db = GraphDatabase.from_graphs(entries, table)
        rng = random.Random(27182)
        query = random_graph(rng, 5, 0.5, 4, 2, table)
        truth = {gid: exhaustive_ged(g, query).distance for gid, g in db.graphs.items()}
        previous = set()
        for tau in range(5):
            res = range_query(db, query, tau)
            got = {m.graph_id for m in res.matches}
            want = {gid for gid, dd in truth.items() if dd <= tau}
            assert got == want
            assert not res.unknowns
            filtered = set(db.ids) - set(filter_candidates(db, query, tau))
            assert filtered.isdisjoint(want)
            assert previous <= got
            previous = got
        assert time.perf_counter() - t0 < 300


def test_criterion_11_edit_path_realization(sweep):
    with criterion(11, "edit paths: realization length = ged and the path verifies, all sweep pairs"):
        for pair in sweep:
            ops = realize_edit_path(pair.oracle.mapping, pair.g, pair.q)
            assert len(ops) == pair.oracle.distance
            assert check_edit_path(pair.g, pair.q, ops, pair.oracle.mapping)
