import inspect
import random
import time
from fractions import Fraction

import pytest

from conftest import build_graph, random_pair
from gedkit.engine import (
    ABOVE_BOUND,
    BUDGET_EXHAUSTED,
    EXACT,
    WITHIN_THRESHOLD,
    SearchRun,
    bss_ged,
    check_search_args,
    searches_from_q,
)
from gedkit import successors
from gedkit.bounds import lb_from_branches, vertex_branches
from gedkit.graphs import LabelTable
from gedkit.mapping import descend_assignment, edit_cost, realize_edit_path
from gedkit.oracle import check_edit_path
from gedkit.synth import random_graph_db

WIDTHS = (1, 2, 15, 50)


def test_square_star_all_widths_under_a_second(square_star):
    g, q = square_star
    for w in WIDTHS:
        t0 = time.perf_counter()
        res = bss_ged(g, q, w)
        assert res.status == EXACT and res.distance == 4
        assert time.perf_counter() - t0 < 1.0


def test_self_distance_zero():
    rng = random.Random(61)
    for _ in range(6):
        g, _ = random_pair(rng, max_n=8)
        res = bss_ged(g, g, 15)
        assert res.distance == 0


def test_oracle_equivalence_all_widths(small_sweep):
    for pair in small_sweep:
        for w in WIDTHS:
            res = bss_ged(pair.g, pair.q, w)
            assert res.status == EXACT
            assert res.distance == pair.oracle.distance, (
                f"w={w}: got {res.distance}, oracle {pair.oracle.distance}"
            )


def test_policies_do_not_change_the_answer(small_sweep):
    for pair in small_sweep[:20]:
        want = pair.oracle.distance
        for order in ("default", "dfs"):
            for succ in ("basic", "reduced"):
                assert bss_ged(pair.g, pair.q, 2, order_policy=order,
                               succ_policy=succ).distance == want


def test_ub_history_non_increasing(small_sweep):
    for pair in small_sweep:
        res = bss_ged(pair.g, pair.q, 1)
        hist = res.stats.ub_history
        assert all(a > b for a, b in zip(hist, hist[1:]))
        if hist:
            assert hist[-1] == res.distance


def test_visit_counts_bounded(small_sweep):
    for pair in small_sweep:
        for w in (1, 2):
            res = bss_ged(pair.g, pair.q, w)
            assert res.stats.max_visits <= pair.q.n + 3


def test_symmetry(small_sweep):
    for pair in small_sweep[:30]:
        assert bss_ged(pair.g, pair.q, 15).distance == bss_ged(pair.q, pair.g, 15).distance


def test_exact_run_searches_from_the_smaller_graph():
    # A default exact run on a pair of unequal size runs SearchRun from the
    # smaller graph, and still reports a mapping from g onto q. Decision
    # runs and the paper's orders search from g as called, as
    # searches_from_q says.
    entries, _ = random_graph_db(11, 20, 8, 10, 0.3, 5, 2)
    graphs = dict(entries)
    pairs = [(graphs[a], graphs[b]) for a in range(0, 20, 3) for b in range(1, 20, 4)]
    pairs = [(g, q) for g, q in pairs if g.n != q.n]
    assert sum(g.n > q.n for g, q in pairs) >= 5 and sum(g.n < q.n for g, q in pairs) >= 5
    for g, q in pairs:
        res = bss_ged(g, q)
        psi = res.mapping
        assert psi.is_complete() and (psi.n_source, psi.n_target) == (g.n, q.n)
        assert edit_cost(psi, g, q).total == res.distance
        assert check_edit_path(g, q, realize_edit_path(psi, g, q), psi)
        assert bss_ged(q, g).distance == res.distance
        small, large = (q, g) if q.n < g.n else (g, q)
        alone = SearchRun(small, large).run()
        assert (alone.distance, alone.stats) == (res.distance, res.stats)
        assert searches_from_q(g, q) == (q.n < g.n)
        for kw in ({"order_policy": "dfs"}, {"order_policy": "default"}, {"threshold": res.distance}):
            assert not searches_from_q(g, q, **kw)
            assert bss_ged(g, q, **kw).stats == SearchRun(g, q, **kw).run().stats


def test_empty_graphs():
    table = LabelTable()
    empty = build_graph([], [], table)
    g = build_graph(["A", "B"], [(0, 1, "x")], table)
    assert bss_ged(empty, empty, 1).distance == 0
    assert bss_ged(empty, g, 1).distance == 3
    assert bss_ged(g, empty, 1).distance == 3


def _check_stack(run):
    for i, entry in enumerate(run.bs):
        assert 0 <= entry.f_min <= entry.f_max
        assert len(entry.nodes) <= run.w
        assert all(n.layer == i for n in entry.nodes)


def test_interval_discipline_stepped(square_star):
    g, q = square_star
    run = SearchRun(g, q, 1)
    passes = 0
    while run.bs:
        run.search_pass()
        passes += 1
        _check_stack(run)
        if not run.backtrack():
            break
        _check_stack(run)
        assert run.bs[-1].f_max == run.ub
    assert run.ub == 4
    assert passes == run.stats.passes
    assert run.bs == []
    run = SearchRun(g, q, 2)
    assert run.run().distance == 4
    assert run.bs == []


def test_w1_expands_at_most_one_node_per_layer_per_pass(pendant_pair):
    g, q = pendant_pair
    res = bss_ged(g, q, 1)
    assert res.status == EXACT
    # Each pass walks down at most one node per layer.
    assert res.stats.nodes_expanded <= res.stats.passes * (g.n + 2)


def test_first_pass_w2_reaches_optimal_ub(square_star):
    g, q = square_star
    res = bss_ged(g, q, 2)
    assert res.stats.ub_history[0] == 4


def test_budget_exhaustion():
    rng = random.Random(62)
    table = LabelTable()
    g, _ = random_pair(rng, max_n=7, min_n=7, table=table)
    q, _ = random_pair(rng, max_n=7, min_n=7, table=table)
    res = bss_ged(g, q, 50, node_budget=5)
    assert res.status == BUDGET_EXHAUSTED
    assert res.reason == "nodes"
    assert res.distance is None
    exact = bss_ged(g, q, 50)
    assert exact.status == EXACT
    assert exact.reason is None
    if res.upper_bound is not None:
        assert res.upper_bound >= exact.distance


def test_time_limit():
    rng = random.Random(63)
    table = LabelTable()
    g, _ = random_pair(rng, max_n=8, min_n=8, table=table)
    q, _ = random_pair(rng, max_n=8, min_n=8, table=table)
    res = bss_ged(g, q, 50, time_limit=0.0)
    assert res.status == BUDGET_EXHAUSTED
    assert res.reason == "time"
    # The exact seed still gives the bound and its mapping, but its descent
    # stops at the deadline before its first swap: the bound is the branch
    # assignment's cost (15), above the descended seed (12) and ged (11).
    assert res.stats.ub_history == [res.upper_bound] == [15]
    assert edit_cost(res.mapping, g, q).total == res.upper_bound
    assert bss_ged(g, q, 50).stats.ub_history[0] == 12
    # At 40 vertices one descent sweep alone scores 780 swaps.
    entries, _ = random_graph_db(5, 2, 40, 40, 0.3, 5, 2)
    g, q = dict(entries)[0], dict(entries)[1]
    t0 = time.perf_counter()
    res = bss_ged(g, q, time_limit=0.05)
    assert time.perf_counter() - t0 < 1.0
    assert (res.status, res.reason) == (BUDGET_EXHAUSTED, "time")
    assert edit_cost(res.mapping, g, q).total == res.upper_bound


def test_initial_ub_modes(square_star):
    g, q = square_star  # ged = 4
    res = bss_ged(g, q, 15, threshold=3)
    assert res.status == ABOVE_BOUND and res.distance is None
    res = bss_ged(g, q, 15)
    assert res.status == EXACT and res.distance == 4
    res = bss_ged(g, q, 15, threshold=4)
    assert res.status == WITHIN_THRESHOLD and res.upper_bound <= 4


def test_capped_runs_match_oracle_decision(small_sweep):
    for pair in small_sweep[:25]:
        want = pair.oracle.distance
        for tau in range(0, 5):
            res = bss_ged(pair.g, pair.q, 15, threshold=tau)
            if want <= tau:
                assert res.status == WITHIN_THRESHOLD and res.upper_bound <= tau
            else:
                assert res.status == ABOVE_BOUND


def test_result_mapping_certifies_distance(small_sweep):
    for pair in small_sweep:
        res = bss_ged(pair.g, pair.q, 2)
        psi = res.mapping
        assert psi.is_complete() and (psi.n_source, psi.n_target) == (pair.g.n, pair.q.n)
        assert edit_cost(psi, pair.g, pair.q).total == res.distance == pair.oracle.distance
        assert check_edit_path(pair.g, pair.q, realize_edit_path(psi, pair.g, pair.q), psi)


def test_decision_mapping_within_threshold(small_sweep):
    seen = set()
    for pair in small_sweep[:25]:
        for tau in range(0, 5):
            res = bss_ged(pair.g, pair.q, 15, threshold=tau)
            seen.add(res.status)
            if res.status == WITHIN_THRESHOLD:
                assert res.mapping.is_complete()
                assert edit_cost(res.mapping, pair.g, pair.q).total == res.upper_bound <= tau
            else:
                assert res.mapping is None
    assert seen == {WITHIN_THRESHOLD, ABOVE_BOUND}


def test_budget_exhausted_keeps_the_best_mapping():
    entries, _ = random_graph_db(11, 20, 8, 10, 0.3, 5, 2)
    g, q = dict(entries)[0], dict(entries)[1]
    res = bss_ged(g, q, 1, order_policy="dfs", node_budget=400)
    assert res.status == BUDGET_EXHAUSTED and res.stats.ub_history == [14, 13]
    assert edit_cost(res.mapping, g, q).total == res.upper_bound == res.stats.ub_history[-1]
    # Before any leaf is accepted the run still holds its seed.
    res = bss_ged(g, q, 1, order_policy="dfs", node_budget=5)
    assert res.status == BUDGET_EXHAUSTED and res.stats.ub_history == [14]
    assert edit_cost(res.mapping, g, q).total == res.upper_bound == 14


def test_budget_exhausted_keeps_the_best_mapping_default_order():
    # The default order reaches the same improved leaf later in its tree.
    entries, _ = random_graph_db(11, 20, 8, 10, 0.3, 5, 2)
    g, q = dict(entries)[0], dict(entries)[1]
    res = bss_ged(g, q, 1, node_budget=400)
    assert res.status == BUDGET_EXHAUSTED and res.stats.ub_history == [14]
    res = bss_ged(g, q, 1, node_budget=500)
    assert res.status == BUDGET_EXHAUSTED and res.stats.ub_history == [14, 13]
    assert edit_cost(res.mapping, g, q).total == res.upper_bound == 13


def test_leaf_with_wrong_g_is_refused(square_star, monkeypatch):
    # A successor generator that overcharges one operation per step yields
    # leaves whose g disagrees with their mapping's edit cost. An exact run
    # on this pair starts at ged and accepts no leaf, so the check runs in
    # decision mode, where a threshold at the trivial bound admits any leaf.
    g, q = square_star
    tau = g.n + q.n + g.m + q.m
    assert bss_ged(g, q).stats.ub_history == [4]
    assert bss_ged(g, q, threshold=tau).stats.ub_history != []
    exact = successors.extension_cost
    monkeypatch.setattr(successors, "extension_cost", lambda *args: exact(*args) + 1)
    with pytest.raises(RuntimeError, match="mapping costs"):
        bss_ged(g, q, threshold=tau)


def test_negative_threshold_rejected(square_star):
    g, q = square_star
    # A bool is not a threshold, although True == 1 and False == 0.
    for tau in (-1, 1.5, True, False):
        with pytest.raises(ValueError, match="threshold"):
            bss_ged(g, q, threshold=tau)
        with pytest.raises(ValueError, match="threshold"):
            SearchRun(g, q, threshold=tau)
    # A NaN upper bound accepts no leaf, so a run would never end: only
    # construct it.
    with pytest.raises(ValueError, match="threshold"):
        SearchRun(g, q, threshold=float("nan"))


# Decision-mode runs on the PINNED_TREES graphs under the paper's dfs order,
# recorded from the wrapper that started the engine at upper bound tau + 1
# with a stop at tau: (source id, target id, beam width, tau, node budget or
# None) -> (status, upper_bound, reason, nodes_expanded, nodes_generated,
# passes, backtracks, ub_history).
PINNED_DECISIONS = {
    (0, 1, 1, 12, None): (ABOVE_BOUND, None, None, 272, 1030, 106, 273, []),
    (0, 1, 1, 13, None): (WITHIN_THRESHOLD, 13, None, 101, 350, 32, 92, [13]),
    (0, 1, 5, 13, 150): (BUDGET_EXHAUSTED, None, "nodes", 24, 152, 1, 0, []),
    (0, 1, 5, 15, None): (WITHIN_THRESHOLD, 15, None, 40, 188, 1, 0, [15]),
    (2, 3, 1, 11, 150): (BUDGET_EXHAUSTED, None, "nodes", 39, 156, 14, 36, []),
    (2, 3, 5, 11, None): (ABOVE_BOUND, None, None, 307, 1209, 24, 89, []),
    (2, 3, 5, 12, None): (WITHIN_THRESHOLD, 12, None, 150, 546, 10, 29, [12]),
    (2, 3, 5, 14, None): (WITHIN_THRESHOLD, 13, None, 41, 190, 1, 0, [13]),
    (4, 5, 1, 11, None): (ABOVE_BOUND, None, None, 1, 11, 1, 2, []),
    (4, 5, 1, 14, None): (WITHIN_THRESHOLD, 14, None, 66, 317, 22, 57, [14]),
    (4, 5, 5, 13, 150): (BUDGET_EXHAUSTED, None, "nodes", 24, 151, 2, 3, []),
    (10, 11, 1, 11, None): (ABOVE_BOUND, None, None, 243, 939, 90, 244, []),
    (10, 11, 1, 12, 150): (WITHIN_THRESHOLD, 12, None, 24, 89, 7, 15, [12]),
    (10, 11, 5, 14, None): (WITHIN_THRESHOLD, 12, None, 41, 190, 1, 0, [12]),
    (14, 15, 1, 9, 150): (ABOVE_BOUND, None, None, 16, 65, 8, 17, []),
    (14, 15, 5, 11, 150): (BUDGET_EXHAUSTED, None, "nodes", 38, 154, 3, 9, []),
    (14, 15, 5, 12, None): (WITHIN_THRESHOLD, 12, None, 30, 140, 1, 0, [12]),
    (16, 17, 1, 9, 150): (BUDGET_EXHAUSTED, None, "nodes", 40, 157, 15, 38, []),
    (16, 17, 5, 7, None): (ABOVE_BOUND, None, None, 7, 49, 1, 4, []),
    (16, 17, 5, 12, None): (WITHIN_THRESHOLD, 10, None, 33, 144, 1, 0, [10]),
}
# The same runs under the default (connected) order. Decision runs search
# from the first argument as called, so only the order differs.
PINNED_DECISIONS_CONNECTED = {
    (0, 1, 1, 12, None): (ABOVE_BOUND, None, None, 981, 3465, 330, 982, []),
    (0, 1, 1, 13, None): (WITHIN_THRESHOLD, 13, None, 127, 404, 38, 118, [13]),
    (0, 1, 5, 13, 150): (BUDGET_EXHAUSTED, None, "nodes", 24, 152, 1, 0, []),
    (0, 1, 5, 15, None): (WITHIN_THRESHOLD, 14, None, 41, 190, 1, 0, [14]),
    (2, 3, 1, 11, 150): (BUDGET_EXHAUSTED, None, "nodes", 39, 155, 15, 35, []),
    (2, 3, 5, 11, None): (ABOVE_BOUND, None, None, 95, 392, 8, 24, []),
    (2, 3, 5, 12, None): (WITHIN_THRESHOLD, 12, None, 39, 185, 1, 0, [12]),
    (2, 3, 5, 14, None): (WITHIN_THRESHOLD, 12, None, 41, 190, 1, 0, [12]),
    (4, 5, 1, 11, None): (ABOVE_BOUND, None, None, 1, 11, 1, 2, []),
    (4, 5, 1, 14, None): (WITHIN_THRESHOLD, 14, None, 20, 111, 5, 11, [14]),
    (4, 5, 5, 13, 150): (ABOVE_BOUND, None, None, 4, 37, 1, 4, []),
    (10, 11, 1, 11, None): (ABOVE_BOUND, None, None, 25, 122, 9, 26, []),
    (10, 11, 1, 12, 150): (WITHIN_THRESHOLD, 12, None, 12, 57, 2, 3, [12]),
    (10, 11, 5, 14, None): (WITHIN_THRESHOLD, 12, None, 41, 190, 1, 0, [12]),
    (14, 15, 1, 9, 150): (ABOVE_BOUND, None, None, 4, 23, 2, 5, []),
    (14, 15, 5, 11, 150): (BUDGET_EXHAUSTED, None, "nodes", 33, 152, 3, 6, []),
    (14, 15, 5, 12, None): (WITHIN_THRESHOLD, 12, None, 33, 138, 1, 0, [12]),
    (16, 17, 1, 9, 150): (ABOVE_BOUND, None, None, 42, 149, 16, 43, []),
    (16, 17, 5, 7, None): (ABOVE_BOUND, None, None, 6, 39, 1, 5, []),
    (16, 17, 5, 12, None): (WITHIN_THRESHOLD, 10, None, 36, 149, 1, 0, [10]),
}


def _check_decisions(pins, **order):
    entries, _ = random_graph_db(11, 20, 8, 10, 0.3, 5, 2)
    graphs = dict(entries)
    for (a, b, w, tau, budget), want in pins.items():
        budget_kw = {} if budget is None else {"node_budget": budget}
        res = bss_ged(graphs[a], graphs[b], w, threshold=tau, **order, **budget_kw)
        s = res.stats
        got = (res.status, res.upper_bound, res.reason, s.nodes_expanded, s.nodes_generated,
               s.passes, s.backtracks, s.ub_history)
        assert got == want, (a, b, w, tau, budget)
        assert res.distance is None


def test_decision_mode_pinned():
    _check_decisions(PINNED_DECISIONS, order_policy="dfs")


def test_decision_mode_pinned_default_order():
    _check_decisions(PINNED_DECISIONS_CONNECTED)


def test_rejects_bad_arguments(square_star):
    g, q = square_star
    for w in (0, 1.5, float("nan"), True):
        with pytest.raises(ValueError, match="beam width"):
            bss_ged(g, q, w)
    with pytest.raises(ValueError):
        bss_ged(g, q, 1, order_policy="random")
    with pytest.raises(ValueError):
        bss_ged(g, q, 1, succ_policy="edges")
    other = build_graph(["A"], [], LabelTable())
    with pytest.raises(ValueError):
        bss_ged(g, other, 1)


def test_rejects_bad_budgets(square_star):
    g, q = square_star
    for budget in (0, -5, 2.5, float("nan"), True):
        with pytest.raises(ValueError, match="node budget"):
            bss_ged(g, q, node_budget=budget)
    for limit in (-1, float("nan")):
        with pytest.raises(ValueError, match="time limit"):
            SearchRun(g, q, time_limit=limit)
    assert bss_ged(g, q, node_budget=1).reason == "nodes"


def test_search_run_alone_declares_the_options(square_star):
    # bss_ged forwards succ_policy, node_budget and time_limit to
    # SearchRun, which declares and checks them; forwarding swallows no
    # unknown keyword.
    forwarded = {"succ_policy", "node_budget", "time_limit"}
    assert not forwarded & set(inspect.signature(bss_ged).parameters)
    assert forwarded <= set(inspect.signature(SearchRun).parameters)
    g, q = square_star
    with pytest.raises(TypeError):
        bss_ged(g, q, bogus=1)
    # The run keeps its successor policy only as its partition.
    assert not hasattr(SearchRun(g, q), "succ_policy")
    assert SearchRun(g, q, succ_policy="basic").part is None
    assert SearchRun(g, q).part is not None


def test_time_limit_must_be_a_number(square_star):
    # True would run as a 1-second limit and "5" would fail a comparison
    # with TypeError; both are refused as bad arguments, like a bool count.
    g, q = square_star
    for limit in (True, False, "5", [1]):
        with pytest.raises(ValueError, match="time limit"):
            SearchRun(g, q, time_limit=limit)
        with pytest.raises(ValueError, match="time limit"):
            check_search_args(time_limit=limit)
    for limit in (0, 2, 0.5, Fraction(1, 2)):
        check_search_args(time_limit=limit)
    assert bss_ged(g, q, time_limit=Fraction(60)).distance == 4


def test_node_budget_counts_generated_nodes():
    # The budget bounds generated nodes, dead-on-arrival children included,
    # and is checked after each expansion: an exhausted run stops past it by
    # at most one expansion's children (every target plus the dummy), and a
    # finished run stays within it. A default exact run searches from the
    # smaller graph, so its targets are the larger graph's vertices.
    rng = random.Random(64)
    seen = {"exhausted": 0, "finished": 0}
    for _ in range(40):
        g, q = random_pair(rng, max_n=7)
        for budget in (1, 5, 20, 100):
            for succ_policy in ("reduced", "basic"):
                res = bss_ged(g, q, 5, node_budget=budget, succ_policy=succ_policy)
                generated = res.stats.nodes_generated
                if res.status == BUDGET_EXHAUSTED:
                    assert res.reason == "nodes"
                    assert budget < generated <= budget + max(g.n, q.n) + 1
                    seen["exhausted"] += 1
                else:
                    assert res.status == EXACT
                    assert generated <= budget
                    seen["finished"] += 1
    assert min(seen.values()) > 0, seen


def test_stats_shapes(square_star):
    g, q = square_star
    res = bss_ged(g, q, 15)
    s = res.stats
    assert s.nodes_generated >= s.nodes_expanded >= 1
    assert s.passes >= 1 and s.backtracks >= 1
    assert s.max_open >= 1
    assert 1 <= s.max_visits <= s.nodes_expanded


# (source id, target id, beam width) -> (distance, nodes_expanded,
# nodes_generated, ub_history, passes, backtracks) under the paper's dfs
# order, recorded with the Counter-based bounds that reference_bounds.py
# keeps and an exact run that starts at the descended branch assignment,
# ub_history[0]. A bound or seed change that alters the search tree changes
# these numbers.
PINNED_TREES = {
    (0, 1, 1): (13, 318, 1176, [14, 13], 117, 319),
    (2, 3, 5): (12, 395, 1443, [15, 13, 12], 29, 110),
    (4, 5, 15): (14, 109, 587, [17, 14], 1, 10),
    (6, 7, 1): (16, 5212, 18445, [16], 2027, 5213),
    (8, 9, 5): (16, 1568, 6323, [17, 16], 122, 437),
    (10, 11, 15): (12, 202, 939, [12], 6, 23),
    (12, 13, 1): (16, 2761, 10394, [17, 16], 1002, 2762),
    (14, 15, 5): (12, 111, 423, [12], 7, 35),
    (16, 17, 15): (10, 27, 163, [10], 1, 6),
    (18, 19, 1): (15, 1341, 5422, [16, 15], 518, 1342),
}
# The same runs under the default (connected) order. No source here has
# more vertices than its target, so every run searches from the first
# argument, as under dfs.
PINNED_TREES_CONNECTED = {
    (0, 1, 1): (13, 1047, 3642, [14, 13], 350, 1048),
    (2, 3, 5): (12, 116, 447, [15, 12], 8, 28),
    (4, 5, 15): (14, 105, 526, [17, 14], 1, 10),
    (6, 7, 1): (16, 1035, 4323, [16], 390, 1036),
    (8, 9, 5): (16, 1272, 5145, [17, 16], 96, 331),
    (10, 11, 15): (12, 17, 122, [12], 1, 6),
    (12, 13, 1): (16, 122, 540, [17, 16], 43, 123),
    (14, 15, 5): (12, 36, 166, [12], 3, 12),
    (16, 17, 15): (10, 27, 149, [10], 1, 8),
    (18, 19, 1): (15, 1216, 4746, [16, 15], 427, 1217),
}


def _tree(res):
    s = res.stats
    return (res.distance, s.nodes_expanded, s.nodes_generated, s.ub_history, s.passes, s.backtracks)


def _check_trees(pins, **order):
    entries, _ = random_graph_db(11, 20, 8, 10, 0.3, 5, 2)
    graphs = dict(entries)
    for (a, b, w), want in pins.items():
        g, q = graphs[a], graphs[b]
        res = bss_ged(g, q, w, **order)
        assert _tree(res) == want, (a, b, w)
        _, assignment = lb_from_branches(vertex_branches(g), vertex_branches(q))
        assert res.stats.ub_history[0] == descend_assignment(assignment, g, q)[0]


def test_search_tree_pinned():
    _check_trees(PINNED_TREES, order_policy="dfs")


def test_search_tree_pinned_default_order():
    _check_trees(PINNED_TREES_CONNECTED)


def _check_interleaved(pins, **order):
    # Every node takes its id from one shared counter, so two runs advanced
    # pass by pass in turn draw interleaved ids. Each must still build the
    # tree it builds alone.
    entries, _ = random_graph_db(11, 20, 8, 10, 0.3, 5, 2)
    graphs = dict(entries)
    keys = [(0, 1, 1), (2, 3, 5)]
    runs = [SearchRun(graphs[a], graphs[b], w, **order) for a, b, w in keys]
    live = list(runs)
    while live:
        for run in list(live):
            run.search_pass()
            if not run.backtrack():
                live.remove(run)
    for (a, b, w), run in zip(keys, runs):
        alone = bss_ged(graphs[a], graphs[b], w, **order)
        assert (run.ub, run.stats) == (alone.distance, alone.stats), (a, b, w)
        assert run.stats.ub_history == pins[a, b, w][3]


def test_interleaved_runs_match_solo_runs():
    _check_interleaved(PINNED_TREES, order_policy="dfs")


def test_interleaved_runs_match_solo_runs_default_order():
    _check_interleaved(PINNED_TREES_CONNECTED)


# The same pairs under the other two policies, recorded before the basic and
# reduced generators shared one body and re-recorded with the seeded start:
# (policy keywords, source id, target id, beam width) -> the fields of
# PINNED_TREES. "basic" is basic successors in dfs order, "default" reduced
# successors in identity order.
PINNED_POLICY_TREES = {
    ("basic", 0, 1, 1): (13, 776, 3445, [14, 13], 280, 777),
    ("basic", 2, 3, 5): (12, 430, 1887, [15, 13, 12], 31, 117),
    ("basic", 4, 5, 15): (14, 110, 692, [17, 14], 1, 10),
    ("basic", 14, 15, 5): (12, 138, 637, [12], 9, 41),
    ("default", 0, 1, 1): (13, 1395, 4680, [14, 13], 478, 1396),
    ("default", 2, 3, 5): (12, 261, 876, [15, 12], 20, 65),
    ("default", 4, 5, 15): (14, 810, 3278, [17, 16, 15, 14], 21, 77),
    ("default", 14, 15, 5): (12, 73, 281, [12], 6, 26),
}
POLICY_KEYWORDS = {
    "basic": {"succ_policy": "basic", "order_policy": "dfs"},
    "default": {"order_policy": "default"},
    "connected basic": {"succ_policy": "basic"},
}
# Basic successors in the default (connected) order. The identity order
# has no size rule, so its pins above hold under either default.
PINNED_POLICY_TREES_CONNECTED = {
    ("connected basic", 0, 1, 1): (13, 1063, 4414, [14, 13], 357, 1064),
    ("connected basic", 2, 3, 5): (12, 121, 531, [15, 12], 9, 30),
    ("connected basic", 4, 5, 15): (14, 105, 616, [17, 14], 1, 10),
    ("connected basic", 14, 15, 5): (12, 36, 194, [12], 3, 12),
}


def _check_policy_trees(pins):
    entries, _ = random_graph_db(11, 20, 8, 10, 0.3, 5, 2)
    graphs = dict(entries)
    for (policy, a, b, w), want in pins.items():
        res = bss_ged(graphs[a], graphs[b], w, **POLICY_KEYWORDS[policy])
        assert _tree(res) == want, (policy, a, b, w)


def test_search_tree_pinned_other_policies():
    _check_policy_trees(PINNED_POLICY_TREES)


def test_search_tree_pinned_other_policies_default_order():
    _check_policy_trees(PINNED_POLICY_TREES_CONNECTED)


# The most expansions of any one node in each pinned run, recorded with the
# per-node-id visit Counter that max_visits replaced. Keys without a policy
# are PINNED_TREES runs, in dfs order.
PINNED_MAX_VISITS = {
    (0, 1, 1): 9, (2, 3, 5): 8, (4, 5, 15): 1, (6, 7, 1): 10, (8, 9, 5): 8,
    (10, 11, 15): 4, (12, 13, 1): 10, (14, 15, 5): 3, (16, 17, 15): 1, (18, 19, 1): 10,
    ("basic", 0, 1, 1): 10, ("basic", 2, 3, 5): 8, ("basic", 4, 5, 15): 1,
    ("basic", 14, 15, 5): 3, ("default", 0, 1, 1): 9, ("default", 2, 3, 5): 5,
    ("default", 4, 5, 15): 5, ("default", 14, 15, 5): 3,
}
# The same under the default order: PINNED_TREES_CONNECTED runs (keys
# without a policy) and PINNED_POLICY_TREES_CONNECTED runs.
PINNED_MAX_VISITS_CONNECTED = {
    (0, 1, 1): 9, (2, 3, 5): 5, (4, 5, 15): 1, (6, 7, 1): 10, (8, 9, 5): 9,
    (10, 11, 15): 1, (12, 13, 1): 8, (14, 15, 5): 3, (16, 17, 15): 1, (18, 19, 1): 9,
    ("connected basic", 0, 1, 1): 10, ("connected basic", 2, 3, 5): 5,
    ("connected basic", 4, 5, 15): 1, ("connected basic", 14, 15, 5): 3,
}


def _check_max_visits(pins, **order):
    entries, _ = random_graph_db(11, 20, 8, 10, 0.3, 5, 2)
    graphs = dict(entries)
    for key, want in pins.items():
        *policy, a, b, w = key
        keywords = POLICY_KEYWORDS[policy[0]] if policy else order
        res = bss_ged(graphs[a], graphs[b], w, **keywords)
        assert res.stats.max_visits == want, key


def test_max_visits_pinned():
    assert set(PINNED_MAX_VISITS) == set(PINNED_TREES) | set(PINNED_POLICY_TREES)
    _check_max_visits(PINNED_MAX_VISITS, order_policy="dfs")


def test_max_visits_pinned_default_order():
    assert set(PINNED_MAX_VISITS_CONNECTED) == set(PINNED_TREES_CONNECTED) | set(PINNED_POLICY_TREES_CONNECTED)
    _check_max_visits(PINNED_MAX_VISITS_CONNECTED)


def test_policies_agree_beyond_oracle():
    # 9- and 10-vertex pairs, past the brute-force oracle's reach: every
    # policy, beam width and argument order must give one distance.
    entries, _ = random_graph_db(3, 12, 9, 11, 0.3, 5, 2)
    graphs = dict(entries)
    for a, b in ((0, 1), (2, 3)):
        distances = set()
        for succ in ("basic", "reduced"):
            for order in ("default", "dfs", "connected"):
                for w in (1, 15):
                    for x, y in ((a, b), (b, a)):
                        res = bss_ged(graphs[x], graphs[y], w, order_policy=order, succ_policy=succ)
                        assert res.status == EXACT
                        distances.add(res.distance)
        assert len(distances) == 1, (a, b, distances)


# A mid-size exact corpus past the oracle's reach: 9-11-vertex pairs of
# mixed sizes drawn by random_graph_db(5, 20, 9, 11, 0.3, 5, 2), pair
# (2i, 2i + 1). (source id, target id) -> (distance, nodes_expanded,
# nodes_generated, max_open) of the exact run at w 15 with reduced
# successors in the paper's dfs order, which searches from the source as
# called. The search tree does not depend on the machine: a pure speed-up
# leaves these alone, a pruning change lowers the counts.
PINNED_MID_SIZE = {
    (0, 1): (17, 3223, 13808, 124),  # 11 -> 10 vertices
    (2, 3): (13, 503, 1870, 76),  # 9 -> 9
    (4, 5): (19, 930, 4754, 162),  # 10 -> 11
    (6, 7): (13, 796, 3377, 142),  # 9 -> 10
    (8, 9): (14, 1772, 7912, 150),  # 10 -> 11
    (10, 11): (14, 574, 2529, 97),  # 10 -> 9
    (12, 13): (17, 7663, 31888, 146),  # 11 -> 11
    (14, 15): (15, 1126, 5267, 106),  # 10 -> 11
    (16, 17): (17, 2739, 12018, 105),  # 9 -> 11
    (18, 19): (18, 2070, 7891, 123),  # 10 -> 9
}
# The same runs under the default (connected) order, which searches from
# the smaller graph: pairs (0, 1), (10, 11) and (18, 19) run as (q, g).
# 21,396 expansions in all under dfs, 12,126 here (14,475 with the order
# alone, every run from the source as called).
PINNED_MID_SIZE_CONNECTED = {
    (0, 1): (17, 2588, 10401, 110),
    (2, 3): (13, 205, 911, 66),
    (4, 5): (19, 922, 4524, 162),
    (6, 7): (13, 1586, 6198, 146),
    (8, 9): (14, 1645, 7413, 150),
    (10, 11): (14, 458, 2016, 104),
    (12, 13): (17, 3082, 14048, 124),
    (14, 15): (15, 272, 1518, 90),
    (16, 17): (17, 302, 1649, 78),
    (18, 19): (18, 1066, 4574, 138),
}
# Pairs whose run at w = 10**6 expands 17,000-50,000 nodes (about a second
# each) under either order; their distances are checked at w 1 and 15
# only, which keeps each test under 5 s.
SLOW_UNBOUNDED = {(4, 5), (6, 7), (8, 9), (12, 13)}


def _check_mid_size(pins, **order):
    # No oracle reaches 9-11 vertices, so each pinned distance is checked
    # by agreement: every beam width is exact, and so is either successor
    # policy, so all runs must find one distance. Widths are swept with
    # reduced successors; basic successors run at the default width.
    entries, _ = random_graph_db(5, 20, 9, 11, 0.3, 5, 2)
    graphs = dict(entries)
    sizes = set()
    for (a, b), want in pins.items():
        g, q = graphs[a], graphs[b]
        sizes.add((g.n, q.n))
        res = bss_ged(g, q, **order)
        s = res.stats
        assert (res.distance, s.nodes_expanded, s.nodes_generated, s.max_open) == want, (a, b)
        runs = [(1, "reduced"), (15, "basic")]
        if (a, b) not in SLOW_UNBOUNDED:
            runs.append((10**6, "reduced"))
        for w, succ in runs:
            res = bss_ged(g, q, w, succ_policy=succ, **order)
            assert (res.status, res.distance) == (EXACT, want[0]), (a, b, w, succ)
    assert len(sizes) >= 6 and any(n != m for n, m in sizes)


def test_mid_size_corpus_pinned():
    _check_mid_size(PINNED_MID_SIZE, order_policy="dfs")


def test_mid_size_corpus_pinned_default_order():
    assert [want[0] for want in PINNED_MID_SIZE_CONNECTED.values()] == \
        [want[0] for want in PINNED_MID_SIZE.values()]
    _check_mid_size(PINNED_MID_SIZE_CONNECTED)
