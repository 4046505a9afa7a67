import copy
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import SQUARE_STAR_TEXT, adjacency_built, build_graph, random_pair
from gedkit import engine, simsearch
from gedkit.bounds import lb_from_branches, lb_from_summaries, summarize, vertex_branches
from gedkit.engine import ABOVE_BOUND, BUDGET_EXHAUSTED, WITHIN_THRESHOLD, bss_ged
from gedkit.graphs import LabelTable, LabeledGraph, serialize_graph_db, vertex_partition
from gedkit.mapping import edit_cost, realize_edit_path
from gedkit.oracle import check_edit_path, exhaustive_ged
from gedkit.simsearch import GraphDatabase, filter_candidates, range_query
from gedkit.successors import connected_order
from gedkit.synth import random_graph, random_graph_db


@pytest.fixture(scope="module")
def small_db():
    entries, table = random_graph_db(
        seed=71, count=40, n_min=2, n_max=6, density=0.5,
        n_vertex_labels=3, n_edge_labels=2,
    )
    db = GraphDatabase.from_graphs(entries, table)
    rng = random.Random(72)
    query, _ = random_pair(rng, max_n=5, min_n=3, table=table)
    truth = {gid: exhaustive_ged(g, query).distance for gid, g in db.graphs.items()}
    return db, query, truth


def test_filter_large_tau_keeps_everything(small_db):
    db, query, _ = small_db
    tau = max(g.n + g.m for g in db.graphs.values()) + query.n + query.m
    assert filter_candidates(db, query, tau) == list(db.ids)


def test_filter_huge_tau_stays_small(small_db):
    # need is capped at 0, so the miss table has at most n_q + m_q + 1
    # entries however large tau is; uncapped, tau = 10**5 alone would build
    # a list of 800 kB per bucket.
    db, query, _ = small_db
    tracemalloc.start()
    try:
        assert filter_candidates(db, query, 10**5) == list(db.ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000
    assert filter_candidates(db, query, 10**9) == list(db.ids)
    res = range_query(db, query, 10**9)
    assert [m.graph_id for m in res.matches] == sorted(db.ids)
    assert res.unknowns == [] and res.filtered_count == 0


def test_filter_tau_zero_keeps_self(square_star):
    g, q = square_star
    db = GraphDatabase.from_graphs([(0, g), (1, q)], g.table)
    assert 1 in filter_candidates(db, q, 0)


def test_filter_never_drops_a_true_match(small_db):
    db, query, truth = small_db
    for tau in range(5):
        kept = set(filter_candidates(db, query, tau))
        for gid in db.ids:
            if gid not in kept:
                assert truth[gid] > tau


def test_verify_within_square_star(square_star):
    g, q = square_star
    yes = bss_ged(g, q, threshold=4)
    assert yes.status == WITHIN_THRESHOLD and yes.upper_bound <= 4
    assert yes.distance is None
    no = bss_ged(g, q, threshold=3)
    assert no.status == ABOVE_BOUND and no.upper_bound is None
    assert bss_ged(g, g, threshold=0).status == WITHIN_THRESHOLD


def test_verify_within_matches_oracle(small_sweep):
    for pair in small_sweep[:30]:
        want = pair.oracle.distance
        for tau in range(5):
            for w in (1, 15):
                res = bss_ged(pair.g, pair.q, w, threshold=tau)
                assert res.status == (WITHIN_THRESHOLD if want <= tau else ABOVE_BOUND)
                if res.status == WITHIN_THRESHOLD:
                    assert want <= res.upper_bound <= tau


def test_verify_within_unknown_on_budget(square_star):
    g, q = square_star
    res = bss_ged(g, q, node_budget=1, threshold=4)
    assert res.status == BUDGET_EXHAUSTED and res.reason == "nodes"


def test_range_query_tau_zero_finds_isomorphic(square_star):
    g, q = square_star
    table = g.table
    # Same structure as q with vertices renumbered, plus unrelated graphs.
    twin = build_graph(["C", "A", "A", "A"], [(0, 1, "a"), (0, 2, "a"), (0, 3, "a")], table)
    assert exhaustive_ged(twin, q).distance == 0
    db = GraphDatabase.from_graphs([(0, g), (1, q), (2, twin)], table)
    res = range_query(db, q, 0)
    assert [m.graph_id for m in res.matches] == [1, 2]


def test_range_query_matches_oracle_scan(small_db):
    db, query, truth = small_db
    previous = set()
    for tau in range(5):
        res = range_query(db, query, tau)
        got = {m.graph_id for m in res.matches}
        assert got == {gid for gid, d in truth.items() if d <= tau}
        assert res.unknowns == []
        assert previous <= got  # monotone in tau
        previous = got
        assert res.filtered_count + res.candidate_count == len(db)
        for m in res.matches:
            assert m.bound <= tau
            assert truth[m.graph_id] <= m.bound


def test_range_query_deterministic(small_db):
    # Candidates are decided on the calling thread, so two calls agree on
    # everything but the timings, and threads admits only the int 1.
    db, query, _ = small_db

    def answer(res):
        return ([(m.graph_id, m.bound) for m in res.matches], res.unknowns, res.filtered_count,
                res.candidate_count, res.branch_refuted, res.certified)

    for tau in (1, 3):
        for budget in (1, 10_000):
            first = range_query(db, query, tau, node_budget=budget, threads=1)
            assert answer(first) == answer(range_query(db, query, tau, node_budget=budget))
    for threads in (2, 0, True, 1.5):
        with pytest.raises(ValueError, match="threads"):
            range_query(db, query, 1, threads=threads)


def test_range_query_sorts_unordered_ids():
    # Ids 7, 3, 5, 1 in file order: db.ids and the filter keep that order,
    # and range_query returns its matches and unknowns sorted by id. The
    # path (3) and the star (1) are certified by their assignments; with a
    # node budget of 1 the engine leaves the square (7) and the other
    # star (5) unknown.
    db = GraphDatabase.from_text(SQUARE_STAR_TEXT)
    path = build_graph(["A", "A", "A", "B"], [(0, 1, "a"), (1, 2, "a"), (2, 3, "a")], db.table)
    star = build_graph(["A", "A", "A", "B"], [(0, 1, "a"), (0, 2, "a"), (0, 3, "a")], db.table)
    unordered = GraphDatabase.from_graphs([(7, db.graphs[0]), (3, path), (5, db.graphs[1]), (1, star)],
                                          db.table)
    assert unordered.ids == [7, 3, 5, 1]
    assert filter_candidates(unordered, path, 4) == [7, 3, 5, 1]
    res = range_query(unordered, path, 4, node_budget=1)
    assert [(m.graph_id, m.bound) for m in res.matches] == [(1, 2), (3, 0)]
    assert res.unknowns == [5, 7]
    assert (res.certified, res.branch_refuted) == (2, 0)


def test_range_query_surfaces_unknowns(small_db):
    db, query, _ = small_db
    res = range_query(db, query, 4, node_budget=1)
    assert res.unknowns
    assert set(res.unknowns).isdisjoint({m.graph_id for m in res.matches})


def test_certified_matches_are_proven(monkeypatch):
    # range_query matches a candidate without the engine when the mapping
    # its branch assignment induces costs <= tau. Every such mapping must be
    # complete, realise a checked edit path, and cost between the exact
    # distance and tau; and the matches must be the engine-only scan's.
    costed = []  # (mapping, graph, cost) of every mapping range_query costs

    def recorded_cost(psi, g, q):
        cost = edit_cost(psi, g, q)
        costed.append((psi, g, cost.total))
        return cost

    ran = []  # ids of the graphs range_query runs the engine on

    def recorded_engine(g, q, *args, **kwargs):
        ran.append(gid_of[id(g)])
        return bss_ged(g, q, *args, **kwargs)

    monkeypatch.setattr(simsearch, "edit_cost", recorded_cost)
    monkeypatch.setattr(simsearch, "bss_ged", recorded_engine)
    rng = random.Random(76)
    certified = uncertified = nonzero = 0
    for seed in range(4):
        density = rng.choice((0.1, 0.3, 0.5))
        entries, table = random_graph_db(80 + seed, 25, 0, 12, density, rng.choice((2, 3, 5)), 2)
        db = GraphDatabase.from_graphs(entries, table)
        gid_of = {id(g): gid for gid, g in db.graphs.items()}
        queries = [db.graphs[db.ids[0]], LabeledGraph([], [], table)]
        queries += [random_graph(rng, rng.randint(0, 12), density, 3, 2, table) for _ in range(2)]
        for query in queries:
            exact = {}
            for tau in range(9):
                costed.clear()
                ran.clear()
                res = range_query(db, query, tau)
                candidates = filter_candidates(db, query, tau)
                # The engine runs once per candidate neither refuted nor
                # certified, in db.ids order.
                assert len(ran) == res.candidate_count - res.branch_refuted - res.certified
                assert ran == [gid for gid in candidates if gid in set(ran)]
                engine_only = sorted(gid for gid in candidates
                                     if bss_ged(db.graphs[gid], query, threshold=tau).status == WITHIN_THRESHOLD)
                assert [m.graph_id for m in res.matches] == engine_only
                bounds = {m.graph_id: m.bound for m in res.matches}
                proven = [(psi, g, cost) for psi, g, cost in costed if cost <= tau]
                assert res.certified == len(proven)
                assert res.candidate_count == res.branch_refuted + len(costed)
                for psi, g, cost in proven:
                    gid = gid_of[id(g)]
                    assert bounds[gid] == cost
                    assert psi.is_complete() and (psi.n_source, psi.n_target) == (g.n, query.n)
                    assert check_edit_path(g, query, realize_edit_path(psi, g, query), psi)
                    if gid not in exact:
                        exact[gid] = bss_ged(g, query).distance
                    assert exact[gid] <= cost <= tau
                    nonzero += cost > 0
                certified += len(proven)
                uncertified += len(costed) - len(proven)
    assert certified > 500 and nonzero > 300 and uncertified > 20


def test_database_precomputation_consistent(small_db):
    db, _, _ = small_db
    for gid, g in db.graphs.items():
        assert db.summaries[gid] == summarize(g)
        # The build partitions no member, and range_query never makes a
        # member the target of an engine run, so none holds a partition.
        assert not hasattr(g, "_partition")
    by_size = {}
    for pos, gid in enumerate(db.ids):
        by_size.setdefault((db.graphs[gid].n, db.graphs[gid].m), []).append(pos)
    assert db.size_index == by_size
    # Bit i of masks[size][l][k - 1] is set exactly when the bucket's i-th
    # graph has c_g(l) >= k. Every label of the bucket has one mask per
    # level up to its largest count, no other label has any, and no mask
    # is empty.
    checked = 0
    for masks, field in ((db.vertex_masks, "vertex_labels"), (db.edge_masks, "edge_labels")):
        assert masks.keys() == by_size.keys()
        for size, members in by_size.items():
            counts = [getattr(db.summaries[db.ids[pos]], field) for pos in members]
            assert masks[size].keys() == {lab for c in counts for lab in c}
            for lab, levels in masks[size].items():
                assert len(levels) == max(c.get(lab, 0) for c in counts)
                for k, mask in enumerate(levels, 1):
                    assert 0 < mask < 1 << len(members)
                    for i, c in enumerate(counts):
                        assert (mask >> i & 1) == (c.get(lab, 0) >= k)
                        checked += 1
    assert checked > 500


def test_masks_of_a_bucket_wider_than_a_word():
    # 240 graphs of one size (10 vertices, 12 edges) and a few of another,
    # interleaved, with few labels so that counts reach 4 and more: each
    # mask spans several machine words, and bucket positions differ from
    # database positions.
    rng = random.Random(88)
    table = LabelTable()
    vlabs = [table.intern(t) for t in "ABC"]
    elabs = [table.intern(t) for t in "xy"]
    pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    entries = []
    for gid in range(260):
        n, m = (10, 12) if gid % 13 else (6, 4)
        labels = [rng.choice(vlabs) for _ in range(n)]
        edges = [(u, v, rng.choice(elabs)) for u, v in rng.sample([p for p in pairs if p[1] < n], m)]
        entries.append((gid, LabeledGraph(labels, edges, table)))
    db = GraphDatabase.from_graphs(entries, table)
    assert len(db.size_index[10, 12]) == 240
    top = 0
    for masks, count_of in ((db.vertex_masks, lambda g: Counter(g.vertex_labels)),
                            (db.edge_masks, lambda g: Counter(lab for _, _, lab in g.edges))):
        assert masks.keys() == db.size_index.keys()
        for size, members in db.size_index.items():
            counts = [count_of(db.graphs[db.ids[pos]]) for pos in members]
            # The definition: bit i of level k - 1 is set iff c_g(l) >= k
            # for the bucket's i-th graph g, up to the bucket's top count.
            expected = {}
            for lab in {lab for c in counts for lab in c}:
                expected[lab] = [sum(1 << i for i, c in enumerate(counts) if c[lab] >= k)
                                 for k in range(1, max(c[lab] for c in counts) + 1)]
                top = max(top, len(expected[lab]))
            assert masks[size] == expected
            assert all(mask for levels in masks[size].values() for mask in levels)
    assert top >= 4


def _shared_units(a, b) -> int:
    """vinter + einter: the shared vertex-label and edge-label units of a and b."""
    return sum(
        min(c, getattr(b, field).get(lab, 0))
        for field in ("vertex_labels", "edge_labels")
        for lab, c in getattr(a, field).items()
    )


def _shared_vertex_labels(a, b) -> int:
    return sum(min(c, b.vertex_labels.get(lab, 0)) for lab, c in a.vertex_labels.items())


# Corpora for the indexed filter: (seed, count, vertex range, vertex labels,
# edge labels, query vertex range). The first four are the original mixed
# corpora; then 20 vertex labels, where the count test refutes most graphs
# of nearby size; 2, where it refutes fewer; tiny graphs, where tau >= n + m
# lets a graph that shares no label with the query be a candidate; and one
# vertex label with 5 edge labels, where only the edge units can refute.
FILTER_CORPORA = [(seed, 30, (0, 12), 3, 2, (0, 9)) for seed in range(4)] + [
    (4, 40, (0, 12), 20, 2, (0, 9)),
    (5, 30, (0, 8), 2, 2, (0, 8)),
    (6, 30, (0, 3), 20, 2, (0, 3)),
    (7, 40, (0, 12), 1, 5, (0, 9)),
]


def test_indexed_filter_equals_full_scan(monkeypatch):
    # The size-bucket skip and the label count test must not change the
    # candidates, their order or anything range_query reports, against a
    # scan of every graph. A match's bound is the engine's first leaf or the
    # cost of the branch stage's assignment mapping, so it is checked to be
    # a proven upper bound within tau, against the exact distance.
    bounded = []  # the summaries the filter called the pair bound on

    def counted_lb(a, b):
        bounded.append(a)
        return lb_from_summaries(a, b)

    monkeypatch.setattr(simsearch, "lb_from_summaries", counted_lb)
    rng = random.Random(74)
    total_refuted = 0
    count_refuted = {}  # corpus seed -> share of the graphs it tests that the count test drops
    vertex_refuted = {}  # the same share for a count test of vertex labels alone
    disjoint_kept = 0
    zero_need = 0  # admissible size buckets whose need is <= 0
    for seed, count, (n_min, n_max), n_labels, n_edge_labels, (q_min, q_max) in FILTER_CORPORA:
        density = rng.choice((0.1, 0.3, 0.5, 0.8))
        entries, table = random_graph_db(seed, count, n_min, n_max, density, n_labels, n_edge_labels)
        entries.append((len(entries), LabeledGraph([], [], table)))
        rng.shuffle(entries)  # db.ids order is not id order
        db = GraphDatabase.from_graphs(entries, table)
        queries = [db.graphs[db.ids[0]], LabeledGraph([], [], table)]
        queries += [random_graph(rng, rng.randint(q_min, q_max), density, n_labels, n_edge_labels, table)
                    for _ in range(2)]
        dropped = vertex_dropped = tested = 0
        for query in queries:
            exact = {}  # gid -> ged(graph, query), computed for matches only
            qsum = summarize(query)
            lb = {gid: lb_from_summaries(db.summaries[gid], qsum) for gid in db.ids}
            for tau in range(9):
                scan = [gid for gid in db.ids if lb[gid] <= tau]
                # The pair bound runs on exactly the graphs of nearby size
                # whose shared vertex and edge labels reach
                # need = max(n, n_q) + max(m, m_q) - tau.
                near = [s for s in map(db.summaries.get, db.ids)
                        if abs(s.n - qsum.n) + abs(s.m - qsum.m) <= tau]
                passed = [s for s in near if _shared_units(s, qsum)
                          >= max(s.n, qsum.n) + max(s.m, qsum.m) - tau]
                bounded.clear()
                assert filter_candidates(db, query, tau) == scan
                assert sorted(map(id, bounded)) == sorted(map(id, passed))
                dropped += len(near) - len(passed)
                vertex_dropped += sum(1 for s in near
                                      if _shared_vertex_labels(s, qsum) < max(s.n, qsum.n) - tau)
                tested += sum(1 for s in near if max(s.n, qsum.n) + max(s.m, qsum.m) > tau)
                zero_need += len({(s.n, s.m) for s in near if max(s.n, qsum.n) + max(s.m, qsum.m) <= tau})
                if query.n:
                    disjoint_kept += sum(1 for gid in scan if db.graphs[gid].n
                                         and _shared_units(db.summaries[gid], qsum) == 0)
                outcomes = {gid: bss_ged(db.graphs[gid], query, threshold=tau) for gid in scan}
                res = range_query(db, query, tau)
                assert [m.graph_id for m in res.matches] == sorted(
                    gid for gid, out in outcomes.items() if out.status == WITHIN_THRESHOLD)
                for m in res.matches:
                    if m.graph_id not in exact:
                        exact[m.graph_id] = bss_ged(db.graphs[m.graph_id], query).distance
                    assert exact[m.graph_id] <= m.bound <= tau
                assert res.unknowns == []
                assert res.candidate_count == len(scan)
                assert res.filtered_count == len(db) - len(scan)
                # The branch stage refutes only what the engine refutes too.
                refuted = [gid for gid in scan if lb_from_branches(
                    vertex_branches(db.graphs[gid]), vertex_branches(query))[0] > tau]
                assert all(outcomes[gid].status == ABOVE_BOUND for gid in refuted)
                assert res.branch_refuted == len(refuted)
                assert res.branch_refuted <= res.candidate_count - len(res.matches)
                total_refuted += res.branch_refuted
        count_refuted[seed] = dropped / tested
        vertex_refuted[seed] = vertex_dropped / tested
    assert total_refuted > 0
    assert count_refuted[4] > 0.5 > count_refuted[5] > 0
    # With one vertex label, vinter = min(n, n_q) refutes nothing in a
    # bucket within tau, so every graph dropped there was dropped by its
    # edge units.
    assert vertex_refuted[7] == 0 and count_refuted[7] > 0.1
    assert all(count_refuted[seed] > vertex_refuted[seed] for seed in count_refuted)
    assert disjoint_kept > 0
    assert zero_need > 0


def test_per_graph_structures_built_once(monkeypatch):
    # Branches, DFS orders and partitions depend on one graph each, so over
    # several queries on one database each is built at most once per graph:
    # the branches of a database graph on its first check as a candidate,
    # the query's partition and each source graph's DFS order on the first
    # engine run. Only the query's branches are built once per call. A
    # kept structure is the first build's object, so builds are counted as
    # distinct results. The answers equal those of a fresh database and a
    # fresh query per call, built by copying, which drops every kept value.
    def answer(res):
        return ([(m.graph_id, m.bound) for m in res.matches], res.unknowns, res.filtered_count,
                res.candidate_count, res.branch_refuted, res.certified)

    entries, table = random_graph_db(seed=77, count=60, n_min=4, n_max=8, density=0.4,
                                     n_vertex_labels=2, n_edge_labels=2)
    db = GraphDatabase.from_graphs(entries, table)
    rng = random.Random(78)
    queries = [random_graph(rng, rng.randint(5, 7), 0.4, 2, 2, table) for _ in range(3)]
    queries.append(copy.copy(db.graphs[5]))
    calls = [(queries[0], 4), (queries[1], 4), (queries[0], 3), (queries[2], 4), (queries[3], 4)]
    fresh = [answer(range_query(GraphDatabase.from_graphs([(gid, copy.copy(g)) for gid, g in entries], table),
                                copy.copy(query), tau))
             for query, tau in calls]

    branch_builds, orders, partitions = {}, {}, {}

    def counting(fn, seen):
        def wrapper(g, *policy):
            result = fn(g, *policy)
            seen.setdefault(id(g), {})[id(result)] = result
            return result
        return wrapper

    def counted_branches(g):
        branch_builds[id(g)] = branch_builds.get(id(g), 0) + 1
        return vertex_branches(g)

    monkeypatch.setattr(simsearch, "vertex_branches", counted_branches)
    monkeypatch.setattr(engine, "determine_order", counting(engine.determine_order, orders))
    monkeypatch.setattr(engine, "vertex_partition", counting(engine.vertex_partition, partitions))
    engine_runs = 0
    for (query, tau), expected in zip(calls, fresh):
        res = range_query(db, query, tau)
        assert answer(res) == expected
        engine_runs += res.candidate_count - res.branch_refuted - res.certified
    assert answer(res)[0][0] == (5, 0)
    db_graphs = {id(g) for g in db.graphs.values()}
    for query in queries:
        assert branch_builds.pop(id(query)) == sum(q is query for q, _ in calls)
    assert branch_builds and set(branch_builds) <= db_graphs
    assert set(branch_builds.values()) == {1}
    # Every engine run above partitioned its query and ordered its source;
    # each of them got one build, shared by all of its runs.
    assert set(partitions) == {id(q) for q in queries} and set(orders) <= db_graphs
    assert all(len(built) == 1 for built in (*orders.values(), *partitions.values()))
    assert engine_runs > len(orders) + len(partitions)
    for g in (*db.graphs.values(), *queries):
        for seen, build in ((orders, connected_order), (partitions, vertex_partition)):
            if id(g) in seen:
                assert list(seen[id(g)].values()) == [build(copy.copy(g))]


def test_member_partition_built_on_first_read(monkeypatch):
    # A database partitions no member. An exact run into a member builds
    # its partition on the first read, as the run's target's, and keeps it:
    # later runs into the member read that same object.
    entries, table = random_graph_db(seed=79, count=12, n_min=4, n_max=7, density=0.4,
                                     n_vertex_labels=2, n_edge_labels=2)
    db = GraphDatabase.from_text(serialize_graph_db(entries))
    assert not any(hasattr(g, "_partition") for g in db.graphs.values())
    built = {}

    def counting(q):
        part = vertex_partition(q)
        built.setdefault(id(q), []).append(part)
        return part

    monkeypatch.setattr(engine, "vertex_partition", counting)
    member = max(db.graphs.values(), key=lambda g: g.n)
    sources = [g for g in db.graphs.values() if g is not member and g.n <= member.n][:3]
    for source in sources:
        assert bss_ged(source, member).distance == bss_ged(copy.copy(source), copy.copy(member)).distance
    parts = built[id(member)]
    assert len(parts) == len(sources) and all(p is member._partition for p in parts)
    assert parts[0] == vertex_partition(copy.copy(member))
    # Only the runs' targets were partitioned.
    assert [g for g in db.graphs.values() if hasattr(g, "_partition")] == [member]


def test_database_builds_no_adjacency():
    # Parsing, summaries, partitions and the filter read edges only; the
    # branch stage builds the adjacency of exactly the candidates it checks.
    entries, table = random_graph_db(73, 60, 0, 12, 0.3, 3, 2)
    db = GraphDatabase.from_text(serialize_graph_db(entries))
    assert not any(map(adjacency_built, db.graphs.values()))
    query = random_graph(random.Random(73), 8, 0.3, 3, 2, db.table)
    candidates = filter_candidates(db, query, 4)
    assert candidates and not any(map(adjacency_built, db.graphs.values()))
    range_query(db, query, 4)
    assert [gid for gid in db.ids if adjacency_built(db.graphs[gid])] == candidates


def test_database_from_text_round_trip(square_star):
    db = GraphDatabase.from_text(SQUARE_STAR_TEXT)
    assert len(db) == 2
    text = serialize_graph_db(sorted(db.graphs.items()))
    db2 = GraphDatabase.from_text(text)
    assert db2.graphs[0] == db.graphs[0]


def test_mismatched_table_rejected(small_db):
    db, _, _ = small_db
    stray = build_graph(["A"], [], LabelTable())
    with pytest.raises(ValueError):
        filter_candidates(db, stray, 1)
    with pytest.raises(ValueError):
        range_query(db, stray, 1)


def test_negative_tau_rejected(small_db):
    db, query, _ = small_db
    for tau in (-1, 1.5, float("nan"), True, False):
        with pytest.raises(ValueError):
            filter_candidates(db, query, tau)
        with pytest.raises(ValueError):
            range_query(db, query, tau)
    with pytest.raises(ValueError):
        bss_ged(db.graphs[0], query, threshold=-1)


def test_duplicate_graph_id_rejected(square_star):
    g, q = square_star
    entries = [(0, g), (1, q), (2, g), (0, q)]
    with pytest.raises(ValueError, match="duplicate graph id 0"):
        GraphDatabase.from_graphs(entries, g.table)


def test_foreign_label_table_rejected():
    # 'A' is id 2 in the stored graph's own table but id 1 in the database's,
    # so comparing ids would make the filter drop this exact match.
    own = LabelTable()
    own.intern("B")
    stored = build_graph(["A"], [], own)
    table = LabelTable()
    query = build_graph(["A"], [], table)
    assert stored.vertex_labels != query.vertex_labels
    with pytest.raises(ValueError, match="label table"):
        GraphDatabase.from_graphs([(0, stored)], table)
    assert GraphDatabase.from_graphs([(0, query)], table).ids == [0]


def test_beam_width_checked_without_candidates(small_db):
    # A query no graph can match: the filter keeps nothing, so the engine
    # never runs, and the beam width is still rejected.
    db, _, _ = small_db
    far = random_graph(random.Random(75), 12, 0.8, 3, 2, db.table)
    assert filter_candidates(db, far, 0) == []
    assert range_query(db, far, 0).candidate_count == 0
    for w in (0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="beam width"):
            range_query(db, far, 0, w=w)
    for budget in (0, 2.5, float("nan")):
        with pytest.raises(ValueError, match="node budget"):
            range_query(db, far, 0, node_budget=budget)
