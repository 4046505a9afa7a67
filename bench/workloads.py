"""Seeded workloads of the gedkit benchmark: inputs, one op, and answer checks.

Every corpus comes from ``gedkit.synth.random_graph_db`` with the workload
seed and reaches the program only as transaction text. An op is one exact
GED pair (``exact-pairs``) or one threshold range query (the search
workloads). Checks run after the timed loop and never inside it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from gedkit import bounds, engine, graphs, oracle, simsearch, synth

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Distinct op streams are long enough that no run at today's speed wraps.
PAIR_STREAM = 6000
QUERY_STREAM = 1500
# Per-run answer checks on a seeded sample; they hold on every seed.
SWAP_SAMPLE = 20
ORACLE_SAMPLE = 1
NO_QUERY_SAMPLE = 6
NO_PER_QUERY = 2
# Range of seeded unit edits that turn a corpus member into a search query.
QUERY_EDITS = (1, 3)


@dataclass(frozen=True)
class Workload:
    """Generator parameters of one workload (``random_graph_db`` arguments)."""

    name: str
    count: int
    n_min: int
    n_max: int
    density: float
    vertex_labels: int
    edge_labels: int
    setup_reps: int  # database builds per run; setup_s is their median
    trace_ops: int  # ops of a traced run
    taus: tuple[int, ...] = ()  # empty: exact GED pairs; otherwise range queries

    @property
    def is_search(self) -> bool:
        return bool(self.taus)


WORKLOADS = {
    w.name: w
    for w in (
        # Deep exact search: heuristic, successor generation and beam
        # bookkeeping do the work. 8-vertex graphs keep the per-pair cost
        # narrow enough that ~500 pairs a run give steady percentiles.
        Workload(
            "exact-pairs",
            count=1000, n_min=8, n_max=8, density=0.3, vertex_labels=5, edge_labels=2,
            setup_reps=60, trace_ops=250,
        ),
        # Database build and the lower-bound filter do the work; the engine
        # verifies 1-10 candidates per query. Engine changes must not move it.
        Workload(
            "search-10k",
            count=10_000, n_min=5, n_max=20, density=0.2, vertex_labels=20, edge_labels=5,
            taus=(2, 3, 4), setup_reps=5, trace_ops=60,
        ),
        # A weak filter passes ~90 candidates per query, each refuted after a
        # few expansions in decision mode: per-pair setup and filter tightness.
        Workload(
            "search-verify",
            count=1000, n_min=6, n_max=10, density=0.3, vertex_labels=4, edge_labels=2,
            taus=(4,), setup_reps=60, trace_ops=80,
        ),
    )
}


@dataclass
class Query:
    graph: object  # LabeledGraph once bound to the database's label table
    tau: int
    source: int  # id of the member the query was edited from
    edits: int  # ged(source, query) <= edits


@dataclass
class Inputs:
    text: str  # corpus in transaction text
    pairs: list[tuple[int, int]]  # exact-pairs op stream
    query_text: str  # search queries in transaction text, ids 0..len-1
    queries: list[Query]


def _token(alphabet: str, i: int) -> str:
    return chr(ord(alphabet) + i)


def _perturb(g, table, edits: int, rng: random.Random, wl: Workload):
    """Apply `edits` unit edits (relabel, delete or insert) to a copy of g."""
    labels = list(g.vertex_labels)
    edges = {(u, v): lab for u, v, lab in g.edges}
    for _ in range(edits):
        kind = rng.randrange(4)
        if kind == 0 or (kind in (1, 2) and not edges):
            u = rng.randrange(len(labels))
            old = table.token(labels[u])
            new = rng.choice([t for t in (_token("A", i) for i in range(wl.vertex_labels)) if t != old])
            labels[u] = table.intern(new)
        elif kind == 1:
            e = rng.choice(sorted(edges))
            old = table.token(edges[e])
            edges[e] = table.intern(rng.choice([t for t in (_token("a", i) for i in range(wl.edge_labels)) if t != old]))
        elif kind == 2:
            del edges[rng.choice(sorted(edges))]
        else:
            free = [(u, v) for u in range(len(labels)) for v in range(u + 1, len(labels)) if (u, v) not in edges]
            edges[rng.choice(free)] = table.intern(_token("a", rng.randrange(wl.edge_labels)))
    return graphs.LabeledGraph(labels, [(u, v, lab) for (u, v), lab in edges.items()], table)


def _corpus(wl: Workload, seed: int):
    """Yield (id, graph, label table) as ``random_graph_db(seed, ...)`` draws them.

    The draws are exactly those of ``random_graph_db``, one graph at a time,
    so that the benchmark never holds the whole corpus as objects and the
    process's peak memory stays the program's.
    """
    rng = random.Random(seed)
    table = graphs.LabelTable()
    for gid in range(wl.count):
        n = rng.randint(wl.n_min, wl.n_max)
        yield gid, synth.random_graph(rng, n, wl.density, wl.vertex_labels, wl.edge_labels, table), table


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Corpus text and op stream for one seed; the same seed gives the same inputs."""
    rng = random.Random(f"{wl.name}/{seed}")
    pairs = [] if wl.is_search else [tuple(rng.sample(range(wl.count), 2)) for _ in range(PAIR_STREAM)]
    chunks, by_size = [], {}
    for gid, g, _ in _corpus(wl, seed):
        chunks.append(graphs.serialize_graph_db([(gid, g)]))
        by_size.setdefault(g.n, []).append(gid)
    text = "".join(chunks)
    if not wl.is_search:
        return Inputs(text, pairs, "", [])
    # Query sources cycle through the corpus's graph sizes: a query's cost
    # follows its size, and every run then meets the same mix of sizes.
    sizes = sorted(by_size)
    queries = [
        Query(None, rng.choice(wl.taus), rng.choice(by_size[sizes[k % len(sizes)]]), rng.randint(*QUERY_EDITS))
        for k in range(QUERY_STREAM)
    ]
    wanted = {q.source for q in queries}
    sources = {gid: (g, table) for gid, g, table in _corpus(wl, seed) if gid in wanted}
    query_text = "".join(
        graphs.serialize_graph_db([(k, _perturb(*sources[q.source], q.edits, rng, wl))])
        for k, q in enumerate(queries)
    )
    return Inputs(text, [], query_text, queries)


def bind(wl: Workload, inputs: Inputs, db):
    """Return run_op(k) for the k-th op on db; ops past the stream wrap around."""
    if not wl.is_search:
        pairs, g_of = inputs.pairs, db.graphs

        def run_op(k):
            i, j = pairs[k % len(pairs)]
            r = engine.bss_ged(g_of[i], g_of[j])
            s = r.stats
            return (r.status, r.distance, s.nodes_expanded, s.nodes_generated)

        return run_op

    parsed, _ = graphs.parse_graph_db(inputs.query_text, db.table)
    for (_, qg), query in zip(parsed, inputs.queries):
        query.graph = qg
    queries = inputs.queries

    def run_op(k):
        query = queries[k % len(queries)]
        res = simsearch.range_query(db, query.graph, query.tau, threads=1)
        return (
            tuple((m.graph_id, m.bound) for m in res.matches),
            tuple(res.unknowns),
            res.candidate_count,
            res.timings["filter_s"],
            res.timings["verify_s"],
        )

    return run_op


def answer(wl: Workload, rec) -> object:
    """The part of an op record that must not change with speed or tracing."""
    if wl.is_search:
        return (tuple(gid for gid, _ in rec[0]), rec[1], rec[2])
    return rec


# --- golden tables ---------------------------------------------------------

def golden_path(wl: Workload, seed: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{wl.name}-seed{seed}.json")


def golden_key(wl: Workload, inputs: Inputs, k: int) -> list:
    """Identity of op k as stored in a golden table."""
    if wl.is_search:
        q = inputs.queries[k % len(inputs.queries)]
        return [k % len(inputs.queries), q.tau]
    return list(inputs.pairs[k % len(inputs.pairs)])


def golden_value(wl: Workload, rec) -> object:
    if wl.is_search:
        return sorted(gid for gid, _ in rec[0])
    return rec[1]


def load_golden(wl: Workload, seed: int) -> list | None:
    path = golden_path(wl, seed)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)["ops"]


# --- checks ----------------------------------------------------------------

def check(wl: Workload, seed: int, inputs: Inputs, db, records: list, golden: list | None) -> dict[int, str]:
    """Check every op record; returns {op index: first failure reason}."""
    failures: dict[int, str] = {}

    def fail(k: int, msg: str):
        failures.setdefault(k, msg)

    for k, rec in enumerate(records):
        if isinstance(rec, str):
            fail(k, f"raised {rec}")
            continue
        if golden is not None and k < len(golden):
            key, expect = golden[k][:-1], golden[k][-1]
            if key != golden_key(wl, inputs, k):
                fail(k, f"golden op {key} is not op {golden_key(wl, inputs, k)}")
            elif golden_value(wl, rec) != expect:
                fail(k, f"answer {golden_value(wl, rec)} != golden {expect}")
        if wl.is_search:
            _check_query(inputs.queries[k % len(inputs.queries)], db, rec, lambda m, k=k: fail(k, m))
        else:
            i, j = inputs.pairs[k % len(inputs.pairs)]
            _check_pair(db.graphs[i], db.graphs[j], rec, lambda m, k=k: fail(k, m))

    rng = random.Random(f"{wl.name}/{seed}/check")
    ok = [k for k, rec in enumerate(records) if k not in failures]
    if wl.is_search:
        # Only queries with a refuted candidate (candidates - matches - unknowns > 0).
        ok = [k for k in ok if records[k][2] > len(records[k][0]) + len(records[k][1])]
        for k in sorted(rng.sample(ok, min(NO_QUERY_SAMPLE, len(ok)))):
            query = inputs.queries[k % len(inputs.queries)]
            for msg in recheck_no(db, query, records[k], rng):
                fail(k, msg)
    else:
        sample = sorted(rng.sample(ok, min(SWAP_SAMPLE, len(ok))))
        limit = oracle.OracleLimits().max_vertices
        for n, k in enumerate(sample):
            i, j = inputs.pairs[k % len(inputs.pairs)]
            g, q = db.graphs[i], db.graphs[j]
            dist = records[k][1]
            swapped = engine.bss_ged(q, g).distance
            if swapped != dist:
                fail(k, f"ged({j},{i}) = {swapped} but ged({i},{j}) = {dist}")
            if n < ORACLE_SAMPLE and g.n <= limit and q.n <= limit:
                exact = oracle.exhaustive_ged(g, q).distance
                if exact != dist:
                    fail(k, f"oracle ged({i},{j}) = {exact} but engine says {dist}")
    return failures


def _check_pair(g, q, rec, fail):
    status, dist, _, _ = rec
    if status != engine.EXACT:
        fail(f"status {status}")
        return
    lb = bounds.lb_graph(g, q)
    if not lb <= dist <= g.n + q.n + g.m + q.m:
        fail(f"distance {dist} outside [lb {lb}, trivial bound]")


def _check_query(query: Query, db, rec, fail):
    matches, unknowns, _, _, _ = rec
    if unknowns:
        fail(f"{len(unknowns)} candidates left unknown")
    ids = {gid for gid, _ in matches}
    for gid, bound in matches:
        lb = bounds.lb_graph(db.graphs[gid], query.graph)
        if not lb <= bound <= query.tau:
            fail(f"match {gid}: bound {bound} outside [lb {lb}, tau {query.tau}]")
    if query.edits <= query.tau and query.source not in ids:
        fail(f"source {query.source} is {query.edits} edits away but missing from the matches")


def recheck_no(db, query: Query, rec, rng: random.Random) -> list[str]:
    """Exact GED of sampled `no` verdicts (filtered in, not matched) must exceed tau."""
    matched = {gid for gid, _ in rec[0]} | set(rec[1])
    refuted = [gid for gid in simsearch.filter_candidates(db, query.graph, query.tau) if gid not in matched]
    msgs = []
    for gid in rng.sample(refuted, min(NO_PER_QUERY, len(refuted))):
        r = engine.bss_ged(db.graphs[gid], query.graph)
        if r.distance is None or r.distance <= query.tau:
            msgs.append(f"graph {gid} refuted but ged = {r.distance} <= tau {query.tau}")
    return msgs
