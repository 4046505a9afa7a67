"""Command-line frontend: dist, oracle, search, gen, inspect, and bench."""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import delta_bounds, lb_graph
from .engine import (
    BUDGET_EXHAUSTED,
    DEFAULT_BEAM_WIDTH,
    DEFAULT_NODE_BUDGET,
    EXACT,
    bss_ged,
    check_search_args,
    searches_from_q,
)
from .graphs import GraphFormatError, parse_graph_db, serialize_graph_db, vertex_partition
from .oracle import exhaustive_ged
from .simsearch import GraphDatabase, range_query
from .successors import DEFAULT_ORDER_POLICY, ORDER_POLICIES, determine_order, predicted_layer_counts
from .synth import random_graph_db

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PARSE = 4


def _parse(path: str, table=None):
    with open(path, encoding="utf-8") as fh:
        return parse_graph_db(fh.read(), table)


def _load_graphs(path: str) -> dict:
    """The file's graphs by id, in file order; only search builds an index."""
    return dict(_parse(path)[0])


def _usage_error(message: str):
    """Print a one-line error and exit with the usage code, as argparse does."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _pick(graphs: dict, gid: int):
    if gid not in graphs:
        _usage_error(f"graph id {gid} not in database ({len(graphs)} graphs)")
    return graphs[gid]


def _add_pair_args(p: argparse.ArgumentParser):
    p.add_argument("db")
    p.add_argument("id1", type=int)
    p.add_argument("id2", type=int)


def _load_pair(args):
    """The graphs id1 and id2 of the file db."""
    graphs = _load_graphs(args.db)
    return _pick(graphs, args.id1), _pick(graphs, args.id2)


def _add_engine_flags(p: argparse.ArgumentParser):
    p.add_argument("--beam", type=int, default=DEFAULT_BEAM_WIDTH, help="beam width w")
    p.add_argument("--order", choices=tuple(ORDER_POLICIES), default=DEFAULT_ORDER_POLICY,
                   help="vertex processing order (connected: most-connected first; dfs: the paper's)")
    p.add_argument("--succ", choices=("basic", "reduced"), default="reduced")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="node budget")


def _run_pair(args, g, q, time_limit=None) -> dict:
    """Run exact bss_ged(g, q) with the command's engine flags and return
    its record: ged and status; when a budget ran out, also which one and
    the best upper bound, which an exact run always has; then the search
    counters and the wall time."""
    t0 = time.perf_counter()
    result = bss_ged(
        g, q, args.beam,
        order_policy=args.order, succ_policy=args.succ,
        node_budget=args.budget, time_limit=time_limit,
    )
    ms = (time.perf_counter() - t0) * 1000.0
    record = {"ged": result.distance, "status": result.status}
    if result.status == BUDGET_EXHAUSTED:
        record.update(reason=result.reason, upper_bound=result.upper_bound)
    record.update(expanded=result.stats.nodes_expanded, backtracks=result.stats.backtracks,
                  passes=result.stats.passes, time_ms=round(ms, 3))
    return record


def _or_dash(value) -> str:
    return "-" if value is None else str(value)


def cmd_dist(args) -> int:
    r = _run_pair(args, *_load_pair(args))
    if args.json:
        print(json.dumps(r))
    elif r["status"] == BUDGET_EXHAUSTED:
        print(f"{r['reason']} budget exhausted; best upper bound {r['upper_bound']}")
    else:
        print(
            f"ged({args.id1}, {args.id2}) = {r['ged']}  "
            f"[expanded={r['expanded']} backtracks={r['backtracks']} "
            f"passes={r['passes']} time={r['time_ms']}ms]"
        )
    return EXIT_BUDGET if r["status"] == BUDGET_EXHAUSTED else EXIT_OK


def cmd_oracle(args) -> int:
    res = exhaustive_ged(*_load_pair(args))
    print(json.dumps({"ged": res.distance, "mappings_enumerated": res.mappings_enumerated}))
    return EXIT_OK


def cmd_search(args) -> int:
    # Bad flags are refused before either file is read or indexed.
    check_search_args(args.beam, args.budget, args.tau)
    db = GraphDatabase.from_graphs(*_parse(args.db))
    queries, _ = _parse(args.query, db.table)
    if not queries:
        _usage_error("query file contains no graph")
    qid, query = queries[0]
    if len(queries) > 1:
        print(f"answering graph {qid}, the first of {len(queries)} query graphs", file=sys.stderr)
    t0 = time.perf_counter()
    res = range_query(db, query, args.tau, args.beam, node_budget=args.budget)
    ms = (time.perf_counter() - t0) * 1000.0
    payload = {
        "matches": [{"id": m.graph_id, "bound": m.bound} for m in res.matches],
        "filtered": res.filtered_count,
        "candidates": res.candidate_count,
        "branch_refuted": res.branch_refuted,
        "certified": res.certified,
        "time_ms": round(ms, 3),
        "filter_s": round(res.timings["filter_s"], 6),
        "verify_s": round(res.timings["verify_s"], 6),
    }
    if res.unknowns:
        payload["unknown"] = res.unknowns
    if args.json:
        print(json.dumps(payload))
    else:
        # Unknowns ran out of node budget undecided; they are listed below,
        # not counted as engine verdicts.
        engine = res.candidate_count - res.branch_refuted - res.certified - len(res.unknowns)
        print(f"{len(res.matches)} matches within tau={args.tau} "
              f"({res.filtered_count} filtered, {res.candidate_count} candidates: "
              f"{res.branch_refuted} refuted by branch bound, "
              f"{res.certified} certified by assignment, "
              f"{engine} verified by engine, "
              f"{ms:.1f}ms)")
        for m in res.matches:
            print(f"  graph {m.graph_id}: ged <= {m.bound}")
        for gid in res.unknowns:
            print(f"  graph {gid}: unknown (budget exhausted)")
    return EXIT_OK


def cmd_gen(args) -> int:
    entries, _ = random_graph_db(
        args.seed, args.count, args.min_vertices, args.max_vertices,
        args.density, args.vertex_labels, args.edge_labels,
    )
    text = serialize_graph_db(entries)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {len(entries)} graphs to {args.out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    g, q = _load_pair(args)
    # The pair as a default exact run searches it: from source into target.
    swap = searches_from_q(g, q)
    source, target = (q, g) if swap else (g, q)
    part = vertex_partition(target)
    sizes = [len(c) for c in part.classes]
    payload = {
        "g": args.id1,
        "q": args.id2,
        "source": args.id2 if swap else args.id1,
        "partition": {"lambda": len(part.classes), "classes": [list(c) for c in part.classes]},
        "order_policy": DEFAULT_ORDER_POLICY,
        "order": list(determine_order(source, DEFAULT_ORDER_POLICY)),
        "predicted_layer_counts": predicted_layer_counts(source.n, source.n, target.n, sizes),
    }
    if args.bounds:
        d1, d2 = delta_bounds(g, q)
        payload["lb"] = lb_graph(g, q)
        payload["delta1"] = d1
        payload["delta2"] = d2
    print(json.dumps(payload))
    return EXIT_OK


def cmd_bench(args) -> int:
    graphs = _load_graphs(args.db)
    queries = [int(x) for x in args.queries.split(",")] if args.queries is not None else list(graphs)
    targets = [int(x) for x in args.targets.split(",")] if args.targets is not None else list(graphs)
    rows = [
        {"query": qid, "target": tid,
         **_run_pair(args, _pick(graphs, tid), _pick(graphs, qid), args.time_limit)}
        for qid in queries for tid in targets
    ]
    solved = sum(r["status"] == EXACT for r in rows)
    ratio = solved / len(rows) if rows else 1.0
    if args.json:
        print(json.dumps({"rows": rows, "solve_ratio": ratio}))
    else:
        print(f"{'query':>6} {'target':>6} {'ged':>6} {'status':>16} {'reason':>6} {'upper_bound':>11} "
              f"{'time_ms':>10} {'expanded':>9} {'backtracks':>10}")
        for r in rows:
            print(f"{r['query']:>6} {r['target']:>6} {_or_dash(r['ged']):>6} {r['status']:>16} "
                  f"{_or_dash(r.get('reason')):>6} {_or_dash(r.get('upper_bound')):>11} {r['time_ms']:>10} "
                  f"{r['expanded']:>9} {r['backtracks']:>10}")
        print(f"solve ratio: {ratio:.3f} ({solved}/{len(rows)})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gedkit", description="Exact graph edit distance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="exact GED between two database graphs")
    _add_pair_args(p)
    _add_engine_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("oracle", help="brute-force GED (small graphs only)")
    _add_pair_args(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("search", help="graphs within edit distance tau of a query")
    p.add_argument("--db", required=True)
    p.add_argument("--query", required=True,
                   help="graph file; only its first graph is answered")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--beam", type=int, default=DEFAULT_BEAM_WIDTH)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("gen", help="write a seeded random graph database")
    p.add_argument("out")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--min-vertices", type=int, default=4)
    p.add_argument("--max-vertices", type=int, default=8)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--vertex-labels", type=int, default=20)
    p.add_argument("--edge-labels", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("inspect", help="partition, order, and predicted layer sizes")
    _add_pair_args(p)
    p.add_argument("--bounds", action="store_true")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("bench", help="GED over query/target id lists with budgets")
    p.add_argument("db")
    p.add_argument("--queries", help="comma-separated query ids (default: all)")
    p.add_argument("--targets", help="comma-separated target ids (default: all)")
    _add_engine_flags(p)
    p.add_argument("--time-limit", type=float, help="per-pair time limit in seconds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
