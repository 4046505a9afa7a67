"""Build the golden answer table of one workload and seed, cross-checked.

Usage, from the repository root:

    python3 bench/make_golden.py --workload exact-pairs --seed 1 --ops 1500

The table holds the answers of the first ``--ops`` ops of the seed's op
stream, as ``bench/run.py`` computes them. Before it is written, each answer
is confirmed another way:

- exact-pairs: the same distance with swapped arguments and with beam width
  1, and from ``exhaustive_ged`` for the first ORACLE_OPS pairs;
- search workloads: the same match set from ``range_query`` with beam width
  1, exact ``bss_ged`` <= tau for every match, exact ``bss_ged`` > tau for a
  seeded sample of refuted candidates, and the query's source member among
  the matches whenever it lies within tau edits.

Nothing is written when a cross-check disagrees; the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import run

ORACLE_OPS = 60  # exhaustive_ged takes ~4 s on an 8-vertex pair


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    args = p.parse_args(argv)
    if not run.use_sources():
        return 2
    import workloads
    from gedkit import engine, oracle, simsearch

    wl = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(wl, args.seed)
    db, _ = run.build(inputs, 1)
    run_op = workloads.bind(wl, inputs, db)
    rng = random.Random(f"{wl.name}/{args.seed}/golden")
    problems = []
    rows = []
    t0 = time.perf_counter()
    for k in range(args.ops):
        rec = run_op(k)
        value = workloads.golden_value(wl, rec)
        if wl.is_search:
            query = inputs.queries[k % len(inputs.queries)]
            res1 = simsearch.range_query(db, query.graph, query.tau, w=1)
            if sorted(m.graph_id for m in res1.matches) != value:
                problems.append(f"op {k}: w=1 matches {[m.graph_id for m in res1.matches]} != {value}")
            for gid in value:
                d = engine.bss_ged(db.graphs[gid], query.graph).distance
                if d is None or d > query.tau:
                    problems.append(f"op {k}: match {gid} has ged {d} > tau {query.tau}")
            problems.extend(f"op {k}: {m}" for m in workloads.recheck_no(db, query, rec, rng))
            if query.edits <= query.tau and query.source not in value:
                problems.append(f"op {k}: source {query.source} missing")
        else:
            i, j = inputs.pairs[k % len(inputs.pairs)]
            g, q = db.graphs[i], db.graphs[j]
            if rec[0] != engine.EXACT:
                problems.append(f"op {k}: status {rec[0]}")
            others = {
                "swapped": engine.bss_ged(q, g).distance,
                "w=1": engine.bss_ged(g, q, 1).distance,
            }
            if k < ORACLE_OPS:
                others["oracle"] = oracle.exhaustive_ged(g, q).distance
            for how, d in others.items():
                if d != value:
                    problems.append(f"op {k} ({i},{j}): {how} gives {d}, default {value}")
        rows.append(workloads.golden_key(wl, inputs, k) + [value])
        if (k + 1) % 100 == 0:
            print(f"{k + 1} ops checked, {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    if problems:
        print("\n".join(problems[:20]), file=sys.stderr)
        print(f"{len(problems)} disagreements; golden table not written", file=sys.stderr)
        return 1
    path = workloads.golden_path(wl, args.seed)
    with open(path, "w") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "ops": rows}, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {len(rows)} ops to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
