"""gedkit benchmark: one workload, one seed, closed loop, checked answers.

Usage, from the repository root:

    python3 bench/run.py --workload exact-pairs --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run builds the database several times (``setup_s`` is
the median), then sends ops one after another from this single process for
``--seconds`` seconds (and at least MIN_OPS ops), then checks every answer.
Times are scaled to a reference host by calibration slices timed between
builds and ops (see REF_CAL_S).
It prints the end-to-end metrics, one per line, and as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` it runs a fixed number of ops, each once untraced and
once traced, checks that both give the same answers and node counts, and
prints the per-layer metrics instead; the spans go to
``bench/out/trace-<workload>-seed<seed>.json``.

The exit code is 0 when every answer is correct, 1 when a check failed and
2 when the program under test cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
# Host-speed calibration. The shared host runs the same work up to 1.5 times
# faster in some minutes than in others. A fixed slice of pure-Python work,
# independent of gedkit, is timed before each build and at least every
# CAL_EVERY_S between ops; each build and op time is divided by the host
# factor at its start (the median of the CAL_SPAN slices nearest in time,
# over REF_CAL_S), so that times are reported in seconds of the reference host.
CAL_ROUNDS = 160
CAL_EVERY_S = 0.2
CAL_SPAN = 9
# Median time of one slice on the reference host (2 shared vCPUs, Intel Xeon
# 2.1 GHz, CPython 3.11.7).
REF_CAL_S = 0.0044
_CAL_PAIRS = tuple((i, (i * 7) & 255) for i in range(256))


def _safe(run_op, k):
    try:
        return run_op(k)
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        return f"{type(exc).__name__}: {exc}"


def use_sources() -> bool:
    """Put the repository's gedkit sources first on the import path."""
    if not os.path.isfile(os.path.join(SRC, "gedkit", "__init__.py")):
        print(f"gedkit sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    return True


def _reference_work(rounds: int) -> int:
    # Small ints only (they are preallocated), so that the slice allocates
    # nothing and does not depend on the state of the program's heap.
    table = dict.fromkeys(range(256), 0)
    acc = 0
    for _ in range(rounds):
        for i, j in _CAL_PAIRS:
            acc = acc ^ table[j] ^ i
            table[i] = acc
    return acc


def calibrate(slices: list) -> None:
    """Time one slice of reference work; append (start, duration) to `slices`."""
    t0 = time.perf_counter()
    _reference_work(CAL_ROUNDS)
    slices.append((t0, time.perf_counter() - t0))


def host_factors(slices: list, starts: list) -> list[float]:
    """Host factor at each start time: > 1 where the host ran slower than the reference."""
    at = [t for t, _ in slices]
    span = min(CAL_SPAN, len(slices))
    factors = []
    for t in starts:
        lo = min(max(bisect.bisect(at, t) - span // 2, 0), len(slices) - span)
        factors.append(statistics.median(d for _, d in slices[lo:lo + span]) / REF_CAL_S)
    return factors


def build(inputs, reps: int, slices: list | None = None):
    """Build the database `reps` times from its text.

    Returns (db, [(start, duration)]); with `slices`, a calibration slice is
    timed before each build."""
    from gedkit.simsearch import GraphDatabase

    times, db = [], None
    for _ in range(reps):
        db = None
        gc.collect()
        if slices is not None:
            calibrate(slices)
        t0 = time.perf_counter()
        db = GraphDatabase.from_text(inputs.text)
        times.append((t0, time.perf_counter() - t0))
    return db, times


def _report(failures: dict, attempted: int):
    for k in sorted(failures)[:10]:
        print(f"FAILED op {k}: {failures[k]}", file=sys.stderr)
    print(f"{'failed_ratio':<16} {len(failures) / attempted:<12.4g} ratio   ({len(failures)} of {attempted} ops failed)")


def run_untraced(wl, seed: int, seconds: float) -> tuple[dict, int, dict]:
    import workloads

    inputs = workloads.make_inputs(wl, seed)
    slices: list[tuple[float, float]] = []
    db, builds = build(inputs, wl.setup_reps, slices)
    run_op = workloads.bind(wl, inputs, db)

    # Calibration slices run between ops and count in no op's latency.
    records, ops = [], []
    deadline = time.perf_counter() + seconds
    last_cal = 0.0
    k = 0
    while True:
        t0 = time.perf_counter()
        records.append(_safe(run_op, k))
        t1 = time.perf_counter()
        ops.append((t0, t1 - t0))
        k += 1
        if t1 >= deadline and k >= MIN_OPS:
            break
        if t1 - last_cal >= CAL_EVERY_S:
            calibrate(slices)
            last_cal = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    golden = workloads.load_golden(wl, seed)
    failures = workloads.check(wl, seed, inputs, db, records, golden)

    def in_reference_seconds(timed):
        return [d / f for (_, d), f in zip(timed, host_factors(slices, [t for t, _ in timed]))]

    setup = in_reference_seconds(builds)
    lat = in_reference_seconds(ops)
    wall = sum(d for _, d in ops)
    p90 = statistics.quantiles(lat, n=10)[8]
    beyond = sum(1 for x in lat if x > p90)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} builds"),
        "ops_per_s": (k / sum(lat), "1/s", f"{k} ops; {k / wall:.4g}/s of wall time"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms", f"{k} samples"),
        "latency_p90_ms": (p90 * 1e3, "ms", f"{k} samples, {beyond} beyond p90"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
    }
    covered = 0 if golden is None else min(len(golden), k)
    print(f"workload {wl.name} seed {seed}: {k} ops, golden table covers {covered}")
    print(f"host speed: {len(slices)} calibration slices, median {statistics.median(d for _, d in slices) * 1e3:.3f} ms "
          f"(reference {REF_CAL_S * 1e3:.3f} ms); times below are in reference seconds")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<16} {value:<12.6g} {unit:<7} ({note})")
    _report(failures, k)
    return {n: (v, u) for n, (v, u, _) in metrics.items()}, k, failures


def layer_metrics(wl, tracer, plain: list, wall_plain: float, wall_traced: float) -> dict:
    """Per-layer metrics of one traced run: {name: (value, unit)}."""
    es = tracer.engine_stats
    expanded, generated = es["nodes_expanded"], es["nodes_generated"]
    gen_calls = tracer.calls("successors.gen")
    search = [r for r in plain if not isinstance(r, str)] if wl.is_search else []
    candidates = sum(r[2] for r in search)
    matches = sum(len(r[0]) for r in search)
    unknown = sum(len(r[1]) for r in search)
    return {
        "bounds.heuristic_calls": (tracer.calls("bounds.heuristic"), "count"),
        "bounds.heuristic_self_s": (tracer.self_time("bounds.heuristic"), "s"),
        "mapping.mapped_sources_calls": (tracer.calls("mapping.mapped_sources"), "count"),
        "mapping.mapped_sources_s": (tracer.total("mapping.mapped_sources"), "s"),
        "successors.gen_calls": (gen_calls, "count"),
        "successors.gen_self_s": (tracer.self_time("successors.gen"), "s"),
        "successors.extension_cost_calls": (tracer.calls("successors.extension_cost"), "count"),
        "successors.extension_cost_s": (tracer.total("successors.extension_cost"), "s"),
        "engine.self_s": (tracer.self_time("engine.run"), "s"),
        "engine.passes": (es["passes"], "count"),
        "engine.backtracks": (es["backtracks"], "count"),
        "engine.reexpand_ratio": ((expanded - gen_calls) / expanded if expanded else 0.0, "ratio"),
        "engine.nodes_generated": (generated, "count"),
        "engine.nodes_expanded": (expanded, "count"),
        "engine.expanded_per_generated": (expanded / generated if generated else 0.0, "ratio"),
        "engine.max_open": (tracer.max_open, "count"),
        "engine.runs": (es["runs"], "count"),
        "engine.init_s": (tracer.total("engine.init"), "s"),
        "successors.order_s": (tracer.total("successors.order"), "s"),
        "graphs.partition_calls": (tracer.calls("graphs.partition"), "count"),
        "graphs.partition_s": (tracer.total("graphs.partition"), "s"),
        "simsearch.candidates": (candidates, "count"),
        "simsearch.matches": (matches, "count"),
        "simsearch.filter_precision": (matches / candidates if candidates else 0.0, "ratio"),
        "simsearch.verify_yes": (matches, "count"),
        "simsearch.verify_no": (candidates - matches - unknown, "count"),
        "simsearch.verify_unknown": (unknown, "count"),
        "simsearch.verify_s": (sum(r[4] for r in search), "s"),
        "simsearch.filter_s": (sum(r[3] for r in search), "s"),
        "bounds.pair_lb_calls": (tracer.calls("bounds.pair_lb"), "count"),
        "bounds.pair_lb_s": (tracer.total("bounds.pair_lb"), "s"),
        "graphs.parse_s": (tracer.total("graphs.parse"), "s"),
        "graphs.graphs_parsed": (tracer.graphs_parsed, "count"),
        "bounds.summarize_s": (tracer.total("bounds.summarize"), "s"),
        "graphs.db_partition_s": (tracer.total("graphs.db_partition"), "s"),
        "trace.overhead_ratio": (wall_traced / wall_plain, "ratio"),
    }


def depth_table(inputs, db, n: int, tracer) -> list[tuple]:
    """Print and return generated / first-expanded nodes per depth of the
    traced exact-pairs ops, next to their summed predicted_layer_count."""
    from gedkit import graphs, successors

    predicted = [0] * (max(tracer.generated_by_depth, default=0) + 1)
    for k in range(n):
        i, j = inputs.pairs[k % len(inputs.pairs)]
        g, q = db.graphs[i], db.graphs[j]
        sizes = [len(c) for c in graphs.vertex_partition(q).classes]
        for layer in range(min(g.n + 1, len(predicted))):
            predicted[layer] += successors.predicted_layer_count(layer, g.n, q.n, sizes)
    rows = []
    print(f"{'depth':>5} {'generated':>10} {'first_expanded':>15} {'predicted_layer_count':>22}")
    for d in range(len(predicted)):
        rows.append((d, tracer.generated_by_depth[d], tracer.expanded_by_depth[d], predicted[d]))
        print(f"{d:>5} {rows[-1][1]:>10} {rows[-1][2]:>15} {predicted[d]:>22}")
    return rows


def run_traced(wl, seed: int) -> tuple[dict, int, dict]:
    import workloads
    from spans import Tracer

    inputs = workloads.make_inputs(wl, seed)
    tracer = Tracer()
    tracer.start()
    with tracer.span("setup"):
        db, _ = build(inputs, 1)
    tracer.stop()
    run_op = workloads.bind(wl, inputs, db)
    n = wl.trace_ops

    def timed(k: int, on: bool):
        t0 = time.perf_counter()
        if on:
            tracer.start()
            with tracer.span("op"):
                rec = _safe(run_op, k)
            tracer.stop()
        else:
            rec = _safe(run_op, k)
        return rec, time.perf_counter() - t0

    # Each op runs untraced and traced back to back, in alternating order, so
    # that the machine's slow drifts in speed cancel out of the overhead ratio.
    plain, traced = [], []
    wall = {False: 0.0, True: 0.0}
    for k in range(n):
        for on in (k % 2 == 1, k % 2 == 0):
            rec, dt = timed(k, on)
            (traced if on else plain).append(rec)
            wall[on] += dt
    wall_plain, wall_traced = wall[False], wall[True]

    failures = workloads.check(wl, seed, inputs, db, plain, workloads.load_golden(wl, seed))
    for k in range(n):
        if isinstance(plain[k], str) or isinstance(traced[k], str):
            continue
        if workloads.answer(wl, plain[k]) != workloads.answer(wl, traced[k]):
            failures.setdefault(k, f"traced op gave {traced[k]}, untraced {plain[k]}")

    metrics = layer_metrics(wl, tracer, plain, wall_plain, wall_traced)
    print(f"workload {wl.name} seed {seed}: {n} ops traced; untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:<14.6g} {unit}")
    depth_rows = []
    if not wl.is_search:
        untraced = [sum(r[i] for r in plain if not isinstance(r, str)) for i in (2, 3)]
        print(f"untraced ops: {untraced[0]} nodes expanded, {untraced[1]} generated")
        depth_rows = depth_table(inputs, db, n, tracer)
    _report(failures, n)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump({
            "workload": wl.name, "seed": seed, "ops": n,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "depth": [dict(zip(("depth", "generated", "first_expanded", "predicted"), r)) for r in depth_rows],
            **tracer.dump(),
        }, f)
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    return metrics, n, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gedkit benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not use_sources():
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    if args.trace:
        metrics, attempted, failures = run_traced(wl, args.seed)
    else:
        metrics, attempted, failures = run_untraced(wl, args.seed, args.seconds)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
