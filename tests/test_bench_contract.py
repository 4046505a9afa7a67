"""The names the benchmark in bench/ binds to must keep resolving.

bench/spans.py rebinds each traced function where its caller looks it up,
and bench/workloads.py calls range_query with threads= and w=. A change to
the package that breaks either fails here rather than in a benchmark run.
These tests read bench/ and change nothing there.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from conftest import SQUARE_STAR_TEXT, build_graph
from gedkit import engine, simsearch

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_traced_names_resolve(spans):
    for owner, attr, name, _ in spans.TARGETS:
        assert hasattr(owner, attr), (owner, attr, name)


def test_range_query_keywords():
    params = inspect.signature(simsearch.range_query).parameters
    assert "threads" in params and "w" in params


def test_tracer_sees_every_layer(spans):
    tracer = spans.Tracer()
    tracer.start()
    try:
        db = simsearch.GraphDatabase.from_text(SQUARE_STAR_TEXT)
        # A path A-A-A-B: both square-star graphs are within 4 of it, but
        # neither's branch assignment certifies it, so range_query runs the
        # engine on both.
        path = build_graph(["A", "A", "A", "B"], [(0, 1, "a"), (1, 2, "a"), (2, 3, "a")], db.table)
        res = simsearch.range_query(db, path, 4, w=1, threads=1)
        exact = engine.bss_ged(db.graphs[0], db.graphs[1], succ_policy="basic")
    finally:
        tracer.stop()
    assert [m.graph_id for m in res.matches] == [0, 1]
    assert res.candidate_count - res.branch_refuted > res.certified
    assert exact.distance == 4
    # The database build no longer partitions its members, so the one
    # traced name that must read zero is graphs.db_partition; any other
    # dead trace still fails here.
    dead = {name: tracer.calls(name) for name in tracer.agg if tracer.calls(name) == 0}
    assert dead == {"graphs.db_partition": 0}
    assert tracer.engine_stats["runs"] == 3
    assert sum(tracer.expanded_by_depth.values()) > 0
