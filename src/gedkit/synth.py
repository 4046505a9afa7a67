"""Seeded random labeled-graph generation for desk-scale testing."""

from __future__ import annotations

import itertools
import random

from .graphs import LabelTable, LabeledGraph


def _vertex_token(i: int) -> str:
    return chr(ord("A") + i) if i < 26 else f"A{i}"


def _edge_token(i: int) -> str:
    return chr(ord("a") + i) if i < 26 else f"a{i}"


def random_graph(rng: random.Random, n: int, density: float,
                 n_vertex_labels: int, n_edge_labels: int, table: LabelTable) -> LabeledGraph:
    """One simple graph: n vertices, round(density * n(n-1)/2) edges, uniform labels."""
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if n_vertex_labels < 1 or n_edge_labels < 1:
        raise ValueError("label alphabet sizes must be >= 1")
    max_edges = n * (n - 1) // 2
    m = round(density * max_edges)
    labels = [table.intern(_vertex_token(rng.randrange(n_vertex_labels))) for _ in range(n)]
    pairs = sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))
    edges = [(u, v, table.intern(_edge_token(rng.randrange(n_edge_labels)))) for u, v in pairs]
    return LabeledGraph(labels, edges, table)


def random_graph_db(seed: int, count: int, n_min: int, n_max: int, density: float,
                    n_vertex_labels: int, n_edge_labels: int):
    """Seed-deterministic database of `count` random graphs with ids 0..count-1."""
    if count < 0:
        raise ValueError(f"graph count must be >= 0, got {count}")
    if n_min < 0 or n_max < n_min:
        raise ValueError(f"bad vertex range [{n_min}, {n_max}]")
    rng = random.Random(seed)
    table = LabelTable()
    entries = []
    for gid in range(count):
        n = rng.randint(n_min, n_max)
        entries.append((gid, random_graph(rng, n, density, n_vertex_labels, n_edge_labels, table)))
    return entries, table
