"""Shared fixtures: worked-example graphs, random pair corpus, oracle results."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from gedkit.graphs import LabelTable, LabeledGraph, VertexPartition, parse_graph_db
from gedkit.mapping import GraphMapping
from gedkit.oracle import OracleResult, exhaustive_ged
from gedkit.synth import random_graph

# The four-vertex pair from the optimal-edit-path worked example:
# G is a path-square with labels B,A,A,C; Q is a star centered on C.
SQUARE_STAR_TEXT = """t # 0
v 0 B
v 1 A
v 2 A
v 3 C
e 0 1 b
e 0 2 b
e 1 3 a
e 2 3 a
t # 1
v 0 A
v 1 A
v 2 A
v 3 C
e 0 3 a
e 1 3 a
e 2 3 a
"""

# The 5-vertex / 6-vertex pair used by the heuristic and ordering examples.
PENDANT_PAIR_TEXT = """t # 0
v 0 A
v 1 B
v 2 A
v 3 A
v 4 C
e 0 2 a
e 0 3 a
e 1 3 b
e 2 4 a
e 3 4 b
t # 1
v 0 A
v 1 B
v 2 A
v 3 A
v 4 B
v 5 C
e 0 2 a
e 0 3 a
e 1 4 b
e 2 5 a
e 3 5 a
e 4 5 b
"""


def parse_pair(text: str):
    graphs, table = parse_graph_db(text)
    return graphs[0][1], graphs[1][1], table


@pytest.fixture(scope="session")
def square_star():
    g, q, _ = parse_pair(SQUARE_STAR_TEXT)
    return g, q


@pytest.fixture(scope="session")
def pendant_pair():
    g, q, _ = parse_pair(PENDANT_PAIR_TEXT)
    return g, q


def build_graph(labels: list[str], edges: list[tuple[int, int, str]],
                table: LabelTable | None = None) -> LabeledGraph:
    table = table or LabelTable()
    return LabeledGraph(
        [table.intern(t) for t in labels],
        [(u, v, table.intern(t)) for u, v, t in edges],
        table,
    )


def adjacency_built(g: LabeledGraph) -> bool:
    """Whether g has built its adjacency, read without building it."""
    return g._adjacency is not None


def identity_mapping(g: LabeledGraph) -> GraphMapping:
    return GraphMapping(tuple((u, u) for u in range(g.n)), g.n, g.n)


# Canonical codes of the paper's reduction claims: the reduced generator
# keeps exactly one mapping per code, the first under code_compare.
def canonical_code(psi: GraphMapping, part: VertexPartition) -> tuple[int, ...]:
    """Per-pair sequence of 1-based target class indices; dummies get the class count + 1."""
    class_of = {v: i for i, members in enumerate(part.classes, start=1) for v in members}
    return tuple(class_of.get(t, len(part.classes) + 1) for _, t in psi.pairs)


def code_compare(psi: GraphMapping, other: GraphMapping, part: VertexPartition) -> int:
    """Order two equal-code mappings by their target ids, first difference wins.

    Returns -1, 0, or 1. Raises ValueError when the canonical codes differ,
    since the order is only defined within one code class.
    """
    if canonical_code(psi, part) != canonical_code(other, part):
        raise ValueError("code_compare requires mappings with equal canonical codes")
    for (_, t1), (_, t2) in zip(psi.pairs, other.pairs):
        if t1 is None or t2 is None:
            continue  # equal codes put dummies at the same positions
        if t1 != t2:
            return -1 if t1 < t2 else 1
    return 0


def induced_subgraph(g: LabeledGraph, keep: list[int]) -> LabeledGraph:
    """The subgraph of g induced by keep, its vertices renumbered in that order."""
    index = {u: i for i, u in enumerate(keep)}
    return LabeledGraph(
        [g.vertex_labels[u] for u in keep],
        [(index[u], index[v], lab) for u, v, lab in g.edges if u in index and v in index],
        g.table,
    )


def unmapped_parts(mapping: GraphMapping, g: LabeledGraph, q: LabeledGraph):
    """The subgraphs of g and q induced by the vertices a mapping leaves out."""
    mapped, used = mapping.mapped_sources(), mapping.used_targets()
    return (
        induced_subgraph(g, [u for u in range(g.n) if u not in mapped]),
        induced_subgraph(q, [v for v in range(q.n) if v not in used]),
    )


def random_pair(rng: random.Random, max_n: int = 7, min_n: int = 2,
                densities=(0.2, 0.5, 0.8), alphabets=(1, 2, 5),
                table: LabelTable | None = None):
    table = table or LabelTable()
    density = rng.choice(densities)
    vlab = rng.choice(alphabets)
    elab = rng.choice(alphabets)
    g = random_graph(rng, rng.randint(min_n, max_n), density, vlab, elab, table)
    q = random_graph(rng, rng.randint(min_n, max_n), density, vlab, elab, table)
    return g, q


def all_complete_mappings(g: LabeledGraph, q: LabeledGraph):
    """Every complete mapping, enumerated independently of the generators.

    Chooses which source vertices map to real targets, then every injection
    into the targets; the rest pair with dummies.
    """
    for k in range(min(g.n, q.n) + 1):
        for srcs in itertools.combinations(range(g.n), k):
            for tgts in itertools.permutations(range(q.n), k):
                assigned = dict(zip(srcs, tgts))
                pairs = [(u, assigned.get(u)) for u in range(g.n)]
                unused = sorted(set(range(q.n)) - set(tgts))
                pairs.extend((None, z) for z in unused)
                yield GraphMapping(tuple(pairs), g.n, q.n)


@dataclass
class SweepPair:
    g: LabeledGraph
    q: LabeledGraph
    table: LabelTable
    oracle: OracleResult


@dataclass
class SweepCorpus:
    pairs: list[SweepPair]
    oracle_seconds: float

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


def make_sweep(count: int, seed: int, max_n: int = 7) -> SweepCorpus:
    import time

    rng = random.Random(seed)
    configs = list(itertools.product((0.2, 0.5, 0.8), (1, 2, 5), (1, 2, 5)))
    pairs = []
    t0 = time.perf_counter()
    for i in range(count):
        density, vlab, elab = configs[i % len(configs)]
        table = LabelTable()
        g = random_graph(rng, rng.randint(2, max_n), density, vlab, elab, table)
        q = random_graph(rng, rng.randint(2, max_n), density, vlab, elab, table)
        pairs.append(SweepPair(g, q, table, exhaustive_ged(g, q)))
    return SweepCorpus(pairs, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def sweep():
    """The acceptance corpus: 216 random pairs over all density/alphabet mixes."""
    return make_sweep(216, seed=20240817)


@pytest.fixture(scope="session")
def small_sweep():
    """Cheaper corpus for unit-level property tests."""
    return make_sweep(60, seed=99, max_n=6).pairs


@st.composite
def oracle_pairs(draw, max_n=7):
    """Two graphs of 0..max_n vertices over one table, two labels of each kind."""
    table = LabelTable()

    def graph():
        n = draw(st.integers(0, max_n))
        labels = draw(st.lists(st.sampled_from("AB"), min_size=n, max_size=n))
        slots = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
        edges = [(u, v, draw(st.sampled_from("ab"))) for u, v in chosen]
        return build_graph(labels, edges, table)

    return graph(), graph()
