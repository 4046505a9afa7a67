import copy
import dataclasses
import pickle
import random
import re
from collections import Counter

import pytest

from conftest import (
    SQUARE_STAR_TEXT,
    PENDANT_PAIR_TEXT,
    adjacency_built,
    build_graph,
    parse_pair,
    random_pair,
)
from gedkit.graphs import (
    GraphFormatError,
    LabelTable,
    LabeledGraph,
    VertexPartition,
    multiset_intersection_size,
    parse_graph_db,
    serialize_graph_db,
    vertex_partition,
)
from gedkit.bounds import summarize
from gedkit.mapping import edit_cost
from gedkit.successors import determine_order
from gedkit.synth import random_graph
from conftest import all_complete_mappings


def test_parse_minimal_record():
    graphs, table = parse_graph_db("t # 0\nv 0 A\nv 1 B\ne 0 1 a\n")
    assert len(graphs) == 1
    gid, g = graphs[0]
    assert gid == 0
    assert g.n == 2 and g.m == 1
    assert table.token(g.vertex_labels[0]) == "A"


def test_parse_square_star_g_degrees():
    g, q, _ = parse_pair(SQUARE_STAR_TEXT)
    assert summarize(g).degrees == (2, 2, 2, 2)
    assert summarize(q).degrees == (3, 1, 1, 1)


def test_parse_self_loop_rejected():
    with pytest.raises(GraphFormatError) as err:
        parse_graph_db("t # 0\nv 0 A\ne 0 0 a\n")
    assert "line 3" in str(err.value)
    assert "self-loop" in str(err.value)


# The line each case's error must name, keyed by its message fragment. A
# duplicate graph id is reported at its own header, not at the next one.
ERROR_LINES = {
    "duplicate vertex": 3,
    "contiguous": 3,
    "unknown vertex": 3,
    "duplicate edge": 5,
    "unrecognized": 3,
    "malformed": 1,
    "before any": 1,
    "duplicate graph id": 2,
}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("t # 0\nv 0 A\nv 0 B\n", "duplicate vertex"),
        ("t # 0\nv 0 A\nv 2 B\n", "contiguous"),
        ("t # 0\nv 0 A\ne 0 5 a\n", "unknown vertex"),
        ("t # 0\nv 0 A\nv 1 B\ne 0 1 a\ne 1 0 b\n", "duplicate edge"),
        ("t # 0\nv 0 A\nw 1 B\n", "unrecognized"),
        ("t nope\n", "malformed"),
        ("v 0 A\n", "before any"),
        ("t # 0\nt # 0\n", "duplicate graph id"),
    ],
)
def test_parse_errors_name_line(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph_db(text)
    line = ERROR_LINES[fragment]
    assert fragment in str(err.value)
    assert str(err.value).startswith(f"line {line}: ")
    assert err.value.line_no == line


def test_parse_comments_blank_lines_and_crlf():
    text = "# db header\r\n\r\nt # 7\r\nv 0 A\r\n# inline comment\r\nv 1 A\r\ne 0 1 x\r\n"
    graphs, _ = parse_graph_db(text)
    assert graphs[0][0] == 7
    assert graphs[0][1].n == 2


@pytest.mark.parametrize("raw, message", [
    ("  t  #  ", "malformed graph header 't  #'"),
    ("\tt # 1 2\t ", "malformed graph header 't # 1 2'"),
    (" t # x\t", "graph id must be an integer, got 'x'"),
    (" v 2\t", "malformed vertex line 'v 2'"),
    ("\tv 2 C D  ", "malformed vertex line 'v 2 C D'"),
    ("\t v x C ", "vertex id must be an integer, got 'x'"),
    ("  e 0 1 ", "malformed edge line 'e 0 1'"),
    ("e\t0 1 a b\t ", "malformed edge line 'e\\t0 1 a b'"),
    (" e 0 y a\t", "edge endpoints must be integers"),
    ("\tt# 1 ", "unrecognized record 't# 1'"),
    ("t#", "unrecognized record 't#'"),
], ids=["t-short", "t-long", "t-id", "v-short", "v-long", "v-id", "e-short", "e-long",
        "e-endpoint", "t#-id", "t#"])
def test_parse_error_text_quotes_the_stripped_line(raw, message):
    # A record is split on whitespace, and a message quotes the line with
    # its leading and trailing whitespace stripped, inner whitespace kept.
    with pytest.raises(GraphFormatError) as err:
        parse_graph_db(f"t # 0\nv 0 A\nv 1 B\n{raw}\n")
    assert str(err.value) == f"line 4: {message}"
    assert err.value.line_no == 4


def test_parse_skips_blank_and_comment_lines():
    plain = "t # 1\nv 0 A\nv 1 B\ne 0 1 a\n"
    noisy = ("   \t  \n#\nt # 1\n   # note\nv 0 A\n\t#v 9 Z\n#t # 0\n \n"
             "v 1 B\n#e 0 1 b\ne 0 1 a\n\t\n#\n")
    assert parse_graph_db(noisy)[0] == parse_graph_db(plain)[0]
    # "#t # 0" is a comment, not a header, so no graph is open after it.
    with pytest.raises(GraphFormatError) as err:
        parse_graph_db("#t # 0\nv 0 A\n")
    assert str(err.value) == "line 2: vertex line before any 't' header"


@pytest.mark.parametrize("text, line", [
    ("t # 0\ne 0 1 a\nv 0 A\nv 1 B\n", 2),
    ("t # 0\nv 0 A\ne 0 1 a\nv 1 B\n", 3),
    ("t # 0\nv 0 A\nv 1 B\nt # 1\nv 0 A\ne 0 1 a\nv 1 B\n", 6),
])
def test_parse_refuses_edges_before_their_vertices(text, line):
    with pytest.raises(GraphFormatError) as err:
        parse_graph_db(text)
    assert str(err.value) == f"line {line}: edge (0,1) references unknown vertex"


def test_round_trip_random_graphs():
    rng = random.Random(5)
    table = LabelTable()
    entries = []
    for gid in range(20):
        g, _ = random_pair(rng, max_n=7, table=table)
        entries.append((gid, g))
    text = serialize_graph_db(entries)
    reparsed, _ = parse_graph_db(text)
    assert [gid for gid, _ in reparsed] == [gid for gid, _ in entries]
    for (_, a), (_, b) in zip(entries, reparsed):
        assert a == b
    assert serialize_graph_db(reparsed) == text


@pytest.mark.parametrize("token", ["a b", "", "a\tb", " a"])
def test_serialize_refuses_unparseable_tokens(token):
    # The parser splits records on whitespace, so such a token could not be
    # read back; serializing it must fail rather than write bad text.
    table = LabelTable()
    vertex = build_graph(["A"], [], table)
    bad = table.intern(token)
    for g in (LabeledGraph([bad], [], table),
              LabeledGraph([vertex.vertex_labels[0]] * 2, [(0, 1, bad)], table)):
        with pytest.raises(ValueError, match="label token"):
            serialize_graph_db([(0, g)])


def test_serialize_refuses_label_ids_the_table_never_issued():
    # Label ids index the table's tokens: -1 would read its last token and
    # an id past the end has none, so neither may be written.
    table = LabelTable()
    a = table.intern("A")
    table.intern("B")
    for bad in (-1, 2):
        g = LabeledGraph([a, bad], [(0, 1, a)], table)
        with pytest.raises(ValueError, match=f"label id {bad} was never issued"):
            serialize_graph_db([(0, g)])
        h = LabeledGraph([a, a], [(0, 1, bad)], table)
        with pytest.raises(ValueError, match=f"label id {bad} was never issued"):
            serialize_graph_db([(0, h)])


@pytest.mark.parametrize("ids, message", [
    ((0, 0), "duplicate graph id 0"),
    (("x",), "graph id must be an integer, got 'x'"),
    ((True,), "graph id must be an integer, got True"),
    ((1.5,), "graph id must be an integer, got 1.5"),
], ids=["duplicate", "str", "bool", "float"])
def test_serialize_refuses_graph_ids_that_do_not_parse_back(ids, message):
    g = build_graph(["A", "B"], [(0, 1, "x")])
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize_graph_db([(gid, g) for gid in ids])
    # parse_graph_db refuses the same ids.
    text = "".join(f"t # {gid}\nv 0 A\n" for gid in ids)
    with pytest.raises(GraphFormatError):
        parse_graph_db(text)


def test_neighborhood_square_star_q():
    _, q, table = parse_pair(SQUARE_STAR_TEXT)
    a = table.intern("a")
    assert frozenset(q.adjacency[0].items()) == {(3, a)}
    assert (frozenset(q.adjacency[0].items()) == frozenset(q.adjacency[1].items())
            == frozenset(q.adjacency[2].items()))


def test_neighborhood_isolated_and_pendant_pair():
    g = build_graph(["A", "B"], [])
    assert frozenset(g.adjacency[0].items()) == frozenset()
    g4, _, table = parse_pair(PENDANT_PAIR_TEXT)
    assert frozenset(g4.adjacency[4].items()) == {(2, table.intern("a")), (3, table.intern("b"))}
    with pytest.raises(IndexError):
        g4.adjacency[99]


def test_constructor_rejects_bad_edges():
    # Graphs built without the parser (synth.random_graph, hand-built
    # queries) rely on the constructor's own checks.
    table = LabelTable()
    A, a, b = table.intern("A"), table.intern("a"), table.intern("b")
    with pytest.raises(ValueError, match="unknown vertex"):
        LabeledGraph([A, A], [(0, 2, a)], table)
    with pytest.raises(ValueError, match="unknown vertex"):
        LabeledGraph([A, A], [(-1, 0, a)], table)
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph([A, A], [(1, 1, a)], table)
    with pytest.raises(ValueError, match="duplicate edge"):
        LabeledGraph([A, A], [(0, 1, a), (1, 0, b)], table)


@pytest.mark.parametrize("u, v", [(0.5, 1), (True, 0), (0, False), ("0", 1), (1.0, 0)])
def test_constructor_refuses_endpoints_that_are_not_ints(u, v):
    # 0.5 and True would be written out as "e 0.5 1" and "e 0 True", which
    # parse_graph_db refuses; a str would fail the range check with a
    # TypeError.
    table = LabelTable()
    A, a = table.intern("A"), table.intern("a")
    with pytest.raises(ValueError, match="edge endpoints must be integers"):
        LabeledGraph([A, A], [(u, v, a)], table)
    g = LabeledGraph([A, A], [(1, 0, a)], table)
    assert (g.n, g.m) == (2, 1)
    assert parse_graph_db(serialize_graph_db([(0, g)]), table)[0] == [(0, g)]


@pytest.mark.parametrize("vertex_label, edge_label", [
    ("x", 0), (True, 0), (1.0, 0), (0, "x"), (0, 0.5), (0, True), (0, False), (None, 0),
])
def test_constructor_refuses_labels_that_are_not_ints(vertex_label, edge_label):
    # serialize_graph_db could not write these out: a str label failed with
    # TypeError when LabelTable.token compared it to an int, a float one
    # with TypeError when it indexed the token list.
    table = LabelTable()
    A, a = table.intern("A"), table.intern("a")
    with pytest.raises(ValueError, match="label ids must be integers"):
        LabeledGraph([A, vertex_label, A], [(0, 1, a), (2, 1, edge_label)], table)
    # A bad label is caught before sorting can compare it with an int label
    # of a duplicate edge.
    with pytest.raises(ValueError, match="label ids must be integers"):
        LabeledGraph([vertex_label, A], [(0, 1, a), (1, 0, edge_label)], table)


def test_constructor_ignores_edge_order_and_orientation():
    rng = random.Random(17)
    for _ in range(40):
        g, _ = random_pair(rng, max_n=9)
        given = [(v, u, lab) if rng.random() < 0.5 else (u, v, lab) for u, v, lab in g.edges]
        rng.shuffle(given)
        h = LabeledGraph(g.vertex_labels, given, g.table)
        assert h.edges == g.edges
        assert h == g and hash(h) == hash(g)
        assert h.adjacency == g.adjacency
        assert vertex_partition(h) == vertex_partition(g)
        # Each edge appears under both endpoints and nowhere else.
        assert sorted(
            (u, v, lab) for u in range(h.n) for v, lab in h.adjacency[u].items() if u < v
        ) == list(g.edges)
        assert all(h.adjacency[v][u] == lab for u, v, lab in g.edges)


def test_adjacency_is_read_only():
    g, _, _ = parse_pair(SQUARE_STAR_TEXT)
    u, v, lab = g.edges[0]
    with pytest.raises(TypeError):
        g.adjacency[u][v] = lab
    with pytest.raises(TypeError):
        g.adjacency[u][g.n] = lab
    with pytest.raises(TypeError):
        del g.adjacency[u][v]
    with pytest.raises(TypeError):
        g.adjacency[u] = {}
    assert g.adjacency[u][v] == g.adjacency[v][u] == lab


@pytest.mark.parametrize("attr", ["vertex_labels", "edges", "adjacency", "table"])
def test_graph_attributes_are_read_only(attr):
    g, q, _ = parse_pair(SQUARE_STAR_TEXT)
    before = (g.vertex_labels, g.edges, g.adjacency, g.table, hash(g))
    with pytest.raises(AttributeError):
        setattr(g, attr, getattr(q, attr))
    with pytest.raises(AttributeError):
        delattr(g, attr)
    assert (g.vertex_labels, g.edges, g.adjacency, g.table, hash(g)) == before
    assert g != q


def test_graph_copy_and_pickle():
    g, _, _ = parse_pair(SQUARE_STAR_TEXT)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g)
        assert [dict(a) for a in twin.adjacency] == [dict(a) for a in g.adjacency]
        assert [twin.table.token(x) for x in twin.vertex_labels] == \
            [g.table.token(x) for x in g.vertex_labels]
    assert copy.copy(g).table is g.table


def test_isolated_vertices_share_one_empty_view():
    g = build_graph(["A", "B", "A", "C"], [(0, 2, "x")])
    iso1, iso2 = g.adjacency[1], g.adjacency[3]
    assert iso1 is iso2 and len(iso1) == 0 and dict(iso1) == {}
    with pytest.raises(TypeError):
        iso1[0] = 1
    with pytest.raises(TypeError):
        del iso1[0]
    assert dict(g.adjacency[0]) == {2: g.adjacency[0][2]}
    twin = build_graph(["A", "B", "A", "C"], [(0, 2, "x")], g.table)
    assert twin == g and hash(twin) == hash(g)
    for copied in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert copied == g and hash(copied) == hash(g)
        assert [dict(a) for a in copied.adjacency] == [dict(a) for a in g.adjacency]
        assert copied.adjacency[3] is iso1
    assert build_graph(["A", "B"], [], g.table) != build_graph(["A", "C"], [], g.table)


def _seeded_graphs(seed: int, count: int):
    """Graphs of 0-12 vertices; the sparse ones have isolated vertices."""
    rng = random.Random(seed)
    table = LabelTable()
    return [random_graph(rng, rng.randint(0, 12), rng.choice((0.05, 0.1, 0.3, 0.8)),
                         rng.choice((1, 2, 5)), rng.choice((1, 2)), table)
            for _ in range(count)]


def test_adjacency_built_once_on_first_read():
    isolated = 0
    for g in _seeded_graphs(18, 200):
        assert not adjacency_built(g)
        # Refused writes do not build it either.
        with pytest.raises(AttributeError):
            g.adjacency = ()
        with pytest.raises(AttributeError):
            del g.adjacency
        assert not adjacency_built(g)
        # The eager build: both orientations of every edge, one map per vertex.
        eager = [{} for _ in range(g.n)]
        for u, v, lab in g.edges:
            eager[u][v] = lab
            eager[v][u] = lab
        assert isinstance(g, LabeledGraph)
        first = g.adjacency
        assert adjacency_built(g)
        assert g.adjacency is first
        # Later reads go through no __getattr__ hook, which would slow
        # every attribute read of the graph.
        assert not hasattr(type(g), "__getattr__")
        assert [dict(a) for a in first] == eager
        isolated += sum(1 for a in eager if not a)
    assert isolated >= 100
    for g in (g, build_graph(["A"], [])):
        with pytest.raises(AttributeError, match="no attribute 'adjacencies'"):
            g.adjacencies


def test_graph_type_never_changes():
    g, _, _ = parse_pair(SQUARE_STAR_TEXT)
    made = build_graph(["A", "B", "A"], [(0, 1, "x")])
    for graph in (g, made, copy.copy(g), copy.deepcopy(made), pickle.loads(pickle.dumps(g))):
        assert type(graph) is LabeledGraph and not adjacency_built(graph)
        graph.adjacency
        assert type(graph) is LabeledGraph and adjacency_built(graph)


class _PlainGraph(LabeledGraph):
    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


class _SlottedGraph(LabeledGraph):
    __slots__ = ()

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


@pytest.mark.parametrize("cls", [_PlainGraph, _SlottedGraph])
def test_subclasses_keep_type_and_methods(cls):
    table = LabelTable()
    a, x = table.intern("A"), table.intern("x")
    g = cls([a, a, a], [(0, 1, x), (2, 1, x)], table)
    assert type(g) is cls and not adjacency_built(g)
    assert vertex_partition(g).classes == ((0, 2), (1,))
    assert not adjacency_built(g)
    assert [g.degree(u) for u in range(g.n)] == [1, 2, 1]
    assert type(g) is cls and adjacency_built(g)
    assert g == LabeledGraph(g.vertex_labels, g.edges, table)
    with pytest.raises(AttributeError):
        g.extra = 1
    # The partition and the default (connected) order are kept on the
    # graph: later calls return the first call's objects.
    part, order = vertex_partition(g), determine_order(g, "connected")
    assert vertex_partition(g) is part and determine_order(g, "connected") is order
    assert order == (1, 0, 2)
    # Copies and pickles rebuild the subclass, not a plain LabeledGraph, and
    # do not share the kept values: each copy recomputes equal ones.
    for copied in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(copied) is cls and copied == g
        assert [copied.degree(u) for u in range(copied.n)] == [1, 2, 1]
        kept = vertex_partition(copied)
        assert kept == part and kept is not part and vertex_partition(copied) is kept
        kept = determine_order(copied, "connected")
        assert kept == order and kept is not order and determine_order(copied, "connected") is kept
    assert vertex_partition(g) is part and determine_order(g, "connected") is order


def test_partition_has_slots_and_compares_by_value():
    # Every searched or indexed graph keeps its partition, so it carries no
    # per-instance __dict__; equality, hashing and immutability are the
    # frozen dataclass's as before.
    g = build_graph(["A", "A", "A"], [(0, 1, "x"), (2, 1, "x")])
    part = vertex_partition(g)
    assert not hasattr(part, "__dict__") and VertexPartition.__slots__ == ("classes",)
    same = VertexPartition(((0, 2), (1,)))
    assert part == same and hash(part) == hash(same) == hash((((0, 2), (1,)),))
    assert part != VertexPartition(((0,), (1,), (2,)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        part.classes = ()


def _partition_from_adjacency(q: LabeledGraph) -> VertexPartition:
    """vertex_partition's definition, read from the adjacency maps."""
    groups: dict[tuple, list[int]] = {}
    for v in range(q.n):
        groups.setdefault((q.vertex_labels[v], frozenset(q.adjacency[v].items())), []).append(v)
    return VertexPartition(tuple(tuple(c) for c in sorted(groups.values(), key=lambda c: c[0])))


def test_vertex_partition_reads_edges_only():
    merged = 0
    for q in _seeded_graphs(19, 300):
        part = vertex_partition(q)
        assert not adjacency_built(q)
        assert part == _partition_from_adjacency(q)
        merged += len(part.classes) < q.n
    assert merged >= 100


def test_vertex_partition_with_label_ids_far_above_n():
    # On a table that already holds 120 tokens, label ids are many multiples
    # of each graph's vertex count, so a neighbour (v, label) folded into one
    # int must stay one-to-one across labels and vertices.
    rng = random.Random(23)
    table = LabelTable()
    for i in range(120):
        table.intern(f"pad{i}")
    labels = [table.intern(f"L{i}") for i in range(6)]
    merged = isolated = 0
    for _ in range(500):
        n = rng.randint(0, 10)
        vertex_labels = [rng.choice(labels[:2]) for _ in range(n)]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
        q = LabeledGraph(vertex_labels, [(u, v, rng.choice(labels[3:])) for u, v in pairs], table)
        part = vertex_partition(q)
        assert part == _partition_from_adjacency(q)
        firsts = [c[0] for c in part.classes]
        assert firsts == sorted(firsts) and all(list(c) == sorted(c) for c in part.classes)
        merged += len(part.classes) < q.n
        isolated += sum(1 for v in range(q.n) if not q.adjacency[v])
    assert merged >= 100 and isolated >= 100
    # v + label folds (2, L1) and (3, L0) onto one int; the partition keeps
    # vertices 0 and 1 apart.
    a, x, y = labels[0], labels[0], labels[1]
    q = LabeledGraph([a, a, a, a], [(0, 2, y), (1, 3, x)], table)
    assert vertex_partition(q).classes == ((0,), (1,), (2,), (3,))


def test_vertex_partition_square_star():
    _, q, _ = parse_pair(SQUARE_STAR_TEXT)
    part = vertex_partition(q)
    assert part.classes == ((0, 1, 2), (3,))
    assert len(part.classes) == 2


def test_vertex_partition_distinct_and_empty():
    g = build_graph(["A", "B", "C"], [(0, 1, "x")])
    part = vertex_partition(g)
    assert len(part.classes) == 3
    assert all(len(c) == 1 for c in part.classes)
    empty = build_graph([], [])
    assert len(vertex_partition(empty).classes) == 0


def test_partition_members_swap_invariant():
    # Vertices in one class are interchangeable: swapping their roles in any
    # complete mapping leaves the edit cost unchanged.
    rng = random.Random(11)
    checked = 0
    while checked < 6:
        q, g = random_pair(rng, max_n=5)
        part = vertex_partition(q)
        cls = next((c for c in part.classes if len(c) >= 2), None)
        if cls is None:
            continue
        a, b = cls[0], cls[1]
        swap = {a: b, b: a}
        for psi in all_complete_mappings(g, q):
            swapped_pairs = tuple(
                (s, swap.get(t, t) if t is not None else None) for s, t in psi.pairs
            )
            swapped = type(psi)(swapped_pairs, psi.n_source, psi.n_target)
            assert edit_cost(psi, g, q).total == edit_cost(swapped, g, q).total
        checked += 1


def test_degree_sequences():
    assert summarize(build_graph(["A"] * 3, [])).degrees == (0, 0, 0)
    g4, _, _ = parse_pair(PENDANT_PAIR_TEXT)
    # Oracle: count incident edges per vertex straight off the edge list.
    counts = Counter()
    for u, v, _ in g4.edges:
        counts[u] += 1
        counts[v] += 1
    expected = tuple(sorted((counts[u] for u in range(g4.n)), reverse=True))
    assert expected == (3, 2, 2, 2, 1)
    assert summarize(g4).degrees == expected


def test_label_multisets_square_star():
    g, _, table = parse_pair(SQUARE_STAR_TEXT)
    s = summarize(g)
    assert s.vertex_labels == {table.intern("A"): 2, table.intern("B"): 1, table.intern("C"): 1}
    assert s.edge_labels == {table.intern("a"): 2, table.intern("b"): 2}
    empty = summarize(build_graph([], []))
    assert empty.vertex_labels == {} and empty.edge_labels == {}


def test_multiset_intersection_properties():
    rng = random.Random(3)
    for _ in range(50):
        a = Counter({k: rng.randint(1, 4) for k in rng.sample(range(10), rng.randint(0, 6))})
        b = Counter({k: rng.randint(1, 4) for k in rng.sample(range(10), rng.randint(0, 6))})
        assert multiset_intersection_size(a, b) == multiset_intersection_size(b, a)
        assert multiset_intersection_size(a, a) == sum(a.values())


def test_label_interning():
    table = LabelTable()
    ids = [table.intern(tok) for tok in ["x", "y", "x", "z"]]
    assert ids[0] == ids[2]
    assert len({ids[0], ids[1], ids[3]}) == 3
