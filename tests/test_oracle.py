import ast
import itertools
import random
from pathlib import Path

import pytest

from conftest import all_complete_mappings, build_graph, identity_mapping, make_sweep, random_pair
from gedkit.engine import bss_ged
from gedkit.graphs import LabelTable, LabeledGraph
from gedkit.mapping import GraphMapping, edit_cost, realize_edit_path
from gedkit.oracle import (
    EditPathError,
    OracleLimitError,
    OracleLimits,
    check_edit_path,
    count_complete_basic_mappings,
    exhaustive_ged,
)
from gedkit.synth import random_graph, random_graph_db


def renumbered(g, rng):
    """g with its vertex ids shuffled: the same graph up to isomorphism."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    inv = {old: new for new, old in enumerate(perm)}
    return LabeledGraph(
        [g.vertex_labels[perm[i]] for i in range(g.n)],
        [(inv[u], inv[v], lab) for u, v, lab in g.edges],
        g.table,
    )


def test_square_star_distance(square_star):
    g, q = square_star
    res = exhaustive_ged(g, q)
    assert res.distance == 4
    assert res.mappings_enumerated == count_complete_basic_mappings(4, 4) == 209
    assert edit_cost(res.mapping, g, q).total == 4


def test_self_distance_zero(square_star, pendant_pair):
    for g in (*square_star, *pendant_pair):
        res = exhaustive_ged(g, g)
        assert res.distance == 0
        assert edit_cost(res.mapping, g, g).total == 0


def test_empty_graph_distance(square_star):
    g, _ = square_star
    empty = build_graph([], [], g.table)
    assert exhaustive_ged(empty, g).distance == g.n + g.m
    assert exhaustive_ged(g, empty).distance == g.n + g.m
    assert exhaustive_ged(empty, empty).distance == 0


def test_limits_refusal():
    table = LabelTable()
    big = build_graph(["A"] * 9, [], table)
    small = build_graph(["A"], [], table)
    with pytest.raises(OracleLimitError):
        exhaustive_ged(big, small)
    with pytest.raises(OracleLimitError):
        exhaustive_ged(small, big)


def test_limit_is_a_constant():
    # The cap is not a setting: the class takes no arguments, and the
    # oracle refuses a 9-vertex graph whatever a caller tried to pass.
    assert OracleLimits().max_vertices == OracleLimits.max_vertices == 8
    with pytest.raises(TypeError):
        OracleLimits(max_vertices=9)
    table = LabelTable()
    nine = build_graph(["A"] * 9, [], table)
    with pytest.raises(OracleLimitError):
        exhaustive_ged(nine, nine)


def test_oracle_minimum_over_all_mappings():
    rng = random.Random(51)
    for _ in range(8):
        g, q = random_pair(rng, max_n=4)
        res = exhaustive_ged(g, q)
        costs = [edit_cost(psi, g, q).total for psi in all_complete_mappings(g, q)]
        assert res.distance == min(costs)
        assert res.mappings_enumerated == len(costs)


# exhaustive_ged's full output, (distance, mappings_enumerated,
# mapping.pairs), on make_sweep(40, 7) and then on the pairs (0, 1) and
# (2, 3) of random_graph_db(1, 4, 8, 8, 0.3, 5, 2). Any change to how the
# oracle walks the tree or prices a leaf must leave all three alone: the
# same distance, every mapping visited, and the same first optimal mapping.
PINNED_ORACLE_OUTPUTS = [
    (0, 209, ((0, 0), (1, 1), (2, 3), (3, 2))),
    (7, 43, ((0, 0), (1, 1), (None, 2), (None, 3), (None, 4), (None, 5))),
    (6, 229, ((0, 1), (1, 4), (2, 0), (None, 2), (None, 3), (None, 5))),
    (5, 1045, ((0, 0), (1, 2), (2, None), (3, 1), (4, None), (5, 3))),
    (5, 31, ((0, 0), (1, None), (2, None), (3, 1), (4, None))),
    (8, 358, ((0, 1), (1, None), (2, 0), (3, 2), (4, None), (5, None), (6, None))),
    (6, 9276, ((0, 5), (1, 3), (2, 1), (3, 0), (4, 2), (None, 4), (None, 6))),
    (8, 43, ((0, 4), (1, 0), (None, 1), (None, 2), (None, 3), (None, 5))),
    (5, 1546, ((0, 0), (1, 1), (2, 4), (3, 3), (4, 2))),
    (12, 43, ((0, 0), (1, 1), (2, None), (3, None), (4, None), (5, None))),
    (4, 4051, ((0, 5), (1, 0), (2, 1), (3, 4), (4, 2), (None, 3))),
    (3, 13, ((0, 0), (1, 1), (None, 2))),
    (15, 57, ((0, 0), (1, 1), (2, None), (3, None), (4, None), (5, None), (6, None))),
    (7, 4051, ((0, 0), (1, None), (2, 4), (3, 1), (4, 2), (5, 3))),
    (11, 1045, ((0, 0), (1, 2), (2, 3), (3, 4), (None, 1), (None, 5))),
    (3, 13, ((0, 1), (1, 0), (None, 2))),
    (4, 34, ((0, 0), (1, 1), (2, 2))),
    (9, 4051, ((0, 1), (1, None), (2, 0), (3, 4), (4, 3), (5, 2))),
    (21, 57, ((0, 0), (1, 1), (2, None), (3, None), (4, None), (5, None), (6, None))),
    (15, 1961, ((0, 0), (1, 2), (2, 1), (3, None), (4, None), (5, None), (6, 3))),
    (14, 37633, ((0, 0), (1, 1), (2, 4), (3, 6), (4, 5), (5, 3), (None, 2))),
    (2, 13327, ((0, 3), (1, 2), (2, 1), (3, 0), (4, 5), (5, 4))),
    (15, 1961, ((0, 3), (1, 0), (2, 4), (3, 1), (None, 2), (None, 5), (None, 6))),
    (9, 501, ((0, 0), (1, 2), (2, None), (3, 3), (4, 1))),
    (5, 73, ((0, 0), (1, 1), (2, 2), (None, 3))),
    (6, 73, ((0, 0), (1, 1), (2, None), (3, 2))),
    (13, 4051, ((0, None), (1, 0), (2, 3), (3, 2), (4, 4), (5, 1))),
    (1, 73, ((0, 0), (1, 2), (2, 3), (None, 1))),
    (3, 136, ((0, 0), (1, 3), (2, 1), (None, 2), (None, 4))),
    (4, 9276, ((0, 1), (1, 2), (2, 0), (3, 6), (4, 3), (None, 4), (None, 5))),
    (6, 1961, ((0, 0), (1, 1), (2, None), (3, None), (4, None), (5, 2), (6, 3))),
    (7, 358, ((0, 6), (1, 0), (2, 5), (None, 1), (None, 2), (None, 3), (None, 4))),
    (3, 209, ((0, 1), (1, 3), (2, 2), (3, 0))),
    (7, 9276, ((0, 0), (1, 1), (2, 5), (3, 3), (4, 6), (None, 2), (None, 4))),
    (6, 31, ((0, 0), (1, None), (2, None), (3, 1), (4, None))),
    (6, 31, ((0, 2), (1, 0), (None, 1), (None, 3), (None, 4))),
    (15, 57, ((0, 0), (1, 1), (2, None), (3, None), (4, None), (5, None), (6, None))),
    (2, 34, ((0, 1), (1, 0), (2, 2))),
    (15, 57, ((0, 0), (1, 1), (2, None), (3, None), (4, None), (5, None), (6, None))),
    (4, 501, ((0, 0), (1, 1), (2, 3), (3, None), (4, 2))),
    (12, 1441729, ((0, 1), (1, 5), (2, 0), (3, 3), (4, 6), (5, 7), (6, 4), (7, 2))),
    (10, 1441729, ((0, 1), (1, 4), (2, 7), (3, 2), (4, 5), (5, 0), (6, 6), (7, 3))),
]


def test_oracle_output_pinned():
    pairs = [(p.g, p.q) for p in make_sweep(40, 7).pairs]
    graphs = [g for _, g in random_graph_db(1, 4, 8, 8, 0.3, 5, 2)[0]]
    pairs += [(graphs[0], graphs[1]), (graphs[2], graphs[3])]
    got = []
    for g, q in pairs:
        res = exhaustive_ged(g, q)
        got.append((res.distance, res.mappings_enumerated, res.mapping.pairs))
    assert got == PINNED_ORACLE_OUTPUTS


def test_oracle_imports_only_graphs_and_mapping():
    # The oracle certifies the successor rules, the bounds and the engine,
    # so it must not share their code: from the package it may import only
    # the graph type and the mapping cost model.
    path = Path(__file__).resolve().parent.parent / "src" / "gedkit" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "gedkit":
                    continue
                module = module.partition(".")[2]
            imported.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported.update(a.name.partition(".")[2] or a.name for a in node.names
                            if a.name.split(".")[0] == "gedkit")
    assert imported <= {"graphs", "mapping"}, imported

def test_oracle_symmetry_and_triangle(small_sweep):
    rng = random.Random(52)
    for pair in rng.sample(small_sweep, 20):
        assert exhaustive_ged(pair.q, pair.g).distance == pair.oracle.distance
    # Triangle inequality over sampled same-table triples.
    table = LabelTable()
    graphs = [random_pair(rng, max_n=5, table=table)[0] for _ in range(10)]
    for a, b, c in itertools.islice(itertools.combinations(graphs, 3), 50):
        dab = exhaustive_ged(a, b).distance
        dbc = exhaustive_ged(b, c).distance
        dac = exhaustive_ged(a, c).distance
        assert dac <= dab + dbc


def test_zero_distance_basics(square_star):
    g, q = square_star
    assert exhaustive_ged(g, g).distance == 0
    assert exhaustive_ged(g, q).distance > 0  # degree sequences differ


def test_zero_distance_under_renumbering():
    rng = random.Random(53)
    for _ in range(15):
        g, _ = random_pair(rng, max_n=7)
        assert exhaustive_ged(g, renumbered(g, rng)).distance == 0


def test_zero_distance_label_sensitivity():
    g = build_graph(["A", "B"], [(0, 1, "x")])
    t = g.table
    assert exhaustive_ged(g, build_graph(["A", "A"], [(0, 1, "x")], t)).distance > 0
    assert exhaustive_ged(g, build_graph(["A", "B"], [(0, 1, "y")], t)).distance > 0
    assert exhaustive_ged(g, build_graph(["B", "A"], [(0, 1, "x")], t)).distance == 0


def test_engine_zero_distance_past_oracle_cap():
    # bss_ged answers ged == 0 where exhaustive_ged refuses the size.
    rng = random.Random(54)
    table = LabelTable()
    for n in range(9, 15):
        g = random_graph(rng, n, 0.3, 4, 2, table)
        assert bss_ged(g, renumbered(g, rng)).distance == 0


def test_check_edit_path_example1(square_star):
    g, q = square_star
    table = g.table
    ops = [
        {"op": "del_edge", "u": 0, "v": 1},
        {"op": "del_edge", "u": 0, "v": 2},
        {"op": "sub_vertex", "u": 0, "label": table.intern("A")},
        {"op": "ins_edge", "u": 0, "v": 3, "label": table.intern("a")},
    ]
    assert check_edit_path(g, q, ops, identity_mapping(g))


def test_check_edit_path_empty_ops(square_star):
    g, _ = square_star
    assert check_edit_path(g, g, [], identity_mapping(g))


def test_check_edit_path_rejects_inapplicable(square_star):
    g, q = square_star
    psi = identity_mapping(g)
    with pytest.raises(EditPathError, match="not isolated"):
        check_edit_path(g, q, [{"op": "del_vertex", "u": 0}], psi)
    with pytest.raises(EditPathError, match="duplicate edge"):
        check_edit_path(g, q, [{"op": "ins_edge", "u": 0, "v": 1, "label": 1}], psi)
    with pytest.raises(EditPathError, match="does not exist"):
        check_edit_path(g, q, [{"op": "del_edge", "u": 1, "v": 2}], psi)
    with pytest.raises(EditPathError, match="unknown operation"):
        check_edit_path(g, q, [{"op": "recolor", "u": 0}], psi)
    with pytest.raises(EditPathError, match="already exists"):
        check_edit_path(g, q, [{"op": "ins_vertex", "u": 0, "label": 1}], psi)


@pytest.mark.parametrize("op, reason", [
    pytest.param({"op": "del_edge", "u": "a", "v": 0}, "vertex field 'u'", id="str-vertex"),
    pytest.param({"op": "del_edge", "u": [0], "v": 1}, "vertex field 'u'", id="list-vertex"),
    pytest.param({"op": "ins_vertex", "u": "x", "label": 1}, "vertex field 'u'", id="str-new-vertex"),
    pytest.param(None, "not a dict", id="none"),
    pytest.param("del_edge", "not a dict", id="string"),
])
def test_check_edit_path_rejects_malformed(square_star, op, reason):
    g, q = square_star
    with pytest.raises(EditPathError, match=reason) as exc:
        check_edit_path(g, q, [op], identity_mapping(g))
    assert exc.value.index == 0


@pytest.mark.parametrize("op, field", [
    pytest.param({"op": "del_edge", "u": 0}, "v", id="del_edge"),
    pytest.param({"op": "ins_edge", "u": 0, "v": 3}, "label", id="ins_edge"),
    pytest.param({"op": "sub_edge", "u": 0, "v": 1}, "label", id="sub_edge"),
    pytest.param({"op": "del_vertex"}, "u", id="del_vertex"),
    pytest.param({"op": "ins_vertex", "u": 9}, "label", id="ins_vertex"),
    pytest.param({"op": "sub_vertex", "u": 0}, "label", id="sub_vertex"),
])
def test_check_edit_path_missing_field(square_star, op, field):
    # Every other field is present and applicable, so only the missing one
    # can stop the op; the error names it and the op's index.
    g, q = square_star
    ops = [{"op": "sub_vertex", "u": 1, "label": g.table.intern("A")}, op]
    with pytest.raises(EditPathError, match=f"op 1 .*missing field '{field}'") as exc:
        check_edit_path(g, q, ops, identity_mapping(g))
    assert exc.value.index == 1


def test_realized_optimal_paths_verify(small_sweep):
    for pair in small_sweep[:30]:
        ops = realize_edit_path(pair.oracle.mapping, pair.g, pair.q)
        assert len(ops) == pair.oracle.distance
        assert check_edit_path(pair.g, pair.q, ops, pair.oracle.mapping)


def test_wrong_path_detected(square_star):
    g, q = square_star
    # Deleting one edge of G does not produce Q.
    assert not check_edit_path(g, q, [{"op": "del_edge", "u": 0, "v": 1}], identity_mapping(g))


def random_complete_mapping(rng, n_g, n_q):
    """A uniformly shuffled complete mapping: k matched pairs, the other
    sources deleted and the other targets inserted."""
    k = rng.randint(0, min(n_g, n_q))
    sources = rng.sample(range(n_g), n_g)
    targets = rng.sample(range(n_q), n_q)
    pairs = list(zip(sources[:k], targets[:k]))
    pairs += [(u, None) for u in sources[k:]]
    pairs += [(None, y) for y in targets[k:]]
    return GraphMapping(tuple(pairs), n_g, n_q)


def swap_fixes(q, a, b):
    """Whether exchanging target vertices a and b maps q onto itself."""
    perm = list(range(q.n))
    perm[a], perm[b] = b, a
    edges = {(min(u, v), max(u, v)): lab for u, v, lab in q.edges}
    moved = {(min(perm[u], perm[v]), max(perm[u], perm[v])): lab for (u, v), lab in edges.items()}
    return q.vertex_labels[a] == q.vertex_labels[b] and moved == edges


def verifies(g, q, ops, psi):
    try:
        return check_edit_path(g, q, ops, psi)
    except EditPathError:
        return False


def test_check_edit_path_property_up_to_40_vertices():
    # Realized paths verify at sizes far past the exhaustive oracle's cap;
    # dropping any one op, or swapping two targets in a way that changes
    # the target graph, makes the check fail.
    rng = random.Random(55)
    table = LabelTable()
    swaps_checked = 0
    for _ in range(300):
        density = rng.choice((0.1, 0.2, 0.3))
        g = random_graph(rng, rng.randint(0, 40), density, 3, 2, table)
        q = random_graph(rng, rng.randint(0, 40), density, 3, 2, table)
        psi = random_complete_mapping(rng, g.n, q.n)
        ops = realize_edit_path(psi, g, q)
        assert len(ops) == edit_cost(psi, g, q).total
        assert check_edit_path(g, q, ops, psi)

        for i in rng.sample(range(len(ops)), min(3, len(ops))):
            assert not verifies(g, q, ops[:i] + ops[i + 1:], psi)

        mapped = [i for i, (s, _) in enumerate(psi.pairs) if s is not None]
        if not mapped:
            continue
        i = rng.choice(mapped)
        others = [j for j in mapped if psi.pairs[j][1] != psi.pairs[i][1]]
        if not others:
            continue
        j = rng.choice(others)
        (s1, t1), (s2, t2) = psi.pairs[i], psi.pairs[j]
        pairs = list(psi.pairs)
        pairs[i], pairs[j] = (s1, t2), (s2, t1)
        swapped = GraphMapping(tuple(pairs), g.n, q.n)
        same_target = t1 is not None and t2 is not None and swap_fixes(q, t1, t2)
        assert verifies(g, q, ops, swapped) == same_target
        swaps_checked += 1
    assert swaps_checked > 200


def test_check_edit_path_follows_the_mapping(square_star):
    # Q's leaves 0, 1, 2 are interchangeable, so the example path also
    # verifies with two leaf targets swapped, but not with a leaf and the
    # centre swapped.
    g, q = square_star
    a = g.table.intern("a")
    ops = [
        {"op": "del_edge", "u": 0, "v": 1},
        {"op": "del_edge", "u": 0, "v": 2},
        {"op": "sub_vertex", "u": 0, "label": g.table.intern("A")},
        {"op": "ins_edge", "u": 0, "v": 3, "label": a},
    ]
    assert check_edit_path(g, q, ops, GraphMapping(((0, 1), (1, 0), (2, 2), (3, 3)), 4, 4))
    assert not check_edit_path(g, q, ops, GraphMapping(((0, 3), (1, 1), (2, 2), (3, 0)), 4, 4))


def test_check_edit_path_rejects_bad_mappings(square_star):
    g, q = square_star
    with pytest.raises(ValueError, match="repeated target"):
        check_edit_path(g, q, [], GraphMapping(((0, 0), (1, 0), (2, 2), (3, 3)), 4, 4))
    with pytest.raises(ValueError, match="complete mapping"):
        check_edit_path(g, q, [], GraphMapping(((0, 0), (1, 1), (2, 2)), 4, 4))
    with pytest.raises(ValueError, match="complete mapping"):
        check_edit_path(g, q, [], GraphMapping(((0, 0), (1, 1), (2, 2), (3, 3), (None, 4)), 4, 5))
