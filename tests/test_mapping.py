import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_complete_mappings,
    build_graph,
    canonical_code,
    code_compare,
    identity_mapping,
    random_pair,
)
from gedkit.bounds import lb_from_branches, vertex_branches
from gedkit.graphs import LabelTable, vertex_partition
from gedkit.mapping import (
    GraphMapping,
    descend_assignment,
    edit_cost,
    induced_structure,
    realize_edit_path,
)
from gedkit.oracle import check_edit_path, exhaustive_ged
from gedkit.successors import extension_cost, leaf_completion_cost


@pytest.fixture
def example2(square_star):
    g, q = square_star
    psi = GraphMapping(((0, 0), (1, 1), (2, 2), (3, 3)), 4, 4)
    return g, q, psi


def test_example2_induced_structure(example2):
    g, q, psi = example2
    v_h, e_h = induced_structure(psi, g, q)
    assert v_h == {0, 1, 2, 3}
    assert e_h == {(1, 3), (2, 3)}


def test_example2_cost_breakdown(example2):
    g, q, psi = example2
    cost = edit_cost(psi, g, q)
    assert (cost.c_d, cost.c_i, cost.c_s) == (2, 1, 1)
    assert cost.total == 4


def test_identity_mapping_costs_zero(square_star):
    g, _ = square_star
    cost = edit_cost(identity_mapping(g), g, g)
    assert (cost.c_d, cost.c_i, cost.c_s) == (0, 0, 0)
    v_h, e_h = induced_structure(identity_mapping(g), g, g)
    assert v_h == set(range(g.n))
    assert e_h == {(u, v) for u, v, _ in g.edges}
    assert realize_edit_path(identity_mapping(g), g, g) == []


def test_mapping_from_assignment():
    # Padding rows insert their column's target; padding columns delete
    # their row's source.
    assert GraphMapping.from_assignment([1, 2, 0], 2, 3).pairs == ((0, 1), (1, 2), (None, 0))
    assert GraphMapping.from_assignment([2, 0, 1], 3, 2).pairs == ((0, None), (1, 0), (2, 1))
    assert GraphMapping.from_assignment([], 0, 0).pairs == ()
    assert GraphMapping.from_assignment([1, 0], 2, 2).is_complete()


def test_all_dummy_mapping_empty_structure(square_star):
    g, _ = square_star
    empty = build_graph([], [], g.table)
    psi = GraphMapping(tuple((u, None) for u in range(g.n)), g.n, 0)
    v_h, e_h = induced_structure(psi, g, empty)
    assert v_h == set() and e_h == set()
    assert edit_cost(psi, g, empty).total == g.n + g.m


def test_example3_equal_codes_equal_costs(square_star):
    g, q = square_star
    part = vertex_partition(q)
    psi = GraphMapping(((0, 0), (1, 1), (2, 2), (3, 3)), 4, 4)
    psi2 = GraphMapping(((0, 1), (1, 2), (2, 0), (3, 3)), 4, 4)
    assert canonical_code(psi, part) == canonical_code(psi2, part) == (1, 1, 1, 2)
    assert edit_cost(psi, g, q).total == edit_cost(psi2, g, q).total == 4
    assert code_compare(psi, psi2, part) == -1
    assert code_compare(psi2, psi, part) == 1
    assert code_compare(psi, psi, part) == 0


def test_code_entries_for_dummies(square_star):
    g, q = square_star
    part = vertex_partition(q)
    psi = GraphMapping(((0, 0), (1, None), (2, 1), (3, 3), (None, 2)), 4, 4)
    assert canonical_code(psi, part)[1] == 3  # dummy class is lambda + 1


def test_code_with_distinct_labels_tracks_targets():
    g = build_graph(["A", "B"], [])
    q = build_graph(["X", "Y", "Z"], [], g.table)
    part = vertex_partition(q)
    psi = GraphMapping(((0, 2), (1, 0), (None, 1)), 2, 3)
    assert canonical_code(psi, part) == (3, 1, 2)


def test_code_compare_requires_equal_codes(square_star):
    _, q = square_star
    part = vertex_partition(q)
    a = GraphMapping(((0, 0), (1, 3), (2, 1), (3, 2)), 4, 4)
    b = GraphMapping(((0, 0), (1, 1), (2, 2), (3, 3)), 4, 4)
    with pytest.raises(ValueError):
        code_compare(a, b, part)


def test_code_order_total_on_same_code(square_star):
    _, q = square_star
    part = vertex_partition(q)
    same_code = [
        GraphMapping(((0, a), (1, b), (2, c), (3, 3)), 4, 4)
        for a, b, c in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    ]
    for i, x in enumerate(same_code):
        for j, y in enumerate(same_code):
            cmp = code_compare(x, y, part)
            assert cmp == (0 if i == j else -code_compare(y, x, part))


def test_example1_path_realization(example2):
    g, q, psi = example2
    ops = realize_edit_path(psi, g, q)
    assert len(ops) == 4
    kinds = [op["op"] for op in ops]
    assert kinds.count("del_edge") == 2
    assert kinds.count("sub_vertex") == 1
    assert kinds.count("ins_edge") == 1
    assert {(op["u"], op["v"]) for op in ops if op["op"] == "del_edge"} == {(0, 1), (0, 2)}
    sub = next(op for op in ops if op["op"] == "sub_vertex")
    assert sub["u"] == 0 and g.table.token(sub["label"]) == "A"
    assert check_edit_path(g, q, ops, psi)


def test_mapping_validation():
    # A mapping checks its structure when it is made.
    malformed = [
        (((0, 0), (0, 1)), 2, 2, "repeated source"),
        (((0, 1), (1, 1)), 2, 2, "repeated target"),
        (((None, None),), 1, 1, "dummy to dummy"),
        (((2, 0),), 2, 2, "source vertex out of range"),
        (((-1, 0),), 2, 2, "source vertex out of range"),
        (((0, 2),), 2, 2, "target vertex out of range"),
    ]
    for pairs, n_source, n_target, reason in malformed:
        with pytest.raises(ValueError, match=reason):
            GraphMapping(pairs, n_source, n_target)
    GraphMapping(((0, 1), (1, None), (None, 0)), 2, 2)
    GraphMapping(((0, None),), 1, 0)
    GraphMapping((), 0, 0)


@pytest.mark.parametrize("pairs, n_source, n_target, reason", [
    (((0, 0), (0.5, 1), (2, 2)), 3, 3, "mapping vertices"),
    (((0, 0), (1, 1.0)), 2, 2, "mapping vertices"),
    (((True, 0),), 2, 2, "mapping vertices"),
    (((0, False),), 2, 2, "mapping vertices"),
    ((("0", 0),), 2, 2, "mapping vertices"),
    (((0, 0),), "3", 3, "vertex counts"),
    (((0, 0),), 3.5, 3, "vertex counts"),
    (((0, 0),), 3, True, "vertex counts"),
])
def test_mapping_refuses_values_that_are_not_ints(pairs, n_source, n_target, reason):
    # With 0.5 in place of source 1, a mapping of three pairs between
    # 3-vertex graphs would report itself complete although source 1 is
    # unmapped, and edit_cost would then fail on it with a KeyError.
    with pytest.raises(ValueError, match=reason):
        GraphMapping(pairs, n_source, n_target)


@pytest.mark.parametrize("pairs, n_source, n_target", [
    (((0, 0), (1, 1)), 4, 4),
    (((0, 0), (1, 1), (2, 2), (3, 3)), 7, 4),
    (((0, 0), (1, 1), (2, 2), (3, 3)), 4, 5),
])
def test_cost_and_path_need_a_complete_mapping(square_star, pairs, n_source, n_target):
    # A partial or wrongly sized mapping has no edit path: its batch cost
    # and its realized op list disagree, so all three functions refuse it.
    g, q = square_star
    psi = GraphMapping(pairs, n_source, n_target)
    with pytest.raises(ValueError, match="complete mapping"):
        edit_cost(psi, g, q)
    with pytest.raises(ValueError, match="complete mapping"):
        realize_edit_path(psi, g, q)
    with pytest.raises(ValueError, match="complete mapping"):
        check_edit_path(g, q, [], psi)


def incremental_total(g, q, psi):
    """Accumulate the cost pair by pair, the way the search engine does."""
    assigned = {}
    preimage = {}
    total = 0
    for s, t in psi.pairs:
        if s is None:
            break
        if t is None:
            total += extension_cost(g.adjacency[s], g.vertex_labels[s], None, None, assigned, preimage)
        else:
            total += extension_cost(g.adjacency[s], g.vertex_labels[s], q.adjacency[t],
                                    q.vertex_labels[t], assigned, preimage)
        assigned[s] = t
        if t is not None:
            preimage[t] = s
    used = {t for t in assigned.values() if t is not None}
    if len(used) < q.n:
        total += leaf_completion_cost(q, used)
    return total


def test_path_length_batch_and_incremental_costs_agree():
    # For every complete mapping on small random pairs: the realized path
    # length, the batch cost formula, and the incremental accumulation agree,
    # and the realized path really turns G into Q.
    rng = random.Random(21)
    for _ in range(8):
        g, q = random_pair(rng, max_n=4)
        for psi in all_complete_mappings(g, q):
            total = edit_cost(psi, g, q).total
            ops = realize_edit_path(psi, g, q)
            assert len(ops) == total
            assert incremental_total(g, q, psi) == total
            assert check_edit_path(g, q, ops, psi)


def test_equal_code_mappings_cost_the_same_exhaustively():
    rng = random.Random(22)
    for _ in range(6):
        g, q = random_pair(rng, max_n=4, min_n=2)
        part = vertex_partition(q)
        by_code = {}
        for psi in all_complete_mappings(g, q):
            by_code.setdefault(canonical_code(psi, part), []).append(
                edit_cost(psi, g, q).total
            )
        for costs in by_code.values():
            assert len(set(costs)) == 1


def test_dummy_pair_repair_strictly_cheaper():
    # A mapping holding both (x -> dummy) and (dummy -> y) is beaten by the
    # repaired mapping that pairs x with y directly.
    rng = random.Random(23)
    repaired_checked = 0
    while repaired_checked < 200:
        g, q = random_pair(rng, max_n=5)
        for psi in all_complete_mappings(g, q):
            del_pairs = [(s, t) for s, t in psi.pairs if t is None]
            ins_pairs = [(s, t) for s, t in psi.pairs if s is None]
            if not del_pairs or not ins_pairs:
                continue
            x, _ = del_pairs[0]
            _, y = ins_pairs[0]
            new_pairs = tuple(
                p for p in psi.pairs if p != (x, None) and p != (None, y)
            ) + ((x, y),)
            repaired = GraphMapping(new_pairs, psi.n_source, psi.n_target)
            assert edit_cost(repaired, g, q).total < edit_cost(psi, g, q).total
            repaired_checked += 1
            if repaired_checked >= 200:
                break


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


@settings(max_examples=150, deadline=None)
@given(oracle_pairs())
def test_descent_lies_between_ged_and_its_start(pair):
    g, q = pair
    _, assignment = lb_from_branches(vertex_branches(g), vertex_branches(q))
    before = list(assignment)
    start = edit_cost(GraphMapping.from_assignment(assignment, g.n, q.n), g, q).total
    cost, improved = descend_assignment(assignment, g, q)
    assert assignment == before
    assert sorted(improved) == list(range(len(assignment)))
    assert edit_cost(GraphMapping.from_assignment(improved, g.n, q.n), g, q).total == cost
    assert exhaustive_ged(g, q).distance <= cost <= start
