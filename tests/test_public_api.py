"""The package's public names: a change to them is a deliberate API change."""

import gedkit

PUBLIC_API = [
    "DEFAULT_BEAM_WIDTH",
    "EditCostBreakdown",
    "GedResult",
    "GraphDatabase",
    "GraphFormatError",
    "GraphMapping",
    "LabelTable",
    "LabeledGraph",
    "OracleLimits",
    "SearchNode",
    "SearchRun",
    "VertexPartition",
    "basic_gen_succr",
    "bss_ged",
    "check_edit_path",
    "delta_bounds",
    "determine_order",
    "edit_cost",
    "enumerate_search_tree",
    "exhaustive_ged",
    "filter_candidates",
    "gen_succr",
    "induced_structure",
    "lb_graph",
    "parse_graph_db",
    "predicted_layer_count",
    "range_query",
    "realize_edit_path",
    "serialize_graph_db",
    "vertex_partition",
]


def test_public_api_is_pinned_and_resolves():
    assert sorted(gedkit.__all__) == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(gedkit, name)] == []
