"""gedkit: exact graph edit distance with beam-stack search and similarity search."""

from .bounds import delta_bounds, lb_graph
from .engine import DEFAULT_BEAM_WIDTH, GedResult, SearchRun, bss_ged
from .graphs import (
    GraphFormatError,
    LabelTable,
    LabeledGraph,
    VertexPartition,
    parse_graph_db,
    serialize_graph_db,
    vertex_partition,
)
from .mapping import (
    GraphMapping,
    EditCostBreakdown,
    edit_cost,
    induced_structure,
    realize_edit_path,
)
from .oracle import (
    OracleLimits,
    check_edit_path,
    exhaustive_ged,
)
from .simsearch import GraphDatabase, filter_candidates, range_query
from .successors import (
    SearchNode,
    basic_gen_succr,
    determine_order,
    enumerate_search_tree,
    gen_succr,
)

__all__ = [
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
    "range_query",
    "realize_edit_path",
    "serialize_graph_db",
    "vertex_partition",
]
