"""Labeled-graph data model: label interning, parsing, and vertex partitions."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

# The adjacency of every isolated vertex: one shared read-only empty map.
_NO_NEIGHBOURS = MappingProxyType({})
_INT = frozenset((int,))


class GraphFormatError(ValueError):
    """Raised on malformed graph database text; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LabelTable:
    """Session-wide string-to-id interning for vertex and edge labels.

    Graphs are only comparable when built against the same table.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []

    def intern(self, token: str) -> int:
        lid = self._ids.get(token)
        if lid is None:
            lid = len(self._tokens)
            self._ids[token] = lid
            self._tokens.append(token)
        return lid

    def token(self, label_id: int) -> str:
        """The token interned as label_id; ValueError for an id never issued."""
        if not 0 <= label_id < len(self._tokens):
            raise ValueError(f"label id {label_id} was never issued by this table")
        return self._tokens[label_id]


class LabeledGraph:
    """Immutable simple undirected graph with interned vertex and edge labels.

    Vertices are dense 0-based ids, and the graph size is its vertex count.
    Each edge is stored in two forms:

    - ``edges``: the sorted tuple of canonical ``(u, v, label)`` triples with
      u < v. It is the graph's identity (equality, hashing, serialisation)
      and serves whole-graph scans: summaries and vertex partitions read it.
    - ``adjacency[u]``: a read-only neighbour -> edge-label mapping per
      vertex. It answers every edge lookup: ``v in adjacency[u]`` tests an
      edge and ``adjacency[u].get(v)`` reads its label, in either orientation.
      All isolated vertices share one empty map.

    ``adjacency`` is a property that builds the maps from ``edges`` on its
    first read and keeps them. A database graph that only the filter reads
    never builds them, and the per-vertex maps are most of a parsed graph's
    memory. Threads that read it first at the same time may each build an
    equal copy. A graph's type never changes, so subclasses, with or
    without ``__slots__``, keep their own type and methods, also through
    ``copy`` and ``pickle``, which rebuild ``type(self)``.

    ``n`` and ``m`` are the vertex and edge counts, set once, since the
    search reads them at every node. Edge endpoints and vertex and edge
    label ids must be ints (bool refused): anything else raises ValueError,
    as it could not be serialised and read back.

    Two more private slots keep what the search derives from this graph
    alone: ``_partition`` (vertex_partition) and ``_order`` (the default
    policy's order, successors.determine_order). Each is left unset when
    the graph is built, filled by its function's first call and returned
    as is by every later call; both values are immutable. Copies and pickles
    rebuild the graph from its labels and edges, so they start without
    the kept values and recompute equal ones. Kept, they cost one pointer
    each per graph plus the value: a database partitions every member when
    it is built, and keeps no copy of its own.

    The attributes cannot be reassigned or deleted, so ``==``, ``hash`` and
    the two edge stores always agree.
    """

    __slots__ = ("vertex_labels", "edges", "_adjacency", "table", "n", "m", "_partition", "_order")

    def __init__(self, vertex_labels, edges, table: LabelTable):
        vertex_labels = tuple(vertex_labels)
        # One pass at C speed over the vertex labels' types.
        if not _INT.issuperset(map(type, vertex_labels)):
            bad = next(lab for lab in vertex_labels if type(lab) is not int)
            raise ValueError(f"label ids must be integers, got {bad!r}")
        n = len(vertex_labels)
        canon = []
        for u, v, lab in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge endpoints must be integers, got ({u!r},{v!r})")
            if type(lab) is not int:
                raise ValueError(f"label ids must be integers, got {lab!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            canon.append((u, v, lab) if u < v else (v, u, lab))
        canon.sort()
        # Sorting puts the copies of an edge side by side, whatever their labels.
        pu = pv = -1
        for u, v, _ in canon:
            if u == pu and v == pv:
                raise ValueError(f"duplicate edge ({u},{v})")
            pu, pv = u, v
        init = object.__setattr__
        init(self, "vertex_labels", vertex_labels)
        init(self, "edges", tuple(canon))
        init(self, "table", table)
        init(self, "_adjacency", None)
        init(self, "n", n)
        init(self, "m", len(canon))

    def __setattr__(self, name, value):
        raise AttributeError(f"LabeledGraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"LabeledGraph is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return type(self), (self.vertex_labels, self.edges, self.table)

    @property
    def adjacency(self) -> tuple:
        adjacency = self._adjacency
        if adjacency is None:
            adj: list[dict[int, int]] = [{} for _ in self.vertex_labels]
            for u, v, lab in self.edges:
                adj[u][v] = lab
                adj[v][u] = lab
            adjacency = tuple(MappingProxyType(a) if a else _NO_NEIGHBOURS for a in adj)
            object.__setattr__(self, "_adjacency", adjacency)
        return adjacency

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.vertex_labels == other.vertex_labels and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertex_labels, self.edges))

    def __repr__(self):
        return f"LabeledGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True, slots=True)
class VertexPartition:
    """Equivalence classes of isomorphic vertices of a target graph.

    Two vertices share a class iff they carry the same label and the same
    labeled neighborhood. Classes are ordered by their smallest member.
    Every graph that is searched or indexed keeps one, so instances carry
    no __dict__.
    """

    classes: tuple[tuple[int, ...], ...]


def vertex_partition(q: LabeledGraph) -> VertexPartition:
    """Group vertices of q by (label, labeled neighborhood) equivalence.

    Reads q.edges, so partitioning a graph does not build its adjacency.
    A neighbour v over an edge labelled lab is the int v + n * lab: since
    0 <= v < n, v and lab are that int's remainder and quotient by n, so
    the code is one-to-one for every int label id, and the neighbourhood
    is a frozenset of ints, not of tuples. Vertices are grouped in
    ascending order, so a class enters the dict with its smallest member,
    and the dict's order is already the classes' order: nothing is sorted.
    The first call keeps the partition on q, and later calls return that
    same object; a copy of q computes its own.
    """
    part = getattr(q, "_partition", None)
    if part is not None:
        return part
    n = q.n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v, lab in q.edges:
        nbrs[u].append(v + n * lab)
        nbrs[v].append(u + n * lab)
    groups: dict[tuple, list[int]] = {}
    for v, lab in enumerate(q.vertex_labels):
        groups.setdefault((lab, frozenset(nbrs[v])), []).append(v)
    part = VertexPartition(tuple(map(tuple, groups.values())))
    object.__setattr__(q, "_partition", part)
    return part


def require_shared_table(g: LabeledGraph, q: LabeledGraph) -> None:
    """Raise ValueError unless g and q intern labels in the same table.

    Label ids from two tables are not comparable, so every pairwise bound,
    cost or search needs one table.
    """
    if g.table is not q.table:
        raise ValueError("graphs must share one label table")


def multiset_intersection_size(a: dict, b: dict) -> int:
    """Size of the multiset intersection: sum over labels of min counts.

    Takes label -> positive count dicts and walks the smaller one, building
    no intermediate multiset.
    """
    if len(a) > len(b):
        a, b = b, a
    total = 0
    for lab, c in a.items():
        d = b.get(lab)
        if d:
            total += c if c < d else d
    return total


def parse_graph_db(text: str, table: LabelTable | None = None) -> tuple[list[tuple[int, LabeledGraph]], LabelTable]:
    """Parse a graph transaction database.

    Format, one file per database:
      ``t # <graph-id>`` starts a graph, ``v <vid> <label>`` declares a
      vertex (ids contiguous from 0), ``e <u> <v> <label>`` declares an
      edge. Lines starting with ``#`` are comments; blank lines are skipped.

    Each line is split on whitespace once: no tokens is a blank line, and a
    first token starting with ``#`` a comment. An error message quotes the
    line with its outer whitespace stripped.

    Returns the graphs in file order together with the label table used.
    """
    if table is None:
        table = LabelTable()
    out: list[tuple[int, LabeledGraph]] = []
    seen_ids: set[int] = set()

    cur_id: int | None = None
    cur_labels: list[int] = []
    cur_edges: list[tuple[int, int, int]] = []
    cur_edge_set: set[tuple[int, int]] = set()

    def flush():
        if cur_id is not None:
            out.append((cur_id, LabeledGraph(cur_labels, cur_edges, table)))

    # Interning goes through the table's own dict; intern() runs only for a
    # label token this table has not seen yet.
    label_id, intern = table._ids.get, table.intern
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        # Edge lines first: they are the most common record.
        if kind == "e":
            if cur_id is None:
                raise GraphFormatError(line_no, "edge line before any 't' header")
            if len(parts) != 4:
                raise GraphFormatError(line_no, f"malformed edge line {raw.strip()!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(line_no, "edge endpoints must be integers") from None
            if u == v:
                raise GraphFormatError(line_no, f"self-loop on vertex {u}")
            if not (0 <= u < len(cur_labels)) or not (0 <= v < len(cur_labels)):
                raise GraphFormatError(line_no, f"edge ({u},{v}) references unknown vertex")
            key = (u, v) if u < v else (v, u)
            if key in cur_edge_set:
                raise GraphFormatError(line_no, f"duplicate edge ({u},{v})")
            cur_edge_set.add(key)
            lab = label_id(parts[3])
            cur_edges.append((u, v, intern(parts[3]) if lab is None else lab))
        elif kind == "v":
            if cur_id is None:
                raise GraphFormatError(line_no, "vertex line before any 't' header")
            if len(parts) != 3:
                raise GraphFormatError(line_no, f"malformed vertex line {raw.strip()!r}")
            try:
                vid = int(parts[1])
            except ValueError:
                raise GraphFormatError(line_no, f"vertex id must be an integer, got {parts[1]!r}") from None
            if vid < len(cur_labels):
                raise GraphFormatError(line_no, f"duplicate vertex id {vid}")
            if vid != len(cur_labels):
                raise GraphFormatError(line_no, f"vertex ids must be contiguous, expected {len(cur_labels)} got {vid}")
            lab = label_id(parts[2])
            cur_labels.append(intern(parts[2]) if lab is None else lab)
        elif kind == "t":
            if len(parts) != 3 or parts[1] != "#":
                raise GraphFormatError(line_no, f"malformed graph header {raw.strip()!r}")
            flush()
            try:
                cur_id = int(parts[2])
            except ValueError:
                raise GraphFormatError(line_no, f"graph id must be an integer, got {parts[2]!r}") from None
            if cur_id in seen_ids:
                raise GraphFormatError(line_no, f"duplicate graph id {cur_id}")
            seen_ids.add(cur_id)
            cur_labels, cur_edges, cur_edge_set = [], [], set()
        elif kind[0] != "#":
            raise GraphFormatError(line_no, f"unrecognized record {raw.strip()!r}")
    flush()
    return out, table


def serialize_graph_db(graphs: list[tuple[int, LabeledGraph]]) -> str:
    """Render graphs back into transaction text (inverse of parse_graph_db).

    Raises ValueError for what parse_graph_db would not read back: a graph
    id that is not an int (bool included) or repeats an earlier one, a label
    id the graph's table never issued, or a label token that is empty or
    holds whitespace.
    """

    def field(table: LabelTable, label_id: int) -> str:
        token = table.token(label_id)
        if token.split() != [token]:
            raise ValueError(f"label token {token!r} is empty or holds whitespace")
        return token

    seen_ids: set[int] = set()
    lines: list[str] = []
    for gid, g in graphs:
        if type(gid) is not int:
            raise ValueError(f"graph id must be an integer, got {gid!r}")
        if gid in seen_ids:
            raise ValueError(f"duplicate graph id {gid}")
        seen_ids.add(gid)
        lines.append(f"t # {gid}")
        for v in range(g.n):
            lines.append(f"v {v} {field(g.table, g.vertex_labels[v])}")
        for u, v, lab in g.edges:
            lines.append(f"e {u} {v} {field(g.table, lab)}")
    return "\n".join(lines) + "\n"
