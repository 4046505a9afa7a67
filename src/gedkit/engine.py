"""Beam-stack search for exact GED.

Iterated beam search: each pass descends layer by layer keeping at most w
nodes, pushing each layer's beam on a stack with the cost interval it
actually covered. Nodes cut by the beam are recovered later by shifting the
top interval and searching again, so the final upper bound is the exact
distance regardless of w. An exact run starts at the edit cost of a
complete mapping, the branch assignment improved by 2-swap descent, so it
prunes from its first pass and always holds a mapping.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

from .bounds import PairHeuristic, lb_from_branches, vertex_branches
from .graphs import LabeledGraph, require_shared_table, vertex_partition
from .mapping import GraphMapping, descend_assignment, edit_cost
from .successors import (
    DEFAULT_ORDER_POLICY,
    SearchNode,
    basic_gen_succr,
    determine_order,
    gen_succr,
    make_root,
)

DEFAULT_BEAM_WIDTH = 15
DEFAULT_NODE_BUDGET = 10_000_000

EXACT = "exact"
ABOVE_BOUND = "above_bound"
WITHIN_THRESHOLD = "within_threshold"
BUDGET_EXHAUSTED = "budget_exhausted"


class _BudgetExceeded(Exception):
    def __init__(self, reason: str):
        self.reason = reason


@dataclass
class Layer:
    """One beam-stack entry: a layer's beam and the half-open cost interval
    [f_min, f_max) admitted for its successors."""

    nodes: list[SearchNode]
    f_min: int
    f_max: int


@dataclass
class SearchStats:
    nodes_generated: int = 0
    nodes_expanded: int = 0
    passes: int = 0
    backtracks: int = 0
    max_open: int = 0
    max_visits: int = 0
    ub_history: list[int] = field(default_factory=list)


@dataclass
class GedResult:
    """Outcome of one engine run, returned by bss_ged.

    In exact mode (no threshold) status 'exact' carries the distance. In
    decision mode (threshold tau) 'within_threshold' certifies
    upper_bound <= tau without claiming exactness, and 'above_bound' proves
    the distance is > tau. In either mode 'budget_exhausted' reports the
    best upper bound found and in reason which budget ran out: 'nodes' or
    'time'. mapping is the complete mapping whose edit cost is upper_bound.
    An exact run starts with one, so in exact mode neither is ever None; a
    decision run has them only once it accepts a leaf.
    """

    status: str
    distance: int | None
    upper_bound: int | None
    stats: SearchStats
    reason: str | None = None
    mapping: GraphMapping | None = None


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_search_args(w: int = DEFAULT_BEAM_WIDTH, node_budget: int = DEFAULT_NODE_BUDGET,
                      threshold: int | None = None, time_limit: float | None = None):
    """Raise ValueError unless the search arguments are in range.

    w, threshold and node_budget must be ints, w >= 1, threshold >= 0 and
    node_budget >= 1; time_limit must be a real number >= 0 (seconds). A
    bool is an int subclass but neither a count nor a duration, so True and
    False are refused. Each bound is tested as `not x >= k`, so NaN fails
    it.

    node_budget bounds generated nodes, the root and dead-on-arrival
    children included, not expansions. The run checks it after each
    expansion, so an exhausted run has generated more than node_budget
    nodes, by at most one expansion's children (|V_Q| + 1, V_Q the run's
    target: an exact bss_ged may search from either graph).
    """
    if not _is_count(w) or not w >= 1:
        raise ValueError(f"beam width must be an int >= 1, got {w!r}")
    if threshold is not None and (not _is_count(threshold) or not threshold >= 0):
        raise ValueError(f"threshold must be an int >= 0, got {threshold!r}")
    if not _is_count(node_budget) or not node_budget >= 1:
        raise ValueError(f"node budget must be an int >= 1, got {node_budget!r}")
    if time_limit is not None and (not isinstance(time_limit, numbers.Real)
                                   or isinstance(time_limit, bool) or not time_limit >= 0):
        raise ValueError(f"time limit must be a number >= 0, got {time_limit!r}")


def _priority(node: SearchNode):
    # f ascending, then deeper progress first, then creation order.
    return (node.f, -node.g, node.id)


class SearchRun:
    """State of a single beam-stack search over one graph pair.

    With threshold None the run is exact. Its upper bound starts at a seed:
    the optimal branch assignment (lb_from_branches) improved by 2-swap
    descent (descend_assignment), whose mapping is self.best and whose edit
    cost is self.ub and the first entry of ub_history. The descent stops at
    the time limit like the search. The search then accepts only leaves
    cheaper than the seed and runs until the beam stack empties; when no
    such leaf exists the seed is the distance, for every w and policy.
    With threshold tau it decides ged <= tau: there is no seed, the upper
    bound starts at tau + 1, which prunes everything beyond tau, and the
    first leaf accepted (the first entry of ub_history) ends the run.
    Every accepted leaf is checked against the edit cost of its mapping.
    node_budget counts generated nodes and is checked after each expansion,
    so only an exhausted run reports more (see check_search_args).
    """

    def __init__(self, g: LabeledGraph, q: LabeledGraph, w: int = DEFAULT_BEAM_WIDTH,
                 order_policy: str = DEFAULT_ORDER_POLICY, succ_policy: str = "reduced",
                 node_budget: int = DEFAULT_NODE_BUDGET, time_limit: float | None = None,
                 threshold: int | None = None):
        check_search_args(w, node_budget, threshold, time_limit)
        require_shared_table(g, q)
        self.g, self.q, self.w = g, q, w
        self.order = determine_order(g, order_policy)
        if succ_policy not in ("basic", "reduced"):
            raise ValueError(f"unknown successor policy {succ_policy!r}")
        self.succ_policy = succ_policy
        self.part = vertex_partition(q)
        self.heuristic = PairHeuristic(g, q)
        self.node_budget = node_budget
        self.deadline = None if time_limit is None else time.monotonic() + time_limit
        self.threshold = threshold
        self.stats = SearchStats()
        # self.best is the complete mapping whose edit cost is self.ub.
        self.best: GraphMapping | None = None
        if threshold is None:
            _, assignment = lb_from_branches(vertex_branches(g), vertex_branches(q))
            self.ub, assignment = descend_assignment(assignment, g, q, self.deadline)
            self.best = GraphMapping.from_assignment(assignment, g.n, q.n)
            self.stats.ub_history.append(self.ub)
        else:
            self.ub = threshold + 1
        root = make_root(g, q, self.heuristic)
        self.stats.nodes_generated += 1
        # The beam stack: entry i holds layer i of the current descent.
        self.bs: list[Layer] = [Layer([root], 0, self.ub)]

    def _generate(self, r: SearchNode) -> list[SearchNode | None]:
        if self.succ_policy == "reduced":
            return gen_succr(r, self.g, self.q, self.part, self.order, self.heuristic, self.ub)
        return basic_gen_succr(r, self.g, self.q, self.order, self.heuristic, self.ub)

    def expand_node(self, r: SearchNode) -> list[SearchNode]:
        """Successors of r admitted by the current interval.

        On first visit generates successors at the current upper bound and
        keeps the live ones in r.children; nodes_generated counts the dead
        ones too. Later visits reread r.children. Successors at or above
        the upper bound, or already expanded, are pruned for good and their
        children dropped; if that prunes all of them, r itself is pruned and
        no later pass expands it. The upper bound never rises, so a
        successor dead when generated would have been pruned here at once.
        """
        stats = self.stats
        stats.nodes_expanded += 1
        r.visits += 1
        if r.visits > stats.max_visits:
            stats.max_visits = r.visits
        if r.children is None:
            children = self._generate(r)
            stats.nodes_generated += len(children)
            if stats.nodes_generated > self.node_budget:
                raise _BudgetExceeded("nodes")
            r.children = [n for n in children if n is not None]
        top = self.bs[-1]
        admitted = []
        all_safely_pruned = True
        for n in r.children:
            if n.f >= self.ub or n.children is not None:
                n.children = ()
            else:
                all_safely_pruned = False
                if top.f_min <= n.f < top.f_max:
                    admitted.append(n)
        if all_safely_pruned:
            r.children = ()
        return admitted

    def search_pass(self):
        """One beam descent from the top entry; returns after the first leaf pop.

        Keeps the best w successors per layer; when more were generated, the
        current interval's right edge records the cheapest node cut, so a
        later pass can resume exactly there.
        """
        self.stats.passes += 1
        # No priority changes while a layer drains, so one sort per layer
        # gives the pop order. Nodes pruned since their entry was pushed
        # (children == ()) stay in it but are never expanded again.
        pql = sorted((n for n in self.bs[-1].nodes if n.children != ()), key=_priority)
        while pql:
            pqll: list[SearchNode] = []
            for r in pql:
                if self.deadline is not None and time.monotonic() > self.deadline:
                    raise _BudgetExceeded("time")
                if r.complete:
                    if r.g < self.ub:
                        self.accept(r)
                    return
                pqll.extend(self.expand_node(r))
            pqll.sort(key=_priority)
            if len(pqll) > self.w:
                self.bs[-1].f_max = pqll[self.w].f
                del pqll[self.w:]
            self.bs.append(Layer(pqll, 0, self.ub))
            pql = pqll
            live = sum(len(entry.nodes) for entry in self.bs)
            if live > self.stats.max_open:
                self.stats.max_open = live

    def accept(self, leaf: SearchNode):
        """Make a leaf's g the upper bound once its mapping confirms it.

        The check runs once per ub_history entry and is an explicit raise,
        so it also holds under python -O.
        """
        mapping = GraphMapping(leaf.pairs, self.g.n, self.q.n)
        cost = edit_cost(mapping, self.g, self.q).total
        if cost != leaf.g:
            raise RuntimeError(f"leaf {leaf.id} has g = {leaf.g} but its mapping costs {cost}")
        self.ub = leaf.g
        self.best = mapping
        self.stats.ub_history.append(leaf.g)

    def backtrack(self) -> bool:
        """Pop exhausted entries and shift the surviving top's interval; False when done."""
        while self.bs and self.bs[-1].f_max >= self.ub:
            self.bs.pop()
            self.stats.backtracks += 1
        if not self.bs:
            return False
        top = self.bs[-1]
        top.f_min = top.f_max
        top.f_max = self.ub
        return True

    def run(self) -> GedResult:
        decide = self.threshold is not None
        try:
            while self.bs:
                self.search_pass()
                if decide and self.best is not None:
                    return GedResult(WITHIN_THRESHOLD, None, self.ub, self.stats, mapping=self.best)
                if not self.backtrack():
                    break
        except _BudgetExceeded as exc:
            found = None if self.best is None else self.ub
            return GedResult(BUDGET_EXHAUSTED, None, found, self.stats, exc.reason, self.best)
        if decide:
            return GedResult(ABOVE_BOUND, None, None, self.stats)
        return GedResult(EXACT, self.ub, self.ub, self.stats, mapping=self.best)


def searches_from_q(g: LabeledGraph, q: LabeledGraph, order_policy: str = DEFAULT_ORDER_POLICY,
                    threshold: int | None = None) -> bool:
    """True when bss_ged(g, q) runs SearchRun(q, g): an exact run under the
    most-connected order with q smaller than g. Under that order the
    smaller source expands fewer nodes; under the paper's orders no such
    rule held, so they search from g as called, and so does every decision
    run.
    """
    return threshold is None and order_policy == "connected" and q.n < g.n


def bss_ged(g: LabeledGraph, q: LabeledGraph, w: int = DEFAULT_BEAM_WIDTH, *,
            order_policy: str = DEFAULT_ORDER_POLICY, succ_policy: str = "reduced",
            node_budget: int = DEFAULT_NODE_BUDGET, time_limit: float | None = None,
            threshold: int | None = None) -> GedResult:
    """GED via beam-stack search: exact, or with a threshold the decision
    ged <= threshold; see SearchRun for the knobs.

    When searches_from_q holds it runs SearchRun(q, g), which gives the
    same distance since GED is symmetric, and inverts the mapping, so the
    result still maps g onto q.
    """
    swap = searches_from_q(g, q, order_policy, threshold)
    run = SearchRun(
        *((q, g) if swap else (g, q)), w,
        order_policy=order_policy,
        succ_policy=succ_policy,
        node_budget=node_budget,
        time_limit=time_limit,
        threshold=threshold,
    )
    result = run.run()
    if swap:
        result.mapping = result.mapping.inverse()
    return result
