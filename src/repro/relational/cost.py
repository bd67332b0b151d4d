"""Cost-based planning: estimation, operator costs, join-order search.

The planner's one cardinality table and one join-ordering rule.

Three layers, each usable alone:

* :class:`CardinalityEstimator` -- estimated output rows for every
  plan node, read off the catalog value itself.  A base relation's
  rows are its cardinality; an attribute's distinct count is the size
  of its sigma-domain (Def 7.4) and an equality's rows the size of its
  restriction by one value (Def 7.6) -- the number of keys in the
  relation's member index for that attribute, and the length of the
  value's run in it.  Join selectivity is ``1 / max(distinct_left,
  distinct_right)`` per shared attribute.  Only a column no base
  relation stands behind (an ``Aggregate`` output) falls back to the
  constant :data:`_FALLBACK_EQ_SELECTIVITY`, and an opaque predicate
  always keeps one row in three (:data:`_FALLBACK_PRED_SELECTIVITY`).

* **Operator cost formulas** (:meth:`CardinalityEstimator.cost`) --
  one weighted-rows term per operator, calibrated against the shapes
  the kernel benchmarks measure (``bench_join``: hash join builds
  buckets over its *right* operand then probes with the left;
  ``bench_kernel``: re-scoping and restriction are linear per row
  with restriction cheaper than predicate evaluation).  The constants
  are documented in ``docs/optimizer.md``; only their *ratios* steer
  planning.

* **Join-order enumeration** (:func:`reorder_joins`) -- bottom-up
  dynamic programming over the join lattice (bushy trees); the only
  code that decides a join's sides or order.  Up to :data:`DP_MAX_RELATIONS` leaves
  the search is exact over connected splits (cartesian splits are
  admitted only when a lattice cell has no connected split); beyond
  that, or when the enumeration exceeds its step budget, it degrades
  gracefully to a greedy smallest-result-first order.  Every lattice
  level passes a ``checkpoint("optimizer.dp")`` so an ambient
  :class:`repro.gov.Governor` can cancel a pathological search
  mid-enumeration.

Determinism: estimates are pure functions of the catalog value, ties
break on the subset enumeration order, and nothing reads a clock --
the same plan over the same relations gives the same join order on
every run.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.obs import metrics as _metrics
from repro.obs.instrument import enabled as _obs_enabled
from repro.relational.query import (
    Aggregate,
    Database,
    Difference,
    Join,
    Limit,
    Plan,
    Project,
    Rename,
    Scan,
    SelectEq,
    SelectPred,
    Union,
)
from repro.relational.relation import Relation

__all__ = [
    "CardinalityEstimator",
    "member_index",
    "reorder_joins",
    "qerror",
    "DP_MAX_RELATIONS",
    "DP_STEP_BUDGET",
    "estimate_shard_rows",
    "broadcast_join_cost",
    "shuffle_join_cost",
]

#: Largest join-leaf count searched exhaustively (bushy DP); beyond it
#: ordering falls back to the greedy heuristic.
DP_MAX_RELATIONS = 8

#: Enumeration step budget: DP degrades to greedy past this many
#: candidate splits, bounding planning time on adversarial lattices.
DP_STEP_BUDGET = 4096

#: Selectivities assumed where the value cannot say: one row in ten
#: survives an equality on (or forms a group of) a column no base
#: relation stands behind, one in three an opaque predicate.
_FALLBACK_EQ_SELECTIVITY = 0.1
_FALLBACK_PRED_SELECTIVITY = 1.0 / 3.0

# ----------------------------------------------------------------------
# Operator cost constants (weighted rows; ratios calibrated against
# the kernel benchmark shapes -- see docs/optimizer.md).
# ----------------------------------------------------------------------

_COST_SCAN = 0.05        # a Scan returns the stored relation; near-free
_COST_SELECT_EQ = 1.0    # kernel restriction, one pass
_COST_SELECT_PRED = 1.6  # Python predicate per row beats restriction cost
_COST_RESCOPE = 1.2      # project/rename rebuild every row
_COST_JOIN_PROBE = 1.0   # per probe-side (left) row
_COST_JOIN_BUILD = 1.5   # per build-side (right) row: bucketing costs more
_COST_OUT_ROW = 1.0      # per produced row, any operator
_COST_SET_MERGE = 0.6    # union/difference per input row
# The next two are uncalibrated placeholders (reasoned from the kernels'
# steps, no benchmark behind them): no plan choice depends on them yet
# -- nothing reorders around an Aggregate or a Limit -- and the PR that
# first makes one does measures them.
_COST_AGGREGATE = 2.2    # member-index partition, column reads
_COST_LIMIT = 0.8        # key extraction and a sort, no row rebuilt

# Columnar (sorted-run) variants, applied only when every base relation
# under a node carries a run encoding -- then the whole subtree runs on
# the batch kernels of :mod:`repro.relational.columnar` and the row
# constants above overstate it.  Ratios from bench_kernel's
# columnar-vs-row cases: binary-search restriction touches candidates,
# not the relation; merge-intersection replaces both the hash build and
# the per-probe bucket lookups; rename is a column re-key.
_COST_COLUMNAR_SELECT_EQ = 0.12  # log-search + verify candidates
_COST_COLUMNAR_PROJECT = 0.6     # value-tuple dedup, no row rebuild
_COST_COLUMNAR_RENAME = 0.05     # re-key columns; runs carry over
_COST_MERGE_JOIN_INPUT = 0.4     # per input row of a merge walk, each side

#: Per input row of each unary operator: (row backend, columnar).  An
#: opaque predicate pays per-row Python on either backend.
_COST_PER_INPUT_ROW = {
    SelectEq: (_COST_SELECT_EQ, _COST_COLUMNAR_SELECT_EQ),
    SelectPred: (_COST_SELECT_PRED, _COST_SELECT_PRED),
    Project: (_COST_RESCOPE, _COST_COLUMNAR_PROJECT),
    Rename: (_COST_RESCOPE, _COST_COLUMNAR_RENAME),
    # No batch kernel: they never run encoded (``runs_encoded``).
    Aggregate: (_COST_AGGREGATE, _COST_AGGREGATE),
    Limit: (_COST_LIMIT, _COST_LIMIT),
}


def member_index(relation: Relation, attr: str) -> Dict[Any, Tuple]:
    """``attr``'s member index in ``relation``: each value of its
    sigma-domain (Def 7.4) -> the rows holding it, its restriction by
    that value (Def 7.6).  Keys meet by Python equality, so typed twins
    (``1``/``1.0``/``True``) share a run.  The relation's own, filled
    the first time it is asked for and carried across commits."""
    return relation.rows._members_holding(attr)


def _eq_rows(relation: Relation, attr: str, value: Any) -> int:
    return len(member_index(relation, attr).get(value, ()))


def estimate_shard_rows(
    relation: Relation,
    conditions: Dict[str, Any],
    predicate_count: int,
) -> float:
    """Rows one shard-side pipeline ships, after its pushed filters.

    The distributed coordinator's sizing primitive: ``relation`` is the
    table's committed value, shrunk by the fraction of it every pushed
    equality keeps (read off its member index, as the local planner
    reads it, so distributed and local estimates agree) and by the
    fallback factor per opaque predicate.
    """
    total = len(relation)
    rows = float(total)
    if total:
        for attr, value in conditions.items():
            rows = rows * _eq_rows(relation, attr, value) / total
    rows *= _FALLBACK_PRED_SELECTIVITY ** predicate_count
    return max(1.0, rows)


def broadcast_join_cost(small_rows: float, bucket_count: int) -> float:
    """Shipped rows for a broadcast join: the small side to every bucket."""
    return small_rows * max(1, bucket_count)


def shuffle_join_cost(moving_rows: float) -> float:
    """Shipped rows for a shuffle join: the re-keyed side moves once."""
    return moving_rows


def qerror(estimated: float, actual: float) -> float:
    """The q-error ``max(est/act, act/est)``, floored at one row each.

    1.0 is a perfect estimate; the factor is symmetric in over- and
    under-estimation, which is what makes it the standard plan-quality
    metric.
    """
    est = max(1.0, float(estimated))
    act = max(1.0, float(actual))
    return max(est / act, act / est)


class CardinalityEstimator:
    """Row estimates (and costs) for plan nodes, read off ``db``.

    One instance memoizes per plan-node identity, so estimating a
    whole tree is linear.  Every number comes from ``db``'s relations:
    their cardinalities and their member indexes, so the estimate of a
    plan is a function of the catalog value alone.  A plan handed in
    is bound: an equality's value is a value, never a
    :class:`~repro.relational.query.Param`.
    """

    def __init__(self, db: Database):
        self._db = db
        # Memo caches key on node identity; the node itself is stored
        # alongside the value so the id cannot be recycled by the
        # allocator while the cache entry lives.
        self._rows: Dict[int, Tuple[Plan, float]] = {}
        self._costs: Dict[int, Tuple[Plan, float]] = {}
        self._encoded: Dict[int, Tuple[Plan, bool]] = {}
        self._headings: Dict[int, Tuple[Plan, Any]] = {}

    # -- catalog access -------------------------------------------------

    def heading(self, plan: Plan):
        """:meth:`Database.heading_of`, once per node: the join search
        asks for the same subplans' headings at every lattice cell."""
        key = id(plan)
        cached = self._headings.get(key)
        if cached is None or cached[0] is not plan:
            cached = (plan, self._db.heading_of(plan))
            self._headings[key] = cached
        return cached[1]

    def runs_encoded(self, plan: Plan) -> bool:
        """True when this node will execute on the columnar backend.

        The dispatch rule in :meth:`Database.execute_node` reduces
        to: the subtree runs columnar iff every base relation under it
        carries a run encoding (mixed trees promote the row side, which
        is what the ``any``-sticky dispatch does; costing that
        conservatively as row keeps the model honest about the encode
        it would pay).  An operator with no batch kernel (``Aggregate``,
        ``Limit``) hands its operand back to rows, so neither it nor
        anything above it runs encoded.
        """
        key = id(plan)
        cached = self._encoded.get(key)
        if cached is None or cached[0] is not plan:
            if isinstance(plan, Scan):
                has = getattr(self._db, "has_columnar", None)
                value = bool(has is not None and has(plan.name))
            elif isinstance(plan, (Aggregate, Limit)):
                value = False
            else:
                children = plan.children()
                value = bool(children) and all(
                    self.runs_encoded(child) for child in children
                )
            cached = (plan, value)
            self._encoded[key] = cached
        return cached[1]

    def _base(self, plan: Plan, attr: str) -> Optional[Tuple[Relation, str]]:
        """The base relation behind ``attr`` at this node and its name
        there; ``None`` for a column this plan computes."""
        if isinstance(plan, Scan):
            return self._db.relation(plan.name), attr
        inner = plan.origin(attr)
        for child in plan.children():
            if inner in self.heading(child):
                found = self._base(child, inner)
                if found is not None:
                    return found
        return None

    def distinct(self, plan: Plan, attr: str) -> Optional[float]:
        """Estimated distinct values of ``attr`` in this node's output.

        The base relation's distinct count -- the keys of its member
        index, the size of its sigma-domain (Def 7.4) -- capped by the
        node's own estimated cardinality (a 40-row intermediate cannot
        carry 500 distinct keys) and collapsed to one when an equality
        selection below this node pins the attribute to a single
        literal.  ``None`` when no base relation stands behind the
        column, or it has no rows.
        """
        base = self._base(plan, attr)
        if base is None:
            return None
        relation, inner = base
        distinct = len(member_index(relation, inner))
        if not distinct:
            return None
        if self._is_pinned(plan, attr):
            return 1.0
        return min(float(distinct), max(1.0, self.estimate(plan)))

    def _is_pinned(self, plan: Plan, attr: str) -> bool:
        """True when a SelectEq under this node fixes ``attr``'s value."""
        if isinstance(plan, SelectEq) and attr in plan.conditions:
            return True
        if isinstance(plan, (Union, Difference)):
            return False
        # The natural join equates shared attributes, so a pin on
        # either side pins the joined column.
        inner = plan.origin(attr)
        return any(
            inner in self.heading(child) and self._is_pinned(child, inner)
            for child in plan.children()
        )

    # -- cardinality ----------------------------------------------------

    def estimate(self, plan: Plan) -> float:
        key = id(plan)
        cached = self._rows.get(key)
        if cached is None or cached[0] is not plan:
            cached = (plan, max(0.0, self._estimate(plan)))
            self._rows[key] = cached
        return cached[1]

    def _estimate(self, plan: Plan) -> float:
        rule = self._ESTIMATES.get(type(plan))
        if rule is None:
            raise TypeError("unknown plan node %r" % (plan,))
        return rule(self, plan)

    def _select_eq_rows(self, plan: SelectEq) -> float:
        """Each equality keeps the share of its base relation that its
        value's run holds: over a ``Scan``, exactly the rows a single
        condition restricts to (typed twins aside)."""
        rows = self.estimate(plan.child)
        if not rows:
            return 0.0
        for attr, value in sorted(plan.conditions.items()):
            base = self._base(plan.child, attr)
            if base is None:
                rows *= _FALLBACK_EQ_SELECTIVITY
                continue
            relation, inner = base
            # Multiplied before dividing, so a lone condition over a
            # Scan comes out as the run length itself.
            total = len(relation)
            rows = (rows * _eq_rows(relation, inner, value) / total
                    if total else 0.0)
        return max(1.0, rows)

    def _aggregate_rows(self, plan: Aggregate) -> float:
        """One row per group: the product of the group attributes'
        distinct counts where base relations stand behind them all,
        else the heuristic one-in-ten; never more than the input."""
        if not plan.group_attrs:
            return 1.0
        child_rows = self.estimate(plan.child)
        distincts = [
            self.distinct(plan.child, attr) for attr in plan.group_attrs
        ]
        if None in distincts:
            return min(
                child_rows, max(1.0, child_rows * _FALLBACK_EQ_SELECTIVITY)
            )
        return min(child_rows, math.prod(distincts))

    #: The cardinality rule of every node type, as ``(self, node)``.
    _ESTIMATES = {
        Scan: lambda self, plan: float(len(self._db.relation(plan.name))),
        SelectEq: _select_eq_rows,
        SelectPred: lambda self, plan: max(
            1.0, self.estimate(plan.child) * _FALLBACK_PRED_SELECTIVITY
        ),
        Project: lambda self, plan: self.estimate(plan.child),
        Rename: lambda self, plan: self.estimate(plan.child),
        Join: lambda self, plan: self.join_rows(plan.left, plan.right),
        Union: lambda self, plan: (
            self.estimate(plan.left) + self.estimate(plan.right)
        ),
        Difference: lambda self, plan: self.estimate(plan.left),
        Aggregate: _aggregate_rows,
        Limit: lambda self, plan: min(
            float(plan.count), self.estimate(plan.child)
        ),
    }

    def join_rows(self, left: Plan, right: Plan) -> float:
        """Estimated natural-join output of two subplans.

        ``|L| * |R| / prod(max(d_left(a), d_right(a)))`` over shared
        attributes -- the containment-of-values assumption.  Any shared
        attribute without a distinct count on either side (a computed
        column, an empty relation) drops the whole estimate to the
        heuristic ``max(|L|, |R|)`` bound, so formulas never mix
        silently.
        """
        left_rows = self.estimate(left)
        right_rows = self.estimate(right)
        shared = self.heading(left).common(self.heading(right))
        if not shared:
            return left_rows * right_rows  # cartesian
        divisor = 1.0
        for attr in shared:
            left_distinct = self.distinct(left, attr)
            right_distinct = self.distinct(right, attr)
            if left_distinct is None or right_distinct is None:
                return float(max(left_rows, right_rows))
            divisor *= max(left_distinct, right_distinct, 1.0)
        return max(1.0, left_rows * right_rows / divisor)

    # -- cost -----------------------------------------------------------

    def cost(self, plan: Plan) -> float:
        """Total estimated cost (weighted rows) of executing ``plan``."""
        key = id(plan)
        cached = self._costs.get(key)
        if cached is None or cached[0] is not plan:
            cached = (plan, self._cost(plan))
            self._costs[key] = cached
        return cached[1]

    def _cost(self, plan: Plan) -> float:
        rule = self._COSTS.get(type(plan))
        if rule is None:
            raise TypeError("unknown plan node %r" % (plan,))
        return rule(self, plan, self.estimate(plan))

    def _unary_cost(self, plan: Plan, rows: float) -> float:
        row, columnar = _COST_PER_INPUT_ROW[type(plan)]
        per_row = columnar if self.runs_encoded(plan) else row
        return (self.cost(plan.child)
                + self.estimate(plan.child) * per_row
                + rows * _COST_OUT_ROW)

    def _join_cost(self, plan: Join, rows: float) -> float:
        return (self.cost(plan.left) + self.cost(plan.right)
                + self._join_step(plan.left, plan.right, rows))

    def _merge_cost(self, plan: Plan, rows: float) -> float:
        return (self.cost(plan.left) + self.cost(plan.right)
                + (self.estimate(plan.left) + self.estimate(plan.right))
                * _COST_SET_MERGE
                + rows * _COST_OUT_ROW)

    #: The cost formula of every node type, as ``(self, node, rows)``.
    _COSTS = {
        Scan: lambda self, plan, rows: rows * _COST_SCAN,
        SelectEq: _unary_cost,
        SelectPred: _unary_cost,
        Project: _unary_cost,
        Rename: _unary_cost,
        Join: _join_cost,
        Union: _merge_cost,
        Difference: _merge_cost,
        Aggregate: _unary_cost,
        Limit: _unary_cost,
    }

    def _join_step(self, left: Plan, right: Plan, out_rows: float) -> float:
        """The join-step cost between two subplans, backend-aware.

        Both sides columnar -> merge-intersection of sorted runs; any
        row side -> the hash path (build right, probe left).  Used by
        :meth:`_cost` and the DP enumeration, so a fully encoded
        database steers the join search with merge economics.
        """
        if self.runs_encoded(left) and self.runs_encoded(right):
            return self.merge_join_step_cost(
                self.estimate(left), self.estimate(right), out_rows
            )
        return self.join_step_cost(
            self.estimate(left), self.estimate(right), out_rows
        )

    @staticmethod
    def join_step_cost(left_rows: float, right_rows: float,
                       out_rows: float) -> float:
        """One hash join step: probe left, build right, emit out.

        ``relative_product`` buckets its *second* operand, so build
        cost lands on the right input -- which is why a cheaper plan
        puts the smaller side right.
        """
        return (left_rows * _COST_JOIN_PROBE
                + right_rows * _COST_JOIN_BUILD
                + out_rows * _COST_OUT_ROW)

    @staticmethod
    def merge_join_step_cost(left_rows: float, right_rows: float,
                             out_rows: float) -> float:
        """One merge join step over two sorted runs.

        Symmetric in its inputs (both sides are walked once; neither
        builds anything), which is exactly why it undercuts the hash
        path: no build side, no per-probe bucket chasing.
        """
        return ((left_rows + right_rows) * _COST_MERGE_JOIN_INPUT
                + out_rows * _COST_OUT_ROW)


# ----------------------------------------------------------------------
# Join-order enumeration
# ----------------------------------------------------------------------


def reorder_joins(plan: Plan, db: Database,
                  estimator: Optional[CardinalityEstimator] = None) -> Plan:
    """Reorder every maximal join region of ``plan`` by estimated cost.

    Walks the tree; each contiguous cluster of Join nodes is flattened
    to its leaves (which are recursively reordered first) and rebuilt
    bottom-up: exact bushy DP up to :data:`DP_MAX_RELATIONS` leaves,
    greedy smallest-result-first beyond that or past the step budget.
    Non-join operators are preserved in place, so selections already
    pushed into join inputs stay exactly where the rewrite passes put
    them.
    """
    if estimator is None:
        estimator = CardinalityEstimator(db)
    return _reorder(plan, estimator)


def _reorder(plan: Plan, est: CardinalityEstimator) -> Plan:
    if isinstance(plan, Join):
        leaves = []
        _flatten(plan, leaves)
        leaves = [_reorder(leaf, est) for leaf in leaves]
        return _order_leaves(leaves, est)
    return plan.with_children(
        *[_reorder(child, est) for child in plan.children()]
    )


def _flatten(plan: Plan, leaves: List[Plan]) -> None:
    """Collect the non-Join leaves of a maximal Join subtree."""
    if isinstance(plan, Join):
        _flatten(plan.left, leaves)
        _flatten(plan.right, leaves)
    else:
        leaves.append(plan)


def _record_search(kind: str) -> None:
    if _obs_enabled():
        _metrics.registry().counter(
            "repro_opt_join_search_total",
            "Join-order searches by strategy.", ("strategy",),
        ).inc(strategy=kind)


def _order_leaves(leaves: List[Plan], est: CardinalityEstimator) -> Plan:
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) > DP_MAX_RELATIONS:
        _record_search("greedy")
        return _greedy(leaves, est)
    ordered = _dp(leaves, est)
    if ordered is None:
        _record_search("greedy_budget")
        return _greedy(leaves, est)
    _record_search("dp")
    return ordered


def _connected(est: CardinalityEstimator, left: Plan, right: Plan) -> bool:
    return bool(est.heading(left).common(est.heading(right)))


def _dp(leaves: List[Plan], est: CardinalityEstimator) -> Optional[Plan]:
    """Bushy dynamic programming over the join lattice.

    ``best[mask]`` holds ``(cost, plan)`` for the leaf subset encoded
    by ``mask``.  Cells are filled level by level (subset cardinality
    order); each level passes a governor checkpoint so a deadline or
    budget can cancel the search mid-lattice, and the step counter
    degrades to greedy (return ``None``) past
    :data:`DP_STEP_BUDGET` candidate splits.
    """
    count = len(leaves)
    best: Dict[int, Tuple[float, Plan]] = {}
    for index, leaf in enumerate(leaves):
        best[1 << index] = (est.cost(leaf), leaf)
    steps = 0
    # Group masks by popcount so the lattice fills strictly bottom-up.
    by_level: Dict[int, List[int]] = {}
    for mask in range(1, 1 << count):
        by_level.setdefault(bin(mask).count("1"), []).append(mask)
    for level in range(2, count + 1):
        _gov_checkpoint("optimizer.dp")
        for mask in by_level.get(level, ()):
            candidates: List[Tuple[float, Plan]] = []
            cartesian: List[Tuple[float, Plan]] = []
            submask = (mask - 1) & mask
            while submask:
                rest = mask ^ submask
                if rest and submask in best and rest in best:
                    steps += 1
                    if steps > DP_STEP_BUDGET:
                        return None
                    left_cost, left_plan = best[submask]
                    right_cost, right_plan = best[rest]
                    out_rows = est.join_rows(left_plan, right_plan)
                    total = (left_cost + right_cost
                             + est._join_step(left_plan, right_plan, out_rows))
                    bucket = (
                        candidates
                        if _connected(est, left_plan, right_plan)
                        else cartesian
                    )
                    bucket.append((total, Join(left_plan, right_plan)))
                submask = (submask - 1) & mask
            # Cartesian splits only when the cell has no connected one.
            pool = candidates or cartesian
            if pool:
                best[mask] = min(pool, key=lambda item: item[0])
    full = (1 << count) - 1
    return best[full][1] if full in best else None


def _greedy(leaves: List[Plan], est: CardinalityEstimator) -> Plan:
    """Smallest-estimated-result-first pairing (connected preferred).

    O(n^3) and deterministic: at each step join the pair with the
    smallest estimated output (ties to the earliest pair in input
    order), placing the smaller input on the build (right) side.
    """
    working = list(leaves)
    while len(working) > 1:
        _gov_checkpoint("optimizer.dp")
        best_pair: Optional[Tuple[int, int]] = None
        best_rows = 0.0
        best_connected = False
        for i in range(len(working)):
            for j in range(i + 1, len(working)):
                connected = _connected(est, working[i], working[j])
                rows = est.join_rows(working[i], working[j])
                better = (
                    best_pair is None
                    or (connected and not best_connected)
                    or (connected == best_connected and rows < best_rows)
                )
                if better:
                    best_pair, best_rows = (i, j), rows
                    best_connected = connected
        i, j = best_pair  # type: ignore[misc]
        left, right = working[i], working[j]
        if est.estimate(left) < est.estimate(right):
            left, right = right, left  # smaller side builds (right)
        joined = Join(left, right)
        working = [
            node for k, node in enumerate(working) if k not in (i, j)
        ] + [joined]
    return working[0]
