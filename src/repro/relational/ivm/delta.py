"""Exact delta propagation through query plans.

A :class:`Delta` is the set-valued diff of one relation: the rows that
appeared and the rows that vanished.  The invariant throughout is the
*exact-diff* law::

    inserted = new \\ old        deleted = old \\ new

so ``inserted`` and ``deleted`` are disjoint, ``inserted`` is a subset
of the new value and ``deleted`` is disjoint from it.  Two
consequences carry the whole module:

1. Applying a delta is exact: ``new == (old - deleted) | inserted``.
2. Inverting one is too: ``old == (new - inserted) | deleted`` -- so
   the propagator never needs an old database; the old value of
   any subtree is derived from its new value and its own delta.

Per-node rules (all proved exact by the law above; ``C`` is the child,
``L``/``R`` the binary inputs, ``d`` a child delta):

``Scan``
    The base table's diff, or empty.
``Restrict`` / ``Rename``
    Pointwise operators distribute over set difference: apply the
    operator to ``d.inserted`` and ``d.deleted`` separately.
``Project(attrs)``
    A projected key is inserted iff some inserted row produces it and
    no old row did; deleted iff some deleted row produced it and no
    new row still does.  Both membership tests are one semijoin
    (Def 7.6 restriction) against the candidate keys.
``Union`` / ``Difference``
    Only rows touched by either side's delta can change, so the
    candidate set is the union of both deltas; old and new membership
    of each candidate is decided by set algebra against the (derived)
    old and new input values, and the node delta is the candidate
    membership diff.
``Join``
    A joined row decomposes uniquely into its L- and R-parts, and it
    is in the join iff both parts are in their inputs.  So it is *new*
    iff one part is new and the other present now, *gone* iff one part
    is gone and the other was present before::

        inserted = (d_L.ins |x| R_new) | (L_new |x| d_R.ins)
        deleted  = (d_L.del |x| R_old) | (L_old |x| d_R.del)

    Exact as it stands: no candidate needs re-verifying against the
    full inputs, and an old value is derived only for the partner of a
    side that has deletions.

``Aggregate(group_attrs)``
    A group's row depends on that group's members alone, so only the
    groups a changed row belongs to can move: semijoin the (derived)
    old and new input values with the projected keys of ``d.inserted |
    d.deleted``, aggregate each, and diff the two answers.  Per-group
    arithmetic (``count``/``sum`` deltas) is not attempted.
``Limit`` / ungrouped ``Aggregate``
    Any input row can change which rows are kept (or the one summary
    row), so the node is applied to the whole old and new input values
    and the answers are diffed.

Everything runs on XSets, so XST member equality (the typed twins
``1`` / ``1.0`` / ``True`` collapse) is preserved end to end.  New
values come from the catalog's executor past its result cache (no
reader asked for a sub-plan, so none is stored or counted), which
means subtrees over columnar-encoded relations evaluate on the
sorted-run kernels for free.

Any node type without a rule raises :class:`DeltaUnsupported`; callers
(the view catalog) fall back to full recomputation.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.errors import SchemaError
from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.relational import algebra
from repro.relational.query import (
    Aggregate,
    Database,
    Difference,
    Join,
    Limit,
    Plan,
    Project,
    Rename,
    Restrict,
    Scan,
    Union,
)
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.xset import XSet

__all__ = ["Delta", "DeltaPropagator", "DeltaUnsupported"]


class DeltaUnsupported(Exception):
    """No delta rule for this plan node; recompute instead."""


class Delta:
    """An exact relation diff: disjoint inserted and deleted row sets."""

    __slots__ = ("inserted", "deleted")

    def __init__(self, inserted: Relation, deleted: Relation):
        if inserted.heading != deleted.heading:
            raise SchemaError(
                "delta halves disagree: %r vs %r"
                % (inserted.heading, deleted.heading)
            )
        self.inserted = inserted
        self.deleted = deleted

    @classmethod
    def empty(cls, heading: Heading) -> "Delta":
        blank = Relation(heading, XSet())
        return cls(blank, blank)

    @property
    def heading(self) -> Heading:
        return self.inserted.heading

    def is_empty(self) -> bool:
        return (
            self.inserted.cardinality() == 0
            and self.deleted.cardinality() == 0
        )

    def size(self) -> int:
        return self.inserted.cardinality() + self.deleted.cardinality()

    def apply_to(self, relation: Relation) -> Relation:
        """``(relation - deleted) | inserted`` -- exact by the diff law."""
        if relation.heading != self.heading:
            raise SchemaError(
                "cannot apply %r delta to %r relation"
                % (self.heading, relation.heading)
            )
        rows = (relation.rows - self.deleted.rows) | self.inserted.rows
        # Trusted: a difference and a union of same-heading relations.
        return Relation._from_valid(relation.heading, rows)

    def invert_from(self, relation: Relation) -> Relation:
        """Recover the old value from the new: ``(new - ins) | del``."""
        rows = (relation.rows - self.inserted.rows) | self.deleted.rows
        # Trusted: a difference and a union of same-heading relations.
        return Relation._from_valid(relation.heading, rows)

    def __repr__(self) -> str:
        return "Delta(+%d, -%d)" % (
            self.inserted.cardinality(), self.deleted.cardinality()
        )


#: Base deltas as handed to the propagator: table name -> Delta.
BaseDeltas = Mapping[str, Delta]


class DeltaPropagator:
    """Push base-table deltas up through one plan.

    ``db`` holds the *new* relation values; ``base_deltas`` maps
    changed table names to their exact diffs from the old.  Old values
    are derived, never stored: ``old = (new - inserted) | deleted``.
    Node deltas, new values and derived old values are all memoized by
    plan-node identity, so shared subtrees propagate once.

    Every computed node delta passes a governor checkpoint
    (``ivm.delta``) charged with the delta's row count, so a governed
    maintenance pass dies between nodes like any other query.
    """

    def __init__(self, db: Database, base_deltas: BaseDeltas):
        self._db = db
        self._base: Dict[str, Delta] = dict(base_deltas)
        self._deltas: Dict[int, Delta] = {}
        self._new_vals: Dict[int, Relation] = {}
        self._old_vals: Dict[int, Relation] = {}

    # -- values --------------------------------------------------------

    def new_value(self, plan: Plan) -> Relation:
        key = id(plan)
        value = self._new_vals.get(key)
        if value is None:
            # Past the readers' cache, as a view body is computed.
            self._db.heading_of(plan)
            value = self._db._execute_uncached(plan)
            self._new_vals[key] = value
        return value

    def old_value(self, plan: Plan) -> Relation:
        key = id(plan)
        value = self._old_vals.get(key)
        if value is None:
            delta = self.delta(plan)
            new = self.new_value(plan)
            value = new if delta.is_empty() else delta.invert_from(new)
            self._old_vals[key] = value
        return value

    # -- propagation ---------------------------------------------------

    def delta(self, plan: Plan) -> Delta:
        key = id(plan)
        result = self._deltas.get(key)
        if result is None:
            result = self._compute(plan)
            self._deltas[key] = result
            _gov_checkpoint(
                "ivm.delta", result.size(), len(result.heading.names)
            )
        return result

    def _compute(self, plan: Plan) -> Delta:
        rule = self._RULES.get(type(plan))
        if rule is None:
            raise DeltaUnsupported(
                "no delta rule for plan node %s" % type(plan).__name__
            )
        return rule(self, plan)

    def _scan(self, plan: Scan) -> Delta:
        base = self._base.get(plan.name)
        if base is not None:
            return base
        return Delta.empty(self._db.relation(plan.name).heading)

    def _pointwise(self, plan: Plan) -> Delta:
        child = self.delta(plan.child)
        if child.is_empty():
            return Delta.empty(self._db.heading_of(plan))
        return Delta(
            plan.apply(algebra, [child.inserted]),
            plan.apply(algebra, [child.deleted]),
        )

    def _project(self, plan: Project) -> Delta:
        child = self.delta(plan.child)
        heading = self._db.heading_of(plan)
        if child.is_empty():
            return Delta.empty(heading)
        attrs = plan.attrs
        if not attrs:
            # Zero-attribute projection is DEE/DUM territory: the
            # result flips between the empty row and nothing, so diff
            # the (at most one-row) projections directly.
            old = algebra.project(self.old_value(plan.child), attrs)
            new = algebra.project(self.new_value(plan.child), attrs)
            # Trusted: subsets of the two projections' rows.
            return Delta(
                Relation._from_valid(heading, new.rows - old.rows),
                Relation._from_valid(heading, old.rows - new.rows),
            )
        cand_ins = algebra.project(child.inserted, attrs)
        if cand_ins.cardinality():
            seen_before = algebra.project(
                algebra.semijoin(self.old_value(plan.child), cand_ins), attrs
            )
            inserted = algebra.difference(cand_ins, seen_before)
        else:
            inserted = cand_ins
        cand_del = algebra.project(child.deleted, attrs)
        if cand_del.cardinality():
            still_supported = algebra.project(
                algebra.semijoin(self.new_value(plan.child), cand_del), attrs
            )
            deleted = algebra.difference(cand_del, still_supported)
        else:
            deleted = cand_del
        return Delta(inserted, deleted)

    def _reapply(self, plan: Plan) -> Delta:
        """``Aggregate`` and ``Limit``: the node over the old and over
        the new input, diffed -- restricted, for a grouped aggregate,
        to the groups a changed row belongs to."""
        child = self.delta(plan.child)
        if child.is_empty():
            return Delta.empty(self._db.heading_of(plan))
        old, new = self.old_value(plan.child), self.new_value(plan.child)
        if isinstance(plan, Aggregate) and plan.group_attrs:
            touched = algebra.project(
                algebra.union(child.inserted, child.deleted), plan.group_attrs
            )
            old = algebra.semijoin(old, touched)
            new = algebra.semijoin(new, touched)
        before = plan.apply(algebra, [old])
        after = plan.apply(algebra, [new])
        return Delta(
            algebra.difference(after, before),
            algebra.difference(before, after),
        )

    def _combine(self, plan: Plan) -> Delta:
        left, right = self.delta(plan.left), self.delta(plan.right)
        heading = self._db.heading_of(plan)
        if left.is_empty() and right.is_empty():
            return Delta.empty(heading)
        cand = (
            left.inserted.rows | left.deleted.rows
            | right.inserted.rows | right.deleted.rows
        )
        l_new, r_new = self.new_value(plan.left), self.new_value(plan.right)
        l_old, r_old = self.old_value(plan.left), self.old_value(plan.right)
        if isinstance(plan, Union):
            before = (cand & l_old.rows) | (cand & r_old.rows)
            after = (cand & l_new.rows) | (cand & r_new.rows)
        else:
            before = (cand & l_old.rows) - r_old.rows
            after = (cand & l_new.rows) - r_new.rows
        # Trusted: subsets of the same-heading inputs' rows.
        return Delta(
            Relation._from_valid(heading, after - before),
            Relation._from_valid(heading, before - after),
        )

    def _join(self, plan: Join) -> Delta:
        left, right = self.delta(plan.left), self.delta(plan.right)
        if left.is_empty() and right.is_empty():
            return Delta.empty(self._db.heading_of(plan))
        return Delta(
            self._joined(plan, left.inserted, right.inserted, self.new_value),
            self._joined(plan, left.deleted, right.deleted, self.old_value),
        )

    def _joined(self, plan: Join, d_left: Relation, d_right: Relation,
                value_of) -> Relation:
        """``(d_left |x| right) | (left |x| d_right)`` over the inputs'
        values ``value_of`` gives -- one half of the join rule."""
        joined = Relation(self._db.heading_of(plan), XSet())
        if d_left.cardinality():
            joined = algebra.union(
                joined, algebra.join(d_left, value_of(plan.right))
            )
        if d_right.cardinality():
            joined = algebra.union(
                joined, algebra.join(value_of(plan.left), d_right)
            )
        return joined

    #: The delta rule of every node type that has one, as ``(self, node)``.
    _RULES = {
        Scan: _scan,
        Restrict: _pointwise,
        Rename: _pointwise,
        Project: _project,
        Union: _combine,
        Difference: _combine,
        Join: _join,
        Aggregate: _reapply,
        Limit: _reapply,
    }
