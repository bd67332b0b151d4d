"""Integrity constraints and a transactional table.

Section 1 of the paper claims extended set processing "allows building
intrinsically reliable systems".  The executable content of that claim
is that integrity rules are *set equations* checked by the same kernel
operations that run queries:

* a **key constraint** holds when projecting onto the key loses no
  rows -- ``|D_key(R)| == |R|``;
* a **foreign-key constraint** holds when the referencing rows survive
  a semijoin (Def 7.6 restriction) against the referenced relation --
  the violating rows are literally ``R ~ (R |_key S)``;
* a **check constraint** is separation by predicate.

:class:`Table` wraps a relation with declared constraints and applies
every mutation copy-on-write: the new row set is validated *before*
the table's pointer moves, so a failed insert/delete/update leaves the
visible state untouched (all-or-nothing at statement granularity).

A statement knows which rows it adds and removes, so it carries that
*delta* -- ``(inserted, deleted)`` row sets under the exact-diff law
``inserted = new \\ old``, ``deleted = old \\ new`` -- to every later
stage.  A constraint that held before a write still holds iff its
**delta rule** (``check_delta``) passes on the changed rows; the
whole-relation ``check`` stays the definition, used where no valid
prior state is known and by any constraint without a delta rule.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import IntegrityError, SchemaError
from repro.relational.algebra import _attribute_identity
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.builders import xrecord, xset
from repro.xst.domain import sigma_domain
from repro.xst.restrict import sigma_restrict
from repro.xst.xset import EMPTY, XSet, _admit_all

__all__ = [
    "IntegrityError",
    "KeyConstraint",
    "ForeignKeyConstraint",
    "CheckConstraint",
    "Table",
]


class KeyConstraint:
    """Attributes that must determine rows uniquely."""

    def __init__(self, attrs: Sequence[str], name: str = ""):
        self.attrs = tuple(attrs)
        self.name = name or "key(%s)" % ", ".join(self.attrs)

    def check(self, relation: Relation) -> None:
        relation.heading.require(self.attrs)
        keys = sigma_domain(relation.rows, _attribute_identity(self.attrs))
        if len(keys) != len(relation.rows):
            raise IntegrityError(
                "%s violated: %d rows share %d distinct keys"
                % (self.name, len(relation.rows), len(keys))
            )

    def check_delta(self, relation: Relation, inserted: XSet, deleted: XSet) -> None:
        """The key held before; on ``relation = R' = (R - deleted) |
        inserted`` it holds iff the inserted rows have distinct keys,
        ``|D_key(ins)| == |ins|``, and no other row of ``R'`` shares
        one: ``|R' |_key D_key(ins)| == |D_key(ins)|``."""
        if not inserted:
            return
        identity = _attribute_identity(self.attrs)
        keys = sigma_domain(inserted, identity)
        sharing = len(inserted)
        if sharing == len(keys):
            sharing = len(sigma_restrict(relation.rows, keys, identity))
        if sharing != len(keys):
            raise IntegrityError(
                "%s violated: %d rows share %d distinct keys"
                % (self.name, sharing, len(keys))
            )

    def __repr__(self) -> str:
        return "KeyConstraint(%s)" % ", ".join(self.attrs)


class ForeignKeyConstraint:
    """Referencing attributes must resolve in a referenced table.

    ``referenced`` is a callable returning the current referenced
    :class:`Relation`, so the constraint always checks against live
    state rather than a snapshot -- and so has no delta rule: a write
    to the *referenced* table can break it while this table's own
    delta is empty.
    """

    def __init__(
        self,
        attrs: Sequence[str],
        referenced: Callable[[], Relation],
        referenced_attrs: Optional[Sequence[str]] = None,
        name: str = "",
    ):
        self.attrs = tuple(attrs)
        self.referenced = referenced
        self.referenced_attrs = tuple(referenced_attrs or attrs)
        if len(self.attrs) != len(self.referenced_attrs):
            raise SchemaError("foreign key attribute lists differ in length")
        self.name = name or "fk(%s)" % ", ".join(self.attrs)

    def violations(self, relation: Relation) -> Relation:
        """The referencing rows with no partner: ``R ~ (R |_key S)``."""
        relation.heading.require(self.attrs)
        target = self.referenced()
        target.heading.require(self.referenced_attrs)
        # Re-scope the referenced keys into the referencing alphabet.
        key_sigma = XSet(zip(self.referenced_attrs, self.attrs))
        target_keys = sigma_domain(target.rows, key_sigma)
        surviving = sigma_restrict(
            relation.rows, target_keys, _attribute_identity(self.attrs)
        )
        # Trusted: a subset of ``relation``'s own rows.
        return Relation._from_valid(
            relation.heading, relation.rows - surviving
        )

    def check(self, relation: Relation) -> None:
        dangling = self.violations(relation)
        if dangling:
            example = next(iter(dangling.iter_dicts()))
            raise IntegrityError(
                "%s violated by %d rows, e.g. %r"
                % (self.name, dangling.cardinality(), example)
            )

    def __repr__(self) -> str:
        return "ForeignKeyConstraint(%s -> %s)" % (
            ", ".join(self.attrs),
            ", ".join(self.referenced_attrs),
        )


class CheckConstraint:
    """A row predicate every row must satisfy."""

    def __init__(self, predicate: Callable[[Dict[str, Any]], bool], name: str):
        self.predicate = predicate
        self.name = name

    def check(self, relation: Relation) -> None:
        for row in relation.iter_dicts():
            if not self.predicate(row):
                raise IntegrityError(
                    "check %r violated by %r" % (self.name, row)
                )

    def check_delta(self, relation: Relation, inserted: XSet, deleted: XSet) -> None:
        """Rows already present passed when they arrived; check the new."""
        # Trusted: ``inserted`` is a subset of ``relation``'s rows.
        self.check(Relation._from_valid(relation.heading, inserted))

    def __repr__(self) -> str:
        return "CheckConstraint(%s)" % self.name


#: A write's delta: the ``(inserted, deleted)`` row sets, an exact diff.
Diff = Tuple[XSet, XSet]
_NO_DIFF: Diff = (EMPTY, EMPTY)


def _then(diff: Diff, inserted: XSet, deleted: XSet) -> Diff:
    """The net of ``diff`` then the exact step ``(inserted, deleted)``:
    a row inserted and later deleted, or deleted and re-inserted, nets
    to nothing, so the composition is again an exact diff."""
    if diff is _NO_DIFF:
        # What the general form reduces to, without its six set
        # operations: a fifth of a one-row commit's profile events.
        return inserted, deleted
    gained, lost = diff
    return (
        (gained - deleted) | (inserted - lost),
        (lost - inserted) | (deleted - gained),
    )


class Table:
    """A mutable, constraint-guarded view over immutable relations.

    Every mutation builds its exact delta and the candidate relation
    ``(current - deleted) | inserted``, validates the candidate through
    each constraint's delta rule, and only then replaces the current
    state -- a failed statement changes nothing.  The underlying
    relations remain immutable values, so old states can be held,
    compared or diffed for free (:meth:`snapshot`).  ``rows`` may be a
    same-heading :class:`Relation`, adopted as the initial value as is.
    """

    def __init__(
        self,
        names: Sequence[str],
        rows: Relation | Iterable[Mapping[str, Any]] = (),
        constraints: Sequence[object] = (),
    ):
        self._heading = names if isinstance(names, Heading) else Heading(names)
        self._constraints: List[object] = list(constraints)
        self._deferred = False
        if isinstance(rows, Relation):
            if rows.heading != self._heading:
                raise SchemaError(
                    "relation %r does not fit %r" % (rows, self._heading)
                )
            candidate = rows
        else:
            candidate = Relation.from_dicts(self._heading, rows)
        for constraint in self._constraints:
            constraint.check(candidate)
        self._current = candidate
        # The net delta since the constraints last held on the state...
        self._unchecked = _NO_DIFF
        # ...and since the outermost open transaction began (None
        # outside one: nobody will ask, so nothing accumulates).
        self._net: Optional[Diff] = None
        # The TransactionManager this table is enrolled in, if any.
        self._owner = None

    # -- constraint plumbing --------------------------------------------

    def add_constraint(self, constraint: object) -> None:
        """Declare a constraint; current rows must already satisfy it."""
        constraint.check(self._current)
        self._constraints.append(constraint)

    def _check(self, candidate: Relation, diff: Diff) -> None:
        """Would the constraints, valid before ``diff``, hold on ``candidate``?"""
        for constraint in self._constraints:
            rule = getattr(constraint, "check_delta", None)
            if rule is None:
                constraint.check(candidate)
            else:
                rule(candidate, *diff)

    def defer_validation(self, deferred: bool) -> None:
        """Suspend/resume per-statement checking (transactions use this).

        While deferred, mutations apply without constraint checks;
        call :meth:`check_now` (or let the transaction manager do it
        at commit) to validate the accumulated state.  Unchecked rows
        stay pending until a check passes: resume without
        :meth:`check_now` and the next statement checks them.
        """
        self._deferred = bool(deferred)

    def check_now(self) -> None:
        """Validate the current state against every constraint: the
        rows changed since the constraints last held through each
        delta rule, the whole relation where there is none."""
        self._check(self._current, self._unchecked)
        self._unchecked = _NO_DIFF

    def needs_check(self) -> bool:
        """Could :meth:`check_now` fail?  Only with rows changed since
        the constraints last held, or with a constraint that has no
        delta rule (it reads state this table's delta cannot see)."""
        return any(self._unchecked) or not all(
            hasattr(constraint, "check_delta")
            for constraint in self._constraints
        )

    @property
    def constraints(self) -> Tuple[object, ...]:
        return tuple(self._constraints)

    # -- state ------------------------------------------------------------

    @property
    def heading(self) -> Heading:
        return self._heading

    def snapshot(self) -> Relation:
        """The current state as an immutable relation value."""
        return self._current

    def __len__(self) -> int:
        return self._current.cardinality()

    # -- transaction support ----------------------------------------------

    def savepoint(self) -> Tuple[Relation, Diff, Optional[Diff]]:
        """What a transaction scope restores on failure: the relation
        value, then the deltas carried with it.  The outermost scope's
        savepoint starts the net delta :meth:`commit_diff` reads."""
        state = (self._current, self._unchecked, self._net)
        if self._net is None:
            self._net = _NO_DIFF
        return state

    def restore(self, savepoint: Tuple[Relation, Diff, Optional[Diff]]) -> None:
        """Return to a :meth:`savepoint`; nothing to re-check, relation
        and pending deltas come back together."""
        self._current, self._unchecked, self._net = savepoint

    def commit_diff(self, began: Relation) -> Optional[Diff]:
        """The exact ``(inserted, deleted)`` net of every statement
        since the outermost :meth:`savepoint`, ``None`` when empty;
        ends that scope.  A table touched to no net effect goes back to
        ``began``, the relation the scope began with: equal by
        exactness of the diff, and spelled as the log spells it (delete
        ``v = 1``, insert ``v = 1.0`` logs nothing, keeps nothing)."""
        net, self._net = self._net, None
        if net is None or net is _NO_DIFF:
            return None
        if net[0] or net[1]:
            return net
        self._current = began
        return None

    # -- mutations ----------------------------------------------------------

    def _apply(self, inserted: XSet, deleted: XSet) -> None:
        """Move to ``(current - deleted) | inserted``, an exact delta:
        ``inserted`` validated under this heading and disjoint from
        the current rows, ``deleted`` a subset of them.  On an enrolled
        table outside any scope (no net delta is being kept) that is a
        one-statement transaction: the commit path checks, logs,
        versions and announces it."""
        if self._owner is not None and self._net is None:
            with self._owner.transaction():
                return self._apply(inserted, deleted)
        if self._net is not None and self._net[1] and inserted:
            # A row this scope deleted and now inserts again nets out of
            # the diff, so the log keeps the spelling the scope deleted
            # (``v = 1`` for ``v = 1.0``); memory keeps that one too.
            revived = self._net[1] & inserted
            if revived:
                inserted = (inserted - revived) | revived
        # No change, no new value.  Otherwise trusted: a difference and
        # a union of row sets each validated under this heading.
        candidate = self._current
        if inserted or deleted:
            candidate = Relation._from_valid(
                self._heading, (candidate.rows - deleted) | inserted
            )
        unchecked = _then(self._unchecked, inserted, deleted)
        if not self._deferred:
            self._check(candidate, unchecked)
            unchecked = _NO_DIFF
        self._current, self._unchecked = candidate, unchecked
        if self._net is not None:
            self._net = _then(self._net, inserted, deleted)

    def insert(self, row: Mapping[str, Any], *more: Mapping[str, Any]) -> None:
        """Insert ``row`` and then each of ``more``, one statement: the
        rows are built once and applied as one delta.  A row already
        present, or repeated among them, is an :class:`IntegrityError`;
        the first refusal in the order given is the one raised, as it
        would be row by row."""
        rows = (row, *more)
        try:
            added = Relation.from_dicts(self._heading, rows).rows
        except Exception:
            added = None  # a malformed row; a repeat before it comes first
        if added is None or len(added) != len(rows) \
                or not added.isdisjoint(self._current.rows):
            self._refuse_first(rows)
        self._apply(added, EMPTY)

    def _refuse_first(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Raise what inserting ``rows`` one by one raises first: a
        malformed row's own refusal, or a row already present."""
        held = self._current.rows
        for row in rows:
            one = Relation.from_dicts(self._heading, [row]).rows
            if one <= held:
                raise IntegrityError("row already present: %r" % (dict(row),))
            held = held | one

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """All-or-nothing bulk insert; returns the number added."""
        addition = Relation.from_dicts(self._heading, rows).rows
        inserted = addition - self._current.rows
        self._apply(inserted, EMPTY)
        return len(inserted)

    def _matching(self, wheres: Sequence[Mapping[str, Any]]) -> XSet:
        """The current rows matching any of ``wheres``, each a record of
        attribute equalities (``{}`` matches every row): one Def 7.6
        restriction by the set of those records.  A value no set can
        hold (``nan``, or no atom) is refused as
        :class:`~repro.relational.algebra.Comparison` refuses it, and an
        unknown attribute too, before any row is read."""
        for where in wheres:
            _admit_all(where.values())
            self._heading.require(where)
        attrs = tuple(dict.fromkeys(attr for where in wheres for attr in where))
        return sigma_restrict(
            self._current.rows, xset(map(xrecord, wheres)),
            _attribute_identity(attrs),
        )

    def delete(self, where: Mapping[str, Any],
               *more: Mapping[str, Any]) -> int:
        """Delete the rows matching ``where`` or any of ``more`` in one
        statement (:meth:`_matching`); returns the count."""
        doomed = self._matching((where, *more))
        self._apply(EMPTY, doomed)
        return len(doomed)

    def update(
        self,
        conditions: Mapping[str, Any],
        changes: Mapping[str, Any],
    ) -> int:
        """Set attributes on matching rows; returns rows changed.  A
        value no set can hold (``nan``, or no atom) is refused before
        any row is read, whether or not a row matches."""
        self._heading.require(changes)
        _admit_all(changes.values())
        matched = self._matching((conditions,))
        if not matched:
            return 0
        rewritten = Relation.from_dicts(self._heading, (
            {**row.as_record(), **changes} for row, _ in matched.pairs()
        )).rows
        # A rewritten row equal to a current one is no insertion, and a
        # matched row rewritten to itself is no deletion.
        self._apply(rewritten - self._current.rows, matched - rewritten)
        return len(matched)

    def __repr__(self) -> str:
        return "Table(%r, %d rows, %d constraints)" % (
            self._heading, len(self), len(self._constraints)
        )
