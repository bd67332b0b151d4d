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

:class:`Table` wraps a relation value with declared constraints, and
every mutation is copy-on-write.  A statement knows which rows it adds
and removes, so it builds that *delta* -- ``(inserted, deleted)`` row
sets under the exact-diff law ``inserted = new \\ old``, ``deleted =
old \\ new`` -- and hands it on; the candidate value is checked before
it becomes visible (in a deferred transaction, at its commit), so a
refused statement changes nothing.  A constraint that held before a
write still holds iff its **delta rule** (``check_delta``) passes on
the changed rows; the whole-relation ``check`` stays the definition,
used by any constraint without a delta rule.

An enrolled table keeps nothing of a transaction: the
:class:`~repro.relational.tx.TransactionManager` holds the open
transaction as one map of working values and net deltas over the
committed value it read, and a statement replaces one entry of it
(:func:`_then` composes the delta).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import IntegrityError, SchemaError
from repro.relational.algebra import _attribute_identity, _distinct_at
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.domain import sigma_domain
from repro.xst.restrict import restrict_records, sigma_restrict
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
        """The referencing rows with no partner: ``R ~ (R |_key S)``.

        A record row holds one key, so that is the Def 7.6 restriction
        of ``R`` by the keys ``R`` holds and ``S`` does not: the keys
        are read off the member indexes, and only dangling rows are
        touched."""
        relation.heading.require(self.attrs)
        target = self.referenced()
        target.heading.require(self.referenced_attrs)
        resolved = _distinct_at(target.rows, self.referenced_attrs)
        dangling = [
            dict(zip(self.attrs, values))
            for values in _distinct_at(relation.rows, self.attrs)
            if values not in resolved
        ]
        # Trusted: a subset of ``relation``'s own rows.
        return Relation._from_valid(
            relation.heading, restrict_records(relation.rows, dangling)
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


def _moved(relation: Relation, inserted: XSet, deleted: XSet) -> Relation:
    """``(relation - deleted) | inserted`` for an exact delta; no change,
    no new value.  Trusted: a difference and a union of row sets each
    valid under ``relation``'s heading."""
    if not (inserted or deleted):
        return relation
    return Relation._from_valid(
        relation.heading, (relation.rows - deleted) | inserted
    )


class Table:
    """A constraint-guarded name for an immutable relation value.

    Every statement builds its exact delta ``(inserted, deleted)`` from
    the value it reads and hands it on; the relations stay immutable
    values, so old states can be held, compared or diffed for free
    (:meth:`snapshot`).  ``rows`` may be a same-heading
    :class:`Relation`, adopted as the initial value as is.

    A *standalone* table holds its value and checks every statement
    through each constraint's delta rule before its value moves -- a
    refused statement changes nothing.  A table *enrolled* in a
    :class:`~repro.relational.tx.TransactionManager` holds no state at
    all: its value is the manager's (the open transaction's working
    value, else the committed one), and a statement is one step of the
    open transaction or, outside any, a transaction of its own.
    """

    def __init__(
        self,
        names: Sequence[str],
        rows: Relation | Iterable[Mapping[str, Any]] = (),
        constraints: Sequence[object] = (),
    ):
        self._heading = names if isinstance(names, Heading) else Heading(names)
        self._constraints: List[object] = list(constraints)
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
        # The value while standalone; enrolled, the manager holds it.
        self._relation: Optional[Relation] = candidate
        # The TransactionManager this table is enrolled in, its name there.
        self._owner = None
        self._name: Optional[str] = None

    # -- constraint plumbing --------------------------------------------

    def add_constraint(self, constraint: object) -> None:
        """Declare a constraint; current rows must already satisfy it."""
        constraint.check(self.snapshot())
        self._constraints.append(constraint)
        if self._owner is not None and not hasattr(constraint, "check_delta"):
            self._owner._guarded[self._name] = self

    def _check(self, candidate: Relation, diff: Diff) -> None:
        """Would the constraints, valid before ``diff``, hold on ``candidate``?"""
        for constraint in self._constraints:
            rule = getattr(constraint, "check_delta", None)
            if rule is None:
                constraint.check(candidate)
            else:
                rule(candidate, *diff)

    def check_now(self) -> None:
        """Validate the current value against every constraint: through
        each delta rule, the rows an open transaction changed while some
        statement of it ran unchecked; the whole relation where there is
        no delta rule."""
        if self._owner is None:
            self._check(self._relation, _NO_DIFF)
        else:
            self._check(*self._owner._unverified(self._name))

    @property
    def constraints(self) -> Tuple[object, ...]:
        return tuple(self._constraints)

    # -- state ------------------------------------------------------------

    @property
    def heading(self) -> Heading:
        return self._heading

    def snapshot(self) -> Relation:
        """The current value as an immutable relation: inside an open
        transaction, with its writes."""
        if self._owner is None:
            return self._relation
        return self._owner._value(self._name)

    def __len__(self) -> int:
        return self.snapshot().cardinality()

    # -- mutations ----------------------------------------------------------

    def _apply(self, inserted: XSet, deleted: XSet) -> None:
        """Move by the exact delta ``(inserted, deleted)``: ``inserted``
        validated under this heading and disjoint from the current rows,
        ``deleted`` a subset of them.  Enrolled, the manager takes the
        step; outside any transaction it is a one-statement deferred
        transaction, checked once, at its commit."""
        owner = self._owner
        if owner is None:
            candidate = _moved(self._relation, inserted, deleted)
            self._check(candidate, (inserted, deleted))
            self._relation = candidate
        elif owner._open is None:
            with owner.transaction(deferred=True):
                owner._write(self, inserted, deleted)
        else:
            owner._write(self, inserted, deleted)

    def insert(self, row: Mapping[str, Any], *more: Mapping[str, Any]) -> None:
        """Insert ``row`` and then each of ``more``, one statement: the
        rows are built once and applied as one delta.  A row already
        present, or repeated among them, is an :class:`IntegrityError`;
        the first refusal in the order given is the one raised, as it
        would be row by row."""
        rows = (row, *more)
        held = self.snapshot().rows
        try:
            added = Relation.from_dicts(self._heading, rows).rows
        except Exception:
            added = None  # a malformed row; a repeat before it comes first
        if added is None or len(added) != len(rows) \
                or not added.isdisjoint(held):
            self._refuse_first(rows, held)
        self._apply(added, EMPTY)

    def _refuse_first(self, rows: Sequence[Mapping[str, Any]],
                      held: XSet) -> None:
        """Raise what inserting ``rows`` one by one into ``held`` raises
        first: a malformed row's own refusal, or a row already present."""
        for row in rows:
            one = Relation.from_dicts(self._heading, [row]).rows
            if one <= held:
                raise IntegrityError("row already present: %r" % (dict(row),))
            held = held | one

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """All-or-nothing bulk insert; returns the number added."""
        addition = Relation.from_dicts(self._heading, rows).rows
        inserted = addition - self.snapshot().rows
        self._apply(inserted, EMPTY)
        return len(inserted)

    def _matching(self, wheres: Sequence[Mapping[str, Any]],
                  rows: XSet) -> XSet:
        """The ``rows`` matching any of ``wheres``, each a record of
        attribute equalities (``{}`` matches every row): one Def 7.6
        restriction by the set of those records
        (:func:`~repro.xst.restrict.restrict_records`).  A value no set can
        hold (``nan``, or no atom) is refused as
        :class:`~repro.relational.algebra.Comparison` refuses it, and an
        unknown attribute too, before any row is read."""
        for where in wheres:
            _admit_all(where.values())
            self._heading.require(where)
        return restrict_records(rows, wheres)

    def delete(self, where: Mapping[str, Any],
               *more: Mapping[str, Any]) -> int:
        """Delete the rows matching ``where`` or any of ``more`` in one
        statement (:meth:`_matching`); returns the count."""
        doomed = self._matching((where, *more), self.snapshot().rows)
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
        current = self.snapshot().rows
        matched = self._matching((conditions,), current)
        if not matched:
            return 0
        rewritten = Relation.from_dicts(self._heading, (
            {**row.as_record(), **changes} for row, _ in matched.pairs()
        )).rows
        # A rewritten row equal to a current one is no insertion, and a
        # matched row rewritten to itself is no deletion.
        self._apply(rewritten - current, matched - rewritten)
        return len(matched)

    def __repr__(self) -> str:
        return "Table(%r, %d rows, %d constraints)" % (
            self._heading, len(self), len(self._constraints)
        )
