"""Relations as extended sets of attribute-scoped rows.

A :class:`Relation` pairs a :class:`~repro.relational.schema.Heading`
with a classical extended set of rows, each row the record shape
``{value^'attr', ...}``.  Nothing here is a new data structure: the
rows *are* kernel :class:`~repro.xst.xset.XSet` values, so every
relational operation in :mod:`repro.relational.algebra` is a kernel
operation -- restriction for selection, sigma-domain for projection,
re-scoping for renaming, relative product for join.  That is the
paper's section 12 claim ("all data representations can be managed as
mathematical operands") made literal.

Every row is also a record over the heading: a function from attribute
names to values (Kelly & van Emden's reading).  So projection, renaming
and join build their rows the way that reading says -- keep the pairs
at some names, give the values new names, merge a left record with a
right one's other pairs -- straight from the operands' runs and keys,
and the Def 7.4 / 7.3 / 10.1 kernels they equal stay the specification.

A served answer arrives as that reading already: positional rows in
heading order, the relation's rows in canonical run order.
:meth:`Relation.from_page` checks and de-duplicates such rows at once
and keeps them; the row set is built from them -- by the same record
loop :meth:`Relation.from_tuples` runs -- on the first read of
:attr:`Relation.rows`.  ``cardinality``, ``len``, ``bool`` and
``iter_dicts`` answer from the kept rows; ``rows``, equality, hashing,
``to_rows``, ``as_process`` and every operator of
:mod:`repro.relational.algebra` read the row set, so they fill it first.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain, repeat
from operator import attrgetter, eq, itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import SchemaError
from repro.core.process import Process
from repro.core.sigma import Sigma
from repro.relational.schema import Heading
from repro.xst.builders import xset
from repro.xst.xset import _ADMITTED_BY_TYPE, Immutable, XSet

__all__ = ["Relation"]

#: Row types ``from_tuples`` reads as positional rows without asking.
_ROW_TYPES = frozenset({tuple, list})

#: Iterables that are no positional row.
_NOT_ROWS = (str, bytes, Mapping)

#: A relation's member's row (its scope is ``EMPTY``).
_row_of = itemgetter(0)

#: A row's pairs; a pair's element and its scope.
_pairs_of = attrgetter("_pairs")
_element_of = itemgetter(0)
_scope_of = itemgetter(1)


def _run_dicts(rows: XSet) -> Iterator[Dict[str, Any]]:
    """Each record row of ``rows`` as ``{attribute: value}``, in run
    order, keys in the order of the row's pairs.

    Every row was proved record-shaped under its heading when its
    relation was validated, or built as one: one element at each
    attribute scope.  So a row's dict is its scopes zipped with its
    elements, read off two walks of the same run with no Python call
    per row.
    """
    return map(dict, map(
        zip,
        map(map, repeat(_scope_of), map(_pairs_of, map(_row_of, rows._pairs))),
        map(map, repeat(_element_of), map(_pairs_of, map(_row_of, rows._pairs))),
    ))


def _positional(
    names: Sequence[str], dicts: Iterable[Dict[str, Any]]
) -> List[Tuple[Any, ...]]:
    """Each of ``dicts`` as its values at ``names``, in order, with no
    Python call per row.  A heading with no names has no rows."""
    if not names:
        return []
    pick = itemgetter(*names)
    if len(names) == 1:
        # One name picks the bare value: zip makes it a 1-tuple.
        return list(zip(map(pick, dicts)))
    return list(map(pick, dicts))


class Relation(Immutable):
    """An immutable relation: a heading plus a set of record rows.

    ``_page`` is ``None``, or -- on a relation :meth:`from_page` built --
    its checked, distinct positional rows, in the order they came; then
    ``_rows`` is ``None`` until :attr:`rows` fills it from them.
    """

    __slots__ = ("_heading", "_rows", "_page")

    def __init__(self, heading: Heading, rows: XSet):
        names = frozenset(heading.names)
        for row, scope in rows.pairs():
            if not (isinstance(scope, XSet) and scope.is_empty):
                raise SchemaError("relation rows must be classical members")
            held = row._scopes_index() if isinstance(row, XSet) else None
            # Scopes equal to the heading's names, so distinct strings, and
            # as many memberships as scopes, so one element at each: a
            # record under this heading.  Otherwise find out which it is not.
            if not held or held.keys() != names or len(row) != len(held):
                if held is None or not row.is_record():
                    raise SchemaError("row %r is not record-shaped" % (row,))
                raise SchemaError(
                    "row attributes %s do not match heading %r"
                    % (sorted(row.scopes()), heading)
                )
        object.__setattr__(self, "_heading", heading)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_page", None)

    def __reduce__(self):
        return Relation, (self._heading, self.rows)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _from_valid(cls, heading: Heading, rows: XSet) -> "Relation":
        """The unchecked constructor, twin of ``XSet._from_run``.

        Allowed in exactly four cases, and each call site says which:
        ``rows`` is a *subset* (selection, difference, intersection,
        group) of the rows of a relation already validated under
        ``heading``; a *union* of the rows of such relations; *built
        here* by the caller from ``heading`` itself, one element at each
        of its names (``from_tuples``/``from_dicts``, after their input
        checks); or *built from validated records* over ``heading`` by
        an operator of :mod:`repro.relational.algebra` -- a projection's
        rows cut down to its names, a rename's values at their new
        names, a join's left row merged with a right row at the names
        the left lacks.  Rows are immutable, so in the first two every
        row passed the checked constructor once under this heading, and
        in the last two there is nothing about the row its builder does
        not know.  Anything else goes through ``Relation(heading, rows)``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_heading", heading)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_page", None)
        return self

    @classmethod
    def _of_built(cls, heading: Heading, records: List[XSet]) -> "Relation":
        """``records``: ``XSet._record`` rows over ``heading``'s names.

        Over no names that is the empty set, which is no record; the
        checked constructor is the one to say so.
        """
        if not heading.names:
            return cls(heading, xset(records))
        return cls._from_valid(heading, XSet._of_records(records))

    @classmethod
    def from_dicts(
        cls, names: Sequence[str], rows: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build from mappings; every row must supply every attribute."""
        heading = names if isinstance(names, Heading) else Heading(names)
        attrs, name_set = heading.names, heading._name_set
        keys = heading._scope_keys()
        records = []
        for row in rows:
            if row.keys() != name_set:
                raise SchemaError(
                    "row keys %s do not match heading %r" % (sorted(row), heading)
                )
            records.append(
                XSet._record(tuple(map(row.__getitem__, attrs)), attrs, keys)
            )
        return cls._of_built(heading, records)

    @classmethod
    def from_tuples(
        cls, names: Sequence[str], rows: Iterable[Sequence[Any]]
    ) -> "Relation":
        """Build from positional rows matching the heading's order.

        A ``str``, ``bytes`` or mapping is no row, although it iterates:
        it would be read as its characters or its keys.
        """
        heading = names if isinstance(names, Heading) else Heading(names)
        attrs, keys = heading.names, heading._scope_keys()
        width = len(attrs)
        records = []
        for row in rows:
            if type(row) not in _ROW_TYPES and isinstance(row, _NOT_ROWS):
                raise SchemaError(
                    "row %r is a %s, not a sequence of values"
                    % (row, type(row).__name__)
                )
            values = tuple(row)
            if len(values) != width:
                raise SchemaError(
                    "row %r has %d values for %d attributes"
                    % (values, len(values), width)
                )
            records.append(XSet._record(values, attrs, keys))
        return cls._of_built(heading, records)

    @classmethod
    def from_page(
        cls, names: Sequence[str], rows: Sequence[Sequence[Any]]
    ) -> "Relation":
        """Positional rows as a served PAGE carries them, built on first read.

        Everything :meth:`from_tuples` would refuse is refused here, now:
        the heading, each row's type and width, and each value's
        admission are C-level checks over the whole page (a float must
        equal itself: ``nan`` is refused), and equal rows collapse to
        their first spelling, as ``from_tuples`` keeps it.  When a check
        fails the rows go through ``from_tuples``, which raises its own
        error, so filling the row set later cannot fail.  The relation
        keeps the distinct rows in the order given and builds its row
        set from them on the first read of :attr:`rows`: the value
        ``from_tuples`` builds.  ``iter_dicts`` yields the kept rows, in
        that order, keys in heading order -- so the canonical order when
        the page is a served answer's run.
        """
        heading = names if isinstance(names, Heading) else Heading(names)
        width = len(heading.names)
        rows = list(rows)  # read up to six times below
        if not (
            width
            and set(map(type, rows)) <= _ROW_TYPES
            and set(map(len, rows)) <= {width}
            and (kinds := set(map(type, chain.from_iterable(rows))))
            <= _ADMITTED_BY_TYPE
            and (float not in kinds or all(map(
                eq, chain.from_iterable(rows), chain.from_iterable(rows)
            )))
        ):
            return cls.from_tuples(heading, rows)
        self = object.__new__(cls)
        object.__setattr__(self, "_heading", heading)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_page", tuple(dict.fromkeys(map(tuple, rows))))
        return self

    def _fill_rows(self) -> XSet:
        """The row set of a :meth:`from_page` relation, built once: the
        record loop of :meth:`from_tuples` over the kept rows, which are
        distinct, of the heading's width and admitted by type."""
        heading = self._heading
        attrs, keys = heading.names, heading._scope_keys()
        record = XSet._record
        rows = XSet._of_records(
            [record(values, attrs, keys) for values in self._page]
        )
        object.__setattr__(self, "_rows", rows)
        return rows

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def heading(self) -> Heading:
        return self._heading

    @property
    def rows(self) -> XSet:
        """The underlying extended set of rows (built here, once, on a
        relation :meth:`from_page` made)."""
        rows = self._rows
        return self._fill_rows() if rows is None else rows

    def cardinality(self) -> int:
        return len(self)

    def __len__(self) -> int:
        page = self._page
        return len(self._rows if page is None else page)

    def __bool__(self) -> bool:
        page = self._page
        return bool(self._rows if page is None else page)

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        """Rows as plain dicts: in canonical order, keys in the order of
        each row's pairs; on a :meth:`from_page` relation, its kept rows
        in their order, keys in heading order.  No Python call per row."""
        page = self._page
        if page is not None:
            return map(dict, map(zip, repeat(self._heading.names), page))
        return _run_dicts(self._rows)

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """Rows as positional tuples in heading order, sorted."""
        out = _positional(self._heading.names, _run_dicts(self.rows))
        out.sort(key=repr)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._heading == other._heading and self.rows == other.rows

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(("repro.Relation", self._heading, self.rows))

    def __repr__(self) -> str:
        return "Relation(%r, %d rows)" % (self._heading, len(self))

    # ------------------------------------------------------------------
    # Process view
    # ------------------------------------------------------------------

    def as_process(
        self, key_attrs: Sequence[str], out_attrs: Sequence[str]
    ) -> Process:
        """Read the relation as the behavior keyed/emitting by attributes.

        ``employees.as_process(["dept"], ["name"])`` is the process
        that, applied to a set of ``{dept-fragment}`` records, yields
        the matching name fragments -- relations *are* processes under
        a chosen sigma, which is how the query layer and the core
        layer meet.
        """
        self._heading.require(key_attrs)
        self._heading.require(out_attrs)
        return Process(self.rows, Sigma.attributes(key_attrs, out_attrs))
