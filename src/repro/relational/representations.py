"""Many physical representations, one mathematical identity.

The XSP programme's sharpest systems claim (paper §12, refs [3]/[4])
is that *data representations* -- row layouts, column layouts,
whatever the hardware likes -- all have a mathematical identity as
extended sets, so the system can change representation freely and
prove it changed nothing.  This module demonstrates the claim
executably:

* :class:`RowRepresentation` -- tuples in row-major order (the record
  layout);
* :class:`ColumnRepresentation` -- one array per attribute (the
  column layout);
* both implement the same operations natively in their own layout
  (selection walks rows; column projection slices one array), and

* both *canonicalize* to the same :class:`~repro.xst.xset.XSet` --
  ``representation.canonical()`` -- so equality of representations is
  set equality, and :func:`same_identity` decides "are these two
  physical layouts the same data?" by content digest.

The benchmark suite measures the layouts' complementary strengths
(row selection vs column projection); the tests assert that every
operation result, canonicalized, is identical across layouts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.algebra import Comparison
from repro.relational.columnar import ColumnarRelation
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.builders import xrecord, xset
from repro.xst.serialization import digest
from repro.xst.xset import XSet

__all__ = [
    "RowRepresentation",
    "ColumnRepresentation",
    "same_identity",
]


class RowRepresentation:
    """Row-major physical layout: a list of value tuples."""

    def __init__(self, names: Sequence[str], rows: Sequence[Sequence[Any]]):
        self._heading = names if isinstance(names, Heading) else Heading(names)
        width = len(self._heading)
        self._rows: List[Tuple[Any, ...]] = []
        for row in rows:
            values = tuple(row)
            if len(values) != width:
                raise SchemaError(
                    "row %r has %d values for %d attributes"
                    % (values, len(values), width)
                )
            self._rows.append(values)

    @property
    def heading(self) -> Heading:
        return self._heading

    def __len__(self) -> int:
        return len(self._rows)

    # -- native operations (row-at-a-time over the row layout) -----------

    def select(self, attr: str, value: Any) -> "RowRepresentation":
        position = self._heading.names.index(
            self._heading.require([attr])[0]
        )
        kept = [row for row in self._rows if row[position] == value]
        return RowRepresentation(self._heading, kept)

    def project(self, attrs: Sequence[str]) -> "RowRepresentation":
        wanted = self._heading.require(attrs)
        positions = [self._heading.names.index(attr) for attr in wanted]
        seen = set()
        kept = []
        for row in self._rows:
            projected = tuple(row[position] for position in positions)
            if projected not in seen:
                seen.add(projected)
                kept.append(projected)
        return RowRepresentation(Heading(wanted), kept)

    # -- identity -----------------------------------------------------------

    def canonical(self) -> XSet:
        """The mathematical identity: the set of attribute-scoped rows."""
        return xset(
            xrecord(dict(zip(self._heading.names, row))) for row in self._rows
        )

    def to_relation(self) -> Relation:
        return Relation(self._heading, self.canonical())

    @classmethod
    def from_relation(cls, relation: Relation) -> "RowRepresentation":
        return cls(relation.heading, relation.to_rows())


class ColumnRepresentation:
    """Column-major physical layout, backed by the sorted-run kernel.

    Storage and the native operations live in
    :class:`~repro.relational.columnar.ColumnarRelation` -- the same
    encoding the query executor dispatches to -- so a
    ``ColumnRepresentation`` *is* the fast path: ``select`` is a
    binary search over a cached sorted run, ``project`` a batch
    dedup.  The class keeps its original demo surface (dict-of-columns
    construction, ``select``/``project``/``aggregate_column``).

    Two behaviors the differential oracle pinned down:

    * ``project`` collapses duplicate rows by raw value tuples, which
      coincides with XSet set semantics for every admissible value
      (Python ``==`` is XST member equality), including the
      ``1 == 1.0 == True`` twins;
    * ``project([])`` of a non-empty representation is the single
      empty row (canonical form ``{{}}``), matching
      :meth:`RowRepresentation.project` -- previously the column
      layout silently dropped its row count and canonicalized to the
      empty set.  A zero-attribute representation carries an explicit
      ``length`` for exactly this case.  Note ``to_relation`` cannot
      express the zero-attribute result (rows must be attribute-scoped
      records); compare with ``canonical()`` instead.
    """

    def __init__(self, columns: Dict[str, Sequence[Any]],
                 length: Optional[int] = None):
        self._backing = ColumnarRelation(
            Heading(columns), columns, length=length
        )

    @classmethod
    def _wrap(cls, backing: ColumnarRelation) -> "ColumnRepresentation":
        wrapped = cls.__new__(cls)
        wrapped._backing = backing
        return wrapped

    @property
    def heading(self) -> Heading:
        return self._backing.heading

    def __len__(self) -> int:
        return len(self._backing)

    def column(self, attr: str) -> List[Any]:
        return self._backing.column(attr)

    # -- native operations (run-at-a-time over the column layout) --------

    def select(self, attr: str, value: Any) -> "ColumnRepresentation":
        """Equality selection: binary search over the attribute's run."""
        return ColumnRepresentation._wrap(
            self._backing.restrict([Comparison(attr, "=", value)])
        )

    def project(self, attrs: Sequence[str]) -> "ColumnRepresentation":
        """Column projection: slice the arrays, then deduplicate."""
        return ColumnRepresentation._wrap(self._backing.project(attrs))

    def aggregate_column(self, attr: str, fn: Callable[[List[Any]], Any]) -> Any:
        """Single-column aggregation without touching other columns."""
        return fn(self.column(attr))

    # -- identity -----------------------------------------------------------

    def as_columnar(self) -> ColumnarRelation:
        """The backing run encoding (shared, immutable)."""
        return self._backing

    def canonical(self) -> XSet:
        return self._backing.canonical()

    def to_relation(self) -> Relation:
        return self._backing.to_relation()

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnRepresentation":
        return cls._wrap(ColumnarRelation.from_relation(relation))


def same_identity(*representations) -> bool:
    """Do these physical layouts denote the same extended set?

    Decided by content digest of the canonical form -- the executable
    version of "all data representations have a mathematical identity"
    (§12).
    """
    digests = {digest(rep.canonical()) for rep in representations}
    return len(digests) <= 1
