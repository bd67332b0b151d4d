"""Storage engines: set processing vs record processing (ref [4]).

The paper's reference [4] ("Set Processing vs Record Processing,
Dynamic Data Restructuring vs Prestructured Data Storage") contrasts
two disciplines for the same stored data.  Both are implemented here
behind one protocol so benchmarks compare disciplines, not API
shapes:

* :class:`RecordStore` -- the classical record-processing engine: a
  list of row dicts, every operation a Python loop touching one
  record at a time, no auxiliary structure.
* :class:`SetStore` -- the extended-set-processing engine: rows live
  in one :class:`~repro.xst.xset.XSet`; lookups go through the
  kernel's per-scope member index of that set (attribute value to
  the rows holding it), built on demand and reused (the "dynamic data
  restructuring" of ref [4]); selections and joins are single set
  operations.

Both engines answer ``lookup`` / ``project`` / ``equijoin_count``
identically (asserted in tests); the benchmark suite measures the gap
(``benchmarks/bench_set_vs_record.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.builders import xset
from repro.xst.domain import sigma_domain
from repro.xst.xset import XSet

__all__ = ["RecordStore", "SetStore"]


class RecordStore:
    """Record-at-a-time storage: a list of dicts, scanned per query."""

    def __init__(self, names: Sequence[str], rows: Iterable[Mapping[str, Any]]):
        self._heading = names if isinstance(names, Heading) else Heading(names)
        wanted = frozenset(self._heading.names)
        self._rows: List[Dict[str, Any]] = []
        for row in rows:
            if frozenset(row) != wanted:
                raise SchemaError(
                    "row keys %s do not match heading %r"
                    % (sorted(row), self._heading)
                )
            self._rows.append(dict(row))

    @property
    def heading(self) -> Heading:
        return self._heading

    def __len__(self) -> int:
        return len(self._rows)

    def scan(self) -> Iterable[Dict[str, Any]]:
        """Yield every record; the only access path this engine has."""
        return iter(self._rows)

    def lookup(self, attr: str, value: Any) -> List[Dict[str, Any]]:
        """Equality selection by full scan."""
        self._heading.require([attr])
        return [row for row in self._rows if row[attr] == value]

    def project(self, attrs: Sequence[str]) -> List[Tuple[Any, ...]]:
        """Distinct projected tuples, accumulated record by record."""
        wanted = self._heading.require(attrs)
        seen = set()
        out = []
        for row in self._rows:
            projected = tuple(row[attr] for attr in wanted)
            if projected not in seen:
                seen.add(projected)
                out.append(projected)
        return out

    def equijoin_count(self, other: "RecordStore", attr: str) -> int:
        """Nested-loop equijoin; returns the match count."""
        self._heading.require([attr])
        other.heading.require([attr])
        count = 0
        for left in self._rows:
            for right in other._rows:
                if left[attr] == right[attr]:
                    count += 1
        return count


class SetStore:
    """Set-at-a-time storage over an extended set and its member index."""

    def __init__(self, names: Sequence[str], rows: Iterable[Mapping[str, Any]]):
        self._relation = Relation.from_dicts(names, rows)

    @property
    def heading(self) -> Heading:
        return self._relation.heading

    @property
    def relation(self) -> Relation:
        return self._relation

    def __len__(self) -> int:
        return len(self._relation)

    def _index(self, attr: str) -> Dict[Any, Tuple[Tuple[XSet, Any], ...]]:
        """The value -> rows holding it (as ``(row, scope)`` pairs, in
        the row set's order) index for ``attr``, built once.

        This is the dynamic restructuring move: the stored set is
        re-keyed by whichever scope access patterns demand, without
        touching the canonical row set.  The index is the row set's
        own (the one restriction probes), not a copy kept here.
        """
        self._relation.heading.require([attr])
        return self._relation.rows._members_holding(attr)

    def lookup(self, attr: str, value: Any) -> List[Dict[str, Any]]:
        """Equality selection through the attribute index.

        Result dicts present attributes in heading order, matching
        what :class:`RecordStore` returns for the same rows.
        """
        names = self._relation.heading.names
        out = []
        for row in self.probe(attr, value):
            record = row.as_record()
            out.append({name: record[name] for name in names})
        return out

    def lookup_rows(self, attr: str, value: Any) -> XSet:
        """Index lookup returning a fresh row set (canonicalized)."""
        return xset(self.probe(attr, value))

    def probe(self, attr: str, value: Any) -> List[XSet]:
        """Index probe: references to the matching rows, no copies.

        The comparison-fair counterpart of :meth:`RecordStore.lookup`,
        which also returns references; use :meth:`lookup` /
        :meth:`lookup_rows` when materialized dicts or a canonical set
        are actually needed.
        """
        return [row for row, _ in self._index(attr).get(value, ())]

    def project(self, attrs: Sequence[str]) -> List[Tuple[Any, ...]]:
        """One sigma-domain call; duplicates collapse inside the set."""
        wanted = self._relation.heading.require(attrs)
        sigma = XSet((attr, attr) for attr in wanted)
        projected = sigma_domain(self._relation.rows, sigma)
        out = []
        for row, _ in projected.pairs():
            record = row.as_record()
            out.append(tuple(record[attr] for attr in wanted))
        return out

    def equijoin_count(self, other: "SetStore", attr: str) -> int:
        """Index-to-index equijoin; returns the match count."""
        left_index = self._index(attr)
        right_index = other._index(attr)
        # Probe with the smaller index, classical hash-join style.
        if len(left_index) > len(right_index):
            left_index, right_index = right_index, left_index
        count = 0
        for value, left_rows in left_index.items():
            right_rows = right_index.get(value)
            if right_rows:
                count += len(left_rows) * len(right_rows)
        return count
