"""CSV import/export for relations.

A small but necessary on-ramp: real data arrives as delimited text.
Import infers per-column types (int, then float, then string; empty
cells become ``None``) unless explicit converters are given; export
writes heading order deterministically.  Round-tripping a relation
through CSV preserves it whenever its values are ints, floats, strings
or None -- asserted by the tests.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import SchemaError
from repro.relational.relation import Relation

__all__ = ["read_csv", "write_csv", "loads_csv", "dumps_csv"]


def _infer(cell: str) -> Any:
    """The cell's value: empty is ``None``, then an ``int``, a ``float``
    or the text itself.  A cell ``float`` reads as ``nan`` (``nan``,
    ``Nan``, ``-NaN``) stays its text: no set can hold a ``nan``, and
    ``Nan`` may well be a name.  ``inf`` is a float."""
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        value = float(cell)
    except ValueError:
        return cell
    return value if value == value else cell


def loads_csv(
    text: str,
    converters: Optional[Mapping[str, Callable[[str], Any]]] = None,
) -> Relation:
    """Build a relation from CSV text (first row is the heading)."""
    reader = csv.reader(io.StringIO(text))
    try:
        names = next(reader)
    except StopIteration:
        raise SchemaError("CSV input has no heading row") from None
    converters = dict(converters or {})
    unknown = set(converters) - set(names)
    if unknown:
        raise SchemaError("converters for unknown columns: %s" % sorted(unknown))
    rows: List[Dict[str, Any]] = []
    for line_number, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(names):
            raise SchemaError(
                "CSV line %d has %d cells for %d columns"
                % (line_number, len(cells), len(names))
            )
        row = {}
        for name, cell in zip(names, cells):
            convert = converters.get(name, _infer)
            row[name] = convert(cell)
        rows.append(row)
    return Relation.from_dicts(names, rows)


def read_csv(
    path: str,
    converters: Optional[Mapping[str, Callable[[str], Any]]] = None,
) -> Relation:
    """Load a relation from a CSV file."""
    with open(path, "r", newline="") as fh:
        return loads_csv(fh.read(), converters)


def dumps_csv(relation: Relation,
              columns: Optional[Sequence[str]] = None) -> str:
    """Render a relation as CSV text in heading (or given) order."""
    names = list(columns) if columns else list(relation.heading.names)
    relation.heading.require(names)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for record in relation.iter_dicts():
        writer.writerow(
            ["" if record[name] is None else record[name] for name in names]
        )
    return out.getvalue()


def write_csv(relation: Relation, path: str,
              columns: Optional[Sequence[str]] = None) -> None:
    """Write a relation to a CSV file."""
    with open(path, "w", newline="") as fh:
        fh.write(dumps_csv(relation, columns))
