"""Record-constructor oracle: a relation built from its heading equals
one built the long way.

``Relation.from_tuples`` and ``from_dicts`` build each row with
``XSet._record`` (values admitted and keyed once, beside the heading's
once-derived scope keys) and the row set with ``XSet._of_records``.
The reference, written here, is the checked constructor at every
level::

    Relation(h, XSet((XSet(zip(row, h.names)), EMPTY) for row in rows))

and the two must agree on everything the kernel can observe: pair
order (values compared by identity, so the first spelling of equal
rows survives), remembered keys, ``repr``, serialized bytes, hash and
scope indexes -- and, when the input is bad, on the error's class and
text.  ``to_rows`` and ``iter_dicts`` must give what their previous
implementations, copied below, gave.

The values are the shared pool's (``tests/values.py``: typed twins
``1``/``1.0``/``True`` and ``0``/``0.0``/``-0.0``/``False``, ``±inf``,
integers ``float`` cannot tell apart (``2**53 + 1``), ``None``, strings,
bytes, empty and nested sets) and a few more: the twins
``0.5``/``0.5+0j``, ``10**400``, which no float holds, and
deeper nested extended sets; the rows include duplicates and twin
duplicates, and the relation may be empty.  A ``nan``, which no set can
hold, or a value that is no atom, is refused as the checked constructor
refuses it.
"""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.process import identity_process
from repro.errors import InvalidAtomError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.builders import xset, xtuple
from repro.xst.ordering import _xset_key
from repro.xst.serialization import dumps
from repro.xst.xset import EMPTY, XSet

from tests import values as pool
from tests.xst.test_canonical_form import nested, seeded

NAMES = ("k", "v", "w")

values = st.one_of(
    pool.values,
    st.sampled_from([0.5, 0.5 + 0j, "a", b"", 10**400, -(10**400)]),
    nested(3),
)

#: Each value's typed twins: equal, another spelling.
TWINS = {1: [1.0, True], 0: [0.0, -0.0, False], 0.5: [0.5 + 0j],
         2**53: [float(2**53)]}


@st.composite
def tables(draw, width=len(NAMES)):
    """Rows over ``width`` names, some repeated as drawn or as twins."""
    rows = draw(st.lists(st.tuples(*[values] * width), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row = tuple(
                draw(st.sampled_from([value, *TWINS.get(value, [])]))
                if type(value) is not XSet else value
                for value in row
            )
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def arity_checked(row, names):
    if len(row) != len(names):
        raise SchemaError("row %r has %d values for %d attributes"
                          % (tuple(row), len(row), len(names)))
    return XSet(zip(row, names))


def keys_checked(row, names):
    if row.keys() != frozenset(names):
        raise SchemaError("row keys %s do not match heading %r"
                          % (sorted(row), Heading(names)))
    return XSet(zip(map(row.__getitem__, names), names))


def reference(names, rows, record=arity_checked):
    """The checked constructor at every level; ``record`` first states
    the arity (or key-set) check the builders make before building."""
    h = Heading(names)
    return Relation(
        h, XSet((record(row, h.names), EMPTY) for row in rows)
    )


def previous_to_rows(rel):
    names = rel.heading.names
    out = []
    for row, _ in rel.rows.pairs():
        held = row._scopes_index()
        out.append(tuple(held[name][0] for name in names))
    out.sort(key=repr)
    return out


def previous_iter_dicts(rel):
    for row, _ in rel.rows.pairs():
        yield {name: held[0] for name, held in row._scopes_index().items()}


def identities(value):
    """Sets by their pairs, lists, tuples and dicts by their items, all
    recursively, in order; atoms by identity."""
    if isinstance(value, XSet):
        return [(identities(e), identities(s)) for e, s in value.pairs()]
    if type(value) in (list, tuple):
        return [identities(item) for item in value]
    if type(value) is dict:
        return [(key, identities(item)) for key, item in value.items()]
    return id(value)


def assert_same(built: Relation, expected: Relation):
    assert built == expected and hash(built) == hash(expected)
    assert built.heading == expected.heading
    assert identities(built.rows) == identities(expected.rows)
    assert built.rows._key == expected.rows._key == _xset_key(expected.rows)
    assert repr(built.rows) == repr(expected.rows)
    assert dumps(built.rows) == dumps(expected.rows)
    for (row, _), (twin, _) in zip(built.rows.pairs(), expected.rows.pairs()):
        assert row._key == twin._key == _xset_key(twin)
        assert identities(row._scopes_index()) == identities(
            twin._scopes_index())
    assert identities(built.to_rows()) == identities(previous_to_rows(expected))
    assert identities(list(built.iter_dicts())) == identities(
        list(previous_iter_dicts(expected)))


def outcome(build):
    """What ``build`` returns, or the class and text of what it raises."""
    try:
        return build()
    except (SchemaError, InvalidAtomError, TypeError) as exc:
        return type(exc), str(exc)


class TestBuildersMatchTheCheckedConstructor:
    @seeded
    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_from_tuples(self, rows):
        expected = reference(NAMES, rows)
        for built in (Relation.from_tuples(NAMES, rows),
                      Relation.from_tuples(Heading(NAMES), map(list, rows))):
            assert_same(built, expected)

    @seeded
    @settings(max_examples=150, deadline=None)
    @given(tables(), st.permutations(NAMES))
    def test_from_dicts(self, rows, order):
        dicts = [{name: row[NAMES.index(name)] for name in order}
                 for row in rows]
        assert_same(Relation.from_dicts(NAMES, dicts), reference(NAMES, rows))
        assert_same(Relation.from_dicts(order, dicts),
                    reference(order, dicts, keys_checked))

    @seeded
    @settings(max_examples=50, deadline=None)
    @given(tables(width=1))
    def test_one_name(self, rows):
        assert_same(Relation.from_tuples(["k"], rows), reference(["k"], rows))

    def test_the_empty_relation(self):
        for names in (NAMES, ["k"]):
            assert_same(Relation.from_tuples(names, []), reference(names, []))
            assert_same(Relation.from_dicts(names, []), reference(names, []))


BAD_VALUES = {
    "unhashable": [1, 2],
    "process": identity_process(xset([xtuple([1])])),
    "nan": float("nan"),
    "decimal-nan": Decimal("NaN"),
    "tuple": (1, 2),
}


class TestBuildersFailAsTheCheckedConstructor:
    """Same class, same text: what the builders skip would have said so."""

    @pytest.mark.parametrize("bad", sorted(BAD_VALUES))
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_bad_value(self, bad, at):
        row = [1, "a", None]
        row[at] = BAD_VALUES[bad]
        rows = [(2, "b", None), tuple(row), (3, "c", None)]
        dicts = [dict(zip(NAMES, each)) for each in rows]
        expected = outcome(lambda: reference(NAMES, rows))
        assert expected[0] is InvalidAtomError
        assert outcome(lambda: Relation.from_tuples(NAMES, rows)) == expected
        assert outcome(lambda: Relation.from_dicts(NAMES, dicts)) == expected

    @pytest.mark.parametrize("row", [(1,), (1, 2, 3, 4), ()])
    def test_wrong_arity(self, row):
        rows = [(1, 2, 3), row, ([],) * len(row)]
        expected = outcome(lambda: reference(NAMES, rows))
        assert expected[0] is SchemaError
        assert outcome(lambda: Relation.from_tuples(NAMES, rows)) == expected

    def test_wrong_keys(self):
        rows = [dict(zip(NAMES, (1, 2, 3))), {"k": 1, "v": 2}]
        expected = outcome(lambda: reference(NAMES, rows, keys_checked))
        assert expected[0] is SchemaError
        assert outcome(lambda: Relation.from_dicts(NAMES, rows)) == expected

    def test_an_empty_heading(self):
        for rows in ([()], [(), ()]):
            expected = outcome(lambda: reference([], rows))
            assert expected == (SchemaError, "row {} is not record-shaped")
            assert outcome(lambda: Relation.from_tuples([], rows)) == expected
            assert outcome(
                lambda: Relation.from_dicts([], [{} for _ in rows])) == expected
        assert_same(Relation.from_tuples([], []), reference([], []))
