"""Row-building oracle: ``join``, ``product``, ``project`` and ``rename``
build each result row from the operands' records and the heading, and
must give exactly what the kernel's specification gives.

The specification is Def 10.1's ``relative_product_nested_loop``, Def
7.4's ``sigma_domain`` and Def 7.3's ``rescope_by_scope`` under the
attribute sigmas, wrapped in the checked ``Relation(...)``.  Answers are
compared by the ``repr`` of their canonical runs, which tells the twins
``1``/``1.0``/``True`` and ``0``/``0.0``/``-0.0``/``False`` apart, and
by the identity of every value they hold.  So a shared value must keep
the left row's spelling, a collapsing projection the first row's, and
every row and the row set must sit in the order the specification
sorts them into.  Values are drawn from the shared pool
(``tests/values.py``); every one equals itself, so the join meets rows
by ``==`` exactly where the identity-first relative product does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import (
    _attribute_identity, join, product, project, rename, union,
)
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.domain import sigma_domain
from repro.xst.ordering import _xset_key
from repro.xst.relative_product import relative_product_nested_loop
from repro.xst.rescope import rescope_by_scope
from repro.xst.xset import XSet

from tests.values import values
from tests.xst.test_canonical_form import seeded

LEFT = ("a", "b", "c")
#: Right headings: one shared attribute, two (in either order), none,
#: and a heading the left one covers.
RIGHTS = [("a", "d"), ("a", "b", "d"), ("d", "b", "a"), ("d", "e"), ("b",)]
WIDE = ("a",) + tuple("w%d" % at for at in range(15))
RENAMES = [
    {"a": "b", "b": "a"}, {"a": "z"}, {"a": "b", "b": "c", "c": "a"},
    {"c": "a", "a": "c", "b": "y"}, {}, {"a": "a"},
]


def relations(names):
    """A relation over ``names``, its member index at its first name
    sometimes filled and then carried through a union."""
    width = len(names)
    rows = st.lists(st.tuples(*[values] * width), max_size=8)

    def build(drawn):
        first, later, fill = drawn
        rel = Relation.from_tuples(names, first)
        if fill:
            rel.rows._members_holding(names[0])
            rel = union(rel, Relation.from_tuples(names, later))
        return rel

    return st.builds(build, st.tuples(rows, rows, st.booleans()))


def identity(names):
    return _attribute_identity(tuple(names))


def spec_join(left, right):
    """Def 10.1's relative product on the shared attributes."""
    key = identity(left.heading.common(right.heading))
    rows = relative_product_nested_loop(
        left.rows, right.rows,
        (identity(left.heading.names), key),
        (key, identity(right.heading.names)),
    )
    return Relation(left.heading.union(right.heading), rows)


def spec_project(rel, attrs):
    return Relation(
        rel.heading.project(attrs), sigma_domain(rel.rows, identity(attrs))
    )


def spec_rename(rel, mapping):
    sigma = XSet((name, mapping.get(name, name)) for name in rel.heading.names)
    return Relation(rel.heading.rename(mapping), XSet(
        (rescope_by_scope(row, sigma), scope) for row, scope in rel.rows.pairs()
    ))


def held(rel):
    """The identity of every value, row by row, in run order."""
    return [[id(value) for value, _ in row.pairs()] for row, _ in rel.rows.pairs()]


def assert_same(got, want):
    assert got.heading.names == want.heading.names
    assert repr(got.rows._pairs) == repr(want.rows._pairs)
    assert held(got) == held(want)
    assert got == want and hash(got.rows) == hash(want.rows)
    # Remembered keys are the keys the values have.
    for row, _ in got.rows.pairs():
        assert row._key is None or row._key == _xset_key(row)
    assert got.rows._key is None or got.rows._key == _xset_key(got.rows)


class TestRowBuildingOracle:
    @seeded
    @settings(max_examples=200, deadline=None)
    @given(left=relations(LEFT), data=st.data())
    def test_join_and_product_equal_the_relative_product(self, left, data):
        names = data.draw(st.sampled_from(RIGHTS))
        right = data.draw(relations(names))
        for one, other in ((left, right), (right, left), (left, left)):
            assert_same(join(one, other), spec_join(one, other))
        if not set(names) & set(LEFT):
            assert_same(product(left, right), spec_join(left, right))
            assert_same(product(right, left), spec_join(right, left))

    @seeded
    @settings(max_examples=100, deadline=None)
    @given(left=relations(WIDE), right=relations(("a", "d")))
    def test_a_wide_row_takes_its_extra_pair_by_bisection(self, left, right):
        # Sixteen names on the left and one more on the right: the merge
        # puts the extra pair in by bisection, as a union would.
        for one, other in ((left, right), (right, left)):
            assert_same(join(one, other), spec_join(one, other))

    @seeded
    @settings(max_examples=200, deadline=None)
    @given(rel=relations(LEFT), data=st.data())
    def test_project_equals_the_sigma_domain(self, rel, data):
        attrs = data.draw(st.lists(st.sampled_from(LEFT), unique=True))
        got = project(rel, attrs)
        if tuple(attrs) == LEFT:
            assert got is rel
            assert got == spec_project(rel, attrs)
        else:
            assert_same(got, spec_project(rel, attrs))

    @seeded
    @settings(max_examples=200, deadline=None)
    @given(rel=relations(LEFT), mapping=st.sampled_from(RENAMES))
    def test_rename_equals_rescoping_by_scope(self, rel, mapping):
        got = rename(rel, mapping)
        if got.heading.names == LEFT:
            assert got is rel
            assert got == spec_rename(rel, mapping)
        else:
            assert_same(got, spec_rename(rel, mapping))

    def test_a_shared_value_keeps_the_left_spelling(self):
        left = Relation.from_tuples(("k", "v"), [(1, "x"), (0.0, "y")])
        right = Relation.from_tuples(("k", "w"), [(True, "p"), (-0.0, "q")])
        joined = join(left, right)
        assert_same(joined, spec_join(left, right))
        assert sorted(map(repr, (row["k"] for row in joined.iter_dicts()))) == [
            "0.0", "1",
        ]
        turned = join(right, left)
        assert sorted(map(repr, (row["k"] for row in turned.iter_dicts()))) == [
            "-0.0", "True",
        ]

    def test_an_infinity_joins_itself_and_no_other(self):
        # inf equals itself, as every admitted value does (a nan, which
        # does not, is refused when the operand is built).
        left = Relation.from_tuples(("k", "v"), [(float("inf"), 1), (float("-inf"), 2)])
        right = Relation.from_tuples(("k", "w"), [(float("inf"), 3), (2**53, 4)])
        joined = join(left, right)
        assert_same(joined, spec_join(left, right))
        assert [(row["v"], row["w"]) for row in joined.iter_dicts()] == [(1, 3)]

    def test_a_collapsing_projection_keeps_the_first_spelling(self):
        rel = Relation.from_tuples(("k", "v"), [(1, "x"), (1.0, "y"), (True, "z")])
        projected = project(rel, ["k"])
        assert_same(projected, spec_project(rel, ["k"]))
        assert len(projected) == 1

    def test_the_empty_operands_and_headings(self):
        empty = Relation.from_tuples(LEFT, [])
        some = Relation.from_tuples(("a", "d"), [(1, 2)])
        for one, other in ((empty, some), (some, empty)):
            assert_same(join(one, other), spec_join(one, other))
        rel = Relation.from_tuples(LEFT, [(1, 2, 3), (1, 4, 5)])
        assert_same(project(rel, []), spec_project(rel, []))
        assert project(rel, []).heading == Heading([])
