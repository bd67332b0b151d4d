"""Comparison oracle: ``restrict(rel, comparisons)`` decides each
distinct value of the member index once, and must keep exactly the rows
that record-level separation keeps -- the same rows, spelled the same,
in the same order -- or refuse exactly as it refuses.

The compared column draws from the shared pool (``tests/values.py``):
typed twins (``1``/``1.0``/``True``, ``0``/``0.0``/``-0.0``/``False``),
``±inf``, integers around ``2**53`` beside their float neighbours,
``None``, ``str``, ``bytes`` and nested sets; so twins share a run of
the index, and incomparable columns arise.  Every operator runs on
operands with and without a filled index, once with every drop forced
onto the bisecting patch and once under the shipped length rule.  Rows
are compared by the ``(type, repr)`` of every value, never by ``==``.

Values meet by Python ``==``, which is membership: every admitted value
equals itself, and a ``nan`` constant is refused when the comparison is
built, so ``a = v`` and ``a != v`` split every column between them on
the row, record and columnar executors and the cluster alike.  A conjunction of one to three comparisons
is the record reading's: equalities first, then the others in order.

A second property holds ``_holding`` -- which reads each member's
elements at one scope straight off its run -- to the scope-index build
it replaced: the same element objects as keys, in the same order, each
with the same pair objects in the same order.
"""

import importlib
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAtomError, SchemaError
from repro.relational.algebra import Comparison, join, restrict, select, union
from repro.relational.columnar import encode
from repro.relational.query import Database, Restrict, Scan
from repro.relational.relation import Relation
from repro.xst.ordering import _xset_key
from repro.xst.xset import EMPTY, XSet, _holding

from tests import values as pool
from tests.xst.test_canonical_form import seeded

xset_module = importlib.import_module("repro.xst.xset")

OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

values = pool.values
#: Columns of one kind, so a comparison often succeeds; ``values``
#: mixes kinds, so it often refuses.
numeric = pool.numbers
column = st.sampled_from([values, numeric, st.sampled_from(["a", "b", "c"])])


def spelled(value):
    """A value's spelling, telling twins apart."""
    if isinstance(value, XSet):
        return [(spelled(e), spelled(s)) for e, s in value.pairs()]
    return (type(value).__name__, repr(value))


def rows_of(rel):
    return [spelled(row) for row, _ in rel.rows.pairs()]


def outcome(run):
    """What ``run()`` gives: its rows, spelled, or its refusal."""
    try:
        return ("rows", rows_of(run()))
    except SchemaError as refused:
        return ("refused", str(refused))


@pytest.fixture(scope="module", params=[1, None],
                ids=["patch-always", "shipped-rule"])
def rule(request):
    """Force every drop onto the bisecting patch, or keep the rule."""
    shipped = xset_module._FEW
    if request.param is not None:
        xset_module._FEW = request.param
    yield request.param
    xset_module._FEW = shipped


def assert_indexes_fresh(value):
    """A carried index equals the one a fresh build makes, each run the
    same pair objects in the same order.  (Its keys may come in another
    order: a union appends each new value's run.)"""
    copy = XSet._from_run(value.pairs())
    for scope, index in (value._by_part or {}).items():
        fresh = copy._members_holding(scope)
        assert index == fresh
        for key, run in index.items():
            assert list(map(id, run)) == list(map(id, fresh[key]))


class TestComparisonSelect:
    @seeded
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_value_path_equals_record_separation(self, rule, data):
        drawn = data.draw(column)
        size = data.draw(st.integers(0, 40))
        cells = data.draw(st.lists(drawn, min_size=size, max_size=size))
        rel = Relation.from_tuples(("k", "v"), list(enumerate(cells)))
        # The record path reads dicts, so it never fills an index.
        filled = data.draw(st.sampled_from([(), ("v",), ("v", "k"), ("k",)]))
        for scope in filled:
            rel.rows._members_holding(scope)
        # Rows a commit adds after the fill: a union carries the index,
        # appending each new value's run after the old values' runs
        # wherever its rows sit in the run.
        arrivals = data.draw(st.lists(drawn, max_size=3))
        if arrivals:
            rel = union(rel, Relation.from_tuples(("k", "v"), [
                (-1 - n, cell) for n, cell in enumerate(arrivals)
            ]))
        constant = data.draw(st.one_of(values, numeric))
        for operator in OPERATORS:
            comparison = Comparison("v", operator, constant)
            record = outcome(lambda: select(rel, lambda row: comparison(row)))
            got = outcome(lambda: restrict(rel, (comparison,)))
            assert got == record, (operator, constant)
            # The columnar backend scans in its own order, so it may meet
            # another incomparable type first.
            columnar = outcome(
                lambda: encode(rel).restrict((comparison,)).to_relation()
            )
            assert columnar[0] == got[0]
            if got[0] == "refused":
                continue
            assert columnar == got
            answer = restrict(rel, (comparison,))
            if len(answer) == len(rel) and operator != "=":
                # An equality is the one-key Def 7.6 restriction, a new
                # value; any other comparison keeps the operand itself.
                assert answer is rel
            kept = [pair for pair in rel.rows.pairs() if pair in
                    answer.rows._pair_set]
            want = XSet(kept)
            assert answer.rows == want and hash(answer.rows) == hash(want)
            assert repr(answer.rows) == repr(want)
            if answer.rows._key is not None:
                assert answer.rows._key == _xset_key(answer.rows)
            assert_indexes_fresh(answer.rows)
            # Both executors agree.
            db = Database({"t": rel})
            plan = Restrict(Scan("t"), (comparison,))
            assert rows_of(db.execute(plan)) == got[1]
            assert rows_of(db.execute_records(plan)) == got[1]

    def test_a_carried_index_refuses_at_the_first_row(self):
        # The index is filled while 'x' is the only value that does not
        # compare; the commit then adds a None row ahead of every row,
        # and its run is appended after all the others in the index.
        rel = Relation.from_tuples(
            ("k", "v"), [(n, "x" if n == 30 else n) for n in range(10, 50)])
        rel.rows._members_holding("v")
        rel = union(rel, Relation.from_tuples(("k", "v"), [(1, None)]))
        index = rel.rows._by_part["v"]
        assert list(index)[-1] is None and \
            rel.rows.pairs()[0][0].elements_at("v") == (None,)
        comparison = Comparison("v", ">", 2)
        with pytest.raises(SchemaError) as by_value:
            restrict(rel, (comparison,))
        with pytest.raises(SchemaError) as by_row:
            select(rel, lambda row: comparison(row))
        assert str(by_value.value) == str(by_row.value) == (
            "v > 2: 'v' holds NoneType, which does not compare with int"
        )

    def test_an_incomparable_column_is_refused_alike(self):
        rel = Relation.from_tuples(("k", "v"), [(1, 3), (2, "x"), (3, 4)])
        comparison = Comparison("v", ">", 2)
        with pytest.raises(SchemaError) as by_value:
            restrict(rel, (comparison,))
        with pytest.raises(SchemaError) as by_row:
            select(rel, lambda row: comparison(row))
        assert str(by_value.value) == str(by_row.value) == (
            "v > 2: 'v' holds str, which does not compare with int"
        )
        with pytest.raises(SchemaError, match="holds str"):
            encode(rel).restrict((comparison,))
        with pytest.raises(SchemaError, match="unknown attributes"):
            restrict(rel, (Comparison("w", ">", 2),))
        with pytest.raises(SchemaError, match="unknown attributes"):
            select(rel, lambda row: Comparison("w", ">", 2)(row))


class TestConjunctions:
    """One to three comparisons on one node: the row path, the record
    path and the columnar backend agree on what they keep, and the row
    and record executors refuse alike, at the same row."""

    @seeded
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_conjunction_is_the_record_reading(self, rule, data):
        drawn = data.draw(column)
        size = data.draw(st.integers(0, 30))
        cells = data.draw(st.lists(drawn, min_size=size, max_size=size))
        rel = Relation.from_tuples(("k", "v"), list(enumerate(cells)))
        if data.draw(st.booleans()):
            rel.rows._members_holding("v")
        pool = st.one_of(values, numeric, st.sampled_from(cells or [0]))
        comparisons = data.draw(st.lists(st.builds(
            Comparison, st.sampled_from(("v", "v", "k")),
            st.sampled_from(OPERATORS), pool,
        ), min_size=1, max_size=3))
        plan = Restrict(Scan("t"), comparisons)
        db = Database({"t": rel})
        got = outcome(lambda: db.execute(plan))
        # Record mode asks each row the node's comparisons in order.
        assert outcome(lambda: db.execute_records(plan)) == got, \
            plan.describe()
        assert outcome(lambda: select(rel, lambda row: all(
            comparison(row) for comparison in plan.comparisons
        ))) == got
        encoded = Database({"t": rel})
        encoded.encode_columnar()
        columnar = outcome(lambda: encoded.execute(plan))
        assert columnar[0] == got[0]
        if got[0] == "rows":
            assert columnar == got

    def test_two_ranges_an_absorbed_range_and_a_contradiction(self):
        rel = Relation.from_tuples(
            ("k", "v"), [(n, n % 10) for n in range(40)])
        rel.rows._members_holding("v")

        def kept(*comparisons):
            return sorted(row["v"] for row in restrict(
                rel, comparisons).iter_dicts())

        assert kept(Comparison("v", ">", 2), Comparison("v", "<", 5)) == \
            [3] * 4 + [4] * 4
        assert kept(Comparison("v", "=", 3), Comparison("v", ">", 2)) == \
            [3] * 4
        assert kept(Comparison("v", "=", 3), Comparison("v", ">", 3)) == []
        assert kept(Comparison("v", "=", 3), Comparison("v", "=", 4)) == []
        assert kept(Comparison("v", "=", 3), Comparison("v", "!=", 3)) == []
        assert kept(Comparison("v", "=", 3), Comparison("v", "=", 3.0)) == \
            [3] * 4


class TestNanIsRefusedAtTheDoor:
    """A ``nan`` equals nothing, itself included, so no set can know it
    as a member, and a value that is no atom is no value the log can
    carry: a comparison refuses either as its constant when it is
    built, a relation refuses it as a value, and a table refuses a
    ``nan`` in a keyed delete or an update before any row is read."""

    @pytest.mark.parametrize("refused", pool.REFUSED)
    @pytest.mark.parametrize("operator", OPERATORS)
    def test_a_comparison_refuses_it_when_built(self, operator, refused):
        with pytest.raises(InvalidAtomError, match=pool.refusal(refused)):
            Comparison("a", operator, refused)

    @pytest.mark.parametrize("refused", pool.REFUSED)
    def test_a_relation_refuses_it_as_a_value(self, refused):
        with pytest.raises(InvalidAtomError, match=pool.refusal(refused)):
            Relation.from_tuples(["a", "b"], [(1, "x"), (refused, "n")])
        with pytest.raises(InvalidAtomError, match=pool.refusal(refused)):
            Relation.from_dicts(["a", "b"], [{"a": refused, "b": "n"}])

    def test_a_keyed_delete_or_update_of_nan_is_refused(self):
        from repro.relational.constraints import Table

        table = Table(["a", "b"], [{"a": 1, "b": "x"}, {"a": 2, "b": "n"}])
        before = table.snapshot()
        nan = float("nan")
        with pytest.raises(InvalidAtomError):
            table.delete({"a": nan})
        with pytest.raises(InvalidAtomError):
            table.update({"a": nan}, {"b": "y"})
        # Refused whether or not a row matches.
        for where in ({"a": 1}, {"a": 3}):
            with pytest.raises(InvalidAtomError):
                table.update(where, {"b": nan})
        with pytest.raises(InvalidAtomError):
            table.insert({"a": nan, "b": "m"})
        assert table.snapshot() is before


class TestAccessPath:
    def test_a_stored_relation_is_indexed_a_derived_one_is_not(self):
        emp = Relation.from_tuples(
            ("emp", "dept", "pay"), [(n, n % 3, 100 + n) for n in range(40)])
        dept = Relation.from_tuples(
            ("dept", "dname"), [(0, "a"), (1, "b"), (2, "c")])
        db = Database({"emp": emp, "dept": dept})
        stored = Restrict(Scan("emp"), (Comparison("pay", ">", 120),))
        assert len(db.execute(stored)) == 19
        # The stored relation keeps its index at pay for the next query.
        assert "pay" in emp.rows._by_part
        joined = join(emp, dept)
        derived = restrict(joined, (Comparison("pay", "<=", 105),))
        assert joined.rows._by_part is None or \
            "pay" not in joined.rows._by_part
        assert rows_of(derived) == rows_of(
            select(joined, lambda row: row["pay"] <= 105))
        assert len(derived) == 6


def scope_index_build(pairs, scope):
    """The build ``_holding`` replaced: each member's whole scope index."""
    grouped = defaultdict(list)
    for pair in pairs:
        member = pair[0]
        if isinstance(member, XSet):
            for element in member._scopes_index().get(scope, ()):
                grouped[element].append(pair)
    return grouped


#: Scopes: twins, strings and nested sets.
SCOPE_POOL = [1, 1.0, True, 0, False, "k", "v", EMPTY,
              XSet([(1, EMPTY)]), XSet([(1.0, EMPTY)]), XSet([("k", 1)])]
scopes = st.one_of(st.sampled_from(SCOPE_POOL), pool.atoms)
members = st.one_of(
    st.builds(XSet, st.lists(st.tuples(values, scopes), max_size=4)),
    values,  # atom members hold nothing
)


class TestHolding:
    @seeded
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(members, scopes), max_size=12), scopes)
    def test_reads_what_the_scope_index_build_reads(self, pairs, scope):
        # Read first, so it cannot lean on an index the old build fills.
        got = _holding(pairs, scope)
        want = scope_index_build(pairs, scope)
        assert [id(key) for key in got] == [id(key) for key in want]
        assert [[id(pair) for pair in run] for run in got.values()] == \
            [[id(pair) for pair in run] for run in want.values()]

    def test_scopes_meet_as_dict_keys_meet(self):
        rows = [
            (XSet([("a", -0.0), ("b", 1), ("c", float("inf"))]), EMPTY),
            (XSet([("d", 1.0), ("e", XSet([(1, EMPTY)]))]), EMPTY),
            (XSet([("f", True), ("g", XSet([(1.0, EMPTY)]))]), "k"),
            ("atom", EMPTY),
        ]
        for scope, held in [
            (0, ["a"]), (float("inf"), ["c"]), (float("-inf"), []),
            (1, ["b", "d", "f"]), (True, ["b", "d", "f"]),
            (XSet([(True, EMPTY)]), ["e", "g"]),
        ]:
            got = _holding(rows, scope)
            assert list(got) == held
            assert got == scope_index_build(rows, scope)

    def test_no_member_builds_its_scope_index(self):
        rows = XSet((XSet([(n, "k"), (n % 3, "v")]), EMPTY) for n in range(9))
        index = rows._members_holding("v")
        assert [len(run) for run in index.values()] == [3, 3, 3]
        assert all(row._by_scope is None for row, _ in rows.pairs())
