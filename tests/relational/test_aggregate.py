"""Grouping, aggregation and limit: a group is the image of its key
fragment, read off the member index, and the first rows of a relation
are a subset of it."""

import importlib
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAtomError, SchemaError
from repro.relational.algebra import (
    AGGREGATES,
    Comparison,
    aggregate,
    difference,
    group_by,
    limit,
    project,
    restrict,
)
from repro.relational.query import Limit, Scan
from repro.relational.relation import Relation
from repro.workloads.generators import employee_relation
from repro.xst.builders import xset
from repro.xst.restrict import sigma_restrict
from repro.xst.xset import XSet

from tests import values as pool
from tests.xst.test_canonical_form import seeded

xset_module = importlib.import_module("repro.xst.xset")

EMPLOYEES = Relation.from_dicts(
    ["emp", "dept", "salary"],
    [
        {"emp": 1, "dept": 10, "salary": 100},
        {"emp": 2, "dept": 10, "salary": 200},
        {"emp": 3, "dept": 20, "salary": 300},
        {"emp": 4, "dept": 20, "salary": 300},
        {"emp": 5, "dept": 30, "salary": 50},
    ],
)


class TestGroupBy:
    def test_partitioning_is_exhaustive_and_disjoint(self):
        groups = group_by(EMPLOYEES, ["dept"])
        assert len(groups) == 3
        total = sum(group.cardinality() for _, group in groups)
        assert total == EMPLOYEES.cardinality()

    def test_group_members_match_their_key(self):
        for key, group in group_by(EMPLOYEES, ["dept"]):
            assert all(
                row["dept"] == key["dept"] for row in group.iter_dicts()
            )

    def test_groups_are_relations(self):
        for _, group in group_by(EMPLOYEES, ["dept"]):
            assert isinstance(group, Relation)
            assert group.heading == EMPLOYEES.heading

    def test_multi_attribute_grouping(self):
        groups = group_by(EMPLOYEES, ["dept", "salary"])
        assert len(groups) == 4  # (10,100), (10,200), (20,300), (30,50)

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            group_by(EMPLOYEES, ["nope"])

    def test_empty_relation_has_no_groups(self):
        empty = Relation.from_dicts(["k"], [])
        assert group_by(empty, ["k"]) == []

    def test_no_attributes_make_the_relation_one_group(self):
        assert group_by(EMPLOYEES, []) == [({}, EMPLOYEES)]
        empty = Relation.from_dicts(["k"], [])
        assert group_by(empty, []) == []
        # aggregate still reads an ungrouped query over no rows as one
        # summary row.
        assert list(aggregate(empty, [], {"n": ("count", "k")}).iter_dicts()) \
            == [{"n": 0}]

    def test_a_repeated_attribute_is_refused(self):
        for attrs in (["dept", "dept"], ["dept", "salary", "dept"]):
            with pytest.raises(SchemaError, match="duplicate"):
                group_by(EMPLOYEES, attrs)
        empty = Relation.from_dicts(["k"], [])
        with pytest.raises(SchemaError, match="duplicate"):
            group_by(empty, ["k", "k"])
        with pytest.raises(SchemaError, match="unknown"):
            group_by(empty, ["nope"])

    def test_a_key_is_spelled_as_its_groups_first_row(self):
        # A probed table carries its member index through a difference,
        # keyed by the spelling of the row the difference removed.
        rows = [(n, 1 if n == 0 else 1.0 if n == 1 else n % 3)
                for n in range(40)]
        table = Relation.from_tuples(["k", "g"], rows)
        restrict(table, (Comparison("g", "=", 1),))
        gone = Relation.from_tuples(["k", "g"], [(0, 1)])
        rest = difference(table, gone)
        assert rest.rows._by_part is not None  # carried, not rebuilt
        keys = [key for key, _ in group_by(rest, ["g"])]
        assert [repr(key["g"]) for key in keys] == ["0", "1.0", "2"]


class TestAggregate:
    def test_count_sum_avg_min_max(self):
        result = aggregate(
            EMPLOYEES,
            ["dept"],
            {
                "n": ("count", "emp"),
                "total": ("sum", "salary"),
                "mean": ("avg", "salary"),
                "low": ("min", "salary"),
                "high": ("max", "salary"),
            },
        )
        by_dept = {row["dept"]: row for row in result.iter_dicts()}
        assert by_dept[10] == {
            "dept": 10, "n": 2, "total": 300, "mean": 150.0,
            "low": 100, "high": 200,
        }
        assert by_dept[20]["n"] == 2
        assert by_dept[30]["total"] == 50

    def test_set_of_aggregate(self):
        result = aggregate(
            EMPLOYEES, ["dept"], {"salaries": ("set_of", "salary")}
        )
        by_dept = {row["dept"]: row for row in result.iter_dicts()}
        assert by_dept[20]["salaries"] == xset([300])
        assert by_dept[10]["salaries"] == xset([100, 200])

    def test_heading(self):
        result = aggregate(EMPLOYEES, ["dept"], {"n": ("count", "emp")})
        assert result.heading.names == ("dept", "n")

    def test_unknown_function(self):
        with pytest.raises(SchemaError, match="unknown aggregate"):
            aggregate(EMPLOYEES, ["dept"], {"x": ("median", "salary")})

    def test_unknown_source(self):
        with pytest.raises(SchemaError):
            aggregate(EMPLOYEES, ["dept"], {"x": ("sum", "nope")})

    def test_output_colliding_with_key(self):
        with pytest.raises(SchemaError, match="collides"):
            aggregate(EMPLOYEES, ["dept"], {"dept": ("count", "emp")})

    def test_global_aggregate_via_empty_grouping(self):
        result = aggregate(EMPLOYEES, [], {"n": ("count", "emp"),
                                           "total": ("sum", "salary")})
        rows = list(result.iter_dicts())
        assert rows == [{"n": 5, "total": 950}]

    @given(st.integers(min_value=1, max_value=60))
    def test_counts_always_sum_to_cardinality(self, size):
        relation = employee_relation(size, 5, seed=size)
        result = aggregate(relation, ["dept"], {"n": ("count", "emp")})
        assert sum(row["n"] for row in result.iter_dicts()) == size

    def test_registry_is_complete(self):
        assert set(AGGREGATES) == {
            "count", "sum", "avg", "min", "max", "set_of",
        }

    def test_empty_group_guards(self):
        with pytest.raises(SchemaError):
            AGGREGATES["avg"]([])
        with pytest.raises(SchemaError):
            AGGREGATES["min"]([])
        assert AGGREGATES["count"]([]) == 0
        assert AGGREGATES["sum"]([]) == 0


class TestTheKernelsOrderNotPythons:
    TWINS = Relation.from_tuples(["k", "g", "v"], [
        (1, 1, None), (2, 1.0, "x"), (3, True, 3), (4, None, 2.5),
        (5, None, "a"), (6, "g", b"y"),
    ])

    def test_typed_twin_and_none_group_keys(self):
        result = aggregate(self.TWINS, ["g"], {
            "n": ("count", "k"), "lo": ("min", "v"), "hi": ("max", "v"),
        })
        by_key = {row["g"]: row for row in result.iter_dicts()}
        # 1 == 1.0 == True is one key fragment, so one group.
        assert by_key[1]["n"] == 3 and by_key[None]["n"] == 2
        assert (by_key[1]["lo"], by_key[1]["hi"]) == (None, "x")
        assert (by_key[None]["lo"], by_key[None]["hi"]) == (2.5, "a")
        assert by_key["g"]["lo"] == by_key["g"]["hi"] == b"y"

    @pytest.mark.parametrize("fn", ["sum", "avg"])
    def test_a_nan_aggregate_is_refused(self, fn):
        # inf + -inf is nan, which no set can hold: a typed refusal, on
        # the row and record executors alike.
        from repro.relational.query import Aggregate, Database

        rel = Relation.from_tuples(
            ["g", "x"], [(1, float("inf")), (1, float("-inf")), (2, 1.5)])
        with pytest.raises(InvalidAtomError, match="would be nan"):
            aggregate(rel, ["g"], {"s": (fn, "x")})
        plan = Aggregate(Scan("t"), ("g",), {"s": (fn, "x")})
        db = Database({"t": rel})
        for execute in (db.execute, db.execute_records):
            with pytest.raises(InvalidAtomError):
                execute(plan)
        # One infinity is a number.
        assert aggregate(rel, [], {"m": ("max", "x")}).to_rows() == [
            (float("inf"),)]

    def test_sum_names_the_attribute_and_the_types(self):
        with pytest.raises(SchemaError, match=r"sum\(v\) needs numbers; "
                           "'v' holds NoneType, bytes, float, int, str"):
            aggregate(self.TWINS, [], {"t": ("sum", "v")})
        with pytest.raises(SchemaError, match=r"avg\(v\) needs numbers"):
            aggregate(self.TWINS, ["g"], {"t": ("avg", "v")})


class TestLimit:
    def test_first_rows_in_canonical_order_are_a_subset(self):
        kept = limit(EMPLOYEES, 2)
        assert kept.to_rows() == EMPLOYEES.to_rows()[:2]
        assert kept.rows.issubset(EMPLOYEES.rows)
        assert limit(EMPLOYEES, 0).cardinality() == 0

    def test_a_count_past_the_end_is_the_relation_itself(self):
        assert limit(EMPLOYEES, 5) is EMPLOYEES
        assert limit(EMPLOYEES, 99, "salary", True) is EMPLOYEES

    def test_order_by_decides_which_rows_are_kept(self):
        assert sorted(
            row["emp"] for row in limit(EMPLOYEES, 2, "salary").iter_dicts()
        ) == [1, 5]
        # Equal keys keep canonical row order, in either direction.
        for descending in (False, True):
            tied = limit(EMPLOYEES, 1, "dept", descending)
            group = 30 if descending else 10
            first = next(
                row for row in EMPLOYEES.iter_dicts() if row["dept"] == group
            )
            assert list(tied.iter_dicts()) == [first]
        top = limit(EMPLOYEES, 3, "salary", True)
        assert sorted(row["emp"] for row in top.iter_dicts()) == [2, 3, 4]

    def test_unknown_order_attribute_whatever_the_count(self):
        for count in (0, 2, 99):
            with pytest.raises(SchemaError, match="unknown attributes"):
                limit(EMPLOYEES, count, "nope")

    def test_a_negative_count_is_refused_as_the_plan_node_refuses_it(self):
        for count in (-1, -5):
            with pytest.raises(SchemaError) as kernel:
                limit(EMPLOYEES, count)
            with pytest.raises(SchemaError) as node:
                Limit(Scan("emp"), count)
            assert str(kernel.value) == str(node.value)
        with pytest.raises(SchemaError, match="non-negative"):
            limit(EMPLOYEES, -1, "salary", True)


# ----------------------------------------------------------------------
# Grouping oracle: the member-index partition against the projection
# and one restriction per key it replaced
# ----------------------------------------------------------------------

NAMES = ("a", "b", "c", "d")
values = pool.values
rows = st.lists(st.tuples(values, values, values, values), max_size=12)


def one_restriction_per_key(rel, attrs):
    """The earlier algorithm: the key projection (Def 7.4), then one
    Def 7.6 restriction per key, over an unindexed copy of the run."""
    copy = Relation._from_valid(rel.heading, XSet._from_run(rel.rows.pairs()))
    keys = project(copy, attrs)
    sigma = XSet((attr, attr) for attr in keys.heading.names)
    return [
        (key, sigma_restrict(copy.rows, xset([fragment]), sigma))
        for key, (fragment, _) in zip(keys.iter_dicts(), keys.rows.pairs())
    ]


@contextmanager
def patching_every_difference():
    """A difference patches its operand's run whatever the lengths, so a
    small table's result carries the operand's member indexes."""
    shipped = xset_module._FEW
    xset_module._FEW = 1
    try:
        yield
    finally:
        xset_module._FEW = shipped


def operand(data):
    """A relation whose member indexes are unfilled, filled, or carried
    through ``t - d`` from a probed table ``t``."""
    rel = Relation.from_tuples(NAMES, data.draw(rows))
    state = data.draw(st.sampled_from(["unfilled", "filled", "carried"]))
    if state == "unfilled" or not rel:
        return rel
    first = next(rel.iter_dicts())
    for attr in data.draw(st.lists(st.sampled_from(NAMES), max_size=3)):
        restrict(rel, (Comparison(attr, "=", first[attr]),))
    if state == "filled":
        return rel
    gone = data.draw(st.lists(st.sampled_from(rel.rows.pairs()), max_size=2))
    with patching_every_difference():
        return difference(rel, Relation._from_valid(rel.heading, XSet(gone)))


class TestGroupingOracle:
    @seeded
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_index_partition_is_the_projection_and_restrictions(self, data):
        rel = operand(data)
        attrs = data.draw(
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)
        )
        got = group_by(rel, attrs)
        want = one_restriction_per_key(rel, attrs)
        # The same keys in the same order, spelled as the reference spells
        # them (typed twins, -0.0 and nested sets print differently).
        assert [{a: repr(v) for a, v in key.items()} for key, _ in got] == [
            {a: repr(v) for a, v in key.items()} for key, _ in want
        ]
        assert [key for key, _ in got] == [key for key, _ in want]
        # The same rows, as the operand's own pair objects.
        assert [[id(pair) for pair in group.rows.pairs()] for _, group in got] \
            == [[id(pair) for pair in kept.pairs()] for _, kept in want]
        place = {id(pair): at for at, pair in enumerate(rel.rows.pairs())}
        seen = []
        for _, group in got:
            assert isinstance(group, Relation) and group.heading == rel.heading
            at = [place[id(pair)] for pair in group.rows.pairs()]
            assert at and at == sorted(at)  # a non-empty run, in run order
            seen += at
        assert sorted(seen) == list(range(len(rel)))  # a partition
