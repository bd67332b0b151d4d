"""Grouping, aggregation and limit: grouping IS restriction, and the
first rows of a relation are a subset of it."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.algebra import AGGREGATES, aggregate, group_by, limit
from repro.relational.relation import Relation
from repro.workloads.generators import employee_relation
from repro.xst.builders import xset

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
