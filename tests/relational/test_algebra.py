"""Relational algebra as kernel calls: behavior + classical identities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational import algebra
from repro.relational.algebra import Comparison
from repro.relational.relation import Relation

EMPLOYEES = Relation.from_dicts(
    ["emp", "name", "dept"],
    [
        {"emp": 1, "name": "ada", "dept": 10},
        {"emp": 2, "name": "alan", "dept": 20},
        {"emp": 3, "name": "grace", "dept": 10},
    ],
)

DEPARTMENTS = Relation.from_dicts(
    ["dept", "dname"],
    [
        {"dept": 10, "dname": "research"},
        {"dept": 20, "dname": "ops"},
        {"dept": 30, "dname": "empty-floor"},
    ],
)


def rows_of(rel):
    return sorted(
        tuple(sorted(row.items())) for row in rel.iter_dicts()
    )


small_relations = st.lists(
    st.fixed_dictionaries(
        {"k": st.integers(min_value=0, max_value=4),
         "v": st.sampled_from(["x", "y", "z"])}
    ),
    max_size=6,
).map(lambda rows: Relation.from_dicts(["k", "v"], rows))


class TestSelect:
    def test_restrict_by_an_equality(self):
        picked = algebra.restrict(EMPLOYEES, (Comparison("dept", "=", 10),))
        assert {row["name"] for row in picked.iter_dicts()} == {"ada", "grace"}

    def test_restrict_by_several_equalities(self):
        picked = algebra.restrict(EMPLOYEES,
                (Comparison("dept", "=", 10), Comparison("name", "=", "ada")))
        assert picked.cardinality() == 1

    def test_restrict_matching_nothing(self):
        assert algebra.restrict(EMPLOYEES,
                (Comparison("dept", "=", 999),)).cardinality() == 0

    def test_restrict_by_an_unknown_attribute(self):
        with pytest.raises(SchemaError):
            algebra.restrict(EMPLOYEES, (Comparison("nope", "=", 1),))

    def test_select_by_a_predicate(self):
        picked = algebra.select(EMPLOYEES, lambda row: row["emp"] > 1)
        assert picked.cardinality() == 2

    def test_restrict_agrees_with_predicate_select(self):
        via_restriction = algebra.restrict(EMPLOYEES,
                                           (Comparison("dept", "=", 10),))
        via_predicate = algebra.select(EMPLOYEES, lambda row: row["dept"] == 10)
        assert via_restriction == via_predicate

    @given(small_relations, st.integers(min_value=0, max_value=4))
    def test_restrict_equivalence_property(self, rel, key):
        assert algebra.restrict(rel,
                (Comparison("k", "=", key),)) == algebra.select(
            rel, lambda row: row["k"] == key
        )


class TestProject:
    def test_project_collapses_duplicates(self):
        depts = algebra.project(EMPLOYEES, ["dept"])
        assert depts.cardinality() == 2
        assert depts.heading.names == ("dept",)

    def test_project_keeps_order_of_request(self):
        projected = algebra.project(EMPLOYEES, ["name", "emp"])
        assert projected.heading.names == ("name", "emp")

    def test_project_unknown_attribute(self):
        with pytest.raises(SchemaError):
            algebra.project(EMPLOYEES, ["nope"])

    @given(small_relations)
    def test_project_is_idempotent(self, rel):
        once = algebra.project(rel, ["k"])
        assert algebra.project(once, ["k"]) == once


class TestRename:
    def test_rename(self):
        renamed = algebra.rename(DEPARTMENTS, {"dname": "label"})
        assert "label" in renamed.heading
        assert "dname" not in renamed.heading
        assert {row["label"] for row in renamed.iter_dicts()} == {
            "research", "ops", "empty-floor",
        }

    def test_rename_round_trip(self):
        there = algebra.rename(DEPARTMENTS, {"dname": "label"})
        back = algebra.rename(there, {"label": "dname"})
        assert back == DEPARTMENTS

    def test_rename_swap(self):
        rel = Relation.from_dicts(["a", "b"], [{"a": 1, "b": 2}])
        swapped = algebra.rename(rel, {"a": "b", "b": "a"})
        assert list(swapped.iter_dicts()) == [{"a": 2, "b": 1}]


class TestJoin:
    def test_natural_join(self):
        joined = algebra.join(EMPLOYEES, DEPARTMENTS)
        assert joined.cardinality() == 3
        row = next(
            row for row in joined.iter_dicts() if row["name"] == "ada"
        )
        assert row["dname"] == "research"

    def test_join_drops_dangling_rows(self):
        joined = algebra.join(EMPLOYEES, DEPARTMENTS)
        assert all(row["dname"] != "empty-floor" for row in joined.iter_dicts())

    def test_join_heading_union(self):
        joined = algebra.join(EMPLOYEES, DEPARTMENTS)
        assert set(joined.heading.names) == {
            "emp", "name", "dept", "dname",
        }

    def test_join_is_commutative_up_to_heading_order(self):
        forward = algebra.join(EMPLOYEES, DEPARTMENTS)
        backward = algebra.join(DEPARTMENTS, EMPLOYEES)
        assert rows_of(forward) == rows_of(backward)

    def test_semijoin(self):
        staffed = algebra.semijoin(DEPARTMENTS, EMPLOYEES)
        assert {row["dname"] for row in staffed.iter_dicts()} == {
            "research", "ops",
        }

    def test_semijoin_requires_shared_attributes(self):
        other = Relation.from_dicts(["zzz"], [{"zzz": 1}])
        with pytest.raises(SchemaError):
            algebra.semijoin(EMPLOYEES, other)

    def test_join_without_shared_attributes_is_a_product(self):
        other = Relation.from_dicts(["flag"], [{"flag": True}, {"flag": False}])
        joined = algebra.join(DEPARTMENTS, other)
        assert joined.cardinality() == 6


class TestProduct:
    def test_product(self):
        flags = Relation.from_dicts(["flag"], [{"flag": 0}, {"flag": 1}])
        result = algebra.product(DEPARTMENTS, flags)
        assert result.cardinality() == 6

    def test_product_requires_disjoint_headings(self):
        with pytest.raises(SchemaError, match="disjoint"):
            algebra.product(EMPLOYEES, DEPARTMENTS)


class TestSetOperations:
    def test_union_difference_intersection(self):
        left = Relation.from_dicts(["k"], [{"k": 1}, {"k": 2}])
        right = Relation.from_dicts(["k"], [{"k": 2}, {"k": 3}])
        assert algebra.union(left, right).cardinality() == 3
        assert algebra.difference(left, right).cardinality() == 1
        assert algebra.intersection(left, right).cardinality() == 1

    def test_heading_mismatch_rejected(self):
        left = Relation.from_dicts(["k"], [{"k": 1}])
        right = Relation.from_dicts(["z"], [{"z": 1}])
        for operation in (algebra.union, algebra.difference, algebra.intersection):
            with pytest.raises(SchemaError):
                operation(left, right)

    @given(small_relations, small_relations)
    def test_difference_union_partition(self, left, right):
        only_left = algebra.difference(left, right)
        shared = algebra.intersection(left, right)
        assert algebra.union(only_left, shared) == left


class TestClassicalIdentities:
    @given(small_relations, small_relations)
    def test_semijoin_equals_project_of_join(self, left, right):
        """R semijoin S == project_{R}(R join S) (a textbook identity)."""
        joined = algebra.join(left, right)
        via_join = algebra.project(joined, left.heading.names)
        assert algebra.semijoin(left, right) == via_join

    @given(small_relations, st.integers(min_value=0, max_value=4))
    def test_select_commutes_with_self_union(self, rel, key):
        doubled = algebra.union(rel, rel)
        equal = (Comparison("k", "=", key),)
        assert algebra.restrict(doubled, equal) == algebra.restrict(rel, equal)
