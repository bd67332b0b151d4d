"""Physical representations share one mathematical identity (§12)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational import algebra
from repro.relational.algebra import Comparison
from repro.relational.representations import (
    ColumnRepresentation,
    RowRepresentation,
    same_identity,
)
from repro.workloads.generators import employee_relation
from repro.xst.builders import xrecord, xset

NAMES = ("emp", "name", "dept", "salary")


@pytest.fixture(scope="module")
def relation():
    return employee_relation(60, 6, seed=67)


@pytest.fixture
def row_rep(relation):
    return RowRepresentation.from_relation(relation)


@pytest.fixture
def column_rep(relation):
    return ColumnRepresentation.from_relation(relation)


class TestIdentity:
    def test_layouts_share_a_canonical_form(self, row_rep, column_rep):
        assert row_rep.canonical() == column_rep.canonical()
        assert same_identity(row_rep, column_rep)

    def test_round_trip_through_relation(self, relation, row_rep, column_rep):
        assert row_rep.to_relation() == relation
        assert column_rep.to_relation() == relation

    def test_different_data_differ(self, row_rep):
        other = RowRepresentation(NAMES, [(1, "x", 2, 3)])
        assert not same_identity(row_rep, other)

    def test_row_order_is_not_identity(self):
        forward = RowRepresentation(["k"], [(1,), (2,)])
        backward = RowRepresentation(["k"], [(2,), (1,)])
        assert same_identity(forward, backward)

    def test_column_order_is_not_identity(self):
        one = ColumnRepresentation({"a": [1], "b": [2]})
        other = ColumnRepresentation({"b": [2], "a": [1]})
        assert same_identity(one, other)


class TestNativeOperationsAgree:
    def test_select_agrees_across_layouts(self, row_rep, column_rep,
                                          relation):
        via_rows = row_rep.select("dept", 3).canonical()
        via_columns = column_rep.select("dept", 3).canonical()
        via_kernel = algebra.restrict(relation,
                                      (Comparison("dept", "=", 3),)).rows
        assert via_rows == via_columns == via_kernel

    def test_project_agrees_across_layouts(self, row_rep, column_rep,
                                           relation):
        via_rows = row_rep.project(["dept"]).canonical()
        via_columns = column_rep.project(["dept"]).canonical()
        via_kernel = algebra.project(relation, ["dept"]).rows
        assert via_rows == via_columns == via_kernel

    def test_multi_attribute_project(self, row_rep, column_rep):
        assert same_identity(
            row_rep.project(["dept", "salary"]),
            column_rep.project(["dept", "salary"]),
        )

    @given(dept=st.integers(min_value=0, max_value=6))
    def test_select_property(self, relation, dept):
        row_rep = RowRepresentation.from_relation(relation)
        column_rep = ColumnRepresentation.from_relation(relation)
        assert same_identity(
            row_rep.select("dept", dept), column_rep.select("dept", dept)
        )

    def test_chained_operations(self, row_rep, column_rep):
        via_rows = row_rep.select("dept", 2).project(["name"])
        via_columns = column_rep.select("dept", 2).project(["name"])
        assert same_identity(via_rows, via_columns)


class TestColumnNativeStrengths:
    def test_column_access_without_row_assembly(self, column_rep, relation):
        salaries = column_rep.column("salary")
        assert sorted(salaries) == sorted(
            row["salary"] for row in relation.iter_dicts()
        )

    def test_single_column_aggregate(self, column_rep, relation):
        total = column_rep.aggregate_column("salary", sum)
        assert total == sum(row["salary"] for row in relation.iter_dicts())

    def test_unknown_column(self, column_rep):
        with pytest.raises(SchemaError):
            column_rep.column("nope")


class TestProjectionSetSemantics:
    """The gaps the differential oracle surfaced, pinned as intended.

    Projection must collapse duplicates exactly as an XSet would --
    including cross-type equality twins -- and projecting onto *no*
    attributes must agree across layouts: the result for a non-empty
    input is the single empty row (canonical form ``{{}}``), not the
    empty set the column layout used to produce when it dropped its
    row count along with its last column.
    """

    def test_duplicate_rows_collapse_after_projection(self):
        rows = [(1, "x"), (1, "y"), (2, "x")]
        row_rep = RowRepresentation(["k", "v"], rows)
        column_rep = ColumnRepresentation(
            {"k": [1, 1, 2], "v": ["x", "y", "x"]}
        )
        assert len(row_rep.project(["k"])) == 2
        assert len(column_rep.project(["k"])) == 2
        assert same_identity(
            row_rep.project(["k"]), column_rep.project(["k"])
        )

    def test_typed_twins_collapse_like_xsets(self):
        """1, 1.0 and True are one member in XST; layouts must agree."""
        row_rep = RowRepresentation(["a"], [(1,), (1.0,), (True,)])
        column_rep = ColumnRepresentation({"a": [1, 1.0, True]})
        assert len(row_rep.project(["a"])) == 1
        assert len(column_rep.project(["a"])) == 1
        assert same_identity(
            row_rep.project(["a"]),
            column_rep.project(["a"]),
            row_rep,
            column_rep,
        )

    def test_empty_projection_of_nonempty_is_the_empty_row(self):
        row_rep = RowRepresentation(["a", "b"], [(1, 2), (3, 4)])
        column_rep = ColumnRepresentation({"a": [1, 3], "b": [2, 4]})
        dee = xset([xrecord({})])
        assert row_rep.project([]).canonical() == dee
        assert column_rep.project([]).canonical() == dee
        assert len(column_rep.project([])) == 1
        assert same_identity(row_rep.project([]), column_rep.project([]))

    def test_empty_projection_of_empty_is_empty(self):
        row_rep = RowRepresentation(["a"], [])
        column_rep = ColumnRepresentation({"a": []})
        assert row_rep.project([]).canonical() == xset()
        assert column_rep.project([]).canonical() == xset()
        assert len(column_rep.project([])) == 0

    def test_zero_attribute_result_has_no_relation_form(self):
        """``{{}}`` is a legal XSet but not a heading-scoped relation.

        The canonical form is the identity; ``to_relation`` is a
        *partial* map out of representation space, and the zero-
        attribute non-empty result is exactly the point where it is
        undefined (rows must be attribute-scoped records).
        """
        column_rep = ColumnRepresentation({"a": [1, 2]})
        with pytest.raises(SchemaError):
            column_rep.project([]).to_relation()

    def test_select_then_project_matches_kernel(self):
        relation = employee_relation(40, 4, seed=9)
        column_rep = ColumnRepresentation.from_relation(relation)
        via_columns = column_rep.select("dept", 2).project(["name"])
        via_kernel = algebra.project(
            algebra.restrict(relation, (Comparison("dept", "=", 2),)), ["name"]
        )
        assert via_columns.canonical() == via_kernel.rows


class TestColumnarBacking:
    """ColumnRepresentation rides the sorted-run fast path."""

    def test_backing_is_a_columnar_relation(self, column_rep):
        from repro.relational.columnar import ColumnarRelation

        assert isinstance(column_rep.as_columnar(), ColumnarRelation)

    def test_select_uses_a_cached_run(self, column_rep):
        backing = column_rep.as_columnar()
        column_rep.select("dept", 1)
        column_rep.select("dept", 2)
        # One run serves every subsequent selection on the attribute.
        assert backing.run("dept") is backing.run("dept")


class TestValidation:
    def test_row_width_checked(self):
        with pytest.raises(SchemaError):
            RowRepresentation(["a", "b"], [(1,)])

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError, match="ragged"):
            ColumnRepresentation({"a": [1, 2], "b": [3]})

    def test_empty_representations(self):
        rows = RowRepresentation(["a"], [])
        columns = ColumnRepresentation({"a": []})
        assert same_identity(rows, columns)
        assert len(rows) == len(columns) == 0
