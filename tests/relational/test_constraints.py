"""Constraints and the transactional table: the reliability claim."""

import pytest

from repro.errors import SchemaError
from repro.relational.constraints import (
    CheckConstraint,
    ForeignKeyConstraint,
    IntegrityError,
    KeyConstraint,
    Table,
)
from repro.relational.relation import Relation


@pytest.fixture
def departments():
    return Table(
        ["dept", "dname"],
        [{"dept": 1, "dname": "research"}, {"dept": 2, "dname": "ops"}],
        [KeyConstraint(["dept"])],
    )


@pytest.fixture
def employees(departments):
    table = Table(
        ["emp", "name", "dept", "salary"],
        [],
        [
            KeyConstraint(["emp"]),
            CheckConstraint(lambda row: row["salary"] > 0, "positive salary"),
        ],
    )
    table.add_constraint(
        ForeignKeyConstraint(["dept"], departments.snapshot)
    )
    return table


class TestKeyConstraint:
    def test_unique_keys_pass(self):
        relation = Relation.from_dicts(
            ["k", "v"], [{"k": 1, "v": "a"}, {"k": 2, "v": "a"}]
        )
        KeyConstraint(["k"]).check(relation)

    def test_duplicate_keys_fail(self):
        relation = Relation.from_dicts(
            ["k", "v"], [{"k": 1, "v": "a"}, {"k": 1, "v": "b"}]
        )
        with pytest.raises(IntegrityError, match="key"):
            KeyConstraint(["k"]).check(relation)

    def test_composite_keys(self):
        relation = Relation.from_dicts(
            ["a", "b", "v"],
            [{"a": 1, "b": 1, "v": "x"}, {"a": 1, "b": 2, "v": "y"}],
        )
        KeyConstraint(["a", "b"]).check(relation)
        with pytest.raises(IntegrityError):
            KeyConstraint(["a"]).check(relation)

    def test_unknown_attribute(self):
        relation = Relation.from_dicts(["k"], [{"k": 1}])
        with pytest.raises(SchemaError):
            KeyConstraint(["nope"]).check(relation)


class TestDeltaRules:
    """``check_delta`` is ``check`` restricted to what a write changed."""

    BEFORE = Relation.from_dicts(
        ["k", "v"], [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}]
    )

    def verdicts(self, constraint, rows):
        """(delta rule accepts, full check accepts) for BEFORE -> rows."""
        after = Relation.from_dicts(["k", "v"], rows)
        outcome = []
        for run in (
            lambda: constraint.check_delta(
                after, after.rows - self.BEFORE.rows,
                self.BEFORE.rows - after.rows),
            lambda: constraint.check(after),
        ):
            try:
                run()
                outcome.append(True)
            except IntegrityError:
                outcome.append(False)
        return tuple(outcome)

    @pytest.mark.parametrize("rows, ok", [
        ([{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 3, "v": "a"}], True),
        ([{"k": 1, "v": "a"}], True),  # deletions cannot break a key
        ([{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 2, "v": "c"}], False),
        ([{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 2.0, "v": "c"}], False),
        ([{"k": 1, "v": "a"}, {"k": 2, "v": "b"},
          {"k": 3, "v": "c"}, {"k": 3, "v": "d"}], False),  # inside the delta
        ([{"k": 1, "v": "a"}, {"k": 2, "v": "moved"}], True),  # same key, new row
        ([{"k": 2, "v": "b"}, {"k": 2, "v": "a"}], False),  # moved onto a key
    ])
    def test_key_delta_rule_agrees_with_the_definition(self, rows, ok):
        assert self.verdicts(KeyConstraint(["k"]), rows) == (ok, ok)

    def test_check_delta_rule_sees_only_the_new_rows(self):
        seen = []
        constraint = CheckConstraint(
            lambda row: seen.append(row["k"]) or row["v"] != "bad", "not bad"
        )
        rows = list(self.BEFORE.iter_dicts())
        assert self.verdicts(constraint, rows + [{"k": 3, "v": "c"}]) == (
            True, True)
        assert seen == [3, 1, 2, 3]  # the delta rule, then the full check
        assert self.verdicts(constraint, rows + [{"k": 3, "v": "bad"}]) == (
            False, False)

    def test_foreign_keys_have_no_delta_rule(self, departments):
        fk = ForeignKeyConstraint(["dept"], departments.snapshot)
        assert not hasattr(fk, "check_delta")
        referencing = Table(["emp", "dept"], [{"emp": 1, "dept": 2}], [fk])
        # Its own delta is empty, yet a write elsewhere can break it.
        referencing.check_now()  # it holds...
        departments.delete({"dept": 2})
        with pytest.raises(IntegrityError):
            referencing.check_now()  # ...until the referenced rows go

    def test_a_commit_checks_a_foreign_key_no_statement_touched(
        self, departments
    ):
        from repro.relational.tx import TransactionManager

        fk = ForeignKeyConstraint(["dept"], departments.snapshot)
        referencing = Table(["emp", "dept"], [{"emp": 1, "dept": 2}], [fk])
        manager = TransactionManager({"dept": departments,
                                      "emp": referencing})
        before = manager.committed()
        for deferred in (False, True):
            with pytest.raises(IntegrityError):
                with manager.transaction(deferred=deferred):
                    departments.delete({"dept": 2})
        with pytest.raises(IntegrityError):
            departments.delete({"dept": 2})  # a transaction of its own
        assert manager.committed() is before
        assert departments.delete({"dept": 1}) == 1
        assert manager.current_version == 1


class TestForeignKeyConstraint:
    def test_resolving_keys_pass(self, departments):
        constraint = ForeignKeyConstraint(["dept"], departments.snapshot)
        relation = Relation.from_dicts(["emp", "dept"],
                                       [{"emp": 1, "dept": 1}])
        constraint.check(relation)

    def test_dangling_keys_fail_with_example(self, departments):
        constraint = ForeignKeyConstraint(["dept"], departments.snapshot)
        relation = Relation.from_dicts(["emp", "dept"],
                                       [{"emp": 1, "dept": 99}])
        with pytest.raises(IntegrityError, match="99"):
            constraint.check(relation)

    def test_violations_are_a_relation(self, departments):
        constraint = ForeignKeyConstraint(["dept"], departments.snapshot)
        relation = Relation.from_dicts(
            ["emp", "dept"],
            [{"emp": 1, "dept": 1}, {"emp": 2, "dept": 99}],
        )
        dangling = constraint.violations(relation)
        assert dangling.cardinality() == 1
        assert list(dangling.iter_dicts())[0]["emp"] == 2

    def test_renamed_reference(self, departments):
        # Referencing attribute 'division' resolves against 'dept'.
        constraint = ForeignKeyConstraint(
            ["division"], departments.snapshot, referenced_attrs=["dept"]
        )
        relation = Relation.from_dicts(["emp", "division"],
                                       [{"emp": 1, "division": 2}])
        constraint.check(relation)

    def test_live_reference_tracks_mutations(self, departments):
        constraint = ForeignKeyConstraint(["dept"], departments.snapshot)
        relation = Relation.from_dicts(["emp", "dept"],
                                       [{"emp": 1, "dept": 3}])
        with pytest.raises(IntegrityError):
            constraint.check(relation)
        departments.insert({"dept": 3, "dname": "new"})
        constraint.check(relation)  # now resolves

    def test_mismatched_lengths_rejected(self, departments):
        with pytest.raises(SchemaError):
            ForeignKeyConstraint(["a", "b"], departments.snapshot,
                                 referenced_attrs=["dept"])


class TestCheckConstraint:
    def test_passing_predicate(self):
        relation = Relation.from_dicts(["v"], [{"v": 5}])
        CheckConstraint(lambda row: row["v"] > 0, "positive").check(relation)

    def test_failing_predicate_names_itself(self):
        relation = Relation.from_dicts(["v"], [{"v": -5}])
        with pytest.raises(IntegrityError, match="positive"):
            CheckConstraint(lambda row: row["v"] > 0, "positive").check(
                relation
            )


class TestTableMutations:
    def test_insert_and_snapshot(self, employees):
        employees.insert({"emp": 1, "name": "ada", "dept": 1, "salary": 100})
        assert len(employees) == 1
        snap = employees.snapshot()
        employees.insert({"emp": 2, "name": "alan", "dept": 2, "salary": 90})
        assert snap.cardinality() == 1  # old snapshot is unaffected

    def test_duplicate_insert_rejected(self, employees):
        row = {"emp": 1, "name": "ada", "dept": 1, "salary": 100}
        employees.insert(row)
        with pytest.raises(IntegrityError, match="already present"):
            employees.insert(row)

    def test_key_violation_rolls_back(self, employees):
        employees.insert({"emp": 1, "name": "ada", "dept": 1, "salary": 100})
        with pytest.raises(IntegrityError):
            employees.insert({"emp": 1, "name": "dup", "dept": 1, "salary": 5})
        assert len(employees) == 1
        assert list(employees.snapshot().iter_dicts())[0]["name"] == "ada"

    def test_fk_violation_rolls_back(self, employees):
        with pytest.raises(IntegrityError):
            employees.insert(
                {"emp": 9, "name": "ghost", "dept": 404, "salary": 10}
            )
        assert len(employees) == 0

    def test_check_violation_rolls_back(self, employees):
        with pytest.raises(IntegrityError, match="positive salary"):
            employees.insert(
                {"emp": 3, "name": "neg", "dept": 1, "salary": -1}
            )
        assert len(employees) == 0

    def test_insert_many_all_or_nothing(self, employees):
        rows = [
            {"emp": 1, "name": "a", "dept": 1, "salary": 10},
            {"emp": 2, "name": "b", "dept": 404, "salary": 10},  # bad FK
        ]
        with pytest.raises(IntegrityError):
            employees.insert_many(rows)
        assert len(employees) == 0  # the good row did not slip in

    def test_insert_many_counts(self, employees):
        added = employees.insert_many(
            [
                {"emp": 1, "name": "a", "dept": 1, "salary": 10},
                {"emp": 2, "name": "b", "dept": 2, "salary": 20},
            ]
        )
        assert added == 2

    def test_delete(self, employees):
        employees.insert({"emp": 1, "name": "a", "dept": 1, "salary": 10})
        employees.insert({"emp": 2, "name": "b", "dept": 1, "salary": 20})
        removed = employees.delete({"dept": 1})
        assert removed == 2
        assert len(employees) == 0

    def test_delete_no_match(self, employees):
        assert employees.delete({"emp": 404}) == 0

    def test_update(self, employees):
        employees.insert({"emp": 1, "name": "a", "dept": 1, "salary": 10})
        changed = employees.update({"emp": 1}, {"salary": 99, "dept": 2})
        assert changed == 1
        row = list(employees.snapshot().iter_dicts())[0]
        assert row["salary"] == 99 and row["dept"] == 2

    def test_update_rolls_back_on_violation(self, employees):
        employees.insert({"emp": 1, "name": "a", "dept": 1, "salary": 10})
        with pytest.raises(IntegrityError):
            employees.update({"emp": 1}, {"dept": 404})
        assert list(employees.snapshot().iter_dicts())[0]["dept"] == 1

    def test_update_to_a_typed_twin_is_an_empty_delta(self, departments):
        # 1 and 1.0 are one member: nothing is inserted or deleted, so
        # the table keeps the row it had (and a commit would log nothing,
        # leaving memory and a recovered log in the same spelling).
        before = departments.snapshot()
        assert departments.update({"dept": 1}, {"dept": 1.0}) == 1
        assert departments.snapshot().rows is before.rows
        assert [type(row["dept"]) for row in
                departments.snapshot().iter_dicts()] == [int, int]

    def test_update_no_match(self, employees):
        assert employees.update({"emp": 404}, {"salary": 1}) == 0

    def test_add_constraint_validates_existing_rows(self, departments):
        table = Table(["v"], [{"v": -1}])
        with pytest.raises(IntegrityError):
            table.add_constraint(
                CheckConstraint(lambda row: row["v"] > 0, "positive")
            )
        assert len(table.constraints) == 0

    def test_initial_value_may_be_a_relation(self, departments):
        value = departments.snapshot()
        copy = Table(value.heading, value, [KeyConstraint(["dept"])])
        assert copy.snapshot() is value
        with pytest.raises(SchemaError, match="does not fit"):
            Table(["dept"], value)
        with pytest.raises(IntegrityError):
            Table(value.heading, value, [KeyConstraint(["dname"]),
                                         CheckConstraint(lambda row: False,
                                                         "never")])

    def test_initial_rows_are_validated(self):
        with pytest.raises(IntegrityError):
            Table(
                ["k", "v"],
                [{"k": 1, "v": "a"}, {"k": 1, "v": "b"}],
                [KeyConstraint(["k"])],
            )


class TestReprs:
    def test_constraint_reprs(self, departments):
        assert "dept" in repr(KeyConstraint(["dept"]))
        assert "->" in repr(
            ForeignKeyConstraint(["dept"], departments.snapshot)
        )
        assert "positive" in repr(
            CheckConstraint(lambda row: True, "positive")
        )

    def test_table_repr(self, departments):
        text = repr(departments)
        assert "2 rows" in text and "1 constraints" in text
