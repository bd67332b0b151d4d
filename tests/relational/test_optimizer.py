"""Optimizer rewrites: shape assertions + result preservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import cost as cost_module
from repro.relational.cost import CardinalityEstimator
from repro.relational.optimizer import optimize
from repro.relational.profile import execute_profiled
from repro.relational.query import (
    Database,
    Join,
    Project,
    Rename,
    Scan,
    SelectEq,
    SelectPred,
    Union,
)
from repro.workloads.generators import department_relation, employee_relation


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.add("emp", employee_relation(60, 8, seed=5))
    database.add("dept", department_relation(8, seed=5))
    return database


class TestUnaryFusion:
    def test_project_project_fuses(self, db):
        plan = Project(Project(Scan("emp"), ["name", "dept"]), ["name"])
        optimized = optimize(plan, db)
        assert optimized.explain() == Project(Scan("emp"), ["name"]).explain()

    def test_rename_rename_fuses(self, db):
        plan = Rename(Rename(Scan("dept"), {"dname": "mid"}), {"mid": "label"})
        optimized = optimize(plan, db)
        assert optimized.explain() == Rename(
            Scan("dept"), {"dname": "label"}
        ).explain()

    def test_rename_chain_cancels_to_nothing(self, db):
        plan = Rename(Rename(Scan("dept"), {"dname": "x"}), {"x": "dname"})
        optimized = optimize(plan, db)
        assert optimized.explain() == Scan("dept").explain()

    def test_project_over_rename_swaps(self, db):
        plan = Project(Rename(Scan("emp"), {"name": "who"}), ["who"])
        optimized = optimize(plan, db)
        text = optimized.explain()
        # The rename survives only for the projected attribute and sits
        # above a narrower projection.
        assert text.splitlines()[0].startswith("Rename")
        assert "Project(name)" in text


class TestSelectionRewrites:
    def test_stacked_selects_merge(self, db):
        plan = SelectEq(SelectEq(Scan("emp"), {"dept": 1}), {"salary": 1})
        optimized = optimize(plan, db)
        assert optimized.explain().count("SelectEq") == 1

    def test_contradictory_selects_do_not_merge(self, db):
        plan = SelectEq(SelectEq(Scan("emp"), {"dept": 1}), {"dept": 2})
        optimized = optimize(plan, db)
        assert db.execute(optimized).cardinality() == 0

    def test_select_pushes_below_project(self, db):
        plan = SelectEq(Project(Scan("emp"), ["name", "dept"]), {"dept": 2})
        optimized = optimize(plan, db)
        lines = optimized.explain().splitlines()
        assert lines[0].startswith("Project")
        assert lines[1].strip().startswith("SelectEq")

    def test_select_pushes_below_rename_with_translation(self, db):
        plan = SelectEq(
            Rename(Scan("emp"), {"dept": "division"}), {"division": 3}
        )
        optimized = optimize(plan, db)
        assert "dept=3" in optimized.explain()

    def test_select_pushes_into_join_side(self, db):
        plan = SelectEq(Join(Scan("emp"), Scan("dept")), {"salary": 50000})
        optimized = optimize(plan, db)
        lines = optimized.explain().splitlines()
        assert lines[0] == "Join"

    def test_join_key_select_pushes_into_both_sides(self, db):
        # 'dept' lives on both sides of the join; the natural join
        # equates it, so the condition filters BOTH inputs before the
        # relative product runs.
        plan = SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": 2})
        optimized = optimize(plan, db)
        text = optimized.explain()
        assert text.splitlines()[0] == "Join"
        assert text.count("SelectEq(dept=2)") == 2
        assert db.execute(optimized) == db.execute(plan)

    def test_mixed_side_conditions_split_across_join(self, db):
        # salary is emp-only, budget is dept-only: each side gets its
        # own selection and nothing remains above the join.
        plan = SelectEq(
            Join(Scan("emp"), Scan("dept")), {"salary": 50000, "budget": 100}
        )
        optimized = optimize(plan, db)
        text = optimized.explain()
        assert text.splitlines()[0] == "Join"
        assert "salary=50000" in text and "budget=100" in text
        assert db.execute(optimized) == db.execute(plan)

    def test_select_pred_pushes_below_project(self, db):
        plan = SelectPred(
            Project(Scan("emp"), ["name", "dept"]),
            lambda row: row["dept"] == 2,
            label="dept is 2",
        )
        optimized = optimize(plan, db)
        lines = optimized.explain().splitlines()
        assert lines[0].startswith("Project")
        assert lines[1].strip().startswith("SelectPred")
        assert db.execute(optimized) == db.execute(plan)

    def test_select_pred_below_project_sees_narrowed_rows_only(self, db):
        # The predicate inspects the whole row dict it is handed; after
        # pushdown it must still see exactly the projected attributes,
        # not the wider pre-projection row.
        plan = SelectPred(
            Project(Scan("emp"), ["name", "dept"]),
            lambda row: set(row) == {"name", "dept"} and row["dept"] == 1,
            label="narrowed",
        )
        optimized = optimize(plan, db)
        assert db.execute(optimized) == db.execute(plan)
        assert db.execute(optimized).cardinality() > 0

    def test_select_pred_pushes_below_rename_with_translation(self, db):
        plan = SelectPred(
            Rename(Scan("emp"), {"dept": "division"}),
            lambda row: row["division"] == 3,
            label="division is 3",
        )
        optimized = optimize(plan, db)
        lines = optimized.explain().splitlines()
        assert lines[0].startswith("Rename")
        assert lines[1].strip().startswith("SelectPred")
        assert db.execute(optimized) == db.execute(plan)


class TestJoinOrdering:
    def test_smaller_side_becomes_build_side(self, db):
        plan = Join(Scan("emp"), Scan("dept"))
        optimized = optimize(plan, db)
        lines = [line.strip() for line in optimized.explain().splitlines()]
        assert lines[1] == "Scan(emp)" or lines[1].startswith("Scan(emp)")
        # emp (60 rows) should be left, dept (8 rows) right.
        assert lines == ["Join", "Scan(emp)", "Scan(dept)"]

    def test_a_one_row_run_becomes_the_build_side(self, db):
        # emp is the larger relation, but its run for one key holds a
        # single row: read off the value, that side is the smaller.
        for plan in (
            Join(SelectEq(Scan("emp"), {"emp": 5}), Scan("dept")),
            Join(Scan("dept"), SelectEq(Scan("emp"), {"emp": 5})),
        ):
            lines = [line.strip()
                     for line in optimize(plan, db).explain().splitlines()]
            assert lines == ["Join", "Scan(dept)", "SelectEq(emp=5)",
                             "Scan(emp)"]
            assert db.execute(optimize(plan, db)) == db.execute(plan)

    def test_estimates(self, db):
        # Read off the value: cardinalities, runs and distinct counts.
        estimate = CardinalityEstimator(db).estimate
        assert estimate(Scan("emp")) == 60
        ones = SelectEq(Scan("emp"), {"dept": 1})
        assert estimate(ones) == db.execute(ones).cardinality() != 6
        assert estimate(Join(Scan("emp"), Scan("dept"))) == 60
        assert estimate(Union(Scan("emp"), Scan("emp"))) == 120

    def test_estimate_select_pred(self, db):
        plan = SelectPred(Scan("emp"), lambda row: True)
        assert CardinalityEstimator(db).estimate(plan) == 20

    def test_never_analyzed_three_way_join_is_reordered(self, db):
        # Written: the two 60-row sides first (many-to-many on dept),
        # the one-department filter last.
        plan = Join(
            Join(Scan("emp"), Rename(Scan("emp"), {"emp": "peer",
                                                   "name": "peer_name",
                                                   "salary": "peer_pay"})),
            SelectEq(Scan("dept"), {"dept": 3}),
        )
        optimized = optimize(plan, db)
        expected, written = execute_profiled(db, plan)
        answer, searched = execute_profiled(db, optimized)
        assert answer == expected
        assert searched.total_rows() < written.total_rows()

    def test_join_free_plan_builds_no_estimator(self, db, monkeypatch):
        built = []

        class Counted(CardinalityEstimator):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cost_module, "CardinalityEstimator", Counted)
        optimize(
            Project(SelectEq(Rename(Scan("emp"), {"name": "who"}),
                             {"dept": 2}), ["who"]),
            db,
        )
        assert built == []
        optimize(Join(Scan("emp"), Scan("dept")), db)
        assert len(built) == 1


class TestResultPreservation:
    PLANS = [
        lambda: Project(Project(Scan("emp"), ["name", "dept"]), ["name"]),
        lambda: SelectEq(Project(Scan("emp"), ["name", "dept"]), {"dept": 4}),
        lambda: SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": 2}),
        lambda: Project(
            SelectEq(
                Rename(Join(Scan("dept"), Scan("emp")), {"dname": "label"}),
                {"label": "dept-3"},
            ),
            ["name", "label"],
        ),
        lambda: Union(
            SelectEq(Scan("emp"), {"dept": 0}),
            SelectEq(Scan("emp"), {"dept": 1}),
        ),
    ]

    @pytest.mark.parametrize("make_plan", PLANS)
    def test_optimized_plan_gives_identical_results(self, db, make_plan):
        plan = make_plan()
        assert db.execute(optimize(plan, db)) == db.execute(plan)

    @pytest.mark.parametrize("make_plan", PLANS)
    def test_optimized_plan_matches_record_mode_too(self, db, make_plan):
        plan = make_plan()
        assert db.execute(optimize(plan, db)) == db.execute_records(plan)

    @settings(max_examples=20, deadline=None)
    @given(
        dept=st.integers(min_value=0, max_value=7),
        narrow=st.booleans(),
    )
    def test_generated_plans_preserved(self, db, dept, narrow):
        plan = SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": dept})
        if narrow:
            plan = Project(plan, ["name", "dname"])
        assert db.execute(optimize(plan, db)) == db.execute(plan)
