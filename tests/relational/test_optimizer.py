"""Optimizer rewrites: shape assertions + result preservation."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational import cost as cost_module
from repro.relational.algebra import Comparison
from repro.relational.constraints import Table
from repro.relational.cost import CardinalityEstimator
from repro.relational.optimizer import optimize
from repro.relational.profile import execute_profiled
from repro.relational.query import (
    Database,
    Join,
    Project,
    Rename,
    Restrict,
    Scan,
    Union,
)
from repro.relational.sql import compile_query, parse_query
from repro.relational.sql import run as run_xql
from repro.relational.tx import TransactionManager
from repro.server import Server, connect
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
    def test_stacked_restrictions_merge(self, db):
        plan = Restrict(Restrict(Scan("emp"), (Comparison("dept", "=", 1),)),
                        (Comparison("salary", "=", 1),))
        optimized = optimize(plan, db)
        assert optimized.explain().splitlines() == [
            "Restrict(dept = 1, salary = 1)", "  Scan(emp)",
        ]

    def test_contradictory_restrictions_merge_into_the_empty_answer(self, db):
        plan = Restrict(Restrict(Scan("emp"), (Comparison("dept", "=", 1),)),
                        (Comparison("dept", "=", 2),))
        optimized = optimize(plan, db)
        assert optimized.describe() == "Restrict(dept = 1, dept = 2)"
        assert db.execute(optimized).cardinality() == 0
        assert db.execute_records(plan).cardinality() == 0

    def test_select_pushes_below_project(self, db):
        plan = Restrict(Project(Scan("emp"), ["name", "dept"]),
                        (Comparison("dept", "=", 2),))
        optimized = optimize(plan, db)
        lines = optimized.explain().splitlines()
        assert lines[0].startswith("Project")
        assert lines[1].strip().startswith("Restrict")

    def test_select_pushes_below_rename_with_translation(self, db):
        plan = Restrict(Rename(Scan("emp"), {"dept": "division"}),
                        (Comparison("division", "=", 3),))
        optimized = optimize(plan, db)
        assert "Restrict(dept = 3)" in optimized.explain()

    def test_select_pushes_into_join_side(self, db):
        plan = Restrict(Join(Scan("emp"), Scan("dept")),
                        (Comparison("salary", "=", 50000),))
        optimized = optimize(plan, db)
        lines = optimized.explain().splitlines()
        assert lines[0] == "Join"

    def test_join_key_select_pushes_into_both_sides(self, db):
        # 'dept' lives on both sides of the join; the natural join
        # equates it, so the condition filters BOTH inputs before the
        # relative product runs.
        plan = Restrict(Join(Scan("emp"), Scan("dept")),
                        (Comparison("dept", "=", 2),))
        optimized = optimize(plan, db)
        text = optimized.explain()
        assert text.splitlines()[0] == "Join"
        assert text.count("Restrict(dept = 2)") == 2
        assert db.execute(optimized) == db.execute(plan)

    def test_mixed_side_conditions_split_across_join(self, db):
        # salary is emp-only, budget is dept-only: each side gets its
        # own selection and nothing remains above the join.
        plan = Restrict(Join(Scan("emp"), Scan("dept")), (
            Comparison("salary", "=", 50000), Comparison("budget", "=", 100),
        ))
        optimized = optimize(plan, db)
        text = optimized.explain()
        assert text.splitlines()[0] == "Join"
        assert "Restrict(salary = 50000)" in text
        assert "Restrict(budget = 100)" in text
        assert db.execute(optimized) == db.execute(plan)

    def test_a_conjunction_splits_across_join_sides_by_attribute(self, db):
        # Each side gets the comparisons on its own attributes, the
        # shared one both; every side's are still one node.
        plan = Restrict(Join(Scan("emp"), Scan("dept")), (
            Comparison("salary", ">", 20000), Comparison("budget", ">", 0),
            Comparison("dept", "=", 1),
        ))
        optimized = optimize(plan, db)
        text = optimized.explain()
        assert "Restrict(dept = 1, salary > 20000)" in text
        assert "Restrict(dept = 1, budget > 0)" in text
        assert restrictions_sit_on_scans(optimized)
        assert db.execute(optimized) == db.execute_records(plan)

    def test_a_conjunction_pushes_below_project_as_one_node(self, db):
        plan = Restrict(Project(Scan("emp"), ["name", "dept"]), (
            Comparison("dept", "<", 5), Comparison("dept", "=", 2),
        ))
        optimized = optimize(plan, db)
        lines = optimized.explain().splitlines()
        assert lines[0].startswith("Project")
        assert lines[1].strip() == "Restrict(dept = 2, dept < 5)"
        assert db.execute(optimized) == db.execute(plan)

    def test_a_comparison_below_project_is_the_one_written_there(self, db):
        # The comparison reads one attribute, which the projection
        # keeps: pushed down it is the very node one would write below
        # the Project, not a wrapper around it.
        comparison = Comparison("dept", "=", 1)
        plan = Restrict(Project(Scan("emp"), ["name", "dept"]), (comparison,))
        optimized = optimize(plan, db)
        assert optimized.explain() == Project(
            Restrict(Scan("emp"), (comparison,)), ["name", "dept"]
        ).explain()
        assert optimized.child.comparisons[0] is comparison
        assert db.execute(optimized) == db.execute(plan)
        assert db.execute(optimized).cardinality() > 0

    def test_a_conjunction_pushes_below_rename_with_translation(self, db):
        plan = Restrict(Rename(Scan("emp"), {"dept": "division"}), (
            Comparison("division", "=", 3), Comparison("division", ">", 1),
        ))
        optimized = optimize(plan, db)
        lines = optimized.explain().splitlines()
        assert lines[0].startswith("Rename")
        assert lines[1].strip() == "Restrict(dept = 3, dept > 1)"
        assert db.execute(optimized) == db.execute(plan)

    def test_a_comparison_goes_to_the_join_side_holding_it(self, db):
        plan = Restrict(Join(Scan("emp"), Scan("dept")),
                        (Comparison("salary", ">", 50000),))
        optimized = optimize(plan, db)
        assert optimized.explain().splitlines() == [
            "Join", "  Restrict(salary > 50000)", "    Scan(emp)",
            "  Scan(dept)",
        ]
        assert db.execute(optimized) == db.execute(plan)

    def test_a_shared_attribute_restricts_both_join_sides(self, db):
        plan = Restrict(Join(Scan("emp"), Scan("dept")),
                        (Comparison("dept", "<", 3),))
        optimized = optimize(plan, db)
        assert optimized.explain().count("Restrict(dept < 3)") == 2
        assert restrictions_sit_on_scans(optimized)
        assert db.execute(optimized) == db.execute(plan)
        assert db.execute(optimized) == db.execute_records(plan)

    def test_a_comparison_moves_through_rename_and_project_into_a_join(
            self, db):
        plan = Restrict(Project(
            Rename(Join(Scan("emp"), Scan("dept")), {"salary": "pay"}),
            ["name", "pay", "dname"],
        ), (Comparison("pay", "<=", 40000),))
        optimized = optimize(plan, db)
        assert restrictions_sit_on_scans(optimized)
        assert "Restrict(salary <= 40000)" in optimized.explain()
        assert db.execute(optimized) == db.execute(plan)

    @pytest.mark.parametrize("text", [
        "select emp, name, dname from emp join dept where salary > 50000",
        "select emp, name, dname from emp join dept "
        "where dept = 1 and salary > 50000",
    ])
    def test_every_restriction_of_a_joining_statement_sits_on_a_scan(
            self, db, text):
        # The whole WHERE clause is one node above the join; each side
        # gets the comparisons on its attributes.
        plan = compile_query(parse_query(text))
        optimized = optimize(plan, db)
        assert not restrictions_sit_on_scans(plan)
        assert restrictions_sit_on_scans(optimized)
        assert db.execute(optimized) == db.execute_records(plan)


def restrictions_sit_on_scans(plan):
    """Whether below every restriction of ``plan`` there are only
    restrictions down to a ``Scan``."""
    if isinstance(plan, Restrict):
        child = plan.child
        while isinstance(child, Restrict):
            child = child.child
        if not isinstance(child, Scan):
            return False
    return all(map(restrictions_sit_on_scans, plan.children()))


class TestAComparisonReadsItsStoredColumn:
    """Pushed to its Scan, a comparison over a join refuses a stored
    value that does not compare with its constant, even in a row the
    join would drop -- as a single-table statement always has, since
    the member index's every distinct value is tested."""

    TEXT = "select emp, name, dname from emp join dept where salary > 90000"

    @staticmethod
    def manager():
        emp = Table(["emp", "name", "dept", "salary"], [
            {"emp": 1, "name": "ada", "dept": 1, "salary": 95000},
            {"emp": 2, "name": "bob", "dept": 2, "salary": 60000},
            # No department 9: the join drops this row.
            {"emp": 3, "name": "cyd", "dept": 9, "salary": "n/a"},
        ])
        dept = Table(["dept", "dname"], [
            {"dept": 1, "dname": "eng"}, {"dept": 2, "dname": "ops"},
        ])
        return TransactionManager({"emp": emp, "dept": dept})

    def test_embedded(self):
        db = self.manager().committed()
        with pytest.raises(SchemaError, match="'salary' holds str"):
            run_xql(db, self.TEXT)
        # The join alone drops the row, so nothing above it refuses.
        joined = Join(Scan("emp"), Scan("dept"))
        assert db.execute_records(Restrict(joined,
                (Comparison("salary", ">", 90000),))).cardinality() == 1

    def test_served(self):
        async def body():
            server = Server(self.manager())
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port)
                with pytest.raises(SchemaError) as refused:
                    await client.query(self.TEXT)
                await client.close()
                return refused.value
            finally:
                await server.close()

        refusal = asyncio.run(asyncio.wait_for(body(), 30))
        assert refusal.code == "SCHEMA"
        assert "'salary' holds str" in str(refusal)

    def test_below_a_rename_the_refusal_names_the_stored_column(self):
        # Pushed below the Rename, the comparison reads `salary` and its
        # refusal says so; unoptimized, it reads `pay` above the Rename.
        db = self.manager().committed()
        plan = Restrict(Rename(Scan("emp"), {"salary": "pay"}),
                        (Comparison("pay", ">", "x"),))
        held = "holds int, which does not compare with str"
        with pytest.raises(SchemaError, match="^pay > 'x': 'pay' " + held):
            db.execute_records(plan)
        with pytest.raises(
                SchemaError, match="^salary > 'x': 'salary' " + held):
            db.execute(optimize(plan, db))


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
            Join(Restrict(Scan("emp"),
                          (Comparison("emp", "=", 5),)), Scan("dept")),
            Join(Scan("dept"), Restrict(Scan("emp"),
                                        (Comparison("emp", "=", 5),))),
        ):
            lines = [line.strip()
                     for line in optimize(plan, db).explain().splitlines()]
            assert lines == ["Join", "Scan(dept)", "Restrict(emp = 5)",
                             "Scan(emp)"]
            assert db.execute(optimize(plan, db)) == db.execute(plan)

    def test_estimates(self, db):
        # Read off the value: cardinalities, runs and distinct counts.
        estimate = CardinalityEstimator(db).estimate
        assert estimate(Scan("emp")) == 60
        ones = Restrict(Scan("emp"), (Comparison("dept", "=", 1),))
        assert estimate(ones) == db.execute(ones).cardinality() != 6
        assert estimate(Join(Scan("emp"), Scan("dept"))) == 60
        assert estimate(Union(Scan("emp"), Scan("emp"))) == 120

    def test_estimate_of_a_range(self, db):
        plan = Restrict(Scan("emp"), (Comparison("salary", ">=", 0),))
        assert CardinalityEstimator(db).estimate(plan) == 20

    def test_never_analyzed_three_way_join_is_reordered(self, db):
        # Written: the two 60-row sides first (many-to-many on dept),
        # the one-department filter last.
        plan = Join(
            Join(Scan("emp"), Rename(Scan("emp"), {"emp": "peer",
                                                   "name": "peer_name",
                                                   "salary": "peer_pay"})),
            Restrict(Scan("dept"), (Comparison("dept", "=", 3),)),
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
            Project(Restrict(Rename(Scan("emp"), {"name": "who"}),
                             (Comparison("dept", "=", 2),)), ["who"]),
            db,
        )
        assert built == []
        optimize(Join(Scan("emp"), Scan("dept")), db)
        assert len(built) == 1


class TestResultPreservation:
    PLANS = [
        lambda: Project(Project(Scan("emp"), ["name", "dept"]), ["name"]),
        lambda: Restrict(Project(Scan("emp"), ["name", "dept"]),
                         (Comparison("dept", "=", 4),)),
        lambda: Restrict(Join(Scan("emp"), Scan("dept")),
                         (Comparison("dept", "=", 2),)),
        lambda: Project(
            Restrict(
                Rename(Join(Scan("dept"), Scan("emp")), {"dname": "label"}),
                [Comparison("label", "=", "dept-3")],
            ),
            ["name", "label"],
        ),
        lambda: Union(
            Restrict(Scan("emp"), (Comparison("dept", "=", 0),)),
            Restrict(Scan("emp"), (Comparison("dept", "=", 1),)),
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
        plan = Restrict(Join(Scan("emp"), Scan("dept")),
                        (Comparison("dept", "=", dept),))
        if narrow:
            plan = Project(plan, ["name", "dname"])
        assert db.execute(optimize(plan, db)) == db.execute(plan)
