"""End-to-end integration: every layer exercised in one scenario.

The scenario follows a miniature backend's lifecycle:
generate data -> guard it with constraints -> persist to disk ->
reload -> query through XQL under both executors and the optimizer ->
distribute across a cluster -> aggregate -> cross-check every answer
against the in-memory algebra and the process layer.
"""

import pytest

from repro.relational import (
    Aggregate,
    Cluster,
    Comparison,
    Database,
    DiskRelationStore,
    ForeignKeyConstraint,
    Join,
    KeyConstraint,
    Project,
    Restrict,
    Scan,
    Table,
    aggregate,
    dumps_csv,
    join,
    loads_csv,
    optimize,
    project,
    restrict,
    run,
)
from repro.relational.constraints import IntegrityError
from repro.workloads import department_relation, employee_relation
from repro.xst import xrecord, xset

EMP_COUNT = 90
DEPT_COUNT = 9


@pytest.fixture(scope="module")
def employees():
    return employee_relation(EMP_COUNT, DEPT_COUNT, seed=55)


@pytest.fixture(scope="module")
def departments():
    return department_relation(DEPT_COUNT, seed=55)


@pytest.fixture(scope="module")
def db(employees, departments):
    return Database({"emp": employees, "dept": departments})


class TestConstraintGuardedIngestion:
    def test_workload_satisfies_the_schema(self, employees, departments):
        dept_table = Table(
            departments.heading,
            departments.iter_dicts(),
            [KeyConstraint(["dept"])],
        )
        emp_table = Table(
            employees.heading,
            [],
            [KeyConstraint(["emp"])],
        )
        emp_table.add_constraint(
            ForeignKeyConstraint(["dept"], dept_table.snapshot)
        )
        added = emp_table.insert_many(employees.iter_dicts())
        assert added == EMP_COUNT
        assert emp_table.snapshot() == employees

    def test_referential_integrity_blocks_bad_rows(self, employees,
                                                   departments):
        dept_table = Table(
            departments.heading,
            departments.iter_dicts(),
            [KeyConstraint(["dept"])],
        )
        emp_table = Table(employees.heading, employees.iter_dicts())
        emp_table.add_constraint(
            ForeignKeyConstraint(["dept"], dept_table.snapshot)
        )
        with pytest.raises(IntegrityError):
            emp_table.insert(
                {"emp": 999, "name": "ghost", "dept": 404, "salary": 1}
            )


class TestPersistenceLoop:
    def test_disk_and_csv_round_trips_compose(self, tmp_path, employees):
        store = DiskRelationStore(str(tmp_path), rows_per_segment=32)
        store.store("emp", employees)
        reloaded = store.load("emp")
        assert reloaded == employees
        assert loads_csv(dumps_csv(reloaded)) == employees


class TestQueryPaths:
    def test_xql_plan_algebra_and_record_mode_all_agree(self, db,
                                                        employees,
                                                        departments):
        text = "SELECT name, dname FROM emp JOIN dept WHERE dept = 4"
        via_xql = run(db, text)
        plan = Project(
            Restrict(Join(Scan("emp"), Scan("dept")),
                     (Comparison("dept", "=", 4),)),
            ["name", "dname"],
        )
        via_plan = db.execute(plan)
        via_records = db.execute_records(plan)
        via_algebra = project(
            restrict(join(employees, departments),
                     (Comparison("dept", "=", 4),)),
            ["name", "dname"],
        )
        assert via_xql == via_plan == via_records == via_algebra

    def test_optimizer_preserves_the_integrated_query(self, db):
        plan = Project(
            Restrict(Join(Scan("emp"), Scan("dept")),
                     (Comparison("dept", "=", 2),)),
            ["name", "dname"],
        )
        assert db.execute(optimize(plan, db)) == db.execute(plan)


class TestDistributionPaths:
    def test_cluster_answers_match_single_node(self, employees, departments):
        cluster = Cluster(3)
        cluster.create_table("emp", employees, "dept")
        cluster.create_table("dept", departments, "dept")
        assert cluster.execute(Join(Scan("emp"), Scan("dept"))) == \
            join(employees, departments)
        assert cluster.execute(Restrict(Scan("emp"),
                                        (Comparison("dept", "=", 7),))) == \
            restrict(employees, (Comparison("dept", "=", 7),))
        distributed = cluster.execute(Aggregate(
            Scan("emp"), ["dept"],
            {"n": ("count", "emp"), "pay": ("sum", "salary")},
        ))
        local = aggregate(
            employees, ["dept"],
            {"n": ("count", "emp"), "pay": ("sum", "salary")},
        )
        assert distributed == local


class TestProcessViewAgreesWithAlgebra:
    def test_relation_as_process_matches_select_project(self, employees):
        """The core layer and the relational layer answer identically."""
        by_dept = employees.as_process(["dept"], ["name"])
        key = xset([xrecord({"dept": 4})])
        via_process = by_dept(key)
        via_algebra = project(
            restrict(employees, (Comparison("dept", "=", 4),)), ["name"]
        ).rows
        assert via_process == via_algebra

    def test_pipeline_fusion_on_relational_data(self, employees):
        """Compose emp->dept and dept->band lookups into one process."""
        from repro.core import compose_chain, staged_apply
        from repro.xst import xpair, xtuple

        emp_to_dept = xset(
            xpair(row["emp"], row["dept"]) for row in employees.iter_dicts()
        )
        dept_to_band = xset(
            xpair(dept, "band-%d" % (dept % 3)) for dept in range(DEPT_COUNT)
        )
        fused = compose_chain([emp_to_dept, dept_to_band])
        probe = xset([xtuple([11])])
        result = fused(probe)
        assert result == staged_apply([emp_to_dept, dept_to_band], probe)
        expected_dept = next(
            row["dept"] for row in employees.iter_dicts() if row["emp"] == 11
        )
        ((member, _),) = result.pairs()
        assert member.elements_at(2) == ("band-%d" % (expected_dept % 3),)
