"""Query plans: both executors agree on every plan (the ref [4] setup)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.algebra import Comparison
from repro.relational.ivm import QueryResultCache
from repro.relational.query import (
    Database,
    Difference,
    Join,
    Project,
    Rename,
    Restrict,
    Scan,
    Union,
)
from repro.relational.relation import Relation
from repro.workloads.generators import department_relation, employee_relation


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.add("emp", employee_relation(40, 6, seed=11))
    database.add("dept", department_relation(6, seed=11))
    return database


def assert_modes_agree(db, plan):
    set_result = db.execute(plan)
    record_result = db.execute_records(plan)
    assert set_result == record_result
    return set_result


class TestScanAndCatalog:
    def test_scan(self, db):
        assert_modes_agree(db, Scan("emp"))

    def test_unknown_relation(self, db):
        with pytest.raises(SchemaError, match="unknown relation"):
            db.execute(Scan("nope"))

    def test_names(self, db):
        assert db.names() == ["dept", "emp"]

    def test_add_and_read_back(self):
        database = Database()
        rel = Relation.from_dicts(["k"], [{"k": 1}])
        database.add("r", rel)
        assert database.relation("r") is rel


class TestUnaryPlans:
    def test_restrict_by_an_equality(self, db):
        result = assert_modes_agree(db, Restrict(Scan("emp"),
                (Comparison("dept", "=", 3),)))
        assert all(row["dept"] == 3 for row in result.iter_dicts())

    def test_restrict_by_a_range(self, db):
        plan = Restrict(Scan("emp"), (Comparison("salary", ">", 60000),))
        result = assert_modes_agree(db, plan)
        assert all(row["salary"] > 60000 for row in result.iter_dicts())

    def test_project(self, db):
        result = assert_modes_agree(db, Project(Scan("emp"), ["dept"]))
        assert result.heading.names == ("dept",)

    def test_rename(self, db):
        result = assert_modes_agree(
            db, Rename(Scan("dept"), {"dname": "label"})
        )
        assert "label" in result.heading

    def test_stacked_unaries(self, db):
        plan = Project(
            Rename(Restrict(Scan("emp"),
                            (Comparison("dept", "=", 2),)), {"name": "who"}),
            ["who", "salary"],
        )
        result = assert_modes_agree(db, plan)
        assert result.heading.names == ("who", "salary")


class TestBinaryPlans:
    def test_join(self, db):
        result = assert_modes_agree(db, Join(Scan("emp"), Scan("dept")))
        assert result.cardinality() == db.relation("emp").cardinality()

    def test_join_then_select_then_project(self, db):
        plan = Project(
            Restrict(Join(Scan("emp"), Scan("dept")),
                     (Comparison("dept", "=", 1),)),
            ["name", "dname"],
        )
        assert_modes_agree(db, plan)

    def test_union(self, db):
        plan = Union(
            Restrict(Scan("emp"), (Comparison("dept", "=", 0),)),
            Restrict(Scan("emp"), (Comparison("dept", "=", 1),)),
        )
        result = assert_modes_agree(db, plan)
        assert all(row["dept"] in (0, 1) for row in result.iter_dicts())

    def test_difference(self, db):
        plan = Difference(
            Scan("emp"), Restrict(Scan("emp"), (Comparison("dept", "=", 0),))
        )
        result = assert_modes_agree(db, plan)
        assert all(row["dept"] != 0 for row in result.iter_dicts())

    def test_self_join_via_rename(self, db):
        # Employees sharing a department with employee 0.
        colleagues = Join(
            Project(Restrict(Scan("emp"),
                             (Comparison("emp", "=", 0),)), ["dept"]),
            Scan("emp"),
        )
        result = assert_modes_agree(db, colleagues)
        assert result.cardinality() >= 1


class TestExplain:
    def test_explain_renders_the_tree(self, db):
        plan = Project(Restrict(Join(Scan("emp"), Scan("dept")),
                                (Comparison("dept", "=", 1),)), ["name"])
        text = plan.explain()
        assert "Project(name)" in text
        assert "Join" in text
        assert "Scan(emp)" in text
        assert text.index("Project") < text.index("Join")

    def test_nodes_are_immutable(self):
        node = Scan("emp")
        with pytest.raises(AttributeError):
            node.name = "other"


class TestIllFormedPlans:
    """A plan that is not well defined on the catalog's headings gets
    the same typed answer from every entry, before any work."""

    #: Project o Project fusion used to erase the bad inner node.
    ERASABLE = Project(Project(Scan("emp"), ["emp", "bogus"]), ["emp"])
    #: Used to run the whole join, then fail in the projection.
    AFTER_JOIN = Project(Join(Scan("emp"), Scan("dept")), ["bogus"])

    def test_every_entry_refuses_the_erasable_node(self, db):
        from repro.relational.optimizer import optimize

        assert optimize(Project(Project(Scan("emp"), ["emp", "name"]),
                                ["emp"]), db).describe() == "Project(emp)"
        for run in (
            db.execute,
            db.execute_records,
            db.heading_of,
            lambda plan: db.execute(optimize(plan, db)),
        ):
            with pytest.raises(SchemaError, match="unknown attributes"):
                run(self.ERASABLE)

    def test_refused_before_any_work(self, db):
        from repro.gov import governed
        from repro.obs import instrument

        cache = QueryResultCache()
        cached = Database({name: db.relation(name) for name in db.names()},
                          result_cache=cache)
        with instrument.observed() as registry:
            before = registry.snapshot()
            with governed(max_rows=10_000) as gov:
                for run in (cached.execute, cached.execute_records):
                    with pytest.raises(SchemaError, match="unknown attributes"):
                        run(self.AFTER_JOIN)
                assert gov.checkpoints == 0
                assert gov.budget.rows == 0
            moved = registry.delta(before)
        assert (cache.hits, cache.misses, cache.stale, cache.stores) == (0,) * 4
        assert not [
            key for key in moved
            if key.startswith(("repro_xst_op_total", "repro_cache_events",
                               "repro_kernel_backend", "repro_plan_node"))
        ]

    @pytest.mark.parametrize("plan", [
        Restrict(Scan("emp"), (Comparison("bogus", "=", 1),)),
        Rename(Scan("emp"), {"bogus": "x"}),
        Rename(Scan("emp"), {"emp": "name"}),
        Project(Scan("emp"), ["emp", "emp"]),
        Union(Scan("emp"), Scan("dept")),
        Difference(Scan("emp"), Project(Scan("emp"), ["emp"])),
        Join(Scan("emp"), Scan("nope")),
    ], ids=lambda plan: plan.explain().replace("\n", " "))
    def test_each_operators_condition(self, db, plan):
        for run in (db.heading_of, db.execute, db.execute_records):
            with pytest.raises(SchemaError):
                run(plan)


class TestGeneratedPlansAgree:
    """Property: set mode == record mode over generated plan shapes."""

    @settings(max_examples=25, deadline=None)
    @given(
        dept=st.integers(min_value=0, max_value=5),
        attrs=st.sampled_from([("name",), ("dept", "salary"), ("name", "dname")]),
        join_first=st.booleans(),
    )
    def test_select_project_join_combinations(self, dept, attrs, join_first):
        database = Database()
        database.add("emp", employee_relation(25, 6, seed=dept))
        database.add("dept", department_relation(6, seed=dept))
        base = Join(Scan("emp"), Scan("dept"))
        if join_first:
            plan = Restrict(base, (Comparison("dept", "=", dept),))
        else:
            plan = Join(Restrict(Scan("emp"),
                    (Comparison("dept", "=", dept),)), Scan("dept"))
        wanted = [a for a in attrs if a in ("name", "dept", "salary", "dname")]
        plan = Project(plan, wanted)
        assert_modes_agree(database, plan)
