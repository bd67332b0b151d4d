"""Instrumented execution: same results, meaningful measurements."""

import pytest

from repro.relational.profile import execute_profiled
from repro.relational.query import (
    Database,
    Difference,
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
    database.add("emp", employee_relation(50, 5, seed=17))
    database.add("dept", department_relation(5, seed=17))
    return database


class TestAgreement:
    PLANS = [
        Scan("emp"),
        SelectEq(Scan("emp"), {"dept": 1}),
        SelectPred(Scan("emp"), lambda row: row["salary"] > 50000, "rich"),
        Project(Scan("emp"), ["dept"]),
        Rename(Scan("dept"), {"dname": "label"}),
        Join(Scan("emp"), Scan("dept")),
        Union(SelectEq(Scan("emp"), {"dept": 0}),
              SelectEq(Scan("emp"), {"dept": 1})),
        Difference(Scan("emp"), SelectEq(Scan("emp"), {"dept": 0})),
        Project(SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": 2}),
                ["name", "dname"]),
    ]

    @pytest.mark.parametrize("plan", PLANS, ids=lambda plan: plan.describe())
    def test_profiled_result_equals_plain_execution(self, db, plan):
        result, profile = execute_profiled(db, plan)
        assert result == db.execute(plan)
        assert profile.rows == result.cardinality()


class TestProfileTree:
    def test_tree_mirrors_the_plan(self, db):
        plan = Project(SelectEq(Scan("emp"), {"dept": 1}), ["name"])
        _, profile = execute_profiled(db, plan)
        assert profile.describe.startswith("Project")
        (select_profile,) = profile.children
        assert select_profile.describe.startswith("SelectEq")
        (scan_profile,) = select_profile.children
        assert scan_profile.describe == "Scan(emp)"
        assert scan_profile.children == []

    def test_cardinalities_shrink_through_selection(self, db):
        plan = SelectEq(Scan("emp"), {"dept": 1})
        _, profile = execute_profiled(db, plan)
        (scan_profile,) = profile.children
        assert profile.rows <= scan_profile.rows

    def test_inclusive_timing(self, db):
        plan = SelectEq(Scan("emp"), {"dept": 1})
        _, profile = execute_profiled(db, plan)
        (scan_profile,) = profile.children
        assert profile.seconds >= scan_profile.seconds >= 0

    def test_total_rows(self, db):
        plan = SelectEq(Scan("emp"), {"dept": 1})
        _, profile = execute_profiled(db, plan)
        assert profile.total_rows() == profile.rows + profile.children[0].rows

    def test_render(self, db):
        plan = Join(Scan("emp"), Scan("dept"))
        _, profile = execute_profiled(db, plan)
        text = profile.render()
        assert "Join" in text and "Scan(emp)" in text and "rows" in text
        assert text.splitlines()[1].startswith("  ")

    def test_unknown_node_rejected(self, db):
        class Strange:
            pass

        with pytest.raises(TypeError):
            execute_profiled(db, Strange())


class TestExclusiveSeconds:
    def test_subtracts_children(self):
        from repro.relational.profile import NodeProfile

        child = NodeProfile("Scan(emp)", 10, 0.3, [])
        parent = NodeProfile("SelectEq", 5, 1.0, [child])
        assert parent.exclusive_seconds() == pytest.approx(0.7)
        assert child.exclusive_seconds() == pytest.approx(0.3)

    def test_clamped_at_zero_on_clock_granularity(self):
        from repro.relational.profile import NodeProfile

        child = NodeProfile("Scan(emp)", 10, 1.0001, [])
        parent = NodeProfile("SelectEq", 5, 1.0, [child])
        assert parent.exclusive_seconds() == 0.0

    def test_exclusive_sums_back_to_inclusive_root(self, db):
        plan = Project(SelectEq(Scan("emp"), {"dept": 1}), ["name"])
        _, profile = execute_profiled(db, plan)

        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        total = sum(node.exclusive_seconds() for node in walk(profile))
        assert total <= profile.seconds + 1e-9


class TestSpanBacked:
    def test_execute_spanned_returns_the_span_tree(self, db):
        from repro.obs.trace import FakeClock, Tracer
        from repro.relational.profile import execute_spanned

        tracer = Tracer(clock=FakeClock())
        plan = SelectEq(Scan("emp"), {"dept": 1})
        result, root = execute_spanned(db, plan, tracer)
        assert result == db.execute(plan)
        assert root.name == plan.describe()
        assert root.attrs["rows"] == result.cardinality()
        (child,) = root.children
        assert child.name == "Scan(emp)"

    def test_profile_is_a_view_over_the_span(self, db):
        from repro.obs.trace import FakeClock, Tracer
        from repro.relational.profile import NodeProfile, execute_spanned

        tracer = Tracer(clock=FakeClock())
        plan = Join(Scan("emp"), Scan("dept"))
        _, root = execute_spanned(db, plan, tracer)
        profile = NodeProfile.from_span(root)
        assert profile.describe == root.name
        assert profile.rows == root.attrs["rows"]
        assert [child.describe for child in profile.children] == [
            child.name for child in root.children
        ]


class TestProfileCluster:
    def make_cluster(self):
        from repro.relational.distributed import Cluster

        cluster = Cluster(3, replication_factor=2)
        cluster.create_table(
            "emp", employee_relation(30, 5, seed=17), "dept"
        )
        return cluster

    def test_scan_profile_has_one_leaf_per_bucket(self):
        from repro.relational.profile import profile_cluster

        cluster = self.make_cluster()
        result, profile = profile_cluster(cluster, "execute", Scan("emp"))
        assert result.cardinality() == 30
        assert profile.describe == "execute(emp [*])"
        assert len(profile.children) == 3
        assert sum(child.rows for child in profile.children) == 30

    def test_fresh_cluster_profiles_to_empty_children(self):
        """Regression: a cluster that never ran a query must not raise."""
        from repro.relational.profile import profile_cluster

        cluster = self.make_cluster()
        assert cluster.last_query_span is None
        assert cluster.last_query_events == []

        def noop():
            from repro.relational.relation import Relation

            return Relation.from_dicts(["x"], [])

        result, profile = profile_cluster(cluster, noop)
        assert profile.children == []
        assert profile.describe == "cluster query"
        assert profile.rows == 0

    def test_cluster_like_object_without_trace_fields(self):
        """Duck-typed executors (no tracer at all) still profile."""
        from repro.relational.profile import profile_cluster
        from repro.relational.relation import Relation

        class Bare:
            def run(self):
                return Relation.from_dicts(["x"], [{"x": 1}])

        result, profile = profile_cluster(Bare(), "run")
        assert result.cardinality() == 1
        assert profile.children == []
        assert profile.rows == 1


class TestEstimateAnnotations:
    def test_spans_carry_no_estimates(self, db):
        """A production span measures; ``explain_analyze`` is the one
        estimate-vs-actual report."""
        from repro.relational.profile import execute_spanned

        plan = SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": 1})
        _, root = execute_spanned(db, plan)
        for span in root.tree():
            assert not {"est_rows", "q_error", "relation", "conditions"} & set(
                span.attrs
            )
        _, profile = execute_profiled(db, plan)
        assert "(est " not in profile.render()

    def test_explain_analyze_needs_no_collection_pass(self, db):
        from repro.relational.profile import explain_analyze

        plan = SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": 2})
        _, text = explain_analyze(db, plan)
        nodes = text.splitlines()[:-1]
        assert nodes and all("est_rows=" in line for line in nodes)
        # Scans and equalities over them are read off the value.
        exact = [line for line in nodes
                 if line.strip().startswith(("Scan", "SelectEq"))]
        assert exact and all(line.endswith("q=1.00") for line in exact)

    def test_explain_analyze_reads_the_committed_value(self):
        from repro.relational.constraints import Table
        from repro.relational.profile import explain_analyze
        from repro.relational.tx import TransactionManager

        manager = TransactionManager({"emp": Table(
            ["emp", "name", "dept", "salary"],
            employee_relation(30, 3, seed=17).iter_dicts(),
        )})
        plan = SelectEq(Scan("emp"), {"dept": 2})
        for round_ in range(3):
            manager.table("emp").insert_many([
                {"emp": 100 * (round_ + 1) + n, "name": "n", "dept": 2,
                 "salary": n}
                for n in range(10)
            ])
            _, text = explain_analyze(manager.committed(), plan)
            assert text.splitlines()[-1].startswith("q-error: max=1.00 ")


class TestColumnarExclusiveSeconds:
    """The columnar materialize step must not skew time attribution."""

    def columnar_db(self):
        database = Database()
        database.add("emp", employee_relation(50, 5, seed=17))
        database.add("dept", department_relation(5, seed=17))
        database.encode_columnar(["emp"])
        return database

    @staticmethod
    def walk(node):
        yield node
        for child in node.children:
            yield from TestColumnarExclusiveSeconds.walk(child)

    def test_materialize_heavy_child_cannot_go_negative(self):
        from repro.obs.trace import FakeClock, Tracer
        from repro.relational.profile import NodeProfile

        tracer = Tracer(clock=FakeClock())
        parent = tracer.start("Join")
        parent.set("rows", 5)
        child = tracer.start("materialize(columnar)")
        child.set("rows", 50)
        tracer.advance(0.5)   # the encode cost lands in the child...
        tracer.end(child)
        tracer.end(parent)    # ...and the parent closes immediately
        profile = NodeProfile.from_span(parent)
        assert profile.seconds == pytest.approx(0.5)
        assert profile.exclusive_seconds() == 0.0
        assert profile.children[0].exclusive_seconds() == pytest.approx(0.5)

    def test_mixed_backend_run_keeps_every_node_non_negative(self):
        from repro.relational.profile import NodeProfile, execute_spanned

        db = self.columnar_db()
        plan = Join(SelectEq(Scan("emp"), {"dept": 1}), Scan("dept"))
        _, root = execute_spanned(db, plan)
        backends = {span.attrs["backend"] for span in root.tree()}
        assert backends == {"columnar", "row"}  # genuinely mixed
        for node in self.walk(NodeProfile.from_span(root)):
            assert node.exclusive_seconds() >= 0.0

    def test_encode_cost_is_not_double_counted(self):
        from repro.relational.profile import NodeProfile, execute_spanned

        db = self.columnar_db()
        plan = Join(SelectEq(Scan("emp"), {"dept": 1}), Scan("dept"))
        _, root = execute_spanned(db, plan)
        profile = NodeProfile.from_span(root)
        total = sum(
            node.exclusive_seconds() for node in self.walk(profile)
        )
        assert total <= profile.seconds + 1e-9
