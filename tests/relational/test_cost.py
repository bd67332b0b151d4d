"""Cost-based planning: estimation, join ordering, EXPLAIN ANALYZE."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlineExceededError
from repro.gov.governor import Deadline, governed
from repro.obs import instrument, metrics
from repro.relational import cost as cost_module
from repro.relational.algebra import Comparison
from repro.relational.cost import (
    DP_MAX_RELATIONS,
    CardinalityEstimator,
    qerror,
    reorder_joins,
)
from repro.relational.constraints import Table
from repro.relational.optimizer import optimize
from repro.relational.profile import explain_analyze
from repro.relational.query import (
    Aggregate,
    Database,
    Difference,
    Join,
    Limit,
    Project,
    Rename,
    Restrict,
    Scan,
    Union,
)
from repro.relational.relation import Relation
from repro.relational.sql import run as run_xql
from repro.relational.tx import TransactionManager
from repro.workloads.generators import department_relation, employee_relation


def assignment_relation(count, emps, regions, seed):
    """A third relation joining back to emp, for 3+-way orders."""
    import random

    rng = random.Random(seed)
    return Relation.from_dicts(
        ["assign", "emp", "region"],
        [
            {"assign": i, "emp": rng.randrange(emps),
             "region": rng.randrange(regions)}
            for i in range(count)
        ],
    )


def fresh_db():
    db = Database()
    db.add("emp", employee_relation(60, 8, seed=5))
    db.add("dept", department_relation(8, seed=5))
    db.add("assign", assignment_relation(120, 60, 4, seed=7))
    return db


@pytest.fixture(scope="module")
def db():
    return fresh_db()


class TestQError:
    def test_perfect_estimate_is_one(self):
        assert qerror(10, 10) == 1.0

    def test_symmetric(self):
        assert qerror(10, 40) == qerror(40, 10) == 4.0

    def test_floored_at_one_row(self):
        assert qerror(0, 0) == 1.0
        assert qerror(0.2, 1) == 1.0


class TestCardinalityEstimator:
    def test_scan_reads_catalog_rows(self, db):
        est = CardinalityEstimator(db)
        assert est.estimate(Scan("emp")) == 60.0
        assert est.estimate(Scan("dept")) == 8.0

    def test_an_equality_reads_the_values_run(self, db):
        est = CardinalityEstimator(db)
        for dept in range(8):
            plan = Restrict(Scan("emp"), (Comparison("dept", "=", dept),))
            assert est.estimate(plan) == db.execute(plan).cardinality()

    def test_distinct_is_the_size_of_the_sigma_domain(self, db):
        est = CardinalityEstimator(db)
        emp = db.relation("emp")
        for attr in emp.heading.names:
            domain = {row[attr] for row in emp.iter_dicts()}
            assert est.distinct(Scan("emp"), attr) == len(domain)

    def test_computed_columns_fall_back_to_the_constant(self, db):
        grouped = Aggregate(Scan("emp"), ["emp"], {"n": ("count", "dept")})
        est = CardinalityEstimator(db)
        assert est.estimate(grouped) == 60.0
        assert est.distinct(grouped, "n") is None
        assert est.estimate(Restrict(grouped,
                (Comparison("n", "=", 1),))) == pytest.approx(
            60 * cost_module._FALLBACK_EQ_SELECTIVITY
        ) == est.estimate(Restrict(grouped, (Comparison("n", "=", 1000),)))

    def test_join_estimate_matches_fk_join(self, db):
        est = CardinalityEstimator(db)
        plan = Join(Scan("emp"), Scan("dept"))
        actual = db.execute(plan).cardinality()
        assert qerror(est.estimate(plan), actual) <= 1.5

    def test_cartesian_join_multiplies(self, db):
        plan = Join(Scan("dept"), Rename(Scan("dept"),
                                         {"dept": "d2", "dname": "n2",
                                          "budget": "b2"}))
        est = CardinalityEstimator(db)
        assert est.estimate(plan) == 64.0

    def test_pinned_attribute_collapses_join_distinct(self, db):
        # An equality below the join fixes dept to one value, so the join
        # must not divide by the full distinct count.
        est = CardinalityEstimator(db)
        plan = Join(Restrict(Scan("emp"),
                             (Comparison("dept", "=", 3),)), Scan("dept"))
        actual = db.execute(plan).cardinality()
        assert qerror(est.estimate(plan), actual) <= 1.5

    def test_rename_translates_attribute_stats(self, db):
        est = CardinalityEstimator(db)
        renamed = Rename(Scan("emp"), {"dept": "division"})
        plain = est.estimate(Restrict(Scan("emp"),
                                      (Comparison("dept", "=", 3),)))
        translated = est.estimate(Restrict(renamed,
                                           (Comparison("division", "=", 3),)))
        assert translated == plain

    def test_estimates_follow_every_commit(self):
        """A value cannot drift from itself: after commits the
        estimates are those of the committed relation."""
        manager = TransactionManager({
            "emp": Table(["emp", "name", "dept", "salary"],
                         employee_relation(40, 5, seed=3).iter_dicts()),
        })
        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 1),))
        for round_ in range(3):
            db = manager.committed()
            est = CardinalityEstimator(db)
            assert est.estimate(Scan("emp")) == len(db.relation("emp"))
            assert est.estimate(plan) == db.execute(plan).cardinality()
            manager.table("emp").insert_many([
                {"emp": 1000 + 100 * round_ + n, "name": "new",
                 "dept": 1, "salary": n}
                for n in range(30)
            ])

    def test_analyze_on_a_pinned_value_leaves_later_estimates_alone(self):
        manager = TransactionManager({
            "emp": Table(["emp", "name", "dept", "salary"],
                         employee_relation(40, 5, seed=3).iter_dicts()),
        })
        old = manager.committed()
        manager.table("emp").insert_many([
            {"emp": 1000 + n, "name": "new", "dept": 1 if n < 92 else 2,
             "salary": n}
            for n in range(400)
        ])
        assert run_xql(old, "ANALYZE emp").to_rows() == [("emp", 40, 4)]
        now = manager.committed()
        est = CardinalityEstimator(now)
        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 1),))
        assert est.estimate(Scan("emp")) == 440.0
        assert est.estimate(plan) == now.execute(plan).cardinality()

    def test_cost_prefers_smaller_build_side(self, db):
        est = CardinalityEstimator(db)
        good = Join(Scan("emp"), Scan("dept"))   # small side builds
        bad = Join(Scan("dept"), Scan("emp"))
        assert est.cost(good) < est.cost(bad)

    def test_estimates_are_deterministic_across_catalog_rebuilds(self):
        plans = [
            Join(Scan("emp"), Scan("dept")),
            Restrict(Join(Scan("assign"), Scan("emp")),
                     (Comparison("region", "=", 2),)),
            Union(Scan("emp"), Scan("emp")),
        ]
        first = [CardinalityEstimator(fresh_db()).estimate(p) for p in plans]
        second = [CardinalityEstimator(fresh_db()).estimate(p) for p in plans]
        assert first == second


def managed_emp(count=40, depts=5, seed=3):
    return TransactionManager({
        "emp": Table(["emp", "name", "dept", "salary"],
                     employee_relation(count, depts, seed=seed).iter_dicts()),
    })


class TestReadOffTheValue:
    """Each number the estimator gives is a count over the value."""

    def test_a_distinct_count_never_exceeds_the_rows(self):
        db = Database({"emp": employee_relation(100, 5, seed=1)})
        est = CardinalityEstimator(db)
        assert est.distinct(Scan("emp"), "name") == 100.0
        for attr in db.relation("emp").heading.names:
            assert est.distinct(Scan("emp"), attr) <= 100.0

    def test_a_large_domain_is_counted_exactly(self):
        relation = employee_relation(600, 12, seed=4)
        est = CardinalityEstimator(Database({"emp": relation}))
        for attr in ("emp", "name", "salary", "dept"):
            domain = {row[attr] for row in relation.iter_dicts()}
            assert est.distinct(Scan("emp"), attr) == len(domain)

    def test_the_most_frequent_value_reads_its_whole_run(self, db):
        emp = db.relation("emp")
        counts = {}
        for row in emp.iter_dicts():
            counts[row["dept"]] = counts.get(row["dept"], 0) + 1
        top = max(counts, key=lambda dept: (counts[dept], -dept))
        est = CardinalityEstimator(db)
        assert est.estimate(Restrict(Scan("emp"),
                                     (Comparison("dept", "=", top),))) == \
            counts[top]

    def test_none_reads_the_run_of_none(self):
        relation = Relation.from_dicts(
            ["k", "v"], [{"k": k, "v": None if k % 3 else k} for k in range(9)]
        )
        db = Database({"t": relation})
        est = CardinalityEstimator(db)
        plan = Restrict(Scan("t"), (Comparison("v", "=", None),))
        assert est.estimate(plan) == 6.0 == db.execute(plan).cardinality()
        assert est.distinct(Scan("t"), "v") == 4.0

    def test_an_absent_value_keeps_one_row(self, db):
        # Never zero: a zero would make every plan above it free.
        est = CardinalityEstimator(db)
        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 99),))
        assert db.execute(plan).cardinality() == 0
        assert est.estimate(plan) == 1.0

    def test_an_empty_relation_estimates_no_rows(self):
        db = Database({"t": Relation.from_dicts(["a", "b"], [])})
        est = CardinalityEstimator(db)
        assert est.estimate(Scan("t")) == 0.0
        assert est.estimate(Restrict(Scan("t"),
                                     (Comparison("a", "=", 1),))) == 0.0
        assert est.distinct(Scan("t"), "a") is None

    def test_typed_twins_share_one_run(self):
        relation = Relation.from_dicts(
            ["k", "v"],
            [{"k": 0, "v": 1}, {"k": 1, "v": 1.0}, {"k": 2, "v": True},
             {"k": 3, "v": 2}],
        )
        db = Database({"t": relation})
        est = CardinalityEstimator(db)
        assert est.distinct(Scan("t"), "v") == 2.0
        for twin in (1, 1.0, True):
            plan = Restrict(Scan("t"), (Comparison("v", "=", twin),))
            assert est.estimate(plan) == 3.0
            assert est.estimate(plan) >= db.execute(plan).cardinality()

    def test_two_conditions_multiply_as_independent(self, db):
        est = CardinalityEstimator(db)
        emp = db.relation("emp")
        row = next(iter(emp.iter_dicts()))
        dept = Comparison("dept", "=", row["dept"])
        salary = Comparison("salary", "=", row["salary"])
        one = est.estimate(Restrict(Scan("emp"), (dept,)))
        other = est.estimate(Restrict(Scan("emp"), (salary,)))
        both = est.estimate(Restrict(Scan("emp"), (dept, salary)))
        assert both == pytest.approx(max(1.0, one * other / len(emp)))

    def test_an_equality_pins_the_distinct_count_to_one(self, db):
        est = CardinalityEstimator(db)
        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 3),))
        assert est.distinct(plan, "dept") == 1.0
        assert est.distinct(Join(plan, Scan("dept")), "dept") == 1.0

    def test_a_distinct_count_is_capped_by_the_node_rows(self, db):
        est = CardinalityEstimator(db)
        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 3),))
        assert est.distinct(Scan("emp"), "emp") == 60.0
        assert est.distinct(plan, "emp") == est.estimate(plan) < 60.0

    def test_a_group_count_is_the_size_of_the_sigma_domain(self, db):
        est = CardinalityEstimator(db)
        for attrs in (["dept"], ["emp"]):
            plan = Aggregate(Scan("emp"), attrs, {"n": ("count", "name")})
            assert est.estimate(plan) == db.execute(plan).cardinality()
        whole = Aggregate(Scan("emp"), [], {"n": ("count", "name")})
        assert est.estimate(whole) == 1.0

    def test_groups_never_outnumber_their_input(self, db):
        est = CardinalityEstimator(db)
        plan = Aggregate(Scan("emp"), ["dept", "salary"],
                         {"n": ("count", "name")})
        assert est.estimate(plan) <= est.estimate(Scan("emp"))

    def test_a_limit_caps_its_input(self, db):
        est = CardinalityEstimator(db)
        assert est.estimate(Limit(Scan("emp"), 7)) == 7.0
        assert est.estimate(Limit(Scan("emp"), 700)) == 60.0

    def test_set_operators_combine_their_inputs(self, db):
        est = CardinalityEstimator(db)
        assert est.estimate(Union(Scan("emp"), Scan("emp"))) == 120.0
        assert est.estimate(Difference(Scan("emp"), Scan("emp"))) == 60.0

    def test_a_comparison_keeps_one_row_in_three(self, db):
        est = CardinalityEstimator(db)
        plan = Restrict(Scan("emp"), (Comparison("salary", ">=", 0),))
        assert est.estimate(plan) == pytest.approx(
            60 * cost_module._FALLBACK_PRED_SELECTIVITY
        )

    def test_the_member_index_is_filled_once(self, db):
        emp = db.relation("emp")
        first = cost_module.member_index(emp, "dept")
        assert cost_module.member_index(emp, "dept") is first
        assert sorted(first) == sorted({row["dept"]
                                        for row in emp.iter_dicts()})

    def test_an_index_filled_once_is_carried_by_commits(self):
        manager = managed_emp()
        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 1),))
        CardinalityEstimator(manager.committed()).estimate(plan)
        manager.table("emp").insert(
            {"emp": 1000, "name": "new", "dept": 1, "salary": 0}
        )
        emp = manager.committed().relation("emp")
        assert "dept" in (emp.rows._by_part or {})
        fresh = Relation.from_dicts(emp.heading.names, emp.iter_dicts())
        assert {value: len(run) for value, run in
                cost_module.member_index(emp, "dept").items()} == \
            {value: len(run) for value, run in
             cost_module.member_index(fresh, "dept").items()}

    def test_a_rolled_back_transaction_leaves_the_estimates_alone(self):
        manager = managed_emp()
        before = manager.committed()
        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 1),))
        expected = CardinalityEstimator(before).estimate(plan)
        with pytest.raises(RuntimeError):
            with manager.transaction():
                manager.table("emp").insert_many([
                    {"emp": 1000 + n, "name": "x", "dept": 1, "salary": n}
                    for n in range(20)
                ])
                raise RuntimeError("abandon")
        assert manager.committed() is before
        assert CardinalityEstimator(manager.committed()).estimate(plan) == \
            expected

    def test_a_delete_shrinks_the_run(self):
        manager = managed_emp()
        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 1),))
        before = CardinalityEstimator(manager.committed()).estimate(plan)
        victim = next(row for row in manager.committed().relation("emp")
                      .iter_dicts() if row["dept"] == 1)
        manager.table("emp").delete({"emp": victim["emp"]})
        now = manager.committed()
        est = CardinalityEstimator(now)
        assert est.estimate(plan) == before - 1
        assert est.estimate(plan) == now.execute(plan).cardinality()
        assert est.estimate(Scan("emp")) == 39.0

    def test_an_update_moves_a_row_between_runs(self):
        manager = managed_emp()
        row = next(iter(manager.committed().relation("emp").iter_dicts()))
        old_dept, new_dept = row["dept"], (row["dept"] + 1) % 5
        db = manager.committed()
        est = CardinalityEstimator(db)
        old_rows = est.estimate(Restrict(Scan("emp"),
                                         (Comparison("dept", "=", old_dept),)))
        new_rows = est.estimate(Restrict(Scan("emp"),
                                         (Comparison("dept", "=", new_dept),)))
        manager.table("emp").update({"emp": row["emp"]}, {"dept": new_dept})
        est = CardinalityEstimator(manager.committed())
        assert est.estimate(Restrict(Scan("emp"),
                (Comparison("dept", "=", old_dept),))) == \
            max(1.0, old_rows - 1)
        assert est.estimate(Restrict(Scan("emp"),
                (Comparison("dept", "=", new_dept),))) == \
            new_rows + 1


class TestShardRows:
    """``estimate_shard_rows`` sizes a shard pipeline as the local
    planner sizes the same filters."""

    def test_no_filter_ships_the_relation(self, db):
        emp = db.relation("emp")
        assert cost_module.estimate_shard_rows(emp, {}, 0) == len(emp)

    def test_an_equality_ships_its_run(self, db):
        emp = db.relation("emp")
        local = CardinalityEstimator(db)
        for dept in range(8):
            assert cost_module.estimate_shard_rows(emp, {"dept": dept}, 0) \
                == local.estimate(Restrict(Scan("emp"),
                                           (Comparison("dept", "=", dept),)))

    def test_equalities_multiply_as_the_local_planner_does(self, db):
        emp = db.relation("emp")
        row = next(iter(emp.iter_dicts()))
        conditions = {"dept": row["dept"], "salary": row["salary"]}
        local = CardinalityEstimator(db)
        assert cost_module.estimate_shard_rows(emp, conditions, 0) == \
            local.estimate(Restrict(Scan("emp"), [
                Comparison(attr, "=", value)
                for attr, value in conditions.items()
            ]))

    def test_each_predicate_keeps_a_third(self, db):
        emp = db.relation("emp")
        assert cost_module.estimate_shard_rows(emp, {}, 2) == pytest.approx(
            len(emp) * cost_module._FALLBACK_PRED_SELECTIVITY ** 2
        )

    def test_an_empty_shard_still_ships_one_row(self):
        empty = Relation.from_dicts(["a"], [])
        assert cost_module.estimate_shard_rows(empty, {"a": 1}, 0) == 1.0


class TestJoinReordering:
    def test_three_way_join_result_preserved(self, db):
        plan = Join(Join(Scan("dept"), Scan("emp")), Scan("assign"))
        ordered = reorder_joins(plan, db)
        assert db.execute(ordered) == db.execute(plan)

    def test_reorder_lowers_estimated_cost(self, db):
        est = CardinalityEstimator(db)
        # Deliberately bad order: big relations first, tiny dept last.
        plan = Join(Join(Scan("assign"), Scan("emp")), Scan("dept"))
        ordered = reorder_joins(plan, db, est)
        assert est.cost(ordered) <= est.cost(plan)

    def test_selections_stay_inside_reordered_region(self, db):
        plan = Join(
            Join(Scan("dept"), Restrict(Scan("emp"),
                                        (Comparison("dept", "=", 3),))),
            Restrict(Scan("assign"), (Comparison("region", "=", 1),)),
        )
        ordered = reorder_joins(plan, db)
        text = ordered.explain()
        assert "Restrict(dept = 3)" in text and "Restrict(region = 1)" in text
        assert db.execute(ordered) == db.execute(plan)

    def test_connected_order_avoids_cartesian_products(self, db):
        # dept joins emp joins assign; dept x assign share nothing.
        plan = Join(Join(Scan("dept"), Scan("assign")), Scan("emp"))
        ordered = reorder_joins(plan, db)
        est = CardinalityEstimator(db)

        def no_cartesian(node):
            if isinstance(node, Join):
                shared = db.heading_of(node.left).common(
                    db.heading_of(node.right)
                )
                return bool(shared) and all(
                    no_cartesian(child) for child in node.children()
                )
            return True

        assert no_cartesian(ordered)
        assert db.execute(ordered) == db.execute(plan)

    def test_many_relations_fall_back_to_greedy(self, db):
        copies = [
            Rename(Scan("dept"), {"dept": "dept", "dname": "n%d" % i,
                                  "budget": "b%d" % i})
            for i in range(DP_MAX_RELATIONS + 2)
        ]
        plan = copies[0]
        for copy in copies[1:]:
            plan = Join(plan, copy)
        ordered = reorder_joins(plan, db)
        assert db.execute(ordered) == db.execute(plan)

    def test_step_budget_degrades_to_greedy(self, db, monkeypatch):
        monkeypatch.setattr(cost_module, "DP_STEP_BUDGET", 2)
        plan = Join(Join(Scan("dept"), Scan("emp")), Scan("assign"))
        ordered = reorder_joins(plan, db)
        assert db.execute(ordered) == db.execute(plan)

    def test_governor_deadline_cancels_enumeration(self, db):
        deadline = Deadline.simulated(1.0)
        deadline.charge(2.0)  # already expired: first checkpoint trips
        plan = Join(Join(Scan("dept"), Scan("emp")), Scan("assign"))
        with governed(deadline=deadline):
            with pytest.raises(DeadlineExceededError):
                reorder_joins(plan, db)

    def test_search_strategy_metric_recorded(self, db):
        previous = instrument.set_enabled(True)
        registry = metrics.registry()
        try:
            registry.reset()
            reorder_joins(
                Join(Join(Scan("dept"), Scan("emp")), Scan("assign")), db
            )
            counter = registry.counter(
                "repro_opt_join_search_total",
                "Join-order searches by strategy.", ("strategy",),
            )
            assert counter.value(strategy="dp") == 1
        finally:
            instrument.set_enabled(previous)
            registry.reset()


class TestOptimizeIntegration:
    def test_hand_built_and_committed_values_plan_alike(self):
        plans = [
            lambda: Restrict(Join(Scan("emp"), Scan("dept")),
                             (Comparison("dept", "=", 2),)),
            lambda: Join(Join(Scan("assign"), Scan("emp")), Scan("dept")),
            lambda: Project(
                Restrict(Join(Scan("dept"), Scan("emp")),
                         (Comparison("salary", "=", 1),)),
                ["name"],
            ),
        ]
        bare = fresh_db()
        committed = TransactionManager({
            name: Table(bare.relation(name).heading.names,
                        bare.relation(name).iter_dicts())
            for name in bare.names()
        }).committed()
        for make_plan in plans:
            assert (
                optimize(make_plan(), bare).explain()
                == optimize(make_plan(), committed).explain()
            )

    def test_optimize_with_stats_reorders_join_cluster(self, db):
        plan = Join(Join(Scan("assign"), Scan("emp")), Scan("dept"))
        optimized = optimize(plan, db)
        est = CardinalityEstimator(db)
        assert est.cost(optimized) <= est.cost(plan)
        assert db.execute(optimized) == db.execute(plan)

    def test_plan_metric_counts_join_ordered_plans(self):
        previous = instrument.set_enabled(True)
        registry = metrics.registry()
        try:
            registry.reset()
            optimize(Join(Scan("emp"), Scan("dept")), fresh_db())
            optimize(Restrict(Scan("emp"),
                              (Comparison("dept", "=", 1),)), fresh_db())
            counter = registry.counter(
                "repro_opt_plans_total", "Join-ordered plans.",
            )
            assert counter.value() == 1
        finally:
            instrument.set_enabled(previous)
            registry.reset()


class TestExplainAnalyze:
    def test_renders_estimates_actuals_and_summary(self, db):
        plan = Restrict(Join(Scan("emp"), Scan("dept")),
                        (Comparison("dept", "=", 3),))
        result, text = explain_analyze(db, plan)
        assert result == db.execute(plan)
        lines = text.splitlines()
        assert all(
            "est_rows=" in line and "actual_rows=" in line and "q=" in line
            for line in lines[:-1]
        )
        assert lines[-1].startswith("q-error: max=")
        assert lines[-1].endswith(" over %d nodes" % (len(lines) - 1))
        # Each side's equality over its Scan is read off the value.
        pushed = [line for line in lines if "Restrict" in line]
        assert pushed and all(line.endswith("q=1.00") for line in pushed)

    def test_unoptimized_mode_keeps_plan_shape(self, db):
        plan = Restrict(Join(Scan("emp"), Scan("dept")),
                        (Comparison("dept", "=", 3),))
        _, text = explain_analyze(db, plan, optimized=False)
        assert text.splitlines()[0].startswith("Restrict")


class TestPlanAgreementProperties:
    """The ISSUE's three Hypothesis properties."""

    @settings(max_examples=25, deadline=None)
    @given(
        emp_seed=st.integers(min_value=0, max_value=50),
        dept_value=st.integers(min_value=0, max_value=7),
        region=st.integers(min_value=0, max_value=3),
        shape=st.integers(min_value=0, max_value=3),
    )
    def test_cost_and_heuristic_plans_agree(
        self, emp_seed, dept_value, region, shape
    ):
        db = Database()
        db.add("emp", employee_relation(40, 8, seed=emp_seed))
        db.add("dept", department_relation(8, seed=emp_seed))
        db.add("assign", assignment_relation(80, 40, 4, seed=emp_seed))
        plans = [
            Restrict(Join(Scan("emp"), Scan("dept")),
                     (Comparison("dept", "=", dept_value),)),
            Join(Join(Scan("assign"), Scan("emp")), Scan("dept")),
            Restrict(Join(Join(Scan("dept"), Scan("assign")), Scan("emp")),
                     (Comparison("region", "=", region),)),
            Project(
                Restrict(Join(Scan("emp"), Scan("assign")),
                         (Comparison("dept", "=", dept_value),)),
                ["name", "region"],
            ),
        ]
        plan = plans[shape]
        optimized = optimize(plan, db)
        assert db.execute(optimized) == db.execute(plan)
        assert optimize(plan, db).explain() == optimized.explain()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_estimates_deterministic_for_fixed_seed(self, seed):
        plan = Restrict(Join(Scan("emp"), Scan("dept")),
                        (Comparison("dept", "=", 1),))

        def estimate_once():
            db = Database()
            db.add("emp", employee_relation(80, 8, seed=seed))
            db.add("dept", department_relation(8, seed=seed))
            est = CardinalityEstimator(db)
            return est.estimate(plan), est.cost(plan)

        assert estimate_once() == estimate_once()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100),
        dept_value=st.integers(min_value=0, max_value=7),
    )
    def test_qerror_bounded_with_fresh_stats(self, seed, dept_value):
        # Read off the value, an equality over a Scan is exact and
        # foreign-key joins on the generator suites stay within a
        # small constant factor of the truth.
        db = Database()
        db.add("emp", employee_relation(60, 8, seed=seed, skew=1.2))
        db.add("dept", department_relation(8, seed=seed))
        est = CardinalityEstimator(db)
        select = Restrict(Scan("emp"), (Comparison("dept", "=", dept_value),))
        actual = db.execute(select).cardinality()
        assert qerror(est.estimate(select), actual) == 1.0
        for plan in (
            Join(Scan("emp"), Scan("dept")),
            Join(Restrict(Scan("emp"),
                    (Comparison("dept", "=", dept_value),)), Scan("dept")),
        ):
            actual = db.execute(plan).cardinality()
            assert qerror(est.estimate(plan), actual) <= 2.0
