"""Cost-based planning: estimation, join ordering, EXPLAIN ANALYZE."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlineExceededError
from repro.gov.governor import Deadline, governed
from repro.obs import instrument, metrics
from repro.relational import cost as cost_module
from repro.relational.cost import (
    DP_MAX_RELATIONS,
    CardinalityEstimator,
    qerror,
    reorder_joins,
)
from repro.relational.optimizer import optimize
from repro.relational.profile import explain_analyze
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
from repro.relational.relation import Relation
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


def fresh_db(analyzed=True):
    db = Database()
    db.add("emp", employee_relation(60, 8, seed=5))
    db.add("dept", department_relation(8, seed=5))
    db.add("assign", assignment_relation(120, 60, 4, seed=7))
    if analyzed:
        db.analyze()
    return db


#: Every state a statistics catalog can be in when a plan is optimized:
#: one planner serves them all, so the oracles draw the state as input.
CATALOG_STATES = (
    "never analyzed",
    "analyzed",
    "one table analyzed",
    "churned stale",
    "feedback overlay",
)


def set_catalog_state(db, state):
    """Put ``db``'s (so far untouched) statistics catalog in ``state``."""
    names = db.names()
    if state == "never analyzed":
        return
    db.analyze(names[:1] if state == "one table analyzed" else names)
    if state == "churned stale":
        for name in names:
            db.stats.record_mutations(name, 10 ** 6)
        assert db.stats.stale_names() == names
    elif state == "feedback overlay":
        # An observed scan count far off the analyzed one.
        db.stats.record_feedback(names[-1], None, 5000)


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

    def test_select_eq_uses_measured_frequency(self, db):
        est = CardinalityEstimator(db)
        actual = db.execute(SelectEq(Scan("emp"), {"dept": 3})).cardinality()
        estimated = est.estimate(SelectEq(Scan("emp"), {"dept": 3}))
        assert qerror(estimated, actual) <= 1.5

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
        # SelectEq below the join fixes dept to one value, so the join
        # must not divide by the full distinct count.
        est = CardinalityEstimator(db)
        plan = Join(SelectEq(Scan("emp"), {"dept": 3}), Scan("dept"))
        actual = db.execute(plan).cardinality()
        assert qerror(est.estimate(plan), actual) <= 1.5

    def test_rename_translates_attribute_stats(self, db):
        est = CardinalityEstimator(db)
        renamed = Rename(Scan("emp"), {"dept": "division"})
        plain = est.estimate(SelectEq(Scan("emp"), {"dept": 3}))
        translated = est.estimate(SelectEq(renamed, {"division": 3}))
        assert translated == plain

    def test_has_stats_false_without_catalog_entries(self):
        db = fresh_db(analyzed=False)
        est = CardinalityEstimator(db)
        assert not est.has_stats(Join(Scan("emp"), Scan("dept")))

    def test_stale_entry_drops_back_to_heuristics(self, ):
        db = fresh_db()
        plan = SelectEq(Scan("emp"), {"dept": 3})
        with_stats = CardinalityEstimator(db).estimate(plan)
        db.stats.record_mutations("emp", 10_000)
        without = CardinalityEstimator(db).estimate(plan)
        assert CardinalityEstimator(db).has_stats(Scan("emp")) is False
        assert without == pytest.approx(60 * 0.1)
        assert without != with_stats

    def test_cost_prefers_smaller_build_side(self, db):
        est = CardinalityEstimator(db)
        good = Join(Scan("emp"), Scan("dept"))   # small side builds
        bad = Join(Scan("dept"), Scan("emp"))
        assert est.cost(good) < est.cost(bad)

    def test_estimates_are_deterministic_across_catalog_rebuilds(self):
        plans = [
            Join(Scan("emp"), Scan("dept")),
            SelectEq(Join(Scan("assign"), Scan("emp")), {"region": 2}),
            Union(Scan("emp"), Scan("emp")),
        ]
        first = [CardinalityEstimator(fresh_db()).estimate(p) for p in plans]
        second = [CardinalityEstimator(fresh_db()).estimate(p) for p in plans]
        assert first == second


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
            Join(Scan("dept"), SelectEq(Scan("emp"), {"dept": 3})),
            SelectEq(Scan("assign"), {"region": 1}),
        )
        ordered = reorder_joins(plan, db)
        text = ordered.explain()
        assert "dept=3" in text and "region=1" in text
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
    def test_untouched_and_touched_but_empty_catalogs_plan_alike(self):
        plans = [
            lambda: SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": 2}),
            lambda: Join(Join(Scan("assign"), Scan("emp")), Scan("dept")),
            lambda: Project(
                SelectEq(Join(Scan("dept"), Scan("emp")), {"salary": 1}),
                ["name"],
            ),
        ]
        bare = fresh_db(analyzed=False)
        touched = fresh_db(analyzed=False)
        _ = touched.stats  # empty catalog exists but holds nothing
        for make_plan in plans:
            assert (
                optimize(make_plan(), bare).explain()
                == optimize(make_plan(), touched).explain()
            )

    def test_optimize_with_stats_reorders_join_cluster(self, db):
        plan = Join(Join(Scan("assign"), Scan("emp")), Scan("dept"))
        optimized = optimize(plan, db)
        est = CardinalityEstimator(db)
        assert est.cost(optimized) <= est.cost(plan)
        assert db.execute(optimized) == db.execute(plan)

    def test_plan_mode_metric_distinguishes_heuristic_and_cost(self):
        previous = instrument.set_enabled(True)
        registry = metrics.registry()
        try:
            registry.reset()
            plan = Join(Scan("emp"), Scan("dept"))
            optimize(plan, fresh_db(analyzed=False))
            optimize(plan, fresh_db())
            counter = registry.counter(
                "repro_opt_plans_total",
                "Optimized plans by planning mode.", ("mode",),
            )
            assert counter.value(mode="heuristic") == 1
            assert counter.value(mode="cost") == 1
        finally:
            instrument.set_enabled(previous)
            registry.reset()


class TestExplainAnalyze:
    def test_renders_estimates_actuals_and_summary(self, db):
        plan = SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": 3})
        result, text = explain_analyze(db, plan)
        assert result == db.execute(plan)
        lines = text.splitlines()
        assert all(
            "est_rows=" in line and "actual_rows=" in line and "q=" in line
            for line in lines[:-1]
        )
        assert lines[-1].startswith("q-error: max=")
        assert lines[-1].endswith("(stats)")

    def test_no_stats_run_reports_heuristic_fallback(self):
        db = fresh_db(analyzed=False)
        plan = Join(Scan("emp"), Scan("dept"))
        _, text = explain_analyze(db, plan)
        assert text.splitlines()[-1].endswith("(heuristic fallback)")

    def test_unoptimized_mode_keeps_plan_shape(self, db):
        plan = SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": 3})
        _, text = explain_analyze(db, plan, optimized=False)
        assert text.splitlines()[0].startswith("SelectEq")


class TestPlanAgreementProperties:
    """The ISSUE's three Hypothesis properties."""

    @settings(max_examples=25, deadline=None)
    @given(
        emp_seed=st.integers(min_value=0, max_value=50),
        dept_value=st.integers(min_value=0, max_value=7),
        region=st.integers(min_value=0, max_value=3),
        shape=st.integers(min_value=0, max_value=3),
        state=st.sampled_from(CATALOG_STATES),
    )
    def test_cost_and_heuristic_plans_agree(
        self, emp_seed, dept_value, region, shape, state
    ):
        db = Database()
        db.add("emp", employee_relation(40, 8, seed=emp_seed))
        db.add("dept", department_relation(8, seed=emp_seed))
        db.add("assign", assignment_relation(80, 40, 4, seed=emp_seed))
        set_catalog_state(db, state)
        plans = [
            SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": dept_value}),
            Join(Join(Scan("assign"), Scan("emp")), Scan("dept")),
            SelectEq(
                Join(Join(Scan("dept"), Scan("assign")), Scan("emp")),
                {"region": region},
            ),
            Project(
                SelectEq(Join(Scan("emp"), Scan("assign")),
                         {"dept": dept_value}),
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
        plan = SelectEq(Join(Scan("emp"), Scan("dept")), {"dept": 1})

        def estimate_once():
            db = Database()
            db.add("emp", employee_relation(80, 8, seed=seed))
            db.add("dept", department_relation(8, seed=seed))
            db.analyze(sample_rows=30, seed=seed)
            est = CardinalityEstimator(db)
            return est.estimate(plan), est.cost(plan)

        assert estimate_once() == estimate_once()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100),
        dept_value=st.integers(min_value=0, max_value=7),
    )
    def test_qerror_bounded_with_fresh_stats(self, seed, dept_value):
        # With a full (unsampled) ANALYZE, estimates for equality
        # selections and foreign-key joins on the generator suites
        # stay within a small constant factor of the truth.
        db = Database()
        db.add("emp", employee_relation(60, 8, seed=seed, skew=1.2))
        db.add("dept", department_relation(8, seed=seed))
        db.analyze()
        est = CardinalityEstimator(db)
        for plan in (
            SelectEq(Scan("emp"), {"dept": dept_value}),
            Join(Scan("emp"), Scan("dept")),
            Join(SelectEq(Scan("emp"), {"dept": dept_value}), Scan("dept")),
        ):
            actual = db.execute(plan).cardinality()
            assert qerror(est.estimate(plan), actual) <= 2.0
