"""The planner feedback loop: estimates learn, answers never change."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.obs import instrument
from repro.obs.digest import (
    QueryDigest,
    add_digest_sink,
    remove_digest_sink,
)
from repro.obs.feedback import (
    QERROR_THRESHOLD,
    SEVERE_QERROR,
    SEVERE_STRIKES,
    FeedbackLoop,
)
from repro.relational.cost import CardinalityEstimator, qerror
from repro.relational.query import Database, Join, Scan, SelectEq
from repro.relational.relation import Relation
from repro.relational.stats import StatsCatalog, feedback_key
from repro.relational.tx import Table, TransactionManager
from repro.workloads.generators import (
    department_relation,
    employee_relation,
)


@pytest.fixture
def obs_on():
    previous = instrument.set_enabled(True)
    yield
    instrument.set_enabled(previous)


@pytest.fixture
def learning():
    """``learning(stats, **thresholds)``: a loop registered as a digest
    sink for the test's duration."""
    loops = []

    def register(stats, **kwargs):
        loop = FeedbackLoop(stats, **kwargs)
        add_digest_sink(loop.consume)
        loops.append(loop)
        return loop

    yield register
    for loop in loops:
        remove_digest_sink(loop.consume)


def emp_db(count=120, departments=6, seed=101):
    db = Database({
        "emp": employee_relation(count, departments, seed=seed),
        "dept": department_relation(departments, seed=seed),
    })
    db.analyze()
    return db


def digest_with(nodes, status="ok"):
    return QueryDigest("q", "cafe0001", nodes, "row", {}, 0.01, status=status)


def node(relation=None, conditions=None, q_error=None, actual=10,
         est=1.0):
    record = {"describe": "n", "depth": 0, "rows": actual}
    if relation is not None:
        record["relation"] = relation
    if conditions is not None:
        record["conditions"] = conditions
    if q_error is not None:
        record["q_error"] = q_error
        record["est_rows"] = est
        record["actual_rows"] = actual
    return record


class TestConsume:
    def test_misestimates_record_overlay_corrections(self):
        db = emp_db()
        loop = FeedbackLoop(db.stats)
        recorded = loop.consume(digest_with([
            node(relation="emp", conditions="dept=3", q_error=5.0,
                 actual=40),
        ]))
        assert recorded == 1
        assert db.stats.feedback_rows("emp", "dept=3") == 40
        assert loop.corrections == 1

    def test_scan_corrections_use_the_none_key(self):
        db = emp_db()
        FeedbackLoop(db.stats).consume(digest_with([
            node(relation="emp", q_error=3.0, actual=500),
        ]))
        assert db.stats.feedback_rows("emp", None) == 500

    def test_accurate_nodes_teach_nothing(self):
        db = emp_db()
        loop = FeedbackLoop(db.stats)
        assert loop.consume(digest_with([
            node(relation="emp", q_error=1.2, actual=120),
        ])) == 0
        assert db.stats.feedback_entries() == {}

    def test_nodes_without_a_relation_anchor_are_skipped(self):
        db = emp_db()
        assert FeedbackLoop(db.stats).consume(digest_with([
            node(q_error=50.0, actual=9),  # a Join: nowhere to anchor
        ])) == 0

    def test_failed_queries_still_teach(self):
        db = emp_db()
        assert FeedbackLoop(db.stats).consume(digest_with(
            [node(relation="emp", q_error=4.0, actual=77)],
            status="DEADLINE_EXCEEDED",
        )) == 1
        assert db.stats.feedback_rows("emp", None) == 77

    def test_ground_truth_is_never_mutated(self):
        db = emp_db()
        before = db.stats.get("emp").rows
        FeedbackLoop(db.stats).consume(digest_with([
            node(relation="emp", q_error=9.0, actual=9000),
        ]))
        assert db.stats.get("emp").rows == before

    def test_threshold_must_start_at_perfect(self):
        with pytest.raises(ValueError):
            FeedbackLoop(emp_db().stats, qerror_threshold=0.5)

    def test_negative_observations_are_rejected_by_the_catalog(self):
        with pytest.raises(SchemaError):
            emp_db().stats.record_feedback("emp", None, -1)


class TestSevereStrikes:
    def test_repeated_severe_misses_force_staleness(self):
        db = emp_db()
        loop = FeedbackLoop(db.stats)
        for _ in range(SEVERE_STRIKES):
            assert not db.stats.is_stale("emp")
            loop.consume(digest_with([
                node(relation="emp", q_error=SEVERE_QERROR, actual=5),
            ]))
        assert db.stats.is_stale("emp")
        assert loop.marked_stale == ["emp"]

    def test_moderate_misses_never_strike(self):
        db = emp_db()
        loop = FeedbackLoop(db.stats)
        for _ in range(SEVERE_STRIKES * 2):
            loop.consume(digest_with([
                node(relation="emp", q_error=QERROR_THRESHOLD, actual=5),
            ]))
        assert not db.stats.is_stale("emp")
        assert loop.stats()["strikes"] == {}

    def test_reanalyze_refreshes_and_clears_strikes(self):
        db = emp_db()
        loop = FeedbackLoop(db.stats)
        for _ in range(SEVERE_STRIKES):
            loop.consume(digest_with([
                node(relation="emp", q_error=SEVERE_QERROR, actual=5),
            ]))
        refreshed = loop.reanalyze_stale(db, seed=101)
        assert refreshed == ["emp"]
        assert not db.stats.is_stale("emp")
        # Fresh ANALYZE supersedes the overlay corrections too.
        assert db.stats.feedback_rows("emp", None) is None
        assert loop.stats()["strikes"] == {}


class TestOverlayBounds:
    def test_overlay_is_fifo_bounded(self):
        db = emp_db()
        db._stats = StatsCatalog(feedback_max=3)
        db.analyze()
        loop = FeedbackLoop(db.stats)
        for index in range(5):
            loop.consume(digest_with([
                node(relation="emp", conditions="dept=%d" % index,
                     q_error=4.0, actual=index),
            ]))
        entries = db.stats.feedback_entries()
        assert len(entries) == 3
        assert ("emp", "dept=0") not in entries
        assert entries[("emp", "dept=4")] == 4


class TestClosedLoop:
    """End to end: execute, misestimate, learn, estimate better."""

    def drifted_db(self):
        # ANALYZE a small snapshot, then triple the data behind the
        # catalog's back -- the classic stale-stats setup.
        db = Database({
            "emp": employee_relation(40, 4, seed=7),
            "dept": department_relation(4, seed=7),
        })
        db.analyze()
        db.add("emp", employee_relation(360, 4, seed=7))
        return db

    def test_qerror_shrinks_after_one_observed_run(self, obs_on, learning):
        db = self.drifted_db()
        plan = SelectEq(Scan("emp"), {"dept": 2})
        before_scan = CardinalityEstimator(db).estimate(Scan("emp"))
        before_select = CardinalityEstimator(db).estimate(plan)
        learning(db.stats, qerror_threshold=1.0)
        actual = len(db.execute(plan))
        assert qerror(before_select, actual) > 1.0  # honestly drifted

        # The overlay now carries the observed cardinalities...
        assert db.stats.feedback_rows(
            "emp", feedback_key({"dept": 2})
        ) == actual
        after_select = CardinalityEstimator(db).estimate(plan)
        assert qerror(after_select, actual) == 1.0
        assert qerror(after_select, actual) < qerror(before_select, actual)
        # ...including the drifted scan count.
        assert before_scan == 40.0
        assert CardinalityEstimator(db).estimate(Scan("emp")) == 360.0

    def test_the_loop_outlives_a_commit(self, obs_on, learning):
        manager = TransactionManager({
            "emp": Table(
                ["emp", "dept"],
                [{"emp": i, "dept": i % 4} for i in range(40)],
            ),
        })
        manager.committed().analyze()
        loop = learning(manager.stats, qerror_threshold=1.0)
        with manager.transaction():
            for i in range(80):
                manager.table("emp").insert({"emp": 40 + i, "dept": 1})
        after = manager.committed()  # a successor catalog value
        plan = SelectEq(Scan("emp"), {"dept": 1})
        actual = len(after.execute(plan))
        assert actual == 90
        assert manager.stats.feedback_rows(
            "emp", feedback_key({"dept": 1})
        ) == actual
        assert CardinalityEstimator(after).estimate(plan) == actual
        # The commit churned the entry stale; re-ANALYZE reads the rows
        # of the value committed *now*, not the one the loop began on.
        assert manager.stats.is_stale("emp")
        assert loop.reanalyze_stale(manager.committed()) == ["emp"]
        assert manager.stats.get("emp").rows == 120

    def test_an_unregistered_loop_stops_learning(self, obs_on):
        db = emp_db()
        loop = FeedbackLoop(db.stats, qerror_threshold=1.0)
        add_digest_sink(loop.consume)
        remove_digest_sink(loop.consume)
        db.execute(SelectEq(Scan("emp"), {"dept": 2}))
        assert loop.corrections == 0
        assert db.stats.feedback_entries() == {}


DEPTS = st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                 max_size=25)


@settings(max_examples=25, deadline=None)
@given(depts=DEPTS, probe=st.integers(min_value=0, max_value=4))
def test_feedback_never_changes_answers(depts, probe):
    """The differential property: feedback only steers *estimates*."""

    def build():
        rows = [
            {"emp": index, "dept": dept, "salary": 100 + dept}
            for index, dept in enumerate(depts)
        ]
        return Database({
            "emp": Relation.from_dicts(["emp", "dept", "salary"], rows),
            "dept": department_relation(5, seed=3),
        })

    plans = (
        SelectEq(Scan("emp"), {"dept": probe}),
        Join(SelectEq(Scan("emp"), {"dept": probe}), Scan("dept")),
    )

    plain = build()
    baseline = [plain.execute(plan) for plan in plans]

    observed = build()
    observed.analyze()
    loop = FeedbackLoop(observed.stats, qerror_threshold=1.0)
    previous = instrument.set_enabled(True)
    add_digest_sink(loop.consume)
    try:
        first = [observed.execute(plan) for plan in plans]
        # Second pass runs with the learned overlay active.
        second = [observed.execute(plan) for plan in plans]
    finally:
        remove_digest_sink(loop.consume)
        instrument.set_enabled(previous)

    assert first == baseline
    assert second == baseline
