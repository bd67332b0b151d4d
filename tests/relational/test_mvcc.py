"""MVCC snapshot isolation: stable reads, first-committer-wins, horizon.

The acceptance property, pinned three ways:

* unit tests for the snapshot/session API surface;
* a savepoint-interaction group (a reader opened before a nested
  rollback never observes the rolled-back rows);
* a Hypothesis stateful machine interleaving snapshot opens/closes,
  session writes, commits and conflicts, checking after every step
  that (a) every open snapshot still reads exactly the rows it read
  at open time, (b) conflicting commits raise
  :class:`~repro.errors.WriteConflictError` and change nothing, and
  (c) the retained-version horizon stays bounded by the number of
  open snapshots plus one.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import SchemaError, WriteConflictError
from repro.relational.algebra import Comparison
from repro.relational.constraints import KeyConstraint, Table
from repro.relational.tx import TransactionManager


@pytest.fixture
def manager():
    emp = Table(
        ["emp", "name", "dept"],
        [{"emp": 1, "name": "ada", "dept": 1}],
        [KeyConstraint(["emp"])],
    )
    dept = Table(["dept", "dname"], [{"dept": 1, "dname": "research"}])
    return TransactionManager({"emp": emp, "dept": dept})


class TestSnapshot:
    def test_snapshot_pins_committed_state(self, manager):
        snap = manager.snapshot()
        manager.table("emp").insert({"emp": 2, "name": "bob", "dept": 1})
        assert len(snap.relation("emp")) == 1
        assert len(manager.table("emp").snapshot()) == 2
        snap.close()

    def test_snapshot_version_tracks_commits(self, manager):
        assert manager.snapshot().version == 0
        with manager.transaction():
            manager.table("emp").insert(
                {"emp": 2, "name": "bob", "dept": 1}
            )
        assert manager.current_version == 1
        assert manager.snapshot().version == 1

    def test_closed_snapshot_refuses_reads(self, manager):
        snap = manager.snapshot()
        snap.close()
        assert snap.closed
        with pytest.raises(SchemaError):
            snap.relation("emp")
        snap.close()  # idempotent

    def test_context_manager_releases_pin(self, manager):
        with manager.snapshot() as snap:
            assert manager.open_snapshot_count == 1
            assert snap.names() == ["dept", "emp"]
        assert manager.open_snapshot_count == 0

    def test_unknown_table_is_schema_error(self, manager):
        with manager.snapshot() as snap:
            with pytest.raises(SchemaError):
                snap.relation("nope")

    def test_rollback_invisible_to_snapshot_opened_before(self, manager):
        with pytest.raises(RuntimeError):
            with manager.transaction():
                manager.table("emp").insert(
                    {"emp": 2, "name": "bob", "dept": 1}
                )
                raise RuntimeError("abort")
        snap = manager.snapshot()
        assert len(snap.relation("emp")) == 1
        snap.close()


class TestSnapshotDuringTransaction:
    """A snapshot opened *inside* a transaction sees the begin-state."""

    def test_in_progress_writes_invisible(self, manager):
        with manager.transaction():
            manager.table("emp").insert(
                {"emp": 2, "name": "bob", "dept": 1}
            )
            snap = manager.snapshot()
            assert len(snap.relation("emp")) == 1
        snap.close()

    def test_reader_before_nested_rollback_stays_clean(self, manager):
        """The satellite bug: a reader opened before a nested rollback
        must never observe the rolled-back rows."""
        with manager.transaction():
            manager.table("dept").insert({"dept": 2, "dname": "ops"})
            snap = manager.snapshot()
            try:
                with manager.transaction():
                    manager.table("emp").insert(
                        {"emp": 9, "name": "ghost", "dept": 2}
                    )
                    raise RuntimeError("inner abort")
            except RuntimeError:
                pass
            rows = list(snap.relation("emp").iter_dicts())
            assert all(row["name"] != "ghost" for row in rows)
            # Nor the outer transaction's own uncommitted insert:
            assert len(snap.relation("dept")) == 1
        snap.close()


class TestSnapshotSession:
    def test_read_your_own_writes(self, manager):
        session = manager.session()
        session.insert("emp", {"emp": 2, "name": "bob", "dept": 1})
        assert len(session.relation("emp")) == 2
        # ... without touching the committed state:
        assert len(manager.table("emp").snapshot()) == 1
        session.rollback()
        assert len(manager.table("emp").snapshot()) == 1

    def test_a_session_write_shares_the_pinned_rows(self, manager):
        # The first write moves the pinned Relation itself by its
        # delta: no row is re-encoded or re-sorted.
        with manager.session() as session:
            pinned = session.relation("emp")
            session.insert("emp", {"emp": 2, "name": "bob", "dept": 1})
            scratch = session.relation("emp")
            assert scratch is not pinned and len(scratch) == 2
            kept = {id(row) for row, _ in scratch.rows.pairs()}
            assert all(id(row) in kept for row, _ in pinned.rows.pairs())
            session.rollback()
        assert manager.table("emp").snapshot() is pinned

    def test_commit_applies_and_versions(self, manager):
        session = manager.session()
        session.insert("emp", {"emp": 2, "name": "bob", "dept": 1})
        version = session.commit()
        assert version == 1 == manager.current_version
        assert len(manager.table("emp").snapshot()) == 2
        assert session.closed

    def test_first_committer_wins(self, manager):
        loser = manager.session()
        loser.update("emp", {"emp": 1}, {"name": "late"})
        winner = manager.session()
        winner.update("emp", {"emp": 1}, {"name": "early"})
        assert winner.commit() == 1
        with pytest.raises(WriteConflictError) as exc:
            loser.commit()
        assert exc.value.tables == ("emp",)
        assert exc.value.read_version == 0
        assert exc.value.committed_version == 1
        assert exc.value.retry_after_s == 0.0
        # The loser changed nothing:
        rows = list(manager.table("emp").snapshot().iter_dicts())
        assert rows[0]["name"] == "early"

    def test_disjoint_writes_do_not_conflict(self, manager):
        a = manager.session()
        a.insert("emp", {"emp": 2, "name": "bob", "dept": 1})
        b = manager.session()
        b.insert("dept", {"dept": 2, "dname": "ops"})
        assert a.commit() == 1
        assert b.commit() == 2

    def test_context_manager_commits_or_rolls_back(self, manager):
        with manager.session() as session:
            session.insert("emp", {"emp": 2, "name": "bob", "dept": 1})
        assert len(manager.table("emp").snapshot()) == 2
        with pytest.raises(RuntimeError):
            with manager.session() as session:
                session.insert("emp", {"emp": 3, "name": "eve", "dept": 1})
                raise RuntimeError("abort")
        assert len(manager.table("emp").snapshot()) == 2

    def test_writes_inside_a_transaction_stay_the_sessions_own(
        self, manager
    ):
        emp = manager.table("emp")
        session = manager.session()
        with manager.transaction():
            emp.insert({"emp": 2, "name": "bob", "dept": 1})
            session.insert("emp", {"emp": 3, "name": "cyd", "dept": 1})
            # Each transaction reads its own writes and no other's.
            assert len(emp.snapshot()) == 2
            assert len(session.relation("emp")) == 2
            before = manager.committed()
            with pytest.raises(SchemaError, match="outside"):
                session.commit()  # it would commit under the open one
            assert manager.committed() is before and session.closed
        assert len(emp.snapshot()) == 2 and manager.current_version == 1

    def test_failed_commit_leaves_state_untouched(self, manager):
        session = manager.session()
        session.insert("emp", {"emp": 1, "name": "dup", "dept": 1})
        with pytest.raises(Exception):
            session.commit()  # key violation on replay
        assert len(manager.table("emp").snapshot()) == 1
        assert manager.current_version == 0


class TestOneCatalogValue:
    """The committed state is one ``Database``, produced by the commit
    that changed it; every reader of a version holds that object."""

    def test_a_snapshot_pins_the_committed_catalog(self, manager):
        with manager.snapshot() as snap:
            assert snap.database is manager.committed()
            assert snap.relation("emp") is manager.committed().relation("emp")
        with manager.snapshot() as again:
            assert again.database is snap.database

    def test_a_snapshot_estimates_its_own_value(self, manager):
        from repro.relational.cost import CardinalityEstimator
        from repro.relational.query import Restrict, Scan

        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 1),))
        with manager.snapshot() as snap:
            manager.table("emp").insert_many([
                {"emp": n, "name": "e%d" % n, "dept": 1} for n in range(2, 12)
            ])
            pinned = CardinalityEstimator(snap.database)
            assert pinned.estimate(Scan("emp")) == 1.0
            assert pinned.estimate(plan) == 1.0
            latest = CardinalityEstimator(manager.committed())
            assert latest.estimate(Scan("emp")) == 11.0
            assert latest.estimate(plan) == 11.0

    def test_equal_values_at_two_versions_plan_alike(self, manager):
        from repro.relational import sql

        text = "select name, dname from emp join dept where dept = 1"
        first = manager.committed()
        sql.run(first, text)
        manager.table("emp").insert({"emp": 2, "name": "bob", "dept": 1})
        manager.table("emp").delete({"emp": 2})
        again = manager.committed()
        assert again is not first
        assert again.relation("emp") == first.relation("emp")
        assert sql.run(again, text) == sql.run(first, text)
        assert again.plan_memo()[text].explain() == \
            first.plan_memo()[text].explain()

    def test_two_sessions_at_one_version_hold_one_database(self, manager):
        from repro.server.session import Session

        a, b = Session("a", manager), Session("b", manager)
        assert a.database() is b.database() is manager.committed()
        manager.table("emp").insert({"emp": 2, "name": "bob", "dept": 1})
        assert a.database() is b.database() is not manager.committed()
        assert b.refresh() == 1
        assert b.database() is manager.committed() is not a.database()
        a.close()
        b.close()

    def test_replaced_by_exactly_the_state_changing_commits(self, manager):
        emp = manager.table("emp")
        born = manager.committed()
        with pytest.raises(RuntimeError):
            with manager.transaction():
                emp.insert({"emp": 2, "name": "bob", "dept": 1})
                raise RuntimeError("abort")
        assert manager.committed() is born  # rolled back
        with manager.transaction():
            pass
        assert emp.delete({"emp": 99}) == 0
        with manager.transaction():
            emp.insert({"emp": 2, "name": "bob", "dept": 1})
            emp.delete({"emp": 2})
        assert manager.committed() is born and manager.commits == 0  # no-ops
        assert born.relation("emp") is emp.snapshot()
        emp.insert({"emp": 2, "name": "bob", "dept": 1})
        moved = manager.committed()
        assert moved is not born and manager.commits == 1
        assert moved.relation("emp") is emp.snapshot()
        # Only the named relation was replaced; the rest is shared.
        assert moved.relation("dept") is born.relation("dept")
        assert len(born.relation("emp")) == 1

    def test_inside_a_transaction_and_a_listener(self, manager):
        emp = manager.table("emp")
        born = manager.committed()
        heard = []

        def listener(version, changes):
            with manager.snapshot() as snap:
                heard.append((version, snap.database, len(snap.relation("emp"))))

        manager.subscribe(listener)
        with manager.transaction():
            emp.insert({"emp": 2, "name": "bob", "dept": 1})
            with manager.snapshot() as inside:
                assert inside.database is manager.committed() is born
                assert len(inside.relation("emp")) == 1
            with manager.transaction():
                emp.insert({"emp": 3, "name": "cyd", "dept": 1})
            assert manager.committed() is born
        # The listener fires after the commit closed: it sees the value
        # the commit produced, the one every later reader pins.
        assert heard == [(1, manager.committed(), 3)]

    def test_the_view_catalog_is_one_more_handle_of_the_value(
        self, manager, monkeypatch
    ):
        from repro.relational.query import Database, Restrict, Scan
        from repro.relational.sql import run
        from repro.relational.views import ViewCatalog

        emp = manager.table("emp")
        emp.insert_many([{"emp": n, "name": "n%d" % n, "dept": n % 2}
                         for n in range(2, 7)])
        catalog = ViewCatalog(Database(), manager=manager)
        assert catalog.database is manager.committed()
        assert catalog.database.result_cache is manager.result_cache
        catalog.define("odd", Restrict(Scan("emp"),
                                       (Comparison("dept", "=", 1),)),
                       materialized=True)
        catalog.define("names", Scan("odd"))
        pinned = manager.snapshot()
        with pytest.raises(RuntimeError):
            with manager.transaction():
                emp.insert({"emp": 7, "name": "bob", "dept": 1})
                raise RuntimeError("abort")
        assert catalog.database is manager.committed() is pinned.database
        with manager.transaction():
            assert emp.delete({"emp": 99}) == 0
        assert catalog.database is manager.committed() is pinned.database
        emp.insert({"emp": 7, "name": "bob", "dept": 1})
        assert catalog.database is manager.committed()
        assert manager.committed() is not pinned.database
        assert manager.committed().views is pinned.database.views is catalog
        # A view read binds its names in a throw-away successor of the
        # reader's value: no catalog gains, loses or shadows a relation.
        catalogs = (pinned.database, manager.committed())
        monkeypatch.setattr(Database, "add", lambda *args: 1 / 0)
        for _ in range(5):
            assert len(catalog.read("names")) == 4
            assert len(run(pinned.database, "select * from names")) == 3
        for db in catalogs:
            assert db.names() == ["dept", "emp"]
        # The reader's value is the one that is read.
        assert len(run(pinned.database, "select * from emp")) == 6
        assert len(run(manager.committed(), "select * from emp")) == 7
        pinned.close()

    def test_a_committed_catalog_refuses_its_mutators(self, manager):
        committed = manager.committed()
        emp = committed.relation("emp")
        for mutate in (
            lambda: committed.add("emp", manager.table("dept").snapshot()),
            lambda: committed.add("extra", emp),
            lambda: committed.remove("emp"),
            lambda: committed.encode_columnar(),
            lambda: committed.drop_columnar(),
        ):
            with pytest.raises(SchemaError, match="committed catalog"):
                mutate()
        assert committed.names() == ["dept", "emp"]
        assert committed.relation("emp") is emp
        assert not committed.has_columnar("emp")
        # The seal travels with the value; a hand-built catalog has none.
        manager.table("emp").insert({"emp": 2, "name": "bob", "dept": 1})
        with pytest.raises(SchemaError):
            manager.committed().remove("emp")

    def test_with_relations_shares_all_but_the_named(self):
        from repro.relational.ivm import QueryResultCache
        from repro.relational.query import Database, Scan
        from repro.relational.relation import Relation

        one = Relation.from_tuples(["a"], [(1,)])
        two = Relation.from_tuples(["b"], [(2,)])
        cache = QueryResultCache(capacity=4)
        db = Database({"one": one, "two": two}, result_cache=cache)
        db.encode_columnar()
        moved = db.with_relations({"two": Relation.from_tuples(["b"], [(3,)])})
        assert moved.relation("one") is one and db.relation("two") is two
        assert moved.result_cache is cache
        assert moved.has_columnar("one") and not moved.has_columnar("two")
        assert moved.execute(Scan("two")).to_rows() == [(3,)]
        moved.add("three", one)  # hand-built: still a fixture
        assert db.names() == ["one", "two"]


class TestVersionHorizon:
    def test_horizon_bounded_by_open_snapshots(self, manager):
        snaps = [manager.snapshot()]
        for i in range(4):
            with manager.transaction():
                manager.table("emp").insert(
                    {"emp": 10 + i, "name": "n%d" % i, "dept": 1}
                )
            snaps.append(manager.snapshot())
        assert manager.open_snapshot_count == 5
        assert len(manager.retained_versions()) <= 6
        assert manager.version_horizon() == 4
        for snap in snaps[:-1]:
            snap.close()
        assert manager.version_horizon() == 0
        snaps[-1].close()
        assert manager.retained_versions() == [manager.current_version]

    def test_duplicate_versions_share_one_pin(self, manager):
        a, b, c = (manager.snapshot() for _ in range(3))
        assert manager.retained_versions() == [0]
        for snap in (a, b, c):
            snap.close()


class MVCCMachine(RuleBasedStateMachine):
    """Random interleavings of snapshots, sessions, and commits."""

    def __init__(self):
        super().__init__()
        self.table = Table(
            ["k", "v"],
            [{"k": 0, "v": 0}],
            [KeyConstraint(["k"])],
        )
        self.manager = TransactionManager({"t": self.table})
        # Open snapshots paired with the rows they saw at open time.
        self.snapshots = []
        # Open sessions paired with a flag: wrote-anything.
        self.sessions = []
        self.next_key = 1

    def _rows(self):
        return sorted(
            (row["k"], row["v"])
            for row in self.table.snapshot().iter_dicts()
        )

    @rule()
    def open_snapshot(self):
        snap = self.manager.snapshot()
        self.snapshots.append((snap, self._rows()))

    @rule(data=st.data())
    def close_snapshot(self, data):
        if not self.snapshots:
            return
        index = data.draw(
            st.integers(min_value=0, max_value=len(self.snapshots) - 1)
        )
        snap, _ = self.snapshots.pop(index)
        snap.close()

    @rule()
    def direct_commit(self):
        """A versioned write outside any session."""
        with self.manager.transaction():
            self.table.insert({"k": self.next_key, "v": self.next_key})
        self.next_key += 1

    @rule()
    def open_session(self):
        self.sessions.append(self.manager.session())

    @rule(data=st.data())
    def session_write(self, data):
        if not self.sessions:
            return
        session = data.draw(st.sampled_from(self.sessions))
        session.insert("t", {"k": self.next_key, "v": -self.next_key})
        self.next_key += 1

    @rule(data=st.data())
    def session_commit(self, data):
        if not self.sessions:
            return
        index = data.draw(
            st.integers(min_value=0, max_value=len(self.sessions) - 1)
        )
        session = self.sessions.pop(index)
        stale = "t" in session.conflicts()
        before = self._rows()
        if stale:
            with pytest.raises(WriteConflictError):
                session.commit()
            # A losing commit changes nothing.
            assert self._rows() == before
        else:
            session.commit()

    @rule(data=st.data())
    def session_rollback(self, data):
        if not self.sessions:
            return
        index = data.draw(
            st.integers(min_value=0, max_value=len(self.sessions) - 1)
        )
        before = self._rows()
        self.sessions.pop(index).rollback()
        assert self._rows() == before

    @invariant()
    def snapshots_read_stable(self):
        for snap, rows_at_open in self.snapshots:
            seen = sorted(
                (row["k"], row["v"])
                for row in snap.relation("t").iter_dicts()
            )
            assert seen == rows_at_open

    @invariant()
    def horizon_is_bounded(self):
        retained = self.manager.retained_versions()
        assert len(retained) <= self.manager.open_snapshot_count + 1
        assert retained[-1] == self.manager.current_version
        assert self.manager.version_horizon() == \
            self.manager.current_version - retained[0]

    def teardown(self):
        for snap, _ in self.snapshots:
            snap.close()
        for session in self.sessions:
            session.rollback()
        assert self.manager.open_snapshot_count == 0


MVCCMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestMVCCStateful = MVCCMachine.TestCase
