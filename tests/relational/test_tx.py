"""Transactions: multi-table atomicity, deferral, savepoint nesting."""

import pytest

from repro.errors import SchemaError
from repro.relational.constraints import (
    ForeignKeyConstraint,
    IntegrityError,
    KeyConstraint,
    Table,
)
from repro.relational.tx import TransactionManager


@pytest.fixture
def schema():
    departments = Table(
        ["dept", "dname"],
        [{"dept": 1, "dname": "research"}],
        [KeyConstraint(["dept"])],
    )
    employees = Table(
        ["emp", "name", "dept"],
        [],
        [KeyConstraint(["emp"])],
    )
    employees.add_constraint(
        ForeignKeyConstraint(["dept"], departments.snapshot)
    )
    manager = TransactionManager(
        {"emp": employees, "dept": departments}
    )
    return manager, employees, departments


class TestAtomicity:
    def test_commit_applies_everything(self, schema):
        manager, employees, departments = schema
        with manager.transaction():
            departments.insert({"dept": 2, "dname": "ops"})
            employees.insert({"emp": 1, "name": "ada", "dept": 2})
        assert len(employees) == 1
        assert len(departments) == 2

    def test_exception_rolls_back_all_tables(self, schema):
        manager, employees, departments = schema
        with pytest.raises(RuntimeError):
            with manager.transaction():
                departments.insert({"dept": 2, "dname": "ops"})
                employees.insert({"emp": 1, "name": "ada", "dept": 2})
                raise RuntimeError("client aborts")
        assert len(employees) == 0
        assert len(departments) == 1

    def test_integrity_failure_rolls_back_earlier_statements(self, schema):
        manager, employees, departments = schema
        with pytest.raises(IntegrityError):
            with manager.transaction():
                departments.insert({"dept": 2, "dname": "ops"})
                employees.insert({"emp": 1, "name": "ada", "dept": 404})
        assert len(departments) == 1  # the good insert is gone too

    def test_state_outside_transactions_is_untouched(self, schema):
        manager, employees, departments = schema
        departments.insert({"dept": 5, "dname": "standalone"})
        assert len(departments) == 2
        assert not manager.in_transaction()

    def test_commit_checks_tables_no_statement_touched(self, schema):
        # The commit diff skips untouched tables by identity; the
        # commit-time check must not: deleting a department breaks the
        # foreign key of the employee table, which no statement touched.
        manager, employees, departments = schema
        employees.insert({"emp": 1, "name": "ada", "dept": 1})
        with pytest.raises(IntegrityError):
            with manager.transaction():
                departments.delete({"dept": 1})
        assert len(departments) == 1
        with pytest.raises(IntegrityError):
            with manager.transaction(deferred=True):
                departments.delete({"dept": 1})
        assert len(departments) == 1


class TestDeferredChecking:
    def test_transiently_broken_fk_commits_when_consistent(self, schema):
        manager, employees, departments = schema
        with manager.transaction(deferred=True):
            # Insert the employee BEFORE its department exists.
            employees.insert({"emp": 1, "name": "ada", "dept": 9})
            departments.insert({"dept": 9, "dname": "late"})
        assert len(employees) == 1
        assert len(departments) == 2

    def test_deferred_commit_still_validates(self, schema):
        manager, employees, departments = schema
        with pytest.raises(IntegrityError):
            with manager.transaction(deferred=True):
                employees.insert({"emp": 1, "name": "ada", "dept": 404})
        assert len(employees) == 0

    def test_checking_resumes_after_the_scope(self, schema):
        manager, employees, departments = schema
        with manager.transaction(deferred=True):
            departments.insert({"dept": 2, "dname": "ops"})
        with pytest.raises(IntegrityError):
            employees.insert({"emp": 9, "name": "ghost", "dept": 404})


class TestNesting:
    def test_inner_failure_preserves_outer_work(self, schema):
        manager, employees, departments = schema
        with manager.transaction():
            departments.insert({"dept": 2, "dname": "ops"})
            with pytest.raises(RuntimeError):
                with manager.transaction():
                    departments.insert({"dept": 3, "dname": "doomed"})
                    raise RuntimeError("inner abort")
            assert len(departments) == 2  # inner rolled back only
            employees.insert({"emp": 1, "name": "ada", "dept": 2})
        assert len(departments) == 2
        assert len(employees) == 1

    def test_depth_tracking(self, schema):
        manager, employees, departments = schema
        assert manager.depth == 0
        with manager.transaction():
            assert manager.depth == 1
            with manager.transaction():
                assert manager.depth == 2
        assert manager.depth == 0


class TestNestedSavepointsUnderInjectedFailures:
    """Satellite: inner failures never disturb outer begin-state."""

    def test_failed_inner_statements_interleaved_with_outer_work(self, schema):
        manager, employees, departments = schema
        with manager.transaction():
            departments.insert({"dept": 2, "dname": "ops"})
            # Injected failure #1: a statement-level constraint
            # violation inside a savepoint.
            with pytest.raises(IntegrityError):
                with manager.transaction():
                    employees.insert({"emp": 1, "name": "a", "dept": 2})
                    employees.insert({"emp": 1, "name": "dup", "dept": 2})
            assert len(employees) == 0  # inner rolled back cleanly
            employees.insert({"emp": 2, "name": "b", "dept": 2})
            # Injected failure #2: a client abort in a later savepoint.
            with pytest.raises(RuntimeError):
                with manager.transaction():
                    employees.insert({"emp": 3, "name": "c", "dept": 2})
                    raise RuntimeError("injected abort")
            assert len(employees) == 1  # emp 2 survived the rollback
        assert len(employees) == 1
        assert len(departments) == 2

    def test_two_levels_of_nesting_restore_their_own_begin_states(
        self, schema
    ):
        manager, employees, departments = schema
        with manager.transaction():
            departments.insert({"dept": 2, "dname": "l1"})
            with manager.transaction():
                departments.insert({"dept": 3, "dname": "l2"})
                with pytest.raises(RuntimeError):
                    with manager.transaction():
                        departments.insert({"dept": 4, "dname": "l3"})
                        raise RuntimeError("deepest scope dies")
                assert len(departments) == 3  # l3 gone, l2 intact
            assert len(departments) == 3
        assert len(departments) == 3

    def test_deferred_check_runs_once_at_outermost_commit(self, schema):
        manager, employees, departments = schema
        from repro.relational.constraints import CheckConstraint

        calls = []
        departments.add_constraint(CheckConstraint(
            lambda row: calls.append(row) or True, "counting"
        ))
        calls.clear()  # add_constraint itself validates once
        with manager.transaction(deferred=True):
            departments.insert({"dept": 2, "dname": "x"})
            with manager.transaction(deferred=True):
                departments.insert({"dept": 3, "dname": "y"})
            # The inner scope ended, but checking stays deferred while
            # the outer deferred scope is open.
            departments.insert({"dept": 4, "dname": "z"})
        # Exactly one commit-time validation pass over exactly the 3
        # rows the transaction wrote: not once per statement or per
        # scope, and not the row that was already valid at begin.
        assert sorted(row["dept"] for row in calls) == [2, 3, 4]

    def test_inner_failure_then_deferred_commit_still_validates(self, schema):
        manager, employees, departments = schema
        with pytest.raises(IntegrityError):
            with manager.transaction(deferred=True):
                with pytest.raises(RuntimeError):
                    with manager.transaction(deferred=True):
                        employees.insert(
                            {"emp": 1, "name": "ghost", "dept": 404}
                        )
                        raise RuntimeError("inner injected failure")
                # The bad row is rolled back; insert a different one
                # that is *also* dangling -- the outermost commit must
                # still catch it.
                employees.insert({"emp": 2, "name": "dangle", "dept": 404})
        assert len(employees) == 0


class TestCommitLogging:
    """The WAL hook: one atomic record per state-changing commit."""

    @pytest.fixture
    def logged(self, schema, tmp_path):
        from repro.relational.wal import WriteAheadLog

        manager, employees, departments = schema
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        manager = TransactionManager(
            {"emp": employees, "dept": departments}, log=log
        )
        return manager, employees, departments, log

    def test_outermost_commit_appends_one_record(self, logged):
        from repro.relational.wal import commit_changes

        manager, employees, departments, log = logged
        with manager.transaction():
            departments.insert({"dept": 2, "dname": "ops"})
            with manager.transaction():
                employees.insert({"emp": 1, "name": "ada", "dept": 2})
        assert log.lsn == 1  # nested commits do not log separately
        (record,) = log.replay()
        changed = {name for name, _, _, _ in commit_changes(record)}
        assert changed == {"dept", "emp"}

    def test_rollback_logs_nothing(self, logged):
        manager, employees, departments, log = logged
        with pytest.raises(RuntimeError):
            with manager.transaction():
                departments.insert({"dept": 2, "dname": "doomed"})
                raise RuntimeError("abort")
        assert log.lsn == 0

    def test_noop_transaction_logs_nothing(self, logged):
        manager, employees, departments, log = logged
        with manager.transaction():
            pass
        assert log.lsn == 0

    def test_rewritten_but_equal_table_logs_nothing(self, logged):
        # A touched table holds a new Relation object, but the carried
        # delta nets insert-then-delete to nothing: not logged.
        manager, employees, departments, log = logged
        with manager.transaction():
            departments.insert({"dept": 2, "dname": "ops"})
            departments.delete({"dept": 2})
        assert log.lsn == 0
        assert manager.table_version("dept") == 0

    def test_deletes_are_logged_as_deltas(self, logged):
        from repro.relational.wal import commit_changes

        manager, employees, departments, log = logged
        with manager.transaction():
            departments.insert({"dept": 2, "dname": "ops"})
        with manager.transaction():
            departments.delete({"dept": 2})
        _, record = log.replay()[1], log.replay()[1]
        (name, _, inserted, deleted), = commit_changes(record)
        assert name == "dept"
        assert len(inserted) == 0 and len(deleted) == 1

    def test_failed_log_append_rolls_the_commit_back(self, schema):
        manager, employees, departments = schema

        class ExplodingLog:
            def commit(self, tx_id, changes):
                raise OSError("disk full (injected)")

        manager = TransactionManager(
            {"emp": employees, "dept": departments}, log=ExplodingLog()
        )
        with pytest.raises(OSError):
            with manager.transaction():
                departments.insert({"dept": 2, "dname": "undurable"})
        # The in-memory state never ran ahead of the durable log.
        assert len(departments) == 1
        assert manager.commits == 0


class TestCarriedDiff:
    """The delta a table carries between checks and commits never goes
    stale: unchecked rows stay pending until a check passes, and a
    rollback takes the pending delta back with the relation."""

    @pytest.fixture
    def counted(self, schema, tmp_path):
        from repro.relational.constraints import CheckConstraint
        from repro.relational.wal import WriteAheadLog

        manager, employees, departments = schema
        checked = []
        departments.add_constraint(CheckConstraint(
            lambda row: checked.append(row["dept"]) or True, "counting"
        ))
        checked.clear()  # add_constraint itself validates once
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        manager = TransactionManager(
            {"emp": employees, "dept": departments}, log=log
        )
        return manager, departments, log, checked

    @staticmethod
    def logged_rows(record):
        """``{table: (inserted dept ids, deleted dept ids)}`` of a record."""
        from repro.relational.wal import commit_changes

        return {
            name: tuple(
                sorted(row.as_record()["dept"] for row, _ in half.pairs())
                for half in (inserted, deleted)
            )
            for name, _, inserted, deleted in commit_changes(record)
        }

    def test_unchecked_rows_stay_pending_until_a_check_passes(self):
        # A standalone table: an enrolled one cannot be left pending,
        # its bare statement is a commit (next test).
        departments = Table(
            ["dept", "dname"], [{"dept": 1, "dname": "research"}],
            [KeyConstraint(["dept"])],
        )
        departments.defer_validation(True)
        departments.insert({"dept": 1, "dname": "duplicate key"})
        departments.defer_validation(False)
        # No check_now(): every later statement must still be refused,
        # even ones whose own rows are fine or that change nothing.
        for statement in (
            lambda: departments.insert({"dept": 2, "dname": "fine"}),
            lambda: departments.insert_many([{"dept": 3, "dname": "ok"}]),
            lambda: departments.delete({"dept": 404}),
            lambda: departments.update({"dname": "research"}, {"dname": "r"}),
            departments.check_now,
        ):
            with pytest.raises(IntegrityError, match="key"):
                statement()
        assert departments.needs_check()
        assert len(departments) == 2
        # Removing the offender is the statement that passes the check.
        assert departments.delete({"dname": "duplicate key"}) == 1
        assert not departments.needs_check()
        departments.insert({"dept": 2, "dname": "fine"})
        assert len(departments) == 2

    def test_pending_rows_fail_the_next_commit_and_roll_back(self, schema):
        manager, _, departments = schema
        before = departments.snapshot()
        # On an enrolled table the next commit is the statement's own:
        # deferring its check only moves the refusal to that commit.
        departments.defer_validation(True)
        with pytest.raises(IntegrityError):
            departments.insert({"dept": 1, "dname": "duplicate key"})
        departments.defer_validation(False)
        assert departments.snapshot() is before
        assert not departments.needs_check()  # rolled back, nothing pending
        assert manager.current_version == 0
        with pytest.raises(IntegrityError):
            with manager.transaction(deferred=True):
                departments.insert({"dept": 2, "dname": "fine"})
                departments.insert({"dept": 1, "dname": "duplicate key"})
        assert departments.snapshot() is before
        assert not departments.needs_check()

    def test_inner_rollback_leaves_no_stale_diff(self, counted):
        manager, departments, log, checked = counted
        with manager.transaction(deferred=True):
            departments.insert({"dept": 2, "dname": "kept"})
            with pytest.raises(RuntimeError):
                with manager.transaction(deferred=True):
                    departments.insert({"dept": 3, "dname": "rolled back"})
                    departments.delete({"dept": 1})
                    raise RuntimeError("inner abort")
            departments.insert({"dept": 4, "dname": "kept too"})
        assert sorted(checked) == [2, 4]
        assert self.logged_rows(log.replay()[0]) == {"dept": ([2, 4], [])}
        checked.clear()
        with manager.transaction(deferred=True):
            departments.insert({"dept": 5, "dname": "own rows only"})
        assert checked == [5]
        assert self.logged_rows(log.replay()[1]) == {"dept": ([5], [])}

    def test_outer_rollback_leaves_no_stale_diff(self, counted):
        manager, departments, log, checked = counted
        for deferred in (True, False):
            with pytest.raises(RuntimeError):
                with manager.transaction(deferred=deferred):
                    departments.insert({"dept": 2, "dname": "doomed"})
                    departments.delete({"dept": 1})
                    raise RuntimeError("abort")
        assert log.lsn == 0 and not departments.needs_check()
        checked.clear()
        with manager.transaction(deferred=True):
            departments.update({"dept": 1}, {"dname": "renamed"})
            departments.insert({"dept": 6, "dname": "new"})
        assert sorted(checked) == [1, 6]
        assert self.logged_rows(log.replay()[0]) == {"dept": ([1, 6], [1])}
        # A bare statement is its own commit -- log record 1 -- and
        # leaves nothing behind for the next one.
        departments.insert({"dept": 7, "dname": "autocommit"})
        assert self.logged_rows(log.replay()[1]) == {"dept": ([7], [])}
        with manager.transaction():
            departments.delete({"dept": 6})
        assert self.logged_rows(log.replay()[2]) == {"dept": ([], [6])}

    def test_failed_commit_check_restores_the_pending_diff(self, counted):
        manager, departments, log, checked = counted
        with pytest.raises(IntegrityError):
            with manager.transaction(deferred=True):
                departments.insert({"dept": 2, "dname": "fine"})
                departments.insert({"dept": 1, "dname": "duplicate key"})
        assert log.lsn == 0 and not departments.needs_check()
        with manager.transaction(deferred=True):
            departments.insert({"dept": 3, "dname": "next"})
        assert self.logged_rows(log.replay()[0]) == {"dept": ([3], [])}

    def test_memory_never_spells_what_the_log_does_not(self, tmp_path):
        """Delete ``v = 1`` and insert ``v = 1.0`` in one scope: the net
        diff is empty (typed twins are equal), nothing is logged -- so
        the table must go back to the relation the scope began with,
        or memory and the recovered log part ways for good."""
        from repro.relational.wal import WriteAheadLog, recover_state
        from repro.xst.serialization import digest

        table = Table(["k", "v"], [{"k": 1, "v": 1}], [KeyConstraint(["k"])])
        base = table.snapshot()
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        manager = TransactionManager({"t": table}, log=log)
        with manager.transaction():
            table.delete({"k": 1})
            table.insert({"k": 1, "v": 1.0})
            # The re-inserted row keeps the spelling the scope deleted
            # (parent commit: ``1.0`` until the commit reset the table).
            assert digest(table.snapshot().rows) == digest(base.rows)
        assert (manager.current_version, log.lsn) == (0, 0)
        assert table.snapshot() is base is manager.committed().relation("t")
        with manager.transaction():
            table.insert({"k": 2, "v": 2})
        state, replayed = recover_state(log.replay(), base={"t": base})
        assert replayed == manager.current_version == 1
        assert digest(state["t"].rows) == digest(table.snapshot().rows)
        # No change, no new value, statement by statement too.
        held = table.snapshot()
        assert table.delete({"k": 99}) == 0
        assert table.update({"k": 2}, {"v": 2.0}) == 1
        assert table.snapshot() is held and log.lsn == 1

    def test_a_reinserted_row_keeps_the_spelling_the_scope_deleted(
        self, tmp_path
    ):
        """Delete ``v = 1``, insert ``v = 1.0`` and change another row in
        one scope: the net diff holds the other row only, so the log
        spells the re-inserted row as the scope found it -- and so must
        memory, or the two part ways at the next commit."""
        from repro.relational.wal import WriteAheadLog, recover_state
        from repro.xst.serialization import digest

        table = Table(["k", "v"], [{"k": 1, "v": 1}, {"k": 2, "v": 2}],
                      [KeyConstraint(["k"])])
        base = table.snapshot()
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        manager = TransactionManager({"t": table}, log=log)
        with manager.transaction():
            table.delete({"k": 1})
            table.insert({"k": 1, "v": 1.0})
            table.update({"k": 2}, {"v": 3})
        state, replayed = recover_state(log.replay(), base={"t": base})
        assert replayed == manager.current_version == 1
        for relation in (state["t"], table.snapshot(),
                         manager.committed().relation("t")):
            assert [
                [(type(value), value) for value in row]
                for row in sorted(relation.to_rows())
            ] == [[(int, 1), (int, 1)], [(int, 2), (int, 3)]]
        assert digest(state["t"].rows) == digest(table.snapshot().rows)


class TestManagerPlumbing:
    def test_table_access(self, schema):
        manager, employees, departments = schema
        assert manager.table("emp") is employees
        with pytest.raises(SchemaError):
            manager.table("ghost")

    def test_the_empty_catalog_is_a_catalog(self):
        manager = TransactionManager({})
        with manager.transaction():
            pass
        assert (manager.commits, manager.current_version) == (0, 0)
        with manager.snapshot() as empty:
            assert empty.names() == [] and empty.database.names() == []
        assert manager.committed() is empty.database
        table = Table(["k"], [{"k": 1}])
        manager.add_table("t", table)
        assert manager.committed() is not empty.database
        assert manager.committed().relation("t") is table.snapshot()
        table.insert({"k": 2})
        assert (manager.commits, manager.table_version("t")) == (1, 1)

    def test_tables_view_is_a_copy(self, schema):
        manager, employees, _ = schema
        view = manager.tables
        view.clear()
        assert manager.table("emp") is employees


class TestSavepointSnapshotInteraction:
    """Satellite fix: savepoint semantics under concurrent snapshot
    readers, and the WAL/MVCC shared numbering."""

    def test_reader_before_nested_rollback_never_sees_rolled_back_rows(
        self, schema
    ):
        manager, employees, departments = schema
        with manager.transaction():
            departments.insert({"dept": 2, "dname": "ops"})
            reader = manager.snapshot()
            try:
                with manager.transaction():
                    employees.insert(
                        {"emp": 7, "name": "ghost", "dept": 2}
                    )
                    # The reader must not see the inner insert even
                    # while it is live...
                    assert len(reader.relation("emp")) == 0
                    raise RuntimeError("inner abort")
            except RuntimeError:
                pass
            # ...nor after its rollback, nor the outer transaction's
            # own in-progress insert.
            assert len(reader.relation("emp")) == 0
            assert len(reader.relation("dept")) == 1
        reader.close()

    def test_reader_across_savepoint_release_sees_begin_state(self, schema):
        manager, employees, departments = schema
        reader = manager.snapshot()
        with manager.transaction():
            departments.insert({"dept": 2, "dname": "ops"})
            with manager.transaction():
                employees.insert({"emp": 1, "name": "ada", "dept": 2})
            # Inner savepoint released (committed into the outer scope):
            # still invisible to the reader.
            assert len(reader.relation("emp")) == 0
        # Even after the outer commit, the pinned version is stable.
        assert len(reader.relation("emp")) == 0
        assert len(reader.relation("dept")) == 1
        reader.close()
        assert len(manager.snapshot().relation("emp")) == 1

    def test_wal_tx_id_matches_mvcc_commit_version(self, schema, tmp_path):
        from repro.relational.wal import WriteAheadLog, commit_tx_id

        manager, employees, departments = schema
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        manager = TransactionManager(
            {"emp": employees, "dept": departments}, log=log
        )
        versions = []
        for dept in (2, 3, 4):
            with manager.transaction():
                departments.insert({"dept": dept, "dname": "d%d" % dept})
            versions.append(manager.current_version)
        assert versions == [1, 2, 3]
        assert [commit_tx_id(record) for record in log.replay()] == versions
        # And the per-table change version agrees with the last record.
        assert manager.table_version("dept") == 3
        assert manager.table_version("emp") == 0


class TestStatementAutocommit:
    """A statement on an enrolled table, outside any scope, is a
    one-statement transaction: everything a commit does happens once."""

    @pytest.fixture
    def stack(self, tmp_path):
        from repro.relational.distributed import Cluster
        from repro.relational.query import Database, Scan, SelectEq
        from repro.relational.relation import Relation
        from repro.relational.views import ViewCatalog
        from repro.relational.wal import WriteAheadLog

        log = WriteAheadLog(str(tmp_path / "wal.log"))
        cluster = Cluster(3, replication_factor=2, log=log)
        base = Relation.from_dicts(
            ["dept", "dname"], [{"dept": 1, "dname": "research"}]
        )
        cluster.create_table("dept", base, "dept")
        manager = cluster.manager
        table = manager.table("dept")
        table.add_constraint(KeyConstraint(["dept"]))
        views = ViewCatalog(Database(), manager)
        views.define("ops", SelectEq(Scan("dept"), {"dname": "ops"}),
                     materialized=True)
        views.read("ops")
        heard = []
        manager.subscribe(lambda version, changes: heard.append(version))
        return cluster, manager, table, views, log, heard, base

    def test_each_bare_statement_is_exactly_one_commit(self, stack):
        from repro.relational.query import Scan
        from repro.relational.wal import recover_state

        cluster, manager, table, views, log, heard, base = stack
        statements = (
            lambda: table.insert({"dept": 2, "dname": "ops"}),
            lambda: table.insert_many([{"dept": 3, "dname": "ops"},
                                       {"dept": 4, "dname": "lab"}]),
            lambda: table.update({"dept": 4}, {"dname": "ops"}),
            lambda: table.delete({"dept": 3}),
        )
        for version, statement in enumerate(statements, start=1):
            before = manager.snapshot()
            statement()
            assert not manager.in_transaction()
            assert manager.current_version == log.lsn == version
            assert heard == list(range(1, version + 1))
            # Same version, same rows: the old snapshot did not move.
            assert before.relation("dept") is not table.snapshot()
            assert manager.snapshot().relation("dept") is table.snapshot()
            assert cluster.execute(Scan("dept")) == table.snapshot()
            assert views.read("ops") == views.database.execute(
                views.view("ops").plan
            )
            assert views.verify("ops")
            state, replayed = recover_state(
                log.replay(), base={"dept": base}
            )
            assert replayed == version
            assert state["dept"] == table.snapshot()
        assert views.view("ops").delta_applies == len(statements)

    def test_a_refused_statement_commits_nothing(self, stack):
        from repro.relational.query import Scan

        cluster, manager, table, views, log, heard, base = stack
        ops = cluster.ops
        for refused, error in (
            (lambda: table.insert({"dept": 1, "dname": "dup"}),
             IntegrityError),
            (lambda: table.insert_many([{"dept": 1, "dname": "dup key"}]),
             IntegrityError),
            (lambda: table.insert({"dept": 2}), SchemaError),
            (lambda: table.update({"dept": 1}, {"nope": 1}), SchemaError),
        ):
            with pytest.raises(error):
                refused()
        assert table.snapshot() is base
        assert (manager.current_version, log.lsn, heard) == (0, 0, [])
        assert cluster.ops == ops and not table.needs_check()
        assert cluster.execute(Scan("dept")) == base

    def test_inside_a_scope_a_statement_is_not_a_commit(self, stack):
        cluster, manager, table, views, log, heard, base = stack
        with manager.transaction():
            table.insert({"dept": 2, "dname": "ops"})
            table.insert({"dept": 3, "dname": "ops"})
            assert (manager.current_version, log.lsn, heard) == (0, 0, [])
        assert (manager.current_version, log.lsn, heard) == (1, 1, [1])
        with pytest.raises(RuntimeError):
            with manager.transaction():
                table.delete({"dept": 2})
                raise RuntimeError("abort")
        assert (manager.current_version, log.lsn, heard) == (1, 1, [1])

    def test_a_standalone_table_is_as_before(self):
        table = Table(["dept", "dname"], [], [KeyConstraint(["dept"])])
        table.insert({"dept": 1, "dname": "research"})
        with pytest.raises(IntegrityError):
            table.insert({"dept": 1, "dname": "dup"})
        assert len(table) == 1 and not table.needs_check()
