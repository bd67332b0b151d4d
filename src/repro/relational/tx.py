"""Multi-table transactions over constraint-guarded tables.

:class:`~repro.relational.constraints.Table` makes each *statement*
all-or-nothing; a :class:`TransactionManager` extends the guarantee to
*groups* of statements across tables.  Immutability makes this almost
free: beginning a transaction records each table's current relation
value (a pointer copy), and rollback restores the pointers.  Deferred
constraint checking validates, at the *outermost* commit, every
enrolled table whose rows changed or whose constraints read another
table, so mutually-referential updates (insert the department and its
employees in one transaction) order-independently succeed or fail as
a unit.

Usage::

    manager = TransactionManager({"emp": emp_table, "dept": dept_table})
    with manager.transaction():
        dept_table.insert({...})
        emp_table.insert({...})
    # both applied; any exception inside the block rolled both back

Nested transactions are supported as savepoints: the inner context
restores to its own begin-state on failure without disturbing the
outer transaction, and commit-time validation runs exactly once, when
the outermost scope commits.

Durability: pass ``log=`` a
:class:`~repro.relational.wal.WriteAheadLog` and every outermost
commit appends **one atomic record** -- the per-table inserted and
deleted row sets, the net of the deltas the statements themselves
built (:meth:`Table.commit_diff`), never a whole-relation comparison
-- *before* the transaction is considered committed.
A failed append rolls the tables back, so the in-memory state never
runs ahead of the durable log; a crash mid-append leaves a torn tail
that recovery truncates (the transaction never happened).

The catalog value: the committed state is one immutable, sealed
:class:`~repro.relational.query.Database`
(:meth:`TransactionManager.committed`) carrying (``result_cache=``)
the manager's query-result cache.  The commit
that changes the state derives it; no reader rebuilds it -- snapshots
pin it, server sessions, the cluster and view catalogs read it, so
embedded and served execution plan and cache against the same thing.

MVCC: because relations are immutable values, snapshot isolation is
pointer bookkeeping.  Every outermost state-changing commit is a
*version* (``current_version``, equal to the WAL transaction id it
logged, so the durable record and the MVCC history share one
numbering).  :meth:`TransactionManager.snapshot` pins the latest
*committed* catalog -- never in-progress transaction state, so a
reader opened before a nested rollback cannot observe the rolled-back
rows -- and arbitrarily many snapshots overlap the writer without
blocking it.  :meth:`TransactionManager.session` opens a read-write
:class:`SnapshotSession` whose mutations are buffered against the
pinned state (read-your-own-writes) and applied at :meth:`~
SnapshotSession.commit` under **first-committer-wins** conflict
detection: if any table the session wrote was committed past the
session's read version, commit raises a typed
:class:`~repro.errors.WriteConflictError` and the committed state is
untouched.  The version horizon is bounded: the manager tracks which
versions open snapshots pin (:meth:`retained_versions`) and a closing
snapshot immediately releases its pin -- old relation values become
garbage the moment the last snapshot reading them closes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from repro.errors import SchemaError, WriteConflictError
from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.relational.constraints import Table
from repro.relational.query import Database
from repro.relational.relation import Relation
from repro.relational.wal import WriteAheadLog

__all__ = ["TransactionManager", "Snapshot", "SnapshotSession", "CommitDiff"]

#: What a commit-diff listener receives, per changed table: the
#: heading's attribute names plus the inserted and deleted row sets --
#: the exact payload the WAL record carries, so subscribers (view
#: maintenance, cache invalidation) see the same ground truth
#: durability does.
CommitDiff = Mapping[str, Tuple[Tuple[str, ...], Any, Any]]


class TransactionManager:
    """Groups mutations on several tables into atomic, loggable units."""

    def __init__(self, tables: Mapping[str, Table],
                 log: Optional[WriteAheadLog] = None,
                 result_cache=None):
        self._tables: Dict[str, Table] = {}
        self._savepoints: List[Dict[str, tuple]] = []
        self._deferred_depth = 0
        self._log = log
        self._commits = 0
        # Replaced, never edited, by add_table and each state-changing
        # commit; sealed: what one reader did every reader would see.
        self._committed = Database(result_cache=result_cache)
        self._committed._sealed = True
        # MVCC bookkeeping: the version at which each table last
        # changed (first-committer-wins reads this) and the versions
        # currently pinned by open snapshots (the version horizon).
        self._table_versions: Dict[str, int] = {}
        self._open_snapshots: Dict[int, int] = {}
        self._snapshot_ids = 0
        # Commit-diff subscribers, notified *after* a state-changing
        # outermost commit is fully durable (post-WAL, post-version
        # bump) -- never for rollbacks or no-op transactions.
        self._listeners: List[Callable[[int, CommitDiff], None]] = []
        self._pending_notice: Optional[Tuple[int, Dict]] = None
        for name, table in tables.items():
            self.add_table(name, table)

    @property
    def tables(self) -> Dict[str, Table]:
        return dict(self._tables)

    @property
    def log(self) -> Optional[WriteAheadLog]:
        return self._log

    @property
    def result_cache(self):
        """The query-result cache the committed value carries, if any."""
        return self._committed.result_cache

    def committed(self) -> Database:
        """The latest committed state, the one catalog every reader
        holds: the same object until a commit (or :meth:`add_table`)
        changes the state -- open transactions and rollbacks do not."""
        return self._committed

    @property
    def commits(self) -> int:
        """Outermost commits that changed state (each one logged when
        a log is attached)."""
        return self._commits

    def _attach_result_cache(self, cache) -> None:
        """For ``Server(manager, result_cache_capacity=N)``, whose call
        shape predates ``result_cache=`` and is fixed by its benchmark."""
        self._committed._result_cache = cache

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError("unknown table %r" % (name,)) from None

    def add_table(self, name: str, table: Table) -> None:
        """Enrol one more table; its current value is its version 0 and
        a bare statement on it a commit of this manager from here on."""
        if self._savepoints:
            raise SchemaError(
                "cannot add table %r inside an open transaction" % (name,)
            )
        if name in self._tables:
            raise SchemaError("table %r already exists" % (name,))
        views = self._committed.views
        if views is not None and views.defines((name,)):
            raise SchemaError("table %r would shadow a view" % (name,))
        self._tables[name] = table
        table._owner = self
        self._committed = self._committed.with_relations(
            {name: table.snapshot()}
        )

    # ------------------------------------------------------------------
    # Savepoint mechanics
    # ------------------------------------------------------------------

    def _capture(self) -> Dict[str, tuple]:
        return {name: table.savepoint() for name, table in self._tables.items()}

    def _restore(self, savepoint: Dict[str, tuple]) -> None:
        for name, state in savepoint.items():
            self._tables[name].restore(state)

    def in_transaction(self) -> bool:
        return bool(self._savepoints)

    @property
    def depth(self) -> int:
        return len(self._savepoints)

    # ------------------------------------------------------------------
    # The transaction context
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self, deferred: bool = False) -> Iterator["TransactionManager"]:
        """Atomic scope: exceptions roll every table back.

        With ``deferred=True``, per-statement constraint checking is
        suspended for the enrolled tables inside the scope and every
        table that :meth:`Table.needs_check` is validated at the
        outermost commit instead -- so
        cross-table invariants may be transiently broken (insert the
        employee before its department) as long as the commit state is
        consistent.  Deferral nests: an inner scope ending does not
        resume per-statement checking while any enclosing deferred
        scope is still open, and commit-time validation runs exactly
        once, at the outermost commit.  A failed commit (validation or
        log append) restores the begin-state and re-raises.
        """
        savepoint = self._capture()
        self._savepoints.append(savepoint)
        if deferred:
            self._deferred_depth += 1
            if self._deferred_depth == 1:
                for table in self._tables.values():
                    table.defer_validation(True)
        try:
            yield self
        except BaseException:
            self._restore(savepoint)
            raise
        else:
            if len(self._savepoints) == 1:
                try:
                    # Last cancellation point before the commit becomes
                    # durable: a transaction past its deadline rolls
                    # back here rather than logging a late commit.
                    _gov_checkpoint("tx.commit")
                    for table in self._tables.values():
                        if table.needs_check():
                            table.check_now()
                    self._log_commit()
                except BaseException:
                    self._restore(savepoint)
                    raise
        finally:
            if deferred:
                self._deferred_depth -= 1
                if self._deferred_depth == 0:
                    for table in self._tables.values():
                        table.defer_validation(False)
            self._savepoints.pop()
        if not self._savepoints:
            # The commit is durable, versioned and *closed* (a listener
            # that pins a snapshot sees it); tell the subscribers.  A
            # listener exception propagates to the caller but can no
            # longer undo the commit.
            self._notify_listeners()

    def _log_commit(self) -> None:
        """Append one atomic commit record for the outermost scope.

        The record carries, per changed table, the inserted and
        deleted row sets (the net delta its statements accumulated)
        plus the heading, so recovery can redo the transaction --
        including re-creating tables born after the last checkpoint.
        No-op transactions log nothing.
        """
        began = self._savepoints[0]
        changes = {}
        for name in sorted(self._tables):
            table = self._tables[name]
            diff = table.commit_diff(began[name][0])
            if diff is not None:
                changes[name] = (tuple(table.heading.names), *diff)
        if not changes:
            return
        if self._log is not None:
            self._log.commit(self._commits + 1, changes)
        self._commits += 1
        # The WAL record above carries tx id == self._commits: the
        # durable numbering and the MVCC version are the same number,
        # and this is where that version's catalog value is derived.
        self._committed = self._committed.with_relations(
            {name: self._tables[name].snapshot() for name in changes}
        )
        cache = self._committed.result_cache
        if cache is not None:
            # Hygiene (ivm/cache.py): these entries cannot hit again.
            cache.invalidate_tables(tuple(changes))
        for name in changes:
            self._table_versions[name] = self._commits
        if self._listeners:
            # Stash the diff for transaction() to deliver *after* the
            # commit can no longer be rolled back -- firing here would
            # let a listener exception trigger _restore() on tables
            # whose changes the WAL already recorded.
            self._pending_notice = (self._commits, changes)

    def _notify_listeners(self) -> None:
        notice = self._pending_notice
        if notice is None:
            return
        self._pending_notice = None
        version, changes = notice
        for listener in list(self._listeners):
            listener(version, changes)

    # ------------------------------------------------------------------
    # Commit-diff subscriptions
    # ------------------------------------------------------------------

    def subscribe(self, listener: Callable[[int, CommitDiff], None]) -> None:
        """Call ``listener(version, changes)`` after each state-changing
        outermost commit.

        ``changes`` maps each changed table to ``(heading_names,
        inserted, deleted)`` -- the same immutable-diff payload the WAL
        record carries.  Listeners fire after the commit is durable and
        versioned; an exception from a listener propagates to the
        committer but never rolls the commit back.  Rollbacks and no-op
        transactions notify nothing.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[int, CommitDiff], None]) -> None:
        """Stop notifying ``listener``; unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # MVCC: snapshots, sessions, and the version horizon
    # ------------------------------------------------------------------

    @property
    def current_version(self) -> int:
        """The version of the latest committed state (0 = initial)."""
        return self._commits

    def table_version(self, name: str) -> int:
        """The commit version at which ``name`` last changed (0: never
        through this manager)."""
        self.table(name)  # raise SchemaError on unknown names
        return self._table_versions.get(name, 0)

    def _conflicts(self, written: Iterable[str],
                   read_version: int) -> List[str]:
        """The tables among ``written`` committed past ``read_version``."""
        return sorted([
            name for name in written
            if self._table_versions.get(name, 0) > read_version
        ])

    def _commit_ops(self, ops: Sequence[Tuple], written: Iterable[str],
                    read_version: int) -> int:
        """The one optimistic commit: first-committer-wins against
        ``read_version``, then ``("insert", table, row)`` /
        ``("delete", table, where)`` / ``("update", table, where,
        set)`` replayed inside one deferred transaction.  Returns the
        new current version; a conflict or a failing replay leaves the
        committed state untouched."""
        conflicting = self._conflicts(written, read_version)
        if conflicting:
            raise WriteConflictError(
                conflicting, read_version,
                max(self._table_versions[name] for name in conflicting),
            )
        with self.transaction(deferred=True):
            for op in ops:
                table = self.table(op[1])
                if op[0] == "insert":
                    table.insert(op[2])
                elif op[0] == "delete":
                    table.delete(op[2])
                else:
                    table.update(op[2], op[3])
        return self._commits

    def snapshot(self) -> "Snapshot":
        """Pin the latest committed state for reading.

        Returns a :class:`Snapshot` whose reads are stable against
        every later commit, rollback, and in-progress transaction.
        Close it (or use it as a context manager) to release its
        version pin.
        """
        return Snapshot(self)

    def session(self) -> "SnapshotSession":
        """Open a read-write snapshot-isolation session.

        Reads are pinned like :meth:`snapshot`; writes buffer against
        the pinned state and apply on :meth:`SnapshotSession.commit`
        under first-committer-wins conflict detection.
        """
        return SnapshotSession(self)

    def _register_snapshot(self, version: int) -> int:
        self._snapshot_ids += 1
        self._open_snapshots[self._snapshot_ids] = version
        return self._snapshot_ids

    def _release_snapshot(self, token: int) -> None:
        self._open_snapshots.pop(token, None)

    @property
    def open_snapshot_count(self) -> int:
        return len(self._open_snapshots)

    def retained_versions(self) -> List[int]:
        """The distinct versions still pinned, oldest first.

        The current version is always retained (it is the live state);
        every other entry is pinned by at least one open snapshot, so
        the horizon length is bounded by ``open_snapshot_count + 1``
        and shrinks the moment old snapshots close.
        """
        versions = set(self._open_snapshots.values())
        versions.add(self._commits)
        return sorted(versions)

    def version_horizon(self) -> int:
        """How far back the oldest pinned version trails the current."""
        retained = self.retained_versions()
        return self._commits - retained[0]


class Snapshot:
    """A pinned, read-only view of one committed version.

    Holds the manager's committed catalog at open time (one pointer,
    nothing copied), so reads cost a dict lookup and are stable
    against every concurrent writer.
    """

    def __init__(self, manager: TransactionManager):
        self._manager = manager
        self.version = manager.current_version
        #: The catalog value every reader pinned at :attr:`version` holds.
        self.database: Database = manager.committed()
        self._token: Optional[int] = manager._register_snapshot(self.version)

    @property
    def closed(self) -> bool:
        return self._token is None

    def names(self) -> List[str]:
        return self.database.names()

    def relation(self, name: str) -> Relation:
        """The pinned value of table ``name`` at :attr:`version`."""
        self._require_open()
        try:
            return self.database.relation(name)
        except SchemaError:
            raise SchemaError("unknown table %r" % (name,)) from None

    def _require_open(self) -> None:
        if self._token is None:
            raise SchemaError("snapshot is closed")

    def close(self) -> None:
        """Release the version pin; idempotent."""
        if self._token is not None:
            self._manager._release_snapshot(self._token)
            self._token = None

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return "%s(version=%d%s)" % (
            type(self).__name__, self.version,
            ", closed" if self.closed else "",
        )


class SnapshotSession(Snapshot):
    """A snapshot plus buffered writes and optimistic commit.

    Mutations apply to a private scratch copy of the pinned state
    (read-your-own-writes) and are recorded as an op list.  Nothing
    touches the shared tables until :meth:`commit`, which first runs
    first-committer-wins conflict detection and then replays the ops
    inside one ordinary deferred transaction -- constraint validation
    and WAL logging ride the existing commit path.  A conflicting or
    failing commit leaves the committed state byte-identical to before.
    """

    def __init__(self, manager: TransactionManager):
        super().__init__(manager)
        self._ops: List[Tuple] = []
        self._scratch: Dict[str, Table] = {}
        self._written: Set[str] = set()

    # -- reads ---------------------------------------------------------

    def relation(self, name: str) -> Relation:
        """Pinned state with this session's own writes applied."""
        scratch = self._scratch.get(name)
        if scratch is not None:
            self._require_open()
            return scratch.snapshot()
        return super().relation(name)

    # -- buffered writes ----------------------------------------------

    def _scratch_table(self, name: str) -> Table:
        """A constraint-free working copy seeded from the pinned state."""
        self._require_open()
        table = self._scratch.get(name)
        if table is None:
            # The pinned value itself: rows are immutable and already
            # validated, so the copy shares them.
            pinned = super().relation(name)
            table = Table(pinned.heading, pinned)
            self._scratch[name] = table
        self._written.add(name)
        return table

    def insert(self, name: str, row: Mapping[str, Any]) -> None:
        self._scratch_table(name).insert(row)
        self._ops.append(("insert", name, dict(row)))

    def delete(self, name: str, conditions: Mapping[str, Any]) -> int:
        removed = self._scratch_table(name).delete(conditions)
        self._ops.append(("delete", name, dict(conditions)))
        return removed

    def update(self, name: str, conditions: Mapping[str, Any],
               changes: Mapping[str, Any]) -> int:
        changed = self._scratch_table(name).update(conditions, changes)
        self._ops.append(("update", name, dict(conditions), dict(changes)))
        return changed

    # -- resolution ----------------------------------------------------

    def conflicts(self) -> List[str]:
        """Tables this session wrote that committed past its version."""
        return self._manager._conflicts(self._written, self.version)

    def commit(self) -> int:
        """Apply the buffered writes; returns the new commit version.

        Raises :class:`~repro.errors.WriteConflictError` when another
        committer won on any written table (the buffered writes are
        discarded, the committed state is untouched), or whatever the
        replay raises (constraint violation, failed WAL append) --
        in every failure case the ordinary transaction rollback
        restores the pre-commit state.  The session is closed either
        way; a retry opens a fresh session on the new version.
        """
        self._require_open()
        try:
            return self._manager._commit_ops(
                self._ops, self._written, self.version
            )
        finally:
            self.close()

    def rollback(self) -> None:
        """Discard the buffered writes and close the session."""
        self._ops.clear()
        self._scratch.clear()
        self._written.clear()
        self.close()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # Context-manager use commits on clean exit, rolls back on
        # exception -- the same discipline as transaction().
        if self.closed:
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
