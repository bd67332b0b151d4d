"""Multi-table transactions over constraint-guarded tables.

A transaction is a delta over the value it read.  The committed state
is one immutable, sealed :class:`~repro.relational.query.Database`
(:meth:`TransactionManager.committed`); an open transaction is that
value plus one map, ``{table: (working relation, net delta since it
began)}``, over the tables its statements touched.  The manager holds
it, an enrolled :class:`~repro.relational.constraints.Table` holds
nothing, and a statement replaces one entry::

    manager = TransactionManager({"emp": emp_table, "dept": dept_table})
    with manager.transaction():
        dept_table.insert({...})
        emp_table.insert({...})
    # both applied; any exception inside the block rolled both back

Scopes nest: a scope rolls back by going back to the transaction as it
began, leaving the outer scope as it was, and only the outermost scope
commits.  With ``deferred=True`` statements are not checked; the commit
checks each changed table through its delta rules over its net delta,
so mutually-referential updates (insert the department and its
employees) order-independently succeed or fail as a unit (DESIGN.md
§3, "One checking rule").

Durability: with ``log=`` a
:class:`~repro.relational.wal.WriteAheadLog`, every state-changing
commit appends **one atomic record** of the net deltas (and, the first
time after :meth:`~TransactionManager.add_table`, the new table's
heading) *before* the commit is visible.  A failed append leaves the
committed state as it was, so memory never runs ahead of the log; a
crash mid-append leaves a torn tail that recovery truncates.  A table
touched to no net effect keeps the value the transaction read.

The catalog value carries (``result_cache=``) the manager's
query-result cache; the commit that changes the state derives it, and
snapshots, server sessions, the cluster and view catalogs read it.

MVCC: every state-changing commit is a *version* (``current_version``,
equal to the WAL transaction id it logged).
:meth:`TransactionManager.snapshot` pins the latest committed catalog
-- never an open transaction -- and never blocks a writer.
:meth:`TransactionManager.session` opens a :class:`SnapshotSession`, a
deferred transaction at its pinned version (read-your-own-writes)
committed under **first-committer-wins**: if a table it wrote was
committed past its version, commit raises a typed
:class:`~repro.errors.WriteConflictError` and changes nothing.  The
version horizon is bounded: a closing snapshot releases its pin
(:meth:`~TransactionManager.retained_versions`).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import groupby
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from repro.errors import SchemaError, WriteConflictError, notify_error
from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.relational.constraints import _NO_DIFF, Diff, Table, _moved, _then
from repro.relational.query import Database
from repro.relational.relation import Relation
from repro.relational.wal import WriteAheadLog
from repro.xst.xset import XSet

__all__ = ["TransactionManager", "Snapshot", "SnapshotSession", "CommitDiff"]

#: What a commit-diff listener receives, per changed table: its
#: :class:`~repro.relational.schema.Heading` plus the inserted and
#: deleted row sets -- the rows the WAL record carries, so subscribers
#: (the cluster's replication) see the same ground truth durability
#: does.
CommitDiff = Mapping[str, Tuple[Any, Any, Any]]


class TransactionManager:
    """Groups mutations on several tables into atomic, loggable units."""

    def __init__(self, tables: Mapping[str, Table],
                 log: Optional[WriteAheadLog] = None,
                 result_cache=None):
        self._tables: Dict[str, Table] = {}
        # Enrolled tables with a constraint that has no delta rule: it
        # reads state their own delta cannot see (a delete in ``dept``
        # breaks ``emp``'s foreign key), so every commit checks them.
        self._guarded: Dict[str, Table] = {}
        # The open transaction, None between transactions: the committed
        # value it read, ``{table: (working value, net delta since it
        # began)}`` for each table a statement touched, and whether some
        # statement ran unchecked.  Never edited: a statement replaces
        # it, a scope rolls back by going back to the one it began with.
        self._open: Optional[Tuple[Database, Dict, bool]] = None
        self._depth = 0
        self._deferral = False  # an open scope defers statement checks
        self._log = log
        # Enrolled tables whose heading no log record carries yet: the
        # next state-changing commit record introduces them.
        self._unlogged: Dict[str, Tuple[str, ...]] = {}
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
        """Enrol one more table; its current value is its version 0, and
        from here on the manager holds it and a bare statement on it is
        a commit of this manager."""
        if self._open is not None:
            raise SchemaError(
                "cannot add table %r inside an open transaction" % (name,)
            )
        if name in self._tables:
            raise SchemaError("table %r already exists" % (name,))
        views = self._committed.views
        if views is not None and views.defines((name,)):
            raise SchemaError("table %r would shadow a view" % (name,))
        relation = table.snapshot()
        self._tables[name] = table
        table._owner, table._name, table._relation = self, name, None
        if not all(hasattr(constraint, "check_delta")
                   for constraint in table.constraints):
            self._guarded[name] = table
        if self._log is not None:
            self._unlogged[name] = table.heading.names
        self._committed = self._committed.with_relations({name: relation})

    # ------------------------------------------------------------------
    # The open transaction
    # ------------------------------------------------------------------

    def in_transaction(self) -> bool:
        return bool(self._depth)

    @property
    def depth(self) -> int:
        return self._depth

    def _value(self, name: str) -> Relation:
        """Table ``name``'s value: the open transaction's working value,
        else the committed one."""
        opened = self._open
        if opened is None:
            return self._committed.relation(name)
        entry = opened[1].get(name)
        return opened[0].relation(name) if entry is None else entry[0]

    def _unverified(self, name: str) -> Tuple[Relation, Diff]:
        """What :meth:`Table.check_now` checks: table ``name``'s value,
        and the rows its delta rules have not seen -- the net delta once
        a statement ran unchecked (a checked one saw its own step)."""
        opened = self._open
        entry = None if opened is None else opened[1].get(name)
        if entry is None or not opened[2]:
            return self._value(name), _NO_DIFF
        return entry

    def _write(self, table: Table, inserted: XSet, deleted: XSet) -> None:
        """One statement of the open transaction: ``table`` moves by the
        exact step ``(inserted, deleted)``, checked against the
        candidate unless checks are deferred.  A refused step leaves the
        transaction as it was."""
        read, tables, unverified = self._open
        name = table._name
        entry = tables.get(name)
        current, net = (read.relation(name), _NO_DIFF) if entry is None \
            else entry
        if net[1] and inserted:
            # A row this transaction deleted and now inserts again nets
            # out of the diff, so the log keeps the spelling it deleted
            # (``v = 1`` for ``v = 1.0``); memory keeps that one too.
            revived = net[1] & inserted
            if revived:
                inserted = (inserted - revived) | revived
        candidate = _moved(current, inserted, deleted)
        if self._deferral:
            unverified = True
        else:
            table._check(candidate, (inserted, deleted))
        self._open = (read, {
            **tables, name: (candidate, _then(net, inserted, deleted)),
        }, unverified)

    # ------------------------------------------------------------------
    # The transaction context
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self, deferred: bool = False) -> Iterator["TransactionManager"]:
        """Atomic scope: exceptions roll every table back.

        With ``deferred=True``, statements inside the scope are not
        checked; the outermost commit checks every table they changed,
        through each delta rule over its net delta -- so cross-table
        invariants may be transiently broken (insert the employee before
        its department) as long as the commit state is consistent.
        Deferral nests: an inner scope ending does not resume
        per-statement checking while any enclosing deferred scope is
        still open.  Only the outermost scope commits; a failed commit
        (a check or the log append) leaves the committed state as it
        was and re-raises.
        """
        outermost = self._open is None
        if outermost:
            self._open = (self._committed, {}, False)
        began, deferral = self._open, self._deferral
        self._depth += 1
        self._deferral = deferral or deferred
        notice = None
        try:
            yield self
            if outermost:
                notice = self._commit()
        except BaseException:
            self._open = began
            raise
        finally:
            self._depth -= 1
            self._deferral = deferral
            if outermost:
                self._open = None
        if notice is not None:
            # The commit is durable, versioned and *closed* (a listener
            # that pins a snapshot sees it); tell the subscribers.
            for listener in list(self._listeners):
                try:
                    listener(*notice)
                except Exception as error:  # the commit stands: report
                    notify_error(error)

    def _commit(self) -> Optional[Tuple[int, Dict[str, Tuple]]]:
        """Commit the open transaction: the ``tx.commit`` checkpoint,
        the checks, one WAL record of each changed table's net delta
        (with the headings no record carries yet), the new catalog value
        and version.  Returns ``(version, changes)`` for the listeners,
        ``None`` when no table changed: nothing is logged, and a table
        touched to no net effect keeps the value the transaction read.
        """
        # Last cancellation point before the commit becomes durable: a
        # transaction past its deadline rolls back here rather than
        # logging a late commit.
        _gov_checkpoint("tx.commit")
        _, tables, unverified = self._open
        changes = {}
        for name in sorted(tables):
            inserted, deleted = tables[name][1]
            if inserted or deleted:
                changes[name] = (self._tables[name].heading, inserted, deleted)
        checked = {**changes, **self._guarded} if unverified \
            else self._guarded
        for name in checked:
            self._tables[name].check_now()
        if not changes:
            return None
        version = self._commits + 1
        if self._log is not None:
            self._log.commit(version, changes, self._unlogged)
            self._unlogged = {}
        # The WAL record above carries tx id == version: the durable
        # numbering and the MVCC version are the same number, and this
        # is where that version's catalog value is derived.
        self._commits = version
        self._committed = self._committed.with_relations(
            {name: tables[name][0] for name in changes}
        )
        cache = self._committed.result_cache
        if cache is not None:
            # Hygiene (ivm/cache.py): these entries cannot hit again.
            cache.invalidate_tables(tuple(changes))
        for name in changes:
            self._table_versions[name] = version
        return version, changes

    # ------------------------------------------------------------------
    # Commit-diff subscriptions
    # ------------------------------------------------------------------

    def subscribe(self, listener: Callable[[int, CommitDiff], None]) -> None:
        """Call ``listener(version, changes)`` after each state-changing
        outermost commit.

        ``changes`` maps each changed table to ``(heading, inserted,
        deleted)`` -- the same immutable row sets the WAL record
        carries.  Listeners fire after the commit is durable and
        versioned, every one of them: an exception from a listener goes
        to the flight recorder's hook (:func:`repro.errors.notify_error`)
        and neither reaches the committer, whose commit stands, nor stops
        the listeners after it.  Rollbacks and no-op transactions notify
        nothing.
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

    def _first_committer_wins(self, written: Iterable[str],
                              read_version: int) -> None:
        """Refuse a commit of ``written`` read at ``read_version`` when
        another committer changed one of those tables since."""
        conflicting = self._conflicts(written, read_version)
        if conflicting:
            raise WriteConflictError(
                conflicting, read_version,
                max(self._table_versions[name] for name in conflicting),
            )

    def _commit_ops(self, ops: Sequence[Tuple], written: Iterable[str],
                    read_version: int) -> int:
        """The served optimistic commit: first-committer-wins against
        ``read_version``, then ``("insert", table, row)`` /
        ``("delete", table, where)`` / ``("update", table, where,
        set)`` applied inside one deferred transaction.  Each run of
        consecutive inserts, or of deletes, on one table is one
        statement -- one row set added, one restriction by the set of
        the wheres removed -- with the net delta the ops make one by
        one; an update stays its own statement, since it may match a
        row an earlier one rewrote.  Returns the new current version; a
        conflict or a failing op leaves the committed state untouched."""
        self._first_committer_wins(written, read_version)
        with self.transaction(deferred=True):
            for (kind, name), run in groupby(ops, key=itemgetter(0, 1)):
                table = self.table(name)
                if kind == "insert":
                    table.insert(*[op[2] for op in run])
                elif kind == "delete":
                    table.delete(*[op[2] for op in run])
                else:
                    for op in run:
                        table.update(op[2], op[3])
        return self._commits

    @contextmanager
    def _within(self, session: "SnapshotSession") -> Iterator[None]:
        """Make ``session``'s transaction the open one while its
        statements run: they read its pinned value, write its map and
        are checked at its commit.  Any open transaction of the manager
        is put aside and comes back untouched."""
        held = self._open, self._deferral
        self._open, self._deferral = session._open, True
        try:
            yield
            session._open = self._open
        finally:
            self._open, self._deferral = held

    def _commit_session(self, session: "SnapshotSession") -> int:
        """First-committer-wins against the session's version, then its
        map committed as this manager's transaction: the same checks,
        record and version as any commit, no statement run again."""
        self._first_committer_wins(session._written, session.version)
        if self._open is not None:
            raise SchemaError("a session commits outside any open transaction")
        with self.transaction(deferred=True):
            # Every table it wrote is as it read it: its map applies to
            # the committed value as it stands.
            self._open = (self._committed, session._open[1], True)
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

        Reads are pinned like :meth:`snapshot`; writes are a deferred
        transaction over the pinned state, committed by
        :meth:`SnapshotSession.commit` under first-committer-wins
        conflict detection.
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
    """A snapshot plus a deferred transaction opened at its version.

    Writes are statements of that transaction: they read the pinned
    state and this session's own writes (read-your-own-writes) and
    build one map of working values and net deltas, as any transaction
    does, touching nothing shared.  :meth:`commit` runs
    first-committer-wins conflict detection and then commits the map
    through the manager's one commit routine -- constraint checks, WAL
    record, version -- with no statement run again.  A conflicting or
    failing commit leaves the committed state byte-identical to before.
    """

    def __init__(self, manager: TransactionManager):
        super().__init__(manager)
        # The transaction, as TransactionManager._open spells one.
        self._open = (self.database, {}, True)
        self._written: Set[str] = set()

    # -- reads ---------------------------------------------------------

    def relation(self, name: str) -> Relation:
        """Pinned state with this session's own writes applied."""
        entry = self._open[1].get(name)
        if entry is not None:
            self._require_open()
            return entry[0]
        return super().relation(name)

    # -- writes ----------------------------------------------------------

    def _write(self, name: str, statement: str, *args) -> Any:
        self._require_open()
        table = self._manager.table(name)
        self._written.add(name)
        with self._manager._within(self):
            return getattr(table, statement)(*args)

    def insert(self, name: str, row: Mapping[str, Any]) -> None:
        self._write(name, "insert", row)

    def delete(self, name: str, conditions: Mapping[str, Any]) -> int:
        return self._write(name, "delete", conditions)

    def update(self, name: str, conditions: Mapping[str, Any],
               changes: Mapping[str, Any]) -> int:
        return self._write(name, "update", conditions, changes)

    # -- resolution ----------------------------------------------------

    def conflicts(self) -> List[str]:
        """Tables this session wrote that committed past its version."""
        return self._manager._conflicts(self._written, self.version)

    def commit(self) -> int:
        """Commit the writes; returns the new commit version.

        Raises :class:`~repro.errors.WriteConflictError` when another
        committer won on any written table (the writes are discarded,
        the committed state is untouched), or what the commit raises
        (constraint violation, failed WAL append), which leaves the
        committed state as it was too.  A session commits outside any
        open transaction of its manager.  The session is closed either
        way; a retry opens a fresh session on the new version.
        """
        self._require_open()
        try:
            return self._manager._commit_session(self)
        finally:
            self.close()

    def rollback(self) -> None:
        """Discard the writes and close the session."""
        self._open = (self.database, {}, True)
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
