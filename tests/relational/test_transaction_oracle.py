"""A transaction is a delta over the value it read: the oracle.

Hypothesis drives one logged :class:`TransactionManager` over a keyed
table (``kv``), a keyless one (``ab``) and a foreign-key-linked pair
(``emp.d`` names a ``dept.d``) through nested scopes up to three deep,
deferred or not, committed or rolled back; bare statements; statements
refused inside a scope that then goes on; ``_commit_ops`` batches;
``manager.session()`` writes, commits, rollbacks and conflicts; and
snapshots opened in the middle of a transaction.  Values, twins
included, come from the one pool (``tests/values.py``).

The model is a dict of frozensets per committed version, plus the
working state of the open scopes.  A row keeps the spelling it was
inserted with, except a row the transaction read: deleted and inserted
again, it keeps the spelling it was read with.  After every step:

* ``committed()`` equals the model's current version, ``dumps`` too,
  and every open snapshot still reads the version it pinned;
* ``Table.snapshot()`` shows the innermost scope's writes, and a
  session reads its own;
* each commit appends one WAL record whose rows are the model's net
  delta, moves ``current_version`` by one and tells the listener that
  delta, once the scope has closed;
* a refusal is typed, and a refused commit moves no LSN, no version
  and no cache counter.

Where the model cannot say which of two twins a statement keeps (an
update rewriting two rows onto one) the step is skipped.  A statement
in a non-deferred scope is refused when the rows it leaves break its
table's constraints; when a deferred scope nested inside had already
left that table's key broken, it may be refused then or at the commit.

Seeded by ``REPRO_WORKLOAD_SEED`` (default 101), so a failure replays.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.errors import IntegrityError, WriteConflictError
from repro.relational.constraints import (
    ForeignKeyConstraint, KeyConstraint, Table,
)
from repro.relational.ivm import QueryResultCache
from repro.relational.query import Scan
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.relational.tx import TransactionManager
from repro.relational.wal import WriteAheadLog, commit_changes, commit_tx_id
from repro.xst.serialization import dumps
from tests.values import TWINS, atoms, values

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "101"))

HEADINGS = {"kv": ("k", "v"), "ab": ("a", "b"), "dept": ("d", "dn"),
            "emp": ("e", "d")}
#: Tables whose first attribute is a key.
KEYED = ("kv", "dept", "emp")
NAMES = sorted(HEADINGS)

#: Department numbers and employee keys: few, so they meet, twins too.
DEPTS = TWINS[0] + TWINS[1][:2] + ("1", None)
EMPS = TWINS[0] + (0, 2, 3.0)

INITIAL = {
    "kv": [(1, "x"), (2.0, "y")],
    "ab": [(True, "x"), (1, "y")],
    "dept": [(1, "one"), ("1", "text")],
    "emp": [(1, 1.0), (2, "1")],
}

#: Each attribute's values: (first, second) per table.
DOMAINS = {
    "kv": (atoms, values),
    "ab": (atoms, values),
    "dept": (st.sampled_from(DEPTS), values),
    "emp": (st.sampled_from(EMPS), st.sampled_from(DEPTS)),
}


class Skip(Exception):
    """The model cannot say which spelling the step keeps."""


class Present(Exception):
    """An inserted row is already there: refused before any change."""


# ----------------------------------------------------------------------
# The model: frozensets of row tuples, one spelling per member
# ----------------------------------------------------------------------

def matches(name, row, where):
    names = HEADINGS[name]
    return all(row[names.index(attr)] == value
               for attr, value in where.items())


def apply(op, current, read):
    """``(rows after, count)`` of one op on ``current``; ``read`` is the
    table's value when the transaction began."""
    kind, name, *args = op
    spelled = {row: row for row in read}
    if kind == "insert":
        row = tuple(args[0][attr] for attr in HEADINGS[name])
        if row in current:
            raise Present(row)
        return current | {spelled.get(row, row)}, 1
    matched = [row for row in current if matches(name, row, args[0])]
    if kind == "delete":
        return current - frozenset(matched), len(matched)
    names = HEADINGS[name]
    rewritten = [tuple(args[1].get(attr, value)
                       for attr, value in zip(names, row))
                 for row in matched]
    if len(set(rewritten)) < len(rewritten):
        raise Skip(op)
    inserted = {spelled.get(row, row) for row in rewritten
                if row not in current}
    deleted = frozenset(row for row in matched if row not in set(rewritten))
    return (current - deleted) | inserted, len(matched)


def key_broken(name, rows):
    return name in KEYED and len({row[0] for row in rows}) != len(rows)


def dangling(state):
    held = {row[0] for row in state["dept"]}
    return any(row[1] not in held for row in state["emp"])


def valid(state):
    return not dangling(state) and not any(
        key_broken(name, state[name]) for name in KEYED)


def relation(name, rows):
    return Relation.from_tuples(HEADINGS[name], sorted(rows, key=repr))


def rows_of(name, xset):
    """A row set the log or a listener carries, as row tuples."""
    return frozenset(Relation(Heading(HEADINGS[name]), xset).to_rows())


def same(name, got, rows):
    """``got`` holds ``rows``, spelled alike."""
    assert frozenset(got.to_rows()) == rows, name
    assert dumps(got.rows) == dumps(relation(name, rows).rows), name


# ----------------------------------------------------------------------
# Drawn ops
# ----------------------------------------------------------------------

@st.composite
def ops(draw, names=NAMES):
    name = draw(st.sampled_from(names))
    first, second = HEADINGS[name]
    left, right = DOMAINS[name]
    kind = draw(st.sampled_from(("insert",) * 3 + ("delete",) * 2
                                + ("update",) * 2))
    if kind == "insert":
        return ("insert", name, {first: draw(left), second: draw(right)})
    where = draw(st.one_of(
        st.fixed_dictionaries({first: left}),
        st.fixed_dictionaries({second: right}),
        st.fixed_dictionaries({first: left, second: right}),
        st.just({}),
    ))
    if kind == "delete":
        return ("delete", name, where)
    change = draw(st.sampled_from((first, second)))
    return ("update", name, where,
            {change: draw(left if change == first else right)})


def call(table, op):
    kind, _, *args = op
    if kind == "insert":
        table.insert(args[0])
        return 1
    if kind == "delete":
        return table.delete(args[0])
    return table.update(args[0], args[1])


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------

@seed(WORKLOAD_SEED)
class TransactionOracle(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="tx-oracle-")
        self.log = WriteAheadLog(
            os.path.join(self.directory, "wal.log"), sync=False)
        tables = {
            name: Table(HEADINGS[name],
                        [dict(zip(HEADINGS[name], row)) for row in rows],
                        [KeyConstraint([HEADINGS[name][0]])]
                        if name in KEYED else [])
            for name, rows in INITIAL.items()
        }
        tables["emp"].add_constraint(
            ForeignKeyConstraint(["d"], tables["dept"].snapshot))
        self.cache = QueryResultCache(capacity=8)
        self.manager = TransactionManager(tables, log=self.log,
                                          result_cache=self.cache)
        self.heard = []
        self.manager.subscribe(
            lambda version, changes: self.heard.append((version, changes)))
        #: The model: the tables' rows at each committed version.
        self.versions = [{name: frozenset(rows)
                          for name, rows in INITIAL.items()}]
        self.changed_at = dict.fromkeys(NAMES, 0)
        #: Open scopes: (context manager, working state at begin, deferred).
        self.scopes = []
        self.state = dict(self.versions[0])
        self.snapshots = []  # (snapshot, version)
        self.sessions = []   # (session, version, working state, written)

    @property
    def committed(self):
        return self.versions[-1]

    # -- the commit every path ends in ----------------------------------

    def expect_commit(self, act, final):
        """Run ``act``, an outermost commit of ``final``, or its refusal
        with an :class:`IntegrityError` when ``final`` breaks a rule."""
        manager = self.manager
        before = manager.committed()
        moved = (self.log.lsn, manager.current_version,
                 self.cache.snapshot(), len(self.heard))
        if not valid(final):
            with pytest.raises(IntegrityError):
                act()
            assert manager.committed() is before
            assert (self.log.lsn, manager.current_version,
                    self.cache.snapshot(), len(self.heard)) == moved
            return None
        answer = act()
        changed = [name for name in NAMES
                   if final[name] != self.committed[name]]
        if not changed:
            assert manager.committed() is before
            assert (self.log.lsn, manager.current_version,
                    len(self.heard)) == moved[:2] + moved[3:]
            return answer
        old = self.committed
        self.versions.append({**old, **{name: final[name]
                                        for name in changed}})
        version = len(self.versions) - 1
        for name in changed:
            self.changed_at[name] = version
        delta = {name: (final[name] - old[name], old[name] - final[name])
                 for name in changed}
        record = self.log.replay()[-1]
        assert commit_tx_id(record) == version == self.log.lsn
        logged = commit_changes(record)
        assert [name for name, _, _ in logged] == changed
        for name, inserted, deleted in logged:
            for half, rows in zip((inserted, deleted), delta[name]):
                assert rows_of(name, half) == rows
                assert dumps(half) == dumps(relation(name, rows).rows)
        assert len(self.heard) == moved[3] + 1
        heard_version, changes = self.heard[-1]
        assert heard_version == version and sorted(changes) == changed
        for name, (heading, inserted, deleted) in changes.items():
            assert heading.names == HEADINGS[name]
            assert (rows_of(name, inserted), rows_of(name, deleted)) \
                == delta[name]
        return answer

    # -- scopes ----------------------------------------------------------

    @precondition(lambda self: len(self.scopes) < 3)
    @rule(deferred=st.booleans())
    def begin(self, deferred):
        scope = self.manager.transaction(deferred=deferred)
        scope.__enter__()
        self.scopes.append((scope, dict(self.state), deferred))

    @precondition(lambda self: self.scopes)
    @rule()
    def end(self):
        scope, _, _ = self.scopes.pop()
        if self.scopes:
            scope.__exit__(None, None, None)
            return
        self.expect_commit(lambda: scope.__exit__(None, None, None),
                           self.state)
        self.state = dict(self.committed)

    @precondition(lambda self: self.scopes)
    @rule()
    def rollback(self):
        scope, began, _ = self.scopes.pop()
        before = self.manager.committed()
        heard = len(self.heard)
        error = RuntimeError("abort")
        assert not scope.__exit__(RuntimeError, error, None)
        self.state = began
        assert self.manager.committed() is before
        assert len(self.heard) == heard

    # -- statements --------------------------------------------------------

    @rule(op=ops())
    def statement(self, op):
        name = op[1]
        table = self.manager.table(name)
        read = self.committed[name]
        try:
            after, count = apply(op, self.state[name], read)
        except Skip:
            return
        except Present:
            with pytest.raises(IntegrityError, match="already present"):
                call(table, op)
            return
        candidate = {**self.state, name: after}
        if not self.scopes:
            # A bare statement: a transaction of its own.
            answer = self.expect_commit(lambda: call(table, op), candidate)
            if answer is not None:
                assert answer == count
            self.state = dict(self.committed)
            return
        if any(deferred for _, _, deferred in self.scopes):
            assert call(table, op) == count
            self.state = candidate
            return
        refused = (name == "emp" and dangling(candidate)) or (
            key_broken(name, after)
            and not key_broken(name, self.state[name]))
        maybe = key_broken(name, after) and not refused
        if refused:
            with pytest.raises(IntegrityError):
                call(table, op)
            return
        try:
            assert call(table, op) == count
        except IntegrityError:
            assert maybe, op
            return
        self.state = candidate

    @precondition(lambda self: not self.scopes)
    @rule(batch=st.lists(ops(), min_size=1, max_size=4), data=st.data())
    def commit_ops(self, batch, data):
        manager = self.manager
        read_version = data.draw(st.integers(0, manager.current_version))
        written = {op[1] for op in batch}
        if any(self.changed_at[name] > read_version for name in written):
            before = (manager.committed(), self.log.lsn, len(self.heard))
            with pytest.raises(WriteConflictError):
                manager._commit_ops(batch, written, read_version)
            assert (manager.committed(), self.log.lsn,
                    len(self.heard)) == before
            return
        final = dict(self.committed)
        try:
            for op in batch:
                final[op[1]] = apply(op, final[op[1]],
                                     self.committed[op[1]])[0]
        except Skip:
            return
        except Present:
            before = (manager.committed(), self.log.lsn, len(self.heard))
            with pytest.raises(IntegrityError, match="already present"):
                manager._commit_ops(batch, written, read_version)
            assert (manager.committed(), self.log.lsn,
                    len(self.heard)) == before
            return
        answer = self.expect_commit(
            lambda: manager._commit_ops(batch, written, read_version), final)
        if answer is not None:
            assert answer == manager.current_version
        self.state = dict(self.committed)

    # -- sessions ----------------------------------------------------------

    @precondition(lambda self: len(self.sessions) < 3)
    @rule()
    def open_session(self):
        self.sessions.append((self.manager.session(),
                              self.manager.current_version, {}, set()))

    @precondition(lambda self: self.sessions)
    @rule(op=ops(), data=st.data())
    def session_write(self, op, data):
        session, version, working, written = data.draw(
            st.sampled_from(self.sessions))
        kind, name, *args = op
        pinned = self.versions[version][name]
        write = getattr(session, kind)
        written.add(name)
        try:
            after, count = apply(op, working.get(name, pinned), pinned)
        except Skip:
            return
        except Present:
            with pytest.raises(IntegrityError, match="already present"):
                write(name, *args)
            return
        assert write(name, *args) == (None if kind == "insert" else count)
        working[name] = after

    @precondition(lambda self: self.sessions and not self.scopes)
    @rule(data=st.data())
    def session_commit(self, data):
        index = data.draw(st.integers(0, len(self.sessions) - 1))
        session, version, working, written = self.sessions.pop(index)
        manager = self.manager
        if any(self.changed_at[name] > version for name in written):
            before = (manager.committed(), self.log.lsn, len(self.heard))
            with pytest.raises(WriteConflictError):
                session.commit()
            assert (manager.committed(), self.log.lsn,
                    len(self.heard)) == before
        else:
            answer = self.expect_commit(session.commit,
                                        {**self.committed, **working})
            if answer is not None:
                assert answer == manager.current_version
            self.state = dict(self.committed)
        assert session.closed

    @precondition(lambda self: self.sessions)
    @rule(data=st.data())
    def session_rollback(self, data):
        index = data.draw(st.integers(0, len(self.sessions) - 1))
        session, _, _, _ = self.sessions.pop(index)
        before = (self.manager.committed(), self.log.lsn)
        session.rollback()
        assert session.closed
        assert (self.manager.committed(), self.log.lsn) == before

    # -- readers -------------------------------------------------------------

    @precondition(lambda self: len(self.snapshots) < 4)
    @rule()
    def open_snapshot(self):
        self.snapshots.append((self.manager.snapshot(),
                               self.manager.current_version))

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def close_snapshot(self, data):
        index = data.draw(st.integers(0, len(self.snapshots) - 1))
        snapshot, _ = self.snapshots.pop(index)
        snapshot.close()

    @rule(name=st.sampled_from(NAMES))
    def read(self, name):
        """A cached read of the committed value: a later commit has
        entries to invalidate."""
        same(name, self.manager.committed().execute(Scan(name)),
             self.committed[name])

    # -- after every step ------------------------------------------------

    @invariant()
    def agrees(self):
        manager = self.manager
        assert manager.current_version == len(self.versions) - 1
        assert self.log.lsn == manager.current_version
        assert manager.depth == len(self.scopes)
        committed = manager.committed()
        for name in NAMES:
            same(name, committed.relation(name), self.committed[name])
            same(name, manager.table(name).snapshot(), self.state[name])
            assert manager.table_version(name) == self.changed_at[name]
        for snapshot, version in self.snapshots:
            for name in NAMES:
                same(name, snapshot.relation(name),
                     self.versions[version][name])
        for session, version, working, _ in self.sessions:
            for name in NAMES:
                rows = working.get(name, self.versions[version][name])
                assert frozenset(session.relation(name).to_rows()) == rows

    def teardown(self):
        while self.scopes:
            scope, _, _ = self.scopes.pop()
            scope.__exit__(RuntimeError, RuntimeError("teardown"), None)
        for session, _, _, _ in self.sessions:
            session.rollback()
        for snapshot, _ in self.snapshots:
            snapshot.close()
        self.log.close()
        shutil.rmtree(self.directory, ignore_errors=True)


TransactionOracle.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestTransactionOracle = TransactionOracle.TestCase
