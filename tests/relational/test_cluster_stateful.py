"""Stateful property testing: the cluster tracks its engine forever.

Hypothesis drives random interleavings of engine commits (inserts,
deletes, updates, a two-table transaction, a snapshot session),
refused writes, node kills and revivals, bucket moves, splits, merges
and queries against a replicated :class:`Cluster`.  The model is a
dict of frozensets, one per table, to which every *committed* write is
applied in order.  After *every* step, for every table:

* ``cluster.manager.table(t).snapshot()`` equals the model -- the
  engine is the one source of truth;
* every live replica of every bucket holds exactly its restriction of
  that relation, so what the surviving replicas serve through
  ``execute(Scan(t))`` is byte-equal to it -- and whenever a bucket's
  whole ring is dead, the read raises the typed
  :class:`ClusterUnavailableError` instead of answering wrongly;
* a refused write moved nothing: no fault-clock tick, no MVCC version,
  no WAL LSN, no cache counter and no replica.

This is the distributed counterpart of ``test_table_stateful.py``'s
"no reachable sequence of operations exposes an invalid state".
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import (
    ClusterUnavailableError,
    DeadlineExceededError,
    SchemaError,
)
from repro.gov import Deadline, governed
from repro.relational import algebra
from repro.relational.algebra import aggregate as local_aggregate
from repro.relational.algebra import Comparison
from repro.relational.constraints import IntegrityError, KeyConstraint
from repro.relational.distributed import Cluster
from repro.relational.faults import FaultPlan
from repro.relational.ivm import QueryResultCache
from repro.relational.query import Aggregate, Restrict, Scan
from repro.relational.relation import Relation
from repro.relational.wal import WriteAheadLog

HEADINGS = {
    "emp": ("emp", "name", "dept", "salary"),
    "dept": ("dept", "dname"),
}
NODES = 3
FACTOR = 2
DEPT_SPACE = 6
MAX_BUCKETS = 4 * NODES


def emp_row(emp, dept):
    return (emp, "e-%d" % emp, dept, 30000 + emp)


def emp_dicts(rows):
    return [dict(zip(HEADINGS["emp"], row)) for row in rows]


class ClusterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model = {
            "emp": frozenset(
                emp_row(emp, emp % DEPT_SPACE) for emp in range(8)
            ),
            "dept": frozenset(
                (dept, "d-%d" % dept) for dept in range(DEPT_SPACE)
            ),
        }
        self.next_id = 8
        self.scratch = tempfile.mkdtemp(prefix="cluster-machine-")
        self.log = WriteAheadLog(
            os.path.join(self.scratch, "wal.log"), sync=False
        )
        self.cache = QueryResultCache(capacity=8, name="cluster")
        self.cluster = Cluster(NODES, replication_factor=FACTOR,
                               log=self.log, result_cache=self.cache)
        for name in sorted(HEADINGS):
            self.cluster.create_table(name, self._relation(name), "dept")
        self.manager = self.cluster.manager
        self.manager.table("emp").add_constraint(KeyConstraint(["emp"]))

    def teardown(self):
        self.log.close()
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- the model -----------------------------------------------------

    def _relation(self, name):
        return Relation.from_tuples(HEADINGS[name], self.model[name])

    def _where(self, dept):
        return {row for row in self.model["emp"] if row[2] == dept}

    def _dead(self):
        return frozenset(
            node.index for node in self.cluster.nodes if not node.alive
        )

    def _available(self, name):
        return self.cluster.shard_map(name).survives(self._dead())

    def _moving(self):
        return any(not move.done for move in self.cluster.moves)

    def _fresh(self, count, dept):
        rows = [emp_row(self.next_id + i, dept) for i in range(count)]
        self.next_id += count
        return rows

    def _footprint(self):
        """Everything a refused write must leave exactly where it was."""
        return (
            self.cluster.ops,
            self.manager.current_version,
            self.log.lsn,
            (self.cache.hits, self.cache.misses, self.cache.stale,
             self.cache.invalidations, self.cache.evictions),
            self.cluster.network.messages,
            {
                (node.name, table, bucket): node.stored(table, bucket)
                for node in self.cluster.nodes
                for table in HEADINGS
                for bucket in node.buckets_held(table)
            },
        )

    # -- committed writes ----------------------------------------------

    @rule(count=st.integers(1, 3), dept=st.integers(0, DEPT_SPACE - 1))
    def insert_rows(self, count, dept):
        fresh = self._fresh(count, dept)
        assert self.cluster.insert("emp", emp_dicts(fresh)) == count
        self.model["emp"] |= frozenset(fresh)

    @rule(count=st.integers(1, 3), dept=st.integers(0, DEPT_SPACE - 1),
          victim=st.integers(0, NODES - 1))
    def crash_during_insert(self, count, dept, victim):
        # Kill-during-write: the victim dies on the first write tick of
        # the fan-out, so it misses this commit (and any replica steps
        # after the crash point) until a revive-time rebuild.  The
        # invariants must keep holding throughout.
        self.cluster.install_faults(
            FaultPlan().crash("node-%d" % victim, at_op=1)
        )
        try:
            self.insert_rows(count, dept)
        finally:
            self.cluster.clear_faults()

    @rule(dept=st.integers(0, DEPT_SPACE - 1))
    def delete_rows(self, dept):
        doomed = self._where(dept)
        with self.manager.transaction():
            removed = self.manager.table("emp").delete({"dept": dept})
        assert removed == len(doomed)
        self.model["emp"] -= doomed

    @rule(dept=st.integers(0, DEPT_SPACE - 1), step=st.integers(1, 9))
    def update_rows(self, dept, step):
        matched = self._where(dept)
        with self.manager.transaction():
            self.manager.table("emp").update(
                {"dept": dept}, {"salary": 50000 + step}
            )
        self.model["emp"] = (self.model["emp"] - matched) | {
            row[:3] + (50000 + step,) for row in matched
        }

    @rule(source=st.integers(0, DEPT_SPACE - 1),
          dest=st.integers(0, DEPT_SPACE - 1))
    def transfer_rows(self, source, dest):
        # An update of the partition attribute: the rows leave one
        # bucket and arrive in another inside one commit.
        matched = self._where(source)
        with self.manager.transaction():
            self.manager.table("emp").update(
                {"dept": source}, {"dept": dest}
            )
        self.model["emp"] = (self.model["emp"] - matched) | {
            row[:2] + (dest,) + row[3:] for row in matched
        }

    @rule(dept=st.integers(0, DEPT_SPACE - 1))
    def two_table_transaction(self, dept):
        # Rename the department and hire into it: one commit record,
        # one version, two tables' replicas.
        (hired,) = self._fresh(1, dept)
        renamed = (dept, "d-%d-v%d" % (dept, self.next_id))
        version = self.manager.current_version
        with self.manager.transaction(deferred=True):
            self.manager.table("emp").insert(emp_dicts([hired])[0])
            self.manager.table("dept").update(
                {"dept": dept}, {"dname": renamed[1]}
            )
        assert self.manager.current_version == version + 1
        self.model["emp"] |= {hired}
        self.model["dept"] = frozenset(
            renamed if row[0] == dept else row for row in self.model["dept"]
        )

    @rule()
    def snapshot_session_commit(self):
        (hired,) = self._fresh(1, 0)
        with self.manager.session() as session:
            session.insert("emp", emp_dicts([hired])[0])
        self.model["emp"] |= {hired}

    # -- refused writes ------------------------------------------------

    @precondition(lambda self: self.model["emp"])
    @rule(dept=st.integers(0, DEPT_SPACE - 1))
    def violating_write_moves_nothing(self, dept):
        # Two buckets' worth of rows, one of which reuses a key.
        taken = min(self.model["emp"])[0]
        clash = (taken, "clash", dept, 1)
        fresh = emp_row(self.next_id, (dept + 1) % DEPT_SPACE)
        before = self._footprint()
        with pytest.raises(IntegrityError):
            self.cluster.insert("emp", emp_dicts([fresh, clash]))
        assert self._footprint() == before

    @rule()
    def ill_headed_write_moves_nothing(self):
        before = self._footprint()
        with pytest.raises(SchemaError):
            self.cluster.insert("emp", [{"emp": self.next_id}])
        assert self._footprint() == before

    @rule()
    def governed_write_moves_nothing(self):
        spent = Deadline.simulated(1.0)
        spent.charge(2.0)
        before = self._footprint()
        with pytest.raises(DeadlineExceededError):
            with governed(deadline=spent):
                self.cluster.insert(
                    "emp", emp_dicts([emp_row(self.next_id, 0)])
                )
        assert self._footprint() == before

    # -- faults --------------------------------------------------------

    @rule(index=st.integers(0, NODES - 1))
    def kill_node(self, index):
        self.cluster.kill_node("node-%d" % index)

    @rule(index=st.integers(0, NODES - 1))
    def revive_node(self, index):
        self.cluster.revive_node("node-%d" % index)

    # -- placement changes ---------------------------------------------

    @precondition(lambda self: not self._moving())
    @rule(table=st.sampled_from(sorted(HEADINGS)))
    def split(self, table):
        if self.cluster.shard_map(table).bucket_count * 2 <= MAX_BUCKETS:
            self.cluster.split_table(table)

    @precondition(lambda self: not self._moving())
    @rule(table=st.sampled_from(sorted(HEADINGS)))
    def merge(self, table):
        if self.cluster.shard_map(table).bucket_count % 2 == 0:
            self.cluster.merge_table(table)

    @precondition(lambda self: not self._moving())
    @rule(table=st.sampled_from(sorted(HEADINGS)), pick=st.integers(0, 99))
    def begin_move(self, table, pick):
        shard_map = self.cluster.shard_map(table)
        bucket = pick % shard_map.bucket_count
        recipient = next(
            index for index in range(NODES)
            if index not in shard_map.replicas(bucket)
        )
        self.cluster.begin_move(table, bucket, recipient, chunk_rows=2)

    @precondition(lambda self: self._moving())
    @rule()
    def reshard_is_refused_mid_move(self):
        table = next(m.table for m in self.cluster.moves if not m.done)
        before = self._footprint()
        with pytest.raises(SchemaError):
            self.cluster.split_table(table)
        assert self._footprint() == before

    @rule()
    def step_move(self):
        self.cluster.step_rebalance()

    @precondition(lambda self: self._moving())
    @rule()
    def finish_moves(self):
        self.cluster.rebalance()
        assert not self._moving()

    # -- reads ---------------------------------------------------------

    @rule(dept=st.integers(0, DEPT_SPACE - 1))
    def routed_select(self, dept):
        shard_map = self.cluster.shard_map("emp")
        ring = shard_map.replicas(shard_map.bucket_for(dept))
        try:
            answer = self.cluster.execute(
                Restrict(Scan("emp"), (Comparison("dept", "=", dept),))
            )
        except ClusterUnavailableError:
            assert all(index in self._dead() for index in ring)
        else:
            assert answer == \
                algebra.restrict(self._relation("emp"),
                                 (Comparison("dept", "=", dept),))

    @rule()
    def aggregate(self):
        if not self._available("emp"):
            return
        spec = {"n": ("count", "emp"), "pay": ("sum", "salary")}
        assert self.cluster.execute(Aggregate(Scan("emp"), ["dept"], spec)) == \
            local_aggregate(self._relation("emp"), ["dept"], spec)

    @rule()
    def pinned_snapshot_ignores_later_commits(self):
        with self.manager.snapshot() as pinned:
            before = pinned.relation("emp")
            self.insert_rows(1, 0)
            assert pinned.relation("emp") == before

    # -- the invariants, after every step ------------------------------

    @invariant()
    def engine_matches_the_model(self):
        for name in HEADINGS:
            assert self.manager.table(name).snapshot() == \
                self._relation(name)

    @invariant()
    def live_replicas_hold_their_restriction(self):
        for name in HEADINGS:
            shard_map = self.cluster.shard_map(name)
            for bucket, part in enumerate(self.cluster._partitioned(name)):
                for index in shard_map.replicas(bucket):
                    node = self.cluster.nodes[index]
                    if node.alive:
                        assert node.bucket(name, bucket) == part

    @invariant()
    def reads_match_the_engine_or_raise_typed(self):
        # The coordinator cache may answer for a dead ring (the entry
        # is fingerprinted at the current version, so it is right);
        # what may never happen is a wrong answer, or a failure while
        # every bucket still has a live replica.
        for name in HEADINGS:
            try:
                answer = self.cluster.execute(Scan(name))
            except ClusterUnavailableError:
                assert not self._available(name)
            else:
                assert answer == self.manager.table(name).snapshot()


ClusterMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestClusterMachine = ClusterMachine.TestCase
