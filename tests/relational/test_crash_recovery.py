"""The crash-point property sweep: recovery is prefix-consistent.

A seeded 200-transaction workload runs through a logged
:class:`TransactionManager`.  The claim under test, for *every* crash
offset in the resulting log:

* the bytes on disk classify as a valid prefix plus (possibly) a torn
  tail -- never silently as a different valid log;
* ``recover()`` restores exactly the state after the last wholly
  durable commit -- no partial transactions;
* the recovered state still satisfies every table constraint.

The sweep has two gears.  Simulation-by-truncation covers **every**
byte offset cheaply (truncating a WAL-only log at ``k`` is byte-for-
byte what a crash at ``k`` leaves behind, because nothing else writes
to disk); seeded :class:`CrashPoint` reruns then validate that
equivalence end-to-end by actually crashing the workload at sampled
offsets and recovering from whatever survived -- including crashes
inside a checkpoint's segment rewrites, which truncation cannot model.

``REPRO_CRASH_SEED`` reseeds the whole sweep (CI runs several).
"""

import os
import random
import struct

import pytest

from repro.relational.constraints import (
    ForeignKeyConstraint,
    KeyConstraint,
    Table,
)
from repro.relational.disk import DiskRelationStore
from repro.relational.faults import FaultPlan
from repro.relational.tx import TransactionManager
from repro.relational.wal import (
    CrashPoint,
    SimulatedCrashError,
    WriteAheadLog,
    apply_commit,
    scan_bytes,
)

SEED = int(os.environ.get("REPRO_CRASH_SEED", "1301"))
TRANSACTIONS = 200


def build_tables():
    departments = Table(["dept", "dname"], [], [KeyConstraint(["dept"])])
    employees = Table(
        ["emp", "name", "dept"],
        [],
        [KeyConstraint(["emp"])],
    )
    employees.add_constraint(
        ForeignKeyConstraint(["dept"], departments.snapshot)
    )
    return {"dept": departments, "emp": employees}


def run_workload(log, checkpoint=None, store=None):
    """Drive the seeded workload; returns per-LSN expected states.

    ``expected[n]`` is the ``{table: rows}`` state after the log's
    n-th record.  Everything reaches the tables through logged
    transactions (even the seed department), so the log alone can
    reproduce any prefix.  A crash (``SimulatedCrashError`` from the
    injected opener) aborts the run mid-flight, like a power cut.
    """
    tables = build_tables()
    manager = TransactionManager(tables, log=log)
    rng = random.Random(SEED)
    expected = [
        {name: table.snapshot().rows for name, table in tables.items()}
    ]

    def committed():
        snap = {name: t.snapshot().rows for name, t in tables.items()}
        if snap != expected[-1]:  # no-op commits take no LSN
            expected.append(snap)

    with manager.transaction():
        tables["dept"].insert({"dept": 0, "dname": "seed"})
    committed()
    next_dept = 1
    next_emp = 0
    for tx in range(TRANSACTIONS):
        kind = rng.random()
        with manager.transaction(deferred=True):
            if kind < 0.25:
                # A new department and its first employee, employee
                # first: only the deferred commit-time check passes.
                tables["emp"].insert({
                    "emp": next_emp, "name": "n%d" % next_emp,
                    "dept": next_dept,
                })
                tables["dept"].insert({
                    "dept": next_dept, "dname": "d%d" % next_dept,
                })
                next_emp += 1
                next_dept += 1
            elif kind < 0.85 or next_emp == 0:
                tables["emp"].insert({
                    "emp": next_emp, "name": "n%d" % next_emp,
                    "dept": rng.randrange(next_dept),
                })
                next_emp += 1
            else:
                tables["emp"].delete({"emp": rng.randrange(next_emp)})
        committed()
        if checkpoint is not None and tx == checkpoint:
            assert store is not None
            store.checkpoint(
                log, {name: t.snapshot() for name, t in tables.items()}
            )
            # The marker takes an LSN without changing table state.
            expected.append(dict(expected[-1]))
    return expected


def comparable(state):
    """Recovered {name: Relation} as {name: rows}, dropping empties.

    Replay cannot know about a table no durable record mentions, so
    an empty, never-touched table legitimately has no recovered
    entry; comparisons ignore empty relations on both sides.
    """
    return {
        name: relation.rows
        for name, relation in state.items()
        if len(relation.rows)
    }


def comparable_expected(snap):
    return {name: rows for name, rows in snap.items() if len(rows)}


def assert_valid_recovery(state, expected_states, exact=None):
    """Recovered state is an expected prefix state and constraint-valid."""
    got = comparable(state)
    if exact is not None:
        assert got == comparable_expected(exact)
    else:
        assert got in [comparable_expected(s) for s in expected_states]
    rebuilt = build_tables()
    # Reinserting every recovered row under the original constraints
    # re-validates everything: keys, and the cross-table foreign key.
    if "dept" in state:
        rebuilt["dept"].insert_many(state["dept"].iter_dicts())
    if "emp" in state:
        rebuilt["emp"].insert_many(state["emp"].iter_dicts())
        rebuilt["emp"].check_now()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One clean run of the workload: its log bytes + expected states."""
    directory = str(tmp_path_factory.mktemp("recorded"))
    path = os.path.join(directory, "wal.log")
    log = WriteAheadLog(path, sync=False)
    expected = run_workload(log)
    log.close()
    with open(path, "rb") as fh:
        data = fh.read()
    return data, expected


class TestEveryTruncationOffset:
    """Simulation-by-truncation: the exhaustive gear of the sweep."""

    def test_every_offset_classifies_as_prefix_plus_torn_tail(self, recorded):
        data, _ = recorded
        scan = scan_bytes(data, decode=False)
        assert scan.corrupt_at is None and scan.torn_bytes == 0
        boundaries = [0, 8]  # empty file; bare header
        offset = 8
        for _ in scan.records:
            # Walk the framing independently of the scanner.
            length, = struct.unpack_from(">I", data, offset)
            offset += 8 + length
            boundaries.append(offset)
        assert offset == len(data)
        # The classification is piecewise constant between boundaries,
        # so checking each boundary and its neighbors covers every
        # offset's equivalence class.
        for boundary in boundaries:
            for cut in (boundary - 1, boundary, boundary + 1):
                if not 0 <= cut <= len(data):
                    continue
                prefix = scan_bytes(data[:cut], decode=False)
                assert prefix.corrupt_at is None
                assert prefix.valid_bytes + prefix.torn_bytes == cut
                assert prefix.valid_bytes in boundaries

    def test_every_durable_prefix_recovers_the_matching_state(self, recorded):
        data, expected = recorded
        scan = scan_bytes(data, decode=True)
        assert scan.lsn == len(expected) - 1
        # Incremental replay: after n records the replayed state must
        # equal the workload's state after its n-th commit -- for
        # every n, which covers every crash offset (recovery at any
        # offset replays exactly some prefix of records).
        current = {}
        for index, (_, record) in enumerate(scan.records):
            apply_commit(current, record)
            got = comparable(current)
            assert got == comparable_expected(expected[index + 1]), (
                "diverged after record %d" % (index + 1)
            )

    def test_random_interior_offsets_recover_prefixes(self, recorded,
                                                      tmp_path):
        data, expected = recorded
        rng = random.Random(SEED + 1)
        store = DiskRelationStore(str(tmp_path / "store"))
        # Frame boundaries are covered exhaustively by the incremental
        # replay test; 16 seeded interior offsets exercise the full
        # truncate-then-recover pipeline end to end.
        for cut in sorted(rng.sample(range(len(data) + 1), 16)):
            path = str(tmp_path / "cut.log")
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            log = WriteAheadLog(path, sync=False)
            state = store.recover(log)
            log.close()
            lsn = scan_bytes(data[:cut], decode=False).lsn
            assert_valid_recovery(state, expected, exact=expected[lsn])


class TestCrashPointReruns:
    """The end-to-end gear: really crash, really recover."""

    def test_seeded_crash_points_recover_prefix_states(self, recorded,
                                                       tmp_path):
        data, expected = recorded
        plan = FaultPlan.crash_sweep(SEED, total_bytes=len(data), points=8)
        for point in plan.crash_points():
            budget = point.after_bytes
            directory = str(tmp_path / ("crash-%d" % budget))
            os.makedirs(directory)
            path = os.path.join(directory, "wal.log")
            log = WriteAheadLog(path, sync=False, opener=point.open)
            try:
                run_workload(log)
            except SimulatedCrashError:
                pass
            log.close()
            with open(path, "rb") as fh:
                survived = fh.read()
            # Determinism: the crashed run's disk is exactly the
            # recorded log truncated at the budget -- so the
            # exhaustive truncation sweep above really does model
            # every end-to-end crash.
            assert survived == data[:budget]
            lsn = scan_bytes(survived, decode=False).lsn
            store = DiskRelationStore(directory)
            state = store.recover(WriteAheadLog(path, sync=False))
            assert_valid_recovery(state, expected, exact=expected[lsn])

    def test_crash_inside_a_checkpoint_still_recovers(self, tmp_path):
        # A clean run with a mid-workload checkpoint sizes the store's
        # I/O stream (the budget probe counts segment + meta bytes)...
        clean_dir = str(tmp_path / "clean")
        os.makedirs(clean_dir)
        probe = CrashPoint()  # no budget: pure byte counter
        clean_store = DiskRelationStore(clean_dir, opener=probe.open)
        clean_log = WriteAheadLog(
            os.path.join(clean_dir, "wal.log"), sync=False
        )
        expected = run_workload(
            clean_log, checkpoint=TRANSACTIONS // 2, store=clean_store
        )
        clean_log.close()
        total = probe.bytes_written
        assert total > 0
        # ...then reruns crash at sampled offsets *inside* the
        # checkpoint's atomic segment rewrites.  The log itself is
        # never torn here; what recovery must absorb is a store left
        # mid-checkpoint (some tables at the new vintage, no marker).
        rng = random.Random(SEED + 2)
        for budget in sorted(rng.sample(range(total), 5)):
            directory = str(tmp_path / ("ckpt-crash-%d" % budget))
            os.makedirs(directory)
            point = CrashPoint(after_bytes=budget)
            store = DiskRelationStore(directory, opener=point.open)
            path = os.path.join(directory, "wal.log")
            log = WriteAheadLog(path, sync=False)
            try:
                run_workload(log, checkpoint=TRANSACTIONS // 2, store=store)
            except SimulatedCrashError:
                pass
            log.close()
            recovery_log = WriteAheadLog(path, sync=False)
            lsn = recovery_log.scan(decode=False).lsn
            fresh = DiskRelationStore(directory)  # the restarted process
            state = fresh.recover(recovery_log)
            assert_valid_recovery(state, expected, exact=expected[lsn])


class TestClusterLogsThroughItsEngine:
    """A cluster built with ``log=`` commits every write through its
    manager's WAL, so the one log recovers the cluster's tables and
    dates every epoch swing against the commits around it."""

    def test_reopened_log_recovers_and_dates_the_epochs(self, tmp_path):
        from repro.relational.algebra import join
        from repro.relational.distributed import Cluster
        from repro.relational.query import Join, Scan
        from repro.relational.relation import Relation
        from repro.relational.wal import (
            COMMIT,
            commit_tx_id,
            epoch_change,
            record_kind,
            recover_state,
        )

        loaded = {
            "users": Relation.from_dicts(
                ["id", "city"],
                [{"id": i, "city": "c%d" % (i % 3)} for i in range(24)],
            ),
            "orders": Relation.from_dicts(
                ["oid", "id"],
                [{"oid": i, "id": i % 24} for i in range(40)],
            ),
        }
        path = str(tmp_path / "cluster.wal")
        log = WriteAheadLog(path)
        cluster = Cluster(4, replication_factor=2, log=log)
        for name, relation in loaded.items():
            cluster.create_table(name, relation, "id")
        manager = cluster.manager
        assert manager.log is log
        assert log.lsn == 0  # the loads are base values, not commits

        cluster.insert("users", [{"id": 100 + i, "city": "new"}
                                 for i in range(5)])          # commit 1
        shard_map = cluster.shard_map("users")
        cluster.begin_move("users", 1, recipient=next(
            index for index in range(4)
            if index not in shard_map.replicas(1)
        ))
        cluster.rebalance()                                   # users -> e2
        cluster.kill_node("node-2")
        with manager.transaction():                           # commit 2
            manager.table("users").delete({"city": "c0"})
            manager.table("orders").update({"id": 3}, {"id": 4})
        cluster.split_table("orders")                         # orders -> e2
        cluster.insert("orders", [{"oid": 900, "id": 7}])     # commit 3
        cluster.revive_node("node-2")
        # Join sizing reads the value those commits made.
        assert len(manager.committed().relation("users")) == 24 + 5 - 8
        assert cluster.execute(Join(Scan("users"), Scan("orders"))) == join(
            manager.table("users").snapshot(),
            manager.table("orders").snapshot(),
        )
        log.close()

        records = WriteAheadLog(path).replay()
        state, replayed = recover_state(records, base=loaded)
        assert replayed == 3
        for name in loaded:
            assert state[name] == manager.table(name).snapshot()
            assert cluster.execute(Scan(name)) == state[name]
        assert [
            commit_tx_id(record) if record_kind(record) == COMMIT
            else epoch_change(record)
            for record in records
        ] == [1, ("users", 2), 2, ("orders", 2), 3]
