"""The crash-point property sweep: recovery is prefix-consistent.

A seeded 200-transaction workload runs through a logged
:class:`TransactionManager`; a fifth of its transactions are MUTATE
batches (``_commit_ops``) whose run of inserts, or of deletes, is one
statement and so one commit frame.  The claim under test, for *every*
crash offset in the resulting log:

* the bytes on disk classify as a valid prefix plus (possibly) a torn
  tail -- never silently as a different valid log;
* ``recover()`` restores exactly the state after the last wholly
  durable commit -- no partial transactions, a batch wholly or not
  at all;
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
    CHECKPOINT,
    CrashPoint,
    SimulatedCrashError,
    WriteAheadLog,
    apply_commit,
    commit_changes,
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
        if 0.65 <= kind < 0.85 and next_emp:
            # A MUTATE batch: a run of two to four inserts, or of
            # deletes (absent and repeated keys included), is one
            # statement and one commit frame.
            size = rng.randint(2, 4)
            if kind < 0.75:
                ops = [("insert", "emp", {
                    "emp": next_emp + i, "name": "n%d" % (next_emp + i),
                    "dept": rng.randrange(next_dept),
                }) for i in range(size)]
                next_emp += size
            else:
                ops = [("delete", "emp", {"emp": rng.randrange(next_emp)})
                       for _ in range(size)]
            manager._commit_ops(ops, {"emp"}, manager.current_version)
        else:
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
                elif kind < 0.9 or next_emp == 0:
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
        # Batch frames are among them: a commit adding several
        # employees, and one removing several.
        sizes = [(len(inserted), len(deleted))
                 for _, record in scan.records
                 for name, inserted, deleted in commit_changes(record)
                 if name == "emp"]
        assert max(inserted for inserted, _ in sizes) >= 2
        assert max(deleted for _, deleted in sizes) >= 2
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
        from repro.relational.sharding import ShardMap
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
        def dated(record):
            if record_kind(record) == COMMIT:
                return commit_tx_id(record)
            table, shard_map = epoch_change(record)
            return table, ShardMap.from_xset(shard_map).epoch

        assert [dated(record) for record in records] \
            == [1, ("users", 2), 2, ("orders", 2), 3]


def frame_boundaries(data):
    """``(records, offset)`` at the end of every whole frame."""
    offset, out = 8, [(0, 8)]
    while offset < len(data):
        length, = struct.unpack_from(">I", data, offset)
        offset += 8 + length
        out.append((len(out), offset))
    return out


class TestTheLogIsTheCatalogsHistory:
    """The crash sweep over DDL, rows and epoch swings.

    A seeded workload enrols tables (placed on a logged cluster or
    not, before and after a checkpoint, every one empty so the log
    alone holds its rows), commits into them, swings epochs, and runs
    ``repro recover --compact`` once.  After every operation it notes
    what a crash right then must recover, keyed by the log's bytes:
    the committed value of every table a durable record introduced,
    and the cluster's shard maps.  At every durable prefix of the log
    -- before compaction and after -- recovery through the store and
    :func:`placements` must give exactly that, and every table's
    heading is in exactly one record.
    """

    def test_every_durable_prefix_recovers_tables_and_placement(
        self, tmp_path
    ):
        from collections import Counter

        from repro.cli import main
        from repro.relational.distributed import Cluster
        from repro.relational.relation import Relation
        from repro.relational.sharding import placements
        from repro.relational.wal import (
            COMMIT,
            MAGIC,
            commit_created,
            record_kind,
        )

        rng = random.Random(SEED + 3)
        directory = str(tmp_path / "store")
        path = os.path.join(directory, "wal.log")
        store = DiskRelationStore(directory)
        log = WriteAheadLog(path)  # synced: each record is on disk
        cluster = Cluster(4, replication_factor=2, log=log)
        manager = cluster.manager
        # Tables no durable record introduces yet: a crash loses them.
        undurable = set()
        expected = {}
        ids = iter(range(10 ** 6))

        def log_bytes():
            if not os.path.exists(path):
                return MAGIC  # a log never appended to is empty
            with open(path, "rb") as fh:
                return fh.read()

        def maps(catalog):
            return {name: catalog.get(name) for name in catalog.names()}

        def note():
            state = (
                {name: manager.committed().relation(name)
                 for name in manager.tables if name not in undurable},
                maps(cluster.shard_catalog()),
            )
            # Whatever changed without a record must not matter.
            assert expected.setdefault(log_bytes(), state) == state

        def enrol(name, placed):
            empty = Relation.from_dicts(["id", "v"], [])
            if placed:
                # A placement is durable from its first swing (or a
                # checkpoint carrying it): split at once.
                cluster.create_table(name, empty, "id")
                cluster.split_table(name)
            else:
                manager.add_table(name, Table(empty.heading))
            undurable.add(name)
            note()

        def commit():
            names = sorted(set(manager.tables) - {"tags"})
            with manager.transaction():
                for name in rng.sample(names, min(2, len(names))):
                    table = manager.table(name)
                    rows = sorted(row["id"] for row in
                                  table.snapshot().iter_dicts())
                    if rows and rng.random() < 0.25:
                        table.delete({"id": rng.choice(rows)})
                    else:
                        table.insert({"id": next(ids), "v": rng.random()})
            undurable.clear()
            note()

        def swing():
            name = rng.choice(sorted(cluster.shard_catalog().names()))
            shard_map = cluster.shard_map(name)
            kind = rng.random()
            if kind < 0.3:
                cluster.split_table(name)
            elif kind < 0.5 and shard_map.bucket_count % 2 == 0:
                cluster.merge_table(name)
            else:
                recipient = next(index for index in range(4)
                                 if index not in shard_map.replicas(0))
                cluster.begin_move(name, 0, recipient)
                cluster.rebalance()
            note()

        def mixed(steps):
            for _ in range(steps):
                commit() if rng.random() < 0.7 else swing()

        def check_prefixes(first):
            """Recover every durable prefix holding ``first``+ records;
            returns the whole log's records."""
            data = log_bytes()
            cut = str(tmp_path / "prefix.log")
            for count, offset in frame_boundaries(data):
                if count < first:
                    continue
                with open(cut, "wb") as fh:
                    fh.write(data[:offset])
                tables, placed = expected[data[:offset]]
                assert store.recover(WriteAheadLog(cut, sync=False)) \
                    == tables, "tables diverged after record %d" % count
                records = [r for _, r in scan_bytes(data[:offset]).records]
                assert maps(placements(records)) == placed, (
                    "placement diverged after record %d" % count
                )
            return [r for _, r in scan_bytes(data).records]

        def introductions(records):
            return Counter(
                name for record in records if record_kind(record) == COMMIT
                for name, _ in commit_created(record)
            )

        note()  # the empty log: nothing recovers
        enrol("users", placed=True)
        enrol("notes", placed=False)
        mixed(8)
        enrol("orders", placed=True)
        mixed(8)
        store.checkpoint(
            log, {name: manager.committed().relation(name)
                  for name in manager.tables},
            shards=cluster.shard_catalog(),
        )
        undurable.clear()
        note()
        enrol("tags", placed=False)  # never written: stays empty
        enrol("audit", placed=True)
        mixed(10)
        records = check_prefixes(first=0)
        assert introductions(records) == Counter(list(manager.tables))
        assert len(manager.committed().relation("tags")) == 0

        log.close()  # compaction replaces the file under the handle
        assert main(["recover", directory, "--compact"]) == 0
        note()
        assert record_kind(WriteAheadLog(path).replay()[0]) == CHECKPOINT
        logged_at_checkpoint = set(manager.tables) - undurable
        enrol("late", placed=False)
        mixed(10)
        # A compacted log starts at its checkpoint; shorter prefixes
        # never exist on disk.
        records = check_prefixes(first=1)
        assert introductions(records) == Counter(
            list(set(manager.tables) - logged_at_checkpoint)
        )
