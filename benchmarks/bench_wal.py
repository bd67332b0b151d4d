"""Experiment E21 harness: the price of durability.

Series: raw WAL append with and without per-record fsync, the same
comparison at the transaction level, crash recovery over a prebuilt
~200-commit log (replay-only vs checkpoint + tail), the
checkpoint/compact maintenance cycle, and a replica rebuild by set
difference against the committed relation.  Reproduced shape: the
log's own cost is dominated by canonical serialization + CRC (fsync
adds a fixed per-record tax that depends on the filesystem); at the
transaction level the append is a small fraction of commit cost, so
durability rides nearly free on the immutable-value diff; recovery is
linear in the replayed suffix, so checkpoints buy recovery latency
with write-time segment I/O; a rebuild ships only the rows the node
missed, whatever the cluster size or write count.
"""

import os

import pytest

from repro.relational.constraints import KeyConstraint, Table
from repro.relational.disk import DiskRelationStore
from repro.relational.distributed import Cluster
from repro.relational.tx import TransactionManager
from repro.relational.wal import WriteAheadLog
from repro.workloads import employee_relation

COMMITS = 200
ROWS_PER_COMMIT = 4


def build_tables():
    return {
        "emp": Table(
            ["emp", "name", "dept", "salary"], [], [KeyConstraint(["emp"])]
        )
    }


def run_commits(manager, tables, commits=COMMITS, start=0):
    emp = start
    for _ in range(commits):
        batch = []
        for _ in range(ROWS_PER_COMMIT):
            batch.append({
                "emp": emp, "name": "e-%d" % emp,
                "dept": emp % 16, "salary": 30000 + emp,
            })
            emp += 1
        with manager.transaction():
            tables["emp"].insert_many(batch)
    return emp


@pytest.mark.parametrize("sync", (False, True), ids=("nosync", "fsync"))
def test_raw_append(benchmark, tmp_path, sync):
    # The log alone: serialize + CRC + one write (+ fsync) per record,
    # no transaction machinery in the measured path.
    from repro.relational.relation import Relation
    from repro.xst.builders import xset

    log = WriteAheadLog(str(tmp_path / "wal.log"), sync=sync)
    delta = Relation.from_dicts(
        ["emp", "name", "dept", "salary"],
        [{"emp": 1, "name": "e-1", "dept": 1, "salary": 30001}],
    )
    changes = {"emp": (tuple(delta.heading.names), delta.rows, xset([]))}
    state = {"tx": 0}

    def one_append():
        state["tx"] += 1
        log.commit(state["tx"], changes)

    benchmark(one_append)
    assert log.lsn == state["tx"]


@pytest.mark.parametrize("sync", (False, True), ids=("nosync", "fsync"))
def test_append_throughput(benchmark, tmp_path, sync):
    # A fixed-size resident table; each measured commit updates one
    # row, so every round logs the same constant-size delta.
    log = WriteAheadLog(str(tmp_path / "wal.log"), sync=sync)
    tables = build_tables()
    manager = TransactionManager(tables, log=log)
    run_commits(manager, tables, commits=25)
    state = {"flip": 0}

    def one_commit():
        state["flip"] ^= 1
        with manager.transaction():
            tables["emp"].update(
                {"emp": 0}, {"salary": 10000 + state["flip"]}
            )

    benchmark(one_commit)
    assert log.lsn > 25


@pytest.fixture(scope="module")
def recorded_log(tmp_path_factory):
    """A ~200-commit log plus a store checkpointed at mid-workload."""
    directory = str(tmp_path_factory.mktemp("wal-bench"))
    log = WriteAheadLog(os.path.join(directory, "wal.log"), sync=False)
    store = DiskRelationStore(directory)
    tables = build_tables()
    manager = TransactionManager(tables, log=log)
    emp = run_commits(manager, tables, commits=COMMITS // 2)
    store.checkpoint(
        log, {name: t.snapshot() for name, t in tables.items()}
    )
    run_commits(manager, tables, commits=COMMITS // 2, start=emp)
    log.close()
    return directory


@pytest.fixture(scope="module")
def plain_log(tmp_path_factory):
    """The same ~200 commits with no checkpoint: full replay from zero."""
    directory = str(tmp_path_factory.mktemp("wal-plain"))
    log = WriteAheadLog(os.path.join(directory, "wal.log"), sync=False)
    tables = build_tables()
    run_commits(TransactionManager(tables, log=log), tables)
    log.close()
    return directory


def test_recover_replay_only(benchmark, plain_log, tmp_path):
    # An empty store: recovery replays every commit record from zero.
    log = WriteAheadLog(os.path.join(plain_log, "wal.log"), sync=False)
    bare = DiskRelationStore(str(tmp_path / "bare"))
    state = benchmark(bare.recover, log)
    assert state["emp"].cardinality() == COMMITS * ROWS_PER_COMMIT
    log.close()


def test_recover_from_checkpoint(benchmark, recorded_log):
    # The checkpointed store: load the snapshot, replay only the tail.
    log = WriteAheadLog(os.path.join(recorded_log, "wal.log"), sync=False)
    store = DiskRelationStore(recorded_log)
    state = benchmark(store.recover, log)
    assert state["emp"].cardinality() == COMMITS * ROWS_PER_COMMIT
    log.close()


def test_checkpoint_and_compact_cycle(benchmark, tmp_path):
    directory = str(tmp_path / "ckpt")
    log = WriteAheadLog(os.path.join(directory, "..", "wal.log"), sync=False)
    store = DiskRelationStore(directory)
    tables = build_tables()
    manager = TransactionManager(tables, log=log)
    run_commits(manager, tables, commits=50)
    snapshots = {name: t.snapshot() for name, t in tables.items()}

    def cycle():
        store.checkpoint(log, snapshots)
        log.compact()

    benchmark(cycle)
    log.close()


def test_replica_rebuild_by_set_difference(benchmark):
    cluster = Cluster(4, replication_factor=2)
    cluster.create_table("emp", employee_relation(800, 16, seed=91), "dept")
    cluster.kill_node("node-1")
    cluster.insert("emp", [
        {"emp": 9000 + i, "name": "r-%d" % i, "dept": i % 16,
         "salary": 40000 + i}
        for i in range(200)
    ])
    node = cluster.node_named("node-1")
    stale = {
        bucket: node.stored("emp", bucket)
        for bucket in node.buckets_held("emp")
    }

    def rebuild():
        for bucket, copy in stale.items():
            node.store("emp", copy, bucket)  # lag again, every round
        cluster._rebuild(node)

    benchmark(rebuild)
    truth = cluster._partitioned("emp")
    assert all(node.stored("emp", b) == truth[b] for b in stale)
