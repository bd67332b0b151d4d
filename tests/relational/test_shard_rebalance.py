"""Online rebalancing under the deterministic fault harness.

The crash-safety contract these tests state: every seeded crash point
in a rebalance-under-load run recovers with **no acked write lost**
and **exactly one epoch owning every bucket**, and the recovered
buckets digest byte-equal to a never-crashed control run of the same
workload.
"""

import pytest

from repro.errors import (
    BudgetExceededError,
    ShardMovedError,
    ShardPlacementError,
)
from repro.gov import governed
from repro.obs import instrument, metrics
from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster
from repro.relational.faults import FaultPlan
from repro.relational.query import Aggregate, Join, Project, Restrict, Scan
from repro.relational.relation import Relation
from repro.relational.sharding import (
    ShardMap,
    ShardMove,
    bucket_digest,
    placements,
)
from repro.relational.wal import (
    COMMIT,
    EPOCH,
    CrashPoint,
    SimulatedCrashError,
    WriteAheadLog,
    epoch_change,
    record_kind,
)
from repro.server.protocol import error_body, error_from_body


def people(count, start=0):
    return [
        {"id": start + i, "city": "c%d" % ((start + i) % 3)}
        for i in range(count)
    ]


def build_cluster(rows=48, nodes=4, factor=2, **kwargs):
    cluster = Cluster(nodes, replication_factor=factor, **kwargs)
    cluster.create_table(
        "users", Relation.from_dicts(["id", "city"], people(rows)), "id"
    )
    return cluster


def off_ring_node(shard_map, bucket, node_count):
    return next(
        index for index in range(node_count)
        if index not in shard_map.replicas(bucket)
    )


def run_workload(plan=None, seed_rows=48, insert_batches=4):
    """One scripted rebalance-under-load run; returns the cluster.

    Deterministic: the same inserts at the same step offsets every
    time, so two runs differ only by the fault plan.
    """
    cluster = build_cluster(rows=seed_rows)
    if plan is not None:
        cluster.install_faults(plan)
    shard_map = cluster.shard_map("users")
    recipient = off_ring_node(shard_map, 1, 4)
    move = cluster.begin_move("users", 1, recipient=recipient,
                              chunk_rows=8)
    batch = 0
    steps = 0
    while not move.done and steps < 500:
        progressed = cluster.step_rebalance()
        steps += 1
        if steps % 3 == 0 and batch < insert_batches:
            cluster.insert("users", people(6, start=1000 + batch * 6))
            batch += 1
        if not progressed:
            for index in (move.donor, move.recipient):
                node = cluster.nodes[index]
                if not node.alive:
                    cluster.on_revive(node)
    while batch < insert_batches:
        cluster.insert("users", people(6, start=1000 + batch * 6))
        batch += 1
    assert move.done, "move did not converge in 500 steps"
    for node in cluster.nodes:
        if not node.alive:
            cluster.on_revive(node)
    return cluster


def bucket_digests(cluster, table):
    """Digest of every bucket of the committed relation."""
    return {
        bucket: bucket_digest(part)
        for bucket, part in enumerate(cluster._partitioned(table))
    }


def assert_replicas_match_truth(cluster, table):
    """Every live replica of every bucket equals its restriction of
    the committed relation."""
    shard_map = cluster.shard_map(table)
    for bucket, part in enumerate(cluster._partitioned(table)):
        truth = bucket_digest(part)
        for index in shard_map.replicas(bucket):
            held = bucket_digest(cluster.nodes[index].bucket(table, bucket))
            assert held == truth, (
                "bucket %d on node %d diverged from the committed relation"
                % (bucket, index)
            )


class TestMoveLifecycle:
    def test_states_traverse_in_order(self):
        cluster = build_cluster()
        shard_map = cluster.shard_map("users")
        recipient = off_ring_node(shard_map, 0, 4)
        move = cluster.begin_move("users", 0, recipient=recipient,
                                  chunk_rows=8)
        seen = [move.state]
        while not move.done:
            cluster.step_rebalance()
            if move.state != seen[-1]:
                seen.append(move.state)
        assert seen == ["copy", "catch_up", "swing", "verify", "gc", "done"]

    def test_move_preserves_answers_and_bumps_epoch(self):
        cluster = build_cluster()
        before = cluster.execute(Scan("users"))
        shard_map = cluster.shard_map("users")
        recipient = off_ring_node(shard_map, 2, 4)
        donor = shard_map.primary(2)
        cluster.begin_move("users", 2, recipient=recipient)
        cluster.rebalance()
        after_map = cluster.shard_map("users")
        assert after_map.epoch == 2
        assert recipient in after_map.replicas(2)
        assert donor not in after_map.replicas(2)
        assert cluster.execute(Scan("users")).rows == before.rows
        # The donor's source copy was garbage-collected outright.
        assert cluster.nodes[donor].stored("users", 2) is None
        assert cluster.status()["moves"] == []

    def test_begin_move_validates_endpoints(self):
        from repro.errors import SchemaError

        cluster = build_cluster()
        shard_map = cluster.shard_map("users")
        on_ring = shard_map.replicas(0)[1]
        with pytest.raises(SchemaError):
            cluster.begin_move("users", 0, recipient=on_ring)
        with pytest.raises(SchemaError):
            cluster.begin_move("users", 99, recipient=3)
        with pytest.raises(SchemaError):
            cluster.begin_move(
                "users", 0,
                recipient=off_ring_node(shard_map, 0, 4),
                donor=off_ring_node(shard_map, 0, 4),
            )

    def test_move_under_load_loses_no_acked_write(self):
        cluster = run_workload()
        result = cluster.execute(Scan("users"))
        ids = {row["id"] for row in result.iter_dicts()}
        assert set(range(48)) <= ids
        assert {1000 + i for i in range(24)} <= ids
        assert_replicas_match_truth(cluster, "users")


class TestStaleEpoch:
    def test_reads_refuse_stale_epoch_typed(self):
        cluster = build_cluster()
        shard_map = cluster.shard_map("users")
        cluster.begin_move(
            "users", 0, recipient=off_ring_node(shard_map, 0, 4)
        )
        cluster.rebalance()
        with pytest.raises(ShardMovedError) as exc:
            cluster.execute(Scan("users"), epoch=1)
        assert exc.value.requested_epoch == 1
        assert exc.value.current_epoch == 2
        # Refresh-and-retry is exactly one call with the new epoch.
        assert cluster.execute(Scan("users"), epoch=2).cardinality() == 48
        with pytest.raises(ShardMovedError):
            cluster.execute(Restrict(Scan("users"),
                                     (Comparison("id", "=", 3),)), epoch=1)
        with pytest.raises(ShardMovedError):
            cluster.execute(
                Aggregate(Scan("users"), ("city",), {"n": ("count", "id")}),
                epoch=1,
            )

    def test_epoch_mapping_shape(self):
        cluster = build_cluster()
        assert cluster.execute(
            Scan("users"), epoch={"users": 1}
        ).cardinality() == 48
        cluster.split_table("users")
        with pytest.raises(ShardMovedError):
            cluster.execute(Scan("users"), epoch={"users": 1})
        # Tables absent from the mapping are treated as unversioned.
        assert cluster.execute(
            Scan("users"), epoch={"other": 9}
        ).cardinality() == 48

    def test_join_checks_both_sides(self):
        cluster = build_cluster()
        cluster.create_table(
            "orders",
            Relation.from_dicts(
                ["oid", "id"], [{"oid": i, "id": i % 48} for i in range(60)]
            ),
            "id",
        )
        cluster.split_table("orders")
        with pytest.raises(ShardMovedError):
            cluster.execute(
                Join(Scan("users"), Scan("orders")), epoch={"orders": 1}
            )


class TestCrashSweep:
    """Seeded kills of the move's endpoints, swept across seeds.

    The control run (no faults) and every faulted run execute the
    identical workload script, so recovered buckets must digest
    byte-equal to the never-crashed control.
    """

    def test_three_seed_chaos_sweep_recovers_exactly(self):
        control = run_workload()
        control_digests = bucket_digests(control, "users")
        control_rows = control.execute(Scan("users")).rows
        assert control.shard_map("users").epoch == 2
        for seed in range(3):
            plan = FaultPlan.move_chaos(
                seed, "node-1", "node-3", horizon=40, kills=2
            )
            cluster = run_workload(plan=plan)
            shard_map = cluster.shard_map("users")
            shard_map.validate()  # exactly one ring owns every bucket
            assert shard_map.epoch == 2
            assert bucket_digests(cluster, "users") == control_digests
            assert cluster.execute(Scan("users")).rows == control_rows
            assert_replicas_match_truth(cluster, "users")

    @pytest.mark.parametrize("victim", ["node-1", "node-3"])
    @pytest.mark.parametrize("kill_at", [1, 4, 7, 10, 13, 16, 19])
    def test_targeted_kills_at_every_phase(self, victim, kill_at):
        """A deterministic kill at each point in the move's lifetime.

        The sweep of ``kill_at`` values crosses copy (early ops),
        catch-up (middle), and swing/verify/gc (late); node-1 is the
        donor and node-3 the recipient of the scripted move.
        """
        control = run_workload()
        plan = (
            FaultPlan()
            .kill(victim, at_op=kill_at)
            .revive(victim, at_op=kill_at + 6)
        )
        cluster = run_workload(plan=plan)
        cluster.shard_map("users").validate()
        assert cluster.shard_map("users").epoch == 2
        assert bucket_digests(cluster, "users") == \
            bucket_digests(control, "users")
        assert cluster.execute(Scan("users")).rows == \
            control.execute(Scan("users")).rows

    def test_move_journal_cleared_after_gc(self, tmp_path):
        import os

        from repro.relational.disk import DiskRelationStore

        store = DiskRelationStore(str(tmp_path))
        path = str(tmp_path / "wal.log")
        cluster = build_cluster(log=WriteAheadLog(path))
        cluster.attach_store(store)
        shard_map = cluster.shard_map("users")
        cluster.begin_move(
            "users", 1, recipient=off_ring_node(shard_map, 1, 4)
        )
        # Mid-move the journal is on disk and resumable.
        cluster.step_rebalance()
        journaled = store.load_move()
        assert journaled is not None
        resumed = ShardMove.from_xset(journaled)
        assert resumed.table == "users"
        assert resumed.state in ("copy", "catch_up")
        cluster.rebalance()
        assert store.load_move() is None
        assert placements(WriteAheadLog(path).replay()).get("users") \
            == cluster.shard_map("users")
        assert cluster.shard_map("users").epoch == 2
        # The log is placement's one durable record: no side file.
        assert sorted(os.listdir(str(tmp_path))) == ["wal.log"]


class TestASwingIsOneLogRecord:
    """An epoch swing is durable as one ``EPOCH`` record, appended
    before the map is installed: a swing that never reached the log
    never happened."""

    @staticmethod
    def logged(tmp_path, point):
        log = WriteAheadLog(str(tmp_path / "wal.log"), opener=point.open)
        cluster = build_cluster(rows=24, log=log)
        cluster.insert("users", [{"id": 100, "city": "new"}])
        return cluster, log

    def test_a_failed_swing_installs_nothing(self, tmp_path):
        point = CrashPoint()
        cluster, log = self.logged(tmp_path, point)
        committed = cluster.manager.committed().relation("users")
        point.after_writes = point.writes
        with pytest.raises(SimulatedCrashError):
            cluster.split_table("users")
        shard_map = cluster.shard_map("users")
        assert (shard_map.epoch, shard_map.bucket_count) == (1, 4)
        assert cluster.execute(Scan("users")) == committed
        assert [record_kind(r) for r in log.replay()] == [COMMIT]
        point.after_writes = None
        retried = cluster.split_table("users")
        assert (retried.epoch, retried.bucket_count) == (2, 8)
        assert cluster.execute(Scan("users")) == committed
        assert placements(log.replay()).get("users") == retried

    def test_each_install_is_one_log_append_plus_the_journal(self,
                                                             tmp_path):
        import os

        from repro.relational.disk import DiskRelationStore

        point = CrashPoint()  # no budget: it only counts
        cluster, log = self.logged(tmp_path, point)
        store_dir = str(tmp_path / "store")
        cluster.attach_store(DiskRelationStore(store_dir, opener=point.open))

        def durable_writes(action):
            before = point.writes, point.syncs, log.lsn
            action()
            return (point.writes - before[0], point.syncs - before[1],
                    log.lsn - before[2])

        assert durable_writes(lambda: cluster.split_table("users")) \
            == (1, 1, 1)
        assert os.listdir(store_dir) == []
        shard_map = cluster.shard_map("users")
        move = cluster.begin_move(
            "users", 1, recipient=off_ring_node(shard_map, 1, 4)
        )
        while move.state != "swing":
            cluster.step_rebalance()
        # The swing step: one log append and the journal's rewrite.
        assert durable_writes(cluster.step_rebalance) == (2, 2, 1)
        assert os.listdir(store_dir) == ["shards.move"]
        epoch_record = log.replay()[-1]
        assert record_kind(epoch_record) == EPOCH
        table, value = epoch_change(epoch_record)
        assert (table, ShardMap.from_xset(value)) \
            == ("users", cluster.shard_map("users"))
        assert cluster.shard_map("users").epoch == 3


class TestSplitMerge:
    def test_split_preserves_answers(self):
        cluster = build_cluster()
        before = cluster.execute(Scan("users")).rows
        new_map = cluster.split_table("users")
        assert new_map.bucket_count == 8
        assert new_map.epoch == 2
        assert cluster.execute(Scan("users")).rows == before
        assert cluster.execute(
            Restrict(Scan("users"), (Comparison("id", "=", 11),))
        ).cardinality() == 1
        assert_replicas_match_truth(cluster, "users")

    def test_merge_undoes_split_and_drops_orphans(self):
        cluster = build_cluster()
        before = cluster.execute(Scan("users")).rows
        cluster.split_table("users")
        merged = cluster.merge_table("users")
        assert merged.bucket_count == 4
        assert merged.epoch == 3
        assert cluster.execute(Scan("users")).rows == before
        # No node retains data under the retired high bucket numbers.
        for node in cluster.nodes:
            for bucket in range(4, 8):
                assert node.stored("users", bucket) is None

    def test_split_with_dead_node_rebuilds_on_revive(self):
        cluster = build_cluster()
        cluster.kill_node("node-2")
        cluster.split_table("users")
        cluster.insert("users", people(6, start=500))
        cluster.revive_node("node-2")
        assert cluster.execute(Scan("users")).cardinality() == 54
        assert_replicas_match_truth(cluster, "users")

    def test_bucket_stats_follow_the_new_bucket_count(self):
        cluster = build_cluster()

        def restrictions():
            placement = cluster.shard_map("users")
            counts = dict.fromkeys(range(placement.bucket_count), 0)
            committed = cluster.manager.committed().relation("users")
            for row in committed.iter_dicts():
                counts[placement.bucket_for(row["id"])] += 1
            return counts

        cluster.split_table("users")
        cluster.insert("users", people(6, start=500))
        split = cluster.bucket_stats("users")
        assert set(split) == set(range(8))
        assert split == restrictions()
        assert sum(split.values()) == 54
        cluster.merge_table("users")
        merged = cluster.bucket_stats("users")
        assert set(merged) == set(range(4))
        assert merged == restrictions()
        assert sum(merged.values()) == 54


class TestAmbientBudgetAtShardSites:
    def test_ambient_budget_refuses_a_cluster_read_at_a_shard_site(self):
        cluster = build_cluster(rows=48)
        with governed(max_rows=5):
            with pytest.raises(BudgetExceededError) as exc:
                cluster.execute(Scan("users"))
        assert exc.value.site.startswith("shard.users[")

    def test_generous_budget_returns_the_ungoverned_answer(self):
        cluster = build_cluster(rows=48)
        ungoverned = cluster.execute(Scan("users"))
        assert cluster.result_cache is None  # the second read executes
        with governed(max_rows=1000) as governor:
            assert cluster.execute(Scan("users")) == ungoverned
        assert governor.budget.rows == 48

    def test_one_budget_spans_consecutive_cluster_reads(self):
        cluster = build_cluster(rows=48)
        with governed(max_rows=60) as governor:
            assert cluster.execute(Scan("users")).cardinality() == 48
            with pytest.raises(BudgetExceededError) as exc:
                cluster.execute(Scan("users"))
        assert exc.value.resource == "rows"
        assert exc.value.site.startswith("shard.users[")
        assert governor.budget.rows > 60

    def test_cell_budget_charges_the_shipped_width(self):
        cluster = build_cluster(rows=48)
        with governed(max_cells=96) as governor:
            assert cluster.execute(Scan("users")).cardinality() == 48
        assert governor.budget.cells == 48 * 2  # rows x (id, city)
        with governed(max_cells=95):
            with pytest.raises(BudgetExceededError) as exc:
                cluster.execute(Scan("users"))
        assert exc.value.resource == "cells"
        assert exc.value.site.startswith("shard.users[")


class TestEpochTaggedRecovery:
    def test_rebuild_metric_carries_epoch(self):
        cluster = build_cluster()
        shard_map = cluster.shard_map("users")
        cluster.begin_move(
            "users", 0, recipient=off_ring_node(shard_map, 0, 4)
        )
        cluster.rebalance()
        with instrument.observed() as registry:
            cluster.kill_node("node-1")
            cluster.insert("users", people(4, start=900))
            cluster.revive_node("node-1")
            counter = registry.counter(
                "repro_recovery_epoch_total",
                "Recovery passes by the shard-map epoch recovered into.",
                ("kind", "epoch"),
            )
            assert counter.value(kind="rebuild", epoch="2") >= 1


class TestExecuteCoordinator:
    def make(self):
        cluster = build_cluster(rows=48)
        cluster.create_table(
            "orders",
            Relation.from_dicts(
                ["oid", "id", "amount"],
                [{"oid": i, "id": i % 48, "amount": i} for i in range(120)],
            ),
            "id",
        )
        return cluster

    def test_routed_when_key_pinned(self):
        cluster = self.make()
        result = cluster.execute(Restrict(Scan("users"),
                                          (Comparison("id", "=", 7),)))
        assert result.cardinality() == 1
        assert cluster.last_query_span.attrs["routing"] == "routed"

    def test_pushdown_ships_less_than_gather(self):
        cluster = self.make()
        plan = Project(Restrict(Scan("users"),
                                (Comparison("city", "=", "c1"),)), ("id",))
        start = cluster.network.bytes_shipped
        pushed = cluster.execute(plan)
        pushed_bytes = cluster.network.bytes_shipped - start
        start = cluster.network.bytes_shipped
        cluster.execute(Scan("users"))
        gather_bytes = cluster.network.bytes_shipped - start
        assert pushed.cardinality() == 16
        assert pushed_bytes < gather_bytes

    def test_co_partitioned_join(self):
        cluster = self.make()
        result = cluster.execute(Join(Scan("users"), Scan("orders")))
        assert result.cardinality() == 120
        assert cluster.last_query_span.attrs["strategy"] == "co_partitioned"

    def test_shuffle_after_split_desyncs_placement(self):
        cluster = self.make()
        cluster.split_table("orders")
        result = cluster.execute(Join(Scan("users"), Scan("orders")))
        assert result.cardinality() == 120
        assert cluster.last_query_span.attrs["strategy"] in (
            "shuffle", "broadcast"
        )

    def test_execute_checks_epoch(self):
        cluster = self.make()
        cluster.split_table("users")
        with pytest.raises(ShardMovedError):
            cluster.execute(Scan("users"), epoch={"users": 1})


class TestWireRoundTrip:
    def test_shard_moved_survives_the_wire(self):
        original = ShardMovedError("users", 3, 5, bucket=2)
        body = error_body(original, request_id="r1")
        assert body["code"] == "SHARD_MOVED"
        assert body["exit_code"] == 19
        assert body["retry_after_s"] == 0.0
        rebuilt = error_from_body(body)
        assert isinstance(rebuilt, ShardMovedError)
        assert rebuilt.table == "users"
        assert rebuilt.requested_epoch == 3
        assert rebuilt.current_epoch == 5
        assert rebuilt.bucket == 2

    def test_placement_error_notifies_recorder(self):
        from repro.errors import set_error_listener

        seen = []
        previous = set_error_listener(seen.append)
        try:
            ShardPlacementError("two epochs own bucket 3")
        finally:
            set_error_listener(previous)
        assert len(seen) == 1
        assert seen[0].exit_code == 20
