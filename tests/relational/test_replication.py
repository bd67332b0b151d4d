"""The replicated read/write paths, and the ring geometry they ride on."""

import pytest

from repro.errors import ClusterUnavailableError, SchemaError
from repro.relational import algebra
from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster
from repro.relational.query import Aggregate, Join, Restrict, Scan
from repro.relational.sharding import ShardMap
from repro.workloads.generators import department_relation, employee_relation


def rings(node_count, factor):
    return ShardMap.successor_rings("dept", node_count, factor)


class TestPlacementMath:
    def test_primary_is_the_bucket_index(self):
        placement = rings(5, 3)
        for bucket in range(5):
            assert placement.primary(bucket) == bucket

    def test_replicas_are_ring_successors(self):
        assert rings(4, 2).replicas(3) == (3, 0)
        assert rings(4, 3).replicas(0) == (0, 1, 2)

    def test_replicas_are_distinct(self):
        placement = rings(7, 4)
        for bucket in range(7):
            ring = placement.replicas(bucket)
            assert len(set(ring)) == len(ring) == 4

    def test_every_node_holds_factor_buckets(self):
        placement = rings(6, 2)
        for node in range(6):
            assert len(placement.buckets_on(node)) == 2

    def test_factor_must_fit_the_cluster(self):
        with pytest.raises(SchemaError, match="replication factor"):
            rings(3, 4)
        with pytest.raises(SchemaError, match="replication factor"):
            rings(3, 0)

    def test_bucket_range_is_validated(self):
        with pytest.raises(ValueError, match="bucket"):
            rings(4, 2).replicas(9)

    def test_repr_names_the_shape(self):
        assert repr(rings(4, 2)) == \
            "ShardMap(attr='dept', epoch=1, buckets=4, nodes=4, rf=2)"

    def test_survives_counts_live_replicas(self):
        placement = rings(4, 2)
        assert placement.survives(frozenset([1]))
        # Adjacent nodes 1 and 2 are bucket 1's whole ring.
        assert not placement.survives(frozenset([1, 2]))


@pytest.fixture
def employees():
    return employee_relation(160, 8, seed=37)


@pytest.fixture
def departments():
    return department_relation(8, seed=37)


@pytest.fixture
def replicated(employees, departments):
    cluster = Cluster(4, replication_factor=2)
    cluster.create_table("emp", employees, "dept")
    cluster.create_table("dept", departments, "dept")
    return cluster


class TestReplicatedPlacement:
    def test_each_bucket_lives_on_factor_nodes(self, replicated):
        for bucket in range(4):
            holders = [
                node for node in replicated.nodes
                if bucket in node.buckets_held("emp")
            ]
            assert len(holders) == 2

    def test_replicas_are_identical_copies(self, replicated):
        placement = replicated.shard_map("emp")
        for bucket in range(4):
            ring = placement.replicas(bucket)
            copies = {
                replicated.nodes[index].bucket("emp", bucket)
                for index in ring
            }
            assert len(copies) == 1

    def test_placement_overhead_is_priced(self, employees):
        plain = Cluster(4)
        plain.create_table("emp", employees, "dept")
        assert plain.network.replica_bytes == 0
        assert plain.network.bytes_shipped == 0

        doubled = Cluster(4, replication_factor=2)
        doubled.create_table("emp", employees, "dept")
        assert doubled.network.replica_bytes > 0
        assert doubled.network.replica_bytes == doubled.network.bytes_shipped

    def test_factor_validation_at_cluster(self):
        with pytest.raises(ValueError, match="replication factor"):
            Cluster(2, replication_factor=3)

    def test_per_table_factor_override(self, employees):
        cluster = Cluster(4, replication_factor=1)
        cluster.create_table("emp", employees, "dept", replication_factor=3)
        assert cluster.shard_map("emp").replication_factor == 3


class TestReadsUnderFailure:
    def test_queries_survive_any_single_kill(self, replicated, employees,
                                             departments):
        for victim in [node.name for node in replicated.nodes]:
            replicated.kill_node(victim)
            assert replicated.execute(Scan("emp")) == employees
            assert replicated.execute(Restrict(Scan("emp"),
                    (Comparison("dept", "=", 5),))) == \
                algebra.restrict(employees, (Comparison("dept", "=", 5),))
            assert replicated.execute(Join(Scan("emp"), Scan("dept"))) == \
                algebra.join(employees, departments)
            replicated.revive_node(victim)

    def test_failover_is_counted(self, replicated):
        replicated.kill_node("node-1")
        replicated.network.reset()
        replicated.execute(Scan("emp"))
        assert replicated.network.failovers == 1  # bucket 1 -> node-2

    def test_routed_select_fails_over_to_the_replica(self, replicated,
                                                     employees):
        # dept=5 hashes to bucket 1 (primary node-1, replica node-2).
        replicated.kill_node("node-1")
        replicated.network.reset()
        result = replicated.execute(Restrict(Scan("emp"),
                                             (Comparison("dept", "=", 5),)))
        assert result == algebra.restrict(employees,
                                          (Comparison("dept", "=", 5),))
        assert replicated.network.failovers == 1
        assert replicated.network.messages == 1

    def test_losing_the_whole_ring_raises(self, replicated):
        replicated.kill_node("node-1")
        replicated.kill_node("node-2")
        with pytest.raises(ClusterUnavailableError) as excinfo:
            replicated.execute(Restrict(Scan("emp"),
                                        (Comparison("dept", "=", 5),)))
        error = excinfo.value
        assert error.table == "emp"
        assert error.bucket == 1
        assert error.replicas == ("node-1", "node-2")

    def test_unreplicated_cluster_has_no_failover(self, employees):
        cluster = Cluster(4)
        cluster.create_table("emp", employees, "dept")
        cluster.kill_node("node-1")
        with pytest.raises(ClusterUnavailableError):
            cluster.execute(Scan("emp"))

    def test_revive_restores_service(self, replicated, employees):
        replicated.kill_node("node-1")
        replicated.kill_node("node-2")
        with pytest.raises(ClusterUnavailableError):
            replicated.execute(Scan("emp"))
        replicated.revive_node("node-2")
        assert replicated.execute(Scan("emp")) == employees

    def test_aggregation_survives_a_kill(self, replicated, employees):
        from repro.relational.algebra import aggregate as local_aggregate

        replicated.kill_node("node-3")
        distributed = replicated.execute(Aggregate(
            Scan("emp"), ["dept"],
            {"n": ("count", "emp"), "pay": ("sum", "salary")},
        ))
        local = local_aggregate(
            employees, ["dept"],
            {"n": ("count", "emp"), "pay": ("sum", "salary")},
        )
        assert distributed == local


class TestWrites:
    def test_insert_fans_out_to_every_replica(self, replicated):
        replicated.network.reset()
        replicated.insert(
            "emp",
            [{"emp": 900, "name": "zz-900", "dept": 2, "salary": 40000}],
        )
        # One shipment per replica of the touched bucket.
        assert replicated.network.messages == 2
        assert replicated.network.replica_messages == 1
        placement = replicated.shard_map("emp")
        for index in placement.replicas(2):
            rows = replicated.nodes[index].bucket("emp", 2)
            assert any(r["emp"] == 900 for r in rows.iter_dicts())

    def test_inserted_rows_are_queryable(self, replicated, employees):
        replicated.insert(
            "emp",
            [{"emp": 901, "name": "zz-901", "dept": 5, "salary": 41000}],
        )
        result = replicated.execute(Restrict(Scan("emp"),
                                             (Comparison("emp", "=", 901),)))
        assert result.cardinality() == 1

    def test_dead_replicas_miss_writes_until_rebuilt(self, replicated):
        # A dead node genuinely misses the fan-out (no writing to
        # unreachable storage); the revive-time rebuild ships the
        # difference to the committed relation, so the row is there
        # by the time the node serves again.
        replicated.kill_node("node-2")
        replicated.insert(
            "emp",
            [{"emp": 902, "name": "zz-902", "dept": 5, "salary": 42000}],
        )
        # dept=5 -> bucket 1, replicas node-1 (alive) and node-2 (dead):
        # the copies have genuinely diverged.
        live = replicated.nodes[1].bucket("emp", 1)
        stale = replicated.nodes[2]._buckets["emp"][1]  # peek past the guard
        assert any(r["emp"] == 902 for r in live.iter_dicts())
        assert not any(r["emp"] == 902 for r in stale.iter_dicts())
        replicated.revive_node("node-2")
        replicated.kill_node("node-1")  # force reads onto the rebuilt copy
        result = replicated.execute(Restrict(Scan("emp"),
                                             (Comparison("emp", "=", 902),)))
        assert result.cardinality() == 1

    def test_rebuilt_node_matches_a_never_crashed_cluster(
        self, employees, departments
    ):
        # The differential oracle: one cluster loses a node across a
        # batch of writes and rebuilds it on revive; a control cluster
        # never fails.  With the same reads forced onto the rebuilt
        # node, both clusters must give identical answers.
        extra = [
            {"emp": 950 + i, "name": "post-%d" % i, "dept": i % 8,
             "salary": 50000 + i}
            for i in range(12)
        ]
        control = Cluster(4, replication_factor=2)
        control.create_table("emp", employees, "dept")
        crashed = Cluster(4, replication_factor=2)
        crashed.create_table("emp", employees, "dept")

        control.insert("emp", extra)
        crashed.kill_node("node-2")
        crashed.insert("emp", extra)  # node-2 misses every bucket it holds
        crashed.revive_node("node-2")

        # Rebuilt copies are bit-identical to never-crashed ones.
        for bucket in crashed.nodes[2].buckets_held("emp"):
            assert crashed.nodes[2].bucket("emp", bucket) == \
                control.nodes[2].bucket("emp", bucket)

        # And the rebuilt node serves the same answers: kill its ring
        # partners' primaries so reads must land on node-2.
        for cluster in (control, crashed):
            cluster.kill_node("node-1")
        assert crashed.execute(Scan("emp")) == control.execute(Scan("emp"))
        assert crashed.execute(Restrict(Scan("emp"),
                                        (Comparison("dept", "=", 5),))) == \
            control.execute(Restrict(Scan("emp"),
                                     (Comparison("dept", "=", 5),)))
        headcount = Aggregate(Scan("emp"), ["dept"], {"n": ("count", "emp")})
        assert crashed.execute(headcount) == control.execute(headcount)

    def test_insert_validates_heading(self, replicated):
        with pytest.raises(SchemaError, match="row keys"):
            replicated.insert("emp", [{"emp": 1}])


class TestReplicatedJoin:
    def test_copartitioned_join_stays_local_under_replication(
        self, replicated
    ):
        replicated.network.reset()
        replicated.execute(Join(Scan("emp"), Scan("dept")))
        # Only result partials travel: one message per bucket.
        assert replicated.network.messages == 4

    def test_mismatched_factors_fall_back_to_shuffle(self, employees,
                                                     departments):
        cluster = Cluster(4, replication_factor=1)
        cluster.create_table("emp", employees, "dept")
        cluster.create_table("dept", departments, "dept",
                             replication_factor=2)
        assert cluster.execute(Join(Scan("emp"), Scan("dept"))) == \
            algebra.join(employees, departments)

    def test_shuffled_join_survives_a_kill(self, employees, departments):
        cluster = Cluster(3, replication_factor=2)
        cluster.create_table("emp", employees, "dept")
        cluster.create_table("dept", departments, "dname")  # misaligned
        cluster.kill_node("node-0")
        assert cluster.execute(Join(Scan("emp"), Scan("dept"))) == \
            algebra.join(employees, departments)


class TestRingRendering:
    def test_ring_is_primary_first_failover_order(self):
        placement = rings(4, 3)
        assert placement.ring(2) == "2>3>0"

    def test_singleton_ring_is_just_the_primary(self):
        placement = rings(4, 1)
        assert placement.ring(3) == "3"

    def test_ring_matches_replicas(self):
        placement = rings(5, 2)
        for bucket in range(5):
            assert placement.ring(bucket) == ">".join(
                str(index) for index in placement.replicas(bucket)
            )
