"""Fault tolerance: what replication costs, and what failures cost.

Series: placement bytes over replication factors; routed reads and
scans with every node live vs after killing a primary (failover);
retry/backoff accounting under injected transient shipment faults.
Reproduced shape: replica placement bytes grow linearly in
``factor - 1`` while queries ship the same bytes regardless of factor;
failover changes which node answers but not how much data travels;
transient drops cost bounded retries and simulated backoff, never
answers.
"""

import pytest

from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster
from repro.relational.faults import FaultPlan
from repro.relational.query import Restrict, Scan
from repro.workloads import employee_relation

EMP_COUNT = 600
DEPT_COUNT = 24
SEED = 71


def replicated_cluster(nodes: int, factor: int, **kwargs) -> Cluster:
    cluster = Cluster(nodes, replication_factor=factor, **kwargs)
    cluster.create_table(
        "emp", employee_relation(EMP_COUNT, DEPT_COUNT, seed=SEED), "dept"
    )
    return cluster


def record_network(benchmark, cluster: Cluster) -> None:
    """Attach the run's shipping/recovery accounting to the BENCH json."""
    network = cluster.network
    benchmark.extra_info["network"] = {
        "messages": network.messages,
        "bytes_shipped": network.bytes_shipped,
        "retries": network.retries,
        "failovers": network.failovers,
        "backoff_s": round(network.backoff_s, 6),
        "delay_s": round(network.delay_s, 6),
    }


@pytest.mark.parametrize("factor", (1, 2, 3))
def test_replicated_placement(benchmark, factor):
    cluster = benchmark(replicated_cluster, 4, factor)
    assert cluster.shard_map("emp").replication_factor == factor


def test_replication_overhead_is_linear_in_extra_copies():
    """Assert the byte shape itself (bytes, not time)."""
    single = replicated_cluster(4, 1).network
    doubled = replicated_cluster(4, 2).network
    tripled = replicated_cluster(4, 3).network
    assert single.replica_bytes == 0
    assert doubled.replica_bytes > 0
    # rf=3 ships two extra copies where rf=2 ships one.
    assert tripled.replica_bytes == pytest.approx(
        2 * doubled.replica_bytes, rel=0.05
    )


@pytest.mark.parametrize("factor", (2, 3))
def test_failover_routed_read(benchmark, factor):
    cluster = replicated_cluster(4, factor)
    cluster.kill_node("node-1")  # dept=5 hashes to bucket 1
    result = benchmark(cluster.execute, Restrict(Scan("emp"),
            (Comparison("dept", "=", 5),)))
    assert result.cardinality() > 0
    record_network(benchmark, cluster)


@pytest.mark.parametrize("factor", (2, 3))
def test_failover_scan(benchmark, factor):
    cluster = replicated_cluster(4, factor)
    cluster.kill_node("node-0")
    result = benchmark(cluster.execute, Scan("emp"))
    assert result.cardinality() == EMP_COUNT
    record_network(benchmark, cluster)


def test_failover_ships_no_extra_bytes():
    live = replicated_cluster(4, 2)
    live.network.reset()
    live.execute(Restrict(Scan("emp"), (Comparison("dept", "=", 5),)))

    failed = replicated_cluster(4, 2)
    failed.kill_node("node-1")
    failed.network.reset()
    failed.execute(Restrict(Scan("emp"), (Comparison("dept", "=", 5),)))

    # The replica holds an identical copy: same payload, one failover.
    assert failed.network.bytes_shipped == live.network.bytes_shipped
    assert failed.network.failovers == 1
    assert live.network.failovers == 0


def test_transient_faults_cost_retries_and_backoff_not_bytes():
    clean = replicated_cluster(4, 2)
    reference = clean.execute(Scan("emp"))
    clean.network.reset()
    clean.execute(Scan("emp"))

    faulty = replicated_cluster(4, 2)
    faulty.install_faults(
        FaultPlan().drop_shipment(2).corrupt_shipment(5)
    )
    faulty.network.reset()
    assert faulty.execute(Scan("emp")) == reference

    assert faulty.network.retries == 2
    assert faulty.network.recovery_s() > 0
    # Only delivered payloads count: the answer costs the same bytes.
    assert faulty.network.bytes_shipped == clean.network.bytes_shipped


def test_recovery_latency_is_the_backoff_sum():
    cluster = replicated_cluster(4, 2, backoff_base_s=0.010)
    cluster.install_faults(FaultPlan().drop_shipment(2))
    cluster.execute(Scan("emp"))
    # One retry at the first backoff step.
    assert cluster.network.backoff_s == pytest.approx(0.010)
    assert cluster.network.recovery_s() == pytest.approx(0.010)


def test_chaos_scan(benchmark):
    clusters = []

    def faulty_scan():
        cluster = replicated_cluster(4, 2)
        clusters.append(cluster)
        cluster.install_faults(
            FaultPlan.chaos(
                SEED,
                [node.name for node in cluster.nodes],
                horizon=40,
                kills=1,
                drops=1,
                corruptions=1,
            )
        )
        return cluster.execute(Scan("emp"))

    result = benchmark(faulty_scan)
    assert result.cardinality() == EMP_COUNT
    record_network(benchmark, clusters[-1])
