"""Distributed execution strategies and their shipping costs.

Series: routed vs broadcast selection, co-partitioned vs shuffled
join, and partial-aggregate pushdown vs scan -- over node counts.
Reproduced shape: routing touches one node regardless of cluster
size; co-partitioned joins ship only results while shuffles ship an
entire input; aggregation summaries are an order of magnitude smaller
than row shipping.
"""

import pytest

from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster
from repro.relational.query import Aggregate, Join, Restrict, Scan
from repro.workloads import department_relation, employee_relation

EMP_COUNT = 600
DEPT_COUNT = 24
SEED = 71


def co_partitioned_cluster(nodes: int, factor: int = 1) -> Cluster:
    cluster = Cluster(nodes, replication_factor=factor)
    cluster.create_table(
        "emp", employee_relation(EMP_COUNT, DEPT_COUNT, seed=SEED), "dept"
    )
    cluster.create_table(
        "dept", department_relation(DEPT_COUNT, seed=SEED), "dept"
    )
    return cluster


def misaligned_cluster(nodes: int) -> Cluster:
    cluster = Cluster(nodes)
    cluster.create_table(
        "emp", employee_relation(EMP_COUNT, DEPT_COUNT, seed=SEED), "dept"
    )
    cluster.create_table(
        "dept", department_relation(DEPT_COUNT, seed=SEED), "dname"
    )
    return cluster


def record_network(benchmark, cluster: Cluster) -> None:
    """Attach the run's shipping accounting to the BENCH json."""
    network = cluster.network
    benchmark.extra_info["network"] = {
        "messages": network.messages,
        "bytes_shipped": network.bytes_shipped,
        "retries": network.retries,
        "failovers": network.failovers,
    }


@pytest.mark.parametrize("nodes", (2, 4, 8))
def test_routed_selection(benchmark, nodes):
    cluster = co_partitioned_cluster(nodes)
    result = benchmark(cluster.execute, Restrict(Scan("emp"),
            (Comparison("dept", "=", 5),)))
    assert result.cardinality() > 0
    record_network(benchmark, cluster)


@pytest.mark.parametrize("nodes", (2, 4, 8))
def test_broadcast_selection(benchmark, nodes):
    cluster = co_partitioned_cluster(nodes)
    benchmark(
        cluster.execute, Restrict(Scan("emp"),
                                  (Comparison("name", "=", "ada-0"),))
    )
    record_network(benchmark, cluster)


@pytest.mark.parametrize("nodes", (2, 4))
def test_copartitioned_join(benchmark, nodes):
    cluster = co_partitioned_cluster(nodes)
    result = benchmark(cluster.execute, Join(Scan("emp"), Scan("dept")))
    assert result.cardinality() == EMP_COUNT
    record_network(benchmark, cluster)


@pytest.mark.parametrize("nodes", (2, 4))
def test_shuffled_join(benchmark, nodes):
    cluster = misaligned_cluster(nodes)
    result = benchmark(cluster.execute, Join(Scan("emp"), Scan("dept")))
    assert result.cardinality() == EMP_COUNT
    record_network(benchmark, cluster)


@pytest.mark.parametrize("factor", (1, 2))
def test_copartitioned_join_replicated(benchmark, factor):
    # Replication must not change what a co-partitioned join ships:
    # replicas are identical copies, so only result partials travel.
    cluster = co_partitioned_cluster(4, factor=factor)
    cluster.network.reset()
    result = benchmark(cluster.execute, Join(Scan("emp"), Scan("dept")))
    assert result.cardinality() == EMP_COUNT
    assert cluster.network.failovers == 0
    record_network(benchmark, cluster)


def test_shuffle_ships_an_input_copartition_does_not():
    """Assert the shipping shape itself (bytes, not time)."""
    co = co_partitioned_cluster(4)
    co.execute(Join(Scan("emp"), Scan("dept")))
    shuffled = misaligned_cluster(4)
    shuffled.execute(Join(Scan("emp"), Scan("dept")))
    assert shuffled.network.bytes_shipped > co.network.bytes_shipped


@pytest.mark.parametrize("nodes", (2, 4, 8))
def test_distributed_aggregation(benchmark, nodes):
    cluster = co_partitioned_cluster(nodes)
    result = benchmark(cluster.execute, Aggregate(
        Scan("emp"), ["dept"],
        {"n": ("count", "emp"), "pay": ("sum", "salary")},
    ))
    assert result.cardinality() == DEPT_COUNT
    record_network(benchmark, cluster)


def test_aggregation_ships_less_than_scan():
    cluster = co_partitioned_cluster(4)
    cluster.network.reset()
    cluster.execute(
        Aggregate(Scan("emp"), ["dept"], {"n": ("count", "emp")})
    )
    summary_bytes = cluster.network.bytes_shipped
    cluster.network.reset()
    cluster.execute(Scan("emp"))
    assert summary_bytes * 5 < cluster.network.bytes_shipped
