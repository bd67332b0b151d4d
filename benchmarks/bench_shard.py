"""Shard-local execution vs ship-everything, and rebalance throughput.

Series: the coordinator's pushdown pipelines against the naive
gather-then-filter baseline (bytes and time), the costed join
strategies against shipping both inputs to the coordinator, and the
online move state machine's row throughput.  Reproduced shape:
selection and projection below the shuffle ship a fraction of the
table; a co-partitioned shard join ships only result partials while
the coordinator baseline ships both inputs whole; a bucket move's
cost is linear in the rows it carries.
"""

import pytest

from repro.relational.algebra import join as local_join
from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster
from repro.relational.query import Join, Project, Restrict, Scan
from repro.workloads import department_relation, employee_relation

EMP_COUNT = 600
DEPT_COUNT = 24
SEED = 71


def sharded_cluster(nodes: int = 4, factor: int = 2) -> Cluster:
    cluster = Cluster(nodes, replication_factor=factor)
    cluster.create_table(
        "emp", employee_relation(EMP_COUNT, DEPT_COUNT, seed=SEED), "dept"
    )
    cluster.create_table(
        "dept", department_relation(DEPT_COUNT, seed=SEED), "dept"
    )
    return cluster


def record_network(benchmark, cluster: Cluster) -> None:
    network = cluster.network
    benchmark.extra_info["network"] = {
        "messages": network.messages,
        "bytes_shipped": network.bytes_shipped,
        "retries": network.retries,
        "failovers": network.failovers,
    }


def ship_everything_join(cluster: Cluster):
    """The baseline the coordinator must beat: gather both whole."""
    return local_join(
        cluster.execute(Scan("emp")), cluster.execute(Scan("dept"))
    )


# -- pushdown vs gather-then-filter ------------------------------------

PUSHDOWN_PLAN = Project(Restrict(Scan("emp"),
                                 (Comparison("dept", "=", 5),)), ("name",))


def test_pushdown_ships_fraction_of_gather():
    """Assert the shipping shape itself (bytes, not time)."""
    cluster = sharded_cluster()
    start = cluster.network.bytes_shipped
    cluster.execute(PUSHDOWN_PLAN)
    pushed = cluster.network.bytes_shipped - start
    start = cluster.network.bytes_shipped
    cluster.execute(Scan("emp"))
    gathered = cluster.network.bytes_shipped - start
    assert pushed * 5 < gathered, (
        "pushdown shipped %d bytes vs %d for the gather" % (pushed, gathered)
    )


@pytest.mark.parametrize("nodes", (2, 4, 8))
def test_pushdown_execution(benchmark, nodes):
    cluster = sharded_cluster(nodes)
    result = benchmark(cluster.execute, PUSHDOWN_PLAN)
    assert result.cardinality() > 0
    record_network(benchmark, cluster)


# -- shard joins vs the coordinator baseline ---------------------------

@pytest.mark.parametrize("nodes", (2, 4))
def test_shard_local_join(benchmark, nodes):
    cluster = sharded_cluster(nodes)
    result = benchmark(cluster.execute, Join(Scan("emp"), Scan("dept")))
    assert result.cardinality() == EMP_COUNT
    record_network(benchmark, cluster)


@pytest.mark.parametrize("nodes", (2, 4))
def test_ship_everything_join_baseline(benchmark, nodes):
    cluster = sharded_cluster(nodes)
    result = benchmark(ship_everything_join, cluster)
    assert result.cardinality() == EMP_COUNT
    record_network(benchmark, cluster)


FILTERED_JOIN = Join(Restrict(Scan("emp"),
                              (Comparison("dept", "=", 5),)), Scan("dept"))


def test_shard_join_beats_ship_everything():
    """The acceptance shape: shard-local shipping wins by a factor.

    The selection pushes below the shuffle, so each bucket ships only
    its matching join partials; the baseline ships both inputs whole
    and filters at the coordinator.  Demand a measured 5x margin.
    """
    shard = sharded_cluster()
    shard.network.reset()
    selective = shard.execute(FILTERED_JOIN)
    shard_bytes = shard.network.bytes_shipped

    baseline = sharded_cluster()
    baseline.network.reset()
    naive = filtered_ship_everything(baseline)
    baseline_bytes = baseline.network.bytes_shipped

    assert selective.rows == naive.rows
    assert shard_bytes * 5 < baseline_bytes, (
        "shard join shipped %d bytes vs baseline %d"
        % (shard_bytes, baseline_bytes)
    )


def filtered_ship_everything(cluster: Cluster):
    """Naive plan: gather both tables whole, filter at the coordinator."""
    from repro.relational.algebra import restrict

    return local_join(
        restrict(cluster.execute(Scan("emp")), (Comparison("dept", "=", 5),)),
        cluster.execute(Scan("dept")),
    )


@pytest.mark.parametrize("nodes", (2, 4))
def test_filtered_shard_join(benchmark, nodes):
    cluster = sharded_cluster(nodes)
    result = benchmark(cluster.execute, FILTERED_JOIN)
    assert result.cardinality() > 0
    record_network(benchmark, cluster)


@pytest.mark.parametrize("nodes", (2, 4))
def test_filtered_ship_everything_baseline(benchmark, nodes):
    cluster = sharded_cluster(nodes)
    result = benchmark(filtered_ship_everything, cluster)
    assert result.cardinality() > 0
    record_network(benchmark, cluster)


# -- rebalance throughput ----------------------------------------------

def run_move(chunk_rows: int) -> Cluster:
    cluster = sharded_cluster()
    shard_map = cluster.shard_map("emp")
    recipient = next(
        index for index in range(4)
        if index not in shard_map.replicas(0)
    )
    cluster.begin_move("emp", 0, recipient=recipient,
                       chunk_rows=chunk_rows)
    cluster.rebalance()
    return cluster


@pytest.mark.parametrize("chunk_rows", (16, 64, 256))
def test_rebalance_move(benchmark, chunk_rows):
    cluster = benchmark(run_move, chunk_rows)
    assert cluster.shard_map("emp").epoch == 2
    record_network(benchmark, cluster)


def test_split_and_merge(benchmark):
    def split_merge():
        cluster = sharded_cluster()
        cluster.split_table("emp")
        cluster.merge_table("emp")
        return cluster

    cluster = benchmark(split_merge)
    assert cluster.shard_map("emp").epoch == 3
    assert cluster.execute(Scan("emp")).cardinality() == EMP_COUNT
