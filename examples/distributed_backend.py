"""A very large, DISTRIBUTED, backend information system -- simulated.

Partitions an employee/department database across a four-node cluster
(by department), then shows the three distributed strategies and their
network price tags: routed vs broadcast selection, co-partitioned vs
shuffled join, and partial-aggregate pushdown vs row shipping.

Run:  python examples/distributed_backend.py
"""

from repro.relational import (
    Aggregate,
    Cluster,
    Comparison,
    Join,
    Restrict,
    Scan,
    aggregate,
    join,
    restrict,
)
from repro.workloads import department_relation, employee_relation


def banner(text: str) -> None:
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def main() -> None:
    employees = employee_relation(800, 16, seed=13)
    departments = department_relation(16, seed=13)

    cluster = Cluster(4)
    cluster.create_table("emp", employees, "dept")
    cluster.create_table("dept", departments, "dept")

    banner("1. Hash partitioning by the 'dept' scope")
    for node in cluster.nodes:
        print("  %-8s emp rows: %3d   dept rows: %2d" % (
            node.name,
            node.partition("emp").cardinality(),
            node.partition("dept").cardinality(),
        ))

    banner("2. Selection: routed (key covered) vs broadcast")
    cluster.network.reset()
    routed = cluster.execute(Restrict(Scan("emp"),
                                      (Comparison("dept", "=", 9),)))
    print("  WHERE dept = 9      -> %d rows, %d message(s), %d bytes"
          % (routed.cardinality(), cluster.network.messages,
             cluster.network.bytes_shipped))
    cluster.network.reset()
    broadcast = cluster.execute(Restrict(Scan("emp"),
                                         (Comparison("salary", "=", 50000),)))
    print("  WHERE salary = ...  -> %d rows, %d message(s), %d bytes"
          % (broadcast.cardinality(), cluster.network.messages,
             cluster.network.bytes_shipped))
    assert routed == restrict(employees, (Comparison("dept", "=", 9),))

    banner("3. Join: co-partitioned vs shuffled")
    cluster.network.reset()
    co_result = cluster.execute(Join(Scan("emp"), Scan("dept")))
    co_stats = (cluster.network.messages, cluster.network.bytes_shipped)
    print("  co-partitioned join : %d rows, %d messages, %d bytes"
          % (co_result.cardinality(), *co_stats))

    shuffled_cluster = Cluster(4)
    shuffled_cluster.create_table("emp", employees, "dept")
    shuffled_cluster.create_table("dept", departments, "dname")  # misaligned
    shuffled_result = shuffled_cluster.execute(Join(Scan("emp"), Scan("dept")))
    print("  shuffled join       : %d rows, %d messages, %d bytes"
          % (shuffled_result.cardinality(),
             shuffled_cluster.network.messages,
             shuffled_cluster.network.bytes_shipped))
    assert co_result == shuffled_result == join(employees, departments)
    print("  -> co-partitioning saves %d bytes of shipping"
          % (shuffled_cluster.network.bytes_shipped - co_stats[1]))

    banner("4. Aggregation: summaries travel, rows stay home")
    cluster.network.reset()
    summary = cluster.execute(Aggregate(
        Scan("emp"), ["dept"],
        {"headcount": ("count", "emp"), "mean_pay": ("avg", "salary")},
    ))
    agg_bytes = cluster.network.bytes_shipped
    cluster.network.reset()
    cluster.execute(Scan("emp"))
    scan_bytes = cluster.network.bytes_shipped
    print("  partial aggregates shipped %6d bytes" % agg_bytes)
    print("  full row shipping costs    %6d bytes (%.0fx more)"
          % (scan_bytes, scan_bytes / agg_bytes))
    local = aggregate(
        employees, ["dept"],
        {"headcount": ("count", "emp"), "mean_pay": ("avg", "salary")},
    )
    assert summary == local
    sample = sorted(summary.iter_dicts(), key=lambda row: row["dept"])[0]
    print("  e.g.", sample)


if __name__ == "__main__":
    main()
