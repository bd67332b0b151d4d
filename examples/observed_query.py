"""Observing extended set processing: spans, metrics, EXPLAIN ANALYZE.

The `repro.obs` layer is one zero-dependency measurement substrate for
the whole reproduction: kernel operations record counters and latency
histograms, plan execution emits a span per operator, and the
simulated cluster traces every bucket access with retry/failover
attribution.  This example turns it on, runs local and distributed
queries, renders the traces, prints the Prometheus exposition, and
shows that an injected fake clock makes chaos traces deterministic.

Run:  python examples/observed_query.py
"""

from repro.obs import FakeClock, observed, tracer
from repro.relational import (
    Comparison,
    Database,
    Join,
    Project,
    Restrict,
    Scan,
    execute_profiled,
)
from repro.relational.distributed import Cluster
from repro.relational.faults import FaultPlan
from repro.workloads import department_relation, employee_relation


def banner(text: str) -> None:
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def span_shape(span, depth=0):
    """Name + attrs, minus wall-clock fields -- the deterministic part."""
    attrs = {k: v for k, v in sorted(span.attrs.items()) if k != "serve_s"}
    lines = ["%s%s %s" % ("  " * depth, span.name, attrs)]
    for child in span.children:
        lines.extend(span_shape(child, depth + 1))
    return lines


def main() -> None:
    employees = employee_relation(400, 12, seed=7)
    departments = department_relation(12, seed=7)
    db = Database({"emp": employees, "dept": departments})
    plan = Project(
        Restrict(Join(Scan("emp"), Scan("dept")),
                 (Comparison("dname", "=", "dept-3"),)),
        ["name", "dname", "salary"],
    )

    banner("1. An observed local query: spans per plan node")
    with observed() as registry:
        registry.reset()
        tracer().reset()
        result = db.execute(plan)
        print("result rows:", result.cardinality())
        print()
        print(tracer().render())

    banner("2. The same data as a structured profile (EXPLAIN ANALYZE)")
    _, profile = execute_profiled(db, plan)
    print(profile.render())
    print()
    print("total rows materialized:", profile.total_rows())
    print("root exclusive time    : %.3f ms"
          % (profile.exclusive_seconds() * 1000))

    banner("3. What the kernel recorded: Prometheus exposition")
    text = registry.expose()
    for line in text.splitlines():
        if line.startswith(("# TYPE repro_xst", "repro_xst_op_total")):
            print(line)
    print("... (%d exposition lines total)" % len(text.splitlines()))

    banner("4. A distributed join under chaos, on a fake clock")
    clock = FakeClock()
    cluster = Cluster(3, replication_factor=2, clock=clock)
    cluster.create_table("emp", employees, "dept")
    cluster.create_table("dept", departments, "dept")
    cluster.install_faults(
        FaultPlan.chaos(seed=7, node_names=[n.name for n in cluster.nodes],
                        horizon=12)
    )
    with observed():
        joined = cluster.execute(Join(Scan("emp"), Scan("dept")))
    print("joined rows:", joined.cardinality())
    print()
    print(cluster.tracer.render(cluster.last_query_span))
    stats = cluster.network
    print()
    print("retries=%d failovers=%d bytes=%d backoff_s=%.3f"
          % (stats.retries, stats.failovers, stats.bytes_shipped,
             stats.backoff_s))

    banner("5. Same seed, same trace: simulated time is deterministic")
    shapes = []
    durations = []
    for _ in (1, 2):
        replay = Cluster(3, replication_factor=2, clock=FakeClock())
        replay.create_table("emp", employees, "dept")
        replay.create_table("dept", departments, "dept")
        replay.install_faults(
            FaultPlan.chaos(seed=7,
                            node_names=[n.name for n in replay.nodes],
                            horizon=12)
        )
        replay.execute(Join(Scan("emp"), Scan("dept")))
        shapes.append(span_shape(replay.last_query_span))
        durations.append(replay.last_query_span.duration_s)
    print("span shapes identical   :", shapes[0] == shapes[1])
    print("simulated durations     : %.6f s == %.6f s -> %s"
          % (durations[0], durations[1], durations[0] == durations[1]))


if __name__ == "__main__":
    main()
