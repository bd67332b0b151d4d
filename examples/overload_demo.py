"""Overload and graceful degradation, end to end.

A guided tour of `repro.gov`: a runaway query cancelled mid-operator
by a budget, a deadline shared between kernel work and simulated
cluster latency, circuit breakers opening over a dead node and
re-closing after its revival (with the byte-reproducible transition
log), an admission controller composed around cluster reads shedding
a synthetic overload ramp, and a partial read whose missing buckets
are named rather than hidden.

Run:  python examples/overload_demo.py
"""

from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.gov import (
    PRIORITY_BACKGROUND,
    PRIORITY_NORMAL,
    AdmissionController,
    Deadline,
    governed,
)
from repro.relational.distributed import Cluster
from repro.relational.query import Database, Scan
from repro.relational.sql import run
from repro.workloads import department_relation, employee_relation


def banner(text: str) -> None:
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def build_database() -> Database:
    db = Database()
    db.add("emp", employee_relation(400, 8, seed=11))
    db.add("dept", department_relation(8, seed=11))
    return db


def demo_budget(db: Database) -> None:
    banner("1. A runaway join dies mid-operator, typed")
    try:
        with governed(max_rows=500):
            run(db, "SELECT * FROM emp JOIN emp")
    except BudgetExceededError as error:
        print("refused: %s" % error)
        print("  code=%s exit_code=%d site=%s" % (
            error.code, error.exit_code, error.site))
    print("the same limit as an XQL clause:")
    try:
        run(db, "SELECT * FROM emp JOIN emp BUDGET 500")
    except BudgetExceededError as error:
        print("refused: [%s] at %s" % (error.code, error.site))


def demo_shared_deadline() -> None:
    banner("2. One deadline, drawn down by simulated cluster latency")
    cluster = Cluster(3, replication_factor=2)
    cluster.create_table("emp", employee_relation(200, 8, seed=11), "dept")
    from repro.relational.faults import FaultPlan

    # Slow every node: backoff + delays draw the one deadline down.
    plan = FaultPlan()
    for node in cluster.nodes:
        plan.delay(node.name, 0.04, at_op=1)
    cluster.install_faults(plan)
    try:
        with governed(deadline=Deadline.simulated(0.05)):
            cluster.execute(Scan("emp"))
    except DeadlineExceededError as error:
        print("refused: %s" % error)
        print("  (simulated seconds, deterministic on any machine)")


def demo_breakers() -> None:
    banner("3. Circuit breakers: a dead node stops absorbing retries")
    cluster = Cluster(3, replication_factor=2, breakers=True,
                      breaker_seed=7)
    cluster.create_table("emp", employee_relation(200, 8, seed=11), "dept")
    cluster.kill_node("node-0")
    for _ in range(10):
        cluster.execute(Scan("emp"))  # served by the surviving replicas
    cluster.revive_node("node-0")
    for _ in range(10):
        cluster.execute(Scan("emp"))
    print("breaker transitions (op, node, old, new) — reproducible:")
    for transition in cluster.breaker_log:
        print("  %r" % (transition,))
    print("final states: %s" % cluster.breaker_states())


def demo_shedding() -> None:
    banner("4. Admission control sheds before any work runs")
    cluster = Cluster(3, replication_factor=2)
    cluster.create_table("emp", employee_relation(200, 8, seed=11), "dept")
    admission = AdmissionController(4, soft_capacity=2)
    with admission.hold(2):              # synthetic standing load
        for priority, label in ((PRIORITY_BACKGROUND, "background"),
                                (PRIORITY_NORMAL, "normal")):
            try:
                with admission.admitted(priority):
                    result = cluster.execute(Scan("emp"))
                print("%s query served: %d rows"
                      % (label, result.cardinality()))
            except OverloadedError as error:
                print("%s query shed: %s (retry after %.3fs)"
                      % (label, error.reason, error.retry_after_s))


def demo_partial() -> None:
    banner("5. Degraded reads are marked, never silent")
    cluster = Cluster(2, replication_factor=1)
    cluster.create_table("emp", employee_relation(200, 8, seed=11), "dept")
    complete = cluster.execute(Scan("emp"))
    cluster.kill_node("node-0")
    result = cluster.execute(Scan("emp"), allow_partial=True)
    print("complete scan: %d rows" % complete.cardinality())
    print("partial scan:  %d rows, partial=%s"
          % (result.cardinality(), result.partial))
    for gap in result.missing:
        print("  missing %s[%d]: %s" % (gap.table, gap.bucket, gap.reason))
    try:
        result.require_complete()
    except Exception as error:
        print("require_complete(): %s" % error)


def main() -> None:
    db = build_database()
    demo_budget(db)
    demo_shared_deadline()
    demo_breakers()
    demo_shedding()
    demo_partial()
    print()
    print("See docs/robustness.md and EXPERIMENTS.md E22.")


if __name__ == "__main__":
    main()
