"""Intrinsically reliable data management (the paper's section 1 claim).

Integrity rules are set equations checked by the same kernel
operations that answer queries: keys are domain-cardinality equations,
foreign keys are restriction (semijoin) residues, and every mutation
is all-or-nothing.  This example builds a small guarded schema, fires
bad data at it, shows nothing leaks, queries it through XQL, then
persists and reloads the result.

Run:  python examples/reliable_tables.py
"""

import tempfile

from repro.relational import (
    CheckConstraint,
    Database,
    DiskRelationStore,
    ForeignKeyConstraint,
    IntegrityError,
    KeyConstraint,
    Scan,
    Table,
    run,
)


def banner(text: str) -> None:
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def main() -> None:
    banner("1. A guarded schema: keys, foreign keys, checks")
    departments = Table(
        ["dept", "dname", "budget"],
        [
            {"dept": 1, "dname": "research", "budget": 900000},
            {"dept": 2, "dname": "ops", "budget": 500000},
        ],
        [KeyConstraint(["dept"])],
    )
    employees = Table(
        ["emp", "name", "dept", "salary"],
        [],
        [
            KeyConstraint(["emp"]),
            CheckConstraint(lambda row: row["salary"] > 0, "salary > 0"),
        ],
    )
    employees.add_constraint(
        ForeignKeyConstraint(["dept"], departments.snapshot)
    )
    print("departments:", departments)
    print("employees  :", employees)

    banner("2. Mutations are statements: they commit whole or not at all")
    employees.insert({"emp": 1, "name": "ada", "dept": 1, "salary": 95000})
    employees.insert({"emp": 2, "name": "alan", "dept": 2, "salary": 91000})
    print("after two good inserts:", len(employees), "rows")

    attacks = [
        ({"emp": 1, "name": "dup", "dept": 1, "salary": 1},
         "duplicate primary key"),
        ({"emp": 3, "name": "ghost", "dept": 404, "salary": 1},
         "dangling foreign key"),
        ({"emp": 4, "name": "neg", "dept": 1, "salary": -5},
         "negative salary"),
    ]
    for row, why in attacks:
        try:
            employees.insert(row)
            raise AssertionError("should have been rejected!")
        except IntegrityError as error:
            print("  rejected (%s): %s" % (why, error))
    print("after three attacks   :", len(employees), "rows (unchanged)")

    banner("3. Bulk loads are all-or-nothing too")
    batch = [
        {"emp": 10, "name": "grace", "dept": 1, "salary": 88000},
        {"emp": 11, "name": "oops", "dept": 404, "salary": 1},   # poison row
    ]
    try:
        employees.insert_many(batch)
    except IntegrityError as error:
        print("  batch rejected:", error)
    print("row count still:", len(employees))

    banner("4. Updates re-validate against LIVE referenced state")
    try:
        employees.update({"emp": 1}, {"dept": 9})
    except IntegrityError as error:
        print("  move to dept 9 rejected:", error)
    departments.insert({"dept": 9, "dname": "new-lab", "budget": 100000})
    moved = employees.update({"emp": 1}, {"dept": 9})
    print("  after creating dept 9, the same update succeeds:",
          moved, "row changed")

    banner("5. Snapshots are immutable values; query them like any set")
    db = Database({
        "emp": employees.snapshot(),
        "dept": departments.snapshot(),
    })
    result = run(db, "SELECT name, dname, salary FROM emp JOIN dept")
    for row in result.iter_dicts():
        print("  ", row)

    banner("6. Transactions: groups of statements, atomic together")
    from repro.relational import TransactionManager

    manager = TransactionManager({"emp": employees, "dept": departments})
    before = len(employees), len(departments)
    try:
        with manager.transaction():
            departments.insert({"dept": 20, "dname": "atomic", "budget": 1})
            employees.insert({"emp": 50, "name": "half", "dept": 20,
                              "salary": 1})
            raise RuntimeError("client crashes mid-transaction")
    except RuntimeError:
        pass
    print("  after a crashed transaction: rows unchanged ->",
          (len(employees), len(departments)) == before)

    with manager.transaction(deferred=True):
        # Deferred mode: the employee may arrive BEFORE its department,
        # as long as the commit state is consistent.
        employees.insert({"emp": 60, "name": "early", "dept": 30,
                          "salary": 70000})
        departments.insert({"dept": 30, "dname": "late-dept",
                            "budget": 5})
    print("  deferred FK ordering committed:",
          any(row["emp"] == 60 for row in employees.snapshot().iter_dicts()))

    banner("7. Persist, reload, verify")
    with tempfile.TemporaryDirectory() as directory:
        store = DiskRelationStore(directory)
        store.store("emp", employees.snapshot())
        reloaded = store.load("emp")
        print("  disk round-trip equal:", reloaded == employees.snapshot())

    banner("8. Replicate, kill a node, keep answering")
    from repro.errors import ClusterUnavailableError
    from repro.relational.distributed import Cluster

    cluster = Cluster(3, replication_factor=2)
    cluster.create_table("emp", employees.snapshot(), "dept")
    print("  placement overhead:",
          cluster.network.replica_bytes, "bytes of replica copies")
    reference = cluster.execute(Scan("emp"))

    cluster.kill_node("node-1")
    survived = cluster.execute(Scan("emp"))
    print("  node-1 killed; scan still equals the pre-failure answer:",
          survived == reference)
    print("  failovers taken:", cluster.network.failovers)

    cluster.kill_node("node-2")  # bucket 1's whole ring is now dead
    try:
        cluster.execute(Scan("emp"))
    except ClusterUnavailableError as error:
        print("  with the whole ring dead, the failure is typed:", error)
    cluster.revive_node("node-1")
    print("  revived node-1; service restored:",
          cluster.execute(Scan("emp")) == reference)

    banner("9. A cluster write is an engine commit; replicas follow it")
    engine = cluster.manager  # one TransactionManager under the cluster
    engine.table("emp").add_constraint(KeyConstraint(["emp"]))
    ticks = cluster.ops
    try:
        cluster.insert("emp", [
            {"emp": 70, "name": "fresh", "dept": 10, "salary": 1},
            {"emp": 60, "name": "duplicate key", "dept": 30, "salary": 1},
        ])
    except IntegrityError as error:
        print("  refused by the engine:", error)
    print("  ...and no replica, tick or version moved:",
          (cluster.ops, engine.current_version) == (ticks, 0))
    with engine.transaction():  # node-2 is still down: it misses this
        engine.table("emp").delete({"emp": 60})
        engine.table("emp").update({"dept": 10}, {"salary": 99000})
    cluster.revive_node("node-2")  # shipped truth ~ have, then serves
    cluster.kill_node("node-1")    # force reads onto the rebuilt node
    print("  one commit, version", engine.current_version,
          "-> the rebuilt replica serves the committed relation:",
          cluster.execute(Scan("emp")) == engine.table("emp").snapshot())


if __name__ == "__main__":
    main()
