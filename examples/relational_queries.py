"""Data management as extended set processing (the VLDB-1977 scope).

Builds an employee/department database, runs the same query plan under
the set-at-a-time executor (every operator one XST kernel call) and
the record-at-a-time executor (the classical baseline), shows they
agree, and lets the composition-theorem optimizer rewrite the plan.

Run:  python examples/relational_queries.py
"""

import time

from repro.relational import (
    Comparison,
    Database,
    Join,
    Project,
    Rename,
    Restrict,
    Scan,
    optimize,
)
from repro.workloads import department_relation, employee_relation


def banner(text: str) -> None:
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def main() -> None:
    employees = employee_relation(400, 12, seed=7)
    departments = department_relation(12, seed=7)
    db = Database({"emp": employees, "dept": departments})

    banner("1. Relations are extended sets of attribute-scoped rows")
    first_row = next(iter(employees.rows.pairs()))[0]
    print("a row of emp :", first_row)
    print("emp heading  :", employees.heading)
    print("cardinality  :", employees.cardinality())

    banner("2. One plan, two execution disciplines")
    plan = Project(
        Restrict(Join(Scan("emp"), Scan("dept")),
                 (Comparison("dname", "=", "dept-3"),)),
        ["name", "dname", "salary"],
    )
    print(plan.explain())

    started = time.perf_counter()
    set_result = db.execute(plan)
    set_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    record_result = db.execute_records(plan)
    record_elapsed = time.perf_counter() - started

    print()
    print("set-at-a-time rows   :", set_result.cardinality(),
          "in %.2f ms" % (set_elapsed * 1000))
    print("record-at-a-time rows:", record_result.cardinality(),
          "in %.2f ms" % (record_elapsed * 1000))
    print("identical answers    :", set_result == record_result)
    for row in list(set_result.iter_dicts())[:4]:
        print("   ", row)

    banner("3. The optimizer: composition-theorem rewrites")
    sloppy = Project(
        Project(
            Restrict(
                Rename(Join(Scan("emp"), Scan("dept")), {"dname": "label"}),
                [Comparison("label", "=", "dept-3")],
            ),
            ["name", "label", "salary"],
        ),
        ["name", "label"],
    )
    print("before:")
    print(sloppy.explain())
    improved = optimize(sloppy, db)
    print()
    print("after (selects pushed, projections fused, join reordered):")
    print(improved.explain())
    print()
    print("results preserved:", db.execute(improved) == db.execute(sloppy))

    banner("4. Relations ARE processes under a chosen sigma")
    names_by_dept = employees.as_process(["dept"], ["name"])
    from repro.xst import xrecord, xset

    key = xset([xrecord({"dept": 3})])
    dept_3_names = names_by_dept(key)
    print("emp.as_process(['dept'], ['name']) applied to {dept: 3}:")
    print("  ", len(dept_3_names), "name fragments, e.g.",
          next(iter(dept_3_names.pairs()))[0])


if __name__ == "__main__":
    main()
