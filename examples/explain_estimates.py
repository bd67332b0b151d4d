"""Cost-based planning: ANALYZE, estimates vs actuals, join reordering.

The planner (`repro.relational.cost`) estimates every plan node and
searches join orders with bottom-up dynamic programming on every
catalog; the statistics catalog (`repro.relational.stats`) sharpens
its numbers with measurement: one ANALYZE pass per relation collects
row counts, KMV distinct sketches, equi-depth histograms and
most-common-value lists.  This example builds an adversarially-ordered
three-way join, shows the plan searched on live sizes alone (no
statistics) and the one searched from the catalog (after ANALYZE), and
prints EXPLAIN ANALYZE output with per-node ``est_rows`` vs
``actual_rows`` and q-error.

Run:  python examples/explain_estimates.py
"""

import random

from repro.relational import Database, Join, Relation, Scan, SelectEq
from repro.relational.cost import CardinalityEstimator
from repro.relational.optimizer import optimize
from repro.relational.profile import explain_analyze
from repro.workloads import department_relation, employee_relation


def banner(text: str) -> None:
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def assignments(count: int, emps: int, seed: int) -> Relation:
    rng = random.Random(seed)
    return Relation.from_dicts(
        ["assign", "emp", "proj"],
        [
            {"assign": i, "emp": rng.randrange(emps),
             "proj": rng.randrange(40)}
            for i in range(count)
        ],
    )


def main() -> None:
    db = Database()
    db.add("emp", employee_relation(400, 20, seed=7))
    db.add("dept", department_relation(20, seed=7))
    db.add("assign", assignments(1600, 400, seed=8))

    # Written adversarially: the fan-out join first, the selective
    # one-department filter last.
    plan = Join(
        Join(Scan("assign"), Scan("emp")),
        SelectEq(Scan("dept"), {"dept": 3}),
    )

    banner("Never analyzed (join order searched on live sizes)")
    print(optimize(plan, db).explain())

    banner("ANALYZE emp, dept, assign")
    for name in db.analyze():
        entry = db.stats.get(name)
        print("%-8s %5d rows, %d attributes analyzed"
              % (name, entry.rows, len(entry.attributes)))
    dept_stats = db.stats.get("emp").attribute("dept")
    print("emp.dept: distinct=%d, top MCVs %s"
          % (dept_stats.distinct, dept_stats.mcvs[:3]))

    banner("Analyzed (the same search, numbers from the catalog)")
    optimized = optimize(plan, db)
    print(optimized.explain())
    est = CardinalityEstimator(db)
    print()
    print("estimated cost: written order %.0f, reordered %.0f"
          % (est.cost(plan), est.cost(optimized)))

    banner("EXPLAIN ANALYZE (est_rows vs actual_rows, q-error)")
    result, text = explain_analyze(db, plan)
    print(text)
    print()
    print("-- %d result rows" % result.cardinality())

    banner("Answers agree in every mode")
    print("identical results: %s" % (db.execute(optimized) == db.execute(plan)))


if __name__ == "__main__":
    main()
