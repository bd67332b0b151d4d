"""Cost-based planning: estimates read off the value, join reordering.

The planner (`repro.relational.cost`) estimates every plan node and
searches join orders with bottom-up dynamic programming.  Its numbers
come from the catalog value itself: a relation's rows are its
cardinality, an attribute's distinct count is the size of its
sigma-domain, and an equality's rows are the length of that value's
run in the relation's member index -- exact, and never stale.  This
example builds an adversarially-ordered three-way join, shows what the
estimator reads, the plan it searches, and EXPLAIN ANALYZE output with
per-node ``est_rows`` vs ``actual_rows`` and q-error.

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

    banner("What the estimator reads off the value")
    est = CardinalityEstimator(db)
    for name in db.names():
        relation = db.relation(name)
        print("%-8s %5d rows, distinct %s"
              % (name, len(relation), ", ".join(
                  "%s=%d" % (attr, est.distinct(Scan(name), attr))
                  for attr in relation.heading.names)))
    for dept in (3, 4):
        select = SelectEq(Scan("emp"), {"dept": dept})
        print("emp where dept = %d: estimated %d, actual %d"
              % (dept, est.estimate(select),
                 db.execute(select).cardinality()))

    banner("The join order searched on those numbers")
    optimized = optimize(plan, db)
    print(optimized.explain())
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
