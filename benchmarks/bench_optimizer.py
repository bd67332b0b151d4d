"""The composition-theorem optimizer: rewrite cost and payoff.

Series: executing sloppy plans (stacked projections, late selections,
misordered joins) unoptimized vs optimized, plus the rewrite cost
itself and XQL end-to-end.  Reproduced shape: selection pushdown and
join reordering dominate (they shrink the relative-product inputs);
unary fusion removes linear re-scans; rewriting costs microseconds
against milliseconds saved.

The multi-join series (3-6 relations) plans an adversarial written
order that materializes an exploding many-to-many intermediate, which
the join search routes around on the numbers it reads off the catalog
value (cardinalities, distinct counts, run lengths).  Each benchmark
records the plan's
q-error summary and intermediate row traffic in ``extra_info``, so a
saved BENCH json carries the estimation accuracy next to the wall
time.
"""

import random

import pytest

from repro.relational.cost import qerror
from repro.relational.optimizer import optimize
from repro.relational.profile import execute_profiled, explain_analyze
from repro.relational.query import (
    Database,
    Join,
    Project,
    Rename,
    Scan,
    SelectEq,
)
from repro.relational.relation import Relation
from repro.relational.sql import run
from repro.workloads import department_relation, employee_relation

from conftest import WORKLOAD_SEED


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.add("emp", employee_relation(1200, 30, seed=47))
    database.add("dept", department_relation(30, seed=47))
    return database


# ----------------------------------------------------------------------
# Multi-join workloads: the join search with and without statistics
# ----------------------------------------------------------------------


def _link_relation(names, count, spaces, seed):
    """``count`` rows with a serial key plus seeded foreign keys."""
    rng = random.Random(seed)
    key = names[0]
    rows = []
    for i in range(count):
        row = {key: i}
        for attr, space in zip(names[1:], spaces):
            row[attr] = rng.randrange(space)
        rows.append(row)
    return Relation.from_dicts(names, rows)


def _multi_join_database():
    """Six relations: emp/dept plus assignment, audit, project, region.

    ``assign`` and ``audit`` both fan out ~5x from ``emp``, so joining
    them to each other first (the adversarial written order) explodes
    to ~25 rows per employee before anything filters.
    """
    seed = WORKLOAD_SEED
    db = Database()
    db.add("emp", employee_relation(600, 40, seed=seed))
    db.add("dept", department_relation(40, seed=seed))
    db.add("assign",
           _link_relation(["assign", "emp", "proj"], 3000, (600, 50), seed + 1))
    db.add("audit",
           _link_relation(["audit", "emp", "flag"], 3000, (600, 4), seed + 2))
    db.add("proj",
           _link_relation(["proj", "region"], 50, (8,), seed + 3))
    db.add("region",
           _link_relation(["region", "rcode"], 8, (100,), seed + 4))
    return db


def _multi_join_plans():
    """Written orders that force the exploding join first."""
    fanout = Join(Scan("assign"), Scan("audit"))  # ~25 rows per emp
    return {
        "join3": Join(fanout, SelectEq(Scan("emp"), {"dept": 7})),
        "join4": Join(
            Join(fanout, Scan("proj")),
            SelectEq(Scan("emp"), {"dept": 7}),
        ),
        "join6": Join(
            Join(
                Join(Join(fanout, Scan("proj")), Scan("region")),
                Scan("emp"),
            ),
            SelectEq(Scan("dept"), {"dept": 7}),
        ),
    }


@pytest.fixture(scope="module")
def multi_db():
    return _multi_join_database()


@pytest.mark.parametrize("query", sorted(_multi_join_plans()))
def test_multi_join_planning(benchmark, multi_db, query):
    db = multi_db
    plan = optimize(_multi_join_plans()[query], db)
    result = benchmark(db.execute, plan)
    assert result.cardinality() > 0
    # The BENCH json carries the plan-quality evidence next to the
    # wall time: estimation accuracy and materialized row traffic.
    _, profile = execute_profiled(db, plan)
    errors = _node_qerrors(db, plan, profile)
    benchmark.extra_info["relations"] = int(query[-1])
    benchmark.extra_info["row_traffic"] = profile.total_rows()
    benchmark.extra_info["qerror_max"] = round(max(errors), 3)
    benchmark.extra_info["qerror_mean"] = round(
        sum(errors) / len(errors), 3
    )


def _node_qerrors(db, plan, profile):
    """Per-node q-error, read off the profile the public walker took."""
    from repro.relational.cost import CardinalityEstimator

    est = CardinalityEstimator(db)
    errors = []

    def walk(node, measured):
        errors.append(qerror(est.estimate(node), measured.rows))
        for child, child_profile in zip(node.children(), measured.children):
            walk(child, child_profile)

    walk(plan, profile)
    return errors


@pytest.mark.parametrize("query", sorted(_multi_join_plans()))
def test_cost_plans_materialize_less(multi_db, query):
    """Deterministic speed proxy: searched plans move strictly fewer rows.

    Wall-time ratios wobble with the machine; intermediate row traffic
    does not.  On every query the join search must materialize
    strictly fewer rows than the written order.
    """
    plan = _multi_join_plans()[query]
    expected, written = execute_profiled(multi_db, plan)
    answer, profile = execute_profiled(multi_db, optimize(plan, multi_db))
    assert answer == expected
    assert profile.total_rows() < written.total_rows()


def test_explain_analyze_reports_accurate_estimates(multi_db):
    """E23's regression gate: estimates read off the value keep q-error
    low."""
    _, text = explain_analyze(multi_db, _multi_join_plans()["join4"])
    summary = text.splitlines()[-1]
    worst = float(summary.split("max=")[1].split()[0])
    assert worst <= 5.0


def sloppy_plan():
    return Project(
        Project(
            SelectEq(
                Rename(
                    Join(Scan("dept"), Scan("emp")),  # big side right
                    {"dname": "label"},
                ),
                {"label": "dept-7"},
            ),
            ["name", "label", "salary"],
        ),
        ["name", "label"],
    )


def test_sloppy_plan_unoptimized(benchmark, db):
    plan = sloppy_plan()
    result = benchmark(db.execute, plan)
    assert result.cardinality() > 0


def test_sloppy_plan_optimized(benchmark, db):
    plan = optimize(sloppy_plan(), db)
    result = benchmark(db.execute, plan)
    assert result.cardinality() > 0


def test_optimizer_rewrite_cost(benchmark, db):
    benchmark(optimize, sloppy_plan(), db)


def test_optimized_and_unoptimized_agree(db):
    plan = sloppy_plan()
    assert db.execute(optimize(plan, db)) == db.execute(plan)


@pytest.mark.parametrize("optimized", (False, True),
                         ids=["raw", "optimized"])
def test_xql_end_to_end(benchmark, db, optimized):
    text = "SELECT name, dname FROM dept JOIN emp WHERE dept = 12"
    result = benchmark(run, db, text, optimized)
    assert result.cardinality() > 0


@pytest.mark.parametrize("optimized", (False, True),
                         ids=["raw", "optimized"])
def test_selection_pushdown_payoff(benchmark, db, optimized):
    plan = SelectEq(Join(Scan("dept"), Scan("emp")), {"salary": 30001})
    if optimized:
        plan = optimize(plan, db)
    benchmark(db.execute, plan)
