"""The estimator reads the value: exactness oracles.

A distinct count is the cardinality of a sigma-domain (Def 7.4) and an
equality's rows the size of a restriction by one value (Def 7.6).  The
estimator reads both off the relation's member index, so on every
column Hypothesis can draw from the shared pool (``tests/values.py``:
typed twins ``1``/``1.0``/``True`` and ``0``/``0.0``/``-0.0``/``False``,
``±inf``, integers around ``2**53``, ``None``, strings, bytes and nested
sets) they must be exact, stay exact across carried commits, and a plan
must depend on the value alone, never on how it was reached.  Every
drawn value equals itself, so an equality's rows are its run of the
index.

Seeded by ``REPRO_WORKLOAD_SEED`` (default 101), so a failure replays.
"""

import os

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.relational import sql
from repro.relational.algebra import Comparison
from repro.relational.constraints import Table
from repro.relational.cost import CardinalityEstimator
from repro.relational.optimizer import optimize
from repro.relational.query import (
    Aggregate,
    Database,
    Join,
    Project,
    Rename,
    Restrict,
    Scan,
)
from repro.relational.relation import Relation
from repro.relational.tx import TransactionManager

from tests.values import values

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "101"))

HEADING = ("k", "a", "b")

rows = st.lists(
    st.fixed_dictionaries({"k": st.integers(0, 40), "a": values, "b": values}),
    min_size=1, max_size=30,
)


def has_twin(value, column):
    """Whether ``column`` holds a value Python calls equal to ``value``
    but spelled otherwise (another type, or another repr)."""
    return any(
        other == value
        and (type(other) is not type(value) or repr(other) != repr(value))
        for other in column
    )


def read_off(relation):
    """What the estimator says of each attribute of ``relation``:
    ``{attr: (distinct, {repr(value): equality rows})}``."""
    db = Database({"t": relation})
    estimator = CardinalityEstimator(db)
    out = {}
    for attr in relation.heading.names:
        column = [row[attr] for row in relation.iter_dicts()]
        out[attr] = (
            estimator.distinct(Scan("t"), attr),
            {
                repr(value): estimator.estimate(
                    Restrict(Scan("t"), (Comparison(attr, "=", value),))
                )
                for value in column
            },
        )
    return out


class TestExactness:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=60, deadline=None)
    @given(rows)
    def test_distinct_and_equality_rows_are_exact(self, drawn):
        relation = Relation.from_dicts(HEADING, drawn)
        db = Database({"t": relation})
        estimator = CardinalityEstimator(db)
        assert estimator.estimate(Scan("t")) == len(relation)
        for attr in HEADING:
            column = [row[attr] for row in relation.iter_dicts()]
            # The sigma-domain under Python equality.
            assert estimator.distinct(Scan("t"), attr) == len(set(column))
            for value in column:
                plan = Restrict(Scan("t"), (Comparison(attr, "=", value),))
                actual = db.execute(plan).cardinality()
                estimated = estimator.estimate(plan)
                if has_twin(value, column):
                    assert estimated >= actual
                else:
                    assert estimated == actual

    @seed(WORKLOAD_SEED)
    @settings(max_examples=40, deadline=None)
    @given(rows, st.lists(st.tuples(st.booleans(), rows), min_size=1,
                          max_size=4))
    def test_carried_commits_read_as_a_fresh_relation(self, first, steps):
        manager = TransactionManager({"t": Table(HEADING, first)})
        # Fill every index, so each commit carries them.
        read_off(manager.committed().relation("t"))
        table = manager.table("t")
        for delete, drawn in steps:
            if delete:
                for row in drawn[:3]:
                    table.delete({"k": row["k"]})
            else:
                table.insert_many(drawn)
            committed = manager.committed().relation("t")
            fresh = Relation.from_dicts(HEADING, committed.iter_dicts())
            assert read_off(committed) == read_off(fresh)


#: Joining texts whose order the estimates decide.
TEXTS = (
    "select name, dname from emp join dept",
    "select name, dname, proj from emp join dept join proj where proj = 2",
    "select name, dname, proj from emp join dept join proj where dept = 1",
    "select name, proj from emp join proj where dept = 1",
)


def tables(emp_rows):
    return {
        "emp": Table(["eid", "name", "dept"], emp_rows),
        "dept": Table(["dept", "dname"],
                      [{"dept": d, "dname": "d%d" % d} for d in range(4)]),
        "proj": Table(["eid", "proj"],
                      [{"eid": n, "proj": n % 3} for n in range(0, 60, 2)]),
    }


class TestPlansAreFunctionsOfTheValue:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=20, max_size=60),
        st.integers(17, 40),
    )
    def test_two_histories_to_one_value_plan_alike(self, depts, churn):
        target = [{"eid": n, "name": "e%d" % n, "dept": d}
                  for n, d in enumerate(depts)]
        analyzed = TransactionManager(tables(target))
        sql.run(analyzed.committed(), "ANALYZE")
        # The other starts elsewhere and reaches the same value by
        # ``churn`` single-row mutations (and the inserts it lacks).
        extra = [{"eid": 1000 + n, "name": "x", "dept": n % 4}
                 for n in range(churn // 2)]
        churned = TransactionManager(tables(target[1:] + extra))
        emp = churned.table("emp")
        mutations = 0
        for row in extra:
            emp.delete({"eid": row["eid"]})
            mutations += 1
        emp.insert(target[0])
        mutations += 1
        while mutations < churn:
            emp.update({"eid": 0}, {"name": "tmp"})
            emp.update({"eid": 0}, {"name": target[0]["name"]})
            mutations += 2
        one, other = analyzed.committed(), churned.committed()
        for name in ("emp", "dept", "proj"):
            assert one.relation(name) == other.relation(name)
        # ``explain`` renders the whole tree (``repr`` only its root).
        for text in TEXTS:
            plan = sql.compile_query(sql.parse_query(text))
            assert optimize(plan, one).explain() == \
                optimize(plan, other).explain()
            assert sql.run(one, text) == sql.run(other, text)
            assert one.plan_memo()[text].explain() == \
                other.plan_memo()[text].explain()


class TestBounds:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=40, deadline=None)
    @given(rows)
    def test_no_estimate_exceeds_the_relation(self, drawn):
        relation = Relation.from_dicts(HEADING, drawn)
        for distinct, equalities in read_off(relation).values():
            assert 1 <= distinct <= len(relation)
            assert all(1 <= rows <= len(relation)
                       for rows in equalities.values())

    @seed(WORKLOAD_SEED)
    @settings(max_examples=40, deadline=None)
    @given(rows)
    def test_an_equality_pins_its_column_to_one_value(self, drawn):
        relation = Relation.from_dicts(HEADING, drawn)
        estimator = CardinalityEstimator(Database({"t": relation}))
        for row in relation.iter_dicts():
            plan = Restrict(Scan("t"), (Comparison("a", "=", row["a"]),))
            assert estimator.distinct(plan, "a") == 1.0
            assert estimator.distinct(plan, "k") <= estimator.estimate(plan)

    @seed(WORKLOAD_SEED)
    @settings(max_examples=40, deadline=None)
    @given(rows, values)
    def test_an_absent_value_keeps_one_row(self, drawn, value):
        relation = Relation.from_dicts(HEADING, drawn)
        column = [row["a"] for row in relation.iter_dicts()]
        if any(other == value for other in column):
            return
        estimator = CardinalityEstimator(Database({"t": relation}))
        assert estimator.estimate(Restrict(Scan("t"),
                (Comparison("a", "=", value),))) == 1.0


class TestDerivedNodes:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=40, deadline=None)
    @given(rows)
    def test_a_group_count_is_the_sigma_domain(self, drawn):
        relation = Relation.from_dicts(HEADING, drawn)
        db = Database({"t": relation})
        estimator = CardinalityEstimator(db)
        for attr in HEADING:
            plan = Aggregate(Scan("t"), [attr], {"n": ("count", "k")})
            column = [row[attr] for row in relation.iter_dicts()]
            assert estimator.estimate(plan) == len(set(column))

    @seed(WORKLOAD_SEED)
    @settings(max_examples=40, deadline=None)
    @given(rows)
    def test_renamed_and_projected_columns_read_their_base(self, drawn):
        relation = Relation.from_dicts(HEADING, drawn)
        estimator = CardinalityEstimator(Database({"t": relation}))
        renamed = Rename(Scan("t"), {"a": "z"})
        projected = Project(Scan("t"), ["k", "a"])
        for value in {repr(v): v for v in
                      (row["a"] for row in relation.iter_dicts())}.values():
            plain = estimator.estimate(Restrict(Scan("t"),
                    (Comparison("a", "=", value),)))
            assert estimator.estimate(Restrict(renamed,
                    (Comparison("z", "=", value),))) == plain
            assert estimator.estimate(Restrict(projected,
                    (Comparison("a", "=", value),))) == \
                plain
        assert estimator.distinct(renamed, "z") == \
            estimator.distinct(Scan("t"), "a")

    @seed(WORKLOAD_SEED)
    @settings(max_examples=30, deadline=None)
    @given(rows)
    def test_a_join_on_a_key_is_exact(self, drawn):
        relation = Relation.from_dicts(HEADING, drawn)
        keys = Relation.from_dicts(
            ["k", "label"], [{"k": k, "label": "k%d" % k} for k in range(41)]
        )
        db = Database({"t": relation, "keys": keys})
        estimator = CardinalityEstimator(db)
        plan = Join(Scan("t"), Scan("keys"))
        assert estimator.estimate(plan) == db.execute(plan).cardinality()


class TestOrderFree:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=30, deadline=None)
    @given(rows, st.randoms(use_true_random=False))
    def test_insertion_order_leaves_no_trace(self, drawn, rng):
        shuffled = list(drawn)
        rng.shuffle(shuffled)
        assert read_off(Relation.from_dicts(HEADING, drawn)) == \
            read_off(Relation.from_dicts(HEADING, shuffled))

    @seed(WORKLOAD_SEED)
    @settings(max_examples=30, deadline=None)
    @given(rows, rows)
    def test_a_rolled_back_write_leaves_the_estimates(self, first, more):
        manager = TransactionManager({"t": Table(HEADING, first)})
        before = manager.committed()
        expected = read_off(before.relation("t"))
        try:
            with manager.transaction():
                manager.table("t").insert_many(more)
                raise KeyError("abandon")
        except KeyError:
            pass
        assert manager.committed() is before
        assert read_off(manager.committed().relation("t")) == expected
