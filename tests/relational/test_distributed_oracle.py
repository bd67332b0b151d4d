"""Differential oracle: the cluster must equal a single-node database.

Every distributed query -- under any replication factor, any set of
node kills that leaves each bucket one live replica, and any injected
transient faults -- must return a :class:`Relation` *extensionally
equal* to the same query against the undistributed relation.  This is
the systems-level analogue of the semantic type-checking line of work
in PAPERS.md: "the cluster cannot go wrong" is not claimed, it is
checked against an oracle under generated workloads and failures.

When a query's data is genuinely unreachable the only acceptable
behavior is a typed :class:`ClusterUnavailableError` -- never a wrong
(partial) answer, never a hang.
"""

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.errors import ClusterUnavailableError, SchemaError
from repro.gov import Result
from repro.relational import algebra
from repro.relational.algebra import aggregate as local_aggregate
from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster
from repro.relational.faults import FaultPlan
from repro.relational.optimizer import optimize
from repro.relational.query import (
    Aggregate,
    Database,
    Join,
    Project,
    Restrict,
    Scan,
    Union,
)
from repro.relational.relation import Relation
from repro.relational.sql import compile_query, parse_query
from tests.relational.test_plan_algebra import plans_over_tables
from tests.test_fuzz import database as fuzz_database
from tests.test_fuzz import plans as fuzz_plans

EMP_HEADING = ["emp", "name", "dept", "salary"]
DEPT_HEADING = ["dept", "dname", "budget"]
DEPT_SPACE = 10

settings.register_profile("oracle", deadline=None, max_examples=40)
settings.load_profile("oracle")


@st.composite
def employee_rows(draw, min_size=0, max_size=25):
    ids = draw(
        st.lists(
            st.integers(0, 60),
            unique=True,
            min_size=min_size,
            max_size=max_size,
        )
    )
    rows = []
    for emp_id in ids:
        rows.append(
            {
                "emp": emp_id,
                "name": "e-%d" % emp_id,
                "dept": draw(st.integers(0, DEPT_SPACE - 1)),
                "salary": draw(st.integers(30000, 30050)),
            }
        )
    return rows


@st.composite
def cluster_shapes(draw):
    node_count = draw(st.integers(2, 5))
    factor = draw(st.integers(1, node_count))
    # Any kill set that leaves every bucket a live replica: fewer than
    # `factor` dead nodes suffices with ring placement.
    dead = draw(
        st.lists(
            st.integers(0, node_count - 1), unique=True,
            max_size=factor - 1,
        )
    )
    return node_count, factor, dead


def build(rows, node_count, factor, dead):
    relation = Relation.from_dicts(EMP_HEADING, rows)
    cluster = Cluster(node_count, replication_factor=factor)
    cluster.create_table("emp", relation, "dept")
    for index in dead:
        cluster.kill_node("node-%d" % index)
    return relation, cluster


class TestReadOracle:
    @given(employee_rows(), cluster_shapes())
    def test_scan_matches(self, rows, shape):
        relation, cluster = build(rows, *shape)
        assert cluster.execute(Scan("emp")) == relation

    @given(employee_rows(), cluster_shapes(),
           st.integers(0, DEPT_SPACE - 1))
    def test_routed_selection_matches(self, rows, shape, dept):
        relation, cluster = build(rows, *shape)
        assert cluster.execute(Restrict(Scan("emp"),
                                        (Comparison("dept", "=", dept),))) == \
            algebra.restrict(relation, (Comparison("dept", "=", dept),))

    @given(employee_rows(), cluster_shapes(),
           st.integers(30000, 30050))
    def test_broadcast_selection_matches(self, rows, shape, salary):
        relation, cluster = build(rows, *shape)
        assert cluster.execute(Restrict(Scan("emp"),
                (Comparison("salary", "=", salary),))) == \
            algebra.restrict(relation, (Comparison("salary", "=", salary),))

    @given(employee_rows(min_size=1), cluster_shapes())
    def test_aggregate_matches(self, rows, shape):
        relation, cluster = build(rows, *shape)
        spec = {
            "n": ("count", "emp"),
            "pay": ("sum", "salary"),
            "low": ("min", "salary"),
            "high": ("max", "salary"),
            "mean": ("avg", "salary"),
        }
        assert cluster.execute(Aggregate(Scan("emp"), ["dept"], spec)) == \
            local_aggregate(relation, ["dept"], spec)

    @given(employee_rows(min_size=1), cluster_shapes())
    def test_join_matches(self, rows, shape):
        node_count, factor, dead = shape
        relation, cluster = build(rows, node_count, factor, dead)
        departments = Relation.from_dicts(
            DEPT_HEADING,
            [
                {"dept": d, "dname": "d-%d" % d, "budget": 1000 * d}
                for d in range(DEPT_SPACE)
            ],
        )
        cluster.create_table("dept", departments, "dept")
        assert cluster.execute(Join(Scan("emp"), Scan("dept"))) == \
            algebra.join(relation, departments)


def projects(rows):
    return Relation.from_dicts(["proj", "emp", "hours"], [
        {"proj": row["emp"] % 4, "emp": row["emp"],
         "hours": row["salary"] % 9}
        for row in rows
    ])


DEPARTMENTS = Relation.from_dicts(DEPT_HEADING, [
    {"dept": d, "dname": "d-%d" % d, "budget": 1000 * d}
    for d in range(DEPT_SPACE)
])


class TestEveryPlanOracle:
    """The cluster is one more backend of the one plan algebra: for
    every plan, ``heading_of`` refuses it on both -- same error, before
    the cluster has ticked or traced anything -- or the cluster answers
    what ``Database.execute`` answers, wherever the rows live."""

    @settings(max_examples=120, deadline=None)
    @given(case=plans_over_tables(), data=st.data())
    def test_drawn_plans_placements_and_topologies(self, case, data):
        r, s, plan, well_formed = case
        db = Database({"r": r, "s": s})
        nodes = data.draw(st.integers(1, 4), label="nodes")
        cluster = Cluster(
            nodes, replication_factor=data.draw(
                st.integers(1, nodes), label="replication"
            ),
        )
        for name in ("r", "s"):
            relation = db.relation(name)
            cluster.create_table(
                name, relation,
                data.draw(st.sampled_from(relation.heading.names),
                          label="%s partitioned on" % name),
                buckets=data.draw(
                    st.one_of(st.none(), st.integers(1, 5)),
                    label="%s buckets" % name,
                ),
            )
        ops, roots = cluster.ops, len(cluster.tracer.roots())
        if not well_formed:
            with pytest.raises(SchemaError) as local:
                db.execute(plan)
            with pytest.raises(SchemaError) as distributed:
                cluster.execute(plan)
            assert str(distributed.value) == str(local.value)
            assert cluster.ops == ops
            assert len(cluster.tracer.roots()) == roots
            return
        for candidate in (plan, optimize(plan, db)):
            note(candidate.explain())
            expected = db.execute(candidate)
            answer = cluster.execute(candidate)
            assert answer == expected
            assert answer.heading.names == expected.heading.names

    @settings(max_examples=60, deadline=None)
    @given(plan=fuzz_plans(), seed=st.integers(min_value=0, max_value=5),
           data=st.data())
    def test_the_fuzz_plans(self, plan, seed, data):
        """``tests/test_fuzz.py``'s plans -- restrictions of one to three
        comparisons anywhere, over Project, Rename and Join -- on any
        placement: the cluster answers what one database answers."""
        db = fuzz_database(seed)
        nodes = data.draw(st.integers(1, 4), label="nodes")
        cluster = Cluster(nodes, replication_factor=data.draw(
            st.integers(1, nodes), label="replication"))
        for name in ("emp", "dept"):
            relation = db.relation(name)
            cluster.create_table(name, relation, data.draw(
                st.sampled_from(relation.heading.names),
                label="%s partitioned on" % name,
            ))
        for candidate in (plan, optimize(plan, db)):
            note(candidate.explain())
            assert repr(cluster.execute(candidate).rows) == \
                repr(db.execute(candidate).rows)

    @given(employee_rows(min_size=1), cluster_shapes(),
           st.sampled_from(["emp", "dept", "salary"]),
           st.sampled_from([["salary"], ["dept", "salary"]]),
           st.sampled_from([[], ["salary"]]))
    def test_an_aggregate_over_a_projection(self, rows, shape, emp_attr,
                                            kept, group):
        """The shape the drawn plans rarely reach: the projection drops
        the partition attribute, so one projected row sits in several
        buckets and must still be counted once."""
        node_count, factor, dead = shape
        relation = Relation.from_dicts(EMP_HEADING, rows)
        db = Database({"emp": relation})
        cluster = Cluster(node_count, replication_factor=factor)
        cluster.create_table("emp", relation, emp_attr)
        for index in dead:
            cluster.kill_node("node-%d" % index)
        plan = Aggregate(Project(Scan("emp"), kept), group, {
            "n": ("count", "salary"), "pay": ("sum", "salary"),
            "mean": ("avg", "salary"), "top": ("max", "salary"),
        })
        assert cluster.execute(plan) == db.execute(plan)

    #: The end-to-end benchmark's statement shapes (benchmarks/e2e).
    STATEMENTS = (
        "select emp, name, dname, hours from emp join dept join proj "
        "where proj = 2",
        "select emp, name, dname from emp join dept where dept = 3",
        "select * from proj where hours > 4",
        "select emp, name, salary from emp where emp = 7",
        "select name as who, dname as unit from emp join dept "
        "where dept = 1",
        "select dept, count(emp) as n, avg(salary) as pay from emp "
        "where salary > 30003 group by dept",
        "select dname, max(salary) as top from emp join dept "
        "group by dname order by top desc limit 2",
    )

    @given(employee_rows(min_size=1), cluster_shapes(),
           st.sampled_from(["emp", "dept", "salary"]),
           st.sampled_from(DEPT_HEADING),
           st.sampled_from(["proj", "emp", "hours"]))
    def test_served_statement_shapes(self, rows, shape, emp_attr,
                                     dept_attr, proj_attr):
        node_count, factor, dead = shape
        relation = Relation.from_dicts(EMP_HEADING, rows)
        db = Database({"emp": relation, "dept": DEPARTMENTS,
                       "proj": projects(rows)})
        cluster = Cluster(node_count, replication_factor=factor)
        cluster.create_table("emp", relation, emp_attr)
        cluster.create_table("dept", DEPARTMENTS, dept_attr, buckets=3)
        cluster.create_table("proj", db.relation("proj"), proj_attr)
        for index in dead:
            cluster.kill_node("node-%d" % index)
        for text in self.STATEMENTS:
            plan = compile_query(parse_query(text))
            expected = db.execute(plan)
            assert cluster.execute(plan) == expected
            assert cluster.execute(optimize(plan, db)) == expected


class TestJoinIsOneRelation:
    """A join denotes one relation: whichever operand is written
    first and whichever attribute either side is partitioned on, the
    answer is ``algebra.join`` of the full relations -- never a
    "cannot shuffle" refusal -- and the two operand orders pick the
    same strategy and ship the same bytes."""

    EMPLOYEES = Relation.from_dicts(EMP_HEADING, [
        {"emp": i, "name": "e-%d" % i, "dept": i % DEPT_SPACE,
         "salary": 30000 + i % 7}
        for i in range(30)
    ])
    DEPARTMENTS = Relation.from_dicts(DEPT_HEADING, [
        {"dept": d, "dname": "d-%d" % d, "budget": 1000 * d}
        for d in range(DEPT_SPACE)
    ])

    @pytest.mark.parametrize("dept_attr", DEPT_HEADING)
    @pytest.mark.parametrize("emp_attr", ["emp", "dept", "salary"])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_every_partitioning_and_operand_order(
        self, emp_attr, dept_attr, factor
    ):
        expected = algebra.join(self.EMPLOYEES, self.DEPARTMENTS)
        shipped = {}
        for left, right in (("emp", "dept"), ("dept", "emp")):
            cluster = Cluster(4, replication_factor=factor)
            cluster.create_table("emp", self.EMPLOYEES, emp_attr)
            cluster.create_table("dept", self.DEPARTMENTS, dept_attr)
            cluster.network.reset()
            assert cluster.execute(Join(Scan(left), Scan(right))) == expected
            shipped[left] = (
                cluster.last_query_span.attrs["strategy"],
                cluster.network.messages,
                cluster.network.bytes_shipped,
            )
        assert shipped["emp"] == shipped["dept"]


class TestFaultyReadOracle:
    @given(employee_rows(), st.integers(0, 2 ** 16))
    def test_chaos_plan_cannot_change_answers(self, rows, seed):
        # Chaos plans pair every kill with a revive and only inject
        # transient shipment faults.  With rf=2 and fewer queued
        # transients than max_attempts (2 < 3), every query is
        # guaranteed to succeed -- and must agree with the oracle
        # exactly.  (More transients than retry budget can legally
        # exhaust a ring; that case is covered by the typed-error
        # tests below.)
        relation, cluster = build(rows, 4, 2, [])
        cluster.install_faults(
            FaultPlan.chaos(
                seed, [node.name for node in cluster.nodes],
                horizon=40, kills=1, drops=1, corruptions=1,
            )
        )
        assert cluster.execute(Scan("emp")) == relation
        assert cluster.execute(Restrict(Scan("emp"),
                                        (Comparison("dept", "=", 3),))) == \
            algebra.restrict(relation, (Comparison("dept", "=", 3),))
        headcount = {"n": ("count", "emp")}
        assert cluster.execute(Aggregate(Scan("emp"), ["dept"], headcount)) \
            == local_aggregate(relation, ["dept"], headcount)
        # Revived + transient-only: full service must be restored.
        cluster.clear_faults()
        assert cluster.execute(Scan("emp")) == relation

    @staticmethod
    def wide_plans():
        """What only the fold can run: a join past the first, a union."""
        return (
            Join(Join(Scan("emp"), Scan("dept")), Scan("proj")),
            Union(Restrict(Scan("emp"), (Comparison("dept", "=", 3),)),
                  Restrict(Scan("emp"), (Comparison("salary", "=", 30007),))),
        )

    def wide_cluster(self, rows):
        relation, cluster = build(rows, 4, 2, [])
        # dept off its join attribute: the first join has to ship.
        cluster.create_table("dept", DEPARTMENTS, "dname")
        cluster.create_table("proj", projects(rows), "proj")
        return cluster, Database({
            "emp": relation, "dept": DEPARTMENTS, "proj": projects(rows),
        })

    @given(employee_rows(), st.integers(0, 2 ** 16))
    def test_chaos_cannot_change_a_three_way_join_or_a_union(
            self, rows, seed):
        cluster, db = self.wide_cluster(rows)
        cluster.install_faults(
            FaultPlan.chaos(
                seed, [node.name for node in cluster.nodes],
                horizon=60, kills=1, drops=1, corruptions=1,
            )
        )
        for plan in self.wide_plans():
            assert cluster.execute(plan) == db.execute(plan)

    @given(employee_rows(min_size=1))
    def test_a_dead_bucket_is_typed_or_named_for_every_plan_shape(
            self, rows):
        cluster, db = self.wide_cluster(rows)
        placement = cluster.shard_map("emp")
        bucket = placement.bucket_for(rows[0]["dept"])
        for index in placement.replicas(bucket):
            cluster.kill_node("node-%d" % index)
        for plan in self.wide_plans():
            with pytest.raises(ClusterUnavailableError):
                cluster.execute(plan)
            answer = cluster.execute(plan, allow_partial=True)
            assert isinstance(answer, Result) and answer.partial
            assert ("emp", bucket) in {
                (gap.table, gap.bucket) for gap in answer.missing
            }
            # Partial means fewer rows, never wrong ones.
            assert answer.relation.rows <= db.execute(plan).rows

    @given(employee_rows(), st.integers(0, 2 ** 16))
    def test_drop_and_corrupt_only_cost_retries(self, rows, seed):
        relation, cluster = build(rows, 3, 1, [])
        # A 3-bucket scan ticks 6 operations (access + ship each), so
        # offsets in 1..6 are guaranteed to fire during the scan.
        plan = FaultPlan()
        plan.drop_shipment(seed % 5 + 1)
        plan.corrupt_shipment(seed % 3 + 1)
        cluster.install_faults(plan)
        assert cluster.execute(Scan("emp")) == relation
        assert cluster.network.retries >= 1


class TestUnavailabilityIsTyped:
    @given(employee_rows(min_size=1), st.integers(1, 2))
    def test_dead_ring_raises_never_lies(self, rows, factor):
        relation = Relation.from_dicts(EMP_HEADING, rows)
        cluster = Cluster(4, replication_factor=factor)
        cluster.create_table("emp", relation, "dept")
        # Kill the full ring of the bucket holding the first row.
        dept = rows[0]["dept"]
        bucket = cluster.shard_map("emp").bucket_for(dept)
        for index in cluster.shard_map("emp").replicas(bucket):
            cluster.kill_node("node-%d" % index)
        with pytest.raises(ClusterUnavailableError) as excinfo:
            cluster.execute(Restrict(Scan("emp"),
                                     (Comparison("dept", "=", dept),)))
        assert excinfo.value.bucket == bucket
        with pytest.raises(ClusterUnavailableError):
            cluster.execute(Scan("emp"))

    def test_single_node_killed_with_rf2_never_raises(self):
        # The acceptance-criterion case, pinned without Hypothesis:
        # rf=2, any single node killed via a FaultPlan, every query
        # class still answers and matches the oracle.
        rows = [
            {"emp": i, "name": "e-%d" % i, "dept": i % DEPT_SPACE,
             "salary": 30000 + i}
            for i in range(40)
        ]
        relation = Relation.from_dicts(EMP_HEADING, rows)
        departments = Relation.from_dicts(
            DEPT_HEADING,
            [
                {"dept": d, "dname": "d-%d" % d, "budget": 1000 * d}
                for d in range(DEPT_SPACE)
            ],
        )
        spec = {"n": ("count", "emp"), "mean": ("avg", "salary")}
        for victim in range(4):
            cluster = Cluster(4, replication_factor=2)
            cluster.create_table("emp", relation, "dept")
            cluster.create_table("dept", departments, "dept")
            cluster.install_faults(
                FaultPlan().kill("node-%d" % victim, at_op=1)
            )
            assert cluster.execute(Scan("emp")) == relation
            assert cluster.execute(Restrict(Scan("emp"),
                    (Comparison("dept", "=", 5),))) == \
                algebra.restrict(relation, (Comparison("dept", "=", 5),))
            assert cluster.execute(Join(Scan("emp"), Scan("dept"))) == \
                algebra.join(relation, departments)
            assert cluster.execute(Aggregate(Scan("emp"), ["dept"], spec)) == \
                local_aggregate(relation, ["dept"], spec)
