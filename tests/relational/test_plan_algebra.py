"""One plan algebra: the copies of an operator's meaning cannot disagree.

Every structural fact about an operator lives on its plan node
(``children`` / ``with_children`` / ``heading`` / ``apply`` /
``origin``); what needs module state is one ``{node type: rule}`` table
per module.  Three things are pinned here:

* the one heading rule (:meth:`Database.heading_of`) is exactly the
  kernels' own runtime verdict on both backends, for random plans,
  well formed and not -- so refusing a plan statically never changes
  which plans are answered;
* ``with_children`` rebuilds every node type faithfully;
* every operator has an entry in every table, and an operator nobody
  registered is refused typed by each walker instead of falling
  through.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational import algebra
from repro.relational.columnar import materialize
from repro.relational.cost import CardinalityEstimator
from repro.relational.distributed import Cluster
from repro.relational.ivm.delta import DeltaPropagator, DeltaUnsupported
from repro.relational.optimizer import optimize
from repro.relational.query import (
    Aggregate,
    Database,
    Difference,
    Join,
    Limit,
    Plan,
    Project,
    Rename,
    Scan,
    SelectEq,
    SelectPred,
    Union,
    plan_cache_key,
    scan_tables,
    scans,
)
from repro.relational.relation import Relation
from tests.relational.test_columnar_differential import (
    _draw_plan,
    _value_pool,
    table_pairs,
)


def concrete_operators():
    found, queue = [], [Plan]
    while queue:
        for cls in queue.pop().__subclasses__():
            queue.append(cls)
            if not cls.__name__.startswith("_") and \
                    cls.__module__ == Plan.__module__:
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def kernel_walk(db, plan):
    """Bottom-up through the per-node entry, *without* the static pass:
    only the kernels' own ``require`` calls can refuse."""
    return db.execute_node(
        plan, [kernel_walk(db, child) for child in plan.children()]
    )


# ----------------------------------------------------------------------
# (a) one heading rule == the kernels' verdict
# ----------------------------------------------------------------------


def _break(draw, plan, names, pool):
    """Make ``plan`` ill formed in one of the ways a heading rule must
    catch; returns the broken plan and the names later stages may use."""
    fault = draw(st.sampled_from((
        "unknown_select", "unknown_project", "unknown_rename",
        "colliding_rename", "duplicate_project", "mismatched_union",
        "mismatched_difference", "unknown_relation",
        "unknown_group", "unknown_source", "unknown_function",
        "colliding_output", "unknown_order",
    )))
    value = draw(st.sampled_from(pool))
    if fault == "unknown_select":
        return SelectEq(plan, {"zz": value}), names
    if fault == "unknown_project":
        return Project(plan, names + ("zz",)), names
    if fault == "unknown_rename":
        return Rename(plan, {"zz": "q"}), names
    if fault == "duplicate_project":
        return Project(plan, (names[0], names[0])), names[:1]
    if fault == "unknown_relation":
        return Join(plan, Scan("nope")), names
    if fault == "unknown_group":
        return Aggregate(plan, ("zz",), {"n": ("count", names[0])}), ("zz",)
    if fault == "unknown_source":
        return Aggregate(plan, names[:1], {"n": ("max", "zz")}), names[:1]
    if fault == "unknown_function":
        return Aggregate(plan, names[:1], {"n": ("median", names[0])}), \
            names[:1]
    if fault == "colliding_output":
        return Aggregate(plan, names[:1], {names[0]: ("count", names[0])}), \
            names[:1]
    if fault == "unknown_order":
        return Limit(plan, 2, "zz"), names
    if len(names) < 2:
        # One attribute: nothing to collide with or to drop.
        return SelectEq(plan, {"zz": value}), names
    if fault == "colliding_rename":
        return Rename(plan, {names[0]: names[1]}), names[1:]
    narrower = Project(plan, names[1:])
    node = Union if fault == "mismatched_union" else Difference
    return node(plan, narrower), names


@st.composite
def plans_over_tables(draw):
    """``(r, s, plan, well_formed)``; a broken node may sit under
    stages the optimizer would fuse it away through."""
    r, s = draw(table_pairs())
    pool = _value_pool(r, s)
    plan, names = _draw_plan(
        draw, {"r": r.heading.names, "s": s.heading.names}, pool, depth=3
    )
    well_formed = draw(st.booleans())
    if not well_formed:
        plan, names = _break(draw, plan, tuple(names), pool)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            if draw(st.booleans()):
                plan = Project(plan, names[:1])
                names = names[:1]
            else:
                plan = SelectEq(plan, {names[0]: draw(st.sampled_from(pool))})
    return r, s, plan, well_formed


def verdict(run):
    try:
        return run()
    except SchemaError:
        return SchemaError


class TestOneHeadingRule:
    @settings(max_examples=150, deadline=None)
    @given(case=plans_over_tables())
    def test_static_verdict_is_the_kernels_verdict(self, case):
        r, s, plan, well_formed = case
        row_db = Database({"r": r, "s": s})
        col_db = Database({"r": r, "s": s})
        col_db.encode_columnar()
        static = verdict(lambda: row_db.heading_of(plan))
        assert (static is SchemaError) == (not well_formed)
        results = [
            verdict(lambda: materialize(kernel_walk(row_db, plan))),
            verdict(lambda: materialize(kernel_walk(col_db, plan))),
            verdict(lambda: row_db.execute(plan)),
            verdict(lambda: col_db.execute(plan)),
            verdict(lambda: row_db.execute_records(plan)),
            verdict(lambda: row_db.execute(optimize(plan, row_db))),
        ]
        if static is SchemaError:
            assert results == [SchemaError] * len(results)
        else:
            assert all(result == results[0] for result in results)
            for result in results:
                assert result.heading == static
            # Declaration order too (the column order of ``to_rows``
            # and of every reply page) -- except through the optimizer,
            # whose join swap is symmetric only up to that order.
            for result in results[:-1]:
                assert result.heading.names == static.names


# ----------------------------------------------------------------------
# (b) with_children
# ----------------------------------------------------------------------


def _keyed(attr, value):
    return SelectPred(
        Scan("emp"), lambda row: row[attr] > value, "%s > %r" % (attr, value),
        cache_key="%s > %r" % (attr, value),
    )


#: One small plan per operator, as a factory so two calls give equal
#: plans sharing no node.
ONE_NODE_PLANS = {
    Scan: lambda: Scan("emp"),
    SelectEq: lambda: SelectEq(Scan("emp"), {"dept": 1}),
    SelectPred: lambda: _keyed("salary", 10),
    Project: lambda: Project(Scan("emp"), ["dept", "emp"]),
    Rename: lambda: Rename(Scan("emp"), {"emp": "who"}),
    Join: lambda: Join(Scan("emp"), Scan("dept")),
    Union: lambda: Union(Scan("emp"), SelectEq(Scan("emp"), {"dept": 1})),
    Difference: lambda: Difference(
        Scan("emp"), SelectEq(Scan("emp"), {"dept": 1})
    ),
    Aggregate: lambda: Aggregate(
        Scan("emp"), ["dept"],
        {"n": ("count", "emp"), "pay": ("avg", "salary")},
    ),
    Limit: lambda: Limit(Scan("emp"), 5, "salary", True),
}


@pytest.fixture(scope="module")
def db():
    return Database({
        "emp": Relation.from_tuples(
            ["emp", "dept", "salary"],
            [(i, i % 3, 10 * i) for i in range(12)],
        ),
        "dept": Relation.from_tuples(
            ["dept", "dname"], [(i, "d%d" % i) for i in range(3)]
        ),
    })


def test_the_factories_cover_every_operator():
    """A new operator class must be added to this file's table -- which
    is what makes the coverage tests below check it."""
    assert concrete_operators() == sorted(
        ONE_NODE_PLANS, key=lambda cls: cls.__name__
    )


@pytest.mark.parametrize("operator", sorted(ONE_NODE_PLANS, key=str))
class TestWithChildren:
    def test_same_children_is_self(self, operator):
        plan = ONE_NODE_PLANS[operator]()
        assert plan.with_children(*plan.children()) is plan

    def test_fresh_equal_children_rebuild_faithfully(self, db, operator):
        plan, twin = ONE_NODE_PLANS[operator](), ONE_NODE_PLANS[operator]()
        rebuilt = plan.with_children(*twin.children())
        assert type(rebuilt) is operator
        if plan.children():
            assert rebuilt is not plan
            assert all(
                new is fresh for new, fresh
                in zip(rebuilt.children(), twin.children())
            )
        assert rebuilt.describe() == plan.describe()
        assert rebuilt.explain() == plan.explain()
        assert plan_cache_key(rebuilt) == plan_cache_key(plan) is not None
        assert db.execute(rebuilt) == db.execute(plan)


def test_a_pass_that_rewrites_nothing_returns_its_input(db):
    from repro.relational.optimizer import _rewrite

    plan = Project(SelectEq(Scan("emp"), {"emp": 3}), ["emp", "salary"])
    assert _rewrite(plan, db) is plan
    assert optimize(plan, db) is plan


# ----------------------------------------------------------------------
# (c) every operator in every table; strangers refused typed
# ----------------------------------------------------------------------


def _cluster(db):
    cluster = Cluster(2, replication_factor=1)
    cluster.create_table("emp", db.relation("emp"), "emp")
    cluster.create_table("dept", db.relation("dept"), "dept")
    return cluster


@pytest.mark.parametrize("operator", sorted(ONE_NODE_PLANS, key=str))
def test_every_walker_knows_every_operator(db, operator):
    plan = ONE_NODE_PLANS[operator]()
    encoded = Database({name: db.relation(name) for name in db.names()})
    encoded.encode_columnar()
    answer = db.execute(plan)
    assert encoded.execute(plan) == answer
    assert db.execute_records(plan) == answer
    assert db.execute(optimize(plan, db)) == answer
    assert answer.heading == db.heading_of(plan)
    estimator = CardinalityEstimator(db)
    assert estimator.estimate(plan) >= 0.0
    assert estimator.cost(plan) >= 0.0
    assert DeltaPropagator(db, {}).delta(plan).is_empty()
    assert plan_cache_key(plan) is not None
    assert set(scans(plan)) == set(scan_tables(plan)) <= {"emp", "dept"}
    # The third backend: pushed down or gathered, the same relation.
    assert _cluster(db).execute(plan) == answer


class Stranger(Plan):
    """An eleventh operator that registered nowhere: only the two methods
    the base class has always asked for."""

    __slots__ = ("child",)

    def __init__(self, child):
        object.__setattr__(self, "child", child)

    def children(self):
        return (self.child,)

    def describe(self):
        return "Stranger"


class Passthrough(Stranger):
    """An eleventh operator that implements the node protocol and nothing
    else: the generic walkers run it, the per-module tables refuse."""

    __slots__ = ()

    def with_children(self, child):
        return self if child is self.child else Passthrough(child)

    def heading(self, child):
        return child

    def apply(self, kernels, inputs):
        return inputs[0]

    def describe(self):
        return "Passthrough"


class TestUnregisteredOperators:
    @pytest.mark.parametrize("wrap", [
        lambda plan: plan,
        lambda plan: Project(plan, ["emp"]),
        lambda plan: Join(Scan("dept"), plan),
    ], ids=["root", "under_project", "under_join"])
    def test_a_stranger_is_refused_typed_everywhere(self, db, wrap):
        plan = wrap(Stranger(Scan("emp")))
        estimator = CardinalityEstimator(db)
        for run in (
            db.heading_of,
            db.execute,
            db.execute_records,
            lambda p: optimize(p, db),
            lambda p: kernel_walk(db, p),
            estimator.estimate,
            estimator.cost,
            _cluster(db).execute,
        ):
            with pytest.raises(TypeError, match="unknown plan node"):
                run(plan)
        with pytest.raises(DeltaUnsupported, match="Stranger"):
            DeltaPropagator(db, {}).delta(plan)
        # Text-only walkers need nothing but children()/describe().
        assert scans(plan)[-1] == "emp"
        assert "Stranger" in plan_cache_key(plan)

    def test_the_protocol_alone_is_enough_to_execute(self, db):
        plan = Project(Passthrough(SelectEq(Scan("emp"), {"dept": 1})),
                       ["emp"])
        expected = db.execute(Project(SelectEq(Scan("emp"), {"dept": 1}),
                                      ["emp"]))
        encoded = Database({"emp": db.relation("emp")})
        encoded.encode_columnar()
        assert db.execute(plan) == expected
        assert encoded.execute(plan) == expected
        assert db.execute(optimize(plan, db)) == expected
        assert db.heading_of(plan).names == ("emp",)
        # ...and each per-module table still says which entry is missing.
        with pytest.raises(TypeError, match="unknown plan node"):
            CardinalityEstimator(db).cost(plan)
        with pytest.raises(DeltaUnsupported, match="Passthrough"):
            DeltaPropagator(db, {}).delta(plan)
        with pytest.raises(TypeError, match="unknown plan node"):
            db.execute_records(plan)
        # The cluster is a backend too: the operand passes through
        # still in its buckets and the projection above is pushed down.
        cluster = _cluster(db)
        assert cluster.execute(plan) == expected
        assert cluster.last_query_describe == \
            "execute(emp [dept=1 Passthrough pi(emp)])"

    def test_garbage_is_not_a_plan(self, db):
        for run in (db.heading_of, db.execute, db.execute_records,
                    lambda p: optimize(p, db)):
            with pytest.raises(TypeError, match="unknown plan node"):
                run("not a plan")
            with pytest.raises(TypeError, match="unknown plan node"):
                run(Project("not a plan", ["emp"]))


def test_origin_names_the_input_attribute():
    rename = Rename(Scan("emp"), {"emp": "who", "dept": "unit"})
    assert rename.origin("who") == "emp"
    assert rename.origin("unit") == "dept"
    assert rename.origin("salary") == "salary"
    assert SelectEq(Scan("emp"), {"dept": 1}).origin("dept") == "dept"
    top = Aggregate(Scan("emp"), ["dept"], {"salary": ("max", "salary")})
    assert top.origin("dept") == "dept"
    assert top.origin("salary") is None  # computed here, whatever its name


def test_what_sits_above_a_hand_back_to_rows_is_costed_on_rows(db):
    """``Aggregate`` and ``Limit`` have no batch kernel: on an encoded
    database they and every node above them run on rows, and a computed
    column has no base statistics behind it."""
    encoded = Database({name: db.relation(name) for name in db.names()})
    encoded.encode_columnar()
    estimator = CardinalityEstimator(encoded)
    below = SelectEq(Scan("emp"), {"dept": 1})
    assert estimator.runs_encoded(below)
    top = Aggregate(below, ["dept"], {"salary": ("max", "salary")})
    for node in (top, Limit(below, 2), Project(top, ["salary"]),
                 Join(Limit(below, 2), Scan("dept"))):
        assert not estimator.runs_encoded(node)
    assert estimator.distinct(below, "salary") is not None
    assert estimator.distinct(top, "salary") is None
    assert estimator.distinct(top, "dept") == 1.0


def test_every_backend_spells_the_kernels_alike(db):
    """``Plan.apply`` spells each kernel once for all three backends;
    a name the cluster has no method for is ``algebra``'s, gathered."""
    from repro.relational.columnar import ColumnarRelation
    from repro.relational.distributed import _ShardKernels

    cluster_kernels = _ShardKernels(_cluster(db), None)
    from repro.relational.query import _RUN_KERNELS

    for name in ("select_eq", "select_pred", "project", "rename", "join",
                 "union", "difference"):
        assert callable(getattr(algebra, name))
        assert getattr(_RUN_KERNELS, name) is getattr(ColumnarRelation, name)
        assert callable(getattr(cluster_kernels, name))
    # No batch kernel: sorted runs hand these two back to rows, the
    # cluster summarizes one in its buckets and gathers for the other.
    for name in ("aggregate", "limit"):
        assert callable(getattr(algebra, name))
        assert not hasattr(ColumnarRelation, name)
        assert callable(getattr(_RUN_KERNELS, name))
        assert callable(getattr(cluster_kernels, name))
    with pytest.raises(AttributeError):
        _RUN_KERNELS.no_such_kernel
    with pytest.raises(AttributeError):
        cluster_kernels.no_such_kernel
