"""Randomized cross-layer consistency ("the executors cannot disagree").

Hypothesis drives randomly-shaped plans over randomly-generated
databases and asserts the library's central redundancy: the
set-at-a-time executor, the record-at-a-time executor, the columnar
backend and the optimizer must produce identical relations for every
plan, and XQL must match hand-built plans for every query it can
express.  The cluster (``test_distributed_oracle.py``) and view
maintenance (``test_ivm.py``) answer the same drawn plans.
"""

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import Comparison
from repro.relational.optimizer import optimize
from repro.relational.query import (
    Database,
    Difference,
    Join,
    Plan,
    Project,
    Rename,
    Restrict,
    Scan,
    Union,
    plan_cache_key,
)
from repro.workloads.generators import department_relation, employee_relation

EMP_ATTRS = ("emp", "name", "dept", "salary")
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
#: Constants for a comparison: the typed twins ``1``/``1.0``/``True``
#: (and ``0``/``False``), department numbers, and salaries.
CONSTANTS = st.one_of(
    st.sampled_from([0, False, 1, 1.0, True, 2, 4.5, 6]),
    st.integers(min_value=0, max_value=120000),
)


def database(seed: int) -> Database:
    db = Database()
    db.add("emp", employee_relation(30, 5, seed=seed))
    db.add("dept", department_relation(5, seed=seed))
    return db


def comparisons(attrs) -> st.SearchStrategy[Comparison]:
    return st.builds(
        Comparison, st.sampled_from(attrs), st.sampled_from(OPERATORS),
        CONSTANTS,
    )


#: Constants an equality is drawn with: department numbers and their
#: twins, so it often keeps rows, and any other constant.
EQUAL_TO = st.one_of(st.sampled_from([0, 1, 1.0, True, 2, 3, 4]), CONSTANTS)


@st.composite
def conjunctions(draw, attrs):
    """One to three comparisons over ``attrs``; beside any mix, the
    shapes a restriction decides together are drawn on purpose, all on
    one attribute: two ranges, an equality with a range it admits or
    one it excludes, two equalities (contradictory unless twins), and
    an equality with an inequality of its own or another constant."""
    shape = draw(st.sampled_from((
        "any", "two_ranges", "equality_and_range", "two_equalities",
        "equal_and_unequal",
    )))
    if shape == "any":
        return draw(st.lists(comparisons(attrs), min_size=1, max_size=3))
    attr = draw(st.sampled_from(attrs))
    if shape == "two_ranges":
        pair = [
            Comparison(attr, draw(st.sampled_from((">", ">="))),
                       draw(CONSTANTS)),
            Comparison(attr, draw(st.sampled_from(("<", "<="))),
                       draw(CONSTANTS)),
        ]
    elif shape == "equality_and_range":
        value = draw(EQUAL_TO)
        pair = [
            Comparison(attr, "=", value),
            # A bound one below, at or one above the constant: the
            # range admits it or excludes it.
            Comparison(attr, draw(st.sampled_from(("<", "<=", ">", ">="))),
                       value + draw(st.sampled_from((-1, 0, 1)))),
        ]
    elif shape == "two_equalities":
        pair = [Comparison(attr, "=", draw(EQUAL_TO)),
                Comparison(attr, "=", draw(EQUAL_TO))]
    else:
        value = draw(EQUAL_TO)
        pair = [
            Comparison(attr, "=", value),
            Comparison(attr, "!=", draw(st.one_of(st.just(value), EQUAL_TO))),
        ]
    return pair + draw(st.lists(comparisons(attrs), max_size=1))


def plans() -> st.SearchStrategy[Plan]:
    """Random well-formed plans over the emp/dept schema.

    Structure generation is schema-aware: projections and renames pick
    attributes known to exist at their input (unary operators are only
    stacked over the raw emp scan, whose heading is static).  A
    restriction of one to three comparisons (:func:`conjunctions`) sits
    anywhere among them, and may top a Project, a Rename or a Join, so
    the optimizer has one to push down and merge.
    """
    scan = st.just(Scan("emp"))
    compared = ("salary", "dept", "emp")

    def extend(children):
        restrict = st.builds(Restrict, children, conjunctions(compared))
        union = st.builds(Union, children, children)
        difference = st.builds(Difference, children, children)
        return st.one_of(restrict, union, difference)

    emp_plan = st.recursive(scan, extend, max_leaves=4)

    def finish(plan):
        staged = [
            (plan, compared),
            (Project(plan, ["name", "dept"]), ("dept",)),
            (Rename(plan, {"name": "who"}), compared),
            (Rename(plan, {"salary": "pay"}), ("pay", "dept", "emp")),
            (Join(plan, Scan("dept")), compared),
        ]
        return st.sampled_from(staged).flatmap(lambda stage: st.one_of(
            st.just(stage[0]),
            conjunctions(stage[1]).map(
                lambda comparisons: Restrict(stage[0], comparisons)
            ),
        ))

    return emp_plan.flatmap(finish)


def spelled(relation):
    """A relation's rows in canonical order, every value spelled."""
    return repr(relation.rows)


class TestExecutorAgreement:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans(), seed=st.integers(min_value=0, max_value=5))
    def test_set_and_record_modes_agree(self, plan, seed):
        db = database(seed)
        assert spelled(db.execute(plan)) == spelled(db.execute_records(plan))

    @settings(max_examples=60, deadline=None)
    @given(plan=plans(), seed=st.integers(min_value=0, max_value=5))
    def test_set_and_columnar_modes_agree(self, plan, seed):
        encoded = database(seed)
        encoded.encode_columnar()
        assert spelled(encoded.execute(plan)) == \
            spelled(database(seed).execute(plan))

    @settings(max_examples=60, deadline=None)
    @given(plan=plans(), seed=st.integers(min_value=0, max_value=5))
    def test_optimizer_preserves_results(self, plan, seed):
        db = database(seed)
        assert db.execute(optimize(plan, db)) == db.execute(plan)

    @settings(max_examples=30, deadline=None)
    @given(plan=plans(), seed=st.integers(min_value=0, max_value=3))
    def test_optimized_plans_agree_with_record_mode(self, plan, seed):
        db = database(seed)
        assert db.execute(optimize(plan, db)) == db.execute_records(plan)


class TestPlansAreValues:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans(), seed=st.integers(min_value=0, max_value=5))
    def test_a_plan_is_its_own_copy_and_pickles_to_an_equal_one(
            self, plan, seed):
        assert copy.copy(plan) is plan and copy.deepcopy(plan) is plan
        again = pickle.loads(pickle.dumps(plan))
        assert type(again) is type(plan)
        assert plan_cache_key(again) == plan_cache_key(plan)
        db = database(seed)
        assert db.execute(again) == db.execute(plan)

    def test_a_template_pickles_with_its_placeholders(self):
        from repro.relational.sql import compile_query, parse_query

        template = compile_query(parse_query(
            "select name as who, dept from emp join dept "
            "where emp > $1 and dept = $2 limit $3"
        ))
        again = pickle.loads(pickle.dumps(template))
        assert plan_cache_key(again) == plan_cache_key(template)


class TestXQLAgreement:
    @settings(max_examples=40, deadline=None)
    @given(
        dept=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=4),
        project=st.booleans(),
        join=st.booleans(),
    )
    def test_xql_matches_hand_built_plans(self, dept, seed, project, join):
        from repro.relational.sql import run

        db = database(seed)
        text = "SELECT %s FROM emp%s WHERE dept = %d" % (
            "name, dept" if project else "*",
            " JOIN dept" if join else "",
            dept,
        )
        plan: Plan = Scan("emp")
        if join:
            plan = Join(plan, Scan("dept"))
        plan = Restrict(plan, (Comparison("dept", "=", dept),))
        if project:
            plan = Project(plan, ["name", "dept"])
        assert run(db, text) == db.execute(plan)


class TestKernelAgreementUnderComposition:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9),
        depth=st.integers(min_value=2, max_value=5),
        key=st.integers(min_value=0, max_value=19),
    )
    def test_fused_chains_agree_with_staged(self, seed, depth, key):
        from repro.core.composition import compose_chain, staged_apply
        from repro.workloads.generators import pipeline_stages
        from repro.xst.builders import xset, xtuple

        stages = pipeline_stages(depth, 20, seed=seed)
        probe = xset([xtuple([key])])
        assert compose_chain(stages).apply(probe) == staged_apply(
            stages, probe
        )
