"""Randomized cross-layer consistency ("the executors cannot disagree").

Hypothesis drives randomly-shaped plans over randomly-generated
databases and asserts the library's central redundancy: the
set-at-a-time executor, the record-at-a-time executor and the
optimizer must produce identical relations for every plan, and XQL
must match hand-built plans for every query it can express.
"""

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
    Scan,
    SelectEq,
    SelectPred,
    Union,
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


def plans() -> st.SearchStrategy[Plan]:
    """Random well-formed plans over the emp/dept schema.

    Structure generation is schema-aware: projections and renames pick
    attributes known to exist at their input (unary operators are only
    stacked over the raw emp scan, whose heading is static).  A
    comparison sits anywhere among them, and may top a Project, a
    Rename or a Join, so the optimizer has one to push down.
    """
    scan = st.just(Scan("emp"))
    compared = ("salary", "dept", "emp")

    def extend(children):
        select = st.builds(
            SelectEq,
            children,
            st.fixed_dictionaries(
                {"dept": st.integers(min_value=0, max_value=6)}
            ),
        )
        compare = st.builds(SelectPred, children, comparisons(compared))
        union = st.builds(Union, children, children)
        difference = st.builds(Difference, children, children)
        return st.one_of(select, compare, union, difference)

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
            comparisons(stage[1]).map(
                lambda comparison: SelectPred(stage[0], comparison)
            ),
        ))

    return emp_plan.flatmap(finish)


class TestExecutorAgreement:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans(), seed=st.integers(min_value=0, max_value=5))
    def test_set_and_record_modes_agree(self, plan, seed):
        db = database(seed)
        assert db.execute(plan) == db.execute_records(plan)

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
        plan = SelectEq(plan, {"dept": dept})
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
