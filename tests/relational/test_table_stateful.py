"""Stateful property testing: a Table can never be observed invalid.

Hypothesis drives random interleavings of inserts, deletes, updates
and failed mutations against a keyed, FK-guarded, check-constrained
table pair; after *every* step the invariants are re-verified from
scratch against a shadow model.  This is the strongest executable
reading of the paper's "intrinsically reliable" claim: no reachable
sequence of operations exposes a constraint-violating state.

A second machine is differential: statements are checked through each
constraint's *delta rule* over the rows they changed, and every step
compares that verdict, and the state it leaves, with the definition --
the whole-relation ``constraint.check`` run on the candidate value.
"""

import importlib

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.relational.algebra import Comparison, restrict
from repro.relational.constraints import (
    CheckConstraint,
    ForeignKeyConstraint,
    IntegrityError,
    KeyConstraint,
    Table,
)
from repro.relational.relation import Relation
from repro.relational.tx import TransactionManager
from repro.xst.xset import XSet

xset_module = importlib.import_module("repro.xst.xset")

DEPT_IDS = list(range(4))
EMP_IDS = list(range(12))


class TableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.departments = Table(
            ["dept", "dname"],
            [{"dept": dept, "dname": "d%d" % dept} for dept in DEPT_IDS],
            [KeyConstraint(["dept"])],
        )
        self.employees = Table(
            ["emp", "name", "dept", "salary"],
            [],
            [
                KeyConstraint(["emp"]),
                CheckConstraint(lambda row: row["salary"] > 0, "salary > 0"),
            ],
        )
        self.employees.add_constraint(
            ForeignKeyConstraint(["dept"], self.departments.snapshot)
        )
        # The shadow model: a plain dict keyed by emp id.
        self.model = {}

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(
        emp=st.sampled_from(EMP_IDS),
        dept=st.sampled_from(DEPT_IDS),
        salary=st.integers(min_value=1, max_value=9999),
    )
    def insert_valid(self, emp, dept, salary):
        row = {"emp": emp, "name": "n%d" % emp, "dept": dept,
               "salary": salary}
        if emp in self.model:
            try:
                self.employees.insert(row)
                raise AssertionError("duplicate key accepted")
            except IntegrityError:
                pass
        else:
            try:
                self.employees.insert(row)
            except IntegrityError:
                # Only possible duplicate-row rejection; with a fresh
                # key and valid fields this must succeed.
                raise
            self.model[emp] = row

    @rule(emp=st.sampled_from(EMP_IDS))
    def insert_bad_fk(self, emp):
        row = {"emp": emp, "name": "ghost", "dept": 404, "salary": 1}
        try:
            self.employees.insert(row)
            raise AssertionError("dangling FK accepted")
        except IntegrityError:
            pass

    @rule(emp=st.sampled_from(EMP_IDS))
    def insert_bad_salary(self, emp):
        row = {"emp": emp, "name": "neg", "dept": DEPT_IDS[0], "salary": -1}
        try:
            self.employees.insert(row)
            raise AssertionError("negative salary accepted")
        except IntegrityError:
            pass

    @rule(emp=st.sampled_from(EMP_IDS))
    def delete_by_key(self, emp):
        removed = self.employees.delete({"emp": emp})
        if emp in self.model:
            assert removed == 1
            del self.model[emp]
        else:
            assert removed == 0

    @rule(
        emp=st.sampled_from(EMP_IDS),
        dept=st.sampled_from(DEPT_IDS),
    )
    def update_dept(self, emp, dept):
        changed = self.employees.update({"emp": emp}, {"dept": dept})
        if emp in self.model:
            assert changed == 1
            self.model[emp]["dept"] = dept
        else:
            assert changed == 0

    @rule(emp=st.sampled_from(EMP_IDS))
    def update_to_bad_state_is_rejected(self, emp):
        try:
            self.employees.update({"emp": emp}, {"salary": -5})
            assert emp not in self.model  # no match -> 0 rows -> fine
        except IntegrityError:
            assert emp in self.model  # a real row was protected

    # ------------------------------------------------------------------
    # Invariants, re-verified after every rule
    # ------------------------------------------------------------------

    @invariant()
    def table_matches_the_model(self):
        rows = {row["emp"]: row for row in
                self.employees.snapshot().iter_dicts()}
        assert rows == self.model

    @invariant()
    def keys_are_unique(self):
        snapshot = self.employees.snapshot()
        emps = [row["emp"] for row in snapshot.iter_dicts()]
        assert len(emps) == len(set(emps))

    @invariant()
    def every_fk_resolves(self):
        valid = {row["dept"] for row in
                 self.departments.snapshot().iter_dicts()}
        for row in self.employees.snapshot().iter_dicts():
            assert row["dept"] in valid

    @invariant()
    def salaries_are_positive(self):
        for row in self.employees.snapshot().iter_dicts():
            assert row["salary"] > 0


TableMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestTableStateMachine = TableMachine.TestCase


# ----------------------------------------------------------------------
# Differential machine: delta verdict == full check on the candidate
# ----------------------------------------------------------------------

HEADING = ["emp", "salary"]
#: Typed twins on purpose: ``1`` and ``1.0`` are one key under XST
#: member equality, so a delta rule comparing spellings would miss it.
KEYS = st.sampled_from([0, 1, 2, 3, 1.0, 2.0, True])
SALARIES = st.sampled_from([-1, 1, 2, 2.0])
ROWS = st.builds(lambda emp, salary: {"emp": emp, "salary": salary},
                 KEYS, SALARIES)


class AtMostRows:
    """A constraint object with no delta rule: only ``check`` exists,
    so the table must fall back to it on every validation."""

    def __init__(self, limit):
        self.limit = limit

    def check(self, relation):
        if relation.cardinality() > self.limit:
            raise IntegrityError("more than %d rows" % self.limit)


def matching(rows, conditions):
    # Python's == agrees with XST member equality on these atoms.
    return [row for row in rows
            if all(row[attr] == value for attr, value in conditions.items())]


class DeltaVerdictMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # At most three rows: below the sixteen the shipped length rule
        # needs, so every write is made to patch the indexes it carries.
        self.shipped_few, xset_module._FEW = xset_module._FEW, 1
        self.table = Table(HEADING, [], [
            KeyConstraint(["emp"]),
            CheckConstraint(lambda row: row["salary"] > 0, "salary > 0"),
            AtMostRows(3),
        ])
        self.manager = TransactionManager({"emp": self.table})
        self.model = []  # the rows, as dicts

    def step(self, statement, candidate_rows, refused=False):
        """Run ``statement``; it must be accepted iff every constraint's
        whole-relation check accepts the candidate, and leave exactly
        the candidate (or, refused, exactly the state before)."""
        candidate = Relation.from_dicts(HEADING, candidate_rows)
        try:
            for constraint in self.table.constraints:
                constraint.check(candidate)
        except IntegrityError:
            refused = True
        before = self.table.snapshot()
        try:
            statement()
        except IntegrityError:
            assert refused, "delta rule refused a valid candidate"
            assert self.table.snapshot() is before
        else:
            assert not refused, "delta rule accepted an invalid candidate"
            self.model = list(candidate.iter_dicts())

    def without(self, doomed):
        return [row for row in self.model if row not in doomed]

    @rule(row=ROWS)
    def insert(self, row):
        self.step(lambda: self.table.insert(row), self.model + [row],
                  refused=row in self.model)

    @rule(rows=st.lists(ROWS, max_size=4))
    def insert_many(self, rows):
        # A batch may carry a duplicate key inside itself.
        self.step(lambda: self.table.insert_many(rows), self.model + rows)

    @rule(conditions=st.one_of(
        st.builds(lambda emp: {"emp": emp}, KEYS),
        st.builds(lambda salary: {"salary": salary}, SALARIES)))
    def delete(self, conditions):
        self.step(lambda: self.table.delete(conditions),
                  self.without(matching(self.model, conditions)))

    @rule(emp=KEYS, changes=st.one_of(
        st.builds(lambda emp: {"emp": emp}, KEYS),  # onto another key
        st.builds(lambda salary: {"salary": salary}, SALARIES)))
    def update(self, emp, changes):
        matched = matching(self.model, {"emp": emp})
        rewritten = [dict(row, **changes) for row in matched]
        self.step(lambda: self.table.update({"emp": emp}, changes),
                  self.without(matched) + rewritten)

    @rule(row=ROWS, deferred=st.booleans())
    def delete_then_reinsert_in_one_transaction(self, row, deferred):
        doomed = matching(self.model, {"emp": row["emp"]})

        def statement():
            with self.manager.transaction(deferred=deferred):
                self.table.delete({"emp": row["emp"]})
                self.table.insert(row)

        self.step(statement, self.without(doomed) + [row])

    @rule(rows=st.lists(ROWS, min_size=1, max_size=3), first=KEYS, last=KEYS)
    def deferred_batch(self, rows, first, last):
        """Transiently invalid states are fine; only the commit state
        is judged, through the accumulated delta -- in which a row
        deleted then re-inserted, or inserted then deleted, cancels."""
        candidate = self.without(matching(self.model, {"emp": first}))
        refused = False
        for row in rows:
            refused = refused or row in candidate  # "row already present"
            candidate = candidate + [row]
        candidate = [row for row in candidate
                     if row not in matching(candidate, {"emp": last})]

        def statement():
            with self.manager.transaction(deferred=True):
                self.table.delete({"emp": first})
                for row in rows:
                    self.table.insert(row)
                self.table.delete({"emp": last})

        self.step(statement, candidate, refused=refused)

    @rule(attr=st.sampled_from(HEADING), value=st.one_of(KEYS, SALARIES))
    def probe(self, attr, value):
        """A read between statements fills the member index of its
        scope, which every later write carries, patched."""
        assert restrict(self.table.snapshot(),
                        (Comparison(attr, "=", value),)) == \
            Relation.from_dicts(HEADING, matching(self.model, {attr: value}))

    @invariant()
    def indexes_are_fresh(self):
        rows = self.table.snapshot().rows
        copy = XSet._from_run(rows.pairs())
        for scope, index in (rows._by_part or {}).items():
            assert index == copy._members_holding(scope)  # order included

    def teardown(self):
        xset_module._FEW = self.shipped_few

    @invariant()
    def table_is_the_model_and_valid(self):
        assert self.table.snapshot() == Relation.from_dicts(
            HEADING, self.model
        )
        for constraint in self.table.constraints:
            constraint.check(self.table.snapshot())
        self.table.check_now()


DeltaVerdictMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestDeltaVerdictMachine = DeltaVerdictMachine.TestCase
