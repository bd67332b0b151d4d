"""Governance on the columnar fast path: same ledgers, same refusals.

Two properties pin the backend swap for governed execution:

1. **Ledger parity.**  The columnar batch kernels charge the ambient
   :class:`~repro.gov.Budget` exactly what the row kernels charge --
   restriction charges kept rows, the merge join charges emitted
   matches, projection charges nothing (the row sigma-domain never
   did), and every plan node charges its output cardinality, which the
   differential oracle proves is backend-invariant.  So after any
   completed governed query, ``budget.rows`` and ``budget.cells`` are
   identical across backends -- a deadline or budget drawn down by the
   columnar path is the *same ledger state* the row path would leave.

2. **Answers never change.**  As everywhere else in the governor
   suite: adding a limit on the columnar path either completes with
   the ungoverned answer or raises the typed error at a checkpoint --
   there is no third region, and the checkpoints it dies at are the
   ``columnar.*`` batch sites or the shared ``plan.*`` node sites.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError, DeadlineExceededError
from repro.gov import Deadline, governed
from repro.relational.algebra import Comparison
from repro.relational.query import (
    Database,
    Difference,
    Join,
    Project,
    Restrict,
    Scan,
    Union,
)
from repro.relational.relation import Relation

rows_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    min_size=0, max_size=25,
)


def _databases(rows):
    """The same data twice: row backend and columnar backend."""
    tables = {
        "t": Relation.from_tuples(["a", "b"], rows),
        "u": Relation.from_tuples(["b", "c"], [(b, a) for a, b in rows]),
    }
    db_row = Database(dict(tables))
    db_col = Database(dict(tables))
    db_col.encode_columnar()
    return db_row, db_col


PLANS = [
    Restrict(Scan("t"), (Comparison("b", "=", 2),)),
    Project(Restrict(Scan("t"), (Comparison("b", "=", 2),)), ["a"]),
    Join(Scan("t"), Scan("u")),
    Project(Join(Scan("t"), Scan("u")), ["a", "c"]),
    Union(Scan("t"), Restrict(Scan("t"), (Comparison("a", "=", 1),))),
    Difference(Scan("t"), Restrict(Scan("t"), (Comparison("a", "=", 1),))),
    # Equalities are the restriction both backends charge; the other
    # comparisons are a separation neither charges.
    Restrict(Scan("t"), (Comparison("b", "=", 2), Comparison("a", ">", 1))),
    Restrict(Scan("t"), (Comparison("a", ">", 1), Comparison("a", "<", 4))),
]


class TestLedgerParity:
    @settings(max_examples=40, deadline=None)
    @given(rows=rows_strategy, plan=st.sampled_from(PLANS))
    def test_budget_charges_are_backend_invariant(self, rows, plan):
        db_row, db_col = _databases(rows)
        with governed(max_rows=10**9) as gov_row:
            expected = db_row.execute(plan)
        with governed(max_rows=10**9) as gov_col:
            actual = db_col.execute(plan)
        assert actual == expected
        assert gov_col.budget.rows == gov_row.budget.rows
        assert gov_col.budget.cells == gov_row.budget.cells

    @settings(max_examples=30, deadline=None)
    @given(rows=rows_strategy, plan=st.sampled_from(PLANS),
           max_rows=st.integers(min_value=0, max_value=300))
    def test_refusal_is_backend_invariant(self, rows, plan, max_rows):
        """Identical charges mean identical complete-vs-refuse outcomes."""
        db_row, db_col = _databases(rows)

        def outcome(db):
            try:
                with governed(max_rows=max_rows):
                    return ("ok", db.execute(plan).cardinality())
            except BudgetExceededError as error:
                return ("budget", error.resource)

        assert outcome(db_col) == outcome(db_row)


class TestColumnarAnswersNeverChange:
    @settings(max_examples=40, deadline=None)
    @given(rows=rows_strategy, plan=st.sampled_from(PLANS),
           max_rows=st.integers(min_value=0, max_value=2000))
    def test_budget_completes_or_refuses(self, rows, plan, max_rows):
        db_row, db_col = _databases(rows)
        baseline = db_row.execute(plan)
        try:
            with governed(max_rows=max_rows):
                answer = db_col.execute(plan)
        except BudgetExceededError as error:
            # Refusal names a real cancellation point on the new path.
            assert error.site.startswith(("columnar.", "plan."))
            return
        assert answer == baseline

    @settings(max_examples=25, deadline=None)
    @given(rows=rows_strategy, plan=st.sampled_from(PLANS),
           charge=st.floats(min_value=0.0, max_value=2.0))
    def test_simulated_deadline_is_deterministic(self, rows, plan, charge):
        """Injected (simulated) deadline checkpoints never change rows."""
        _, db_col = _databases(rows)

        def attempt():
            deadline = Deadline.simulated(1.0)
            deadline.charge(charge)
            try:
                with governed(deadline=deadline):
                    return ("ok", db_col.execute(plan).cardinality())
            except DeadlineExceededError as error:
                return ("deadline", error.site)

        assert attempt() == attempt()

    def test_budget_dies_inside_the_merge_join(self):
        """A runaway join is refused mid-kernel, at a columnar site."""
        rows = [(i, i % 4) for i in range(40)]  # 4 join keys, fanout 10
        _, db_col = _databases(rows)
        plan = Join(Scan("t"), Scan("u"))  # fanout blowup on b
        # Large enough to survive both scans (2 x 40 rows at the
        # plan.scan checkpoints), far smaller than the ~400 matches the
        # join emits -- so the refusal happens inside the merge kernel.
        try:
            with governed(max_rows=100):
                db_col.execute(plan)
        except BudgetExceededError as error:
            assert error.site == "columnar.join"
            assert error.resource == "rows"
        else:  # pragma: no cover - the join must overrun 3 rows
            raise AssertionError("expected a budget refusal")

    def test_deadline_site_is_columnar_on_encoded_scans(self):
        """An already-expired deadline dies at a checkpoint on this path."""
        rows = [(i % 3, i % 3) for i in range(30)]
        _, db_col = _databases(rows)
        deadline = Deadline.simulated(0.5)
        deadline.charge(1.0)  # expired before the first checkpoint
        try:
            with governed(deadline=deadline):
                db_col.execute(Join(Scan("t"), Scan("u")))
        except DeadlineExceededError as error:
            assert error.site.startswith(("columnar.", "plan."))
        else:  # pragma: no cover
            raise AssertionError("expected a deadline refusal")
