"""XQL: parsing, compilation, execution, and agreement with the algebra."""

import pytest

from repro.errors import NotationError, SchemaError
from repro.relational import algebra, sql
from repro.relational.distributed import Cluster
from repro.relational.query import (
    Aggregate,
    Database,
    Limit,
    Project,
    Rename,
    Scan,
    SelectEq,
    SelectPred,
)
from repro.relational.relation import Relation
from repro.relational.sql import compile_query, parse_query, run
from repro.xst.ordering import canonical_key
from repro.workloads.generators import department_relation, employee_relation


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.add("emp", employee_relation(80, 6, seed=23))
    database.add("dept", department_relation(6, seed=23))
    return database


class TestParsing:
    def test_star(self):
        query = parse_query("SELECT * FROM emp")
        assert query.star and query.sources == ["emp"]

    def test_columns_and_aliases(self):
        query = parse_query("SELECT name, dept AS division FROM emp")
        assert query.columns == [("name", None), ("dept", "division")]

    def test_joins(self):
        query = parse_query("SELECT * FROM emp JOIN dept JOIN other")
        assert query.sources == ["emp", "dept", "other"]

    def test_conditions(self):
        query = parse_query(
            "SELECT * FROM emp WHERE dept = 3 AND salary >= 50000"
        )
        assert ("dept", "=", 3) in query.conditions
        assert ("salary", ">=", 50000) in query.conditions

    def test_string_literals(self):
        query = parse_query("SELECT * FROM dept WHERE dname = 'dept-3'")
        assert query.conditions == [("dname", "=", "dept-3")]

    def test_aggregates(self):
        query = parse_query(
            "SELECT dept, COUNT(emp) AS n FROM emp GROUP BY dept"
        )
        assert query.aggregates == [("count", "emp", "n")]
        assert query.group_by == ["dept"]

    def test_keywords_are_case_insensitive(self):
        assert parse_query("select * from emp").sources == ["emp"]

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT",
            "SELECT * FROM",
            "SELECT FROM emp",
            "SELECT * WHERE x = 1",
            "SELECT * FROM emp WHERE",
            "SELECT * FROM emp WHERE dept",
            "SELECT * FROM emp WHERE dept = ",
            "SELECT * FROM emp trailing",
            "SELECT COUNT(emp) AS n FROM emp",     # aggregate without GROUP BY
            "SELECT COUNT emp AS n FROM emp GROUP BY dept",
            "SELECT * FROM emp WHERE dept ~ 3",
        ],
    )
    def test_malformed_queries(self, bad):
        with pytest.raises(NotationError):
            parse_query(bad)


class TestExecution:
    def test_select_star(self, db):
        result = run(db, "SELECT * FROM emp")
        assert result == db.relation("emp")

    def test_projection_matches_algebra(self, db):
        result = run(db, "SELECT name, dept FROM emp")
        assert result == algebra.project(db.relation("emp"), ["name", "dept"])

    def test_alias_renames(self, db):
        result = run(db, "SELECT dept AS division FROM emp")
        assert result.heading.names == ("division",)

    def test_equality_filter_matches_algebra(self, db):
        result = run(db, "SELECT * FROM emp WHERE dept = 2")
        assert result == algebra.select_eq(db.relation("emp"), {"dept": 2})

    def test_inequality_filters(self, db):
        result = run(db, "SELECT * FROM emp WHERE salary < 50000")
        assert result.cardinality() > 0
        assert all(row["salary"] < 50000 for row in result.iter_dicts())

    def test_combined_filters(self, db):
        result = run(
            db, "SELECT * FROM emp WHERE dept = 1 AND salary >= 40000"
        )
        assert all(
            row["dept"] == 1 and row["salary"] >= 40000
            for row in result.iter_dicts()
        )

    def test_join_matches_algebra(self, db):
        result = run(db, "SELECT * FROM emp JOIN dept")
        assert result == algebra.join(db.relation("emp"), db.relation("dept"))

    def test_join_with_filter_and_projection(self, db):
        result = run(
            db,
            "SELECT name, dname FROM emp JOIN dept WHERE dname = 'dept-2'",
        )
        assert result.heading.names == ("name", "dname")
        assert all(row["dname"] == "dept-2" for row in result.iter_dicts())

    def test_group_by_aggregate(self, db):
        result = run(
            db,
            "SELECT dept, COUNT(emp) AS n, SUM(salary) AS pay "
            "FROM emp GROUP BY dept",
        )
        assert result.cardinality() == 6
        assert sum(row["n"] for row in result.iter_dicts()) == 80

    def test_group_by_without_aggregates_is_distinct(self, db):
        result = run(db, "SELECT dept FROM emp GROUP BY dept")
        assert result.cardinality() == 6

    def test_min_max_avg(self, db):
        result = run(
            db,
            "SELECT dept, MIN(salary) AS low, MAX(salary) AS high, "
            "AVG(salary) AS mean FROM emp GROUP BY dept",
        )
        for row in result.iter_dicts():
            assert row["low"] <= row["mean"] <= row["high"]

    def test_unknown_relation_surfaces(self, db):
        with pytest.raises(SchemaError):
            run(db, "SELECT * FROM ghost")

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(SchemaError, match="non-grouped"):
            run(db, "SELECT name, COUNT(emp) AS n FROM emp GROUP BY dept")


class TestOrderAndLimit:
    def test_order_by_parses(self):
        query = parse_query("SELECT * FROM emp ORDER BY salary DESC")
        assert query.order_by == ("salary", True)
        query = parse_query("SELECT * FROM emp ORDER BY salary ASC")
        assert query.order_by == ("salary", False)
        query = parse_query("SELECT * FROM emp ORDER BY salary")
        assert query.order_by == ("salary", False)

    def test_limit_parses(self):
        assert parse_query("SELECT * FROM emp LIMIT 5").limit == 5
        assert parse_query("SELECT * FROM emp LIMIT 0").limit == 0

    def test_bad_limit_rejected(self):
        with pytest.raises(NotationError):
            parse_query("SELECT * FROM emp LIMIT x")
        with pytest.raises(NotationError):
            parse_query("SELECT * FROM emp LIMIT 1.5")

    def test_limit_truncates_the_relation(self, db):
        result = run(db, "SELECT * FROM emp ORDER BY salary DESC LIMIT 5")
        assert result.cardinality() == 5

    def test_order_by_limit_picks_the_top(self, db):
        from repro.relational.sql import run_rows

        rows = run_rows(
            db, "SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 3"
        )
        assert len(rows) == 3
        salaries = [row["salary"] for row in rows]
        assert salaries == sorted(salaries, reverse=True)
        ceiling = max(
            row["salary"] for row in db.relation("emp").iter_dicts()
        )
        assert salaries[0] == ceiling

    def test_run_rows_honors_ascending_order(self, db):
        from repro.relational.sql import run_rows

        rows = run_rows(db, "SELECT salary FROM emp ORDER BY salary")
        salaries = [row["salary"] for row in rows]
        assert salaries == sorted(salaries)

    def test_limit_zero(self, db):
        result = run(db, "SELECT * FROM emp LIMIT 0")
        assert result.cardinality() == 0

    def test_order_without_limit_leaves_the_relation_alone(self, db):
        unordered = run(db, "SELECT * FROM emp")
        ordered = run(db, "SELECT * FROM emp ORDER BY salary")
        assert ordered == unordered

    def test_order_by_with_group_by(self, db):
        from repro.relational.sql import run_rows

        rows = run_rows(
            db,
            "SELECT dept, SUM(salary) AS pay FROM emp GROUP BY dept "
            "ORDER BY pay DESC LIMIT 2",
        )
        assert len(rows) == 2
        assert rows[0]["pay"] >= rows[1]["pay"]


class TestTheWholeStatementIsOnePlan:
    """GROUP BY, the aggregates and ORDER BY ... LIMIT compile to plan
    nodes; nothing is left for after ``Database.execute``."""

    def test_compiles_to_aggregate_tail_limit(self):
        plan = compile_query(parse_query(
            "SELECT dept AS d, COUNT(emp) AS n, AVG(salary) AS pay "
            "FROM emp WHERE salary > 9 GROUP BY dept ORDER BY n DESC LIMIT 4"
        ))
        assert isinstance(plan, Limit)
        assert (plan.count, plan.order_by, plan.descending) == (4, "n", True)
        rename = plan.child
        assert isinstance(rename, Rename) and rename.mapping == {"dept": "d"}
        project = rename.child
        assert isinstance(project, Project)
        assert project.attrs == ("dept", "n", "pay")
        aggregate = project.child
        assert isinstance(aggregate, Aggregate)
        assert aggregate.group_attrs == ("dept",)
        assert aggregate.aggregations == {
            "n": ("count", "emp"), "pay": ("avg", "salary"),
        }
        assert isinstance(aggregate.child, SelectPred)

    def test_nothing_runs_after_execute(self, db, monkeypatch):
        answers = []
        execute = Database.execute

        def spy(self, plan):
            answers.append(execute(self, plan))
            return answers[-1]

        monkeypatch.setattr(Database, "execute", spy)
        for text in (
            "SELECT dept, COUNT(emp) AS n FROM emp GROUP BY dept",
            "SELECT dept FROM emp GROUP BY dept",
            "SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 3",
            "SELECT dept AS d, SUM(salary) AS pay FROM emp GROUP BY dept "
            "ORDER BY pay LIMIT 2",
        ):
            assert run(db, text) is answers[-1]
        assert len(answers) == 4

    def test_aliases_are_honoured_in_grouped_statements(self, db):
        result = run(
            db, "SELECT dept AS d, COUNT(emp) AS n FROM emp GROUP BY dept"
        )
        assert result.heading.names == ("d", "n")
        assert result == algebra.rename(
            algebra.aggregate(
                db.relation("emp"), ["dept"], {"n": ("count", "emp")}
            ),
            {"dept": "d"},
        )

    def test_a_select_list_of_aggregates_keeps_the_group_keys(self, db):
        result = run(db, "SELECT COUNT(emp) AS n FROM emp GROUP BY dept")
        assert result.heading.names == ("dept", "n")

    def test_compiled_statements_run_on_every_backend(self, db):
        encoded = Database({name: db.relation(name) for name in db.names()})
        encoded.encode_columnar()
        cluster = Cluster(3)
        cluster.create_table("emp", db.relation("emp"), "dept")
        cluster.create_table("dept", db.relation("dept"), "dept")
        for text in (
            "SELECT dname, COUNT(emp) AS n, MIN(salary) AS low FROM emp "
            "JOIN dept WHERE salary > 40000 GROUP BY dname",
            "SELECT dept, AVG(salary) AS pay FROM emp WHERE dept = 3 "
            "GROUP BY dept",
            "SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 5",
            "SELECT dept, SUM(salary) AS pay FROM emp GROUP BY dept "
            "ORDER BY pay LIMIT 2",
        ):
            plan = compile_query(parse_query(text))
            expected = db.execute(plan)
            assert expected.cardinality() > 0
            assert encoded.execute(plan) == expected
            assert db.execute_records(plan) == expected
            assert db.execute(sql.optimize(plan, db)) == expected
            assert cluster.execute(plan) == expected


class TestNoDoorSortsWithPythonsLessThan:
    """A column holding ``None``, numbers and strings has no Python
    order; the kernel's (``canonical_key``) is total over it."""

    MIXED = Relation.from_tuples(["k", "v"], [
        (1, None), (2, 3), (3, "x"), (4, 1.5), (5, "a"), (6, True),
    ])

    @pytest.fixture
    def mixed(self):
        return Database({"t": self.MIXED})

    @pytest.mark.parametrize("direction", ["", " ASC", " DESC"])
    def test_order_by_limit_answers_through_every_door(
        self, mixed, direction
    ):
        text = "SELECT k, v FROM t ORDER BY v%s LIMIT 2" % direction
        ranked = sorted(
            self.MIXED.iter_dicts(), key=lambda row: canonical_key(row["v"]),
            reverse=direction == " DESC",
        )
        answer = run(mixed, text)
        assert sorted(answer.to_rows()) == sorted(
            (row["k"], row["v"]) for row in ranked[:2]
        )
        assert sql.run_rows(mixed, text) == ranked[:2]
        plan = compile_query(parse_query(text))
        assert mixed.execute_records(plan) == answer
        cluster = Cluster(2)
        cluster.create_table("t", self.MIXED, "k")
        assert cluster.execute(plan) == answer

    def test_run_rows_orders_the_whole_answer(self, mixed):
        rows = sql.run_rows(mixed, "SELECT v FROM t ORDER BY v DESC")
        keys = [canonical_key(row["v"]) for row in rows]
        assert keys == sorted(keys, reverse=True) and len(rows) == 6

    def test_min_and_max_fold_by_the_kernels_order(self, mixed):
        ranked = sorted(
            (row["v"] for row in self.MIXED.iter_dicts()), key=canonical_key
        )
        assert algebra.aggregate(
            self.MIXED, [], {"lo": ("min", "v"), "hi": ("max", "v")}
        ).to_rows() == [(ranked[0], ranked[-1])]
        plan = Aggregate(Scan("t"), [], {"lo": ("min", "v")})
        cluster = Cluster(2)
        cluster.create_table("t", self.MIXED, "k")
        assert cluster.execute(plan) == mixed.execute(plan) == \
            mixed.execute_records(plan)

    @pytest.mark.parametrize("function", ["sum", "avg"])
    def test_adding_what_does_not_add_is_a_schema_error(
        self, mixed, function
    ):
        plan = Aggregate(Scan("t"), [], {"o": (function, "v")})
        cluster = Cluster(2)
        cluster.create_table("t", self.MIXED, "k")
        for door in (mixed.execute, mixed.execute_records, cluster.execute):
            # (The cluster's buckets say ``sum(v)`` for an avg too.)
            with pytest.raises(
                SchemaError, match=r"\(v\) needs numbers; 'v' holds .*str"
            ):
                door(plan)
        with pytest.raises(SchemaError, match="needs numbers"):
            run(mixed, "SELECT k, %s(v) AS o FROM t GROUP BY k" % function)


class TestOptimizationTransparency:
    QUERIES = [
        "SELECT * FROM emp WHERE dept = 1",
        "SELECT name FROM emp WHERE salary > 60000",
        "SELECT name, dname FROM emp JOIN dept WHERE dept = 4",
        "SELECT dept, COUNT(emp) AS n FROM emp GROUP BY dept",
        "SELECT dept AS division FROM emp WHERE dept != 0",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_optimized_equals_unoptimized(self, db, text):
        assert run(db, text, optimized=True) == run(db, text, optimized=False)

    def test_compiled_plan_runs_under_both_executors(self, db):
        plan = compile_query(
            parse_query("SELECT name, dname FROM emp JOIN dept WHERE dept = 4")
        )
        assert db.execute(plan) == db.execute_records(plan)


class TestIllFormedStatements:
    """A statement whose plan is not well defined on the catalog is
    refused the same way optimized or not, before any work."""

    TEXTS = [
        "SELECT bogus FROM emp JOIN dept",
        "SELECT name FROM emp JOIN dept WHERE bogus = 1",
        "SELECT emp AS name, name FROM emp",
        "SELECT bogus FROM emp JOIN dept BUDGET 100000",
        # What a statement says after WHERE is in the plan too.
        "SELECT name, COUNT(emp) AS n FROM emp GROUP BY dept",
        "SELECT emp FROM emp GROUP BY dept",
        "SELECT dept, COUNT(bogus) AS n FROM emp GROUP BY dept",
        "SELECT dept, COUNT(emp) AS dept FROM emp GROUP BY dept",
        "SELECT COUNT(emp) AS n FROM emp GROUP BY bogus",
        "SELECT name FROM emp ORDER BY bogus LIMIT 3",
        "SELECT name FROM emp ORDER BY bogus",
        "SELECT name FROM emp ORDER BY salary",
        "SELECT dept AS d, COUNT(emp) AS n FROM emp GROUP BY dept "
        "ORDER BY dept LIMIT 3",
    ]

    @pytest.mark.parametrize("optimized", [True, False])
    @pytest.mark.parametrize("text", TEXTS)
    def test_schema_error_with_zero_work(self, db, text, optimized):
        from repro.gov import governed

        with governed(max_rows=100000) as gov:
            with pytest.raises(SchemaError):
                run(db, text, optimized=optimized)
            with pytest.raises(SchemaError):
                sql.run_rows(db, text, optimized=optimized)
            assert gov.checkpoints == 0
            assert gov.budget.rows == 0

    @pytest.mark.parametrize("text", TEXTS)
    def test_refused_before_database_execute_runs_anything(
        self, db, text, monkeypatch
    ):
        def refuse(self, plan):
            raise AssertionError("an ill-formed statement reached a kernel")

        monkeypatch.setattr(Database, "_execute_uncached", refuse)
        monkeypatch.setattr(Database, "_execute_cached", refuse)
        for optimized in (True, False):
            with pytest.raises(SchemaError):
                run(db, text, optimized=optimized)

    @pytest.mark.parametrize("optimized", [True, False])
    def test_through_a_view(self, db, optimized):
        from repro.relational.views import ViewCatalog

        db = Database({name: db.relation(name) for name in db.names()})
        ViewCatalog(db)
        run(db, "CREATE VIEW staff AS SELECT emp, name FROM emp")
        with pytest.raises(SchemaError, match="unknown attributes"):
            run(db, "SELECT salary FROM staff", optimized)
        assert run(
            db, "SELECT name FROM staff", optimized
        ).cardinality() > 0


class TestTimeoutAndBudget:
    """The TIMEOUT/BUDGET governance clauses."""

    def test_clauses_parse_after_limit(self):
        query = parse_query(
            "SELECT * FROM emp LIMIT 5 TIMEOUT 2.5 BUDGET 1000"
        )
        assert query.limit == 5
        assert query.timeout_s == 2.5
        assert query.budget_rows == 1000

    def test_clauses_parse_alone(self):
        assert parse_query("SELECT * FROM emp TIMEOUT 10").timeout_s == 10.0
        assert parse_query("SELECT * FROM emp BUDGET 50").budget_rows == 50

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT * FROM emp TIMEOUT -1",
            "SELECT * FROM emp TIMEOUT abc",
            "SELECT * FROM emp BUDGET -5",
            "SELECT * FROM emp BUDGET 1.5",
            "SELECT * FROM emp BUDGET",
        ],
    )
    def test_bad_clauses_rejected(self, bad):
        with pytest.raises(NotationError):
            parse_query(bad)

    def test_generous_limits_change_nothing(self, db):
        text = "SELECT name, dname FROM emp JOIN dept WHERE dept = 4"
        assert run(db, "%s TIMEOUT 60 BUDGET 1000000" % text) == run(db, text)

    def test_budget_kills_a_runaway_join(self, db):
        from repro.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError) as info:
            run(db, "SELECT * FROM emp JOIN emp BUDGET 10")
        assert info.value.resource == "rows"
        assert info.value.exit_code == 13

    def test_budget_is_not_limit(self, db):
        # LIMIT trims the finished answer; BUDGET bounds what may be
        # materialized computing it.  A generous budget with a tiny
        # LIMIT must still return the limited answer.
        result = run(db, "SELECT * FROM emp LIMIT 2 BUDGET 100000")
        assert result.cardinality() == 2

    def test_governor_uninstalled_after_run(self, db):
        from repro.gov import active

        run(db, "SELECT * FROM emp TIMEOUT 60")
        assert active() is None


class TestAnalyzeStatement:
    @staticmethod
    def _db():
        database = Database()
        database.add("emp", employee_relation(40, 6, seed=11))
        database.add("dept", department_relation(6, seed=11))
        return database

    def test_analyze_all_returns_summary_relation(self):
        from repro.relational.sql import run_rows

        db = self._db()
        result = run(db, "ANALYZE")
        assert sorted(result.heading.names) == [
            "attributes", "relation", "rows"
        ]
        summary = {
            row["relation"]: row["rows"]
            for row in run_rows(self._db(), "ANALYZE")
        }
        assert summary == {"emp": 40, "dept": 6}

    def test_analyze_is_a_report_with_no_side_effect(self, tmp_path):
        """Read off the value: no plan memo flushed, no WAL record, no
        member index filled."""
        from repro.relational.constraints import Table
        from repro.relational.tx import TransactionManager
        from repro.relational.wal import WriteAheadLog

        source = self._db()
        log = WriteAheadLog(str(tmp_path / "wal"))
        manager = TransactionManager({
            name: Table(source.relation(name).heading.names,
                        source.relation(name).iter_dicts())
            for name in source.names()
        }, log=log)
        db = manager.committed()
        text = "SELECT name, dname FROM emp JOIN dept WHERE dept = 2"
        before = run(db, text)
        memo = dict(db.plan_memo())
        assert list(memo) == [text]
        emp = db.relation("emp")
        filled = dict(emp.rows._by_part or {})
        lsn = log.lsn
        answer = run(db, "ANALYZE emp")
        assert list(answer.iter_dicts()) == [
            {"relation": "emp", "rows": 40, "attributes": 4}
        ]
        assert db.plan_memo() == memo
        assert log.lsn == lsn
        assert manager.committed() is db
        assert dict(emp.rows._by_part or {}) == filled
        assert run(db, text) == before

    def test_analyze_of_an_empty_catalog_reports_nothing(self):
        result = run(Database(), "ANALYZE")
        assert sorted(result.heading.names) == [
            "attributes", "relation", "rows"
        ]
        assert result.cardinality() == 0

    def test_analyze_reports_the_value_it_runs_on(self):
        from repro.relational.constraints import Table
        from repro.relational.tx import TransactionManager

        source = self._db()
        manager = TransactionManager({
            "emp": Table(source.relation("emp").heading.names,
                         source.relation("emp").iter_dicts()),
        })
        old = manager.committed()
        manager.table("emp").insert_many([
            {"emp": 1000 + n, "name": "new", "dept": 1, "salary": n}
            for n in range(25)
        ])
        assert run(old, "ANALYZE emp").to_rows() == [("emp", 40, 4)]
        assert run(manager.committed(), "ANALYZE emp").to_rows() == \
            [("emp", 65, 4)]
        assert run(old, "ANALYZE emp").to_rows() == [("emp", 40, 4)]

    def test_analyze_leaves_later_plans_as_they_were(self):
        text = "SELECT name, dname FROM emp JOIN dept WHERE dept = 2"
        untouched, analyzed = self._db(), self._db()
        run(analyzed, "ANALYZE")
        assert run(untouched, text) == run(analyzed, text)
        assert untouched.plan_memo()[text].explain() == \
            analyzed.plan_memo()[text].explain()

    def test_analyze_is_case_insensitive(self):
        db = self._db()
        assert list(run(db, "analyze dept").iter_dicts()) == [
            {"relation": "dept", "rows": 6, "attributes": 3}
        ]

    def test_analyze_unknown_relation_fails(self):
        with pytest.raises(SchemaError):
            run(self._db(), "ANALYZE ghost")

    def test_analyze_two_names_rejected(self):
        with pytest.raises(NotationError):
            run(self._db(), "ANALYZE emp dept")


class TestPlaceholders:
    """``$k`` stands in every literal position and binds ``args[k-1]``
    as a value; the plan is optimized once per text and catalog value."""

    TEMPLATE = ("SELECT name, salary FROM emp WHERE dept = $2 AND "
                "salary > $1 ORDER BY salary DESC LIMIT $3 TIMEOUT $4 "
                "BUDGET $5")

    def test_every_literal_position(self, db):
        query = parse_query(self.TEMPLATE)
        assert query.parameters == ["$2", "$1", "$3", "$4", "$5"]
        assert query.arity == 5
        for args in ([60000, 2, 3, 30, 10 ** 6], [0.5, 4, 0, 2.5, 10 ** 5]):
            text = self.TEMPLATE
            for index in range(len(args), 0, -1):
                text = text.replace("$%d" % index, repr(args[index - 1]))
            assert run(db, self.TEMPLATE, args=args) == run(db, text)
            assert run(db, self.TEMPLATE, optimized=False, args=args) == \
                run(db, text, optimized=False)

    def test_the_estimator_is_never_handed_a_param(self, monkeypatch):
        """An estimate reads the bound value's run, so every plan the
        estimator sees is bound: a joining template is ordered per
        binding, and a template planned once holds no join."""
        from repro.relational import cost
        from repro.relational.query import Param
        from repro.relational.views import ViewCatalog

        seen = []
        original = cost.CardinalityEstimator.estimate

        def spied(estimator, plan):
            for node in [plan, *plan.children()]:
                if isinstance(node, SelectEq):
                    seen.extend(node.conditions.values())
                if isinstance(node, Limit):
                    seen.append(node.count)
            return original(estimator, plan)

        monkeypatch.setattr(cost.CardinalityEstimator, "estimate", spied)
        database = Database()
        database.add("emp", employee_relation(30, 4, seed=7))
        database.add("dept", department_relation(4, seed=7))
        ViewCatalog(database).define(
            "staff", sql.compile_query(sql.parse_query(
                "SELECT name, dept, dname FROM emp JOIN dept"
            ))
        )
        statements = (
            ("SELECT name, dname FROM emp JOIN dept WHERE dept = $1", [2]),
            ("SELECT name FROM emp JOIN dept WHERE dept = $1 "
             "ORDER BY name LIMIT $2", [1, 3]),
            ("SELECT name FROM staff WHERE dept = $1", [3]),
            ("SELECT name FROM emp WHERE dept = $1", [0]),
        )
        for text, args in statements:
            for bound in (args, [value + 1 for value in args]):
                run(database, text, args=bound)
        assert seen and not [value for value in seen
                             if isinstance(value, Param)]

    @pytest.mark.parametrize("clause, value", [
        ("LIMIT", -1), ("LIMIT", 2.0), ("LIMIT", "3"), ("LIMIT", True),
        ("TIMEOUT", -0.5), ("TIMEOUT", float("nan")), ("TIMEOUT", "1"),
        ("BUDGET", 1.5), ("BUDGET", -2),
    ])
    def test_a_clause_argument_is_checked_like_its_literal(
            self, db, clause, value):
        with pytest.raises(NotationError, match="%s needs" % clause):
            run(db, "SELECT name FROM emp %s $1" % clause, args=[value])

    def test_arguments_must_fit_the_placeholders(self, db):
        from repro.errors import SessionError

        with pytest.raises(SessionError, match=r"left unbound: \$1 in"):
            run(db, "SELECT name FROM emp WHERE dept = $1")
        with pytest.raises(SessionError, match=r"left unbound: \$0 in"):
            run(db, "SELECT name FROM emp WHERE dept = $0", args=[1])
        with pytest.raises(SessionError, match=r"no placeholder \$2"):
            run(db, "SELECT name FROM emp WHERE dept = $1", args=[1, 2])
        with pytest.raises(SessionError, match=r"no placeholder \$1"):
            run(db, "ANALYZE emp", args=[1])

    def test_a_quoted_placeholder_is_text(self, db):
        assert run(db, "SELECT name FROM emp WHERE name = '$1'") == \
            run(db, "SELECT name FROM emp WHERE dept = -1")
        with pytest.raises(NotationError, match="expected a column"):
            run(db, "SELECT $1 FROM emp", args=["name"])

    def test_a_view_body_takes_no_placeholders(self):
        from repro.relational.views import ViewCatalog

        database = Database({"emp": employee_relation(12, 3, seed=5)})
        catalog = ViewCatalog(database)
        with pytest.raises(NotationError, match="no placeholders"):
            run(database, "CREATE VIEW v AS SELECT name FROM emp "
                          "WHERE dept = $1")
        assert catalog.names() == []

    def test_one_plan_per_text_and_catalog_value(self):
        database = Database({"emp": employee_relation(40, 4, seed=7)})
        template = "SELECT name FROM emp WHERE emp = $1"
        answers = [run(database, template, args=[key]) for key in range(5)]
        assert [len(answer) for answer in answers] == [1] * 5
        assert list(database.plan_memo()) == [template]
        # A successor value plans for itself.
        successor = database.with_relations({})
        assert successor.plan_memo() == {}
        assert run(successor, template, args=[3]) == answers[3]
        # Editing a hand-built catalog forgets what was planned on it.
        database.add("dept", department_relation(4, seed=7))
        assert database.plan_memo() == {}

    def test_the_plan_memo_is_bounded_oldest_first(self):
        database = Database({"emp": employee_relation(20, 4, seed=7)})
        bound = sql._PLAN_ENTRIES
        texts = ["SELECT name FROM emp WHERE emp = %d" % n
                 for n in range(bound + 3)]
        for text in texts:
            run(database, text)
        assert list(database.plan_memo()) == texts[3:]


def _benchmark_texts():
    """Every read text of the four end-to-end benchmark streams."""
    import importlib.util
    import os

    from repro.server.session import render_statement

    path = os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir,
        "benchmarks", "e2e", "workloads.py",
    )
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        tables = workloads.build_tables(workload, 101)
        texts = []
        for _, kind, payload in workloads.build_stream(workload, 101)[0]:
            if kind == "query":
                texts.append(payload)
            elif kind == "execute":
                name, args = payload
                texts.append(render_statement(workloads.PREPARED[name], args))
        yield workload.name, tables, list(dict.fromkeys(texts))


class TestStatementMemo:
    """``run`` parses a statement text once per process; the memo holds
    what a fresh parse and compile would return and nothing else."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        sql._select.cache_clear()
        yield
        sql._select.cache_clear()

    @staticmethod
    def tokenizations(monkeypatch):
        calls = []
        tokenize = sql._tokenize
        monkeypatch.setattr(
            sql, "_tokenize", lambda text: calls.append(text) or tokenize(text)
        )
        return calls

    def test_memo_equals_a_fresh_parse_on_every_benchmark_text(self):
        seen = set()
        for name, tables, texts in _benchmark_texts():
            database = Database(
                {table: value.snapshot() for table, value in tables.items()}
            )
            assert texts, name
            for text in texts:
                missed = run(database, text)
                fresh = parse_query(text)
                query, plan = sql._select(text)
                assert vars(query) == vars(fresh)
                assert plan.explain() == compile_query(fresh).explain()
                assert missed == run(database, text) == run(
                    database, text, optimized=False
                )
            seen.update(texts)
        # One parse per distinct text, whichever workload sent it.
        info = sql._select.cache_info()
        assert info.misses == info.currsize == len(seen) > 300

    def test_a_text_that_raised_is_parsed_again(self, db, monkeypatch):
        calls = self.tokenizations(monkeypatch)
        for _ in range(2):
            with pytest.raises(NotationError):
                run(db, "SELECT FROM emp")
            with pytest.raises(NotationError):
                run(db, "SELECT * FROM emp WHERE dept = ?")
        assert len(calls) == 4
        assert sql._select.cache_info().currsize == 0
        # An unknown relation parses; it fails in execution, every time.
        for _ in range(2):
            with pytest.raises(SchemaError):
                run(db, "SELECT * FROM ghost")
        assert len(calls) == 5

    def test_analyze_and_view_statements_execute_every_time(self):
        from repro.relational.views import ViewCatalog

        database = Database()
        database.add("emp", employee_relation(12, 3, seed=5))
        catalog = ViewCatalog(database)
        for _ in range(2):
            assert run(database, "ANALYZE emp").cardinality() == 1
            created = run(
                database, "CREATE VIEW few AS SELECT name FROM emp "
                "WHERE dept = 1",
            )
            assert catalog.names() == ["few"] and created.cardinality() == 1
            assert run(database, "REFRESH VIEW few")
            assert run(database, "DROP VIEW few")
            assert catalog.names() == []
        assert sql._select.cache_info().currsize == 0

    def test_bounded_and_least_recently_used_goes_first(self, db):
        def text(n):
            return "SELECT name FROM emp WHERE emp = %d" % n

        bound = sql._MEMO_ENTRIES
        for n in range(bound):
            run(db, text(n))
        run(db, text(0))                      # 0 is now the most recent
        run(db, text(bound))                  # evicts 1, the oldest
        info = sql._select.cache_info()
        assert (info.currsize, info.maxsize) == (bound, bound)
        assert (info.hits, info.misses) == (1, bound + 1)
        run(db, text(0))
        assert sql._select.cache_info().misses == bound + 1
        run(db, text(1))
        assert sql._select.cache_info().misses == bound + 2
        assert sql._select.cache_info().currsize == bound

    def test_one_text_two_databases(self):
        text = "SELECT name FROM emp WHERE dept = 1"
        answers = []
        for seed in (5, 6):
            database = Database()
            database.add("emp", employee_relation(12, 3, seed=seed))
            answers.append(run(database, text))
            assert answers[-1] == run(database, text, optimized=False) == \
                database.execute(compile_query(parse_query(text)))
        assert answers[0] != answers[1]
        assert sql._select.cache_info().hits == 3
