"""Views: virtual, materialized, stacked, identity-keyed staleness."""

import pytest

from repro.errors import SchemaError
from repro.relational import algebra
from repro.relational.algebra import Comparison
from repro.relational.constraints import Table
from repro.relational.ivm.cache import QueryResultCache
from repro.relational.query import Database, Join, Project, Restrict, Scan
from repro.relational.sql import run
from repro.relational.tx import TransactionManager
from repro.relational.views import ViewCatalog
from repro.workloads.generators import department_relation, employee_relation
from repro.xst.serialization import digest


@pytest.fixture
def db():
    database = Database()
    database.add("emp", employee_relation(70, 5, seed=81))
    database.add("dept", department_relation(5, seed=81))
    return database


@pytest.fixture
def catalog(db):
    return ViewCatalog(db)


class TestDefinition:
    def test_define_and_list(self, catalog):
        catalog.define("d1", Restrict(Scan("emp"),
                                      (Comparison("dept", "=", 1),)))
        catalog.define("d2", Restrict(Scan("emp"),
                                      (Comparison("dept", "=", 2),)))
        assert catalog.names() == ["d1", "d2"]

    def test_duplicate_names_rejected(self, catalog):
        catalog.define("v", Scan("emp"))
        with pytest.raises(SchemaError, match="already defined"):
            catalog.define("v", Scan("dept"))

    def test_shadowing_base_relations_rejected(self, catalog):
        with pytest.raises(SchemaError, match="shadow"):
            catalog.define("emp", Scan("dept"))

    def test_unknown_base_rejected(self, catalog):
        with pytest.raises(SchemaError):
            catalog.define("v", Scan("ghost"))

    def test_repr(self, catalog):
        view = catalog.define("v", Scan("emp"), materialized=True)
        assert "materialized" in repr(view)


class TestARefusedDefinitionDefinesNothing:
    """A body that is not well defined on the catalog is refused before
    the name is taken -- through ``define`` and through ``run``."""

    BAD = (
        "select nope from emp",
        "select name from emp where nope = 1",
        "select name from ghost",
        "select name from emp order by salary",  # projected away
        "select nope from staffed",  # through another view
    )

    @pytest.mark.parametrize("body", BAD)
    @pytest.mark.parametrize("kind", ["", "materialized "])
    def test_through_run(self, kind, body):
        cache = QueryResultCache(capacity=4)
        db = Database({"emp": employee_relation(20, 3, seed=4),
                       "dept": department_relation(3, seed=4)},
                      result_cache=cache)
        catalog = ViewCatalog(db)
        run(db, "create view staffed as select * from emp join dept")
        counters = cache.snapshot()
        with pytest.raises(SchemaError):
            run(db, "create %sview bad as %s" % (kind, body))
        assert catalog.names() == ["staffed"]
        assert [row["name"] for row in catalog.status()] == ["staffed"]
        assert cache.snapshot() == counters and db.names() == ["dept", "emp"]
        # The name is free, not held by a view no read can answer.
        run(db, "create %sview bad as select name from emp" % kind)
        assert run(db, "select * from bad") == run(db, "select name from emp")

    def test_a_body_that_cannot_be_evaluated_defines_nothing(self, db):
        # Well defined on the headings, refused by the kernel on the
        # data: the statement failed, so the name is not taken.
        catalog = ViewCatalog(db)
        for kind in ("", "materialized "):
            with pytest.raises(SchemaError):
                run(db, "create %sview bad as select dept, sum(name) as s "
                        "from emp group by dept" % kind)
            assert catalog.names() == []

    def test_through_define(self, catalog):
        for plan in (
            Project(Scan("emp"), ["nope"]),
            Restrict(Scan("emp"), (Comparison("nope", "=", 1),)),
            Join(Scan("emp"), Scan("ghost")),
        ):
            for materialized in (False, True):
                with pytest.raises(SchemaError):
                    catalog.define("bad", plan, materialized=materialized)
                assert catalog.names() == [] and catalog.status() == []
        catalog.define("bad", Scan("emp"))
        assert catalog.read("bad") is catalog.database.relation("emp")


class TestOneNamespace:
    """Tables and views share one namespace, whichever comes first."""

    @pytest.fixture
    def manager(self):
        emp = employee_relation(10, 2, seed=3)
        return TransactionManager({"emp": Table(emp.heading, emp.iter_dicts())})

    def test_a_view_may_not_take_a_tables_name(self, manager):
        catalog = ViewCatalog(Database(), manager=manager)
        with pytest.raises(SchemaError, match="shadow a base relation"):
            catalog.define("emp", Scan("emp"))
        with pytest.raises(SchemaError, match="shadow a base relation"):
            run(manager.committed(), "create view emp as select * from emp")
        assert catalog.names() == []

    def test_a_table_may_not_take_a_views_name(self, manager):
        catalog = ViewCatalog(Database(), manager=manager)
        catalog.define("ed", Restrict(Scan("emp"),
                                      (Comparison("dept", "=", 1),)))
        before = manager.committed()
        with pytest.raises(SchemaError, match="shadow a view"):
            manager.add_table("ed", Table(["k"], []))
        assert manager.committed() is before and "ed" not in manager.tables
        assert run(before, "select * from ed") == catalog.read("ed")
        # Dropping the view frees the name for a table.
        catalog.drop("ed")
        manager.add_table("ed", Table(["k"], [{"k": 1}]))
        assert run(manager.committed(), "select * from ed").to_rows() == [(1,)]

    def test_a_cluster_table_may_not_take_a_views_name(self):
        from repro.relational.distributed import Cluster

        cluster = Cluster(2)
        cluster.create_table("emp", employee_relation(10, 2, seed=3), "emp")
        catalog = ViewCatalog(Database(), manager=cluster.manager)
        catalog.define("ed", Restrict(Scan("emp"),
                                      (Comparison("dept", "=", 1),)))
        with pytest.raises(SchemaError, match="shadow a view"):
            cluster.create_table("ed", department_relation(2, seed=3), "dept")
        assert cluster.manager.committed().names() == ["emp"]


class TestVirtualViews:
    def test_read_matches_direct_execution(self, catalog, db):
        catalog.define("d1", Restrict(Scan("emp"),
                                      (Comparison("dept", "=", 1),)))
        assert catalog.read("d1") == algebra.restrict(db.relation("emp"),
                (Comparison("dept", "=", 1),))

    def test_virtual_views_track_base_changes_immediately(self, catalog, db):
        catalog.define("all_emp", Scan("emp"))
        before = catalog.read("all_emp")
        db.add("emp", employee_relation(10, 5, seed=2))
        after = catalog.read("all_emp")
        assert before != after
        assert after.cardinality() == 10

    def test_virtual_views_are_never_stale(self, catalog):
        catalog.define("v", Scan("emp"))
        assert not catalog.is_stale("v")

    def test_unknown_view(self, catalog):
        with pytest.raises(SchemaError, match="unknown view"):
            catalog.read("ghost")
        with pytest.raises(SchemaError):
            catalog.is_stale("ghost")
        with pytest.raises(SchemaError):
            catalog.refresh("ghost")


class TestMaterializedViews:
    def test_cache_returns_the_same_object_when_fresh(self, catalog):
        catalog.define("m", Restrict(Scan("emp"),
                                     (Comparison("dept", "=", 3),)),
                       materialized=True)
        first = catalog.read("m")
        assert catalog.read("m") is first

    def test_staleness_via_digests(self, catalog, db):
        catalog.define("m", Scan("emp"), materialized=True)
        catalog.read("m")
        assert not catalog.is_stale("m")
        db.add("emp", employee_relation(12, 5, seed=9))
        assert catalog.is_stale("m")

    def test_stale_reads_recompute(self, catalog, db):
        catalog.define("m", Scan("emp"), materialized=True)
        catalog.read("m")
        db.add("emp", employee_relation(12, 5, seed=9))
        result = catalog.read("m")
        assert result.cardinality() == 12
        assert not catalog.is_stale("m")

    def test_unread_materialized_view_is_stale(self, catalog):
        catalog.define("m", Scan("emp"), materialized=True)
        assert catalog.is_stale("m")

    def test_refresh_forces_recompute(self, catalog, db):
        # A restriction builds a fresh Relation each execution, so object
        # identity distinguishes the cache from a recomputation.
        catalog.define("m", Restrict(Scan("emp"),
                                     (Comparison("dept", "=", 1),)),
                       materialized=True)
        first = catalog.read("m")
        refreshed = catalog.refresh("m")
        assert refreshed == first
        assert refreshed is not first

    def test_equal_but_rebuilt_base_is_a_new_input(self, catalog, db):
        # A materialization is keyed by the relations it was computed
        # from, compared by identity: an equal rebuild is another
        # input, and recomputing from it gives the same bytes.
        catalog.define("m", Scan("emp"), materialized=True)
        before = catalog.read("m")
        db.add("emp", employee_relation(70, 5, seed=81))  # same seed
        assert catalog.is_stale("m")
        after = catalog.read("m")
        assert after is not before and not catalog.is_stale("m")
        assert digest(after.rows) == digest(before.rows)


class TestStackedViews:
    def test_views_over_views(self, catalog, db):
        catalog.define(
            "staffed", Join(Scan("emp"), Scan("dept")), materialized=True
        )
        catalog.define("names", Project(Scan("staffed"), ["name", "dname"]))
        result = catalog.read("names")
        expected = algebra.project(
            algebra.join(db.relation("emp"), db.relation("dept")),
            ["name", "dname"],
        )
        assert result == expected

    def test_stacked_staleness_propagates_through_reads(self, catalog, db):
        catalog.define("level1", Scan("emp"), materialized=True)
        catalog.define("level2", Project(Scan("level1"), ["dept"]),
                       materialized=True)
        catalog.read("level2")
        db.add("emp", employee_relation(25, 5, seed=77))
        assert catalog.is_stale("level1")
        result = catalog.read("level2")
        assert result == algebra.project(db.relation("emp"), ["dept"])
