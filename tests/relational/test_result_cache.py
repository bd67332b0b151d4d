"""Result cache: input-keyed lookups can never serve stale data.

The contract under test: a cache entry's key is the very relations the
plan scans (immutable values, compared by identity, held by the entry),
so a reader pinned past a commit can never receive the pre-commit
answer -- *regardless* of invalidation timing.  The sweep classes
exercise every interleaving of commits, session opens and reads
(embedded, server-session and sharded-cluster flavors, including
across a bucket move) against a model oracle.
"""

import gc
import itertools

import pytest

from repro.errors import SchemaError, ShardMovedError
from repro.obs import instrument, metrics
from repro.relational.constraints import KeyConstraint, Table
from repro.relational.distributed import Cluster
from repro.relational.ivm import (
    QueryResultCache,
    plan_cache_key,
    scan_tables,
)
from repro.relational.optimizer import optimize
from repro.relational import algebra
from repro.relational.query import (
    Aggregate,
    Database,
    Join,
    Limit,
    Project,
    Rename,
    Scan,
    SelectEq,
    SelectPred,
    Union,
)
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.relational.sql import compile_query, parse_query
from repro.relational.sql import run as run_xql
from repro.relational.tx import TransactionManager
from repro.relational.views import ViewCatalog
from repro.server import Server
from repro.server.session import Session
from repro.xst.serialization import digest


def rel(names, rows):
    return Relation.from_tuples(list(names), rows)


# ----------------------------------------------------------------------
# Plan keys
# ----------------------------------------------------------------------


class TestPlanCacheKey:
    def test_stable_and_distinct(self):
        a = plan_cache_key(SelectEq(Scan("emp"), {"dept": 1}))
        b = plan_cache_key(SelectEq(Scan("emp"), {"dept": 1}))
        c = plan_cache_key(SelectEq(Scan("emp"), {"dept": 2}))
        assert a == b
        assert a != c
        assert a is not None

    def test_structure_matters(self):
        assert plan_cache_key(
            Join(Scan("a"), Scan("b"))
        ) != plan_cache_key(Join(Scan("b"), Scan("a")))
        assert plan_cache_key(
            Union(Scan("a"), Scan("b"))
        ) != plan_cache_key(Join(Scan("a"), Scan("b")))

    def test_keyless_predicate_is_uncacheable(self):
        plan = SelectPred(Scan("emp"), lambda row: True, "anything")
        assert plan_cache_key(plan) is None
        assert plan_cache_key(Project(plan, ("a",))) is None

    def test_keyed_predicate_is_cacheable(self):
        plan = SelectPred(
            Scan("emp"), lambda row: row["x"] > 1, "gt", cache_key="x > 1"
        )
        key = plan_cache_key(plan)
        assert key is not None
        assert "x > 1" in key

    def test_same_label_different_key_do_not_alias(self):
        a = SelectPred(Scan("emp"), lambda r: r["x"] > 1, "f", cache_key="k1")
        b = SelectPred(Scan("emp"), lambda r: r["x"] > 2, "f", cache_key="k2")
        assert plan_cache_key(a) != plan_cache_key(b)

    def test_pushdown_below_project_rewrites_the_key(self):
        db = Database()
        db.add("emp", rel(["eid", "dept"], [(1, 2)]))
        plan = SelectPred(
            Project(Scan("emp"), ("eid",)),
            lambda row: row["eid"] > 0, "pos", cache_key="eid > 0",
        )
        rewritten = optimize(plan, db)
        direct = SelectPred(
            Scan("emp"), lambda row: row["eid"] > 0, "pos",
            cache_key="eid > 0",
        )
        # The pushed-down predicate runs below the Project against a
        # differently-shaped row; its key must not alias the direct one.
        inner = rewritten.child
        assert inner.cache_key.startswith("narrow{eid}:")
        assert plan_cache_key(inner) != plan_cache_key(direct)

    def test_pushdown_below_rename_rewrites_the_key(self):
        db = Database()
        db.add("emp", rel(["eid", "dept"], [(1, 2)]))
        plan = SelectPred(
            Rename(Scan("emp"), {"eid": "id"}),
            lambda row: row["id"] > 0, "pos", cache_key="id > 0",
        )
        rewritten = optimize(plan, db)
        assert rewritten.child.cache_key.startswith("viarename{eid->id}:")

    def test_every_word_of_a_grouped_or_limited_statement_is_in_the_key(self):
        texts = [
            "select dept, count(eid) as n from emp group by dept",
            "select dept, max(eid) as n from emp group by dept",     # function
            "select dept, count(dept) as n from emp group by dept",  # source
            "select dept, count(eid) as m from emp group by dept",   # alias
            "select eid, count(eid) as n from emp group by eid",     # group
            "select dept as d, count(eid) as n from emp group by dept",
            "select eid from emp limit 2",
            "select eid from emp limit 3",                           # count
            "select eid from emp order by eid limit 2",              # order
            "select eid from emp order by dept limit 2",             # attribute
            "select eid from emp order by eid desc limit 2",         # direction
        ]
        keys = [plan_cache_key(compile_query(parse_query(t))) for t in texts]
        assert None not in keys
        assert len(set(keys)) == len(texts)
        assert keys[0] == plan_cache_key(Project(Aggregate(
            Scan("emp"), ["dept"], {"n": ("count", "eid")}
        ), ["dept", "n"]))
        assert keys[10] == plan_cache_key(
            Limit(Project(Scan("emp"), ["eid"]), 2, "eid", True)
        )

    def test_scan_tables(self):
        plan = Union(
            Join(Scan("a"), Scan("b")), SelectEq(Scan("a"), {"x": 1})
        )
        assert scan_tables(plan) == ("a", "b")


# ----------------------------------------------------------------------
# Cache mechanics
# ----------------------------------------------------------------------


class TestCacheMechanics:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=0)

    def test_hit_miss_stale_classification(self):
        cache = QueryResultCache(capacity=4)
        result = rel(["a"], [(1,)])
        fp_v1 = (("t", 1),)
        fp_v2 = (("t", 2),)
        assert cache.lookup("plan", fp_v1) is None  # cold miss
        cache.store("plan", fp_v1, ("t",), result)
        assert cache.lookup("plan", fp_v1) is result
        # Same plan at a newer version: a *stale* miss, not a cold one.
        assert cache.lookup("plan", fp_v2) is None
        assert (cache.hits, cache.misses, cache.stale) == (1, 1, 1)
        assert 0 < cache.hit_rate < 1

    def test_lru_eviction_keeps_recently_used(self):
        cache = QueryResultCache(capacity=2)
        fp = (("t", 1),)
        for name in ("p1", "p2"):
            cache.store(name, fp, ("t",), rel(["a"], []))
        cache.lookup("p1", fp)  # p1 is now most recent
        cache.store("p3", fp, ("t",), rel(["a"], []))
        assert cache.evictions == 1
        assert cache.lookup("p1", fp) is not None
        assert cache.lookup("p2", fp) is None  # the victim
        assert len(cache) == 2

    def test_invalidate_tables_is_targeted(self):
        cache = QueryResultCache(capacity=8)
        cache.store("pa", (("a", 1),), ("a",), rel(["x"], []))
        cache.store("pb", (("b", 1),), ("b",), rel(["x"], []))
        cache.store("pab", (("a", 1), ("b", 1)), ("a", "b"), rel(["x"], []))
        assert cache.invalidate_tables(("a",)) == 2
        assert cache.lookup("pb", (("b", 1),)) is not None
        assert cache.lookup("pa", (("a", 1),)) is None
        assert cache.invalidations == 2

    def test_clear(self):
        cache = QueryResultCache(capacity=4)
        cache.store("p", (("t", 1),), ("t",), rel(["a"], []))
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_snapshot_shape(self):
        cache = QueryResultCache(capacity=4, name="test")
        snap = cache.snapshot()
        assert snap["name"] == "test"
        assert set(snap) >= {
            "size", "capacity", "hits", "misses", "stale", "stores",
            "evictions", "invalidations", "hit_rate",
        }

    def test_events_metered_when_obs_enabled(self):
        previous = instrument.set_enabled(True)
        try:
            metrics.registry().reset()
            cache = QueryResultCache(capacity=1, name="metered")
            fp = (("t", 1),)
            cache.lookup("p", fp)
            cache.store("p", fp, ("t",), rel(["a"], []))
            cache.lookup("p", fp)
            cache.lookup("p", (("t", 2),))
            cache.store("q", fp, ("t",), rel(["a"], []))  # evicts p
            cache.invalidate_tables(("t",))
            text = metrics.registry().expose()
            for event in (
                "miss", "store", "hit", "stale", "evict", "invalidate"
            ):
                assert (
                    'repro_cache_events_total{event="%s",cache="metered"}'
                    % event in text
                ), event
        finally:
            instrument.set_enabled(previous)
            metrics.registry().reset()


# ----------------------------------------------------------------------
# Database integration
# ----------------------------------------------------------------------


class TestDatabaseCache:
    @pytest.fixture
    def db(self):
        database = Database(result_cache=QueryResultCache(capacity=8))
        database.add("emp", rel(["eid", "dept"], [(1, "eng"), (2, "ops")]))
        database.add("dept", rel(["dept", "floor"], [("eng", 3)]))
        return database

    def test_repeat_execution_hits(self, db):
        plan = SelectEq(Scan("emp"), {"dept": "eng"})
        first = db.execute(plan)
        assert db.execute(plan) is first
        assert db.result_cache.hits == 1

    def test_add_bumps_version_and_recomputes(self, db):
        plan = Scan("emp")
        stale_view = db.execute(plan)
        db.add("emp", rel(["eid", "dept"], [(9, "eng")]))
        fresh = db.execute(plan)
        assert fresh is not stale_view
        assert fresh.cardinality() == 1
        assert db.result_cache.stale == 1

    def test_remove_bumps_version(self, db):
        db.execute(Scan("dept"))
        assert db.remove("dept")
        assert not db.remove("dept")
        db.add("dept", rel(["dept", "floor"], [("lab", 9)]))
        assert db.execute(Scan("dept")).cardinality() == 1

    def test_the_same_aggregate_text_thrice_is_one_kernel_call(
        self, db, monkeypatch
    ):
        calls = []
        kernel = algebra.aggregate
        monkeypatch.setattr(
            algebra, "aggregate",
            lambda *args: calls.append(args) or kernel(*args),
        )
        text = ("select dept, count(eid) as n from emp where eid > 0 "
                "group by dept order by n desc limit 5")
        first = run_xql(db, text)
        assert run_xql(db, text) is first and run_xql(db, text) is first
        assert first.to_rows() == [("eng", 1), ("ops", 1)]
        assert len(calls) == 1
        cache = db.result_cache
        assert (cache.hits, cache.misses, cache.stores) == (2, 1, 1)

    def test_a_refused_statement_moves_no_counter(self, db):
        before = db.result_cache.snapshot()
        for text in (
            "select eid, count(dept) as n from emp group by dept",
            "select dept, count(ghost) as n from emp group by dept",
            "select dept, count(eid) as dept from emp group by dept",
            "select eid from emp order by ghost limit 1",
        ):
            with pytest.raises(SchemaError):
                run_xql(db, text)
        assert db.result_cache.snapshot() == before

    def test_uncacheable_plans_bypass(self, db):
        plan = SelectPred(Scan("emp"), lambda row: True, "opaque")
        db.execute(plan)
        db.execute(plan)
        assert len(db.result_cache) == 0
        assert db.result_cache.hits == 0

    def test_unknown_relation_raises_schema_error(self, db):
        with pytest.raises(SchemaError, match="unknown relation"):
            db.execute(Scan("ghost"))

    def test_a_catalog_carries_a_cache_or_it_does_not(self, db):
        plan = Scan("emp")
        cached = db.execute(plan)
        plain = Database({name: db.relation(name) for name in db.names()})
        assert plain.result_cache is None
        assert plain.execute(plan) == cached  # plain path, no error
        assert db.result_cache.hits == 0
        # The handle travels with the value; there is no switch.
        moved = db.with_relations({"dept": rel(["dept", "floor"], [])})
        assert moved.result_cache is db.result_cache
        assert moved.execute(plan) is cached
        assert not hasattr(db, "enable_result_cache")

    def test_cost_reordered_range_predicate_stays_cacheable(self):
        """ANALYZE must not make range-predicate plans uncacheable: the
        cost-based rebuild keeps ``SelectPred.cache_key``."""
        from repro.relational import sql
        from repro.workloads.generators import (
            department_relation,
            employee_relation,
        )

        database = Database({
            "emp": employee_relation(50, 5, seed=3),
            "dept": department_relation(5, seed=3),
        })
        text = "SELECT name, dname FROM emp JOIN dept WHERE salary > 300"
        plan = sql.compile_query(sql.parse_query(text))
        assert plan_cache_key(optimize(plan, database)) is not None
        cache = QueryResultCache(capacity=8)
        cached = Database(
            {name: database.relation(name) for name in database.names()},
            result_cache=cache,
        )
        first = sql.run(cached, text)
        assert cache.stores == 1
        assert sql.run(cached, text) is first
        assert cache.hits == 1
        assert first == sql.run(database, text, optimized=False)


# ----------------------------------------------------------------------
# The never-stale sweeps
# ----------------------------------------------------------------------


def make_manager(cache=None):
    emp = Table(["eid", "grp"], [{"eid": 0, "grp": 0}],
                [KeyConstraint(["eid"])])
    aux = Table(["k"], [{"k": 1}])
    return TransactionManager({"emp": emp, "aux": aux}, result_cache=cache)


class TestNeverStaleSweep:
    """Every interleaving of commits, opens and reads stays correct.

    One shared cache across all sessions: the manager's, carried by
    the committed catalog every session reads (the server arrangement).
    The model records each session's pinned contents at open time; a
    read through the cache must always return exactly the pinned
    contents -- a result computed at version V must never surface in a
    session pinned at V' != V.
    """

    PLAN = SelectEq(Scan("emp"), {"grp": 0})

    def run_schedule(self, schedule, cache):
        manager = make_manager(cache)
        sessions = []  # (session, expected frozenset of (eid, grp))
        next_id = 1
        live = {0: 0}

        def expected_rows(model):
            return frozenset(
                (eid, grp) for eid, grp in model.items() if grp == 0
            )

        def read_all():
            for session, pinned in sessions:
                result = session.database().execute(self.PLAN)
                got = {
                    (row["eid"], row["grp"]) for row in result.iter_dicts()
                }
                assert got == set(pinned), (
                    "session pinned at v%d saw %r, expected %r"
                    % (session.version, got, set(pinned))
                )

        for step in schedule:
            if step == "commit":
                with manager.transaction():
                    manager.table("emp").insert(
                        {"eid": next_id, "grp": next_id % 2}
                    )
                live[next_id] = next_id % 2
                next_id += 1
            elif step == "open":
                session = Session("s%d" % len(sessions), manager)
                sessions.append((session, expected_rows(live)))
            read_all()
        read_all()  # every session re-reads at the end (cache hits)
        for session, _ in sessions:
            session.close()

    def test_all_interleavings(self):
        cache = QueryResultCache(capacity=64, name="sweep")
        schedules = set(
            itertools.permutations(["commit"] * 3 + ["open"] * 3)
        )
        for schedule in sorted(schedules):
            self.run_schedule(schedule, cache)
        # The sweep must actually have exercised the cache, not just
        # computed everything fresh.
        assert cache.hits > 0
        assert cache.stores > 0

    def test_sessions_at_same_version_share_entries(self):
        cache = QueryResultCache(capacity=8, name="shared")
        manager = make_manager(cache)
        a = Session("a", manager)
        b = Session("b", manager)
        assert a.database() is b.database() is manager.committed()
        first = a.database().execute(self.PLAN)
        assert b.database().execute(self.PLAN) is first
        assert cache.hits == 1
        a.close()
        b.close()

    def test_embedded_execution_hits_what_a_served_read_stored(self):
        server = Server(make_manager(), result_cache_capacity=8)
        manager, cache = server._manager, server.result_cache
        assert cache is manager.committed().result_cache
        served = self.read(manager)
        assert manager.committed().execute(self.PLAN) is served
        assert (cache.stores, cache.hits) == (1, 1)
        # A manager that came with a cache keeps it.
        own = QueryResultCache(capacity=2, name="own")
        assert Server(make_manager(own), result_cache_capacity=8) \
            .result_cache is own

    def test_pinned_session_keeps_its_version_after_commit(self):
        cache = QueryResultCache(capacity=8, name="pinned")
        manager = make_manager(cache)
        old = Session("old", manager)
        before = old.database().execute(self.PLAN)
        with manager.transaction():
            manager.table("emp").insert({"eid": 7, "grp": 0})
        new = Session("new", manager)
        after = new.database().execute(self.PLAN)
        assert after.cardinality() == before.cardinality() + 1
        # The pinned session still reads its own version.  The commit
        # reclaimed its entry (hygiene), so it computes once more --
        # and then hits again, because its fingerprint never moved.
        again = old.database().execute(self.PLAN)
        assert digest(again.rows) == digest(before.rows)
        hits = cache.hits
        assert old.database().execute(self.PLAN) is again
        assert cache.hits == hits + 1
        old.close()
        new.close()

    # -- the fingerprint itself: a value is its own version ------------

    def read(self, manager, plan=None):
        """One fresh session's answer through the manager's cache."""
        session = Session("reader", manager)
        try:
            return session.database().execute(plan or self.PLAN)
        finally:
            session.close()

    def recompute(self, manager, plan=None):
        committed = manager.committed()
        return Database({
            name: committed.relation(name) for name in committed.names()
        }).execute(plan or self.PLAN)

    def test_update_and_update_back_is_a_new_input(self):
        cache = QueryResultCache(capacity=8, name="aba")
        manager = make_manager(cache)
        emp = manager.table("emp")
        original = emp.snapshot()
        first = self.read(manager)
        for grp in (1, 0):
            with manager.transaction():
                emp.update({"eid": 0}, {"grp": grp})
        # The third relation equals the first and is another object:
        # never invalidated, the old entry is still unreachable.
        assert emp.snapshot() == original and emp.snapshot() is not original
        hits = cache.hits
        third = self.read(manager)
        assert cache.hits == hits and third is not first
        assert digest(third.rows) == digest(self.recompute(manager).rows)

    def test_sessions_before_and_after_a_commit_share_one_cache(self):
        cache = QueryResultCache(capacity=8, name="two-versions")
        manager = make_manager(cache)
        old = Session("old", manager)
        with manager.transaction():
            manager.table("emp").insert({"eid": 7, "grp": 0})
        new = Session("new", manager)
        answers = {"old": {(0, 0)}, "new": {(0, 0), (7, 0)}}
        for _ in range(3):
            for session in (old, new, new, old):
                rows = session.database().execute(self.PLAN).to_rows()
                assert set(rows) == answers[session.session_id]
        # One computation per version; every other read was a hit.
        assert (cache.stores, cache.hits) == (2, 10)
        old.close()
        new.close()

    def test_a_dropped_input_cannot_lend_its_id(self):
        cache = QueryResultCache(capacity=8)
        db = Database({"t": rel(["a"], [(0,), (1,)])}, result_cache=cache)
        plan = SelectEq(Scan("t"), {"a": 1})  # its answer is not its input
        key = plan_cache_key(plan)
        assert db.execute(plan) is not db.relation("t")
        held = id(db.relation("t"))

        def alive():
            return any(
                id(found) == held and type(found) is Relation
                for found in gc.get_objects()
            )

        db.remove("t")  # the entry is now the relation's only holder
        gc.collect()
        assert alive()
        seen, repeats = set(), 0
        for n in range(2, 2000):
            fresh = rel(["a"], [(n,)])
            repeats += id(fresh) in seen
            seen.add(id(fresh))
            assert id(fresh) != held
            assert cache.lookup(key, (fresh,)) is None
            del fresh
        # Identities do come back once nothing holds them -- which is
        # why the entry holds its inputs, and only as long as it lives.
        assert repeats
        cache.clear()
        gc.collect()
        assert not alive()

    def test_invalidation_lets_go_of_the_superseded_relation(self):
        server = Server(make_manager(), result_cache_capacity=8)
        cache, manager = server.result_cache, server._manager
        assert cache is manager.result_cache
        self.read(manager)
        self.read(manager, Scan("aux"))
        superseded = manager.table("emp").snapshot()

        def holders():
            return [
                entry for entry in cache._entries.values()
                if any(held is superseded for held in entry[2])
            ]

        assert len(holders()) == 1
        with manager.transaction():
            manager.table("emp").insert({"eid": 5, "grp": 1})
        assert holders() == [] and len(cache) == 1

    def test_embedded_respelling_moves_an_input_and_a_rebuild_does_not(self):
        cache = QueryResultCache(capacity=8)
        db = Database({"t": rel(["k", "v"], [(1, 1), (2, 2)])},
                      result_cache=cache)
        catalog = ViewCatalog(db)
        catalog.define("all", Scan("t"), materialized=True)
        catalog.read("all")
        db.execute(Scan("t"))
        # An equal, identically spelled rebuild: the view stays fresh.
        db.add("t", rel(["k", "v"], [(1, 1), (2, 2)]))
        assert not catalog.is_stale("all")
        # Equal again (1 == 1.0, equal hashes), other bytes: moved.
        twin = rel(["k", "v"], [(1, 1.0), (2, 2)])
        assert twin == db.relation("t")
        assert digest(twin.rows) != digest(db.relation("t").rows)
        db.add("t", twin)
        assert catalog.is_stale("all")
        stores = cache.stores
        answer = db.execute(Scan("t"))
        assert cache.stores == stores + 1  # a miss: identity, not ==
        assert digest(answer.rows) == digest(twin.rows)
        assert digest(catalog.read("all").rows) == digest(twin.rows)
        assert catalog.verify("all")

    def test_a_respelling_update_costs_no_miss(self):
        cache = QueryResultCache(capacity=8, name="respell")
        emp = Table(["eid", "v"], [{"eid": 0, "v": 1}],
                    [KeyConstraint(["eid"])])
        manager = TransactionManager({"emp": emp}, result_cache=cache)
        catalog = ViewCatalog(Database(), manager=manager)
        catalog.define("all", Scan("emp"), materialized=True)
        catalog.read("all")
        plan = Scan("emp")
        before = self.read(manager, plan)
        stored = emp.snapshot()
        with manager.transaction():
            assert emp.update({"eid": 0}, {"v": 1.0}) == 1
        # Nothing committed, so nothing moved: the table holds the
        # object it held (no change, no new value).
        assert manager.current_version == 0
        assert emp.snapshot() is stored
        stores = cache.stores
        after = [self.read(manager, plan) for _ in range(3)]
        assert cache.stores == stores
        assert all(got is before for got in after)
        assert not catalog.is_stale("all")
        assert catalog.verify("all")
        catalog.close()

    def test_server_commit_stream_reclaims_entries(self):
        server = Server(make_manager(), result_cache_capacity=8)
        cache = server.result_cache
        manager = server._manager
        session = Session("s", manager)
        session.database().execute(self.PLAN)
        session.database().execute(Scan("aux"))
        assert len(cache) == 2
        with manager.transaction():
            manager.table("emp").insert({"eid": 5, "grp": 1})
        # Targeted: the emp entry is reclaimed, the aux entry survives.
        assert len(cache) == 1
        hits = cache.hits
        session.database().execute(Scan("aux"))
        assert cache.hits == hits + 1
        session.close()


# ----------------------------------------------------------------------
# Sharded clusters: generations, epoch fencing, targeted moves
# ----------------------------------------------------------------------


def people(count, start=0):
    return [
        {"id": start + i, "city": "c%d" % ((start + i) % 3)}
        for i in range(count)
    ]


def build_cluster(rows=24, cache=None):
    cluster = Cluster(4, replication_factor=2, result_cache=cache)
    cluster.create_table(
        "users", Relation.from_dicts(["id", "city"], people(rows)), "id"
    )
    cluster.create_table(
        "cities",
        Relation.from_dicts(
            ["city", "zone"], [{"city": "c%d" % i, "zone": i} for i in range(3)]
        ),
        "city",
    )
    return cluster


def off_ring_node(shard_map, bucket, node_count):
    return next(
        index for index in range(node_count)
        if index not in shard_map.replicas(bucket)
    )


class TestClusterCache:
    def test_repeat_scan_hits(self):
        cache = QueryResultCache(capacity=8, name="cluster")
        cluster = build_cluster(cache=cache)
        plan = SelectEq(Scan("users"), {"city": "c1"})
        first = cluster.execute(plan)
        assert cluster.execute(plan) is first
        assert cache.hits == 1

    def test_an_aggregate_is_cached_like_any_other_plan(self):
        cache = QueryResultCache(capacity=8, name="cluster")
        cluster = build_cluster(cache=cache)
        plan = Aggregate(Scan("users"), ["city"], {"n": ("count", "id")})
        first = cluster.execute(plan)
        ops = cluster.ops
        assert cluster.execute(plan) is first
        assert (cache.hits, cluster.ops) == (1, ops)
        cluster.insert("users", people(3, start=100))
        assert cluster.execute(plan) == algebra.aggregate(
            cluster.manager.table("users").snapshot(),
            ["city"], {"n": ("count", "id")},
        )
        assert cache.stale == 1

    def test_insert_bumps_generation(self):
        cache = QueryResultCache(capacity=8, name="cluster")
        cluster = build_cluster(cache=cache)
        plan = Scan("users")
        before = cluster.execute(plan)
        generation = cluster.manager.table_version("users")
        cluster.insert("users", people(4, start=100))
        assert cluster.manager.table_version("users") == generation + 1
        after = cluster.execute(plan)
        assert after.cardinality() == before.cardinality() + 4
        assert cache.stale == 1

    def test_an_open_transaction_is_never_fingerprinted(self):
        cache = QueryResultCache(capacity=8, name="cluster")
        cluster = build_cluster(cache=cache)
        plan = Scan("users")
        before = cluster.execute(plan)
        with cluster.manager.transaction():
            cluster.manager.table("users").insert_many(people(2, start=200))
            # The replicas hold committed rows only, and the entry is
            # filed under the committed relation, not the live pointer.
            assert cluster.execute(plan) is before
        after = cluster.execute(plan)
        assert after.cardinality() == before.cardinality() + 2
        assert after == cluster.manager.table("users").snapshot()
        assert cluster.execute(plan) is after
        assert (cache.stores, cache.hits) == (2, 2)

    def test_shard_move_invalidates_only_the_moved_table(self):
        cache = QueryResultCache(capacity=8, name="cluster")
        cluster = build_cluster(cache=cache)
        users_plan = SelectEq(Scan("users"), {"city": "c0"})
        cities_plan = Scan("cities")
        before = cluster.execute(users_plan)
        cities_before = cluster.execute(cities_plan)
        shard_map = cluster.shard_map("users")
        cluster.begin_move(
            "users", 0, recipient=off_ring_node(shard_map, 0, 4)
        )
        cluster.rebalance()
        # Targeted invalidation: users entries dropped, cities entries
        # survive the epoch swing untouched.
        assert cache.invalidations >= 1
        assert cluster.execute(cities_plan) is cities_before
        # Rows are placement-stable across a move: the recomputed (and
        # re-cached) answer is equal, entry keyed at the same
        # generation.
        after = cluster.execute(users_plan)
        assert after == before
        assert cluster.execute(users_plan) is after

    def test_stale_epoch_refused_even_when_cached(self):
        cluster = build_cluster(
            cache=QueryResultCache(capacity=8, name="cluster")
        )
        plan = SelectEq(Scan("users"), {"city": "c1"})
        epoch_before = cluster.shard_map("users").epoch
        cluster.execute(plan, epoch=epoch_before)
        shard_map = cluster.shard_map("users")
        cluster.begin_move(
            "users", 1, recipient=off_ring_node(shard_map, 1, 4)
        )
        cluster.rebalance()
        # The bytes are sitting in memory; the fence still comes first.
        with pytest.raises(ShardMovedError):
            cluster.execute(plan, epoch=epoch_before)
        fresh_epoch = cluster.shard_map("users").epoch
        assert cluster.execute(plan, epoch=fresh_epoch).cardinality() > 0

    def test_the_coordinator_cache_is_the_managers(self):
        cluster = build_cluster()
        assert cluster.result_cache is None
        assert cluster.execute(Scan("users")).cardinality() == 24
        cache = QueryResultCache(capacity=4, name="cluster")
        cluster = build_cluster(cache=cache)
        assert cluster.result_cache is cluster.manager.result_cache is cache
        # One cache, one fingerprint: the embedded executor over the
        # committed catalog hits what the coordinator stored.
        first = cluster.execute(Scan("users"))
        assert cluster.manager.committed().execute(Scan("users")) is first
        assert (cache.stores, cache.hits) == (1, 1)
