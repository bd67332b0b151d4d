"""The paper's comparative performance claims, asserted as tests.

EXPERIMENTS.md records measured numbers; these tests pin the *shapes*
-- who wins, and that the gap grows in the predicted direction -- with
generous margins so they stay green across machines while still
failing if an implementation regression flips a comparison the
reproduction depends on.

Every workload-generator call threads an explicit seed derived from
``WORKLOAD_SEED`` (override with the ``REPRO_WORKLOAD_SEED``
environment variable; per-test offsets keep the datasets distinct) so
a failure reproduces bit-identically on any machine.
"""

import os
import time

from repro.core.composition import compose_chain, staged_apply
from repro.relational.storage import RecordStore, SetStore
from repro.workloads import departments, employees, pipeline_stages
from repro.xst.builders import xpair, xrecord, xset, xtuple
from repro.xst.ordering import canonical_key
from repro.xst.relative_product import (
    relative_product,
    relative_product_nested_loop,
)
from repro.xst.xset import XSet

HEADING = ["emp", "name", "dept", "salary"]
DEPT_HEADING = ["dept", "dname", "budget"]

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "0"))


def best_of(callable_, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


class TestSetVsRecordShapes:
    def test_indexed_equijoin_beats_nested_loop_at_scale(self):
        rows = employees(1200, 30, seed=WORKLOAD_SEED + 5)
        dept_rows = departments(30, seed=WORKLOAD_SEED + 5)
        record_left = RecordStore(HEADING, rows)
        record_right = RecordStore(DEPT_HEADING, dept_rows)
        set_left = SetStore(HEADING, rows)
        set_right = SetStore(DEPT_HEADING, dept_rows)
        set_left.lookup("dept", 0)
        set_right.lookup("dept", 0)
        record_time = best_of(
            lambda: record_left.equijoin_count(record_right, "dept"), 3
        )
        set_time = best_of(
            lambda: set_left.equijoin_count(set_right, "dept"), 3
        )
        # Measured ~600x; assert a conservative 20x.
        assert record_time > set_time * 20

    def test_the_join_gap_grows_with_size(self):
        gaps = []
        for size in (200, 1600):
            rows = employees(size, 20, seed=WORKLOAD_SEED + 6)
            dept_rows = departments(20, seed=WORKLOAD_SEED + 6)
            record_time = best_of(
                lambda: RecordStore(HEADING, rows).equijoin_count(
                    RecordStore(DEPT_HEADING, dept_rows), "dept"
                ),
                3,
            )
            set_left = SetStore(HEADING, rows)
            set_right = SetStore(DEPT_HEADING, dept_rows)
            set_left.lookup("dept", 0)
            set_right.lookup("dept", 0)
            set_time = best_of(
                lambda: set_left.equijoin_count(set_right, "dept"), 3
            )
            gaps.append(record_time / set_time)
        assert gaps[1] > gaps[0]

    def test_repeated_lookups_amortize_the_index(self):
        # Reference-returning access paths on both sides: RecordStore
        # scans and returns row references; SetStore probes its index
        # and returns row references.  (The dict-materializing lookup()
        # wrappers cost the same on both sides and are excluded.)
        rows = employees(1500, 25, seed=WORKLOAD_SEED + 7)
        record_store = RecordStore(HEADING, rows)
        set_store = SetStore(HEADING, rows)
        set_store.probe("dept", 0)  # restructure once

        def record_run():
            for key in range(25):
                record_store.lookup("dept", key)

        def set_run():
            for key in range(25):
                set_store.probe("dept", key)

        assert best_of(record_run, 3) > best_of(set_run, 3) * 2


class TestFusionShapes:
    def test_fused_beats_staged_at_depth(self):
        stages = pipeline_stages(8, 200, seed=WORKLOAD_SEED + 8)
        fused = compose_chain(stages)
        probe = xset([xtuple([7])])
        staged_time = best_of(lambda: staged_apply(stages, probe))
        fused_time = best_of(lambda: fused.apply(probe))
        # Measured ~8x at depth 8; assert 2x.
        assert staged_time > fused_time * 2

    def test_staged_cost_grows_with_depth_fused_does_not(self):
        probe = xset([xtuple([3])])
        shallow = pipeline_stages(2, 150, seed=WORKLOAD_SEED + 9)
        deep = pipeline_stages(8, 150, seed=WORKLOAD_SEED + 9)
        staged_growth = best_of(
            lambda: staged_apply(deep, probe)
        ) / best_of(lambda: staged_apply(shallow, probe))
        fused_shallow = compose_chain(shallow)
        fused_deep = compose_chain(deep)
        fused_growth = best_of(lambda: fused_deep.apply(probe)) / best_of(
            lambda: fused_shallow.apply(probe)
        )
        assert staged_growth > fused_growth


class TestJoinAlgorithmShapes:
    SIGMA = (XSet([(1, 1)]), XSet([(2, 1)]))
    OMEGA = (XSet([(1, 1)]), XSet([(2, 2)]))

    def test_hash_join_beats_nested_loop(self):
        size = 400
        left = xset(xpair(index, index + 1) for index in range(size))
        right = xset(xpair(index + 1, index) for index in range(size))
        hash_time = best_of(
            lambda: relative_product(left, right, self.SIGMA, self.OMEGA), 3
        )
        loop_time = best_of(
            lambda: relative_product_nested_loop(
                left, right, self.SIGMA, self.OMEGA
            ),
            3,
        )
        # Measured ~14x at n=200 and growing; assert 3x at n=400.
        assert loop_time > hash_time * 3


class TestDistributionShapes:
    def test_copartitioned_join_ships_less_than_shuffled(self):
        from repro.relational.distributed import Cluster
        from repro.relational.query import Join, Scan
        from repro.workloads import department_relation, employee_relation

        emp = employee_relation(500, 20, seed=WORKLOAD_SEED + 10)
        dept = department_relation(20, seed=WORKLOAD_SEED + 10)
        co = Cluster(4)
        co.create_table("emp", emp, "dept")
        co.create_table("dept", dept, "dept")
        co.execute(Join(Scan("emp"), Scan("dept")))
        shuffled = Cluster(4)
        shuffled.create_table("emp", emp, "dept")
        shuffled.create_table("dept", dept, "dname")
        shuffled.execute(Join(Scan("emp"), Scan("dept")))
        assert shuffled.network.bytes_shipped > co.network.bytes_shipped


class TestClusterRetainsDataNotHistory:
    """Counts, not timings: what the coordinator keeps after a write
    is the committed relation and its bucket copies -- O(tables x
    buckets) values, whatever the number of writes or re-shards."""

    @staticmethod
    def reachable_relations(root):
        import gc
        import types

        from repro.relational.relation import Relation
        from repro.xst.xset import XSet

        skip = (XSet, type, types.ModuleType, types.FunctionType,
                types.BuiltinFunctionType, types.MethodType)
        seen, found, stack = {id(root)}, [], [root]
        while stack:
            current = stack.pop()
            if isinstance(current, Relation):
                found.append(current)
                continue  # a relation's rows hold no relation
            for child in gc.get_referents(current):
                if id(child) not in seen and not isinstance(child, skip):
                    seen.add(id(child))
                    stack.append(child)
        return found

    def run(self, writes):
        from repro.relational.distributed import Cluster
        from repro.relational.query import Scan
        from repro.workloads import employee_relation

        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(
            "emp", employee_relation(200, 8, seed=WORKLOAD_SEED + 11), "dept"
        )
        for index in range(writes):
            cluster.insert("emp", [{
                "emp": 10_000 + index, "name": "w-%d" % index,
                "dept": index % 8, "salary": 40_000 + index,
            }])
        for _ in range(3):
            cluster.split_table("emp")
            cluster.merge_table("emp")
        shard_map = cluster.shard_map("emp")
        move = cluster.begin_move("emp", 0, recipient=next(
            index for index in range(4)
            if index not in shard_map.replicas(0)
        ))
        cluster.rebalance()
        assert move.done and move.swing_value is None
        assert cluster.execute(Scan("emp")).cardinality() == 200 + writes
        assert cluster.status()["version"] == writes
        return len(self.reachable_relations(cluster))

    def test_retained_relations_do_not_grow_with_writes(self):
        few, many = self.run(10), self.run(1000)
        assert few == many
        # One committed value plus at most one copy per (bucket,
        # replica); replicas reconciled together share one value.
        tables, buckets, factor = 1, 4, 2
        assert buckets < many <= tables * (1 + buckets * factor)


class TestCanonicalOrderOnceShapes:
    """Counts, not timings: a kernel result whose pairs already sit in
    canonical order is not sorted again, and a row's sort key is built
    once (``canonical_key`` remembers it on the row)."""

    ROWS = 500

    def relation(self):
        from repro.workloads import employee_relation

        rel = employee_relation(self.ROWS, 20, seed=WORKLOAD_SEED + 11)
        assert len(rel) == self.ROWS and len(rel.heading) == 4
        return rel

    @staticmethod
    def counting(monkeypatch, name, *module_names):
        import importlib

        calls = []
        # import_module, not attribute access: ``repro.xst.xset`` the
        # attribute is the classical-set builder of the same name.
        modules = [importlib.import_module(each) for each in module_names]
        original = getattr(modules[0], name)

        def counted(value):
            calls.append(1)
            return original(value)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def counting_sorts(monkeypatch):
        import importlib

        sorts = []
        monkeypatch.setattr(
            importlib.import_module("repro.xst.xset"), "sorted",
            lambda *args, **kwargs: (sorts.append(1), sorted(*args, **kwargs))[1],
            raising=False,
        )
        return sorts

    def test_filters_of_a_canonical_run_never_sort(self, monkeypatch):
        from repro.xst.builders import xrecord
        from repro.xst.restrict import sigma_restrict

        rows = self.relation().rows
        every_other = XSet(rows.pairs()[::2])
        key = xset([xrecord({"dept": 3})])
        sigma = XSet([("dept", "dept")])
        # Every sort by canonical key is one ``sorted`` call in xset.py
        # (the checked constructor's and union's).
        sorts = self.counting_sorts(monkeypatch)
        assert len(rows - every_other) == self.ROWS // 2
        assert len(rows & every_other) == self.ROWS // 2
        assert 0 < len(sigma_restrict(rows, key, sigma)) < self.ROWS
        assert len(sorts) == 0
        XSet(rows.pairs()[:3])
        assert len(sorts) == 1  # the counter does see the constructor's

    def test_one_row_union_reads_memoized_keys_only(self, monkeypatch):
        rel = self.relation()
        extra = xset([rel.rows.pairs()[0][0] | XSet([("x", "extra")])])
        calls = self.counting(
            monkeypatch, "canonical_key", "repro.xst.ordering", "repro.xst.xset"
        )
        grown = rel.rows | extra
        assert len(grown) == self.ROWS + 1
        # A memo hit for the row and one for its scope, no recursion
        # into the row (parent commit: 10 per row).
        assert len(calls) <= 3 * self.ROWS
        assert grown.pairs() == XSet(rel.rows.pairs() + extra.pairs()).pairs()


class TestDeltaCarriedCommitShapes:
    """Counts, not timings: a one-row commit checks, logs and maintains
    the rows it changed, and its new relation value arrives with the
    keys and member indexes of the old one, patched by that row, so its
    Python-level work is the same on a table sixty-four times larger.
    (What still scales is C-level copying inside single kernel calls:
    the new value's pair set, run, keys and index dicts.)"""

    SIZES = (64, 1024, 4096)
    DEPARTMENTS = 8

    def tables(self, size):
        from repro.relational.constraints import (
            CheckConstraint, KeyConstraint, Table,
        )

        emp = Table(HEADING, employees(size, self.DEPARTMENTS,
                                       seed=WORKLOAD_SEED + 12), [
            KeyConstraint(["emp"]),
            CheckConstraint(lambda row: row["salary"] >= 0, "salary >= 0"),
        ])
        dept = Table(DEPT_HEADING, departments(self.DEPARTMENTS,
                                               seed=WORKLOAD_SEED + 12))
        assert len(emp) == size
        return {"emp": emp, "dept": dept}

    @staticmethod
    def one_row_commits(manager, size, then=lambda: None):
        """A keyed insert, update and delete, each its own commit and
        each followed by ``then()``."""
        emp = manager.table("emp")
        fresh = dict(next(emp.snapshot().iter_dicts()), emp=size + 1)
        for statement in (
            lambda: emp.insert(fresh),
            lambda: emp.update({"emp": size + 1}, {"salary": 1}),
            lambda: emp.delete({"emp": size + 1}),
        ):
            with manager.transaction(deferred=True):
                statement()
            then()

    def test_one_row_commit_work_does_not_grow_with_the_table(
        self, monkeypatch
    ):
        from repro.relational.relation import Relation
        from repro.relational.tx import TransactionManager

        counts = {}
        for size in self.SIZES:
            manager = TransactionManager(self.tables(size))
            built, validated = [], []
            fill, init = XSet._fill, Relation.__init__
            with monkeypatch.context() as patch:
                patch.setattr(XSet, "_fill", lambda self, *args: (
                    built.append(1), fill(self, *args))[1])
                patch.setattr(Relation, "__init__", lambda self, heading, rows: (
                    validated.append(len(rows)), init(self, heading, rows))[1])
                self.one_row_commits(manager, size)
            assert manager.commits == 3 and len(manager.table("emp")) == size
            counts[size] = (len(built), sum(validated))
        small, large = counts[self.SIZES[0]], counts[self.SIZES[-1]]
        # Parent commit: every statement re-validated its whole candidate
        # (195 rows at 64, 3075 at 1024) and the key check built one
        # XSet per table row (420 and 6180 constructions).
        assert small == large
        # The inserted row and the rewritten row are built by
        # ``Relation.from_dicts`` from the heading's own names, after its
        # key-set check: valid by construction, so the checked constructor
        # has nothing to validate (parent commit: those 2 rows).
        assert small[1] == 0

    def test_one_row_commits_emit_the_same_profile_events(self):
        import sys

        from repro.relational.tx import TransactionManager

        events = {}
        for size in self.SIZES:
            manager = TransactionManager(self.tables(size))
            # The first round fills the key scope's member index, which
            # every later value carries; the second round is counted.
            self.one_row_commits(manager, size)
            count = [0]

            def profile(frame, event, arg):
                if event in ("call", "c_call"):
                    count[0] += 1

            sys.setprofile(profile)
            try:
                self.one_row_commits(manager, size)
            finally:
                sys.setprofile(None)
            assert manager.commits == 6 and len(manager.table("emp")) == size
            events[size] = count[0]
        # Parent commit: 2 626 / 23 746 / 91 330 -- each new value rebuilt
        # the key index, filtered R - D member by member and re-keyed the
        # run before the union.
        assert len(set(events.values())) == 1, events

    def test_carried_indexes_retain_no_history(self):
        """A bound: 500 one-row commits, each followed by probes that
        read two member indexes, leave the current value reaching as many
        objects as 50 did -- no index keeps a deleted row or an older
        value."""
        import gc
        import types

        from repro.relational.algebra import Comparison, restrict
        from repro.relational.constraints import KeyConstraint, Table
        from repro.relational.tx import TransactionManager

        def reachable(root):
            skip = (type, types.ModuleType, types.FunctionType,
                    types.BuiltinFunctionType, types.MethodType)
            seen, stack = {id(root)}, [root]
            while stack:
                current = stack.pop()
                children = gc.get_referents(current)
                if isinstance(current, dict):  # str keys are not referents
                    children += list(current)
                for child in children:
                    if id(child) not in seen and not isinstance(child, skip):
                        seen.add(id(child))
                        stack.append(child)
            return len(seen)

        table = Table(["k", "v"], [{"k": k, "v": "v-%d" % k} for k in range(64)],
                      [KeyConstraint(["k"])])
        manager = TransactionManager({"t": table})
        counts = []
        for commit in range(500):
            key, value = commit % 64, "w-%d" % commit
            assert table.update({"k": key}, {"v": value}) == 1
            current = table.snapshot()
            if commit:
                assert set(current.rows._by_part) == {"k", "v"}  # carried
            assert len(restrict(current, (Comparison("k", "=", key),))) == 1
            assert len(restrict(current, (Comparison("v", "=", value),))) == 1
            if commit + 1 in (50, 500):
                counts.append(reachable(current))
        assert manager.commits == 500
        assert counts[0] == counts[1]

    def test_filled_indexes_stay_within_the_heading(self):
        """A bound on what the planner's reads leave behind: 500 commits,
        each followed by joins that read member indexes and by a pinned
        snapshot, leave every live table with at most one filled index
        per heading attribute, and the retained versions bounded."""
        from repro.relational import sql
        from repro.relational.constraints import KeyConstraint, Table
        from repro.relational.tx import TransactionManager

        manager = TransactionManager({
            "emp": Table(["eid", "dept", "pay"],
                         [{"eid": n, "dept": n % 4, "pay": n}
                          for n in range(48)],
                         [KeyConstraint(["eid"])]),
            "dept": Table(["dept", "dname"],
                          [{"dept": d, "dname": "d%d" % d} for d in range(4)]),
        })
        texts = ("select eid, dname from emp join dept where dept = %d",
                 "select dname, pay from emp join dept where pay = %d",
                 "analyze")
        pinned = []
        for commit in range(500):
            manager.table("emp").update({"eid": commit % 48},
                                        {"pay": 1000 + commit})
            db = manager.committed()
            for text in texts:
                sql.run(db, text % (commit % 4) if "%" in text else text)
            pinned.append(manager.snapshot())
            if len(pinned) > 3:
                pinned.pop(0).close()
        assert manager.commits == 500
        db = manager.committed()
        for name in db.names():
            relation = db.relation(name)
            assert len(relation.rows._by_part or ()) <= len(relation.heading)
        assert len(manager.retained_versions()) <= 4
        for snapshot in pinned:
            snapshot.close()
        assert manager.retained_versions() == [500]

    def test_join_maintenance_reads_do_not_grow_with_the_fact_table(self):
        from repro.obs import observed
        from repro.relational.query import Database, Join, Scan
        from repro.relational.tx import TransactionManager
        from repro.relational.views import ViewCatalog

        def rows_in(registry):
            return sum(
                value for key, value in registry.snapshot().items()
                if key.startswith("repro_xst_rows_in_total")
            )

        per_diff_row = {}
        for size in self.SIZES:
            manager = TransactionManager(self.tables(size))
            catalog = ViewCatalog(Database(), manager=manager)
            catalog.define("by_dept", Join(Scan("emp"), Scan("dept")),
                           materialized=True)
            assert catalog.read("by_dept").cardinality() == size
            read, diff_rows = [0.0], [0]
            held = [manager.table("emp").snapshot()]

            def catch_up():
                # The read after each commit patches the view by the
                # difference of emp's old and new values.
                before = rows_in(registry)
                catalog.read("by_dept")
                read[0] += rows_in(registry) - before
                now = manager.table("emp").snapshot()
                diff_rows[0] += len(now.rows._pair_set
                                    ^ held[0].rows._pair_set)
                held[0] = now

            with observed() as registry:
                self.one_row_commits(manager, size, catch_up)
            view = catalog.view("by_dept")
            assert view.delta_applies == 3 and view.fallbacks == 0
            assert catalog.verify("by_dept")
            assert diff_rows[0] == 4  # +1, +1 -1, -1
            per_diff_row[size] = read[0] / diff_rows[0]
        small, large = per_diff_row[self.SIZES[0]], per_diff_row[self.SIZES[-1]]
        # Each diff row meets the dimension table once (parent commit:
        # candidates re-verified against all of emp, 124.5 kernel rows
        # per diff row at 64 rows and 1564.5 at 1024).
        assert small == large == 1 + self.DEPARTMENTS


class TestMaintenanceOffTheCommitShapes:
    """A commit does nothing for views, and the read that catches a view
    up pays for the difference of its inputs, not once per commit.
    Profile events of a keyed 256-row table joined to its departments,
    with observability off; the last test also times that difference."""

    SIZE = 256
    DEPARTMENTS = 8

    def stack(self, views, size=SIZE):
        from repro.relational.constraints import KeyConstraint, Table
        from repro.relational.query import Database, Join, Scan
        from repro.relational.tx import TransactionManager
        from repro.relational.views import ViewCatalog

        seed = WORKLOAD_SEED + 46
        manager = TransactionManager({
            "emp": Table(HEADING, employees(size, self.DEPARTMENTS,
                                            seed=seed),
                         [KeyConstraint(["emp"])]),
            "dept": Table(DEPT_HEADING, departments(self.DEPARTMENTS,
                                                    seed=seed)),
        })
        body = Join(Scan("emp"), Scan("dept"))
        manager.committed().execute(body)  # the same member indexes
        catalog = ViewCatalog(Database(), manager=manager) if views else None
        if views:
            catalog.define("by_dept", body, materialized=True)
            assert len(catalog.read("by_dept")) == size
        return manager, catalog

    @staticmethod
    def events(call):
        import sys

        from repro.obs import observed

        count = [0]

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                count[0] += 1

        with observed(False):
            sys.setprofile(profile)
            try:
                call()
            finally:
                sys.setprofile(None)
        return count[0]

    def commit(self, manager, key):
        row = {"emp": key, "name": "n%d" % key,
               "dept": key % self.DEPARTMENTS, "salary": key}
        manager._commit_ops([("insert", "emp", row)], {"emp"},
                            manager.current_version)

    def test_a_commit_costs_the_same_with_a_materialized_view(self):
        costs = []
        for views in (False, True):
            manager, _ = self.stack(views)
            for key in range(self.SIZE, self.SIZE + 3):  # warm
                self.commit(manager, key)
            costs.append(self.events(
                lambda: self.commit(manager, self.SIZE + 3)))
        assert costs[0] == costs[1], costs

    def test_a_catch_up_read_pays_for_the_difference(self):
        manager, catalog = self.stack(True)
        keys = iter(range(self.SIZE, 10 ** 6))
        cost = {}
        for commits in (1, 16, 1):
            for _ in range(commits):
                self.commit(manager, next(keys))
            cost[commits] = self.events(lambda: catalog.read("by_dept"))
        view = catalog.view("by_dept")
        assert (view.delta_applies, view.recomputes, view.fallbacks) == \
            (3, 1, 0)
        assert catalog.verify("by_dept")
        # One catch-up read after sixteen commits, not sixteen patches.
        assert cost[16] < 3 * cost[1], cost

    def test_a_catch_up_read_walks_its_input_only_in_c(self):
        # Diffing an input is C-level work in proportion to its rows (a
        # frozenset difference each way, one identity walk of the runs);
        # the Python steps are those of the rows that moved.  Measured
        # at 16 384 rows after a one-row update: the diff costs ~4.4
        # frozenset differences of the table, and cost ~11 while the
        # identity check built a set of ids.
        from repro.relational.views import _moved

        cost = {}
        for size in (self.SIZE, 64 * self.SIZE):
            manager, catalog = self.stack(True, size)
            old = manager.committed().relation("emp")
            manager._commit_ops([("update", "emp", {"emp": 1},
                                  {"salary": -1})], {"emp"},
                                manager.current_version)
            new = manager.committed().relation("emp")
            cost[size] = self.events(lambda: catalog.read("by_dept"))
            view = catalog.view("by_dept")
            assert (view.delta_applies, view.recomputes) == (1, 1)
            assert catalog.verify("by_dept")
        assert cost[self.SIZE] == cost[64 * self.SIZE], cost
        diff = best_of(lambda: _moved(old, new), 7)
        walk = best_of(lambda: new.rows._pair_set - old.rows._pair_set, 7)
        assert diff < 7 * walk, (diff, walk)


class TestOneDeltaPerRunShapes:
    """Counts, not timings: a MUTATE batch pays for each run of inserts
    or deletes on a table once -- one row set built, one restriction by
    the set of the wheres, one delta applied, checked and logged -- so
    an op added to a run costs only its own row or where.  Profile
    events of ``_commit_ops`` on a logged 256-row keyed table, with
    observability off."""

    SIZE = 256
    #: Parent commit's one-op commits: insert, delete, update (Python
    #: 3.10 and 3.11; 3.12 counts a few fewer).
    ONE_OP = {"insert": 388, "delete": 348, "update": 593}
    #: Parent commit: about 300 events per op added to a run.
    PER_OP = 150

    @staticmethod
    def row(key):
        return {"emp": key, "name": "n%d" % key, "dept": key % 8,
                "salary": key}

    def events(self, manager, ops):
        import sys

        from repro.obs import observed

        count = [0]

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                count[0] += 1

        with observed(False):
            sys.setprofile(profile)
            try:
                manager._commit_ops(ops, {"emp"}, manager.current_version)
            finally:
                sys.setprofile(None)
        return count[0]

    def test_an_op_added_to_a_run_costs_its_own_row(self, tmp_path):
        from repro.relational.constraints import KeyConstraint, Table
        from repro.relational.tx import TransactionManager
        from repro.relational.wal import WriteAheadLog

        emp = Table(HEADING, employees(self.SIZE, 8,
                                       seed=WORKLOAD_SEED + 44),
                    [KeyConstraint(["emp"])])
        log = WriteAheadLog(str(tmp_path / "wal.log"), sync=False)
        manager = TransactionManager({"emp": emp}, log=log)
        fresh = iter(range(self.SIZE, 10 ** 6))

        def cycle(size):
            keys = [next(fresh) for _ in range(size)]
            cost = {"insert": self.events(manager, [
                ("insert", "emp", self.row(key)) for key in keys])}
            if size == 1:
                cost["update"] = self.events(manager, [
                    ("update", "emp", {"emp": keys[0]}, {"salary": 3})])
            cost["delete"] = self.events(manager, [
                ("delete", "emp", {"emp": key}) for key in keys])
            return cost

        for _ in range(3):  # fills the member indexes later values carry
            cycle(5)
        sizes = (1, 2, 5, 9)
        costs = {size: cycle(size) for size in sizes}
        assert manager.commits == 2 * 3 + 2 * len(sizes) + 1
        assert len(manager.table("emp")) == self.SIZE
        log.close()
        for kind, parent in self.ONE_OP.items():
            assert costs[1][kind] <= 1.03 * parent, (kind, costs[1])
        for kind in ("insert", "delete"):
            for smaller, larger in zip(sizes, sizes[1:]):
                added = costs[larger][kind] - costs[smaller][kind]
                assert added <= self.PER_OP * (larger - smaller), (
                    kind, {size: cost[kind] for size, cost in costs.items()})


class TestKeyedWriteShapes:
    """Counts, not timings: a keyed ``Table.update`` or ``Table.delete``
    finds its rows as a key select does, off the member index's run, so
    its profile events do not grow with the table."""

    def test_a_keyed_update_and_delete_cost_the_same_at_any_size(self):
        from repro.relational.constraints import KeyConstraint, Table
        from repro.workloads import employee_relation

        events = {}
        for size in (64, 4096):
            rel = employee_relation(size, 8, seed=WORKLOAD_SEED + 49)
            table = Table(rel.heading.names, list(rel.iter_dicts()),
                          [KeyConstraint(["emp"])])
            keys = [row["emp"] for row in rel.iter_dicts()][:5]
            table.update({"emp": keys[0]}, {"salary": 7})  # fills the index
            events[size] = (
                TestPointWorkShapes.profile_events(lambda: table.update(
                    {"emp": keys[1]}, {"salary": 9}))[1],
                TestPointWorkShapes.profile_events(lambda: table.delete(
                    {"emp": keys[2]}))[1],
                TestPointWorkShapes.profile_events(lambda: table.delete(
                    {"emp": keys[3]}, {"emp": keys[4]}))[1],
            )
            assert len(table) == size - 3
        # Observability off: 315, 98 and 134 events at either size;
        # parent commit 374, 157 and 235 (a key set built and each
        # candidate re-tested by Def 7.6).
        for small, large in zip(events[64], events[4096]):
            assert abs(large - small) <= 2, events


class TestCommitTouchesOnlyItsTables:
    """Counts, not timings: an open transaction is one map of the tables
    its statements touched, over the committed value it read, so a
    commit does no work for the enrolled tables it never touched, and a
    session's commit commits its map without running a statement again.
    Profile events with observability off."""

    @staticmethod
    def manager(tables):
        from repro.relational.constraints import KeyConstraint, Table
        from repro.relational.tx import TransactionManager

        enrolled = {"emp": Table(HEADING, employees(
            64, 8, seed=WORKLOAD_SEED + 47), [KeyConstraint(["emp"])])}
        for index in range(tables - 1):
            enrolled["t%02d" % index] = Table(
                ["k", "v"], [{"k": 1, "v": 1}], [KeyConstraint(["k"])])
        return TransactionManager(enrolled)

    @staticmethod
    def events(call):
        from repro.obs import observed

        with observed(False):
            return TestPointWorkShapes.profile_events(call)[1]

    def test_a_one_row_commit_costs_the_same_beside_thirty_tables(self):
        costs = {}
        for tables in (3, 30):
            manager = self.manager(tables)
            emp = manager.table("emp")
            fresh = iter(range(10 ** 6, 2 * 10 ** 6))

            def row():
                return {"emp": next(fresh), "name": "n", "dept": 1,
                        "salary": 1}

            def served():
                manager._commit_ops([("insert", "emp", row())], {"emp"},
                                    manager.current_version)

            def bare():
                emp.insert(row())

            for _ in range(3):  # fills the member indexes values carry
                served()
                bare()
            costs[tables] = (self.events(served), self.events(bare))
            assert manager.commits == 8
        # Parent commit: 279 / 603 and 268 / 538 -- every scope saved,
        # deferred, checked and diffed each enrolled table.
        for few, many in zip(costs[3], costs[30]):
            assert abs(many - few) <= 2, costs

    def test_a_session_commit_runs_no_statement_again(self, monkeypatch):
        from repro.relational.constraints import Table

        manager = self.manager(3)
        session = manager.session()
        for key in range(100, 105):
            session.insert("emp", {"emp": key, "name": "n", "dept": 1,
                                   "salary": 1})
        inserts = []
        insert = Table.insert
        monkeypatch.setattr(Table, "insert", lambda self, *rows: (
            inserts.append(rows), insert(self, *rows))[1])
        assert session.commit() == 1
        # Parent commit: the buffered inserts replayed, one Table.insert
        # of the run.
        assert inserts == []
        assert len(manager.table("emp")) == 69


class TestPointWorkShapes:
    """Counts, not timings: a read that names one key tests the members
    that hold it, a statement text is tokenized once per process, and a
    re-scope that changes nothing builds nothing."""

    SIZES = (64, 1024)

    def test_a_key_select_reads_its_run_and_tests_nothing(self, monkeypatch):
        from repro.relational import algebra
        from repro.relational.algebra import Comparison
        from repro.workloads import employee_relation
        from repro.xst import restrict

        counts, events = {}, {}
        for size in self.SIZES:
            rel = employee_relation(size, 8, seed=WORKLOAD_SEED + 13)
            first, second = list(rel.iter_dicts())[:2]
            # Builds the index.
            algebra.restrict(rel, (Comparison("emp", "=", first["emp"]),))
            calls = []
            within, issubset = restrict._fragment_within, XSet.issubset
            with monkeypatch.context() as patch:
                patch.setattr(restrict, "_fragment_within", lambda *args: (
                    calls.append("within"), within(*args))[1])
                patch.setattr(XSet, "issubset", lambda *args: (
                    calls.append("issubset"), issubset(*args))[1])
                found = algebra.restrict(
                    rel, (Comparison("emp", "=", second["emp"]),)
                )
            assert list(found.iter_dicts()) == [second]
            counts[size] = calls
            found, events[size] = self.profile_events(lambda: algebra.restrict(
                rel, (Comparison("emp", "=", second["emp"]),)))
            assert list(found.iter_dicts()) == [second]
        # The member index's run at the key's value is the answer: no
        # part of the key is tested against a row.  Parent commit: the
        # Def 7.6 re-test of the one candidate (two ``_fragment_within``
        # calls and one ``issubset``), with a key set built per call.
        assert counts[64] == counts[1024] == [], counts
        assert events[64] == events[1024], events

    def test_a_statement_text_is_tokenized_once(self, monkeypatch):
        from repro.relational import sql
        from repro.relational.query import Database
        from repro.workloads import employee_relation

        db = Database({"emp": employee_relation(32, 4, seed=WORKLOAD_SEED + 14)})
        text = "SELECT name FROM emp WHERE dept = 2 ORDER BY name LIMIT 3"
        sql._select.cache_clear()
        calls = TestCanonicalOrderOnceShapes.counting(
            monkeypatch, "_tokenize", "repro.relational.sql"
        )
        first = sql.run(db, text)
        assert len(calls) == 1  # parent commit: three
        assert sql.run(db, text) == first
        assert len(sql.run_rows(db, text)) == 3
        assert len(calls) == 1

    def test_a_join_builds_each_row_from_its_records(self):
        from repro.relational import algebra
        from repro.workloads import department_relation, employee_relation

        events = {}
        for size in self.SIZES:
            emp = employee_relation(size, 8, seed=WORKLOAD_SEED + 15)
            dept = department_relation(8, seed=WORKLOAD_SEED + 15)
            joined, events[size] = self.profile_events(
                lambda: algebra.join(emp, dept))
            assert len(joined) == size
        # Each row of either side read once, each output row merged once
        # from the two records: about 17 events per output row.  Parent
        # commit (a re-scope per side and a member-level union per row):
        # about 90.
        assert self.per_row(events) <= 20, events

    def test_a_join_meets_its_candidates_only(self):
        from repro.relational import algebra
        from repro.relational.relation import Relation
        from repro.workloads import employee_relation

        events = {}
        for size in self.SIZES:
            emp = employee_relation(size, 8, seed=WORKLOAD_SEED + 16)
            picked = list(emp.iter_dicts())[::size // 4][:4]
            hours = Relation.from_dicts(
                ["emp", "hours"],
                [{"emp": row["emp"], "hours": at} for at, row in enumerate(picked)],
            )
            algebra.join(emp, hours)  # fills emp's index on "emp"
            for left, right in ((emp, hours), (hours, emp)):
                joined, events[size, left is emp] = self.profile_events(
                    lambda: algebra.join(left, right))
                assert len(joined) == 4
        # Four probing rows and the one candidate each meets, whichever
        # side is the left: 148 and 139 events.  Parent commit: every row
        # of either side (4 + n re-scoped key fragments).
        for left_is_emp in (True, False):
            assert events[64, left_is_emp] == events[1024, left_is_emp], events

    def test_a_projection_picks_each_row_once(self):
        from repro.relational import algebra
        from repro.workloads import employee_relation

        events = {}
        for size in self.SIZES:
            emp = employee_relation(size, 8, seed=WORKLOAD_SEED + 17)
            picked, events[size] = self.profile_events(
                lambda: algebra.project(emp, ["dept", "name"]))
            assert len(picked) == size
        # Each row's pairs at the kept names, picked off its run and its
        # keys: 9 events per row.  Parent commit (a Def 7.3 re-scope per
        # row, then the checked constructors): about 57.
        assert self.per_row(events) <= 12, events

    def test_a_rename_rebuilds_each_row_once(self):
        from repro.relational import algebra
        from repro.workloads import employee_relation

        events = {}
        for size in self.SIZES:
            emp = employee_relation(size, 8, seed=WORKLOAD_SEED + 18)
            renamed, events[size] = self.profile_events(
                lambda: algebra.rename(emp, {"dept": "d", "name": "n"}))
            assert len(renamed) == size
        # One record built per row over the new names: 13 events per row
        # of four attributes.  Parent commit (a re-scope and a checked
        # build per row, then the checked constructors): about 64.
        assert self.per_row(events) <= 16, events

    def test_the_identity_projection_is_its_operand(self):
        from repro.relational import algebra
        from repro.workloads import employee_relation

        emp = employee_relation(64, 8, seed=WORKLOAD_SEED + 19)
        names = emp.heading.names
        kept, events = self.profile_events(lambda: algebra.project(emp, names))
        assert kept is emp
        # A grouped statement's closing Project over its Aggregate.
        # Parent commit: 121 events on analytic_read's eight groups.
        assert events <= 8, events
        # Another order is another heading over the same rows.
        turned = algebra.project(emp, names[::-1])
        assert turned.heading.names == names[::-1] and turned == emp

    @classmethod
    def per_row(cls, events):
        """Events per row added between the two sizes."""
        small, large = cls.SIZES
        return (events[large] - events[small]) / (large - small)

    @staticmethod
    def profile_events(build):
        """``build()`` and the profile events (Python and C calls) it emits."""
        import gc
        import sys

        count = [0]

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                count[0] += 1

        # A collection would run other tests' finalizers in here.
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            result = build()
        finally:
            sys.setprofile(None)
            gc.enable()
        return result, count[0]

    def test_a_comparison_decides_each_value_once(self):
        from repro.relational.algebra import Comparison, restrict
        from repro.relational.relation import Relation

        events, two = {}, {}
        for size in self.SIZES:
            # Eight distinct values at v; the four rows holding 0 drop.
            rel = Relation.from_tuples(("k", "v", "w"), [
                (n, 0 if n < 4 else 1 + n % 7, "w%d" % n) for n in range(size)
            ])
            rel.rows._members_holding("v")
            kept, events[size] = self.profile_events(
                lambda: restrict(rel, (Comparison("v", ">", 0),)))
            assert len(kept) == size - 4
            assert rel.rows._pair_set - kept.rows._pair_set == {
                (row, scope) for row, scope in rel.rows.pairs()
                if row.elements_at("v") == (0,)
            }
            every, _ = self.profile_events(
                lambda: restrict(rel, (Comparison("v", ">=", 0),)))
            assert every is rel
            # Two ranges on the attribute: still one pass over its values.
            both, two[size] = self.profile_events(lambda: restrict(rel, (
                Comparison("v", ">", 0), Comparison("v", "<", 9),
            )))
            assert both == kept
        # Each distinct value once, each dropped row patched out; no row
        # read as a dict.  Parent commit: 391 and 6 151 events.
        assert events[64] == events[1024], events
        assert two[64] == two[1024] <= events[64] + 8, (two, events)

    def test_a_comparison_over_a_derived_operand_reads_its_column(self):
        from repro.relational.algebra import Comparison, restrict
        from repro.relational.relation import Relation

        events = {}
        for size in self.SIZES:
            # No index carried: a derived operand is not indexed for one
            # comparison.  The four rows holding 0 drop.
            rel = Relation.from_tuples(("k", "v", "w"), [
                (n, 0 if n < 4 else n, "w%d" % n) for n in range(size)
            ])
            kept, events[size] = self.profile_events(
                lambda: restrict(rel, (Comparison("v", ">", 0),)))
            assert len(kept) == size - 4
            assert rel.rows._by_part is None
            assert all(row._by_scope is None for row, _ in rel.rows.pairs())
        # One C-level pass over the column, each dropped row patched out;
        # no row read as a dict.  81 events; parent commit: 390 and 6 150.
        assert events[64] == events[1024], events

    def test_filling_a_scope_index_reads_one_scope(self):
        from repro.relational.relation import Relation

        events = {}
        for size in self.SIZES:
            rel = Relation.from_tuples(("k", "v", "w"), [
                (n, n % 7, "w%d" % n) for n in range(size)
            ])
            index, events[size] = self.profile_events(
                lambda: rel.rows._members_holding("v"))
            assert sum(map(len, index.values())) == size
            # One append per row: no row builds its scope index for it.
            assert all(row._by_scope is None for row, _ in rel.rows.pairs())
        # Parent commit: 904 and 14 344 events, about 14 per row.
        for size, count in events.items():
            assert count <= size + 16, events

    def test_an_identity_sigma_is_built_once(self):
        from repro.relational import algebra, constraints

        identity = algebra._attribute_identity(("emp", "dept"))
        # Equal attributes, a different tuple: the same sigma object.
        assert algebra._attribute_identity(tuple(["emp", "dept"])) is identity
        assert constraints._attribute_identity is algebra._attribute_identity
        # A bounded memo, so ad-hoc attribute tuples cannot grow it.
        assert algebra._attribute_identity.cache_info().maxsize == (
            algebra._IDENTITY_ENTRIES
        )
        for at in range(algebra._IDENTITY_ENTRIES + 8):
            algebra._attribute_identity(("a%d" % at,))
        info = algebra._attribute_identity.cache_info()
        assert info.currsize <= algebra._IDENTITY_ENTRIES


class TestBuiltOnceShapes:
    """Counts, not timings: a value's canonical key is derived once, when
    the checked constructor sorts by it, and travels with the value
    through ``union``; a row is proved record-shaped once, by whoever
    builds it."""

    SIZES = (50, 500)

    @staticmethod
    def counters(patch):
        """Count the four re-derivations; ``{name: [one entry per call]}``."""
        import importlib

        from repro.relational.relation import Relation

        calls = {"admissible": [], "keyed": [], "is_record": [],
                 "validated": [], "row_dicts": []}

        def logging(name, original, note=lambda *args: 1):
            def logged(*args):
                calls[name].append(note(*args))
                return original(*args)
            return logged

        xset_module = importlib.import_module("repro.xst.xset")
        ordering = importlib.import_module("repro.xst.ordering")
        patch.setattr(xset_module, "_check_admissible", logging(
            "admissible", xset_module._check_admissible))
        patch.setattr(ordering, "_xset_key", logging(
            "keyed", ordering._xset_key, lambda value: value))
        patch.setattr(XSet, "is_record", logging("is_record", XSet.is_record))
        patch.setattr(Relation, "__init__", logging(
            "validated", Relation.__init__,
            lambda self, heading, rows: len(rows)))
        patch.setattr(Relation, "iter_dicts", logging(
            "row_dicts", Relation.iter_dicts, len))
        return calls

    def test_from_tuples_builds_each_row_once(self, monkeypatch):
        from repro.relational.relation import Relation

        for size in self.SIZES:
            rows = [tuple(row[name] for name in HEADING) for row in
                    employees(size, 8, seed=WORKLOAD_SEED + 16)]
            with monkeypatch.context() as patch:
                calls = self.counters(patch)
                rel = Relation.from_tuples(HEADING, rows)
                assert len(rel) == size
                # Parent commit, per row: 8 admissibility calls, the row
                # keyed a second time as a member, is_record + validation.
                assert not any(calls.values()), calls
                # The counters do see what is not known by type or by
                # construction: a complex atom, the one admitted type the
                # exact-type test leaves to the check, and rows handed to
                # the checked constructor.
                other = XSet([(1 + 2j, "z")])
                sorted([rel.rows - XSet(rel.rows.pairs()[:1]), other],
                       key=canonical_key)
                Relation(rel.heading, rel.rows)
                assert len(calls["admissible"]) == 1
                # A difference keeps the subsequence of its operand's keys,
                # so it arrives keyed too (parent commit: keyed here once).
                assert len(calls["keyed"]) == 0
                assert calls["validated"] == [size]
                assert len(calls["is_record"]) == 0  # failing path only

    def test_from_tuples_costs_a_constant_per_row(self, monkeypatch):
        import gc
        import inspect
        import sys

        from repro.relational.relation import Relation

        def profiled(build):
            events, generators = [0], [0]

            def profile(frame, event, arg):
                if event in ("call", "c_call"):
                    events[0] += 1
                if event == "call" and frame.f_code.co_flags & (
                    inspect.CO_GENERATOR
                ):
                    generators[0] += 1

            # A collection would run other tests' finalizers in here.
            gc.collect()
            gc.disable()
            sys.setprofile(profile)
            try:
                result = build()
            finally:
                sys.setprofile(None)
                gc.enable()
            return result, events[0], generators[0]

        checked = []
        init = XSet.__init__
        monkeypatch.setattr(XSet, "__init__", lambda self, *args: (
            checked.append(1), init(self, *args))[1])
        sizes = (5, *self.SIZES)
        built, reads = {}, {}
        for size in sizes:
            rows = [tuple(row[name] for name in HEADING) for row in
                    employees(size, 8, seed=WORKLOAD_SEED + 20)]
            rel, built[size], _ = profiled(
                lambda: Relation.from_tuples(HEADING, rows))
            assert len(rel) == size
            dicts = [dict(zip(HEADING, row)) for row in rows]
            assert Relation.from_dicts(HEADING, dicts) == rel
            for read in (rel.to_rows, lambda: list(rel.iter_dicts())):
                out, events, generators = profiled(read)
                assert len(out) == size
                # Parent commit: a generator resumed per value (to_rows)
                # or per row (iter_dicts).
                assert generators == 0
                reads.setdefault(read.__name__, []).append(events)
        # No row reaches the checked constructor (parent commit: one per
        # row and one for the row set).
        assert checked == []
        # The same events for every row: each value's key, and a fixed
        # number for the row (parent commit: about 27 per row of four
        # values, with the row set's).  A per-row record constructor
        # call, its sort, object allocation, fill, hash, the arity and
        # key-count lengths, the append, and the row set's two member
        # hashes: ten.
        small, mid, large = (built[size] for size in sizes)
        per_row = (large - mid) / (sizes[2] - sizes[1])
        assert per_row == (mid - small) / (sizes[1] - sizes[0])
        assert per_row <= len(HEADING) + 10, built
        # Each read takes at most two events per row (a call and, before
        # Python 3.12, its dict comprehension), never one per value.
        for events in reads.values():
            assert (events[2] - events[1]) <= 2 * (sizes[2] - sizes[1])

    def test_join_output_rows_arrive_keyed(self, monkeypatch):
        from repro.relational import algebra
        from repro.workloads import department_relation, employee_relation

        for size in self.SIZES:
            emp = employee_relation(size, 8, seed=WORKLOAD_SEED + 17)
            dept = department_relation(8, seed=WORKLOAD_SEED + 17)
            with monkeypatch.context() as patch:
                calls = self.counters(patch)
                joined = algebra.join(emp, dept)
            assert len(joined) == size and len(joined.heading) == 6
            # Each output row is a union of two keyed rows and carries the
            # merged keys (parent commit: every one keyed from scratch).
            output = {id(row) for row, _ in joined.rows.pairs()}
            assert not output & {id(value) for value in calls["keyed"]}
            assert all(row._key is not None for row, _ in joined.rows.pairs())
            assert calls["admissible"] == calls["is_record"] == []

    def test_aggregate_reads_each_group_once(self, monkeypatch):
        from repro.relational.algebra import aggregate
        from repro.workloads import employee_relation

        for size in self.SIZES:
            emp = employee_relation(size, 8, seed=WORKLOAD_SEED + 18)
            with monkeypatch.context() as patch:
                calls = self.counters(patch)
                out = aggregate(emp, ["dept"], {
                    "headcount": ("count", "salary"),
                    "mean": ("avg", "salary"),
                })
            assert len(out) == 8
            assert sum(row["headcount"] for row in out.iter_dicts()) == size
            # No dicts and no validation: the groups are runs of emp's
            # member index, so no projection validates the eight keys
            # (parent commit: [8]), and columns come from the scope indexes.
            assert calls["row_dicts"] == calls["validated"] == []
            assert calls["is_record"] == []

    def test_group_by_partitions_off_the_member_index(self, monkeypatch):
        from repro.relational import algebra
        from repro.workloads import employee_relation

        emp = employee_relation(4096, 64, seed=WORKLOAD_SEED + 19)
        calls = {"projected": 0, "restrict_records": 0, "checked": 0}

        def counted(name, original):
            def count(*args):
                calls[name] += 1
                return original(*args)
            return count

        monkeypatch.setattr(algebra, "_picked", counted(
            "projected", algebra._picked))
        monkeypatch.setattr(algebra, "restrict_records", counted(
            "restrict_records", algebra.restrict_records))
        monkeypatch.setattr(XSet, "__init__", counted("checked", XSet.__init__))
        groups = algebra.group_by(emp, ["dept"])
        assert len(groups) == 64
        assert sum(len(group) for _, group in groups) == 4096
        # Every key's image at once, read off the member index: no
        # projection and no restriction per key.  Parent commit: one
        # projection, 64 restrictions and 67 checked constructions (a key
        # set per restriction and three more); now none are needed.
        assert calls["projected"] == calls["restrict_records"] == 0
        assert calls["checked"] <= 64


class TestServedRequestShapes:
    """Counts, not timings: a served request costs its own work.  The
    server decodes frames in the transport's callback and both wire
    deadlines are timers on the waiting task, so a request spawns no
    task and a connection holds exactly one."""

    def test_requests_spawn_no_task_and_a_connection_holds_one(self):
        import asyncio

        from repro.relational.constraints import KeyConstraint, Table
        from repro.relational.tx import TransactionManager
        from repro.server import Server, connect

        manager = TransactionManager({"emp": Table(
            ["eid", "name"],
            [{"eid": n, "name": "e%d" % n} for n in range(5)],
            [KeyConstraint(["eid"])],
        )})
        created = []

        def counting(loop, coro, **kwargs):
            task = asyncio.Task(coro, loop=loop, **kwargs)
            created.append(task)
            return task

        async def main():
            server = Server(manager, page_rows=2)
            await server.start()
            loop = asyncio.get_running_loop()
            loop.set_task_factory(counting)
            try:
                clients = [
                    await connect("127.0.0.1", server.port,
                                  client_id="c%d" % n)
                    for n in range(3)
                ]
                # Parent commit: 6, a frame pump beside each serve task.
                assert sum(not task.done() for task in created) == 3
                client = clients[0]
                await client.prepare("by_id",
                                     "select name from emp where eid = $1")
                spawned = {}
                for name, request in (
                    ("QUERY", lambda: client.query(
                        "select name from emp where eid = 1")),
                    ("QUERY, 3 pages", lambda: client.query(
                        "select eid from emp")),
                    ("EXECUTE", lambda: client.execute("by_id", [2])),
                    ("MUTATE", lambda: client.mutate(
                        [["insert", "emp", {"eid": 9, "name": "z"}]])),
                    ("REFRESH", client.refresh),
                ):
                    del created[:]
                    await request()
                    spawned[name] = len(created)
                # Parent commit on Python 3.10 and 3.11: 2 each (a drain
                # wait on the server, a read wait in the client) and 6 for
                # three pages; from 3.12 its wait_for spawned none.
                assert spawned == dict.fromkeys(spawned, 0)
                for each in clients:
                    await each.close()
            finally:
                loop.set_task_factory(None)
                await server.close()

        asyncio.run(main())


class TestPreparedPlanShapes:
    """Counts, not timings: a statement is planned once per catalog
    value.  ``EXECUTE`` binds its arguments into that plan, so a new
    key tokenizes and optimizes nothing; the plan memo follows every
    change to what the optimizer reads, and it dies with its value."""

    TEMPLATE = "select name from emp where eid = $1"

    @staticmethod
    def manager(rows=40):
        from repro.relational.constraints import KeyConstraint, Table
        from repro.relational.tx import TransactionManager

        emp = Table(["eid", "name"],
                    [{"eid": n, "name": "e%d" % n} for n in range(rows)],
                    [KeyConstraint(["eid"])])
        return TransactionManager({"emp": emp})

    def test_a_new_key_is_neither_tokenized_nor_optimized(self, monkeypatch):
        import asyncio

        from repro.relational import sql
        from repro.server import Server, connect

        async def main():
            server = Server(self.manager())
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port)
                await client.prepare("by_eid", self.TEMPLATE)
                first = await client.execute("by_eid", [1])
                calls = {"_tokenize": 0, "optimize": 0}
                for name in calls:
                    original = getattr(sql, name)

                    def counted(*args, _name=name, _original=original):
                        calls[_name] += 1
                        return _original(*args)

                    monkeypatch.setattr(sql, name, counted)
                rows = [(await client.execute("by_eid", [key])).to_rows()
                        for key in (2, 3, 39)]
                # Parent commit: one tokenization and one optimize each.
                assert calls == {"_tokenize": 0, "optimize": 0}
                assert first.to_rows() == [("e1",)]
                assert rows == [[("e2",)], [("e3",)], [("e39",)]]
                await client.close()
            finally:
                await server.close()

        asyncio.run(main())

    def test_the_memo_follows_what_the_optimizer_reads(self):
        from repro.relational import sql
        from repro.relational.optimizer import optimize
        from repro.relational.query import Database
        from repro.relational.relation import Relation
        from repro.relational.schema import Heading
        from repro.relational.views import ViewCatalog
        from repro.workloads import department_relation, employee_relation

        seed = WORKLOAD_SEED + 31
        db = Database({
            "emp": employee_relation(200, 16, seed=seed, skew=1.2),
            "dept": department_relation(16, seed=seed),
            "proj": Relation.from_dicts(
                Heading(["emp", "proj"]),
                [{"emp": n, "proj": n % 7} for n in range(0, 200, 3)],
            ),
        })
        ViewCatalog(db)
        text = "select name, dname from emp join dept join proj where proj = 3"
        template = sql._select(text)[1]
        crowded = Relation.from_dicts(
            Heading(["emp", "proj"]),
            [{"emp": n, "proj": 3} for n in range(200)],
        )
        events = [
            ("first run", lambda: None),
            ("ANALYZE", lambda: sql.run(db, "ANALYZE")),
            ("an edit", lambda: db.add("proj", crowded)),
            ("CREATE VIEW", lambda: sql.run(
                db, "CREATE VIEW rich AS select name from emp "
                    "where salary > 90000")),
            ("DROP VIEW", lambda: sql.run(db, "DROP VIEW rich")),
        ]
        plans = []
        for event, happen in events:
            before = db.plan_memo().get(text)
            happen()
            if event == "ANALYZE":
                # A report: the memo keeps the very plan it held.
                assert db.plan_memo()[text] is before
            answer = sql.run(db, text, optimized=False)
            assert sql.run(db, text) == answer, event
            memoized = db.plan_memo()[text].explain()
            assert memoized == optimize(template, db).explain(), event
            plans.append(memoized)
        # The edit moved the plan, so the memo followed it.
        assert plans[1] != plans[2]

    def test_plan_memos_die_with_their_catalog_value(self):
        import asyncio
        import gc

        from repro.relational.query import Database
        from repro.server import Server, connect

        manager = self.manager()

        async def main():
            server = Server(manager)
            await server.start()
            try:
                writer = await connect("127.0.0.1", server.port,
                                       client_id="w")
                reader = await connect("127.0.0.1", server.port,
                                       client_id="r")
                await reader.prepare("by_eid", self.TEMPLATE)
                for n in range(500):
                    await writer.mutate([["update", "emp", {"eid": n % 40},
                                          {"name": "v%d" % n}]])
                    if n % 3 == 0:
                        await reader.refresh()
                    rel = await reader.execute("by_eid", [n % 40])
                    assert len(rel) == 1
                gc.collect()
                planned = [value for value in gc.get_objects()
                           if type(value) is Database and value._plans]
                assert manager.commits == 500
                # A memo hangs off its catalog value: only the versions
                # open sessions pin keep one.
                assert 1 <= len(planned) <= len(manager.retained_versions())
                await writer.close()
                await reader.close()
            finally:
                await server.close()

        asyncio.run(main())


class TestAnsweredBeforePlannedShapes:
    """Counts, not timings: with a result cache, a statement is looked
    up under its compiled plan's key before it is planned, so a repeat
    on a new catalog value -- a commit elsewhere -- runs no optimizer
    and no heading check; a cache-less catalog plans as before."""

    JOIN = "select emp, name, dname from emp join dept where dept = %s"
    #: Profile events of a hit, observability off.  Measured 17 (Python
    #: 3.11); the parent commit planned first: 78 to 134.
    HIT_EVENTS = 25

    @staticmethod
    def manager(cache=True):
        from repro.relational.constraints import KeyConstraint, Table
        from repro.relational.ivm.cache import QueryResultCache
        from repro.relational.tx import TransactionManager

        seed = WORKLOAD_SEED + 45
        tables = {
            "emp": Table(HEADING, employees(100, 8, seed=seed),
                         [KeyConstraint(["emp"])]),
            "dept": Table(DEPT_HEADING, departments(8, seed=seed),
                          [KeyConstraint(["dept"])]),
            "proj": Table(["emp", "proj"],
                          [{"emp": n, "proj": n % 7} for n in range(50)]),
        }
        return TransactionManager(
            tables, result_cache=QueryResultCache(64) if cache else None)

    @staticmethod
    def counting(monkeypatch):
        from repro.relational import sql
        from repro.relational.query import Database

        calls = {"optimize": 0, "heading_of": 0}
        for owner, name in ((sql, "optimize"), (Database, "heading_of")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @staticmethod
    def elsewhere(manager, n):
        manager.table("proj").insert({"emp": 1000 + n, "proj": 1})

    def test_a_repeat_after_a_commit_elsewhere_is_not_planned(
            self, monkeypatch):
        from repro.obs import observed
        from repro.relational import sql

        manager = self.manager()
        texts = [self.JOIN % 3,
                 "select emp, name, salary from emp where dept = 2",
                 "select dname from dept where dept = 1"]
        answers = [sql.run(manager.committed(), text) for text in texts]
        self.elsewhere(manager, 0)
        db = manager.committed()
        calls = self.counting(monkeypatch)
        for text, answer in zip(texts, answers):
            with observed(False):
                found, events = TestPointWorkShapes.profile_events(
                    lambda: sql.run(db, text))
            assert found is answer
            assert events <= self.HIT_EVENTS, (text, events)
        assert calls == {"optimize": 0, "heading_of": 0}
        assert db.plan_memo() == {}
        assert manager.result_cache.hits == len(texts)

    def test_a_joining_template_hit_with_new_arguments_is_not_planned(
            self, monkeypatch):
        from repro.relational import sql

        manager = self.manager()
        template = self.JOIN % "$1"
        queried = {dept: sql.run(manager.committed(), self.JOIN % dept)
                   for dept in (2, 5)}
        calls = self.counting(monkeypatch)
        for n, dept in enumerate((2, 5)):
            self.elsewhere(manager, n)
            # QUERY and EXECUTE spelled alike share one entry.
            executed = sql.run(manager.committed(), template, args=[dept])
            assert executed is queried[dept]
        assert calls["optimize"] == 0
        cache = manager.result_cache
        assert (cache.hits, cache.misses, cache.stale) == (2, 2, 0)

    def test_a_cacheless_catalog_plans_once_per_text_per_value(
            self, monkeypatch):
        from repro.relational import sql

        manager = self.manager(cache=False)
        calls = self.counting(monkeypatch)
        texts = [self.JOIN % 3, "select dname from dept where dept = 1"]
        for n in range(2):
            for _ in range(3):
                for text in texts:
                    sql.run(manager.committed(), text)
            assert calls["optimize"] == len(texts) * (n + 1)
            self.elsewhere(manager, n)
        # A joining template is ordered per binding, as before.
        for dept in (2, 2, 5):
            sql.run(manager.committed(), self.JOIN % "$1", args=[dept])
        assert calls["optimize"] == 2 * len(texts) + 3


class TestPushedRestrictionShapes:
    """Counts, not timings: a WHERE clause written above a join is one
    restriction, split by attribute onto each ``Scan`` that holds them,
    and costs what the plan written that way costs; on one table, all
    of an attribute's comparisons are decided in one pass."""

    COLUMNS = ["emp", "name", "dname"]
    TEXTS = {
        # Parent commit: 10 219 events (2 643 pushed by hand).
        "range": "select emp, name, dname from emp join dept "
                 "where salary > 90000",
        # Parent commit: 9 505 events (600 pushed by hand, as two nodes).
        "range_and_key": "select emp, name, dname from emp join dept "
                         "where dept = 1 and salary > 90000",
    }

    @staticmethod
    def catalog():
        """The end-to-end benchmark's ``analytic_read`` tables, seed 101."""
        import importlib.util

        from repro.relational.tx import TransactionManager

        path = os.path.join(
            os.path.dirname(__file__), os.pardir,
            "benchmarks", "e2e", "workloads.py",
        )
        spec = importlib.util.spec_from_file_location("e2e_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        tables = workloads.build_tables(
            workloads.WORKLOADS["analytic_read"], 101
        )
        return TransactionManager(tables).committed()

    @staticmethod
    def events(db, plan):
        """cProfile's total calls of one execution, after a warming one,
        with observability off: the bounds count the executor's calls,
        not the spans ``REPRO_OBS=1`` adds."""
        import cProfile
        import pstats

        from repro.obs import observed

        with observed(False):
            db._execute_uncached(plan)
            profile = cProfile.Profile()
            profile.enable()
            try:
                answer = db._execute_uncached(plan)
            finally:
                profile.disable()
        return answer, pstats.Stats(profile).total_calls

    def hand_pushed(self, name):
        from repro.relational.algebra import Comparison
        from repro.relational.query import Join, Project, Restrict, Scan

        above = Comparison("salary", ">", 90000)
        emp = Restrict(Scan("emp"), (above,))
        dept = Scan("dept")
        if name == "range_and_key":
            key = Comparison("dept", "=", 1)
            emp = Restrict(Scan("emp"), (key, above))
            dept = Restrict(dept, (key,))
        return Project(Join(emp, dept), self.COLUMNS)

    def test_a_comparison_above_a_join_costs_what_it_costs_pushed(self):
        from repro.relational import sql
        from repro.relational.optimizer import optimize
        from tests.relational.test_optimizer import restrictions_sit_on_scans

        db = self.catalog()
        for name, text in self.TEXTS.items():
            plan = optimize(sql.compile_query(sql.parse_query(text)), db)
            assert restrictions_sit_on_scans(plan), plan.explain()
            answer, spent = self.events(db, plan)
            expected, pushed = self.events(db, self.hand_pushed(name))
            assert answer == expected
            assert spent <= 1.1 * pushed, (name, spent, pushed)

    def statement(self, db, where):
        from repro.relational import sql
        from repro.relational.optimizer import optimize

        text = "select emp, name from emp where " + where
        return self.events(
            db, optimize(sql.compile_query(sql.parse_query(text)), db)
        )

    def test_a_second_range_on_an_attribute_is_the_same_pass(self):
        db = self.catalog()
        one, spent_one = self.statement(db, "salary > 90000")
        # The same 14 rows: the second bound is one more C-level test
        # of each distinct salary, not a second pass over the rows.
        two, spent_two = self.statement(
            db, "salary > 90000 and salary < 1000000000")
        assert two == one
        assert spent_two <= 1.1 * spent_one, (spent_two, spent_one)
        # Two bounds that each drop rows: 57 rows, whose projection is
        # most of the count.  Parent commit: 729 (two nodes).
        answer, spent = self.statement(
            db, "salary > 50000 and salary < 90000")
        assert len(answer) == 57
        assert spent < 729, spent

    def test_an_equality_restricts_before_the_range_is_asked(self):
        db = self.catalog()
        # Parent commit: 492, the range over the index, then the
        # equality over the rows it kept.
        answer, spent = self.statement(db, "dept = 1 and salary > 50000")
        assert len(answer) == 10
        assert spent < 492, spent
        # A point read does the one-key restriction's work alone.
        # Parent commit: 157.
        answer, spent = self.statement(db, "emp = 5")
        assert len(answer) == 1
        assert spent <= 157, spent


class TestAnswerBuiltOnceShapes:
    """Counts, not timings: a served answer is laid out once.  The server
    pages the result's run as it stands, the client checks and keeps the
    page rows, and reading rows as dicts makes no Python call per row --
    so none of the three grows with the answer."""

    SIZES = (64, 1024)

    @staticmethod
    def answers():
        """An ``employee_relation`` of each size, with the rows a PAGE
        carries for it: values in heading order, in the run's order."""
        from repro.workloads import employee_relation

        for size in TestAnswerBuiltOnceShapes.SIZES:
            rel = employee_relation(size, 8, seed=WORKLOAD_SEED + 21)
            names = rel.heading.names
            yield size, rel, [[row[name] for name in names]
                              for row in rel.iter_dicts()]

    def test_a_served_answer_is_counted_and_read_off_its_pages(self):
        from repro.server import Client
        from repro.server.protocol import FrameType

        client = Client("127.0.0.1", 0)
        events = {}
        for size, rel, rows in self.answers():
            body = {"heading": list(rel.heading.names), "rows": rows}

            def decode_count_read():
                answer = client._relation_of(FrameType.PAGE, body)
                return answer, answer.cardinality(), list(answer.iter_dicts())

            (answer, count, dicts), events[size] = \
                TestPointWorkShapes.profile_events(decode_count_read)
            assert count == size and dicts == list(rel.iter_dicts())
            assert answer == rel
        # Parent commit: 1 064 and 16 424 events -- the client built every
        # row with from_tuples and read each as a dict, 16 events per row
        # of four values.  Now 26 at both sizes.
        assert events[64] == events[1024], events

    def test_iter_dicts_makes_no_python_call_per_row(self):
        events = {}
        for size, rel, _ in self.answers():
            dicts, events[size] = TestPointWorkShapes.profile_events(
                lambda: list(rel.iter_dicts()))
            assert len(dicts) == size
        # Parent commit: two per row (a call and its dict comprehension);
        # now four at both sizes.
        assert events[64] == events[1024], events

    def test_the_server_pages_at_a_constant_cost_per_page(self, monkeypatch):
        from types import SimpleNamespace

        from repro.relational.tx import TransactionManager
        from repro.server import Server
        from repro.server import service

        server = Server(TransactionManager({}))
        events, pages = {}, {}
        for size, rel, rows in self.answers():
            # Four pages at either size: equal events are equal per page.
            server.page_rows = size // 4
            monkeypatch.setattr(service, "run_xql",
                                lambda db, xql, args=(), rel=rel: rel)
            sent = pages[size] = []

            async def send(conn, ftype, body):
                sent.append(body)

            monkeypatch.setattr(server, "_send", send)
            conn = SimpleNamespace(
                session=SimpleNamespace(priority=1, version=0,
                                        database=lambda: None),
                cancelled=set(), shed=False)

            def page_through():
                # Driven by hand: the page loop yields at each page edge.
                request = server._run_query(conn, "r1", "select * from emp")
                try:
                    while True:
                        request.send(None)
                except StopIteration:
                    pass

            _, events[size] = TestPointWorkShapes.profile_events(page_through)
            assert [body["seq"] for body in sent] == [0, 1, 2, 3]
            assert [row for body in sent for row in body["rows"]] == \
                list(map(tuple, rows))
        # Parent commit: 192 and 2 112 events -- to_rows read, sorted and
        # copied every row, two events per row.  Now 63 at both sizes.
        assert events[64] == events[1024], events


class TestOnePassCodecShapes:
    """Counts, not timings: a commit record is encoded and decoded in one
    pass over its pairs.  A str or int part and an empty scope are
    written and read inside the pair loop, so a row adds a few C calls
    per part, one call for the row's own set and, decoding, the checked
    constructor's keys -- not a call and an ``isinstance`` ladder per
    part."""

    SIZES = (4, 8)
    #: The parts one row adds to the record: the row and its empty scope
    #: in the inserted set, and three (value, attribute) pairs in it.
    PARTS_PER_ROW = 8

    @staticmethod
    def record(size):
        from repro.relational.wal import commit_record

        rows = xset([xrecord({"k": k, "v": "value-%d" % k, "n": 7 * k})
                     for k in range(size)])
        return commit_record(9, {"t": (None, rows, XSet())})

    def events_per_part(self, run, prepare):
        """Profile events of ``run(prepare(record))`` per part added from
        the small record to the large one."""
        events = {}
        for size in self.SIZES:
            argument = prepare(self.record(size))
            run(argument)
            _, events[size] = TestPointWorkShapes.profile_events(
                lambda: run(argument))
        small, large = self.SIZES
        return (events[large] - events[small]) / (
            (large - small) * self.PARTS_PER_ROW)

    def test_encoding_costs_at_most_three_events_per_part(self):
        from repro.xst.serialization import dumps

        # Parent commit: 8.5 per part (a 5-row record was 480 events);
        # now 2.5 (147).
        assert self.events_per_part(dumps, lambda record: record) <= 3

    def test_decoding_costs_at_most_five_events_per_part(self):
        from repro.xst.serialization import dumps, loads

        # Parent commit: 11.5 per part (a 5-row record was 644 events);
        # now 4.125 (249), most of it the checked XSet constructor's keys.
        assert self.events_per_part(loads, dumps) <= 5
