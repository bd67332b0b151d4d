"""The simulated distributed backend: correctness and shipping shape."""

import pytest

from repro.errors import ClusterUnavailableError, SchemaError
from repro.relational import algebra
from repro.relational.algebra import aggregate as local_aggregate
from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster, NetworkStats
from repro.relational.query import (
    Aggregate,
    Database,
    Join,
    Project,
    Rename,
    Restrict,
    Scan,
)
from repro.relational.relation import Relation
from repro.workloads.generators import department_relation, employee_relation


@pytest.fixture
def employees():
    return employee_relation(160, 8, seed=37)


@pytest.fixture
def departments():
    return department_relation(8, seed=37)


@pytest.fixture
def cluster(employees, departments):
    cluster = Cluster(4)
    cluster.create_table("emp", employees, "dept")
    cluster.create_table("dept", departments, "dept")
    return cluster


class TestPartitioning:
    def test_partitions_cover_the_relation(self, cluster, employees):
        total = sum(
            node.partition("emp").cardinality() for node in cluster.nodes
        )
        assert total == employees.cardinality()

    def test_partitions_are_disjoint(self, cluster):
        seen = set()
        for node in cluster.nodes:
            for row in node.partition("emp").iter_dicts():
                key = tuple(sorted(row.items()))
                assert key not in seen
                seen.add(key)

    def test_placement_follows_the_partition_attribute(self, cluster):
        for node_index, node in enumerate(cluster.nodes):
            for row in node.partition("emp").iter_dicts():
                assert row["dept"] % len(cluster.nodes) == node_index

    def test_co_location(self, cluster):
        # emp and dept are both partitioned on dept: every emp row's
        # department lives on the same node.
        for node in cluster.nodes:
            local_depts = {
                row["dept"] for row in node.partition("dept").iter_dicts()
            }
            for row in node.partition("emp").iter_dicts():
                assert row["dept"] in local_depts

    def test_unknown_table(self, cluster):
        with pytest.raises(SchemaError):
            cluster.execute(Scan("ghost"))

    def test_bad_partition_attribute(self, employees):
        cluster = Cluster(2)
        with pytest.raises(SchemaError):
            cluster.create_table("emp", employees, "nope")

    def test_cluster_size_validation(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestDistributedReads:
    def test_scan_equals_original(self, cluster, employees):
        assert cluster.execute(Scan("emp")) == employees

    def test_routed_selection_is_single_message(self, cluster, employees):
        cluster.network.reset()
        result = cluster.execute(Restrict(Scan("emp"),
                                          (Comparison("dept", "=", 5),)))
        assert cluster.network.messages == 1
        assert result == algebra.restrict(employees,
                                          (Comparison("dept", "=", 5),))

    def test_broadcast_selection_touches_every_node(self, cluster, employees):
        cluster.network.reset()
        result = cluster.execute(Restrict(Scan("emp"),
                                          (Comparison("salary", "=", 50000),)))
        assert cluster.network.messages == len(cluster.nodes)
        assert result == algebra.restrict(employees,
                                          (Comparison("salary", "=", 50000),))

    def test_routed_ships_fewer_bytes_than_scan(self, cluster):
        cluster.network.reset()
        cluster.execute(Restrict(Scan("emp"), (Comparison("dept", "=", 5),)))
        routed_bytes = cluster.network.bytes_shipped
        cluster.network.reset()
        cluster.execute(Scan("emp"))
        assert routed_bytes < cluster.network.bytes_shipped


    def test_equal_values_route_alike(self):
        # True == 1 == 1.0 in the kernel, so they hash to one bucket:
        # a routed selection and a re-keyed join side find their rows.
        from repro.relational.relation import Relation

        flags = Relation.from_tuples(["b"], [(True,), (2.0,), (0,)])
        names = Relation.from_tuples(
            ["b", "c"], [(1, "one"), (2, "two"), (False, "zero")]
        )
        cluster = Cluster(2)
        cluster.create_table("flags", flags, "b")
        cluster.create_table("names", names, "c")
        assert cluster.execute(Join(Scan("flags"), Scan("names"))) == \
            algebra.join(flags, names)
        assert cluster.last_query_span.attrs["strategy"] == "shuffle"
        for twin in (1, 1.0, True):
            assert cluster.execute(Restrict(Scan("flags"),
                    (Comparison("b", "=", twin),))) == \
                algebra.restrict(flags, (Comparison("b", "=", twin),))
            assert cluster.last_query_span.attrs["routing"] == "routed"


class TestDistributedJoin:
    def test_copartitioned_join_is_correct(self, cluster, employees,
                                           departments):
        assert cluster.execute(Join(Scan("emp"), Scan("dept"))) == \
            algebra.join(employees, departments)

    def test_copartitioned_join_ships_no_input_rows(self, cluster):
        cluster.network.reset()
        cluster.execute(Join(Scan("emp"), Scan("dept")))
        # Only result partials travel: one message per node.
        assert cluster.network.messages == len(cluster.nodes)

    def test_shuffled_join_is_correct(self, employees, departments):
        cluster = Cluster(3)
        cluster.create_table("emp", employees, "dept")
        # Partition dept on dname: NOT co-partitioned with emp.
        cluster.create_table("dept", departments, "dname")
        assert cluster.execute(Join(Scan("emp"), Scan("dept"))) == \
            algebra.join(employees, departments)

    def test_shuffle_ships_more_than_copartitioned(self, employees,
                                                   departments):
        co = Cluster(3)
        co.create_table("emp", employees, "dept")
        co.create_table("dept", departments, "dept")
        co.execute(Join(Scan("emp"), Scan("dept")))

        shuffled = Cluster(3)
        shuffled.create_table("emp", employees, "dept")
        shuffled.create_table("dept", departments, "dname")
        shuffled.execute(Join(Scan("emp"), Scan("dept")))

        assert shuffled.network.messages > co.network.messages

    def test_join_without_shared_attribute(self, cluster, employees,
                                           departments):
        other = algebra.rename(departments, {"dept": "zzz", "dname": "yyy",
                                             "budget": "xxx"})
        cluster.create_table("other", other, "zzz")
        # A product, as heading_of says and on every other backend.
        assert cluster.execute(Join(Scan("emp"), Scan("other"))) == \
            algebra.product(employees, other)

    def test_a_gathered_side_ships_the_cheaper_way(self, cluster, employees,
                                                    departments):
        """By the time a join's result meets a third table it is at the
        coordinator.  It goes out to the third table's buckets (priced
        per bucket, like a broadcast) or the buckets' rows come in,
        whichever moves fewer rows -- never more than the cheaper."""
        from repro.relational.relation import Relation

        buckets = len(cluster.nodes)
        floors = Relation.from_dicts(["dept", "floor"], [
            {"dept": d, "floor": d % 3} for d in range(8)
        ])
        badges = Relation.from_dicts(["emp", "badge"], [
            {"emp": e, "badge": 1000 + e} for e in range(160)
        ])
        cluster.create_table("floors", floors, "floor")
        cluster.create_table("badges", badges, "badge")
        one = Join(Restrict(Scan("emp"),
                            (Comparison("emp", "=", 7),)), Scan("dept"))
        everyone = Join(Scan("emp"), Scan("dept"))
        for gathered, third, strategy in (
            (one, "badges", "broadcast"),    # 1 row x 4 buckets < 160
            (everyone, "floors", "gather"),  # 8 rows < 160 rows x 4
        ):
            relation = cluster.manager.table(third).snapshot()
            here = cluster.execute(gathered)
            options = {
                "broadcast": here.cardinality() * buckets,
                "gather": relation.cardinality(),
            }
            for plan in (Join(gathered, Scan(third)),
                         Join(Scan(third), gathered)):
                cluster.network.reset()
                assert cluster.execute(plan) == algebra.join(here, relation)
                root = cluster.last_query_span
                assert root.attrs["strategy"] == strategy
                assert options[strategy] == min(options.values())
                # The first join answers in one message per bucket;
                # then the rows of the chosen side move, and a
                # broadcast's hosts send their results back.
                moved = cluster.network.messages - buckets
                if strategy == "broadcast":
                    assert moved == 2 * buckets
                    continue
                assert moved == buckets
                assert options["gather"] == sum(
                    span.attrs["rows"] for span in root.children
                    if span.attrs["table"] == third
                )

    def test_join_off_the_partition_attribute_is_answered(
        self, employees, departments
    ):
        cluster = Cluster(2)
        # emp partitioned on salary, which is not a join attribute:
        # nothing can re-key onto it, so the small side broadcasts.
        cluster.create_table("emp", employees, "salary")
        cluster.create_table("dept", departments, "dept")
        assert cluster.execute(Join(Scan("emp"), Scan("dept"))) == \
            algebra.join(employees, departments)
        assert cluster.last_query_span.attrs["strategy"] == "broadcast"


    def test_join_sides_are_sized_off_the_committed_value(
        self, employees, departments
    ):
        """A side's estimate is its table's committed relation shrunk
        by each pushed equality's run in the member index -- exact, and
        moved by every commit."""
        cluster = Cluster(2)
        cluster.create_table("emp", employees, "salary")
        cluster.create_table("dept", departments, "dname")
        plan = Join(Restrict(Scan("emp"),
                             (Comparison("dept", "=", 2),)), Scan("dept"))
        for extra in (0, 7):
            cluster.insert("emp", [
                {"emp": 1000 + extra + n, "name": "new", "dept": 2,
                 "salary": n}
                for n in range(extra)
            ])
            committed = cluster.manager.committed()
            assert cluster.execute(plan) == committed.execute(plan)
            root = cluster.last_query_span
            assert root.attrs["est_left_rows"] == len(algebra.restrict(
                committed.relation("emp"), (Comparison("dept", "=", 2),)
            ))
            assert root.attrs["est_right_rows"] == len(departments)

class TestDistributedAggregation:
    def test_count_and_sum_match_local(self, cluster, employees):
        distributed = cluster.execute(Aggregate(
            Scan("emp"), ["dept"],
            {"n": ("count", "emp"), "pay": ("sum", "salary")},
        ))
        local = local_aggregate(
            employees, ["dept"],
            {"n": ("count", "emp"), "pay": ("sum", "salary")},
        )
        assert distributed == local

    def test_min_max_match_local(self, cluster, employees):
        distributed = cluster.execute(Aggregate(
            Scan("emp"), ["dept"],
            {"low": ("min", "salary"), "high": ("max", "salary")},
        ))
        local = local_aggregate(
            employees, ["dept"],
            {"low": ("min", "salary"), "high": ("max", "salary")},
        )
        assert distributed == local

    def test_avg_is_rewritten_and_matches(self, cluster, employees):
        distributed = cluster.execute(Aggregate(
            Scan("emp"), ["dept"], {"mean": ("avg", "salary")}
        ))
        local = local_aggregate(
            employees, ["dept"], {"mean": ("avg", "salary")}
        )
        assert distributed == local

    def test_aggregation_ships_summaries_not_rows(self, cluster):
        cluster.network.reset()
        cluster.execute(
            Aggregate(Scan("emp"), ["dept"], {"n": ("count", "emp")})
        )
        summary_bytes = cluster.network.bytes_shipped
        cluster.network.reset()
        cluster.execute(Scan("emp"))
        assert summary_bytes < cluster.network.bytes_shipped

    def test_set_of_gathers_and_equals_the_local_answer(
        self, cluster, employees
    ):
        spec = {"s": ("set_of", "salary"), "n": ("count", "emp")}
        cluster.network.reset()
        cluster.execute(Scan("emp"))
        scan_bytes = cluster.network.bytes_shipped
        cluster.network.reset()
        assert cluster.execute(Aggregate(Scan("emp"), ["dept"], spec)) == \
            local_aggregate(employees, ["dept"], spec)
        # No summary combines a set_of: the rows ship, then aggregate.
        assert cluster.network.bytes_shipped == scan_bytes

    def test_an_aggregate_under_a_routed_selection_reads_one_bucket(
        self, cluster, employees
    ):
        spec = {"n": ("count", "emp"), "mean": ("avg", "salary")}
        plan = Aggregate(Restrict(Scan("emp"),
                (Comparison("dept", "=", 3),)), ["dept"], spec)
        assert cluster.execute(plan) == local_aggregate(
            algebra.restrict(employees,
                             (Comparison("dept", "=", 3),)), ["dept"], spec
        )
        span = cluster.last_query_span
        assert span.attrs["routing"] == "routed"
        assert len(span.children) == 1

    def test_an_ungrouped_aggregate_over_no_rows_is_the_local_answer(
        self, cluster, employees
    ):
        nobody = Restrict(Scan("emp"), (Comparison("salary", "=", -1),))
        spec = {"n": ("count", "emp"), "pay": ("sum", "salary")}
        assert cluster.execute(Aggregate(nobody, [], spec)) == \
            local_aggregate(
                algebra.restrict(employees,
                                 (Comparison("salary", "=", -1),)), [], spec
            )
        with pytest.raises(SchemaError, match="empty group"):
            cluster.execute(Aggregate(nobody, [], {"m": ("min", "salary")}))

    def test_summaries_add_only_over_disjoint_buckets(self):
        """A projection that drops the partition attribute dedups
        within a bucket, not across them: the same projected row
        survives in two buckets, so counts and sums gather first."""
        r = Relation.from_dicts(
            ("a", "b"), [{"a": 1, "b": 5}, {"a": 2, "b": 5}, {"a": 3, "b": 7}]
        )
        db = Database({"r": r})
        cluster = Cluster(2)
        cluster.create_table("r", r, "a")
        spec = {"n": ("count", "b"), "t": ("sum", "b"), "m": ("avg", "b"),
                "lo": ("min", "b"), "hi": ("max", "b")}
        dropped = Project(Scan("r"), ["b"])
        for plan in (
            Aggregate(dropped, [], spec),
            Aggregate(dropped, ["b"], spec),
            Aggregate(Rename(dropped, {"b": "c"}), [], {"n": ("count", "c")}),
            # Pinned to one bucket, and idempotent folds: still pushed.
            Aggregate(Project(Restrict(Scan("r"),
                    (Comparison("a", "=", 1),)), ["b"]), [], spec),
            Aggregate(dropped, [], {"lo": ("min", "b"), "hi": ("max", "b")}),
        ):
            assert cluster.execute(plan) == db.execute(plan)
        assert list(db.execute(Aggregate(dropped, [], spec)).iter_dicts()) \
            == [{"n": 2, "t": 12, "m": 6.0, "lo": 5, "hi": 7}]

    def test_an_aggregate_degrades_like_any_other_read(self, employees):
        """Under ``execute`` an aggregate gets the missing-bucket
        manifest and the quorum rule with no code of its own."""
        plan = Aggregate(Scan("emp"), ["dept"], {"n": ("count", "emp")})
        cluster = Cluster(4)
        cluster.create_table("emp", employees, "dept")
        cluster.kill_node("node-1")
        with pytest.raises(ClusterUnavailableError):
            cluster.execute(plan)
        answer = cluster.execute(plan, allow_partial=True)
        assert answer.partial
        lost = {gap.bucket for gap in answer.missing}
        placement = cluster.shard_map("emp")
        reachable = algebra.select(
            employees,
            lambda row: placement.bucket_for(row["dept"]) not in lost,
        )
        assert answer.relation == local_aggregate(
            reachable, ["dept"], {"n": ("count", "emp")}
        )
        replicated = Cluster(4, replication_factor=2)
        replicated.create_table("emp", employees, "dept")
        replicated.kill_node("node-1")
        with pytest.raises(ClusterUnavailableError, match="read quorum"):
            replicated.execute(plan, read_quorum=2)
        served = replicated.execute(plan, allow_partial=True, read_quorum=2)
        assert served.quorum_downgraded and not served.partial
        assert served.relation == local_aggregate(
            employees, ["dept"], {"n": ("count", "emp")}
        )


class TestNetworkStats:
    def test_counters(self):
        from repro.xst.builders import xset

        stats = NetworkStats()
        stats.ship(xset([1, 2, 3]))
        assert stats.messages == 1
        assert stats.bytes_shipped > 0
        stats.reset()
        assert stats.messages == 0 and stats.bytes_shipped == 0

    def test_repr(self, cluster):
        assert "messages" in repr(cluster.network)
        assert "node-0" in repr(cluster.nodes[0])
        assert "Cluster" in repr(cluster)


class TestBucketStats:
    def test_bucket_stats_equal_the_committed_restrictions(self, cluster):
        def restrictions():
            committed = cluster.manager.committed().relation("emp")
            placement = cluster.shard_map("emp")
            counts = dict.fromkeys(range(placement.bucket_count), 0)
            for row in committed.iter_dicts():
                counts[placement.bucket_for(row["dept"])] += 1
            return counts

        emp = cluster.manager.table("emp")
        cluster.insert("emp", [
            {"emp": 900 + i, "name": "new-%d" % i, "dept": i % 8,
             "salary": 1000}
            for i in range(5)
        ])
        assert cluster.bucket_stats("emp") == restrictions()
        assert emp.delete({"dept": 3}) > 0
        assert cluster.bucket_stats("emp") == restrictions()
        # An update that moves a row across buckets.
        assert emp.update({"emp": 1}, {"dept": 5}) == 1
        counts = cluster.bucket_stats("emp")
        assert counts == restrictions()
        assert sum(counts.values()) == len(emp)

    def test_gather_visits_buckets_in_index_order(self, cluster):
        cluster.execute(Scan("emp"))
        assert [
            span.attrs["bucket"] for span in cluster.last_query_span.children
        ] == [0, 1, 2, 3]


class TestCoordinatorReadsTheCommittedCatalog:
    def test_a_cache_hit_is_a_lookup(self, employees, departments,
                                     monkeypatch):
        from repro.relational import query, tx
        from repro.relational.constraints import Table
        from repro.relational.ivm import QueryResultCache

        cache = QueryResultCache(capacity=8, name="cluster")
        cluster = Cluster(4, result_cache=cache)
        cluster.create_table("emp", employees, "dept")
        cluster.create_table("dept", departments, "dept")
        plan = Join(Scan("emp"), Scan("dept"))
        first = cluster.execute(plan)
        counts = {"Database": 0, "Table.snapshot": 0, "Snapshot": 0}

        def counting(key, wrapped):
            def shim(*args, **kwargs):
                counts[key] += 1
                return wrapped(*args, **kwargs)
            return shim

        monkeypatch.setattr(query.Database, "__init__", counting(
            "Database", query.Database.__init__))
        monkeypatch.setattr(Table, "snapshot", counting(
            "Table.snapshot", Table.snapshot))
        monkeypatch.setattr(tx.Snapshot, "__init__", counting(
            "Snapshot", tx.Snapshot.__init__))
        ops = cluster.ops
        assert cluster.execute(plan) is first
        assert (cache.hits, cluster.ops) == (1, ops)
        assert counts == {"Database": 0, "Table.snapshot": 0, "Snapshot": 0}

    def test_headings_and_fingerprints_come_from_committed(self, cluster):
        manager = cluster.manager
        assert cluster.result_cache is None
        with manager.transaction():
            manager.table("dept").insert_many(
                [{"dept": 99, "dname": "new", "budget": 1}]
            )
            # Replicas hold committed rows; so does what execute reads.
            assert cluster.execute(Scan("dept")) == \
                manager.committed().relation("dept")
        assert cluster.execute(Scan("dept")) == \
            manager.table("dept").snapshot()


class TestTracePropagation:
    def test_query_roots_get_sequential_trace_ids(self, cluster):
        cluster.execute(Scan("emp"))
        cluster.execute(Restrict(Scan("emp"), (Comparison("dept", "=", 3),)))
        cluster.execute(
            Aggregate(Scan("emp"), ["dept"], {"n": ("count", "emp")})
        )
        roots = [
            root for root in cluster.tracer.roots() if "kind" in root.attrs
        ]
        assert [root.attrs["trace_id"] for root in roots] == [
            "t-000001", "t-000002", "t-000003"
        ]

    def test_bucket_spans_inherit_the_coordinator_trace(self, cluster):
        cluster.execute(Restrict(Scan("emp"), (Comparison("dept", "=", 3),)))
        root = cluster.last_query_span
        buckets = [
            span for span in root.tree() if "bucket" in span.attrs
        ]
        assert buckets
        for span in buckets:
            assert span.attrs["trace_id"] == root.attrs["trace_id"]
            # Structural parent == causal parent: no redundant link.
            assert "link_parent" not in span.attrs

    def test_bucket_spans_record_the_failover_ring(self, cluster):
        cluster.execute(Scan("emp"))
        for span in cluster.last_query_span.tree():
            if "bucket" in span.attrs:
                assert span.attrs["ring"] == str(span.attrs["bucket"])

    def test_replicated_rings_list_failover_order(self):
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(
            "emp", employee_relation(80, 4, seed=37), "dept"
        )
        cluster.execute(Scan("emp"))
        rings = {
            span.attrs["bucket"]: span.attrs["ring"]
            for span in cluster.last_query_span.tree()
            if "bucket" in span.attrs
        }
        assert rings == {0: "0>1", 1: "1>2", 2: "2>3", 3: "3>0"}

    def test_an_explicit_context_is_honoured(self, cluster):
        from repro.obs.trace import TraceContext

        context = TraceContext(
            "t-caller-01", baggage={"priority": "batch"}
        )
        cluster.execute(Scan("emp"), trace=context)
        root = cluster.last_query_span
        assert root.attrs["trace_id"] == "t-caller-01"
        assert root.attrs["bag_priority"] == "batch"

    def test_latency_exemplars_link_buckets_to_traces(self, cluster):
        from repro.obs import instrument
        from repro.obs.metrics import registry

        previous = instrument.set_enabled(True)
        registry().reset()
        try:
            cluster.execute(Scan("emp"))
            cluster.execute(Join(Scan("emp"), Scan("dept")))
            histogram = registry().histogram(
                "repro_cluster_query_seconds",
                "Distributed query wall time.", ("query",),
            )
            scans = histogram.exemplars(query="execute")
            joins = histogram.exemplars(query="execute_join")
            assert list(scans.values()) == ["t-000001"]
            assert list(joins.values()) == ["t-000002"]
        finally:
            instrument.set_enabled(previous)
            registry().reset()
