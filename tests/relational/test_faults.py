"""The deterministic fault-injection harness."""

import pytest

from repro.errors import (
    ClusterUnavailableError,
    DeadlineExceededError,
    SchemaError,
)
from repro.gov import Deadline, governed
from repro.relational import algebra
from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster
from repro.relational.faults import (
    NO_FAULTS,
    FaultInjector,
    FaultPlan,
    NodeDownError,
    ShipmentCorruptedError,
    ShipmentLostError,
)
from repro.relational.query import Aggregate, Restrict, Scan
from repro.workloads.generators import employee_relation


@pytest.fixture
def employees():
    return employee_relation(120, 8, seed=11)


def replicated_cluster(employees, **kwargs):
    cluster = Cluster(4, replication_factor=2, **kwargs)
    cluster.create_table("emp", employees, "dept")
    return cluster


class TestFaultPlan:
    def test_events_sort_by_operation(self):
        plan = (
            FaultPlan()
            .drop_shipment(9)
            .kill("node-1", at_op=3)
            .revive("node-1", at_op=7)
        )
        assert [event[0] for event in plan.events()] == [3, 7, 9]
        assert len(plan) == 3

    def test_negative_operation_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().kill("node-0", at_op=-1)

    def test_chaos_is_deterministic(self):
        names = ["node-0", "node-1", "node-2"]
        one = FaultPlan.chaos(42, names, horizon=50).events()
        two = FaultPlan.chaos(42, names, horizon=50).events()
        assert one == two
        assert FaultPlan.chaos(43, names, horizon=50).events() != one

    def test_chaos_pairs_every_kill_with_a_revive(self):
        plan = FaultPlan.chaos(7, ["node-0", "node-1"], kills=3)
        events = plan.events()
        kills = [e for e in events if e[1] == "kill"]
        revives = [e for e in events if e[1] == "revive"]
        assert len(kills) == len(revives) == 3
        for kill, revive in zip(sorted(kills), sorted(revives)):
            assert revive[0] > kill[0]

    def test_repr(self):
        assert "2 events" in repr(FaultPlan().kill("a").revive("a"))


class TestInjectorMechanics:
    def test_kill_fires_at_its_operation(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().kill("node-0", at_op=1))
        assert cluster.nodes[0].alive  # not yet: no operation has run
        cluster.execute(Scan("emp"))
        assert not cluster.nodes[0].alive

    def test_revive_restores_the_node(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(
            FaultPlan().kill("node-0", at_op=1).revive("node-0", at_op=6)
        )
        cluster.execute(Scan("emp"))
        assert cluster.nodes[0].alive

    def test_unknown_node_name_fails_loudly(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().kill("node-99", at_op=1))
        with pytest.raises(SchemaError, match="no node named"):
            cluster.execute(Scan("emp"))

    def test_clear_faults(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().kill("node-0", at_op=1))
        cluster.clear_faults()
        assert cluster.faults is NO_FAULTS
        cluster.execute(Scan("emp"))
        assert cluster.nodes[0].alive

    def test_dead_node_raises_node_down(self, employees):
        cluster = replicated_cluster(employees)
        cluster.kill_node("node-0")
        with pytest.raises(NodeDownError):
            cluster.nodes[0].bucket("emp", 0)

    def test_injector_repr(self):
        injector = FaultInjector(FaultPlan().drop_shipment(3))
        assert "pending=1" in repr(injector)


class TestTransientFaults:
    def test_dropped_shipment_is_retried_and_answers_match(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().drop_shipment(2))
        assert cluster.execute(Scan("emp")) == employees
        assert cluster.network.retries == 1
        assert cluster.network.backoff_s > 0

    def test_corrupted_shipment_is_detected_and_retried(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().corrupt_shipment(2))
        assert cluster.execute(Scan("emp")) == employees
        assert cluster.network.retries == 1

    def test_persistent_drops_exhaust_retries_then_fail_over(self, employees):
        # Two queued drops eat both shipment attempts on the primary
        # of bucket 0 (max_attempts=2); the read fails over and the
        # replica answers correctly.
        cluster = replicated_cluster(employees, max_attempts=2)
        cluster.install_faults(
            FaultPlan().drop_shipment(1).drop_shipment(2)
        )
        result = cluster.execute(Restrict(Scan("emp"),
                                          (Comparison("dept", "=", 0),)))
        assert result == algebra.restrict(employees,
                                          (Comparison("dept", "=", 0),))
        assert cluster.network.failovers == 1
        assert cluster.network.retries == 1

    def test_enough_drops_exhaust_the_whole_ring(self, employees):
        # Four queued drops cover every attempt on both replicas of
        # bucket 0: the query must fail typed, not answer wrongly.
        cluster = replicated_cluster(employees, max_attempts=2)
        plan = FaultPlan()
        for op in range(1, 5):
            plan.drop_shipment(op)
        cluster.install_faults(plan)
        with pytest.raises(ClusterUnavailableError):
            cluster.execute(Restrict(Scan("emp"),
                                     (Comparison("dept", "=", 0),)))

    def test_delay_is_charged_to_stats(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().delay("node-2", 0.25, at_op=1))
        cluster.execute(Scan("emp"))
        assert cluster.network.delay_s == pytest.approx(0.25)

    def test_delay_can_be_cleared(self, employees):
        # A scan ticks twice per bucket (access + ship): 8 operations.
        # The delay lands before scan 1 reads node-2 and clears before
        # scan 2 does, so exactly one 0.25s charge accrues.
        cluster = replicated_cluster(employees)
        cluster.install_faults(
            FaultPlan()
            .delay("node-2", 0.25, at_op=1)
            .delay("node-2", 0.0, at_op=9)
        )
        cluster.execute(Scan("emp"))
        cluster.execute(Scan("emp"))
        assert cluster.network.delay_s == pytest.approx(0.25)

    def test_corruption_error_is_a_lost_shipment(self):
        assert issubclass(ShipmentCorruptedError, ShipmentLostError)


class TestQueryTimeout:
    def test_slow_node_times_out(self, employees):
        # The ambient deadline is the query's one time budget: the
        # typed failure is DeadlineExceededError (an UnavailableError).
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().delay("node-0", 0.4, at_op=1))
        with governed(deadline=Deadline.simulated(0.25)):
            with pytest.raises(DeadlineExceededError,
                               match="deadline exceeded"):
                cluster.execute(Scan("emp"))

    def test_budget_under_the_limit_passes(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().delay("node-0", 0.4, at_op=1))
        with governed(deadline=Deadline.simulated(10.0)):
            assert cluster.execute(Scan("emp")) == employees

    def test_timeout_is_per_query(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().delay("node-0", 0.4, at_op=1))
        # Each routed read charges 0.4s once, to a scope of its own:
        # under budget every time.
        for _ in range(5):
            with governed(deadline=Deadline.simulated(0.5)):
                result = cluster.execute(Restrict(Scan("emp"),
                        (Comparison("dept", "=", 0),)))
            assert result == algebra.restrict(employees,
                                              (Comparison("dept", "=", 0),))

    def test_one_scope_spans_every_read_in_it(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().delay("node-0", 0.4, at_op=1))
        plan = Restrict(Scan("emp"), (Comparison("dept", "=", 0),))
        # Each read fits 0.5s alone; the second overdraws the shared one.
        with governed(deadline=Deadline.simulated(0.5)):
            assert cluster.execute(plan) == \
                algebra.restrict(employees, (Comparison("dept", "=", 0),))
            with pytest.raises(DeadlineExceededError,
                               match="deadline exceeded"):
                cluster.execute(plan)

    def test_without_a_scope_a_read_has_no_deadline(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().delay("node-0", 3600.0, at_op=1))
        assert cluster.execute(Scan("emp")) == employees
        assert cluster.network.delay_s >= 3600.0


class TestCrashDuringWrites:
    """Crash events fire on *write* ticks; everything else is held."""

    ROW = {"emp": 900, "name": "late", "dept": 0, "salary": 1}

    def test_crash_fires_mid_write_fanout(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().crash("node-0", at_op=1))
        assert cluster.nodes[0].alive
        cluster.insert("emp", [self.ROW])  # write ticks only
        assert not cluster.nodes[0].alive

    def test_kill_is_held_until_a_read_tick(self, employees):
        # Ordinary PR-1 events keep their read-path timing: a kill
        # scheduled at op 1 must NOT fire during a write fan-out.
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().kill("node-0", at_op=1))
        cluster.insert("emp", [self.ROW])
        assert cluster.nodes[0].alive  # held through the write ticks
        cluster.execute(Scan("emp"))
        assert not cluster.nodes[0].alive

    def test_crashed_replica_lags_until_its_rebuild(self, employees):
        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan().crash("node-0", at_op=1))
        cluster.insert("emp", [self.ROW])
        cluster.clear_faults()
        assert cluster.status()["version"] == 1
        node = cluster.nodes[0]

        def lagging():
            truth = cluster._partitioned("emp")
            return [
                bucket for bucket in node.buckets_held("emp")
                if node.stored("emp", bucket) != truth[bucket]
            ]

        assert lagging()
        cluster.revive_node("node-0")
        assert not lagging()

    def test_chaos_crash_run_still_matches_the_oracle(self, employees):
        from repro.relational.relation import Relation

        cluster = replicated_cluster(employees)
        cluster.install_faults(FaultPlan.chaos(
            21, [n.name for n in cluster.nodes], horizon=30,
            kills=0, drops=0, corruptions=0, crashes=1,
        ))
        extra = [
            {"emp": 900 + i, "name": "x%d" % i, "dept": i % 8, "salary": i}
            for i in range(6)
        ]
        cluster.insert("emp", extra)
        for _ in range(15):  # enough read ticks to exhaust the plan
            cluster.execute(Scan("emp"))
        expected = Relation.from_dicts(
            ["emp", "name", "dept", "salary"],
            list(employees.iter_dicts()) + extra,
        )
        assert cluster.execute(Scan("emp")) == expected


class TestCrashPlanBuilders:
    def test_chaos_crashes_extend_without_disturbing_the_base_stream(self):
        from collections import Counter

        names = ["node-0", "node-1"]
        base = FaultPlan.chaos(5, names, horizon=40).events()
        extended = FaultPlan.chaos(5, names, horizon=40, crashes=2).events()
        # crashes=0 is the default: byte-identical schedule...
        assert FaultPlan.chaos(5, names, horizon=40, crashes=0).events() == base
        # ...and crash draws come after the base draws, so the base
        # events all survive verbatim; the extras are 2 crash/revive
        # pairs.
        extra = Counter(extended) - Counter(base)
        assert not Counter(base) - Counter(extended)
        kinds = sorted(kind for _, kind, _, _ in extra.elements())
        assert kinds == ["crash", "crash", "revive", "revive"]

    def test_crash_sweep_is_deterministic_and_bounded(self):
        one = [p.after_bytes
               for p in FaultPlan.crash_sweep(9, 1000, points=6).crash_points()]
        two = [p.after_bytes
               for p in FaultPlan.crash_sweep(9, 1000, points=6).crash_points()]
        assert one == two
        assert len(one) == 6
        assert all(0 <= budget <= 1000 for budget in one)


class TestDeterminism:
    def run_history(self, employees, seed):
        cluster = replicated_cluster(employees)
        cluster.install_faults(
            FaultPlan.chaos(seed, [n.name for n in cluster.nodes],
                            horizon=30, kills=1, drops=2, corruptions=1)
        )
        results = [
            cluster.execute(Scan("emp")),
            cluster.execute(Restrict(Scan("emp"),
                                     (Comparison("dept", "=", 3),))),
            cluster.execute(
                Aggregate(Scan("emp"), ["dept"], {"n": ("count", "emp")})
            ),
        ]
        stats = cluster.network
        return results, (stats.messages, stats.bytes_shipped, stats.retries,
                         stats.failovers, stats.backoff_s)

    def test_same_seed_same_history(self, employees):
        first_results, first_stats = self.run_history(employees, seed=99)
        second_results, second_stats = self.run_history(employees, seed=99)
        assert first_results == second_results
        assert first_stats == second_stats

    def test_faulty_run_still_matches_oracle(self, employees):
        results, _ = self.run_history(employees, seed=99)
        assert results[0] == employees
        assert results[1] == algebra.restrict(employees,
                                              (Comparison("dept", "=", 3),))


class TestProfileTrace:
    def test_failover_shows_in_the_profile(self, employees):
        from repro.relational.profile import profile_cluster

        cluster = replicated_cluster(employees)
        cluster.kill_node("node-1")
        result, profile = profile_cluster(cluster, "execute", Scan("emp"))
        assert result == employees
        rendered = profile.render()
        assert "execute(emp [*])" in rendered
        # Bucket 1's primary is dead: its replica node-2 served it.
        assert "emp[1] @ node-2" in rendered

    def test_profile_of_routed_select(self, employees):
        from repro.relational.profile import profile_cluster

        cluster = replicated_cluster(employees)
        result, profile = profile_cluster(
            cluster, "execute", Restrict(Scan("emp"),
                                         (Comparison("dept", "=", 5),))
        )
        assert result.cardinality() == profile.rows
        assert len(profile.children) == 1
