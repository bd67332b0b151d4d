"""Digests and the slow-query log: one record per query, bounded retention."""

import io
import json

import pytest

from repro.obs.digest import (
    QueryDigest,
    add_digest_sink,
    build_digest,
    plan_hash,
    record_digest,
    remove_digest_sink,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import FakeClock, Tracer


def make_digest(
    wall_s=0.001,
    status="ok",
    hash_value="cafe0001",
    describe="Scan(emp)",
):
    node = {"describe": describe, "depth": 0, "rows": 5}
    return QueryDigest(
        describe, hash_value, [node], "row", {}, wall_s, status=status
    )


class TestPlanHash:
    def test_stable_and_hex(self):
        assert plan_hash("Scan(emp)") == plan_hash("Scan(emp)")
        assert len(plan_hash("Scan(emp)")) == 8
        int(plan_hash("Scan(emp)"), 16)  # must be hexadecimal

    def test_distinct_plans_differ(self):
        assert plan_hash("Scan(emp)") != plan_hash("Scan(dept)")


class TestBuildDigest:
    def build_tree(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start("execute: Join", node="Join")
        scan = tracer.start("Scan(emp)", node="Scan")
        scan.set("backend", "columnar")
        scan.set("rows", 60)
        scan.set("trace_id", "t-1")
        tracer.advance(0.25)
        tracer.end(scan)
        root.set("rows", 20)
        tracer.advance(0.05)
        tracer.end(root)
        return root

    def test_nodes_are_preorder_with_depths(self):
        digest = build_digest(self.build_tree(), "aa00bb11")
        assert [node["describe"] for node in digest.nodes] == [
            "execute: Join", "Scan(emp)"
        ]
        assert [node["depth"] for node in digest.nodes] == [0, 1]

    def test_node_records_copy_only_the_digest_attributes(self):
        digest = build_digest(self.build_tree(), "aa00bb11")
        assert digest.nodes[1] == {
            "describe": "Scan(emp)", "depth": 1, "rows": 60,
            "node": "Scan", "backend": "columnar",
        }

    def test_estimate_attributes_stay_in_the_trace(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start("SelectEq", node="SelectEq")
        for attr, value in (("est_rows", 12.0), ("q_error", 2.0),
                            ("relation", "emp"), ("conditions", "dept")):
            root.set(attr, value)
        root.set("rows", 6)
        tracer.end(root)
        assert build_digest(root, "aa00bb11").nodes == [
            {"describe": "SelectEq", "depth": 0, "rows": 6,
             "node": "SelectEq"}
        ]

    def test_one_columnar_node_promotes_the_backend(self):
        digest = build_digest(self.build_tree(), "aa00bb11")
        assert digest.backend == "columnar"

    def test_all_row_nodes_stay_row(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start("Scan(emp)", node="Scan")
        root.set("rows", 3)
        tracer.end(root)
        assert build_digest(root, "aa00bb11").backend == "row"

    def test_wall_time_is_the_simulated_duration(self):
        digest = build_digest(self.build_tree(), "aa00bb11")
        assert digest.wall_s == pytest.approx(0.30)

    def test_rows_come_from_the_root(self):
        assert build_digest(self.build_tree(), "aa00bb11").rows == 20


class TestRoundTrip:
    def test_to_dict_from_dict(self):
        digest = make_digest(wall_s=0.2, status="DEADLINE_EXCEEDED")
        digest.trace_id = "t-000007"
        clone = QueryDigest.from_dict(
            json.loads(json.dumps(digest.to_dict()))
        )
        assert clone.to_dict() == digest.to_dict()
        assert clone.trace_id == "t-000007"

    def test_an_older_record_with_a_q_error_still_reads(self):
        record = make_digest().to_dict()
        record["max_q_error"] = 4.0
        record["nodes"][0].update(est_rows=20.0, actual_rows=5)
        clone = QueryDigest.from_dict(record)
        assert "max_q_error" not in clone.to_dict()
        assert clone.plan_hash == "cafe0001"
        assert clone.rows == 0

    def test_repr_names_hash_status_and_node_count(self):
        assert repr(make_digest(status="SHED")) == \
            "QueryDigest(cafe0001, SHED, 1 nodes)"

    def test_to_dict_is_json_serializable(self):
        json.dumps(make_digest().to_dict(), sort_keys=True)


class TestSinks:
    def test_record_fans_out_and_remove_stops(self):
        seen = []
        add_digest_sink(seen.append)
        try:
            record_digest(make_digest())
            assert len(seen) == 1
        finally:
            remove_digest_sink(seen.append)
        record_digest(make_digest())
        assert len(seen) == 1

    def test_double_add_registers_once(self):
        seen = []
        add_digest_sink(seen.append)
        add_digest_sink(seen.append)
        try:
            record_digest(make_digest())
            assert len(seen) == 1
        finally:
            remove_digest_sink(seen.append)

    def test_remove_unknown_sink_is_a_no_op(self):
        remove_digest_sink(lambda digest: None)


class TestSlowQueryLog:
    def test_slow_entries_always_land(self):
        log = SlowQueryLog(threshold_s=0.05)
        log.record(make_digest(wall_s=0.06))
        log.record(make_digest(wall_s=0.01))
        assert len(log.slow()) == 1
        assert log.slow()[0].wall_s == 0.06

    def test_failed_queries_count_as_slow(self):
        log = SlowQueryLog(threshold_s=0.05)
        log.record(make_digest(wall_s=0.0, status="CLUSTER_UNAVAILABLE"))
        assert len(log.slow()) == 1

    def test_slow_capacity_evicts_oldest(self):
        log = SlowQueryLog(threshold_s=0.0, slow_capacity=2)
        for index in range(3):
            log.record(make_digest(wall_s=0.1, hash_value="%08x" % index))
        assert [digest.plan_hash for digest in log.slow()] == [
            "00000001", "00000002"
        ]

    def test_reservoir_is_bounded(self):
        log = SlowQueryLog(threshold_s=1.0, reservoir_size=4)
        for index in range(50):
            log.record(make_digest(wall_s=0.001, hash_value="%08x" % index))
        assert len(log.normals()) == 4
        assert log.stats()["seen"] == 50

    def test_reservoir_is_seed_deterministic(self):
        def fill(log):
            for index in range(200):
                log.record(make_digest(hash_value="%08x" % index))
            return [digest.plan_hash for digest in log.normals()]

        first = fill(SlowQueryLog(threshold_s=1.0, reservoir_size=8, seed=7))
        second = fill(SlowQueryLog(threshold_s=1.0, reservoir_size=8, seed=7))
        other = fill(SlowQueryLog(threshold_s=1.0, reservoir_size=8, seed=8))
        assert first == second
        assert first != other

    def test_reset_rewinds_the_sampling_stream(self):
        log = SlowQueryLog(threshold_s=1.0, reservoir_size=8, seed=7)

        def fill():
            for index in range(200):
                log.record(make_digest(hash_value="%08x" % index))
            return [digest.plan_hash for digest in log.normals()]

        first = fill()
        log.reset()
        assert log.stats()["seen"] == 0
        assert fill() == first

    def test_top_by_latency_breaks_ties_on_plan_hash(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.record(make_digest(wall_s=0.1, hash_value="bbbbbbbb"))
        log.record(make_digest(wall_s=0.1, hash_value="aaaaaaaa"))
        log.record(make_digest(wall_s=0.3, hash_value="cccccccc"))
        assert [digest.plan_hash for digest in log.top(3)] == [
            "cccccccc", "aaaaaaaa", "bbbbbbbb"
        ]

    def test_top_keeps_the_n_slowest(self):
        log = SlowQueryLog(threshold_s=0.0)
        for n in range(6):
            log.record(make_digest(wall_s=0.01 * n,
                                   hash_value="%08d" % n))
        assert [digest.plan_hash for digest in log.top(2)] == [
            "00000005", "00000004"
        ]
        assert len(log.top()) == 6

    def test_export_tags_slow_and_sampled_lines(self):
        log = SlowQueryLog(threshold_s=0.05)
        log.record(make_digest(wall_s=0.2))
        log.record(make_digest(wall_s=0.001))
        buffer = io.StringIO()
        assert log.export_jsonl(buffer) == 2
        kinds = [
            json.loads(line)["kind"]
            for line in buffer.getvalue().splitlines()
        ]
        assert kinds == ["slow", "sample"]

    def test_path_sink_appends_slow_lines(self, tmp_path):
        target = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_s=0.05, path=str(target))
        log.record(make_digest(wall_s=0.2))
        log.record(make_digest(wall_s=0.001))  # normal: not streamed
        lines = target.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["wall_s"] == 0.2

    def test_capacities_must_be_positive(self):
        with pytest.raises(ValueError):
            SlowQueryLog(slow_capacity=0)
        with pytest.raises(ValueError):
            SlowQueryLog(reservoir_size=0)
