"""Satellite: observability is deterministic under the fault harness.

Same workload seed + same :class:`FaultPlan` must produce the same
observable history: identical span tree *shapes* (names, structure,
and every attribute except raw serve times) and identical retry /
failover counts.  With a :class:`FakeClock` injected, even the span
durations are identical -- they are simulated seconds, not wall time.
"""

import os

import pytest

from repro.obs.trace import FakeClock
from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster
from repro.relational.faults import FaultPlan
from repro.relational.query import Aggregate, Restrict, Scan
from repro.workloads import employee_relation

SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "101"))
EMP_COUNT = 240
DEPT_COUNT = 12

#: Real wall-time measurements: everything else must be bit-identical.
_TIMING_ATTRS = ("serve_s",)


def build_cluster(chaos_seed: int) -> Cluster:
    cluster = Cluster(4, replication_factor=2, clock=FakeClock())
    cluster.create_table(
        "emp", employee_relation(EMP_COUNT, DEPT_COUNT, seed=SEED), "dept"
    )
    cluster.install_faults(FaultPlan.chaos(
        chaos_seed, [node.name for node in cluster.nodes], horizon=30,
        kills=1, drops=2, corruptions=1,
    ))
    return cluster


def run_workload(cluster: Cluster):
    cluster.execute(Scan("emp"))
    cluster.execute(Restrict(Scan("emp"), (Comparison("dept", "=", 5),)))
    cluster.execute(
        Aggregate(Scan("emp"), ["dept"], {"n": ("count", "emp")})
    )
    return cluster


def span_shape(span):
    """The deterministic projection of one span tree."""
    attrs = {
        key: value for key, value in span.attrs.items()
        if key not in _TIMING_ATTRS
    }
    return (
        span.name,
        tuple(sorted(attrs.items())),
        tuple(span_shape(child) for child in span.children),
    )


def simulated_durations(span):
    yield span.duration_s
    for child in span.children:
        yield from simulated_durations(child)


@pytest.mark.parametrize("chaos_seed", (3, 17, 42))
def test_same_plan_same_span_shapes(chaos_seed):
    first = run_workload(build_cluster(chaos_seed))
    second = run_workload(build_cluster(chaos_seed))
    first_shapes = [span_shape(root) for root in first.tracer.roots()]
    second_shapes = [span_shape(root) for root in second.tracer.roots()]
    assert first_shapes == second_shapes


@pytest.mark.parametrize("chaos_seed", (3, 17, 42))
def test_same_plan_same_retry_and_failover_counts(chaos_seed):
    first = run_workload(build_cluster(chaos_seed)).network
    second = run_workload(build_cluster(chaos_seed)).network
    assert first.retries == second.retries
    assert first.failovers == second.failovers
    assert first.bytes_shipped == second.bytes_shipped
    assert first.backoff_s == pytest.approx(second.backoff_s)


@pytest.mark.parametrize("chaos_seed", (3, 17))
def test_fake_clock_makes_even_durations_identical(chaos_seed):
    first = run_workload(build_cluster(chaos_seed))
    second = run_workload(build_cluster(chaos_seed))
    first_durations = [
        duration
        for root in first.tracer.roots()
        for duration in simulated_durations(root)
    ]
    second_durations = [
        duration
        for root in second.tracer.roots()
        for duration in simulated_durations(root)
    ]
    assert first_durations == second_durations


def test_different_plans_diverge():
    """The comparison is not vacuous: other seeds change the history."""
    shapes = set()
    for chaos_seed in (3, 17, 42, 99):
        cluster = run_workload(build_cluster(chaos_seed))
        shapes.add(tuple(
            span_shape(root) for root in cluster.tracer.roots()
        ))
    assert len(shapes) > 1


def causal_shape(span):
    """Just the causal attributes: trace id, cross-links, rings."""
    keys = ("trace_id", "link_parent", "ring")
    return (
        span.name,
        tuple((key, span.attrs.get(key)) for key in keys),
        tuple(causal_shape(child) for child in span.children),
    )


@pytest.mark.parametrize("chaos_seed", (3, 17, 42))
def test_causal_links_are_byte_reproducible(chaos_seed):
    first = run_workload(build_cluster(chaos_seed))
    second = run_workload(build_cluster(chaos_seed))
    first_shapes = [causal_shape(root) for root in first.tracer.roots()]
    second_shapes = [causal_shape(root) for root in second.tracer.roots()]
    assert first_shapes == second_shapes


def test_trace_ids_are_counter_allocated_per_query():
    cluster = run_workload(build_cluster(3))
    query_roots = [
        root for root in cluster.tracer.roots() if "kind" in root.attrs
    ]
    assert [root.attrs["trace_id"] for root in query_roots] == [
        "t-%06d" % index for index in range(1, len(query_roots) + 1)
    ]
    assert len(query_roots) == 3


def incident_history():
    """One successful query, then a dead-partition read: one incident."""
    import json

    from repro.errors import ClusterUnavailableError
    from repro.obs.metrics import registry
    from repro.obs.recorder import FlightRecorder
    from repro.relational.faults import FaultPlan

    registry().reset()
    recorder = FlightRecorder(window=32)
    recorder.install()
    try:
        cluster = Cluster(2, replication_factor=1, clock=FakeClock())
        cluster.create_table(
            "emp", employee_relation(EMP_COUNT, DEPT_COUNT, seed=SEED),
            "dept",
        )
        cluster.execute(Scan("emp"))
        cluster.install_faults(FaultPlan().kill("node-0", at_op=0))
        with pytest.raises(ClusterUnavailableError):
            cluster.execute(Scan("emp"))
        incidents = recorder.incidents()
        # Real wall-time measurements are the one non-deterministic
        # dimension (the _TIMING_ATTRS convention above): strip the
        # serve-time span attribute and the latency metric families.
        for incident in incidents:
            for event in incident["window"]:
                if event["event"] == "span":
                    for attr in _TIMING_ATTRS:
                        event["attrs"].pop(attr, None)
            incident["metrics"] = {
                key: value
                for key, value in incident["metrics"].items()
                if "seconds" not in key
            }
        return json.dumps(incidents, sort_keys=True)
    finally:
        recorder.uninstall()
        registry().reset()


def test_incident_snapshots_are_byte_reproducible():
    import json

    first = incident_history()
    second = incident_history()
    assert first == second
    (incident,) = json.loads(first)
    assert incident["seq"] == 1
    assert incident["error"]["code"] == "CLUSTER_UNAVAILABLE"
    assert incident["error"]["context"]["table"] == "emp"
    # The window's latest trace is the one the incident points at.
    assert incident["trace_id"] == "t-000001"
