"""The query flight recorder, end to end: fault in, incident out.

A guided tour of `repro.obs` v2: a cluster runs a healthy query (its
spans and digest enter the recorder's ring), a fault plan kills the
only replica of a partition, the next read dies with a typed
`ClusterUnavailableError` -- and the moment that error is constructed,
the flight recorder freezes the ring into an incident record: error
code and context, the causal trace id lifted from the window, the
recent-event window itself, and the cluster metric subset.  The
incident streams to JSONL and renders through the `obs-incidents` CLI.

Run:  python examples/flight_recorder_demo.py
"""

import json
import os
import tempfile

from repro.errors import ClusterUnavailableError
from repro.obs import instrument
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import FakeClock
from repro.relational.distributed import Cluster
from repro.relational.faults import FaultPlan
from repro.relational.query import Scan
from repro.workloads import employee_relation


def banner(text: str) -> None:
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def main() -> None:
    instrument.set_enabled(True)
    incident_path = os.path.join(tempfile.mkdtemp(), "incidents.jsonl")
    recorder = FlightRecorder(window=64, path=incident_path)
    recorder.install()
    try:
        banner("1. A healthy query fills the ring")
        cluster = Cluster(2, replication_factor=1, clock=FakeClock())
        cluster.create_table(
            "emp", employee_relation(240, 12, seed=101), "dept"
        )
        result = cluster.execute(Scan("emp"))
        print("scan served %d rows; recorder window holds %d event(s)"
              % (result.cardinality(), len(recorder.window())))
        for event in recorder.window()[-3:]:
            print("  %s" % json.dumps(event, sort_keys=True))

        banner("2. A fault kills the only replica of a partition")
        cluster.install_faults(FaultPlan().kill("node-0", at_op=0))
        try:
            cluster.execute(Scan("emp"))
        except ClusterUnavailableError as error:
            print("refused: %s" % error)
            print("  code=%s exit_code=%d" % (error.code, error.exit_code))

        banner("3. The incident record, snapshotted at construction")
        (incident,) = recorder.incidents()
        print("seq=%d  type=%s  code=%s" % (
            incident["seq"], incident["error"]["type"],
            incident["error"]["code"]))
        print("trace=%s  (lifted from the event window)"
              % incident["trace_id"])
        print("context: %s"
              % json.dumps(incident["error"]["context"], sort_keys=True))
        print("window of %d event(s) travels with the incident"
              % len(incident["window"]))
        print("metrics subset: %d repro_cluster/repro_gov familie(s)"
              % len(incident["metrics"]))

        banner("4. The same record, streamed to JSONL for the CLI")
        print("wrote %s" % incident_path)
        print("read it back with:")
        print("  python -m repro obs-incidents %s" % incident_path)
        print("  python -m repro obs-incidents %s --format json"
              % incident_path)
    finally:
        recorder.uninstall()
        instrument.set_enabled(False)
    print()
    print("See docs/observability.md and tests/obs/test_recorder.py.")


if __name__ == "__main__":
    main()
