"""Unified observability: tracing, metrics, digests, and their exports.

Every measurement path in the reproduction reports through this one
zero-dependency subsystem:

=================  ===================================================
module             contents
=================  ===================================================
``trace``          :class:`Span` / :class:`Tracer` -- explicit-clock
                   span trees, ring buffer, tree render, JSON lines;
                   :class:`TraceContext` for causal propagation
``metrics``        :class:`Registry` of counters, gauges and
                   fixed-bucket histograms (with exemplar links);
                   Prometheus exposition
``instrument``     the ``REPRO_OBS`` gate and the kernel-op hook
``digest``         :class:`QueryDigest` -- one structured record per
                   executed query (plan hash, per-node cardinalities,
                   backend, governance, latency)
``slowlog``        bounded slow-query log: threshold-kept tails plus
                   a seeded reservoir of normals, JSONL export
``recorder``       flight recorder: ring of recent events, snapshotted
                   into incident records on typed failures
=================  ===================================================

Who hangs off it: the XST kernel (op counts, cardinalities, latency
histograms), the relational profiler (EXPLAIN-ANALYZE span trees),
the simulated cluster (per-bucket read spans with retry/failover
attributes and causal trace ids; ``NetworkStats`` mirrored as
counters), the CLI (``repro obs-metrics`` / ``obs-trace`` /
``obs-report`` / ``obs-incidents``) and the benchmark harness
(registry deltas into the benchmark JSON).

Default off: set ``REPRO_OBS=1`` (or call
:func:`repro.obs.set_enabled`) to record.  See
``docs/observability.md`` for the span model and naming scheme.
"""

from repro.obs import metrics, trace
from repro.obs.digest import (
    QueryDigest,
    add_digest_sink,
    build_digest,
    plan_hash,
    record_digest,
    remove_digest_sink,
)
from repro.obs.instrument import enabled, kernel_op, observed, set_enabled
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    parse_exposition,
    registry,
)
from repro.obs.recorder import FlightRecorder, recorder
from repro.obs.slowlog import SlowQueryLog, slowlog
from repro.obs.trace import (
    FakeClock,
    Span,
    TraceContext,
    Tracer,
    set_span_listener,
    tracer,
)

__all__ = [
    # switches
    "enabled",
    "set_enabled",
    "observed",
    "kernel_op",
    # tracing
    "Span",
    "TraceContext",
    "Tracer",
    "FakeClock",
    "tracer",
    "set_span_listener",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "registry",
    "parse_exposition",
    # digests and their consumers
    "QueryDigest",
    "plan_hash",
    "build_digest",
    "record_digest",
    "add_digest_sink",
    "remove_digest_sink",
    "SlowQueryLog",
    "slowlog",
    "FlightRecorder",
    "recorder",
    # submodules
    "metrics",
    "trace",
]
