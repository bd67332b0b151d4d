"""A simulated distributed backend: partitioned, replicated XST relations.

The VLDB-1977 title promises "intrinsically reliable ... very large,
distributed, backend information systems".  Real cluster hardware is
out of scope for this reproduction (see DESIGN.md's substitution
table), so this module simulates the distribution layer faithfully
enough to measure its algebra: a :class:`Cluster` of in-process
:class:`Node` objects, hash partitioning on a chosen attribute, N-way
replica placement (:mod:`repro.relational.replication`), and query
execution that ships *sets* between nodes -- with every shipment
priced in real serialized bytes via
:func:`repro.xst.serialization.dumps`.

What the simulation preserves from the paper's programme:

* relations partition *by scope value* -- the partitioning key is an
  attribute scope, and each node holds ordinary XST relations, so
  every local operation is the unmodified kernel;
* every partition (*bucket*) lives on ``replication_factor`` nodes;
  reads are served by the first live replica and fail over down the
  ring, writes fan out to every replica;
* distributed selection routes by key when the predicate covers the
  partition attribute (one bucket touched) and broadcasts otherwise;
* distributed join is co-partitioned when both sides share a partition
  attribute (and placement), and otherwise *re-shuffles* one side --
  shipping costs are visible in :class:`NetworkStats`;
* distributed aggregation pushes partial aggregates (count/sum/min/
  max) to the nodes and combines, shipping summaries instead of rows;
* failures are injected deterministically through the hooks in
  :mod:`repro.relational.faults`; reads retry with (simulated)
  exponential backoff, fail over across replicas, and raise
  :class:`repro.errors.ClusterUnavailableError` only when no correct
  answer is obtainable -- never a wrong one.

Placement is **explicit and versioned** (PR 9): every table carries a
:class:`repro.relational.sharding.ShardMap` -- an epoch-numbered
bucket->owner-ring map with a bucket count decoupled from the node
count -- instead of the original implicit ``bucket b on node b``
scheme.  Requests stamped with a stale epoch are refused with a typed
:class:`~repro.errors.ShardMovedError` before any bucket is read, and
online rebalancing (:meth:`Cluster.rebalance`, :meth:`Cluster.split_table`,
:meth:`Cluster.merge_table`) moves buckets between nodes as a
resumable, journaled state machine driven on the same deterministic
tick clock as the fault injector -- so seeded kill/revive events land
mid-copy, mid-catch-up and mid-swing, and the move provably completes
afterwards.  A :meth:`Cluster.execute` coordinator pushes
``SelectEq``/``SelectPred``/``Project`` chains below the shuffle and
chooses broadcast-small vs shuffle-on-key join strategies from the
statistics catalog and per-bucket row counts.

The failure model: a killed node is *unreachable*, not erased -- its
stored buckets survive a crash (durable disks) and serve again after
a revive.  Writes, however, are *missed* while a node is down: the
fan-out skips unreachable replicas, exactly as a real backend's would.
Consistency is restored by **rebuild-from-log**: the cluster keeps an
in-memory write log (one entry per bucket write, with a monotonically
increasing LSN) and every node carries an ``applied_lsn`` high-water
mark; a revive replays the log tail past the node's mark -- shipping
real priced bytes -- before the node serves again, so any *readable*
replica is always consistent.  The write fan-out also ticks the fault
injector, so seeded ``crash`` events can kill a node halfway through
a fan-out and the rebuild provably reconciles the torn write.
"""

from __future__ import annotations

import time
from itertools import count
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    CircuitOpenError,
    ClusterUnavailableError,
    OverloadedError,
    SchemaError,
    ShardMovedError,
)
from repro.gov.admission import PRIORITY_NORMAL, AdmissionController
from repro.gov.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard
from repro.gov.governor import Budget, Deadline
from repro.gov.governor import active as _gov_active
from repro.gov.result import MissingBucket, Result
from repro.obs import metrics as _metrics
from repro.obs.instrument import enabled as _obs_enabled
from repro.obs.instrument import record_recovery as _record_recovery
from repro.obs.instrument import record_shard_event as _record_shard_event
from repro.obs.trace import Span, TraceContext, Tracer
from repro.relational.aggregate import aggregate as local_aggregate
from repro.relational.algebra import join as local_join
from repro.relational.algebra import select_eq as local_select_eq
from repro.relational.algebra import union as local_union
from repro.relational.faults import (
    NO_FAULTS,
    FaultInjector,
    FaultPlan,
    NodeDownError,
    ShipmentCorruptedError,
    ShipmentLostError,
)
from repro.relational.cost import (
    broadcast_join_cost,
    estimate_shard_rows,
    shuffle_join_cost,
)
from repro.relational.optimizer import ShardPipeline, shard_pipeline
from repro.relational.query import Join as JoinPlan
from repro.relational.query import Database, Plan, Scan
from repro.relational.relation import Relation
from repro.relational.sharding import (
    ShardCatalog,
    ShardMap,
    ShardMove,
    shard_index,
)
from repro.relational.schema import Heading
from repro.xst.builders import xrecord, xset
from repro.xst.serialization import dumps
from repro.xst.xset import XSet

__all__ = ["NetworkStats", "Node", "Cluster"]

#: Numeric breaker-state encoding for the ``repro_gov_breaker_state``
#: gauge (a gauge must be a number; 0 is the healthy state).
_BREAKER_STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class NetworkStats:
    """Counters for simulated shipments, faults and recovery work.

    Since the observability layer landed these are *derived metrics*:
    every mutation is mirrored into the global
    :mod:`repro.obs.metrics` registry (``repro_cluster_*`` counters)
    when ``REPRO_OBS`` is on, so benchmark harnesses and the
    ``repro obs-metrics`` exposition see cluster traffic without
    touching this object.  The plain attributes remain the
    synchronous, always-on view the tests assert against.
    """

    def __init__(self):
        self.messages = 0
        self.bytes_shipped = 0
        self.replica_messages = 0
        self.replica_bytes = 0
        self.retries = 0
        self.failovers = 0
        self.delay_s = 0.0
        self.backoff_s = 0.0

    def ship(self, payload: XSet, replica: bool = False) -> None:
        self.ship_encoded(len(dumps(payload)), replica=replica)

    def ship_encoded(self, byte_count: int, replica: bool = False) -> None:
        self.messages += 1
        self.bytes_shipped += byte_count
        if replica:
            self.replica_messages += 1
            self.replica_bytes += byte_count
        if _obs_enabled():
            registry = _metrics.registry()
            registry.counter(
                "repro_cluster_messages_total",
                "Simulated shipments between nodes.",
            ).inc()
            registry.counter(
                "repro_cluster_bytes_total",
                "Serialized bytes shipped.", ("replica",),
            ).inc(byte_count, replica="1" if replica else "0")

    def record_retry(self, backoff_s: float = 0.0) -> None:
        self.retries += 1
        self.backoff_s += backoff_s
        if _obs_enabled():
            registry = _metrics.registry()
            registry.counter(
                "repro_cluster_retries_total",
                "Shipment retries after loss/corruption.",
            ).inc()
            registry.counter(
                "repro_cluster_backoff_seconds_total",
                "Simulated retry backoff charged.",
            ).inc(backoff_s)

    def record_failover(self) -> None:
        self.failovers += 1
        if _obs_enabled():
            _metrics.registry().counter(
                "repro_cluster_failovers_total",
                "Reads served by a non-primary replica.",
            ).inc()

    def record_delay(self, seconds: float) -> None:
        self.delay_s += seconds
        if _obs_enabled():
            _metrics.registry().counter(
                "repro_cluster_delay_seconds_total",
                "Simulated node latency charged.",
            ).inc(seconds)

    def recovery_s(self) -> float:
        """Total simulated time spent recovering (delays + backoff)."""
        return self.delay_s + self.backoff_s

    def reset(self) -> None:
        self.__init__()

    def __repr__(self) -> str:
        return (
            "NetworkStats(messages=%d, bytes=%d, replica_bytes=%d, "
            "retries=%d, failovers=%d)"
            % (self.messages, self.bytes_shipped, self.replica_bytes,
               self.retries, self.failovers)
        )


class Node:
    """One backend node: a name, liveness, and its local buckets.

    ``alive`` and ``delay_s`` are the two knobs the fault harness
    turns; the storage itself is durable (a killed node keeps its
    buckets, but misses writes until a revive-time rebuild --
    ``applied_lsn`` is the write-log high-water mark the rebuild
    replays from).
    """

    def __init__(self, name: str, index: int = 0):
        self.name = name
        self.index = index
        self.alive = True
        self.delay_s = 0.0
        self.applied_lsn = 0
        self._buckets: Dict[str, Dict[int, Relation]] = {}
        # Rebalance staging: an in-flight shard move copies into here
        # so a half-received bucket is never visible to reads; the
        # swing promotes it into ``_buckets`` atomically.  Durable,
        # like the buckets -- a killed recipient resumes its staged
        # copy on revive.
        self._staged: Dict[Tuple[str, int], Relation] = {}

    # -- storage (durable: works regardless of liveness) ---------------

    def store(self, table: str, partition: Relation,
              bucket: Optional[int] = None) -> None:
        index = self.index if bucket is None else bucket
        self._buckets.setdefault(table, {})[index] = partition

    def merge(self, table: str, bucket: int, rows: Relation) -> None:
        """Fold new rows into a stored bucket (the write fan-out path)."""
        held = self._buckets.setdefault(table, {})
        current = held.get(bucket)
        held[bucket] = rows if current is None else local_union(current, rows)

    def stored(self, table: str, bucket: int) -> Optional[Relation]:
        """Durable read of one bucket copy (works on dead nodes).

        The anti-entropy path: a donor's post-swing copy is audited
        from durable storage whether or not the node is reachable.
        """
        return self._buckets.get(table, {}).get(bucket)

    def drop_bucket(self, table: str, bucket: int) -> None:
        """GC one bucket copy from durable storage (move source GC)."""
        held = self._buckets.get(table)
        if held is not None:
            held.pop(bucket, None)
            if not held:
                del self._buckets[table]

    # -- rebalance staging (durable, invisible to reads) ----------------

    def stage_store(self, table: str, bucket: int, rows: Relation) -> None:
        self._staged[(table, bucket)] = rows

    def stage_merge(self, table: str, bucket: int, rows: Relation) -> None:
        current = self._staged.get((table, bucket))
        self._staged[(table, bucket)] = (
            rows if current is None else local_union(current, rows)
        )

    def staged(self, table: str, bucket: int) -> Optional[Relation]:
        return self._staged.get((table, bucket))

    def promote_stage(self, table: str, bucket: int) -> None:
        """Swing: staged rows become the live bucket copy, atomically."""
        rows = self._staged.pop((table, bucket), None)
        if rows is not None:
            self.merge(table, bucket, rows)

    def drop_stage(self, table: str, bucket: int) -> None:
        self._staged.pop((table, bucket), None)

    # -- reads (the production path: needs a reachable node) -----------

    def bucket(self, table: str, bucket: int) -> Relation:
        if not self.alive:
            raise NodeDownError("node %s is down" % self.name)
        try:
            return self._buckets[table][bucket]
        except KeyError:
            raise SchemaError(
                "node %s holds no bucket %d of %r" % (self.name, bucket, table)
            ) from None

    def partition(self, table: str) -> Relation:
        """Every locally held row of ``table`` (union of its buckets).

        A coordinator-side inspection view: it reads the durable
        storage directly and so works on dead nodes too.
        """
        try:
            held = self._buckets[table]
        except KeyError:
            raise SchemaError(
                "node %s holds no partition of %r" % (self.name, table)
            ) from None
        merged: Optional[Relation] = None
        for index in sorted(held):
            part = held[index]
            merged = part if merged is None else local_union(merged, part)
        assert merged is not None
        return merged

    def holds(self, table: str) -> bool:
        return table in self._buckets

    def buckets_held(self, table: str) -> Tuple[int, ...]:
        return tuple(sorted(self._buckets.get(table, ())))

    # -- liveness ------------------------------------------------------

    def fail(self) -> None:
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def __repr__(self) -> str:
        status = "up" if self.alive else "DOWN"
        return "Node(%s, %s, %d tables)" % (
            self.name, status, len(self._buckets)
        )


def _partition_index(value: Any, node_count: int) -> int:
    """Deterministic placement: hash of the canonical serialization.

    Kept as the historical name for the differential oracles; the
    algorithm now lives in :func:`repro.relational.sharding.shard_index`
    (byte-identical routing) and the bucket count is a property of the
    table's :class:`~repro.relational.sharding.ShardMap`, not of the
    cluster.
    """
    return shard_index(value, node_count)


class _QueryContext:
    """Per-query bookkeeping: simulated elapsed time and the root span.

    The span tree records one child per bucket access (successful or
    terminally failed), which :mod:`repro.relational.profile` renders
    as an EXPLAIN-style tree and ``repro obs-trace`` exports.

    ``deadline`` is the query's *single* time budget: the ambient
    governor's deadline when one is installed, else one built from the
    cluster's ``query_timeout_s`` default.  Backoff sleeps and node
    delays both draw it down (each simulated second charged exactly
    once) -- previously backoff and delays were summed into a context
    total that a surrounding governor could have charged a second
    time.
    """

    __slots__ = ("describe", "simulated_s", "span", "started", "deadline",
                 "trace", "shard_budgets")

    def __init__(self, describe: str, span: Span,
                 deadline: Optional[Deadline] = None,
                 trace: Optional[TraceContext] = None):
        self.describe = describe
        self.simulated_s = 0.0
        self.span = span
        self.started = time.perf_counter()
        self.deadline = deadline
        #: The causal context child operations (per-bucket reads,
        #: rebuilds) inherit: same trace id, this query's root span as
        #: causal parent.
        self.trace = trace
        #: Per-shard governor budgets, allocated lazily per bucket the
        #: query touches (only when the cluster caps shard reads).
        self.shard_budgets: Dict[Tuple[str, int], Budget] = {}

    def charge(self, seconds: float) -> None:
        self.simulated_s += seconds

    def shard_budget(self, table: str, bucket: int, max_rows: int) -> Budget:
        """The (lazily created) row budget for one shard of this query."""
        key = (table, bucket)
        budget = self.shard_budgets.get(key)
        if budget is None:
            budget = self.shard_budgets[key] = Budget(max_rows=max_rows)
        return budget


class Cluster:
    """A set of nodes plus the distributed execution strategies.

    ``replication_factor`` is the cluster-wide default copy count for
    :meth:`create_table` (overridable per table).  ``max_attempts``
    bounds per-replica retries of lost/corrupted shipments, with
    simulated exponential backoff starting at ``backoff_base_s``.
    ``query_timeout_s`` is the *default* time budget: each query runs
    under one :class:`repro.gov.Deadline` (the ambient governor's when
    one is installed, else a simulated-clock deadline built from this
    value) that node delays and backoff draw down together; an
    exhausted deadline raises
    :class:`~repro.errors.DeadlineExceededError` rather than hanging.

    Governance knobs (all off by default, preserving the PR-1 fault
    semantics exactly):

    * ``breakers=True`` arms per-node circuit breakers on the
      cluster's operation counter (``failure_threshold`` consecutive
      failures open; ``breaker_cooldown_ops`` ops later a half-open
      probe runs, with seeded per-node jitter).  An open breaker's
      node is skipped without an attempt, a tick, or backoff.
    * ``max_in_flight`` bounds concurrently admitted queries;
      excess work is shed with :class:`~repro.errors.OverloadedError`
      before any execution (see :mod:`repro.gov.admission`).
    * ``stats_fanout=True`` lets gather-style reads (scan, broadcast
      selection) visit buckets in descending per-bucket row-count
      order -- the schedule a parallel gather would pick, so the
      longest-running shipment starts first.  Off by default because
      reordering changes the operation-tick sequence that the seeded
      fault/chaos suites pin byte-for-byte.
    """

    def __init__(
        self,
        node_count: int = 4,
        replication_factor: int = 1,
        max_attempts: int = 3,
        backoff_base_s: float = 0.010,
        query_timeout_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        breakers: bool = False,
        breaker_threshold: int = 3,
        breaker_cooldown_ops: int = 8,
        breaker_jitter_ops: int = 3,
        breaker_seed: int = 0,
        max_in_flight: Optional[int] = None,
        admission_soft: Optional[int] = None,
        stats_fanout: bool = False,
        shard_budget_rows: Optional[int] = None,
    ):
        if node_count < 1:
            raise ValueError("a cluster needs at least one node")
        if not 1 <= replication_factor <= node_count:
            raise ValueError(
                "replication factor %d needs 1..%d nodes"
                % (replication_factor, node_count)
            )
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.nodes = [
            Node("node-%d" % index, index) for index in range(node_count)
        ]
        self.network = NetworkStats()
        self.replication_factor = replication_factor
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.query_timeout_s = query_timeout_s
        self.faults: FaultInjector = NO_FAULTS
        # Operation counter: the deterministic "clock" circuit
        # breakers schedule probes against.  Incremented by _tick,
        # which also drives the fault injector -- breaker transitions
        # are a pure function of the operation sequence.
        self.ops = 0
        self.breakers: Optional[BreakerBoard] = (
            BreakerBoard(
                failure_threshold=breaker_threshold,
                cooldown_ops=breaker_cooldown_ops,
                jitter_ops=breaker_jitter_ops,
                seed=breaker_seed,
                on_transition=self._on_breaker_transition,
            )
            if breakers
            else None
        )
        self.admission: Optional[AdmissionController] = (
            AdmissionController(max_in_flight, soft_capacity=admission_soft)
            if max_in_flight is not None
            else None
        )
        # Trace state, initialized up front so a cluster that has
        # never run a query still profiles/renders cleanly.  ``clock``
        # injects the span clock: pass a repro.obs.trace.FakeClock and
        # span durations become pure simulated time (backoff + node
        # delays), deterministic across machines.
        self.tracer = Tracer(clock=clock, capacity=64)
        # Trace ids are allocated from this counter, never from clocks
        # or randomness -- the byte-reproducibility of chaos traces
        # depends on it.
        self._trace_ids = count(1)
        self.stats_fanout = stats_fanout
        #: Per-query cap on rows any single shard may contribute; a
        #: bucket read past the cap dies with
        #: :class:`~repro.errors.BudgetExceededError` naming the shard
        #: site.  ``None`` (default) disables the cap.
        self.shard_budget_rows = shard_budget_rows
        self._partition_attrs: Dict[str, str] = {}
        #: The tables' headings as a row-less catalog: what
        #: :meth:`Database.heading_of` checks a plan against.
        self._schema = Database()
        self._placements: Dict[str, ShardMap] = {}
        #: Durable catalog + journal sink (a DiskRelationStore), when
        #: :meth:`attach_store` connected one: every epoch swing
        #: persists the shard catalog, every move step its journal.
        self._store: Optional[Any] = None
        #: WAL for durable EPOCH markers, when :meth:`attach_wal`
        #: connected one; swings are audit-logged, not replayed.
        self._wal: Optional[Any] = None
        #: ANALYZE statistics for join-strategy sizing, when
        #: :meth:`attach_stats` supplied a catalog.
        self._stats_catalog: Optional[Any] = None
        #: In-flight shard moves, oldest first (FIFO-driven by
        #: :meth:`step_rebalance`).
        self._moves: List[ShardMove] = []
        # Per-table, per-bucket row counts maintained on every load and
        # insert -- the distributed analog of the statistics catalog's
        # row counts, feeding stats_fanout bucket ordering.
        self._bucket_rows: Dict[str, Dict[int, int]] = {}
        self._last_context: Optional[_QueryContext] = None
        #: Coordinator-side result cache (``enable_result_cache``):
        #: entries fingerprinted by per-table write generations, so a
        #: post-insert reader can never see a pre-insert answer.
        self.result_cache = None
        self._table_generations: Dict[str, int] = {}
        # The write log: (lsn, table, bucket, kind, rows) per bucket
        # write, kind in {"store", "merge"}.  Replayed by
        # :meth:`on_revive` to rebuild replicas that missed writes.
        self._write_log: List[Tuple[int, str, int, str, Relation]] = []
        self._log_lsn = 0

    # ------------------------------------------------------------------
    # Faults and liveness
    # ------------------------------------------------------------------

    def _tick(self, write: bool = False) -> None:
        """One cluster operation: advance the op clock, run faults.

        Breakers and fault injection share this counter, so a seeded
        chaos run produces one reproducible interleaving of fault
        events and breaker transitions.
        """
        self.ops += 1
        self.faults.tick(self, write=write)

    def _on_breaker_transition(self, node: str, old: str, new: str,
                               op: int) -> None:
        """BreakerBoard hook: span attribute always, metrics when on."""
        span = self.tracer.active
        if span is not None:
            span.set("breaker_%s" % node, "%s->%s" % (old, new))
        if _obs_enabled():
            registry = _metrics.registry()
            registry.counter(
                "repro_gov_breaker_transitions_total",
                "Circuit-breaker state transitions.", ("node", "to"),
            ).inc(node=node, to=new)
            registry.gauge(
                "repro_gov_breaker_state",
                "Breaker state per node (0 closed, 1 half-open, 2 open).",
                ("node",),
            ).set(_BREAKER_STATE_CODES[new], node=node)

    @property
    def breaker_log(self) -> List[Tuple[int, str, str, str]]:
        """``(op, node, old, new)`` transitions, in order (or empty)."""
        return [] if self.breakers is None else list(self.breakers.log)

    def breaker_states(self) -> Dict[str, str]:
        """Current breaker state per node (empty without breakers)."""
        return {} if self.breakers is None else self.breakers.states()

    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Arm a deterministic fault schedule; returns the injector."""
        self.faults = FaultInjector(plan)
        return self.faults

    def clear_faults(self) -> None:
        self.faults = NO_FAULTS

    def node_named(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise SchemaError(
            "no node named %r; cluster has %s"
            % (name, [node.name for node in self.nodes])
        )

    def kill_node(self, name: str) -> None:
        """Make a node unreachable (storage survives)."""
        self.node_named(name).fail()

    def revive_node(self, name: str) -> None:
        """Bring a node back, rebuilding any writes it missed."""
        self.on_revive(self.node_named(name))

    def on_revive(self, node: Node) -> None:
        """Revive ``node``: replay the write-log tail, then serve.

        Idempotent (a live node is left alone).  The rebuild runs
        *before* the node is marked reachable, so there is no window
        where a stale replica serves reads.
        """
        if node.alive:
            return
        self._rebuild(node)
        node.recover()

    def _rebuild(self, node: Node) -> None:
        """Replay write-log entries past the node's high-water mark.

        Only entries for buckets this node replicates are applied; the
        shipped bytes are priced as replica traffic and the pass is
        reported as a ``rebuild`` recovery (span + metrics).  Replays
        are safe to overlap with writes the node did see: ``store``
        overwrites and ``merge`` is a union, so re-applying is
        idempotent.
        """
        started = time.perf_counter()
        # A revive mid-query (the fault injector's doing) opens this
        # span while the query's spans are still on the stack; capture
        # the causal context *before* starting so the rebuild carries
        # the triggering query's trace id.  A standalone revive (no
        # open spans) has no cause and stays unannotated.
        cause = self.tracer.current_context()
        span = self.tracer.start("rebuild(%s)" % node.name, node=node.name)
        if cause is not None:
            cause.annotate(span)
        entries = 0
        byte_count = 0
        epoch = self._placement_epoch()
        try:
            for lsn, table, bucket, kind, rows in self._write_log:
                if lsn <= node.applied_lsn:
                    continue
                placement = self._placements.get(table)
                if placement is None or not placement.has_bucket(bucket):
                    # Entries numbered under a retired bucket count (a
                    # later merge shrank the map); the post-merge
                    # snapshot entries supersede them.
                    continue
                if node.index not in placement.replicas(bucket):
                    continue
                if kind == "store":
                    node.store(table, rows, bucket=bucket)
                else:
                    node.merge(table, bucket, rows)
                size = len(dumps(rows.rows))
                self.network.ship_encoded(size, replica=True)
                entries += 1
                byte_count += size
            node.applied_lsn = self._log_lsn
            span.set("entries", entries)
            span.set("bytes", byte_count)
            span.set("epoch", epoch)
        finally:
            self.tracer.end(span)
        _record_recovery(
            "rebuild", time.perf_counter() - started, entries, byte_count,
            epoch=epoch,
        )

    def _placement_epoch(self) -> int:
        """The cluster's placement generation: the newest table epoch.

        Rebuilds happen against whatever maps are installed *now*, so
        a revive that lands after a rebalance reports the post-swing
        epoch -- the correlation tag FlightRecorder incidents need to
        connect a revive with the topology change it rebuilt into.
        """
        return max(
            (placement.epoch for placement in self._placements.values()),
            default=0,
        )

    def _log_append(self, table: str, bucket: int, kind: str,
                    rows: Relation) -> int:
        self._log_lsn += 1
        self._write_log.append((self._log_lsn, table, bucket, kind, rows))
        return self._log_lsn

    def live_nodes(self) -> List[Node]:
        return [node for node in self.nodes if node.alive]

    # ------------------------------------------------------------------
    # Loading and writing
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        relation: Relation,
        partition_attr: str,
        replication_factor: Optional[int] = None,
        buckets: Optional[int] = None,
    ) -> None:
        """Hash-partition a relation across the nodes by one attribute.

        Placement is an explicit :class:`ShardMap` at epoch 1:
        ``buckets`` hash partitions (default: one per node, the
        historical scheme) each owned by a ``replication_factor``-node
        ring (primary plus ring successors).  The primary copy is free
        -- data originates there -- while every extra copy ships over
        the network and is priced in ``NetworkStats.replica_bytes``.

        Unreachable replicas *miss* the write (they catch up from the
        write log on revive), and each per-replica step ticks the
        fault injector, so a seeded crash can land mid-fan-out.
        """
        relation.heading.require([partition_attr])
        factor = (
            self.replication_factor
            if replication_factor is None
            else replication_factor
        )
        placement = ShardMap.successor_rings(
            partition_attr, len(self.nodes), factor, bucket_count=buckets
        )
        # Catalog first: a revive fired by a mid-create tick must be
        # able to see the placement to rebuild the partial table.
        self._partition_attrs[name] = partition_attr
        self._schema.add(name, Relation(relation.heading, xset([])))
        self._placements[name] = placement
        parts: List[List] = [[] for _ in range(placement.bucket_count)]
        for row, _ in relation.rows.pairs():
            (value,) = row.elements_at(partition_attr)
            parts[placement.bucket_for(value)].append(row)
        self._bucket_rows[name] = {
            index: len(bucket) for index, bucket in enumerate(parts)
        }
        for bucket_index, bucket in enumerate(parts):
            part = Relation(relation.heading, xset(bucket))
            lsn = self._log_append(name, bucket_index, "store", part)
            for position, node_index in enumerate(
                placement.replicas(bucket_index)
            ):
                self._tick(write=True)
                node = self.nodes[node_index]
                if not node.alive:
                    continue  # missed write; rebuilt on revive
                node.store(name, part, bucket=bucket_index)
                node.applied_lsn = lsn
                if position:
                    self.network.ship(part.rows, replica=True)
        self._persist_placements()
        self._bump_generation(name)
        if _obs_enabled():
            _record_shard_event(
                "create", name, rows=relation.cardinality(),
                epoch=placement.epoch,
            )

    def insert(self, name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Append rows, fanned out to every *reachable* replica.

        Each bucket write is logged (one LSN) before the fan-out, and
        each per-replica step ticks the fault injector -- so a seeded
        crash tears the fan-out at a deterministic point and the torn
        replica misses the rows until its revive-time rebuild replays
        the log tail.  Returns the row count written.
        """
        heading = self.heading(name)
        attr = self.partition_attr(name)
        placement = self._placements[name]
        buckets: Dict[int, List] = {}
        count = 0
        for row in rows:
            if frozenset(row) != frozenset(heading.names):
                raise SchemaError(
                    "row keys %s do not match heading %r"
                    % (sorted(row), heading)
                )
            record = xrecord(row)
            buckets.setdefault(
                placement.bucket_for(row[attr]), []
            ).append(record)
            count += 1
        for bucket_index in sorted(buckets):
            fresh = Relation(heading, xset(buckets[bucket_index]))
            counts = self._bucket_rows.setdefault(name, {})
            counts[bucket_index] = (
                counts.get(bucket_index, 0) + len(buckets[bucket_index])
            )
            lsn = self._log_append(name, bucket_index, "merge", fresh)
            for position, node_index in enumerate(
                placement.replicas(bucket_index)
            ):
                self._tick(write=True)
                node = self.nodes[node_index]
                if not node.alive:
                    continue  # missed write; rebuilt on revive
                node.merge(name, bucket_index, fresh)
                node.applied_lsn = lsn
                self.network.ship(fresh.rows, replica=position > 0)
        if count:
            self._bump_generation(name)
        return count

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def partition_attr(self, name: str) -> str:
        try:
            return self._partition_attrs[name]
        except KeyError:
            raise SchemaError("unknown distributed table %r" % (name,)) from None

    def heading(self, name: str) -> Heading:
        self.partition_attr(name)
        return self._schema.relation(name).heading

    def placement(self, name: str) -> ShardMap:
        self.partition_attr(name)
        return self._placements[name]

    def shard_map(self, name: str) -> ShardMap:
        """The table's current (epoch-stamped) placement map."""
        return self.placement(name)

    def shard_catalog(self) -> ShardCatalog:
        """Every table's map, as one serializable catalog."""
        return ShardCatalog(dict(self._placements))

    def attach_store(self, store: Any) -> None:
        """Persist placement through a :class:`DiskRelationStore`.

        From here on every epoch swing rewrites the store's
        ``shards.map`` catalog atomically and every rebalance step
        journals to ``shards.move`` -- the artifacts ``repro fsck``
        audits for torn swings and orphaned source data.
        """
        self._store = store
        self._persist_placements()

    def attach_stats(self, catalog: Any) -> None:
        """Supply ANALYZE statistics for distributed join sizing."""
        self._stats_catalog = catalog

    def attach_wal(self, log: Any) -> None:
        """Log epoch swings as durable ``EPOCH`` markers.

        Recovery replay skips them (only COMMIT records carry data),
        but the log then dates every placement generation against the
        commits around it -- the evidence fsck and post-mortems use.
        """
        self._wal = log

    def _persist_placements(self) -> None:
        if self._store is not None and self._placements:
            self._store.store_shards(self.shard_catalog())

    def _journal_move(self, move: ShardMove) -> None:
        """Write (or, once done, clear) the move's durable journal."""
        if self._store is None:
            return
        if move.done:
            self._store.drop_move()
        else:
            self._store.store_move(move.to_xset())

    def _check_epoch(self, name: str, epoch: Optional[Any],
                     bucket: Optional[int] = None) -> None:
        """Refuse a stale-epoch request before any work is admitted.

        ``epoch`` is ``None`` (unversioned caller, always current),
        an int, or a mapping of table name to the caller's cached
        epoch -- the shape a client holding several tables' maps
        sends.  A mismatch raises
        :class:`~repro.errors.ShardMovedError` carrying both epochs
        so the caller can refresh and retry immediately.
        """
        if epoch is None:
            return
        requested = epoch.get(name) if isinstance(epoch, dict) else epoch
        if requested is None:
            return
        placement = self._placements[name]
        if requested != placement.epoch:
            if _obs_enabled():
                _record_shard_event(
                    "stale_epoch", name, epoch=placement.epoch
                )
            raise ShardMovedError(
                name, requested, placement.epoch, bucket=bucket
            )

    def bucket_stats(self, name: str) -> Dict[int, int]:
        """Per-bucket row counts (insert-maintained upper bounds).

        Loads count exactly; inserts count rows *offered* to a bucket,
        so rows deduplicated by the merge-union make these upper
        bounds -- good enough for ordering, never for answers.
        """
        self.partition_attr(name)
        return dict(self._bucket_rows.get(name, {}))

    def _bucket_order(self, name: str) -> List[int]:
        """Gather order for this table's buckets.

        Plain index order by default (the tick sequence the fault
        suites pin); with ``stats_fanout`` enabled, descending row
        count with index as the deterministic tie-break.
        """
        indices = list(range(self._placements[name].bucket_count))
        if not self.stats_fanout:
            return indices
        counts = self._bucket_rows.get(name)
        if not counts:
            return indices
        return sorted(indices, key=lambda index: (-counts.get(index, 0), index))

    def status(self) -> Dict[str, Any]:
        """A structured snapshot: nodes, tables, placement, network."""
        return {
            "nodes": [
                {
                    "name": node.name,
                    "alive": node.alive,
                    "delay_s": node.delay_s,
                    "applied_lsn": node.applied_lsn,
                    "tables": {
                        table: {
                            "buckets": list(node.buckets_held(table)),
                            "rows": node.partition(table).cardinality(),
                        }
                        for table in sorted(self._partition_attrs)
                        if node.holds(table)
                    },
                }
                for node in self.nodes
            ],
            "tables": {
                table: {
                    "partition_attr": self._partition_attrs[table],
                    "replication_factor":
                        self._placements[table].replication_factor,
                    "epoch": self._placements[table].epoch,
                    "buckets": self._placements[table].bucket_count,
                }
                for table in sorted(self._partition_attrs)
            },
            "moves": [repr(move) for move in self._moves if not move.done],
            "write_log": {
                "lsn": self._log_lsn,
                "entries": len(self._write_log),
            },
            "network": {
                "messages": self.network.messages,
                "bytes_shipped": self.network.bytes_shipped,
                "replica_bytes": self.network.replica_bytes,
                "retries": self.network.retries,
                "failovers": self.network.failovers,
            },
        }

    # ------------------------------------------------------------------
    # The fault-aware read core
    # ------------------------------------------------------------------

    def _ship(self, node: Node, payload: XSet, replica: bool = False) -> None:
        """One shipment attempt; faults may lose or corrupt it."""
        data = dumps(payload)
        self._tick()
        received = self.faults.on_ship(node, data)
        if received != data:
            raise ShipmentCorruptedError(
                "checksum mismatch on shipment from %s" % node.name
            )
        self.network.ship_encoded(len(data), replica=replica)

    def _attempt_on_replicas(
        self,
        context: _QueryContext,
        table: str,
        bucket_index: int,
        action: Callable[[Node], Optional[Relation]],
        ring: Optional[Sequence[int]] = None,
        key: Optional[Any] = None,
    ) -> Optional[Relation]:
        """Run ``action`` on the first replica that can serve it.

        ``action`` reads buckets from the node it is handed (raising
        :class:`NodeDownError` if the node is unreachable) and returns
        the relation to ship back -- or ``None`` for "nothing to ship"
        (empty aggregation partials).  Lost/corrupted shipments retry
        on the same node with simulated backoff; a dead node fails
        over to the next replica; an exhausted ring raises
        :class:`ClusterUnavailableError`.

        With breakers armed, a replica behind an open breaker is
        skipped outright -- no attempt, no injector tick, no backoff
        -- so a known-dead node stops absorbing retry budget.  If
        *every* replica sits behind an open breaker the failure is
        :class:`~repro.errors.CircuitOpenError` (the nodes may be
        back; their breakers just have not probed yet), distinct from
        the all-replicas-dead :class:`ClusterUnavailableError`.
        """
        replicas = (
            self._placements[table].replicas(bucket_index)
            if ring is None
            else tuple(ring)
        )
        span = self.tracer.start(
            "%s[%d]" % (table, bucket_index), table=table, bucket=bucket_index
        )
        if context.trace is not None:
            context.trace.annotate(span)
        span.set(
            "ring",
            self._placements[table].ring(bucket_index)
            if ring is None
            else ">".join(str(index) for index in replicas),
        )
        retries = 0
        attempted = 0
        skipped_open = 0
        next_probe: Optional[Tuple[int, str]] = None
        try:
            for node_index in replicas:
                node = self.nodes[node_index]
                breaker = (
                    self.breakers.breaker(node.name)
                    if self.breakers is not None
                    else None
                )
                if breaker is not None and not breaker.allows(self.ops):
                    skipped_open += 1
                    wait = breaker.retry_after_ops(self.ops)
                    if next_probe is None or wait < next_probe[0]:
                        next_probe = (wait, node.name)
                    continue
                if attempted:
                    self.network.record_failover()
                    span.set("failovers", attempted)
                attempted += 1
                for attempt in range(self.max_attempts):
                    if attempt:
                        backoff = self.backoff_base_s * (2 ** (attempt - 1))
                        self.network.record_retry(backoff)
                        retries += 1
                        span.set("retries", retries)
                        self._charge(context, backoff, table, bucket_index, key)
                    started = time.perf_counter()
                    try:
                        self._tick()
                        if not node.alive:
                            raise NodeDownError("node %s is down" % node.name)
                        if node.delay_s:
                            self.network.record_delay(node.delay_s)
                            self._charge(
                                context, node.delay_s, table, bucket_index, key
                            )
                        result = action(node)
                        if result is not None:
                            self._ship(node, result.rows)
                            if self.shard_budget_rows is not None:
                                context.shard_budget(
                                    table, bucket_index,
                                    self.shard_budget_rows,
                                ).charge(
                                    "shard.%s[%d]" % (table, bucket_index),
                                    result.cardinality(),
                                )
                            if _obs_enabled():
                                _metrics.registry().counter(
                                    "repro_shard_reads_total",
                                    "Bucket reads served by shards.",
                                    ("table",),
                                ).inc_key((table,))
                        if breaker is not None:
                            breaker.record_success(self.ops)
                        span.rename(
                            "%s[%d] @ %s" % (table, bucket_index, node.name)
                        )
                        span.set("node", node.name)
                        span.set(
                            "rows", 0 if result is None else result.cardinality()
                        )
                        span.set("serve_s", time.perf_counter() - started)
                        return result
                    except NodeDownError:
                        if breaker is not None:
                            breaker.record_failure(self.ops)
                        break  # no point retrying an unreachable node
                    except ShipmentLostError:
                        continue  # includes corruption: retry with backoff
                else:
                    # Retries exhausted on a reachable-but-flaky node:
                    # that counts against its breaker too.
                    if breaker is not None:
                        breaker.record_failure(self.ops)
            if skipped_open == len(replicas) and next_probe is not None:
                span.rename("%s[%d] CIRCUIT_OPEN" % (table, bucket_index))
                span.set("rows", 0)
                span.set("serve_s", 0.0)
                span.set("circuit_open", True)
                raise CircuitOpenError(
                    table, bucket_index, next_probe[1],
                    retry_after_ops=next_probe[0],
                )
            span.rename("%s[%d] UNAVAILABLE" % (table, bucket_index))
            span.set("rows", 0)
            span.set("serve_s", 0.0)
            span.set("unavailable", True)
            raise ClusterUnavailableError(
                table,
                bucket_index,
                [self.nodes[index].name for index in replicas],
                reason="all %d replicas dead or unreachable" % len(replicas),
                key=key,
            )
        finally:
            self.tracer.end(span)

    def _charge(
        self,
        context: _QueryContext,
        seconds: float,
        table: str,
        bucket_index: int,
        key: Optional[Any],
    ) -> None:
        """Draw simulated seconds down the query's one deadline.

        Backoff sleeps and node delays both land here, so each
        simulated second is charged exactly once against the shared
        :class:`Deadline` -- exhaustion raises
        :class:`~repro.errors.DeadlineExceededError` naming the bucket
        being served.
        """
        context.charge(seconds)
        self.tracer.advance(seconds)
        if context.deadline is not None:
            context.deadline.charge(seconds)
            context.deadline.check(
                "cluster.%s[%d]" % (table, bucket_index)
            )

    def _query_deadline(self) -> Optional[Deadline]:
        """The deadline this query runs under: ambient, else default.

        A surrounding ``governed(...)`` scope's deadline is *shared*
        (the cluster draws down the same ledger as local kernel
        checkpoints); only without one does ``query_timeout_s`` build
        a fresh simulated-clock deadline.
        """
        governor = _gov_active()
        if governor is not None and governor.deadline is not None:
            return governor.deadline
        if self.query_timeout_s is not None:
            return Deadline.simulated(self.query_timeout_s)
        return None

    @contextmanager
    def _query(self, describe: str, kind: str,
               priority: int = PRIORITY_NORMAL,
               trace: Optional[TraceContext] = None,
               ) -> Iterator[_QueryContext]:
        """One query's root span plus context; metrics on completion.

        With admission control configured this is the cluster's front
        door: the slot is taken before the span opens (a shed query
        runs nothing and traces nothing) and released on the way out.

        ``trace`` is an inbound :class:`TraceContext` from the caller
        (a coordinating local plan, a parent service); without one the
        query starts a fresh trace with a counter-allocated id and
        ``priority`` in its baggage.  Either way the root span is
        stamped with the trace id (and a ``link_parent`` back-link
        when the causal parent lives on another tracer), child bucket
        spans inherit the context, and the query-latency histogram
        records the trace id as the bucket's exemplar -- the
        histogram-to-trace link.
        """
        if self.admission is not None:
            try:
                self.admission.try_admit(priority)
            except OverloadedError as error:
                if _obs_enabled():
                    _metrics.registry().counter(
                        "repro_gov_shed_total",
                        "Queries refused by admission control.",
                        ("reason",),
                    ).inc(reason=error.reason)
                raise
            if _obs_enabled():
                registry = _metrics.registry()
                registry.counter(
                    "repro_gov_admitted_total",
                    "Queries admitted past the front door.",
                ).inc()
                registry.gauge(
                    "repro_gov_in_flight",
                    "Admitted queries currently executing.",
                ).set(self.admission.in_flight)
        if trace is None:
            trace = TraceContext(
                "t-%06d" % next(self._trace_ids),
                baggage={"priority": priority},
            )
        started = time.perf_counter()
        try:
            with self.tracer.span(describe, kind=kind) as span:
                trace.annotate(span)
                for bag_key in sorted(trace.baggage):
                    span.set("bag_%s" % bag_key, trace.baggage[bag_key])
                context = _QueryContext(
                    describe, span, deadline=self._query_deadline(),
                    trace=trace.child_of(span),
                )
                self._last_context = context
                yield context
            if _obs_enabled():
                _metrics.registry().histogram(
                    "repro_cluster_query_seconds",
                    "Distributed query wall time.", ("query",),
                ).observe(
                    time.perf_counter() - started,
                    exemplar=trace.trace_id,
                    query=kind,
                )
        finally:
            if self.admission is not None:
                self.admission.release()
                if _obs_enabled():
                    _metrics.registry().gauge(
                        "repro_gov_in_flight",
                        "Admitted queries currently executing.",
                    ).set(self.admission.in_flight)

    @property
    def last_query_span(self) -> Optional[Span]:
        """Root span of the most recent query (None before the first)."""
        return None if self._last_context is None else self._last_context.span

    @property
    def last_query_events(self) -> List[Tuple[str, int, float]]:
        """Per-bucket trace of the most recent query (for profiling).

        A derived view over the query's span tree: one
        ``(describe, rows, serve_seconds)`` tuple per bucket access.
        Empty for a cluster that has never run a query.
        """
        span = self.last_query_span
        if span is None:
            return []
        return [
            (
                child.name,
                int(child.attrs.get("rows", 0)),
                float(child.attrs.get("serve_s", child.duration_s)),
            )
            for child in span.children
        ]

    @property
    def last_query_describe(self) -> str:
        return "" if self._last_context is None else self._last_context.describe

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _live_replica_count(self, name: str, bucket_index: int) -> int:
        placement = self._placements[name]
        return sum(
            1
            for index in placement.replicas(bucket_index)
            if self.nodes[index].alive
        )

    def _check_quorum(
        self,
        name: str,
        bucket_index: int,
        read_quorum: Optional[int],
        allow_partial: bool,
    ) -> bool:
        """True when this bucket read proceeds below its quorum.

        Without ``allow_partial`` a missed quorum is a hard, typed
        failure; with it the read degrades -- served by whatever live
        replica remains -- and the *caller* marks the answer
        ``quorum_downgraded`` so consumers can refuse it.
        """
        if read_quorum is None:
            return False
        live = self._live_replica_count(name, bucket_index)
        if live >= read_quorum:
            return False
        if not allow_partial:
            raise ClusterUnavailableError(
                name,
                bucket_index,
                reason="read quorum not met: %d live replicas < %d required"
                % (live, read_quorum),
            )
        if _obs_enabled():
            _metrics.registry().counter(
                "repro_gov_quorum_downgrade_total",
                "Reads served below their requested quorum.",
            ).inc()
        return True

    def _finish_partial(
        self,
        context: _QueryContext,
        gathered: Relation,
        missing: List[MissingBucket],
        downgraded: bool,
    ) -> Result:
        """Wrap a degraded-mode answer, marking span and metrics."""
        context.span.set("partial", bool(missing))
        context.span.set("missing_buckets", len(missing))
        context.span.set("quorum_downgraded", downgraded)
        if missing and _obs_enabled():
            _metrics.registry().counter(
                "repro_gov_partial_total",
                "Queries answered with explicitly-partial results.",
            ).inc()
        return Result(gathered, missing, quorum_downgraded=downgraded)

    def scan(
        self,
        name: str,
        allow_partial: bool = False,
        read_quorum: Optional[int] = None,
        priority: int = PRIORITY_NORMAL,
        trace: Optional[TraceContext] = None,
        epoch: Optional[Any] = None,
    ) -> Any:
        """Gather every bucket to the coordinator (ships all rows).

        Default mode returns a bare :class:`Relation` and fails the
        whole query on any unreachable bucket.  ``allow_partial=True``
        degrades instead: unreachable buckets land in the answer's
        missing-bucket manifest and the return type becomes
        :class:`repro.gov.Result` (call ``require_complete()`` to get
        the strict behavior back).  ``read_quorum`` demands that many
        live replicas per bucket -- short of it, strict mode fails and
        partial mode serves the read but marks it
        ``quorum_downgraded``.
        """
        heading = self.heading(name)
        self._check_epoch(name, epoch)
        with self._query(
            "scan(%s)" % name, "scan", priority=priority, trace=trace
        ) as context:
            gathered = Relation(heading, xset([]))
            missing: List[MissingBucket] = []
            downgraded = False
            for bucket_index in self._bucket_order(name):
                downgraded |= self._check_quorum(
                    name, bucket_index, read_quorum, allow_partial
                )
                try:
                    part = self._attempt_on_replicas(
                        context, name, bucket_index,
                        lambda node, b=bucket_index: node.bucket(name, b),
                    )
                except (ClusterUnavailableError, CircuitOpenError) as error:
                    if not allow_partial:
                        raise
                    missing.append(MissingBucket(
                        name, bucket_index,
                        getattr(error, "reason", str(error)),
                    ))
                    continue
                assert part is not None
                gathered = local_union(gathered, part)
            if not allow_partial:
                return gathered
            return self._finish_partial(context, gathered, missing, downgraded)

    def select_eq(
        self,
        name: str,
        conditions: Mapping[str, Any],
        allow_partial: bool = False,
        read_quorum: Optional[int] = None,
        priority: int = PRIORITY_NORMAL,
        trace: Optional[TraceContext] = None,
        epoch: Optional[Any] = None,
    ) -> Any:
        """Distributed selection: routed when the key is covered.

        If the partition attribute appears in the conditions, exactly
        one bucket is consulted (on its first live replica); otherwise
        the selection broadcasts and each bucket ships only its
        matching rows.  ``allow_partial``/``read_quorum`` degrade
        exactly as on :meth:`scan` -- a routed read whose single
        bucket is unreachable degrades to an empty, explicitly-partial
        :class:`repro.gov.Result`.
        """
        heading = self.heading(name)
        heading.require(conditions)
        attr = self.partition_attr(name)
        self._check_epoch(name, epoch)
        with self._query(
            "select_eq(%s, %s)" % (name, dict(conditions)), "select_eq",
            priority=priority, trace=trace,
        ) as context:
            if attr in conditions:
                context.span.set("routing", "routed")
                bucket_index = self._placements[name].bucket_for(
                    conditions[attr]
                )
                downgraded = self._check_quorum(
                    name, bucket_index, read_quorum, allow_partial
                )
                try:
                    result = self._attempt_on_replicas(
                        context, name, bucket_index,
                        lambda node: local_select_eq(
                            node.bucket(name, bucket_index), conditions
                        ),
                        key=xrecord({attr: conditions[attr]}),
                    )
                except (ClusterUnavailableError, CircuitOpenError) as error:
                    if not allow_partial:
                        raise
                    return self._finish_partial(
                        context,
                        Relation(heading, xset([])),
                        [MissingBucket(
                            name, bucket_index,
                            getattr(error, "reason", str(error)),
                        )],
                        downgraded,
                    )
                assert result is not None
                if not allow_partial:
                    return result
                return self._finish_partial(context, result, [], downgraded)
            context.span.set("routing", "broadcast")
            gathered = Relation(heading, xset([]))
            missing: List[MissingBucket] = []
            downgraded = False
            for bucket_index in self._bucket_order(name):
                downgraded |= self._check_quorum(
                    name, bucket_index, read_quorum, allow_partial
                )
                try:
                    local = self._attempt_on_replicas(
                        context, name, bucket_index,
                        lambda node, b=bucket_index: local_select_eq(
                            node.bucket(name, b), conditions
                        ),
                    )
                except (ClusterUnavailableError, CircuitOpenError) as error:
                    if not allow_partial:
                        raise
                    missing.append(MissingBucket(
                        name, bucket_index,
                        getattr(error, "reason", str(error)),
                    ))
                    continue
                assert local is not None
                gathered = local_union(gathered, local)
            if not allow_partial:
                return gathered
            return self._finish_partial(context, gathered, missing, downgraded)

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------

    def join(self, left: str, right: str,
             priority: int = PRIORITY_NORMAL,
             trace: Optional[TraceContext] = None,
             epoch: Optional[Any] = None) -> Relation:
        """Distributed natural join.

        Co-partitioned (both tables partitioned on a shared join
        attribute with identical placement -- same bucket count *and*
        same owner rings, so rebalanced tables requalify only once
        their maps agree again): each bucket joins locally on a shared
        replica and ships only results.  Otherwise the right table is
        re-shuffled on the left's partition attribute first -- every
        shipped row is priced.  (:meth:`execute` layers the
        broadcast-vs-shuffle cost choice and filter pushdown on top of
        this primitive.)
        """
        left_heading = self.heading(left)
        right_heading = self.heading(right)
        shared = left_heading.common(right_heading)
        if not shared:
            raise SchemaError(
                "distributed join of %r and %r has no shared attribute"
                % (left, right)
            )
        left_attr = self.partition_attr(left)
        right_attr = self.partition_attr(right)
        left_map = self._placements[left]
        co_partitioned = (
            left_attr == right_attr
            and left_attr in shared
            and left_map.same_placement(self._placements[right])
        )
        self._check_epoch(left, epoch)
        self._check_epoch(right, epoch)
        with self._query(
            "join(%s, %s)" % (left, right), "join", priority=priority,
            trace=trace,
        ) as context:
            context.span.set(
                "strategy", "co_partitioned" if co_partitioned else "shuffle"
            )
            if co_partitioned:
                partials = []
                for bucket_index in range(left_map.bucket_count):
                    local = self._attempt_on_replicas(
                        context, left, bucket_index,
                        lambda node, b=bucket_index: local_join(
                            node.bucket(left, b), node.bucket(right, b)
                        ),
                    )
                    assert local is not None
                    partials.append(local)
                return self._gathered(partials)
            if left_attr not in shared:
                raise SchemaError(
                    "cannot shuffle: left partition attribute %r is not a "
                    "join attribute" % (left_attr,)
                )
            shuffled = self._shuffle(context, right, left_attr, left_map)
            partials = []
            for bucket_index in range(left_map.bucket_count):
                right_part = shuffled[bucket_index]
                local = self._attempt_on_replicas(
                    context, left, bucket_index,
                    lambda node, b=bucket_index, r=right_part: local_join(
                        node.bucket(left, b), r
                    ),
                )
                assert local is not None
                partials.append(local)
            return self._gathered(partials)

    def _shuffle(
        self,
        context: _QueryContext,
        name: str,
        attr: str,
        target_map: ShardMap,
        pipeline: Optional[ShardPipeline] = None,
    ) -> List[Relation]:
        """Repartition a table by a new attribute, shipping every row.

        With a ``pipeline`` the pushed filters/projection run *inside*
        each source bucket before its rows are shipped -- selection
        and projection below the shuffle, so the wire carries only
        surviving columns of surviving rows.
        """
        heading = self.heading(name)
        heading.require([attr])
        out_heading = (
            heading if pipeline is None or pipeline.attrs is None
            else Heading(pipeline.attrs)
        )
        buckets: List[List] = [[] for _ in range(target_map.bucket_count)]
        for bucket_index in self._bucket_order(name):
            part = self._attempt_on_replicas(
                context, name, bucket_index,
                lambda node, b=bucket_index: (
                    node.bucket(name, b) if pipeline is None
                    else pipeline.apply(node.bucket(name, b))
                ),
            )
            assert part is not None  # rows left their home node (priced)
            for row, _ in part.rows.pairs():
                (value,) = row.elements_at(attr)
                buckets[target_map.bucket_for(value)].append(row)
        return [Relation(out_heading, xset(bucket)) for bucket in buckets]

    def _gathered(self, partials: Sequence[Relation]) -> Relation:
        result: Optional[Relation] = None
        for partial in partials:
            result = partial if result is None else local_union(result, partial)
        assert result is not None
        return result

    # ------------------------------------------------------------------
    # The shard-local coordinator
    # ------------------------------------------------------------------

    def enable_result_cache(self, cache=None, capacity: int = 256):
        """Attach (and return) a coordinator-side result cache.

        Entries are keyed by per-table *write generations* (bumped on
        every load and insert), so results can never leak across a
        data change.  Epoch swings (bucket moves, splits, merges)
        invalidate the moved table's entries *without* bumping its
        generation -- the rows are placement-stable across a move, so
        this is targeted reclamation, never a flush of other tables.
        """
        if cache is None:
            from repro.relational.ivm.cache import QueryResultCache

            cache = QueryResultCache(capacity=capacity, name="cluster")
        self.result_cache = cache
        return cache

    def disable_result_cache(self) -> None:
        self.result_cache = None

    def table_generation(self, name: str) -> int:
        """How many write batches ``name`` has absorbed (0: none)."""
        return self._table_generations.get(name, 0)

    def _bump_generation(self, name: str) -> None:
        self._table_generations[name] = (
            self._table_generations.get(name, 0) + 1
        )
        if self.result_cache is not None:
            self.result_cache.invalidate_tables((name,))

    def execute(
        self,
        plan: Plan,
        priority: int = PRIORITY_NORMAL,
        trace: Optional[TraceContext] = None,
        epoch: Optional[Any] = None,
    ) -> Relation:
        """Execute a local plan tree shard-locally.

        The plan's ``SelectEq``/``SelectPred``/``Project`` chains are
        extracted into per-table :class:`ShardPipeline` pushdowns and
        run *inside* each bucket before rows ship -- selection and
        projection below the shuffle.  A join between two scans picks
        its strategy by estimated shipped rows: co-partitioned when
        the maps agree, else broadcast-small vs shuffle-on-key sized
        from the insert-maintained per-bucket counts and (when
        attached) the ANALYZE statistics catalog.

        ``epoch`` carries the caller's cached map generation (an int,
        or a ``{table: epoch}`` mapping); a stale value is refused
        with :class:`~repro.errors.ShardMovedError` before any bucket
        is read.  A plan that is not well defined on the tables'
        headings is refused with ``SchemaError`` before anything else.
        """
        self._schema.heading_of(plan)
        pipeline = shard_pipeline(plan)
        if pipeline is None:
            raise SchemaError(
                "plan %s is not shard-executable (only SelectEq/"
                "SelectPred/Project chains over Scan or Join push down)"
                % plan.describe()
            )
        if self.result_cache is not None:
            from repro.relational.ivm.cache import (
                plan_cache_key,
                scan_tables,
            )

            plan_key = plan_cache_key(plan)
            if plan_key is not None:
                tables = scan_tables(plan)
                # Epoch fencing comes before the cache: a caller
                # holding a stale map must get ShardMovedError even
                # when the bytes it asked for are sitting in memory.
                for table in tables:
                    if table in self._placements:
                        self._check_epoch(table, epoch)
                fingerprint = tuple(
                    (table, self._table_generations.get(table, 0))
                    for table in tables
                )
                hit = self.result_cache.lookup(plan_key, fingerprint)
                if hit is not None:
                    return hit
                result = self._execute_pipeline(
                    pipeline, priority, trace, epoch
                )
                self.result_cache.store(
                    plan_key, fingerprint, tables, result
                )
                return result
        return self._execute_pipeline(pipeline, priority, trace, epoch)

    def _execute_pipeline(
        self,
        pipeline: ShardPipeline,
        priority: int,
        trace: Optional[TraceContext],
        epoch: Optional[Any],
    ) -> Relation:
        if isinstance(pipeline.source, JoinPlan):
            return self._execute_join(pipeline, priority, trace, epoch)
        return self._execute_scan(pipeline, priority, trace, epoch)

    def _execute_scan(
        self,
        pipeline: ShardPipeline,
        priority: int,
        trace: Optional[TraceContext],
        epoch: Optional[Any],
    ) -> Relation:
        """One table's pipeline: routed when the key is pinned."""
        name = pipeline.source.name
        placement = self._placements[name]
        self._check_epoch(name, epoch)
        with self._query(
            "execute(%s %s)" % (name, pipeline.describe()), "execute",
            priority=priority, trace=trace,
        ) as context:
            context.span.set("epoch", placement.epoch)
            if placement.attr in pipeline.conditions:
                context.span.set("routing", "routed")
                bucket_index = placement.bucket_for(
                    pipeline.conditions[placement.attr]
                )
                result = self._attempt_on_replicas(
                    context, name, bucket_index,
                    lambda node: pipeline.apply(
                        node.bucket(name, bucket_index)
                    ),
                    key=xrecord({
                        placement.attr: pipeline.conditions[placement.attr]
                    }),
                )
                assert result is not None
                return result
            context.span.set("routing", "broadcast")
            parts = []
            for bucket_index in self._bucket_order(name):
                part = self._attempt_on_replicas(
                    context, name, bucket_index,
                    lambda node, b=bucket_index: pipeline.apply(
                        node.bucket(name, b)
                    ),
                )
                assert part is not None
                parts.append(part)
            return self._gathered(parts)

    def _estimate_side(self, name: str, pipeline: ShardPipeline) -> float:
        """Estimated post-pushdown rows one side ships."""
        base = float(sum(self._bucket_rows.get(name, {}).values()))
        stats = None
        if self._stats_catalog is not None:
            stats = self._stats_catalog.get(name, allow_stale=True)
        return estimate_shard_rows(
            base, pipeline.conditions, len(pipeline.predicates), stats
        )

    def _execute_join(
        self,
        outer: ShardPipeline,
        priority: int,
        trace: Optional[TraceContext],
        epoch: Optional[Any],
    ) -> Relation:
        """Distributed join with pushdown and a costed strategy choice.

        Strategies, cheapest-shipping first from the estimates:

        * ``co_partitioned`` -- maps agree and the partition attribute
          survives both pipelines: bucket-local joins, zero movement.
        * ``broadcast`` -- the smaller (estimated) side gathers once,
          then ships to every bucket of the larger side.
        * ``shuffle`` -- the right side re-keys on the left's
          partition attribute and moves once.

        The chosen strategy lands on the root span and the
        ``repro_shard_join_total`` counter, so plans are auditable
        from traces alone.
        """
        source = outer.source
        left_pipe = shard_pipeline(source.left)
        right_pipe = shard_pipeline(source.right)
        if (
            left_pipe is None or right_pipe is None
            or not isinstance(left_pipe.source, Scan)
            or not isinstance(right_pipe.source, Scan)
        ):
            raise SchemaError(
                "distributed execute supports joins of two pushdown "
                "pipelines over scans; got %s" % source.describe()
            )
        left, right = left_pipe.source.name, right_pipe.source.name
        left_heading = self._schema.heading_of(source.left)
        right_heading = self._schema.heading_of(source.right)
        shared = left_heading.common(right_heading)
        if not shared:
            raise SchemaError(
                "distributed join of %r and %r has no shared attribute"
                % (left, right)
            )
        self._check_epoch(left, epoch)
        self._check_epoch(right, epoch)
        left_map = self._placements[left]
        right_map = self._placements[right]
        co_partitioned = (
            left_map.attr == right_map.attr
            and left_map.attr in shared
            and left_map.same_placement(right_map)
        )
        left_rows = self._estimate_side(left, left_pipe)
        right_rows = self._estimate_side(right, right_pipe)
        shuffle_possible = left_map.attr in shared
        if co_partitioned:
            strategy = "co_partitioned"
        else:
            small_rows = min(left_rows, right_rows)
            big_buckets = (
                right_map.bucket_count
                if left_rows <= right_rows
                else left_map.bucket_count
            )
            broadcast = broadcast_join_cost(small_rows, big_buckets)
            shuffle = shuffle_join_cost(right_rows)
            strategy = (
                "shuffle"
                if shuffle_possible and shuffle < broadcast
                else "broadcast"
            )
        with self._query(
            "execute(%s %s |x| %s %s)" % (
                left, left_pipe.describe(), right, right_pipe.describe()
            ),
            "execute_join", priority=priority, trace=trace,
        ) as context:
            context.span.set("strategy", strategy)
            context.span.set("est_left_rows", int(left_rows))
            context.span.set("est_right_rows", int(right_rows))
            if _obs_enabled():
                _metrics.registry().counter(
                    "repro_shard_join_total",
                    "Distributed joins by chosen strategy.", ("strategy",),
                ).inc_key((strategy,))
            if strategy == "co_partitioned":
                joined = self._join_co_partitioned(
                    context, left, right, left_pipe, right_pipe, left_map
                )
            elif strategy == "shuffle":
                joined = self._join_shuffle(
                    context, left, right, left_pipe, right_pipe, left_map
                )
            else:
                joined = self._join_broadcast(
                    context, left, right, left_pipe, right_pipe,
                    small_left=left_rows <= right_rows,
                )
            return outer.apply(joined)

    def _join_co_partitioned(
        self, context, left, right, left_pipe, right_pipe, left_map
    ) -> Relation:
        partials = []
        for bucket_index in range(left_map.bucket_count):
            local = self._attempt_on_replicas(
                context, left, bucket_index,
                lambda node, b=bucket_index: local_join(
                    left_pipe.apply(node.bucket(left, b)),
                    right_pipe.apply(node.bucket(right, b)),
                ),
            )
            assert local is not None
            partials.append(local)
        return self._gathered(partials)

    def _join_shuffle(
        self, context, left, right, left_pipe, right_pipe, left_map
    ) -> Relation:
        shuffled = self._shuffle(
            context, right, left_map.attr, left_map, pipeline=right_pipe
        )
        partials = []
        for bucket_index in range(left_map.bucket_count):
            right_part = shuffled[bucket_index]
            local = self._attempt_on_replicas(
                context, left, bucket_index,
                lambda node, b=bucket_index, r=right_part: local_join(
                    left_pipe.apply(node.bucket(left, b)), r
                ),
            )
            assert local is not None
            partials.append(local)
        return self._gathered(partials)

    def _join_broadcast(
        self, context, left, right, left_pipe, right_pipe, small_left
    ) -> Relation:
        """Gather the small side once, ship it to every big bucket."""
        if small_left:
            small_name, small_pipe = left, left_pipe
            big_name, big_pipe = right, right_pipe
        else:
            small_name, small_pipe = right, right_pipe
            big_name, big_pipe = left, left_pipe
        parts = []
        for bucket_index in self._bucket_order(small_name):
            part = self._attempt_on_replicas(
                context, small_name, bucket_index,
                lambda node, b=bucket_index: small_pipe.apply(
                    node.bucket(small_name, b)
                ),
            )
            assert part is not None
            parts.append(part)
        small = self._gathered(parts)
        partials = []
        big_map = self._placements[big_name]
        for bucket_index in range(big_map.bucket_count):
            # The small side ships out to the serving node (priced as
            # an ordinary message), which joins against its local
            # filtered bucket and ships only results back.
            self.network.ship(small.rows)
            local = self._attempt_on_replicas(
                context, big_name, bucket_index,
                lambda node, b=bucket_index: local_join(
                    big_pipe.apply(node.bucket(big_name, b)), small
                ),
            )
            assert local is not None
            partials.append(local)
        return self._gathered(partials)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    _COMBINABLE = {"count", "sum", "min", "max"}

    def aggregate(
        self,
        name: str,
        group_attrs: Sequence[str],
        aggregations: Mapping[str, Tuple[str, str]],
        priority: int = PRIORITY_NORMAL,
        trace: Optional[TraceContext] = None,
        epoch: Optional[Any] = None,
    ) -> Relation:
        """Distributed group-by with partial-aggregate pushdown.

        Buckets compute local aggregates on their first live replica
        and ship the (small) summaries; the coordinator combines:
        counts and sums add, mins and maxes fold.  ``avg`` is
        rewritten as sum+count automatically.
        """
        rewritten: Dict[str, Tuple[str, str]] = {}
        averages: Dict[str, Tuple[str, str]] = {}
        for out_name, (fn_name, source) in aggregations.items():
            if fn_name == "avg":
                averages[out_name] = ("__sum_" + out_name, "__cnt_" + out_name)
                rewritten["__sum_" + out_name] = ("sum", source)
                rewritten["__cnt_" + out_name] = ("count", source)
            elif fn_name in self._COMBINABLE:
                rewritten[out_name] = (fn_name, source)
            else:
                raise SchemaError(
                    "aggregate %r is not distributable" % (fn_name,)
                )
        self._check_epoch(name, epoch)
        with self._query(
            "aggregate(%s, %s)" % (name, list(group_attrs)), "aggregate",
            priority=priority, trace=trace,
        ) as context:
            partial_rows: Dict[tuple, Dict[str, Any]] = {}
            for bucket_index in range(self._placements[name].bucket_count):

                def partial(node, b=bucket_index):
                    partition = node.bucket(name, b)
                    if not partition:
                        return None  # nothing to summarize, nothing ships
                    return local_aggregate(partition, group_attrs, rewritten)

                local = self._attempt_on_replicas(
                    context, name, bucket_index, partial
                )
                if local is None:
                    continue
                for row in local.iter_dicts():
                    key = tuple(row[attr] for attr in group_attrs)
                    merged = partial_rows.get(key)
                    if merged is None:
                        partial_rows[key] = dict(row)
                        continue
                    for out_name, (fn_name, _) in rewritten.items():
                        if fn_name in ("count", "sum"):
                            merged[out_name] += row[out_name]
                        elif fn_name == "min":
                            merged[out_name] = min(
                                merged[out_name], row[out_name]
                            )
                        elif fn_name == "max":
                            merged[out_name] = max(
                                merged[out_name], row[out_name]
                            )
        final_rows = []
        for merged in partial_rows.values():
            row = {attr: merged[attr] for attr in group_attrs}
            for out_name in aggregations:
                if out_name in averages:
                    sum_name, count_name = averages[out_name]
                    row[out_name] = merged[sum_name] / merged[count_name]
                else:
                    row[out_name] = merged[out_name]
            final_rows.append(row)
        heading = list(group_attrs) + list(aggregations)
        return Relation.from_dicts(heading, final_rows)

    # ------------------------------------------------------------------
    # Online rebalancing
    # ------------------------------------------------------------------

    @property
    def moves(self) -> List[ShardMove]:
        """Every move begun on this cluster, finished or not."""
        return list(self._moves)

    def _relation(self, table: str, rows: Iterable[Any]) -> Relation:
        """Wrap raw row values back into the table's relation type."""
        return Relation(self.heading(table), xset(list(rows)))

    def _install_map(self, table: str, new_map: ShardMap,
                     cause: str) -> None:
        """Atomically swing ``table`` to ``new_map``.

        Validation, the in-memory swap, and the durable catalog
        rewrite happen with no tick in between: a crash before this
        call leaves the old epoch fully in charge, a crash after
        leaves the new one -- never both.
        """
        new_map.validate()
        self._placements[table] = new_map
        self._persist_placements()
        if self._wal is not None:
            self._wal.epoch(table, new_map.epoch)
        if self.result_cache is not None:
            # Targeted, not a flush: a moved bucket leaves the rows
            # untouched, but re-caching under the new epoch keeps the
            # cache honest about what it would recompute today.
            self.result_cache.invalidate_tables((table,))
        if _obs_enabled():
            _record_shard_event(cause, table, epoch=new_map.epoch)

    def _replay_bucket(self, name: str, bucket: int,
                       upto_lsn: int) -> Relation:
        """Ground truth for one bucket: fold the write log to a LSN.

        ``store`` entries replace, ``merge`` entries union -- the same
        semantics replicas apply, minus any node having to be alive.
        This is the arbiter the verify step consults when donor and
        recipient disagree.
        """
        truth = Relation(self.heading(name), xset([]))
        for lsn, table, entry_bucket, kind, rows in self._write_log:
            if lsn > upto_lsn:
                break
            if table != name or entry_bucket != bucket:
                continue
            truth = rows if kind == "store" else local_union(truth, rows)
        return truth

    def begin_move(self, table: str, bucket: int, recipient: int,
                   donor: Optional[int] = None,
                   chunk_rows: int = 64) -> ShardMove:
        """Start moving one bucket replica to ``recipient``.

        ``donor`` defaults to the bucket's current primary.  The move
        is a resumable state machine driven by :meth:`step_rebalance`
        (or :meth:`rebalance` to run it to completion); beginning it
        only records intent and journals it durably -- no data moves
        until the first step.
        """
        placement = self.placement(table)
        if not placement.has_bucket(bucket):
            raise SchemaError(
                "table %r has no bucket %d" % (table, bucket)
            )
        ring = placement.replicas(bucket)
        if donor is None:
            donor = ring[0]
        if donor not in ring:
            raise SchemaError(
                "node %d does not hold %s[%d] (ring %s)"
                % (donor, table, bucket, placement.ring(bucket))
            )
        if recipient in ring:
            raise SchemaError(
                "node %d already holds %s[%d] (ring %s)"
                % (recipient, table, bucket, placement.ring(bucket))
            )
        if not 0 <= recipient < len(self.nodes):
            raise SchemaError(
                "no node %d in a %d-node cluster"
                % (recipient, len(self.nodes))
            )
        move = ShardMove(table, bucket, donor, recipient,
                         chunk_rows=chunk_rows)
        self._moves.append(move)
        self._journal_move(move)
        return move

    def step_rebalance(self) -> bool:
        """Advance the oldest unfinished move by one step.

        Each step ticks the shared fault clock exactly once, so a
        :class:`FaultPlan` schedule lands crashes at deterministic
        points *inside* the state machine.  Returns ``True`` when the
        step made progress, ``False`` when there was nothing to do or
        the move is stalled on a dead endpoint (the caller decides
        whether to revive or wait).
        """
        for move in self._moves:
            if not move.done:
                return move.step(self)
        return False

    def rebalance(self, max_steps: int = 10000) -> None:
        """Drive every pending move to completion.

        Endpoints that die mid-move are revived (rebuild-then-serve)
        and the move resumes where it stalled.  Raises
        :class:`~repro.errors.ClusterUnavailableError` if the budget
        of steps is exhausted -- the signal that a fault plan keeps
        re-killing faster than recovery can make progress.
        """
        for _ in range(max_steps):
            pending = [move for move in self._moves if not move.done]
            if not pending:
                return
            if not self.step_rebalance():
                move = pending[0]
                for index in (move.donor, move.recipient):
                    node = self.nodes[index]
                    if not node.alive:
                        self.on_revive(node)
        if any(not move.done for move in self._moves):
            raise ClusterUnavailableError(
                "rebalance did not converge in %d steps" % max_steps
            )

    def split_table(self, name: str) -> ShardMap:
        """Double ``name``'s bucket count in place (one epoch swing).

        Atomic from the fault clock's point of view: no tick happens
        between reading the old buckets and installing the new map,
        so a seeded crash lands either entirely before (old epoch,
        old buckets) or entirely after (new epoch, new buckets).  Row
        data is re-hashed locally on each ring node; the write log
        gains full-bucket snapshot entries under the new numbering so
        revive-time rebuilds and fsck replay agree with the split.
        """
        placement = self.placement(name)
        new_map = placement.split()
        return self._rehash_into(name, placement, new_map, "split")

    def merge_table(self, name: str) -> ShardMap:
        """Halve ``name``'s bucket count (inverse of a split)."""
        placement = self.placement(name)
        new_map = placement.merged()
        return self._rehash_into(name, placement, new_map, "merge")

    def _rehash_into(self, name: str, old_map: ShardMap,
                     new_map: ShardMap, cause: str) -> ShardMap:
        """Re-bucket a whole table under a new map, atomically.

        The new map is installed *before* the snapshot log entries are
        appended so that revive-time rebuilds (which consult the
        installed map's ``has_bucket``) accept the new numbering;
        entries logged under the old numbering are superseded and
        skipped by the same guard.  Old high-numbered bucket copies
        are dropped from their holders -- a crash between install and
        the drops leaves orphans that ``repro fsck`` reports.
        """
        attr = self._partition_attrs[name]
        heading = self.heading(name)
        buckets: Dict[int, List[Any]] = {
            index: [] for index in range(new_map.bucket_count)
        }
        rows_moved = 0
        for old_bucket in range(old_map.bucket_count):
            current = self._replay_bucket(name, old_bucket, self._log_lsn)
            for row, _ in current.rows.pairs():
                (value,) = row.elements_at(attr)
                buckets[new_map.bucket_for(value)].append(row)
                rows_moved += 1
        self._install_map(name, new_map, cause)
        counts: Dict[int, int] = {}
        for bucket_index in range(new_map.bucket_count):
            part = Relation(heading, xset(buckets[bucket_index]))
            counts[bucket_index] = part.cardinality()
            lsn = self._log_append(name, bucket_index, "store", part)
            for node_index in new_map.replicas(bucket_index):
                node = self.nodes[node_index]
                if not node.alive:
                    continue  # missed snapshot; rebuilt on revive
                node.store(name, part, bucket=bucket_index)
                node.applied_lsn = max(node.applied_lsn, lsn)
        self._bucket_rows[name] = counts
        for old_bucket in range(new_map.bucket_count,
                                old_map.bucket_count):
            for node_index in old_map.replicas(old_bucket):
                self.nodes[node_index].drop_bucket(name, old_bucket)
        if _obs_enabled():
            _record_shard_event(
                cause, name, rows=rows_moved, epoch=new_map.epoch
            )
        return new_map

    def __repr__(self) -> str:
        live = sum(1 for node in self.nodes if node.alive)
        return "Cluster(%d nodes, %d live, rf=%d, tables=%s)" % (
            len(self.nodes), live, self.replication_factor,
            sorted(self._partition_attrs),
        )
