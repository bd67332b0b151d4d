"""A simulated distributed backend: one engine, sharded and replicated.

The VLDB-1977 title promises "intrinsically reliable ... very large,
distributed, backend information systems".  Real cluster hardware is
out of scope for this reproduction (see DESIGN.md's substitution
table), so this module simulates the distribution layer faithfully
enough to measure its algebra: a :class:`Cluster` of in-process
:class:`Node` objects holding hash partitions of the tables of **one**
:class:`~repro.relational.tx.TransactionManager`
(:attr:`Cluster.manager`), and query execution that ships *sets*
between nodes -- with every shipment priced in real serialized bytes
via :func:`repro.xst.serialization.dumps`.

A backend relation is one extended set; a bucket is its restriction to
the rows whose partition value hashes there (Def 7.6), and a replica
is a copy of that restriction -- never a second source of truth:

* **a cluster write is an engine commit.**  :meth:`Cluster.insert` is
  ``manager.table(name).insert_many(rows)`` -- a statement on an
  enrolled table is a one-statement transaction; deletes, updates,
  multi-table and deferred transactions, constraints and snapshots
  are the manager's own API.  Heading and constraint
  checks, the exact diff, the WAL record and the MVCC version happen
  once, in the engine;
* **replication is the commit listener.**  One ``manager.subscribe``
  listener splits each committed ``(inserted, deleted)`` diff by bucket
  and applies it to every *reachable* replica, ticking the fault
  injector per replica step -- so seeded ``crash`` events tear a
  fan-out at a deterministic point.  A refused commit never reaches
  the listener: no tick, no version, no replica moves;
* **recovery is a set difference, not a history.**  A killed node is
  *unreachable*, not erased -- its buckets survive (durable disks) but
  it *misses* commits while down.  A revive ships ``truth ~ have`` and
  retracts ``have ~ truth`` for every bucket the node replicates under
  the installed map, *before* the node serves again, so any readable
  replica is consistent.  Move catch-up, the swing, the post-move
  verify and split/merge read the committed relation the same way;
  what the coordinator retains is O(data), never O(writes);
* reads go through :meth:`Cluster.execute` alone, the third kernel
  backend of ``Plan.apply``: row-local operators run inside each
  bucket before rows ship, a key-covering selection routes to one
  bucket, joins are co-partitioned, broadcast-small or shuffle-on-key
  by estimated shipped rows, an aggregate whose functions combine
  ships one summary row per group and bucket, anything else gathers
  its inputs.  Reads are served by the first live replica, retry lost
  shipments with (simulated) backoff, fail over down the ring, and raise
  :class:`repro.errors.ClusterUnavailableError` only when no correct
  answer is obtainable -- never a wrong one.

Placement is **explicit and versioned**: every table carries a
:class:`repro.relational.sharding.ShardMap` -- an epoch-numbered
bucket->owner-ring map with a bucket count decoupled from the node
count.  Requests stamped with a stale epoch are refused with a typed
:class:`~repro.errors.ShardMovedError` before any bucket is read, and
online rebalancing (:meth:`Cluster.rebalance`, :meth:`Cluster.split_table`,
:meth:`Cluster.merge_table`) moves buckets between nodes as a
resumable, journaled state machine driven on the same deterministic
tick clock as the fault injector -- so seeded kill/revive events land
mid-copy, mid-catch-up and mid-swing, and the move provably completes
afterwards.  Epoch swings are marked in the manager's WAL, between the
commits they happened between.
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
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    CircuitOpenError,
    ClusterUnavailableError,
    SchemaError,
)
from repro.gov.breaker import BreakerBoard
from repro.gov.governor import Deadline
from repro.gov.governor import active as _gov_active
from repro.gov.governor import checkpoint as _checkpoint
from repro.gov.result import MissingBucket, Result
from repro.obs import metrics as _metrics
from repro.obs.instrument import enabled as _obs_enabled
from repro.obs.instrument import record_recovery as _record_recovery
from repro.obs.trace import Span, TraceContext, Tracer
from repro.relational import algebra
from repro.relational.constraints import Table
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
from repro.relational.query import Join as JoinPlan
from repro.relational.query import Plan, Project, Restrict, Scan, scan_tables
from repro.relational.relation import Relation
from repro.relational.sharding import (
    ShardCatalog,
    ShardMap,
    ShardMove,
    bucket_difference,
)
from repro.relational.schema import Heading
from repro.relational.tx import CommitDiff, TransactionManager
from repro.xst.builders import xrecord, xset
from repro.xst.ordering import canonical_key
from repro.xst.serialization import dumps
from repro.xst.xset import XSet

__all__ = ["NetworkStats", "Node", "Cluster"]


class NetworkStats:
    """Counters for simulated shipments, faults and recovery work.

    Plain, always-on attributes of one cluster (not metric families):
    what the fault benchmark and the tests read.
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

    def record_retry(self, backoff_s: float = 0.0) -> None:
        self.retries += 1
        self.backoff_s += backoff_s

    def record_failover(self) -> None:
        self.failovers += 1

    def record_delay(self, seconds: float) -> None:
        self.delay_s += seconds

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
    buckets, but misses commits until a revive-time rebuild ships it
    the difference to the committed relation).
    """

    def __init__(self, name: str, index: int = 0):
        self.name = name
        self.index = index
        self.alive = True
        self.delay_s = 0.0
        self._buckets: Dict[str, Dict[int, Relation]] = {}
        # Rebalance staging: an in-flight shard move copies into here
        # so a half-received bucket is never visible to reads; the
        # swing promotes it into ``_buckets`` atomically.  Durable,
        # like the buckets -- a killed recipient resumes its staged
        # copy on revive.
        self._staged: Dict[Tuple[str, int], Relation] = {}

    # -- storage (durable: works regardless of liveness) ---------------

    def store(self, table: str, partition: Relation, bucket: int) -> None:
        self._buckets.setdefault(table, {})[bucket] = partition

    def apply(self, table: str, bucket: int, gained: Relation,
              lost: Relation) -> None:
        """Move a stored bucket to ``(held ~ lost) | gained`` (the
        replication path: one committed diff, restricted to the bucket)."""
        held = self._buckets.setdefault(table, {})
        held[bucket] = _patched(held.get(bucket), gained, lost)

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

    def stage_apply(self, table: str, bucket: int, gained: Relation,
                    lost: Relation) -> None:
        self._staged[(table, bucket)] = _patched(
            self._staged.get((table, bucket)), gained, lost
        )

    def staged(self, table: str, bucket: int) -> Optional[Relation]:
        return self._staged.get((table, bucket))

    def promote_stage(self, table: str, bucket: int) -> None:
        """Swing: staged rows become the live bucket copy, atomically."""
        rows = self._staged.pop((table, bucket), None)
        if rows is not None:
            self.store(table, rows, bucket)

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
            merged = part if merged is None else algebra.union(merged, part)
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


def _patched(held: Optional[Relation], gained: Relation,
             lost: Relation) -> Relation:
    """``(held ~ lost) | gained``: a copy after one diff reaches it."""
    if held is None:
        return gained
    return algebra.union(algebra.difference(held, lost), gained)


def _by_bucket(rows: XSet, shard_map: ShardMap,
               attr: Optional[str] = None) -> Dict[int, List[Any]]:
    """Split a row set by where ``shard_map`` routes each row, read
    from ``attr`` (default: the map's own partition attribute)."""
    attr = shard_map.attr if attr is None else attr
    parts: Dict[int, List[Any]] = {}
    for row, _ in rows.pairs():
        (value,) = row.elements_at(attr)
        parts.setdefault(shard_map.bucket_for(value), []).append(row)
    return parts


class _QueryContext:
    """Per-query bookkeeping: the root span and the degraded-mode terms.

    The span tree records one child per bucket access (successful or
    terminally failed), which :mod:`repro.relational.profile` renders
    as an EXPLAIN-style tree and ``repro obs-trace`` exports.

    ``deadline`` is the ambient governor's deadline, or ``None``: a
    cluster read has no time budget of its own.  Backoff sleeps and
    node delays both draw it down, each simulated second once.
    """

    __slots__ = ("describe", "span", "deadline", "trace", "allow_partial",
                 "read_quorum", "missing", "downgraded")

    def __init__(self, describe: str, span: Span,
                 deadline: Optional[Deadline] = None,
                 trace: Optional[TraceContext] = None,
                 allow_partial: bool = False,
                 read_quorum: Optional[int] = None):
        self.describe = describe
        self.span = span
        self.deadline = deadline
        #: The causal context child operations (per-bucket reads,
        #: rebuilds) inherit: same trace id, this query's root span as
        #: causal parent.
        self.trace = trace
        #: Degraded-mode terms of this query and what :meth:`Cluster.
        #: _gather` has recorded under them so far: the missing-bucket
        #: manifest and whether any read ran below its quorum.
        self.allow_partial = allow_partial
        self.read_quorum = read_quorum
        self.missing: List[MissingBucket] = []
        self.downgraded = False


class _Sharded(NamedTuple):
    """An operand that still lives in its buckets: the union, over
    ``table``'s buckets, of ``stages`` applied to the bucket.

    A bucket is a restriction of its relation (Def 7.6), the relation
    is the union of its buckets and a row-local operator commutes with
    that union -- so adding a stage *is* applying the operator, and
    nothing ships until something gathers the operand.  ``origin``
    maps each attribute it has now, in heading order, to the table's
    own name for it: routing and sizing read ``conditions`` (the first
    equality seen per attribute) and the partition attribute under
    those names however the plan renamed them.  ``predicates`` counts
    every other comparison (:func:`_pinning`).
    """

    table: str
    origin: Mapping[str, str]
    stages: Tuple[Tuple[Callable[[Relation, Any], Relation], Any], ...]
    conditions: Mapping[str, Any]
    predicates: int

    @property
    def heading(self) -> Heading:
        return Heading(tuple(self.origin))

    def run(self, bucket: Relation) -> Relation:
        """The stages, in plan order, on one bucket's rows (node-local)."""
        for kernel, argument in self.stages:
            bucket = kernel(bucket, argument)
        return bucket


def _row_local(changes: Callable[[_Sharded, Any], Dict[str, Any]]):
    """A kernel that commutes with the union of buckets: one more stage
    of an operand still in them (``changes`` says what else about it
    moves), ``algebra``'s kernel of the same name on gathered rows."""
    kernel = getattr(algebra, changes.__name__)

    def method(self, operand: Any, argument: Any) -> Any:
        if not isinstance(operand, _Sharded):
            return kernel(operand, argument)
        return operand._replace(
            stages=operand.stages + ((kernel, argument),),
            **changes(operand, argument)
        )

    return method


class _ShardKernels:
    """The cluster as a kernel backend of :meth:`Plan.apply`, over one
    query: the names :mod:`~repro.relational.algebra` spells.  The
    row-local four are pushed into the buckets, ``join`` keeps its
    host side there and ``aggregate`` summarizes there what combines;
    every other name -- ``union``, ``difference``, ``limit``, whatever
    a later operator calls -- gathers its sharded operands and runs
    ``algebra``'s kernel of that name, so a new operator runs here
    without a line and only one that wants pushdown adds a method."""

    def __init__(self, cluster: "Cluster", context: _QueryContext):
        self.cluster = cluster
        self.context = context

    def fold(self, plan: Plan) -> Any:
        """``plan`` bottom-up, the twin of ``Database._execute_raw``; a
        ``Scan`` is the table, still in its buckets.  It charges no
        per-node governor checkpoint (``execute_node`` does): a cluster
        read pays the kernels' own and one per bucket shipment, and
        serving the cluster is where that gets decided."""
        if isinstance(plan, Scan):
            names = self.cluster.manager.table(plan.name).heading.names
            return _Sharded(plan.name, dict(zip(names, names)), (), {}, 0)
        return plan.apply(
            self, [self.fold(child) for child in plan.children()]
        )

    def __getattr__(self, name: str) -> Callable[..., Relation]:
        kernel = getattr(algebra, name)
        return lambda *operands: kernel(*map(self.gather, operands))

    @_row_local
    def restrict(operand, comparisons):
        # Each restriction is its own stage, so conflicting constants
        # compose to the empty answer; routing keeps the first seen.
        conditions, predicates = _pinning(
            operand.conditions, operand.predicates, comparisons,
            operand.origin,
        )
        return {"conditions": conditions, "predicates": predicates}

    @_row_local
    def project(operand, attrs):
        return {"origin": {attr: operand.origin[attr] for attr in attrs}}

    @_row_local
    def rename(operand, mapping):
        return {"origin": {
            mapping.get(name, name): own
            for name, own in operand.origin.items()
        }}

    def _shipped(
        self,
        operand: _Sharded,
        action: Callable[[Node, int], Optional[Relation]],
    ) -> List[Relation]:
        """What ``action`` ships from each bucket ``operand`` must
        read: the one owning bucket when its equalities pin the
        partition attribute, else every bucket."""
        name = operand.table
        placement = self.cluster._placements[name]
        buckets = key = None
        if placement.attr in operand.conditions:
            pinned = operand.conditions[placement.attr]
            buckets = [placement.bucket_for(pinned)]
            key = xrecord({placement.attr: pinned})
        self.context.span.set("epoch", placement.epoch)
        self.context.span.set(
            "routing", "broadcast" if buckets is None else "routed"
        )
        return self.cluster._gather(
            self.context, name, action, buckets=buckets, key=key
        )

    def gather(self, operand: Any) -> Any:
        """A sharded operand's rows, shipped to the coordinator;
        anything else is here."""
        if not isinstance(operand, _Sharded):
            return operand
        name = operand.table
        return self.cluster._union(operand.heading, self._shipped(
            operand, lambda node, b: operand.run(node.bucket(name, b))
        ))

    def _disjoint(self, operand: _Sharded) -> bool:
        """No row can come out of two of the buckets ``operand`` reads:
        it still carries the partition attribute (rows of different
        buckets differ on it) or its equalities pin one bucket."""
        attr = self.cluster._placements[operand.table].attr
        return attr in operand.origin.values() or attr in operand.conditions

    def aggregate(
        self,
        operand: Any,
        group_attrs: Sequence[str],
        aggregations: Mapping[str, Tuple[str, str]],
    ) -> Relation:
        """Partial-aggregate pushdown: when the operand is still in
        its buckets and every function combines, each bucket runs its
        stages, summarizes and ships one row per group (an empty bucket
        ships nothing); the coordinator combines -- counts and sums
        add, mins and maxes fold by the kernel's order, ``avg`` is
        sum / count.  Summaries add only over disjoint bucket outputs:
        a projection that dropped the partition attribute dedups
        within a bucket, not across them, so unless the read is pinned
        to one bucket only ``min``/``max`` (idempotent) still push
        down.  Anything else (``set_of``, gathered rows) aggregates at
        the coordinator."""
        functions = {fn_name for fn_name, _ in aggregations.values()}
        if not isinstance(operand, _Sharded) or not functions <= set(
            _PARTIALS if self._disjoint(operand) else ("min", "max")
        ):
            return algebra.aggregate(
                self.gather(operand), group_attrs, aggregations
            )
        name = operand.table
        partials = {
            "%s.%s" % (part, out_name): (part, source)
            for out_name, (fn_name, source) in aggregations.items()
            for part in _PARTIALS[fn_name]
        }

        def summary(node: Node, b: int) -> Optional[Relation]:
            rows = operand.run(node.bucket(name, b))
            if not rows:
                return None  # nothing to summarize, nothing ships
            return algebra.aggregate(rows, group_attrs, partials)

        merged: Dict[tuple, Dict[str, Any]] = {}
        for shipped in self._shipped(operand, summary):
            for row in shipped.iter_dicts():
                key = tuple([row[attr] for attr in group_attrs])
                held = merged.setdefault(key, row)
                if held is not row:
                    for column, (part, _) in partials.items():
                        held[column] = _COMBINE[part](
                            held[column], row[column]
                        )
        if not merged and not group_attrs:
            # No bucket had a row: the one group is empty.
            return algebra.aggregate(
                Relation(operand.heading, xset()), group_attrs, aggregations
            )
        answer = []
        for held in merged.values():
            row = {attr: held[attr] for attr in group_attrs}
            for out_name, (fn_name, _) in aggregations.items():
                parts = [
                    held["%s.%s" % (part, out_name)]
                    for part in _PARTIALS[fn_name]
                ]
                row[out_name] = (
                    parts[0] / parts[1] if fn_name == "avg" else parts[0]
                )
            answer.append(row)
        return Relation.from_dicts(
            tuple(group_attrs) + tuple(aggregations), answer
        )

    def _side(self, side: Any) -> Tuple[Any, Optional[str], float]:
        """What a join reads of one side: its map, what its partition
        attribute is called now (if kept) and the rows it would ship,
        the table's size shrunk by its filters.  Rows already here
        have no map and are counted."""
        if not isinstance(side, _Sharded):
            return None, None, float(side.cardinality())
        manager = self.cluster.manager
        placement = self.cluster._placements[side.table]
        now = {own: name for name, own in side.origin.items()}
        return placement, now.get(placement.attr), estimate_shard_rows(
            manager.committed().relation(side.table), side.conditions,
            side.predicates,
        )

    def join(self, left: Any, right: Any) -> Relation:
        """Distributed join with a costed strategy choice.

        Strategies, cheapest-shipping first from the estimates:

        * ``co_partitioned`` -- maps agree and both sides still carry
          their partition attribute, under one name: bucket-local
          joins, zero movement.
        * ``broadcast`` -- the smaller (estimated) side gathers once,
          then ships to every bucket of the larger side.
        * ``shuffle`` -- one side re-keys on the other's partition
          attribute (when that is a join attribute) and moves once.
        * ``gather`` -- one side is at the coordinator already and the
          other's filtered rows are the cheaper shipment, or there is
          no join attribute (a product): join there.

        The choice reads only the two sides' estimates, maps and
        shared attributes, never which operand was written first: a
        join and its commutation ship the same rows.  The chosen
        strategy lands on the root span, so plans are auditable from
        traces alone.
        """
        cluster, context = self.cluster, self.context
        sides = (left, right)
        shared = left.heading.common(right.heading)
        maps, keys, rows = zip(*map(self._side, sides))
        # stay/move index the side whose buckets host the join and the
        # side whose rows travel to them.
        if not shared or maps == (None, None):
            # A product (heading_of says so), or nothing left to host.
            options = [(0.0, "gather", 0, 1)]
        elif None in maps:
            move = maps.index(None)
            options = [
                (broadcast_join_cost(rows[move], maps[1 - move].bucket_count),
                 "broadcast", 1 - move, move),
                (shuffle_join_cost(rows[1 - move]), "gather", move, 1 - move),
            ]
        elif (keys[0] in shared and keys[0] == keys[1]
                and maps[0].same_placement(maps[1])):
            options = [(0.0, "co_partitioned", 0, 1)]
        else:
            small = 0 if rows[0] <= rows[1] else 1
            options = [(
                broadcast_join_cost(
                    rows[small], maps[1 - small].bucket_count
                ),
                "broadcast", 1 - small, small,
            )]
            options.extend(
                (shuffle_join_cost(rows[1 - side]), "shuffle", side, 1 - side)
                for side in (0, 1)
                if keys[side] in shared
            )
        # Ties keep the earlier option: broadcast, then right-moves.
        _, strategy, stay, move = min(options, key=lambda option: option[0])
        context.span.set("strategy", strategy)
        context.span.set("est_left_rows", int(rows[0]))
        context.span.set("est_right_rows", int(rows[1]))
        if strategy == "gather":
            return algebra.join(self.gather(left), self.gather(right))
        host, guest = sides[stay], sides[move]

        # A join's own gathers visit every bucket -- the guest's, then
        # the host's, in bucket order -- whatever a side pins: the
        # operation sequence the seeded fault suites are written against.
        def moved(node: Node, b: int) -> Relation:
            return guest.run(node.bucket(guest.table, b))

        if strategy == "co_partitioned":
            arriving = moved  # the host node holds the guest bucket too
        else:
            # The moving side gathers once (unless it is here already).
            arrived = guest
            if maps[move] is not None:
                arrived = cluster._union(
                    guest.heading,
                    cluster._gather(context, guest.table, moved),
                )
            if strategy == "shuffle":
                # Re-keyed by the host's map: every surviving row goes
                # to the one bucket it joins in.
                shares = {
                    # Trusted: rows validated under this heading.
                    bucket: Relation._from_valid(guest.heading, xset(found))
                    for bucket, found in _by_bucket(
                        arrived.rows, maps[stay], keys[stay]
                    ).items()
                }
                arrived = Relation(guest.heading, xset())
            else:
                # It ships out to every serving node (priced as ordinary
                # messages), which joins against its local filtered
                # bucket and ships only results back.
                shares = {}
                size = len(dumps(arrived.rows))
                for _ in range(maps[stay].bucket_count):
                    cluster.network.ship_encoded(size)

            # Host bucket b meets its share of a shuffle (none: no
            # rows), all of a broadcast.
            def arriving(node: Node, b: int) -> Relation:
                return shares.get(b, arrived)

        parts = cluster._gather(
            context, host.table,
            lambda node, b: algebra.join(
                host.run(node.bucket(host.table, b)), arriving(node, b)
            ),
        )
        return cluster._union(left.heading.union(right.heading), parts)


#: The aggregate functions a bucket can summarize: what each ships
#: (``avg`` is its sum and its count) and how two summaries combine.
_PARTIALS = {
    "count": ("count",),
    "sum": ("sum",),
    "min": ("min",),
    "max": ("max",),
    "avg": ("sum", "count"),
}
_COMBINE = {
    "count": lambda held, more: held + more,
    "sum": lambda held, more: held + more,
    "min": lambda held, more: min(held, more, key=canonical_key),
    "max": lambda held, more: max(held, more, key=canonical_key),
}


def _holds_join(plan: Plan) -> bool:
    return isinstance(plan, JoinPlan) or any(map(_holds_join, plan.children()))


def _pinning(conditions, predicates, comparisons, origin):
    """``conditions`` and ``predicates`` after ``comparisons``, named as
    ``origin`` maps them: the first equality at an attribute pins it,
    for routing and sizing; any other comparison filters, a predicate."""
    conditions = dict(conditions)
    for comparison in comparisons:
        attr = origin.get(comparison.attr, comparison.attr)
        if comparison.operator == "=" and attr not in conditions:
            conditions[attr] = comparison.value
        else:
            predicates += 1
    return conditions, predicates


def _describe(plan: Plan) -> str:
    """The root span's name for ``plan``: per scan, what its buckets
    run before they ship (``emp [dept=5 pred*1 pi(name)]``, ``[*]``
    for everything), side by side under the operator that combines
    them (``|x|`` a join).  What sits above a combining operator runs
    on gathered rows and is not named."""
    pushed = []
    while len(plan.children()) == 1:
        pushed.append(plan)
        (plan,) = plan.children()
    if not isinstance(plan, Scan):
        symbol = "|x|" if isinstance(plan, JoinPlan) else plan.describe()
        return (" %s " % symbol).join(map(_describe, plan.children()))
    conditions: Mapping[str, Any] = {}
    predicates, attrs, parts = 0, None, []
    for stage in pushed:  # outermost first
        if isinstance(stage, Restrict):
            conditions, predicates = _pinning(
                conditions, predicates, stage.comparisons, {}
            )
        elif isinstance(stage, Project):
            # The outermost projection fixes the shipped columns.
            attrs = stage.attrs if attrs is None else attrs
        else:
            parts.append(stage.describe())
    if attrs is not None:
        parts.append("pi(%s)" % ",".join(attrs))
    if predicates:
        parts.insert(0, "pred*%d" % predicates)
    if conditions:
        parts.insert(0, ",".join(
            "%s=%r" % item for item in sorted(conditions.items())
        ))
    return "%s [%s]" % (plan.name, " ".join(parts) or "*")


class Cluster:
    """One engine, sharded and replicated: the nodes, the placement
    and the distributed execution strategies over :attr:`manager`.

    ``replication_factor`` is the cluster-wide default copy count for
    :meth:`create_table` (overridable per table).  ``max_attempts``
    bounds per-replica retries of lost/corrupted shipments, with
    simulated exponential backoff starting at ``backoff_base_s``.

    A read is governed by the objects every other read is: the ambient
    :func:`repro.gov.governed` scope's deadline is what node delays and
    backoff draw down (an exhausted one raises
    :class:`~repro.errors.DeadlineExceededError` rather than hanging),
    its budget is charged every bucket shipment at ``shard.<t>[<b>]``,
    and shedding is an :class:`~repro.gov.AdmissionController` the
    caller wraps around :meth:`execute`.  The cluster's one governance
    knob of its own, off by default: ``breakers=True`` arms per-node
    circuit breakers on the cluster's operation counter
    (``breaker_threshold`` consecutive failures open;
    ``breaker_cooldown_ops`` ops later a half-open probe runs, with
    seeded per-node jitter).  An open breaker's node is skipped
    without an attempt, a tick, or backoff.

    Deployment settings (keyword-only, handed straight to the
    :attr:`manager` the cluster builds): ``log=`` a
    :class:`~repro.relational.wal.WriteAheadLog` -- every cluster
    write is one commit record in it and every epoch swing one
    ``EPOCH`` record, carrying the new map, between the commits it
    happened between (placement's only durable form) -- and
    ``result_cache=`` a :class:`~repro.relational.ivm.cache.
    QueryResultCache`, shared with ``manager.committed().execute``.
    """

    def __init__(
        self,
        node_count: int = 4,
        replication_factor: int = 1,
        max_attempts: int = 3,
        backoff_base_s: float = 0.010,
        clock: Optional[Callable[[], float]] = None,
        breakers: bool = False,
        breaker_threshold: int = 3,
        breaker_cooldown_ops: int = 8,
        breaker_jitter_ops: int = 3,
        breaker_seed: int = 0,
        *,
        log: Optional[Any] = None,
        result_cache: Optional[Any] = None,
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
        #: The one engine under the cluster: every logical table
        #: (``"emp"``, never ``"emp#3"``) is enrolled here, every write
        #: is one of its commits, and replicas follow its commit
        #: stream.
        self.manager = TransactionManager(
            {}, log=log, result_cache=result_cache
        )
        self.manager.subscribe(self._replicate)
        self._placements: Dict[str, ShardMap] = {}
        #: Move-journal sink (a DiskRelationStore), when
        #: :meth:`attach_store` connected one: every move step
        #: journals there.
        self._store: Optional[Any] = None
        #: In-flight shard moves, oldest first (FIFO-driven by
        #: :meth:`step_rebalance`).
        self._moves: List[ShardMove] = []
        self._last_context: Optional[_QueryContext] = None

    @property
    def result_cache(self):
        """The coordinator-side result cache: the manager's.  Entries
        are fingerprinted by each scanned table's *committed* relation;
        an epoch swing reclaims the moved table's entries by name."""
        return self.manager.result_cache

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
            _metrics.registry().counter(
                "repro_gov_breaker_transitions_total",
                "Circuit-breaker state transitions.", ("node", "to"),
            ).inc(node=node, to=new)

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
        """Revive ``node``: ship it what it missed, then serve.

        Idempotent (a live node is left alone).  The rebuild runs
        *before* the node is marked reachable, so there is no window
        where a stale replica serves reads.
        """
        if node.alive:
            return
        self._rebuild(node)
        node.recover()

    def _rebuild(self, node: Node) -> None:
        """Reconcile ``node`` with the committed relations.

        For every bucket the node replicates under the *installed*
        maps, ship ``truth ~ have`` and retract ``have ~ truth`` --
        two set differences against the manager's committed value, no
        history consulted -- priced as replica traffic and reported as
        a ``rebuild`` recovery (span + metrics).  A copy that missed
        nothing costs nothing.
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
            for table in sorted(self._placements):
                held = self._placements[table].buckets_on(node.index)
                if not held:
                    continue
                truth = self._partitioned(table)
                for bucket in held:
                    shipped, size = self._ship_delta(bucket_difference(
                        node.stored(table, bucket), truth[bucket]
                    ))
                    node.store(table, truth[bucket], bucket)
                    entries += shipped
                    byte_count += size
            span.set("entries", entries)
            span.set("bytes", byte_count)
            span.set("epoch", epoch)
        finally:
            self.tracer.end(span)
        _record_recovery(
            "rebuild", time.perf_counter() - started, entries, byte_count,
            epoch=epoch,
        )

    def _ship_delta(self, delta: Iterable[Relation],
                    replica: bool = True) -> Tuple[int, int]:
        """Price a ``(gained, lost)`` delta on its way to one copy.

        One shipment for the rows to add, one for the rows to
        retract, none for an empty side; returns ``(messages, bytes)``.
        """
        messages = byte_count = 0
        for payload in delta:
            if payload:
                size = len(dumps(payload.rows))
                self.network.ship_encoded(size, replica=replica)
                messages += 1
                byte_count += size
        return messages, byte_count

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
        """Enrol a table in the engine and hash-partition it.

        ``relation`` is *adopted* as the table's base value -- version
        0 of ``manager.table(name)``, not a commit: nothing is logged
        (a WAL recovery starts from the loaded tables) and no version
        moves.  Declare constraints on ``manager.table(name)``.

        Placement is an explicit :class:`ShardMap` at epoch 1:
        ``buckets`` hash partitions (default: one per node, the
        historical scheme) each owned by a ``replication_factor``-node
        ring (primary plus ring successors).  The primary copy is free
        -- data originates there -- while every extra copy ships over
        the network and is priced in ``NetworkStats.replica_bytes``.

        Unreachable replicas *miss* the load (a revive ships them the
        difference), and each per-replica step ticks the fault
        injector, so a seeded crash can land mid-fan-out.
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
        self.manager.add_table(name, Table(relation.heading, relation))
        # Catalog first: a revive fired by a mid-create tick must be
        # able to see the placement to rebuild the partial table.
        self._placements[name] = placement
        for bucket_index, part in enumerate(self._partitioned(name)):
            for position, node_index in enumerate(
                placement.replicas(bucket_index)
            ):
                self._tick(write=True)
                node = self.nodes[node_index]
                if not node.alive:
                    continue  # missed load; rebuilt on revive
                node.store(name, part, bucket_index)
                if position:
                    self.network.ship(part.rows, replica=True)

    def insert(self, name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert rows as one engine commit; returns the rows added.

        The engine validates, diffs, logs and versions the write once;
        :meth:`_replicate` then carries the committed diff to every
        reachable replica.  A refused write (heading, constraint,
        governor) raises before any tick, version or replica moves.
        """
        self.shard_map(name)
        return self.manager.table(name).insert_many(rows)

    def _replicate(self, version: int, changes: CommitDiff) -> None:
        """The commit listener: carry one commit's diff to the replicas.

        Each changed table's ``(inserted, deleted)`` splits by bucket;
        for each changed bucket in index order and each replica in
        ring order the step ticks the fault injector -- so a seeded
        crash tears the fan-out at a deterministic point -- skips an
        unreachable node (it is rebuilt on revive) and applies
        ``(rows ~ deleted) | inserted``, shipping the diff priced as
        primary or replica traffic.
        """
        for name, (_, inserted, deleted) in changes.items():
            placement = self._placements.get(name)
            if placement is None:
                continue  # enrolled in the engine, never placed here
            gained = _by_bucket(inserted, placement)
            lost = _by_bucket(deleted, placement)
            for bucket_index in sorted(set(gained) | set(lost)):
                diff = (
                    self._relation(name, gained.get(bucket_index, ())),
                    self._relation(name, lost.get(bucket_index, ())),
                )
                for position, node_index in enumerate(
                    placement.replicas(bucket_index)
                ):
                    self._tick(write=True)
                    node = self.nodes[node_index]
                    if not node.alive:
                        continue  # missed commit; rebuilt on revive
                    node.apply(name, bucket_index, *diff)
                    self._ship_delta(diff, replica=position > 0)

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def shard_map(self, name: str) -> ShardMap:
        """The table's current (epoch-stamped) placement map."""
        try:
            return self._placements[name]
        except KeyError:
            raise SchemaError(
                "unknown distributed table %r" % (name,)
            ) from None

    def _relation(self, table: str, rows: Iterable[Any]) -> Relation:
        """Wrap rows of ``table``'s own relation back into its type."""
        # Trusted: a subset of rows the engine validated under this heading.
        return Relation._from_valid(
            self.manager.table(table).heading, xset(rows)
        )

    def _partitioned(self, name: str,
                     shard_map: Optional[ShardMap] = None) -> List[Relation]:
        """The committed relation (never an open transaction's state)
        split by ``shard_map`` (default: the installed one): bucket *b*
        is its restriction to the rows whose partition value hashes to
        *b*.  The ground truth every rebuild, catch-up, verify and
        re-shard differences against."""
        if shard_map is None:
            shard_map = self.shard_map(name)
        committed = self.manager.committed().relation(name)
        parts = _by_bucket(committed.rows, shard_map)
        return [
            self._relation(name, parts.get(index, ()))
            for index in range(shard_map.bucket_count)
        ]

    def shard_catalog(self) -> ShardCatalog:
        """Every table's map, as one serializable catalog."""
        return ShardCatalog(dict(self._placements))

    def attach_store(self, store: Any) -> None:
        """Journal shard moves through a :class:`DiskRelationStore`.

        From here on every rebalance step journals to ``shards.move``,
        which ``repro fsck`` audits, against the placement the log
        holds, for torn swings and orphaned source data.
        """
        self._store = store

    def _journal_move(self, move: ShardMove) -> None:
        """Write (or, once done, clear) the move's durable journal."""
        if self._store is None:
            return
        if move.done:
            self._store.drop_move()
        else:
            self._store.store_move(move.to_xset())

    def _check_epoch(self, name: str, epoch: Optional[Any]) -> None:
        """Refuse a stale-epoch request (or a table never placed here)
        before any work is admitted.

        ``epoch`` is ``None`` (unversioned caller, always current),
        an int, or a mapping of table name to the caller's cached
        epoch -- the shape a client holding several tables' maps
        sends.  A mismatch raises
        :class:`~repro.errors.ShardMovedError` carrying both epochs
        so the caller can refresh and retry immediately.
        """
        requested = epoch.get(name) if isinstance(epoch, dict) else epoch
        self.shard_map(name).check_epoch(name, requested)

    def bucket_stats(self, name: str) -> Dict[int, int]:
        """Per-bucket row counts of the committed relation: exact, as
        the cardinalities of its restrictions."""
        return {
            index: part.cardinality()
            for index, part in enumerate(self._partitioned(name))
        }

    def status(self) -> Dict[str, Any]:
        """A structured snapshot: nodes, tables, placement, network."""
        return {
            "nodes": [
                {
                    "name": node.name,
                    "alive": node.alive,
                    "delay_s": node.delay_s,
                    "tables": {
                        table: {
                            "buckets": list(node.buckets_held(table)),
                            "rows": node.partition(table).cardinality(),
                        }
                        for table in sorted(self._placements)
                        if node.holds(table)
                    },
                }
                for node in self.nodes
            ],
            "tables": {
                table: {
                    "partition_attr": placement.attr,
                    "replication_factor": placement.replication_factor,
                    "epoch": placement.epoch,
                    "buckets": placement.bucket_count,
                }
                for table, placement in sorted(self._placements.items())
            },
            "moves": [repr(move) for move in self._moves if not move.done],
            "version": self.manager.current_version,
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
        placement = self._placements[table]
        replicas = placement.replicas(bucket_index)
        span = self.tracer.start(
            "%s[%d]" % (table, bucket_index), table=table, bucket=bucket_index
        )
        if context.trace is not None:
            context.trace.annotate(span)
        span.set("ring", placement.ring(bucket_index))
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
                            _checkpoint(
                                "shard.%s[%d]" % (table, bucket_index),
                                result.cardinality(),
                                len(result.heading.names),
                            )
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
        self.tracer.advance(seconds)
        if context.deadline is not None:
            context.deadline.charge(seconds)
            context.deadline.check(
                "cluster.%s[%d]" % (table, bucket_index)
            )

    @contextmanager
    def _query(self, describe: str, kind: str,
               trace: Optional[TraceContext] = None,
               allow_partial: bool = False,
               read_quorum: Optional[int] = None,
               ) -> Iterator[_QueryContext]:
        """One query's root span plus context; metrics on completion.

        ``trace`` is an inbound :class:`TraceContext` from the caller
        (a coordinating local plan, a parent service); without one the
        query starts a fresh trace with a counter-allocated id.  Either
        way the root span is stamped with the trace id (and a
        ``link_parent`` back-link when the causal parent lives on
        another tracer) and its baggage, child bucket spans inherit
        the context, and the query-latency histogram records the trace
        id as the bucket's exemplar -- the histogram-to-trace link.
        """
        if trace is None:
            trace = TraceContext("t-%06d" % next(self._trace_ids))
        governor = _gov_active()
        started = time.perf_counter()
        with self.tracer.span(describe, kind=kind) as span:
            trace.annotate(span)
            for bag_key in sorted(trace.baggage):
                span.set("bag_%s" % bag_key, trace.baggage[bag_key])
            context = _QueryContext(
                describe, span,
                deadline=None if governor is None else governor.deadline,
                trace=trace.child_of(span),
                allow_partial=allow_partial, read_quorum=read_quorum,
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

    def _check_quorum(self, context: _QueryContext, name: str,
                      bucket_index: int) -> None:
        """Hold one bucket read to the query's ``read_quorum``.

        Without ``allow_partial`` a missed quorum is a hard, typed
        failure; with it the read degrades -- served by whatever live
        replica remains -- and the answer is marked
        ``quorum_downgraded`` so consumers can refuse it.
        """
        if context.read_quorum is None:
            return
        live = sum(
            1
            for index in self._placements[name].replicas(bucket_index)
            if self.nodes[index].alive
        )
        if live >= context.read_quorum:
            return
        if not context.allow_partial:
            raise ClusterUnavailableError(
                name,
                bucket_index,
                reason="read quorum not met: %d live replicas < %d required"
                % (live, context.read_quorum),
            )
        context.downgraded = True

    def _gather(
        self,
        context: _QueryContext,
        name: str,
        action: Callable[[Node, int], Optional[Relation]],
        buckets: Optional[Sequence[int]] = None,
        key: Optional[Any] = None,
    ) -> List[Relation]:
        """Serve ``action(node, bucket)`` once per bucket of ``name``.

        The one per-bucket loop every read strategy goes through --
        routed (``buckets`` names the one bucket), broadcast, shuffle
        source, broadcast-small side, co-partitioned, aggregate
        partials.  It owns the quorum check and, under
        ``allow_partial``, the missing-bucket manifest: an unreachable
        bucket is recorded on the context and skipped instead of
        failing the query.  Buckets are visited in index order (the
        tick sequence the seeded fault suites pin); returns what they
        shipped, in that order (``None`` -- nothing to ship -- is
        dropped).
        """
        if buckets is None:
            buckets = range(self._placements[name].bucket_count)
        parts = []
        for bucket_index in buckets:
            self._check_quorum(context, name, bucket_index)
            try:
                part = self._attempt_on_replicas(
                    context, name, bucket_index,
                    lambda node: action(node, bucket_index), key=key,
                )
            except (ClusterUnavailableError, CircuitOpenError) as error:
                if not context.allow_partial:
                    raise
                context.missing.append(MissingBucket(
                    name, bucket_index, getattr(error, "reason", str(error)),
                ))
                continue
            if part is not None:
                parts.append(part)
        return parts

    @staticmethod
    def _union(heading: Heading, parts: Iterable[Relation]) -> Relation:
        result = Relation(heading, xset())
        for part in parts:
            result = algebra.union(result, part)
        return result

    def _finish(self, context: _QueryContext, answer: Relation) -> Any:
        """The query's return value: bare when strict, else a
        :class:`repro.gov.Result` carrying the degraded-mode manifest."""
        if not context.allow_partial:
            return answer
        context.span.set("partial", bool(context.missing))
        context.span.set("missing_buckets", len(context.missing))
        context.span.set("quorum_downgraded", context.downgraded)
        return Result(
            answer, context.missing, quorum_downgraded=context.downgraded
        )

    # ------------------------------------------------------------------
    # The shard-local coordinator
    # ------------------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        allow_partial: bool = False,
        read_quorum: Optional[int] = None,
        trace: Optional[TraceContext] = None,
        epoch: Optional[Any] = None,
    ) -> Any:
        """Execute a plan tree over the buckets: the one relational read.

        The cluster is a kernel backend of :meth:`Plan.apply`, like
        rows and sorted runs: the plan folds bottom-up over
        :class:`_ShardKernels`, a ``Scan`` being an operand that still
        lives in its buckets.  Row-local operators run *inside* each
        bucket before rows ship, a selection that pins the partition
        attribute consults exactly one bucket, a join picks its
        strategy by estimated shipped rows and every other operator
        gathers its inputs: ``Database.execute``'s answer, every plan.

        Default mode returns a bare :class:`Relation` and fails the
        whole query on any unreachable bucket.  ``allow_partial=True``
        degrades instead: unreachable buckets land in the answer's
        missing-bucket manifest and the return type becomes
        :class:`repro.gov.Result` (call ``require_complete()`` to get
        the strict behavior back).  ``read_quorum`` demands that many
        live replicas per bucket -- short of it, strict mode fails and
        partial mode serves the read but marks it
        ``quorum_downgraded``.  Either one bypasses the result cache.

        ``epoch`` carries the caller's cached map generation (an int,
        or a ``{table: epoch}`` mapping); a stale value is refused
        with :class:`~repro.errors.ShardMovedError` before any bucket
        is read.  A plan that is not well defined on the tables'
        headings is refused with ``SchemaError`` before anything else:
        the only refusal there is, as on the other two backends.
        """
        # The committed catalog, never the live Table pointers: inside
        # an open transaction those are work no replica has seen.
        catalog = self.manager.committed()
        catalog.heading_of(plan)
        # Epoch fencing comes before the cache: a caller holding a
        # stale map must get ShardMovedError even when the bytes it
        # asked for are sitting in memory.
        for table in scan_tables(plan):
            self._check_epoch(table, epoch)

        def gather(plan: Plan) -> Any:
            with self._query(
                "execute(%s)" % _describe(plan),
                "execute_join" if _holds_join(plan) else "execute",
                trace=trace,
                allow_partial=allow_partial, read_quorum=read_quorum,
            ) as context:
                kernels = _ShardKernels(self, context)
                return self._finish(
                    context, kernels.gather(kernels.fold(plan))
                )

        if catalog.result_cache is not None and not allow_partial \
                and read_quorum is None:
            return catalog._execute_cached(plan, gather)
        return gather(plan)

    # ------------------------------------------------------------------
    # Online rebalancing
    # ------------------------------------------------------------------

    @property
    def moves(self) -> List[ShardMove]:
        """Every move begun on this cluster, finished or not."""
        return list(self._moves)

    def _install_map(self, table: str, new_map: ShardMap) -> None:
        """Atomically swing ``table`` to ``new_map``.

        Validation, the ``EPOCH`` record and the in-memory swap happen
        with no tick in between, and the swap only once the record is
        durable: a failed append (a crash) leaves the old epoch fully
        in charge, a returned one the new -- never both.
        """
        new_map.validate()
        if self.manager.log is not None:
            # Dated against the commits around it: the record lands in
            # the same log every cluster write commits to.
            self.manager.log.epoch(table, new_map.to_xset())
        self._placements[table] = new_map
        if self.result_cache is not None:
            # Targeted, not a flush: a moved bucket leaves the rows
            # untouched, but re-caching under the new epoch keeps the
            # cache honest about what it would recompute today.
            self.result_cache.invalidate_tables((table,))

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
        placement = self.shard_map(table)
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
        between partitioning the committed relation and installing the
        new map, so a seeded crash lands either entirely before (old
        epoch, old buckets) or entirely after (new epoch, new buckets).
        """
        return self._reshard(name, self.shard_map(name).split(), "split")

    def merge_table(self, name: str) -> ShardMap:
        """Halve ``name``'s bucket count (inverse of a split)."""
        return self._reshard(name, self.shard_map(name).merged(), "merge")

    def _reshard(self, name: str, new_map: ShardMap,
                 cause: str) -> ShardMap:
        """Re-partition the committed relation under ``new_map``.

        The one relation is split by the new map and each reachable
        ring node stores its new restriction; an unreachable one is
        rebuilt against the installed map on revive.  Bucket copies
        under retired high numbers are dropped from their holders -- a
        crash between install and the drops leaves orphans that
        ``repro fsck`` reports.  Nothing of the old layout is kept.
        """
        if any(move.table == name and not move.done for move in self._moves):
            raise SchemaError(
                "cannot %s %r while one of its buckets is moving"
                % (cause, name)
            )
        old_map = self._placements[name]
        parts = self._partitioned(name, new_map)
        self._install_map(name, new_map)
        for bucket_index, part in enumerate(parts):
            for node_index in new_map.replicas(bucket_index):
                node = self.nodes[node_index]
                if node.alive:
                    node.store(name, part, bucket_index)
        for old_bucket in range(new_map.bucket_count,
                                old_map.bucket_count):
            for node_index in old_map.replicas(old_bucket):
                self.nodes[node_index].drop_bucket(name, old_bucket)
        return new_map

    def __repr__(self) -> str:
        live = sum(1 for node in self.nodes if node.alive)
        return "Cluster(%d nodes, %d live, rf=%d, tables=%s)" % (
            len(self.nodes), live, self.replication_factor,
            sorted(self._placements),
        )
