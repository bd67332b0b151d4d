"""Sharded placement and online rebalancing for the distributed layer.

PR 1's cluster placed buckets *implicitly*: bucket ``b`` of every
table lived on node ``b`` and its ring successors, with the bucket
count hard-wired to the node count.  That scheme cannot express a
topology change -- there is no way to say "a bucket moved" because
nothing records where buckets are.

This module makes placement **explicit and versioned**:

* :func:`shard_index` -- the routing hash (unchanged since PR 1, so
  default placements and the seeded fault/chaos tick sequences stay
  identical);
* :class:`ShardMap` -- one table's placement: an epoch number, a
  bucket count (decoupled from the node count), and an explicit
  owner ring per bucket.  Epochs only move forward; any request
  stamped with a stale epoch is refused with
  :class:`~repro.errors.ShardMovedError` before a byte is read.
* :class:`ShardCatalog` -- every table's map, serializable to one
  canonical XSet so :class:`~repro.relational.disk.DiskRelationStore`
  persists it as one atomically rewritten file (``shards.map``).
* :func:`bucket_digest` -- an order-independent canonical-hash digest
  of a bucket's rows, the anti-entropy currency: two replicas hold
  the same bucket iff their digests are equal.
* :class:`ShardMove` -- one bucket move as a **resumable state
  machine** (``copy -> catch_up -> swing -> verify -> gc``), each
  step one cluster tick so the deterministic fault harness can kill
  the donor or recipient mid-copy, mid-catch-up, or mid-swing and
  the move provably completes afterwards.  The machine's state
  serializes to an XSet journal (``shards.move``) that ``repro fsck``
  audits for torn swings and orphaned source data.

The legality argument is Childs': extended-set operations are defined
on *membership*, independent of physical placement -- a relation
hash-split across nodes is still one XSet, so moving a bucket can
never change an answer, only availability.
"""

from __future__ import annotations

import struct
import zlib
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SchemaError, ShardMovedError, ShardPlacementError
from repro.relational.algebra import difference
from repro.relational.relation import Relation
from repro.xst.builders import xtuple
from repro.xst.ordering import canonical_hash, canonical_key
from repro.xst.serialization import dumps
from repro.xst.xset import EMPTY, XSet

__all__ = [
    "shard_index",
    "ShardMap",
    "ShardCatalog",
    "bucket_digest",
    "bucket_difference",
    "ShardMove",
    "MOVE_STATES",
]


def shard_index(value: Any, bucket_count: int) -> int:
    """Deterministic routing: hash of the canonical serialization.

    Ints route by value, everything else by canonical bytes -- the
    scheme PR 1 shipped, so a default map with ``bucket_count ==
    node_count`` reproduces its placement, and the fault suites'
    pinned tick sequences, bit for bit.  Equal values route alike
    (``True`` and ``1.0`` are ``1`` to the kernel): routed selections
    and bucket-local joins assume it.
    """
    if isinstance(value, (int, float)) and value == value // 1:
        return int(value) % bucket_count  # whole (inf and nan are not)
    return sum(dumps(value)) % bucket_count


class ShardMap:
    """One table's versioned placement: epoch, buckets, owner rings.

    ``owners`` maps every bucket in ``0..bucket_count-1`` to its
    replica ring (primary first).  The rings are *data*, not a
    formula -- a move rewrites one ring and bumps the epoch, a split
    doubles the bucket count; :meth:`successor_rings` is the formula
    the default map is born from.
    """

    __slots__ = ("attr", "epoch", "bucket_count", "node_count",
                 "replication_factor", "owners")

    def __init__(
        self,
        attr: str,
        node_count: int,
        replication_factor: int,
        owners: Dict[int, Tuple[int, ...]],
        epoch: int = 1,
    ):
        self.attr = attr
        self.epoch = epoch
        self.bucket_count = len(owners)
        self.node_count = node_count
        self.replication_factor = replication_factor
        self.owners: Dict[int, Tuple[int, ...]] = {
            bucket: tuple(ring) for bucket, ring in owners.items()
        }
        self.validate()

    # -- construction ---------------------------------------------------

    @classmethod
    def successor_rings(
        cls,
        attr: str,
        node_count: int,
        replication_factor: int,
        bucket_count: Optional[int] = None,
        epoch: int = 1,
    ) -> "ShardMap":
        """The classic scheme: bucket ``b`` on node ``b % n`` + successors.

        With the default ``bucket_count == node_count`` this is exactly
        PR 1's implicit placement, made explicit.
        """
        if node_count < 1:
            raise SchemaError("a shard map needs at least one node")
        if not 1 <= replication_factor <= node_count:
            raise SchemaError(
                "replication factor %d needs 1..%d nodes"
                % (replication_factor, node_count)
            )
        buckets = node_count if bucket_count is None else bucket_count
        if buckets < 1:
            raise SchemaError("a shard map needs at least one bucket")
        owners = {
            bucket: tuple(
                (bucket + offset) % node_count
                for offset in range(replication_factor)
            )
            for bucket in range(buckets)
        }
        return cls(attr, node_count, replication_factor, owners, epoch=epoch)

    def validate(self) -> None:
        """Check the exactly-one-owner-ring-per-bucket invariant."""
        if self.epoch < 1:
            raise ShardPlacementError(
                "shard map epoch %d is not positive" % self.epoch
            )
        if set(self.owners) != set(range(self.bucket_count)):
            raise ShardPlacementError(
                "shard map does not own exactly buckets 0..%d: has %s"
                % (self.bucket_count - 1, sorted(self.owners))
            )
        for bucket, ring in self.owners.items():
            if not ring:
                raise ShardPlacementError(
                    "bucket %d has an empty owner ring" % bucket
                )
            if len(set(ring)) != len(ring):
                raise ShardPlacementError(
                    "bucket %d ring %s repeats a node" % (bucket, ring)
                )
            for index in ring:
                if not 0 <= index < self.node_count:
                    raise ShardPlacementError(
                        "bucket %d ring %s names node %d outside 0..%d"
                        % (bucket, ring, index, self.node_count - 1)
                    )

    # -- routing and the placement interface ----------------------------

    def bucket_for(self, value: Any) -> int:
        return shard_index(value, self.bucket_count)

    def has_bucket(self, bucket: int) -> bool:
        return bucket in self.owners

    def __contains__(self, bucket: int) -> bool:
        return bucket in self.owners

    def replicas(self, bucket: int) -> Tuple[int, ...]:
        """Node indices holding ``bucket``, primary first."""
        try:
            return self.owners[bucket]
        except KeyError:
            raise ShardPlacementError(
                "no bucket %d in a %d-bucket shard map"
                % (bucket, self.bucket_count)
            ) from None

    def primary(self, bucket: int) -> int:
        return self.replicas(bucket)[0]

    def ring(self, bucket: int) -> str:
        """Primary-first failover chain as a span attribute (``"2>3>0"``)."""
        return ">".join(str(index) for index in self.replicas(bucket))

    def buckets_on(self, node_index: int) -> List[int]:
        return [
            bucket
            for bucket in range(self.bucket_count)
            if node_index in self.owners[bucket]
        ]

    def survives(self, dead: frozenset) -> bool:
        return all(
            any(index not in dead for index in ring)
            for ring in self.owners.values()
        )

    def check_epoch(self, table: str, requested: Optional[int],
                    bucket: Optional[int] = None) -> None:
        """Refuse a stale-epoch request before any bucket is touched."""
        if requested is not None and requested != self.epoch:
            raise ShardMovedError(table, requested, self.epoch, bucket=bucket)

    def same_placement(self, other: "ShardMap") -> bool:
        """True when every bucket of both maps shares one owner ring.

        The co-partitioned-join precondition: equal bucket counts and
        identical rings mean each bucket pair of the two tables can be
        joined on one shared node with zero row movement.
        """
        return (
            self.bucket_count == other.bucket_count
            and self.owners == other.owners
        )

    # -- topology changes (each returns a new map, epoch + 1) -----------

    def moved(self, bucket: int, donor: int, recipient: int) -> "ShardMap":
        """The map after ``bucket``'s copy moves donor -> recipient."""
        ring = self.replicas(bucket)
        if donor not in ring:
            raise ShardPlacementError(
                "cannot move bucket %d off node %d: ring is %s"
                % (bucket, donor, ring)
            )
        if recipient in ring:
            raise ShardPlacementError(
                "cannot move bucket %d onto node %d: already in ring %s"
                % (bucket, recipient, ring)
            )
        if not 0 <= recipient < self.node_count:
            raise ShardPlacementError(
                "recipient %d outside 0..%d" % (recipient, self.node_count - 1)
            )
        owners = dict(self.owners)
        owners[bucket] = tuple(
            recipient if index == donor else index for index in ring
        )
        return ShardMap(
            self.attr, self.node_count, self.replication_factor, owners,
            epoch=self.epoch + 1,
        )

    def split(self) -> "ShardMap":
        """Double the bucket count; bucket ``b+N`` inherits ``b``'s ring.

        Because :func:`shard_index` is modular, every row of old
        bucket ``b`` re-routes to exactly ``b`` or ``b + N`` -- the
        split is local to the owning nodes (no cross-node shipping).
        """
        owners = dict(self.owners)
        for bucket in range(self.bucket_count):
            owners[bucket + self.bucket_count] = self.owners[bucket]
        return ShardMap(
            self.attr, self.node_count, self.replication_factor, owners,
            epoch=self.epoch + 1,
        )

    def merged(self) -> "ShardMap":
        """Halve the bucket count; bucket ``b`` absorbs ``b + N/2``."""
        if self.bucket_count < 2 or self.bucket_count % 2:
            raise ShardPlacementError(
                "cannot merge a %d-bucket map (need an even count >= 2)"
                % self.bucket_count
            )
        half = self.bucket_count // 2
        owners = {
            bucket: self.owners[bucket] for bucket in range(half)
        }
        return ShardMap(
            self.attr, self.node_count, self.replication_factor, owners,
            epoch=self.epoch + 1,
        )

    # -- serialization --------------------------------------------------

    def to_xset(self) -> XSet:
        return xtuple([
            self.attr,
            self.epoch,
            self.node_count,
            self.replication_factor,
            xtuple([
                xtuple([bucket, xtuple(list(self.owners[bucket]))])
                for bucket in sorted(self.owners)
            ]),
        ])

    @classmethod
    def from_xset(cls, value: XSet) -> "ShardMap":
        attr, epoch, node_count, factor, entries = value.as_tuple()
        owners: Dict[int, Tuple[int, ...]] = {}
        for entry in entries.as_tuple():
            bucket, ring = entry.as_tuple()
            if bucket in owners:
                raise ShardPlacementError(
                    "serialized shard map owns bucket %d twice" % bucket
                )
            owners[bucket] = tuple(ring.as_tuple())
        return cls(attr, node_count, factor, owners, epoch=epoch)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ShardMap):
            return NotImplemented
        return (
            self.attr == other.attr
            and self.epoch == other.epoch
            and self.node_count == other.node_count
            and self.replication_factor == other.replication_factor
            and self.owners == other.owners
        )

    def __repr__(self) -> str:
        return "ShardMap(attr=%r, epoch=%d, buckets=%d, nodes=%d, rf=%d)" % (
            self.attr, self.epoch, self.bucket_count, self.node_count,
            self.replication_factor,
        )


class ShardCatalog:
    """Every table's shard map, serializable to one canonical XSet."""

    __slots__ = ("_maps",)

    def __init__(self, maps: Optional[Dict[str, ShardMap]] = None):
        self._maps: Dict[str, ShardMap] = dict(maps or {})

    def get(self, name: str) -> Optional[ShardMap]:
        return self._maps.get(name)

    def set(self, name: str, shard_map: ShardMap) -> None:
        self._maps[name] = shard_map

    def names(self) -> List[str]:
        return sorted(self._maps)

    def __len__(self) -> int:
        return len(self._maps)

    def __contains__(self, name: str) -> bool:
        return name in self._maps

    def to_xset(self) -> XSet:
        return xtuple([
            xtuple([name, self._maps[name].to_xset()])
            for name in sorted(self._maps)
        ])

    @classmethod
    def from_xset(cls, value: XSet) -> "ShardCatalog":
        catalog = cls()
        for entry in value.as_tuple():
            name, shard_map = entry.as_tuple()
            if name in catalog._maps:
                raise ShardPlacementError(
                    "serialized shard catalog lists table %r twice" % name
                )
            catalog._maps[name] = ShardMap.from_xset(shard_map)
        return catalog

    def __repr__(self) -> str:
        return "ShardCatalog(%s)" % ", ".join(
            "%s@e%d" % (name, self._maps[name].epoch)
            for name in sorted(self._maps)
        ) if self._maps else "ShardCatalog(empty)"


def bucket_digest(relation: Optional[Any]) -> str:
    """Order-independent canonical-hash digest of a bucket's rows.

    Two copies of a bucket hold the same extended set iff their
    digests are equal: each row contributes its
    :func:`~repro.xst.ordering.canonical_hash`, the hashes are
    sorted (placement order is physical, not semantic), and the
    sequence is CRC-folded.  ``None`` (a bucket a node never stored)
    digests like an empty bucket.
    """
    if relation is None:
        hashes: List[int] = []
    else:
        hashes = sorted(
            canonical_hash(row) for row, _ in relation.rows.pairs()
        )
    packed = b"".join(
        struct.pack(">q", value) for value in hashes
    )
    return "%08x-%d" % (zlib.crc32(packed) & 0xFFFFFFFF, len(hashes))


def bucket_difference(have: Optional[Any], truth: Any) -> Tuple[Any, Any]:
    """What turns the copy ``have`` into ``truth``: ``(truth ~ have,
    have ~ truth)`` -- the rows to ship and the rows to retract.

    The S3 answer to "what did this copy miss", with no history
    consulted; ``None`` (a bucket never stored) misses everything.
    """
    if have is None:
        return truth, Relation(truth.heading, EMPTY)
    return difference(truth, have), difference(have, truth)


#: The rebalance state machine's states, in lifecycle order.
MOVE_STATES = ("copy", "catch_up", "swing", "verify", "gc", "done")


class ShardMove:
    """One bucket move, resumable across crashes of either endpoint.

    The lifecycle (one cluster tick per :meth:`step`, so the fault
    injector's seeded kill/revive/delay events land *between* any two
    stages):

    1. ``copy`` -- chunked copy of the donor's live bucket into the
       recipient's staging area, re-read from the donor each step (a
       dead donor stalls the copy; the harness revives it later).
    2. ``catch_up`` -- whatever the staged copy still differs by from
       the bucket's committed value (commits that landed during the
       copy, deletes included) ships as two set differences,
       ``truth ~ staged`` and ``staged ~ truth``, at most
       ``chunk_rows`` rows of each per step -- so a busy bucket takes
       several ticks, each a crash window.
    3. ``swing`` -- one atomic step: the final difference is applied,
       the staged rows are digested and promoted into the recipient's
       live storage, and the table's :class:`ShardMap` is replaced
       with ``moved(...)`` at ``epoch + 1``.  Requests carrying the
       old epoch fail typed from this tick on.
    4. ``verify`` -- the post-move anti-entropy pass: the donor's
       now-frozen copy must digest byte-equal to what the recipient
       took over.  A donor that legitimately missed commits while dead
       lags the handoff; before blaming placement the pass checks the
       handoff against the bucket's committed value at the swing
       (kept from the swing until this step, then released).
    5. ``gc`` -- the donor's source copy is dropped and the journal
       cleared.

    Every state transition is journaled through the cluster's
    attached store (``shards.move``), so ``repro fsck`` can detect a
    torn swing (journal epoch disagrees with the installed map) and
    orphaned source data (a move that swung but never collected).
    """

    __slots__ = ("table", "bucket", "donor", "recipient", "chunk_rows",
                 "state", "copied_rows", "target_epoch", "swing_version",
                 "swing_digest", "swing_value", "stalls", "repaired")

    def __init__(self, table: str, bucket: int, donor: int, recipient: int,
                 chunk_rows: int = 64):
        if chunk_rows < 1:
            raise SchemaError("chunk_rows must be at least 1")
        self.table = table
        self.bucket = bucket
        self.donor = donor
        self.recipient = recipient
        self.chunk_rows = chunk_rows
        self.state = "copy"
        self.copied_rows = 0
        #: The epoch the swing installed (0 until the swing happens).
        self.target_epoch = 0
        #: The engine's commit version the swing happened at.
        self.swing_version = 0
        self.swing_digest = ""
        #: The bucket's committed value at the swing, held only from
        #: the swing to the verify step (not journaled).
        self.swing_value: Optional[Any] = None
        #: Steps that made no progress (an endpoint was dead).
        self.stalls = 0
        #: True when verify found the donor lagging the handoff.
        self.repaired = False

    @property
    def done(self) -> bool:
        return self.state == "done"

    # -- the state machine ---------------------------------------------

    def step(self, cluster: Any) -> bool:
        """Run one tick of the move; returns True when it progressed.

        A step that cannot progress (the endpoint it needs is dead)
        still ticks the cluster -- stalled rebalances burn fault-plan
        time exactly like stalled queries, which is how seeded revive
        events eventually un-stall them.
        """
        if self.state == "done":
            return False
        cluster._tick()
        handler = {
            "copy": self._step_copy,
            "catch_up": self._step_catch_up,
            "swing": self._step_swing,
            "verify": self._step_verify,
            "gc": self._step_gc,
        }[self.state]
        before = self.state
        progressed = handler(cluster)
        if not progressed:
            self.stalls += 1
        if progressed or self.state != before:
            cluster._journal_move(self)
        return progressed

    def _donor_node(self, cluster: Any) -> Any:
        return cluster.nodes[self.donor]

    def _recipient_node(self, cluster: Any) -> Any:
        return cluster.nodes[self.recipient]

    def _catch_up(self, cluster: Any, recipient: Any,
                  limit: Optional[int] = None) -> Tuple[Any, bool]:
        """Ship the staged copy toward the bucket's committed value.

        At most ``limit`` rows each way (all of them by default).
        Returns that committed value and whether anything was pending.
        """
        truth = cluster._partitioned(self.table)[self.bucket]
        delta = bucket_difference(
            recipient.staged(self.table, self.bucket), truth
        )
        if not any(delta):
            return truth, False
        if limit is not None:
            delta = tuple(
                cluster._relation(self.table, islice(
                    (row for row, _ in side.rows.pairs()), limit
                ))
                for side in delta
            )
        cluster._ship_delta(delta)
        recipient.stage_apply(self.table, self.bucket, *delta)
        return truth, True

    def _step_copy(self, cluster: Any) -> bool:
        donor = self._donor_node(cluster)
        recipient = self._recipient_node(cluster)
        if not donor.alive or not recipient.alive:
            return False  # stalled; a seeded revive un-stalls us
        source = donor.bucket(self.table, self.bucket)
        rows = sorted(
            (row for row, _ in source.rows.pairs()), key=canonical_key
        )
        chunk = rows[self.copied_rows:self.copied_rows + self.chunk_rows]
        # An empty chunk still stages: the recipient must end up
        # holding the bucket even when the bucket holds no row.
        delta = (
            cluster._relation(self.table, chunk),
            cluster._relation(self.table, ()),
        )
        cluster._ship_delta(delta)
        recipient.stage_apply(self.table, self.bucket, *delta)
        self.copied_rows += len(chunk)
        if self.copied_rows >= len(rows):
            self.state = "catch_up"
        return True

    def _step_catch_up(self, cluster: Any) -> bool:
        recipient = self._recipient_node(cluster)
        if not recipient.alive:
            return False
        _, pending = self._catch_up(cluster, recipient, self.chunk_rows)
        if not pending:
            self.state = "swing"  # the swing itself is the next tick
        return True

    def _step_swing(self, cluster: Any) -> bool:
        recipient = self._recipient_node(cluster)
        if not recipient.alive:
            return False
        # Atomic from the cluster's point of view: final difference,
        # digest, promote, and map install all happen inside this one
        # tick.
        self.swing_value, _ = self._catch_up(cluster, recipient)
        self.swing_digest = bucket_digest(
            recipient.staged(self.table, self.bucket)
        )
        self.swing_version = cluster.manager.current_version
        recipient.promote_stage(self.table, self.bucket)
        new_map = cluster.shard_map(self.table).moved(
            self.bucket, self.donor, self.recipient
        )
        self.target_epoch = new_map.epoch
        cluster._install_map(self.table, new_map)
        self.state = "verify"
        return True

    def _step_verify(self, cluster: Any) -> bool:
        """Post-move anti-entropy: donor's frozen copy == handoff.

        Runs against durable storage, so a dead donor verifies too.
        The donor's copy is frozen from the swing on (the new map
        routes every commit to the recipient), but it may *lag* the
        handoff if the donor was dead for part of the move -- the
        same condition a revive repairs, so before concluding
        corruption the pass holds the handoff to the bucket's
        committed value at the swing.
        """
        donor = self._donor_node(cluster)
        copy = donor.stored(self.table, self.bucket)
        if bucket_digest(copy) != self.swing_digest:
            self.repaired = True
            if bucket_digest(self.swing_value) != self.swing_digest:
                raise ShardPlacementError(
                    "anti-entropy failed for bucket %d of %r: donor %s "
                    "digest %s != handoff digest %s, which is not the "
                    "committed value at the swing either"
                    % (self.bucket, self.table, donor.name,
                       bucket_digest(copy), self.swing_digest)
                )
        self.swing_value = None
        self.state = "gc"
        return True

    def _step_gc(self, cluster: Any) -> bool:
        donor = self._donor_node(cluster)
        donor.drop_bucket(self.table, self.bucket)
        donor.drop_stage(self.table, self.bucket)
        self.state = "done"
        return True

    # -- the journal ----------------------------------------------------

    def to_xset(self) -> XSet:
        return xtuple([
            self.table,
            self.bucket,
            self.donor,
            self.recipient,
            self.chunk_rows,
            self.state,
            self.copied_rows,
            self.target_epoch,
            self.swing_version,
            self.swing_digest,
        ])

    @classmethod
    def from_xset(cls, value: XSet) -> "ShardMove":
        (table, bucket, donor, recipient, chunk_rows, state, copied_rows,
         target_epoch, swing_version, swing_digest) = value.as_tuple()
        if state not in MOVE_STATES:
            raise ShardPlacementError(
                "shard-move journal names unknown state %r" % (state,)
            )
        move = cls(table, bucket, donor, recipient, chunk_rows=chunk_rows)
        move.state = state
        move.copied_rows = copied_rows
        move.target_epoch = target_epoch
        move.swing_version = swing_version
        move.swing_digest = swing_digest
        return move

    def __repr__(self) -> str:
        return (
            "ShardMove(%s[%d] %d->%d, %s, copied=%d, epoch=%d)"
            % (self.table, self.bucket, self.donor, self.recipient,
               self.state, self.copied_rows, self.target_epoch)
        )
