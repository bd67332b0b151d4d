"""Deterministic fault injection for the simulated cluster.

The reliability claims of the 1977 programme ("intrinsically reliable
... very large, distributed, backend information systems") are only
testable if failures can be *produced on demand and reproduced
exactly*.  This module is that harness: a :class:`FaultPlan` is a
seeded, inspectable schedule of fault events keyed by the cluster's
operation counter, and a :class:`FaultInjector` applies it through two
hooks that :class:`repro.relational.distributed.Cluster` calls on its
ordinary execution path -- so the production code is exercised
unmodified, with faults arriving at exact, replayable instants.

Event kinds:

* ``kill`` / ``revive`` -- a node becomes unreachable / reachable
  (its storage survives, modeling a crash with durable disks);
* ``delay`` -- a node answers, but every access charges simulated
  latency (visible in ``NetworkStats`` and to query timeouts);
* ``drop`` -- one shipment is lost in flight (the sender retries);
* ``corrupt`` -- one shipment arrives bit-flipped; the receiver's
  checksum comparison detects it and the sender retries.

Determinism: the cluster ticks the injector once per bucket-access
attempt and once per shipment, so for a fixed query sequence the
operation numbering -- hence the entire failure history -- is
bit-identical across runs.  :meth:`FaultPlan.chaos` derives a random
plan from an explicit seed for fuzzing with the same guarantee.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import XSTError
from repro.relational.wal import CrashPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.distributed import Cluster, Node

__all__ = [
    "NodeDownError",
    "ShipmentLostError",
    "ShipmentCorruptedError",
    "FaultPlan",
    "FaultInjector",
    "NetworkFaultInjector",
    "NO_FAULTS",
    "NO_NETWORK_FAULTS",
]


class NodeDownError(XSTError, ConnectionError):
    """A node is unreachable.  Transient: callers fail over."""


class ShipmentLostError(XSTError, ConnectionError):
    """A shipment was dropped in flight.  Transient: callers retry."""


class ShipmentCorruptedError(ShipmentLostError):
    """A shipment failed its checksum on arrival.  Transient."""


# Event kinds, in the order ties at one operation count are applied.
_KILL, _REVIVE, _DELAY, _DROP, _CORRUPT, _CRASH = (
    "kill", "revive", "delay", "drop", "corrupt", "crash"
)

# Network (wire-level) event kinds, keyed by *frame* counts rather
# than cluster operation counts and consumed by NetworkFaultInjector.
_NET_DROP, _NET_TEAR, _NET_DELAY = ("net_drop", "net_tear", "net_delay")
_NET_KINDS = frozenset((_NET_DROP, _NET_TEAR, _NET_DELAY))


class FaultPlan:
    """A deterministic schedule of fault events.

    Build one with the chainable methods, or :meth:`chaos` for a
    seeded random plan.  Operation counts are the cluster's own tick
    numbers (one tick per bucket access attempt, one per shipment);
    an event ``at_op=k`` fires on the first tick where the counter
    reaches ``k``.
    """

    def __init__(self):
        # (at_op, sequence, kind, node_name, payload)
        self._events: List[Tuple[int, int, str, Optional[str], float]] = []

    # -- builders ------------------------------------------------------

    def _add(self, at_op: int, kind: str, node: Optional[str],
             payload: float = 0.0) -> "FaultPlan":
        if at_op < 0:
            raise ValueError("fault operation counts start at 0")
        self._events.append((at_op, len(self._events), kind, node, payload))
        return self

    def kill(self, node: str, at_op: int = 0) -> "FaultPlan":
        """Make ``node`` unreachable from operation ``at_op`` on."""
        return self._add(at_op, _KILL, node)

    def revive(self, node: str, at_op: int = 0) -> "FaultPlan":
        """Bring ``node`` back (its stored partitions intact)."""
        return self._add(at_op, _REVIVE, node)

    def delay(self, node: str, seconds: float, at_op: int = 0) -> "FaultPlan":
        """Charge ``seconds`` of simulated latency per access to ``node``.

        A later ``delay(node, 0.0)`` clears it.
        """
        return self._add(at_op, _DELAY, node, seconds)

    def crash(self, node: Optional[str] = None, at_op: int = 0,
              after_bytes: Optional[int] = None) -> "FaultPlan":
        """Schedule a crash.

        With ``node``, the node dies at operation ``at_op`` exactly
        like :meth:`kill` -- but because the cluster also ticks the
        injector on its *write* fan-out path, a crash scheduled inside
        a write window kills the node mid-write: replicas before the
        crash point have the rows, replicas after do not, and only a
        revive-time rebuild against the committed relation reconciles
        them.

        With ``after_bytes``, the event instead describes a
        storage-layer crash point (die after that many written bytes);
        consume these with :meth:`crash_points` to build
        :class:`~repro.relational.wal.CrashPoint` writer shims.
        """
        return self._add(at_op, _CRASH, node,
                         0.0 if after_bytes is None else float(after_bytes))

    def crash_points(self) -> List[CrashPoint]:
        """The plan's byte-budget crashes as WAL writer shims.

        One :class:`~repro.relational.wal.CrashPoint` per
        :meth:`crash` event that carried ``after_bytes``, in schedule
        order -- the bridge between seeded fault plans and the
        storage layer's deterministic crash harness.
        """
        return [
            CrashPoint(after_bytes=int(payload))
            for _, _, kind, node, payload in sorted(self._events)
            if kind == _CRASH and node is None
        ]

    @classmethod
    def crash_sweep(cls, seed: int, total_bytes: int,
                    points: int = 16) -> "FaultPlan":
        """A seeded schedule of byte-budget crash points.

        Draws ``points`` distinct crash offsets in ``[0, total_bytes]``
        from an explicit seed -- the storage-layer analogue of
        :meth:`chaos`, consumed via :meth:`crash_points`.
        """
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        rng = random.Random(seed)
        plan = cls()
        population = range(total_bytes + 1)
        for offset in sorted(rng.sample(
            population, min(points, len(population))
        )):
            plan.crash(after_bytes=offset)
        return plan

    def drop_shipment(self, at_op: int) -> "FaultPlan":
        """Lose the first shipment at or after operation ``at_op``."""
        return self._add(at_op, _DROP, None)

    def corrupt_shipment(self, at_op: int) -> "FaultPlan":
        """Bit-flip the first shipment at or after operation ``at_op``."""
        return self._add(at_op, _CORRUPT, None)

    # -- network (wire) events -----------------------------------------

    def drop_connection(self, at_frame: int) -> "FaultPlan":
        """Abort the connection instead of sending frame ``at_frame``.

        Frame counts number every frame the instrumented endpoint
        sends, 0-based, across the whole injector lifetime -- so a
        drop scheduled inside a result stream models
        disconnect-mid-result, and one scheduled at frame 0 models a
        connection that dies before the handshake answer.
        """
        return self._add(at_frame, _NET_DROP, None)

    def tear_frame(self, at_frame: int, keep_fraction: float = 0.5
                   ) -> "FaultPlan":
        """Send only a prefix of frame ``at_frame``, then abort.

        ``keep_fraction`` of the frame's bytes (at least 1, at most
        len-1 for frames of 2+ bytes) go out before the cut -- the
        receiver sees a torn frame: a length prefix promising bytes
        that never arrive, the wire-level analogue of the WAL's torn
        tail.
        """
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be within [0, 1]")
        return self._add(at_frame, _NET_TEAR, None, keep_fraction)

    def delay_frame(self, at_frame: int, seconds: float) -> "FaultPlan":
        """Stall ``seconds`` before sending frame ``at_frame``.

        Models a slow link or a stalled sender: the receiver's read
        blocks, exercising client timeouts and server drain deadlines.
        """
        if seconds < 0:
            raise ValueError("delays are non-negative")
        return self._add(at_frame, _NET_DELAY, None, seconds)

    @classmethod
    def net_chaos(
        cls,
        seed: int,
        horizon: int = 40,
        drops: int = 1,
        tears: int = 1,
        delays: int = 1,
        max_delay: float = 0.002,
    ) -> "FaultPlan":
        """A seeded random schedule of wire faults over ``horizon`` frames.

        The network analogue of :meth:`chaos`: deterministic for a
        fixed seed, so a failing fault schedule replays exactly.
        """
        rng = random.Random(seed)
        plan = cls()
        for _ in range(drops):
            plan.drop_connection(rng.randrange(horizon))
        for _ in range(tears):
            plan.tear_frame(rng.randrange(horizon),
                            keep_fraction=rng.uniform(0.05, 0.95))
        for _ in range(delays):
            plan.delay_frame(rng.randrange(horizon),
                             rng.uniform(0.0, max_delay))
        return plan

    # -- seeded fuzzing ------------------------------------------------

    @classmethod
    def chaos(
        cls,
        seed: int,
        node_names: Sequence[str],
        horizon: int = 200,
        kills: int = 1,
        drops: int = 2,
        corruptions: int = 1,
        crashes: int = 0,
        max_delay: float = 0.0,
    ) -> "FaultPlan":
        """A random-but-reproducible plan drawn from an explicit seed.

        Every kill is paired with a later revive, so chaos plans never
        permanently lose capacity -- availability tests control
        permanent loss explicitly with :meth:`kill`.  ``crashes`` adds
        crash/revive pairs: unlike kills, crash events also fire on
        the cluster's write fan-out ticks, so a chaos plan with
        crashes exercises kill-*during*-write (a replica missing rows
        until its revive-time rebuild), not just kill-between-ops.
        """
        rng = random.Random(seed)
        plan = cls()
        for _ in range(kills):
            victim = rng.choice(list(node_names))
            down = rng.randrange(horizon)
            up = down + 1 + rng.randrange(max(1, horizon - down))
            plan.kill(victim, at_op=down)
            plan.revive(victim, at_op=up)
        for _ in range(drops):
            plan.drop_shipment(rng.randrange(horizon))
        for _ in range(corruptions):
            plan.corrupt_shipment(rng.randrange(horizon))
        for _ in range(crashes):
            victim = rng.choice(list(node_names))
            down = rng.randrange(horizon)
            up = down + 1 + rng.randrange(max(1, horizon - down))
            plan.crash(victim, at_op=down)
            plan.revive(victim, at_op=up)
        if max_delay > 0.0:
            laggard = rng.choice(list(node_names))
            plan.delay(laggard, rng.uniform(0.0, max_delay),
                       at_op=rng.randrange(horizon))
        return plan

    @classmethod
    def move_chaos(
        cls,
        seed: int,
        donor: str,
        recipient: str,
        horizon: int = 60,
        kills: int = 2,
    ) -> "FaultPlan":
        """A rebalance-targeted plan: kill the endpoints that matter.

        Generic :meth:`chaos` rarely hits a move's donor or recipient;
        this draws every kill from exactly that pair, with revives
        scheduled inside the horizon so the move can resume.  Because
        rebalance steps tick the shared fault clock once per step, a
        kill at op *k* lands at a deterministic point in the copy /
        catch-up / swing state machine -- the sweep the crash-safety
        contract is stated over.
        """
        rng = random.Random(seed)
        plan = cls()
        for _ in range(kills):
            victim = rng.choice([donor, recipient])
            down = rng.randrange(horizon)
            up = down + 1 + rng.randrange(max(1, horizon - down))
            plan.kill(victim, at_op=down)
            plan.revive(victim, at_op=up)
        return plan

    # -- inspection ----------------------------------------------------

    def events(self) -> List[Tuple[int, str, Optional[str], float]]:
        """The schedule in firing order: (at_op, kind, node, payload)."""
        return [
            (at_op, kind, node, payload)
            for at_op, _, kind, node, payload in sorted(self._events)
        ]

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return "FaultPlan(%d events)" % len(self._events)


class FaultInjector:
    """Applies a :class:`FaultPlan` through the cluster's two hooks.

    The cluster calls :meth:`tick` once per operation (advancing the
    clock and applying due kill/revive/delay events) and
    :meth:`on_ship` once per shipment (which may consume a due drop or
    corrupt event).  Everything else is ordinary execution.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan
        self.operations = 0
        self._pending = sorted(plan._events) if plan is not None else []
        self._oneshots: List[str] = []

    # -- hooks called by Cluster ---------------------------------------

    def tick(self, cluster: "Cluster", write: bool = False) -> None:
        """One operation happened: apply every event now due.

        ``write=True`` marks a write fan-out tick: only *crash* events
        fire there (a crash can land mid-write and tear the fan-out);
        every other kind is held for the next read-path tick, so
        PR 1 plans keep their exact kill/drop/delay timing.  Revives
        route through :meth:`Cluster.on_revive
        <repro.relational.distributed.Cluster.on_revive>` so a
        returning node is rebuilt to the committed relation before it
        serves.
        """
        self.operations += 1
        if not self._pending:
            return
        remaining: List[Tuple[int, int, str, Optional[str], float]] = []
        for index, event in enumerate(self._pending):
            at_op, _, kind, node_name, payload = event
            if at_op > self.operations:
                remaining.extend(self._pending[index:])
                break
            if kind in _NET_KINDS:
                # Wire-level events belong to a NetworkFaultInjector
                # reading the same plan; the cluster injector never
                # consumes them.
                remaining.append(event)
                continue
            if write and kind != _CRASH:
                remaining.append(event)  # held for the next read tick
                continue
            if kind in (_DROP, _CORRUPT):
                self._oneshots.append(kind)
                continue
            node = cluster.node_named(node_name)
            if kind in (_KILL, _CRASH):
                node.alive = False
            elif kind == _REVIVE:
                cluster.on_revive(node)
            elif kind == _DELAY:
                node.delay_s = payload
        self._pending = remaining

    def on_ship(self, node: "Node", data: bytes) -> bytes:
        """A shipment is leaving ``node``; lose or damage it if due."""
        if self._oneshots:
            kind = self._oneshots.pop(0)
            if kind == _DROP:
                raise ShipmentLostError(
                    "shipment from %s lost in flight (injected)" % node.name
                )
            # Corrupt: flip a byte so the receiver's checksum fails.
            if data:
                data = data[:-1] + bytes([data[-1] ^ 0xFF])
        return data

    def __repr__(self) -> str:
        return "FaultInjector(op=%d, pending=%d)" % (
            self.operations, len(self._pending)
        )


class NetworkFaultInjector:
    """Applies a plan's wire-level events at frame-send granularity.

    The server's connection layer asks :meth:`on_frame` before every
    frame it writes; the answer is an action tuple:

    * ``("send", data, delay_s)`` -- write ``data`` (possibly after a
      ``delay_s`` stall);
    * ``("tear", prefix, delay_s)`` -- write only ``prefix`` bytes,
      then abort the connection;
    * ``("drop", b"", delay_s)`` -- abort without writing.

    Frames are numbered 0-based across the injector's lifetime (all
    connections, in send order), so a fixed request sequence yields a
    bit-identical fault history -- the same determinism contract as
    :class:`FaultInjector`, moved to the wire.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan
        self.frames = 0
        self._pending = sorted(
            event for event in (plan._events if plan is not None else [])
            if event[2] in _NET_KINDS
        )

    def on_frame(self, data: bytes) -> Tuple[str, bytes, float]:
        """Decide the fate of the next outgoing frame."""
        frame = self.frames
        self.frames += 1
        action, payload, delay_s = "send", data, 0.0
        remaining: List[Tuple[int, int, str, Optional[str], float]] = []
        for index, event in enumerate(self._pending):
            at_frame, _, kind, _node, value = event
            if at_frame > frame:
                remaining.extend(self._pending[index:])
                break
            if kind == _NET_DELAY:
                delay_s += value
            elif kind == _NET_TEAR and action == "send":
                keep = max(1, min(len(data) - 1, int(len(data) * value))) \
                    if len(data) > 1 else 0
                action, payload = "tear", data[:keep]
            elif kind == _NET_DROP:
                action, payload = "drop", b""
        self._pending = remaining
        return action, payload, delay_s

    @property
    def exhausted(self) -> bool:
        """True once every scheduled wire fault has fired."""
        return not self._pending

    def __repr__(self) -> str:
        return "NetworkFaultInjector(frame=%d, pending=%d)" % (
            self.frames, len(self._pending)
        )


class _NoFaults(FaultInjector):
    """The default injector: pure pass-through, zero bookkeeping."""

    def __init__(self):
        super().__init__(None)

    def tick(self, cluster: "Cluster", write: bool = False) -> None:
        pass

    def on_ship(self, node: "Node", data: bytes) -> bytes:
        return data


class _NoNetworkFaults(NetworkFaultInjector):
    """Pass-through wire injector: zero bookkeeping per frame."""

    def __init__(self):
        super().__init__(None)

    def on_frame(self, data: bytes) -> Tuple[str, bytes, float]:
        return ("send", data, 0.0)


NO_FAULTS = _NoFaults()
NO_NETWORK_FAULTS = _NoNetworkFaults()
