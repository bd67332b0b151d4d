"""Crash-safe durability: a checksummed write-ahead log.

The 1977 programme promises *intrinsically reliable* backend systems,
and PR 1 made network failures reproducible on demand.  This module
extends that discipline to the remaining failure class -- process
crashes and torn writes -- with the classic database answer sized to
this reproduction: because relations are immutable values, a redo log
of *relation deltas* plus periodic snapshots is almost free.

Three pieces:

* :class:`WriteAheadLog` -- an append-only file of length-prefixed,
  CRC32-checksummed frames, each framing one canonically-serialized
  XST record.  The log is the catalog's history: ``commit`` (one
  atomic frame per transaction, carrying per-table inserted/deleted
  row sets and the heading of each table it is the first to log),
  ``checkpoint`` (a marker that the store held the full state, and
  the placement catalog, as of this point) and ``epoch`` (one table's
  new shard map).  Appends optionally fsync, so a record is durable
  the moment :meth:`~WriteAheadLog.append` returns.

* Recovery predicates -- :meth:`WriteAheadLog.scan` reads a log
  tolerantly and classifies its tail: an *incomplete* final frame is
  a **torn tail** (the expected residue of a crash mid-append; it is
  truncated and the log is prefix-complete), while a checksum failure
  on a *complete* frame is **corruption** and raises the typed
  :class:`CorruptLogError` -- a torn write can never masquerade as a
  shorter valid log, and flipped bits can never replay.

* :class:`CrashPoint` -- the deterministic crash-injection shim, in
  the spirit of :class:`repro.relational.faults.FaultPlan`: a writer
  budget (bytes, write calls, or fsyncs) that lets exactly that much
  I/O reach the file and then raises :class:`SimulatedCrashError`,
  leaving the torn prefix behind exactly as a power cut would.
  Seeded schedules come from :meth:`FaultPlan.crash
  <repro.relational.faults.FaultPlan.crash>` /
  :meth:`FaultPlan.crash_sweep
  <repro.relational.faults.FaultPlan.crash_sweep>`.

The replay rule that makes recovery robust even to crashes *during a
checkpoint*: applying a commit delta is last-touch-wins
(``state = (state - deleted) | inserted``), so replaying the commit
suffix after the last durable checkpoint record onto any per-table
snapshot at least that old -- mixed vintages included -- lands on
exactly the state of the last durable commit.  The proof is spelled
out in ``docs/durability.md``.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import XSTError, notify_error
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.builders import xrecord, xset, xtuple
from repro.xst.serialization import dumps, loads
from repro.xst.xset import XSet

__all__ = [
    "CorruptLogError",
    "CorruptSegmentError",
    "SimulatedCrashError",
    "CrashPoint",
    "LogScan",
    "WriteAheadLog",
    "COMMIT",
    "CHECKPOINT",
    "EPOCH",
]

MAGIC = b"XSTWAL1\n"
_FRAME = struct.Struct(">II")  # payload length, CRC32(payload)

#: Record kinds understood by recovery.
COMMIT = "commit"
CHECKPOINT = "checkpoint"
#: A shard-map epoch swing, carrying the table's whole new map: the
#: one durable record of placement (see ``sharding.placements``).  Row
#: replay skips it.
EPOCH = "epoch"


class CorruptLogError(XSTError, ValueError):
    """A complete log frame failed its checksum (mid-log corruption).

    Distinct from a torn tail: a torn tail is an *incomplete* final
    frame, the normal residue of a crash mid-append, and recovery
    silently truncates it.  Corruption means bytes inside the valid
    prefix changed, so no prefix of the log can be trusted blindly
    and recovery refuses to guess.

    Construction notifies the flight-recorder hook (see
    :func:`repro.errors.set_error_listener`), matching the
    availability family: corrupt durable state is exactly the failure
    an incident snapshot should capture context for.
    """

    def __init__(self, *args):
        super().__init__(*args)
        notify_error(self)


class CorruptSegmentError(XSTError, ValueError):
    """A segment file's footer checksum or framing failed."""


class SimulatedCrashError(XSTError, RuntimeError):
    """The process 'died' at an injected crash point.

    Raised by :class:`CrashPoint` writers once their I/O budget is
    exhausted; everything written before the crash point is on disk
    (torn final write included), everything after is lost -- exactly
    the state a real crash leaves behind.
    """


class _CrashFile:
    """A file wrapper that spends a shared :class:`CrashPoint` budget."""

    def __init__(self, fh, point: "CrashPoint"):
        self._fh = fh
        self._point = point

    def write(self, data: bytes) -> int:
        allowed = self._point._admit_write(len(data))
        if allowed >= len(data):
            return self._fh.write(data)
        # Torn write: the prefix reaches the disk, then the lights go out.
        if allowed:
            self._fh.write(data[:allowed])
        self._fh.flush()
        raise SimulatedCrashError(
            "crash point reached after %d of %d bytes" % (allowed, len(data))
        )

    def sync(self) -> None:
        self._point._admit_sync()
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except (OSError, ValueError):  # pragma: no cover - odd filesystems
            pass

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "_CrashFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CrashPoint:
    """A deterministic I/O budget: die after N bytes/writes/fsyncs.

    Use as the ``opener`` of a :class:`WriteAheadLog` or
    :class:`~repro.relational.disk.DiskRelationStore`; every file
    opened through one CrashPoint draws down the *same* budget, so a
    single schedule spans log appends and segment rewrites alike::

        point = CrashPoint(after_bytes=517)
        log = WriteAheadLog(path, opener=point.open)
        ...                      # 517 bytes land, then
        SimulatedCrashError      # the 518th write byte "crashes"

    Budgets compose: the first one exhausted triggers the crash.  A
    CrashPoint with no budgets never fires (pass-through).
    """

    def __init__(
        self,
        after_bytes: Optional[int] = None,
        after_writes: Optional[int] = None,
        after_syncs: Optional[int] = None,
    ):
        for name, value in (("after_bytes", after_bytes),
                            ("after_writes", after_writes),
                            ("after_syncs", after_syncs)):
            if value is not None and value < 0:
                raise ValueError("%s must be non-negative" % name)
        self.after_bytes = after_bytes
        self.after_writes = after_writes
        self.after_syncs = after_syncs
        self.bytes_written = 0
        self.writes = 0
        self.syncs = 0

    def _admit_write(self, size: int) -> int:
        """How many of ``size`` bytes may land; counts the attempt."""
        if (
            self.after_writes is not None
            and self.writes >= self.after_writes
        ):
            raise SimulatedCrashError(
                "crash point reached after %d writes" % self.writes
            )
        self.writes += 1
        allowed = size
        if self.after_bytes is not None:
            allowed = min(allowed, self.after_bytes - self.bytes_written)
        self.bytes_written += max(0, allowed)
        return allowed

    def _admit_sync(self) -> None:
        if self.after_syncs is not None and self.syncs >= self.after_syncs:
            raise SimulatedCrashError(
                "crash point reached after %d fsyncs" % self.syncs
            )
        self.syncs += 1

    def open(self, path: str, mode: str = "ab") -> _CrashFile:
        """The injectable opener: a real file behind the budget."""
        return _CrashFile(open(path, mode), self)

    def __repr__(self) -> str:
        return "CrashPoint(bytes=%r, writes=%r, syncs=%r)" % (
            self.after_bytes, self.after_writes, self.after_syncs
        )


class LogScan:
    """The tolerant reading of one log file.

    ``records`` holds ``(lsn, record)`` pairs for every complete,
    checksum-valid frame (``record`` is ``None`` when the scan was
    asked not to decode payloads).  ``valid_bytes`` is the length of
    the durable prefix; ``torn_bytes`` counts trailing bytes of an
    incomplete final frame; ``corrupt_at`` is the byte offset of a
    complete-but-checksum-failed frame, or ``None`` for a clean log.
    """

    __slots__ = ("records", "valid_bytes", "torn_bytes", "corrupt_at",
                 "total_bytes")

    def __init__(self, records, valid_bytes, torn_bytes, corrupt_at,
                 total_bytes):
        self.records: List[Tuple[int, Optional[XSet]]] = records
        self.valid_bytes = valid_bytes
        self.torn_bytes = torn_bytes
        self.corrupt_at = corrupt_at
        self.total_bytes = total_bytes

    @property
    def lsn(self) -> int:
        """The last durable log sequence number (0 for an empty log)."""
        return len(self.records)

    def __repr__(self) -> str:
        return "LogScan(%d records, %d valid bytes, %d torn, corrupt_at=%r)" % (
            len(self.records), self.valid_bytes, self.torn_bytes,
            self.corrupt_at,
        )


def record_kind(record: XSet) -> str:
    """The ``kind`` field of a log record."""
    kinds = record.elements_at("kind")
    if len(kinds) != 1 or not isinstance(kinds[0], str):
        raise CorruptLogError("log record has no kind: %r" % (record,))
    return kinds[0]


def _field(record: XSet, name: str, optional: bool = False) -> Any:
    values = record.elements_at(name)
    if len(values) == 1:
        return values[0]
    if optional and not values:
        return None  # a field records may omit
    raise CorruptLogError(
        "log record field %r missing or ambiguous" % (name,)
    )


def commit_tx_id(record: XSet) -> int:
    """The transaction id a commit record carries.

    With a :class:`~repro.relational.tx.TransactionManager` attached,
    this number *is* the MVCC commit version: the durable log and the
    snapshot-isolation history share one numbering.
    """
    return _field(record, "tx")


def commit_record(tx_id: int, changes: Mapping[str, Tuple[Any, XSet, XSet]],
                  created: Optional[Mapping[str, Sequence[str]]] = None
                  ) -> XSet:
    """Build one atomic commit record.

    ``changes`` maps table name to ``(heading, inserted rows, deleted
    rows)`` -- the commit diff listeners receive -- of which the record
    keeps the rows.  A heading is logged once: ``created`` maps each
    table enrolled since the last record to its heading names, so a
    table's DDL and its first rows are one atomic frame.
    """
    fields = {"kind": COMMIT, "tx": tx_id, "changes": xtuple([
        xrecord({"table": name, "inserted": change[1], "deleted": change[2]})
        for name, change in sorted(changes.items())
    ])}
    if created:
        fields["created"] = xtuple([
            xtuple([name, xtuple(list(heading))])
            for name, heading in sorted(created.items())
        ])
    return xrecord(fields)


def checkpoint_record(table_names: Sequence[str],
                      shards: Optional[XSet] = None) -> XSet:
    """Build a checkpoint marker listing the snapshotted tables and,
    when given, the placement catalog (``ShardCatalog.to_xset()``)."""
    fields = {"kind": CHECKPOINT, "tables": xtuple(sorted(table_names))}
    if shards is not None:
        fields["shards"] = shards
    return xrecord(fields)


def commit_changes(record: XSet) -> List[Tuple[str, XSet, XSet]]:
    """Decode a commit record into (table, inserted, deleted)."""
    return [
        (_field(entry, "table"), _field(entry, "inserted"),
         _field(entry, "deleted"))
        for entry in _field(record, "changes").as_tuple()
    ]


def commit_created(record: XSet) -> List[Tuple[str, Tuple[str, ...]]]:
    """The (table, heading names) entries a commit record introduces."""
    created = _field(record, "created", optional=True)
    return [] if created is None else [
        (name, tuple(heading.as_tuple()))
        for name, heading in (entry.as_tuple() for entry in created.as_tuple())
    ]


def checkpoint_tables(record: XSet) -> Tuple[str, ...]:
    """Decode a checkpoint record into its table names."""
    return tuple(_field(record, "tables").as_tuple())


def checkpoint_shards(record: XSet) -> Optional[XSet]:
    """The placement catalog a checkpoint marker carries, if any."""
    return _field(record, "shards", optional=True)


def epoch_record(table: str, shard_map: XSet) -> XSet:
    """Build a shard-epoch record: ``table`` swung to ``shard_map``
    (``ShardMap.to_xset()``, which carries the epoch).

    Appended, and fsynced like any record, before a rebalance, split
    or merge installs the map in memory: the log holds every
    placement generation, dated against the commits around it.
    """
    return xrecord({"kind": EPOCH, "table": table, "map": shard_map})


def epoch_change(record: XSet) -> Tuple[str, XSet]:
    """Decode an epoch record into ``(table, map XSet)``."""
    return _field(record, "table"), _field(record, "map")


def last_checkpoint(records: Sequence[XSet]) -> int:
    """The index of the last checkpoint record, or -1."""
    for index in range(len(records) - 1, -1, -1):
        if record_kind(records[index]) == CHECKPOINT:
            return index
    return -1


def _frame(record: XSet) -> bytes:
    """One log frame: the record's canonical bytes behind their length
    and CRC32."""
    payload = dumps(record)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def scan_bytes(data: bytes, decode: bool = True) -> LogScan:
    """Classify raw log bytes: valid prefix, torn tail, or corruption.

    With ``decode=False`` payloads are CRC-verified but not
    deserialized (records carry ``None``), which makes exhaustive
    crash-offset sweeps cheap.
    """
    total = len(data)
    if total == 0:
        return LogScan([], 0, 0, None, 0)
    if total < len(MAGIC):
        # A crash during the very first header write.
        if MAGIC.startswith(data):
            return LogScan([], 0, total, None, total)
        raise CorruptLogError("log header is not a WAL header")
    if data[: len(MAGIC)] != MAGIC:
        raise CorruptLogError("log header is not a WAL header")
    records: List[Tuple[int, Optional[XSet]]] = []
    offset = len(MAGIC)
    while offset < total:
        if total - offset < _FRAME.size:
            return LogScan(records, offset, total - offset, None, total)
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if total - start < length:
            return LogScan(records, offset, total - offset, None, total)
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            return LogScan(records, offset, 0, offset, total)
        if decode:
            try:
                record = loads(payload)
            except XSTError:
                return LogScan(records, offset, 0, offset, total)
            records.append((len(records) + 1, record))
        else:
            records.append((len(records) + 1, None))
        offset = start + length
    return LogScan(records, offset, 0, None, total)


class WriteAheadLog:
    """An append-only, checksummed, length-prefixed transaction log.

    Frame format after the 8-byte file header (``XSTWAL1\\n``)::

        u32 payload length | u32 CRC32(payload) | payload

    where the payload is the canonical serialization of one XST
    record.  Appends go through an injectable ``opener`` (the
    :class:`CrashPoint` hook) and fsync by default, so a returned LSN
    is durable.

    Opening an existing log truncates any torn tail (crash residue)
    and refuses -- with :class:`CorruptLogError` -- to append past
    mid-log corruption.
    """

    def __init__(
        self,
        path: str,
        sync: bool = True,
        opener: Optional[Callable[[str, str], Any]] = None,
    ):
        self._path = path
        self._sync = sync
        self._opener = opener if opener is not None else _plain_open
        self._fh: Optional[Any] = None
        self._lsn = 0
        if os.path.exists(path):
            scan = self.scan()
            if scan.corrupt_at is not None:
                raise CorruptLogError(
                    "cannot append to %r: corrupt frame at byte %d"
                    % (path, scan.corrupt_at)
                )
            self._lsn = scan.lsn
            if scan.torn_bytes:
                self.truncate_torn_tail(scan)

    @property
    def path(self) -> str:
        return self._path

    @property
    def lsn(self) -> int:
        """The sequence number of the last appended record."""
        return self._lsn

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _ensure_open(self):
        if self._fh is None:
            fresh = not os.path.exists(self._path) or \
                os.path.getsize(self._path) == 0
            self._fh = self._opener(self._path, "ab")
            if fresh:
                self._fh.write(MAGIC)
        return self._fh

    def append(self, record: XSet) -> int:
        """Append one record atomically; returns its LSN.

        The frame is written in a single ``write`` call, so a crash
        either leaves the whole frame (the record is durable) or a
        torn tail that recovery truncates (it never happened).  With
        ``sync`` off the frame is still flushed, with no fsync, so
        :meth:`replay` and :meth:`scan` see every record :attr:`lsn`
        counts while the log is open.
        """
        frame = _frame(record)
        fh = self._ensure_open()
        fh.write(frame)
        if self._sync:
            _sync_file(fh)
        else:
            fh.flush()
        self._lsn += 1
        return self._lsn

    def commit(self, tx_id: int,
               changes: Mapping[str, Tuple[Any, XSet, XSet]],
               created: Optional[Mapping[str, Sequence[str]]] = None
               ) -> int:
        """Append one commit record; see :func:`commit_record`."""
        return self.append(commit_record(tx_id, changes, created))

    def checkpoint(self, table_names: Sequence[str],
                   shards: Optional[XSet] = None) -> int:
        """Append a checkpoint marker *after* the store is durable."""
        return self.append(checkpoint_record(table_names, shards))

    def epoch(self, table: str, shard_map: XSet) -> int:
        """Append a shard-epoch record; see :func:`epoch_record`."""
        return self.append(epoch_record(table, shard_map))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    # Reading and repair
    # ------------------------------------------------------------------

    def _read(self) -> bytes:
        try:
            with open(self._path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def scan(self, decode: bool = True) -> LogScan:
        """Tolerant read: classify the file without modifying it."""
        return scan_bytes(self._read(), decode=decode)

    def replay(self) -> List[XSet]:
        """Every durable record, in order.

        Raises :class:`CorruptLogError` on mid-log corruption; a torn
        tail is silently ignored (truncate it with
        :meth:`truncate_torn_tail`).
        """
        scan = self.scan()
        if scan.corrupt_at is not None:
            raise CorruptLogError(
                "corrupt frame at byte %d of %r"
                % (scan.corrupt_at, self._path)
            )
        return [record for _, record in scan.records]

    def truncate_torn_tail(self, scan: Optional[LogScan] = None) -> int:
        """Trim an incomplete final frame; returns bytes dropped."""
        if scan is None:
            scan = self.scan(decode=False)
        if scan.corrupt_at is not None:
            raise CorruptLogError(
                "corrupt frame at byte %d of %r"
                % (scan.corrupt_at, self._path)
            )
        if not scan.torn_bytes:
            return 0
        self.close()
        with open(self._path, "r+b") as fh:
            fh.truncate(scan.valid_bytes)
        return scan.torn_bytes

    def compact(self) -> int:
        """Drop records before the last checkpoint; returns the count.

        Rewrites the log atomically (temp file + ``os.replace``) so a
        crash mid-compaction leaves the original intact.  The
        checkpoint record itself is kept so recovery still finds its
        replay start.
        """
        records = self.replay()
        start = last_checkpoint(records)
        if start <= 0:
            return 0
        self.close()
        tmp = self._path + ".tmp"
        fh = self._opener(tmp, "wb")
        try:
            fh.write(MAGIC)
            for record in records[start:]:
                fh.write(_frame(record))
            _sync_file(fh)
        finally:
            fh.close()
        os.replace(tmp, self._path)
        self._lsn = len(records) - start
        return start

    def __repr__(self) -> str:
        return "WriteAheadLog(%r, lsn=%d)" % (self._path, self._lsn)


def _plain_open(path: str, mode: str):
    return open(path, mode)


def _sync_file(fh) -> None:
    if hasattr(fh, "sync"):
        fh.sync()
        return
    fh.flush()
    try:
        os.fsync(fh.fileno())
    except (OSError, ValueError):  # pragma: no cover - pipes, odd FS
        pass


# ----------------------------------------------------------------------
# Replay: applying commit deltas to relation states
# ----------------------------------------------------------------------

def apply_commit(state: Dict[str, Any], record: XSet) -> None:
    """Apply one commit record to a name->Relation state, in place.

    A ``created`` entry makes an empty table unless ``state`` already
    holds one (from the base or the checkpoint).  Then last-touch-wins
    per row: ``rows = (rows - deleted) | inserted``.  Idempotent
    enough that replaying a commit suffix onto any equal-or-newer
    checkpoint snapshot converges on the same final state (see the
    module docstring).  A change to a table nothing introduced is
    :class:`CorruptLogError`.
    """
    for name, heading in commit_created(record):
        if name not in state:
            state[name] = Relation(Heading(list(heading)), xset([]))
    for name, inserted, deleted in commit_changes(record):
        current = state.get(name)
        if current is None:
            raise CorruptLogError(
                "commit %r changes table %r, which no base, checkpoint "
                "or earlier record introduced" % (commit_tx_id(record), name)
            )
        state[name] = Relation(current.heading,
                               (current.rows - deleted) | inserted)


def recover_state(
    records: Sequence[XSet],
    base: Optional[Dict[str, Any]] = None,
    loader: Optional[Callable[[str], Any]] = None,
) -> Tuple[Dict[str, Any], int]:
    """Replay a record sequence into a name->Relation state.

    Starts from the last checkpoint record (loading each listed table
    through ``loader``) and replays every later commit.  Returns the
    recovered state and the number of commit records replayed.
    """
    state: Dict[str, Any] = dict(base or {})
    start = last_checkpoint(records)
    if start >= 0 and loader is not None:
        for name in checkpoint_tables(records[start]):
            state[name] = loader(name)
    replayed = 0
    for record in records[start + 1:]:
        if record_kind(record) == COMMIT:
            apply_commit(state, record)
            replayed += 1
    return state, replayed
