"""A file-backed relation store with a page cache and crash safety.

The VLDB-1977 scope is *very large* backend systems: relations that do
not fit in memory.  :class:`DiskRelationStore` persists relations as
segment files of canonically-serialized rows and reads them back
through a bounded LRU page cache, so working sets larger than memory
degrade gracefully instead of failing.

Layout per relation, under ``directory/<name>/``:

* ``meta`` -- serialized heading (attribute names as an XSet tuple)
  plus the current *generation*, the segment count and
  rows-per-segment;
* ``seg-<generation>-<index>`` -- each a self-delimiting stream of
  row XSets (:func:`repro.xst.serialization.dump_stream`) followed
  by a checksummed footer (CRC32 of the payload, the row count, and a
  magic trailer), so torn or bit-flipped segments surface as the
  typed :class:`~repro.relational.wal.CorruptSegmentError` instead of
  garbage rows.

Durability discipline (see ``docs/durability.md``):

* every file write -- segments and ``meta`` alike -- goes to a temp
  file that is fsynced and then atomically :func:`os.replace`\\ d into
  place, so a crash mid-write can never tear a file;
* overwriting a relation writes a complete *new generation* of
  segment files first and only then swings ``meta`` to it -- the one
  atomic commit point -- so a crash anywhere during the rewrite
  leaves ``meta`` naming a complete generation (old or new, never a
  mixed-vintage hybrid); stale generations are swept afterwards;
* :meth:`checkpoint` / :meth:`recover` pair the store with a
  :class:`~repro.relational.wal.WriteAheadLog`: checkpoint snapshots
  every table and *then* appends the checkpoint marker, recovery
  loads the last durable checkpoint and replays the commit tail,
  truncating torn log tails and refusing corrupt ones.

The store offers the same access paths the in-memory engines do --
full scan, equality lookup, and load-as-:class:`Relation` -- so the
benchmark suite can price the storage hierarchy: in-memory set store
vs record store vs paged disk store.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.errors import SchemaError
from repro.obs.instrument import record_recovery
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.relational.sharding import ShardCatalog
from repro.relational.wal import (
    CorruptLogError,
    CorruptSegmentError,
    WriteAheadLog,
    recover_state,
)
from repro.xst.builders import xset, xtuple
from repro.xst.serialization import dump_stream, dumps, load_stream, loads
from repro.xst.xset import XSet

__all__ = ["DiskRelationStore", "PageCache"]

_SEG_MAGIC = b"XSTSEG1\n"
_FOOTER = struct.Struct(">II")  # CRC32(payload), row count


class PageCache:
    """A bounded LRU cache from (relation, segment) to decoded rows."""

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("page cache capacity must be positive")
        self._capacity = capacity
        self._pages: "OrderedDict[tuple, List[XSet]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[List[XSet]]:
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return page

    def put(self, key: tuple, rows: List[XSet]) -> None:
        self._pages[key] = rows
        self._pages.move_to_end(key)
        while len(self._pages) > self._capacity:
            self._pages.popitem(last=False)

    def evict_relation(self, name: str) -> int:
        """Drop every cached page of one relation; returns the count.

        Every mutation path (overwrite, drop) must call this: a stale
        warm page would otherwise keep serving the pre-mutation rows.
        """
        doomed = [key for key in self._pages if key[0] == name]
        for key in doomed:
            del self._pages[key]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._pages)


def _frame_segment(rows: List[XSet]) -> bytes:
    payload = dump_stream(rows)
    return payload + _FOOTER.pack(zlib.crc32(payload), len(rows)) + _SEG_MAGIC


def _unframe_segment(data: bytes, path: str) -> List[XSet]:
    trailer = _FOOTER.size + len(_SEG_MAGIC)
    if len(data) < trailer or data[-len(_SEG_MAGIC):] != _SEG_MAGIC:
        raise CorruptSegmentError(
            "segment %r is truncated or missing its footer" % path
        )
    payload = data[: len(data) - trailer]
    crc, count = _FOOTER.unpack(data[len(payload) : len(payload) + _FOOTER.size])
    if zlib.crc32(payload) != crc:
        raise CorruptSegmentError(
            "segment %r failed its checksum" % path
        )
    rows = list(load_stream(payload))
    if len(rows) != count:
        raise CorruptSegmentError(
            "segment %r decoded %d rows, footer promised %d"
            % (path, len(rows), count)
        )
    return rows


class DiskRelationStore:
    """Persist and query relations as paged, checksummed segment files.

    ``opener`` injects the file factory used for every write (the
    :class:`~repro.relational.wal.CrashPoint` hook), so crash tests
    can kill the process at any byte of any segment or meta write.
    """

    def __init__(self, directory: str, rows_per_segment: int = 256,
                 cache_pages: int = 8,
                 opener: Optional[Callable[[str, str], Any]] = None):
        if rows_per_segment < 1:
            raise ValueError("rows_per_segment must be positive")
        self._directory = directory
        self._rows_per_segment = rows_per_segment
        self._cache = PageCache(cache_pages)
        self._opener = opener if opener is not None else open
        os.makedirs(directory, exist_ok=True)

    @property
    def cache(self) -> PageCache:
        return self._cache

    # ------------------------------------------------------------------
    # Paths and metadata
    # ------------------------------------------------------------------

    def _relation_dir(self, name: str) -> str:
        if not name.isidentifier():
            raise SchemaError("relation names must be identifiers: %r" % name)
        return os.path.join(self._directory, name)

    def _segment_path(self, name: str, generation: int, index: int) -> str:
        return os.path.join(
            self._relation_dir(name), "seg-%05d-%05d" % (generation, index)
        )

    def _atomic_write(self, path: str, payload: bytes) -> None:
        """Temp file + fsync + ``os.replace``: all-or-nothing on disk."""
        tmp = path + ".tmp"
        fh = self._opener(tmp, "wb")
        try:
            fh.write(payload)
            fh.flush()
            if hasattr(fh, "sync"):
                fh.sync()
            else:
                try:
                    os.fsync(fh.fileno())
                except (OSError, ValueError):  # pragma: no cover
                    pass
        finally:
            fh.close()
        os.replace(tmp, path)

    def _write_meta(self, name: str, heading: Heading, generation: int,
                    segments: int) -> None:
        meta = xtuple([xtuple(list(heading.names)), generation, segments,
                       self._rows_per_segment])
        self._atomic_write(
            os.path.join(self._relation_dir(name), "meta"), dumps(meta)
        )

    def _read_meta(self, name: str) -> tuple:
        path = os.path.join(self._relation_dir(name), "meta")
        try:
            with open(path, "rb") as fh:
                meta = loads(fh.read())
        except FileNotFoundError:
            raise SchemaError("no stored relation named %r" % (name,)) from None
        names_tuple, generation, segments, rows_per_segment = meta.as_tuple()
        heading = Heading(list(names_tuple.as_tuple()))
        return heading, generation, segments, rows_per_segment

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def store(self, name: str, relation: Relation) -> int:
        """Write a relation; returns the number of segments written.

        A complete new *generation* of segment files lands first (each
        atomically, under names the old meta never references), then
        the meta pointer swings to it -- the single atomic commit
        point -- and only then is the old generation swept.  A crash
        anywhere leaves the meta naming a complete generation: the old
        relation or the new one, never a mixed-vintage hybrid.  Cached
        pages of the old incarnation are evicted.
        """
        directory = self._relation_dir(name)
        os.makedirs(directory, exist_ok=True)
        try:
            _, generation, _, _ = self._read_meta(name)
        except SchemaError:
            generation = 0
        generation += 1
        rows = [row for row, _ in relation.rows.pairs()]
        segments = 0
        for start in range(0, len(rows), self._rows_per_segment):
            chunk = rows[start : start + self._rows_per_segment]
            self._atomic_write(
                self._segment_path(name, generation, segments),
                _frame_segment(chunk),
            )
            segments += 1
        self._write_meta(name, relation.heading, generation, segments)
        self._cache.evict_relation(name)
        keep = "seg-%05d-" % generation
        for entry in os.listdir(directory):
            if (entry.startswith("seg-") and not entry.endswith(".tmp")
                    and not entry.startswith(keep)):
                os.remove(os.path.join(directory, entry))
        return segments

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def heading(self, name: str) -> Heading:
        return self._read_meta(name)[0]

    def segment_count(self, name: str) -> int:
        return self._read_meta(name)[2]

    def _segment_rows(self, name: str, generation: int,
                      index: int) -> List[XSet]:
        key = (name, generation, index)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        path = self._segment_path(name, generation, index)
        with open(path, "rb") as fh:
            rows = _unframe_segment(fh.read(), path)
        self._cache.put(key, rows)
        return rows

    def scan(self, name: str) -> Iterator[XSet]:
        """Stream every stored row, one page in memory at a time."""
        _, generation, segments, _ = self._read_meta(name)
        for index in range(segments):
            yield from self._segment_rows(name, generation, index)

    def lookup(self, name: str, attr: str, value: Any) -> List[XSet]:
        """Equality selection by paged scan (no secondary index)."""
        heading = self.heading(name)
        heading.require([attr])
        return [
            row for row in self.scan(name) if row.contains(value, attr)
        ]

    def load(self, name: str) -> Relation:
        """Materialize the full relation back into memory."""
        heading = self.heading(name)
        return Relation(heading, xset(self.scan(name)))

    def names(self) -> Sequence[str]:
        """Stored relation names (those with a readable meta file)."""
        out = []
        for entry in sorted(os.listdir(self._directory)):
            if os.path.exists(os.path.join(self._directory, entry, "meta")):
                out.append(entry)
        return out

    def drop(self, name: str) -> None:
        """Remove a stored relation, its segments and its cached pages."""
        directory = self._relation_dir(name)
        if not os.path.isdir(directory):
            raise SchemaError("no stored relation named %r" % (name,))
        for entry in os.listdir(directory):
            os.remove(os.path.join(directory, entry))
        os.rmdir(directory)
        self._cache.evict_relation(name)

    # ------------------------------------------------------------------
    # Shard placement persistence
    # ------------------------------------------------------------------

    _SHARDS_FILE = "shards.map"
    _MOVE_FILE = "shards.move"

    def store_shards(self, catalog) -> None:
        """Persist a :class:`~repro.relational.sharding.ShardCatalog`.

        One canonically-serialized file (``shards.map``) holding every
        table's epoch-stamped placement, rewritten atomically on each
        epoch swing -- the same temp-file + fsync + replace discipline
        as segments, so a crash leaves either the old epoch's catalog
        or the new one, never a torn hybrid.
        """
        self._atomic_write(
            os.path.join(self._directory, self._SHARDS_FILE),
            dumps(catalog.to_xset()),
        )

    def load_shards(self):
        """The persisted shard catalog, or ``None`` when never stored."""
        path = os.path.join(self._directory, self._SHARDS_FILE)
        try:
            with open(path, "rb") as fh:
                return ShardCatalog.from_xset(loads(fh.read()))
        except FileNotFoundError:
            return None

    def store_move(self, move_value: XSet) -> None:
        """Journal an in-flight shard move (``shards.move``).

        Rewritten after every state-machine step; cleared by
        :meth:`drop_move` once the move's garbage collection runs.  A
        journal left behind is exactly what ``repro fsck`` inspects to
        distinguish a resumable move from a torn swing.
        """
        self._atomic_write(
            os.path.join(self._directory, self._MOVE_FILE),
            dumps(move_value),
        )

    def load_move(self) -> Optional[XSet]:
        """The journaled move value, or ``None`` when no move is open."""
        path = os.path.join(self._directory, self._MOVE_FILE)
        try:
            with open(path, "rb") as fh:
                return loads(fh.read())
        except FileNotFoundError:
            return None

    def drop_move(self) -> None:
        path = os.path.join(self._directory, self._MOVE_FILE)
        if os.path.exists(path):
            os.remove(path)

    # ------------------------------------------------------------------
    # Checkpoint / recovery (the WAL pairing)
    # ------------------------------------------------------------------

    def checkpoint(self, log: WriteAheadLog,
                   tables: Mapping[str, Relation],
                   shards=None) -> int:
        """Snapshot every table, then append the checkpoint marker.

        The marker is appended only after every snapshot is atomically
        on disk, so a checkpoint record in the log *guarantees* the
        store holds at least that state.  A crash mid-checkpoint
        leaves some tables at a newer snapshot than the last marker --
        which recovery's last-touch-wins replay absorbs (see
        :mod:`repro.relational.wal`).  When a ``shards`` catalog is
        given it is persisted with the snapshots (before the marker),
        so a recovered cluster resumes at the epoch it checkpointed.
        Returns the marker's LSN.
        """
        for name in sorted(tables):
            self.store(name, tables[name])
        if shards is not None:
            self.store_shards(shards)
        return log.checkpoint(sorted(tables))

    def recover(self, log: WriteAheadLog) -> Dict[str, Relation]:
        """Rebuild the last durable committed state from log + store.

        Truncates a torn log tail, raises
        :class:`~repro.relational.wal.CorruptLogError` on mid-log
        corruption, loads the tables named by the last checkpoint
        marker, and replays every later commit delta.  The result is
        prefix-consistent: exactly the state after the last commit
        whose record is wholly on disk.
        """
        started = time.perf_counter()
        scan = log.scan()
        if scan.corrupt_at is not None:
            raise CorruptLogError(
                "corrupt frame at byte %d of %r"
                % (scan.corrupt_at, log.path)
            )
        log.truncate_torn_tail(scan)
        records = [record for _, record in scan.records]
        state, replayed = recover_state(records, loader=self.load)
        record_recovery(
            "wal", time.perf_counter() - started, replayed, scan.valid_bytes
        )
        return state
