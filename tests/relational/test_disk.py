"""Disk store: persistence, paging, cache behavior, failure modes."""

import os

import pytest

from repro.errors import SchemaError
from repro.relational.disk import DiskRelationStore, PageCache
from repro.relational.relation import Relation
from repro.workloads.generators import employee_relation


def segment_file(tmp_path, name, index):
    """The index-th segment file of a stored relation (any generation)."""
    directory = os.path.join(str(tmp_path), name)
    segments = sorted(
        entry for entry in os.listdir(directory) if entry.startswith("seg-")
    )
    return os.path.join(directory, segments[index])


@pytest.fixture
def store(tmp_path):
    return DiskRelationStore(str(tmp_path), rows_per_segment=50,
                             cache_pages=3)


@pytest.fixture
def employees():
    return employee_relation(230, 7, seed=19)


class TestPersistence:
    def test_store_and_load(self, store, employees):
        segments = store.store("emp", employees)
        assert segments == 5  # ceil(230 / 50)
        assert store.load("emp") == employees

    def test_heading_survives(self, store, employees):
        store.store("emp", employees)
        assert store.heading("emp") == employees.heading

    def test_empty_relation(self, store):
        empty = Relation.from_dicts(["k"], [])
        assert store.store("empty", empty) == 0
        assert store.load("empty") == empty

    def test_overwrite(self, store, employees):
        store.store("emp", employees)
        smaller = employee_relation(10, 2, seed=1)
        store.store("emp", smaller)
        fresh = DiskRelationStore(str(store._directory))
        assert fresh.load("emp") == smaller

    def test_reopen_from_disk(self, tmp_path, employees):
        DiskRelationStore(str(tmp_path)).store("emp", employees)
        reopened = DiskRelationStore(str(tmp_path))
        assert reopened.load("emp") == employees

    def test_names_and_drop(self, store, employees):
        store.store("emp", employees)
        store.store("other", employee_relation(5, 2, seed=0))
        assert list(store.names()) == ["emp", "other"]
        store.drop("other")
        assert list(store.names()) == ["emp"]

    def test_missing_relation(self, store):
        with pytest.raises(SchemaError, match="no stored relation"):
            store.load("ghost")
        with pytest.raises(SchemaError):
            store.drop("ghost")

    def test_bad_names_rejected(self, store, employees):
        with pytest.raises(SchemaError, match="identifiers"):
            store.store("../escape", employees)


class TestScanAndLookup:
    def test_scan_streams_every_row(self, store, employees):
        store.store("emp", employees)
        rows = list(store.scan("emp"))
        assert len(rows) == employees.cardinality()

    def test_lookup(self, store, employees):
        store.store("emp", employees)
        rows = store.lookup("emp", "dept", 3)
        assert rows
        assert all(row.contains(3, "dept") for row in rows)
        in_memory = [
            row for row, _ in employees.rows.pairs() if row.contains(3, "dept")
        ]
        assert len(rows) == len(in_memory)

    def test_lookup_unknown_attribute(self, store, employees):
        store.store("emp", employees)
        with pytest.raises(SchemaError):
            store.lookup("emp", "nope", 1)


class TestPageCache:
    def test_lru_eviction(self):
        cache = PageCache(capacity=2)
        cache.put(("r", 0), ["a"])
        cache.put(("r", 1), ["b"])
        cache.get(("r", 0))        # 0 is now most recent
        cache.put(("r", 2), ["c"])  # evicts 1
        assert cache.get(("r", 1)) is None
        assert cache.get(("r", 0)) == ["a"]
        assert len(cache) == 2

    def test_hit_miss_counters(self):
        cache = PageCache(capacity=2)
        cache.get(("r", 0))
        cache.put(("r", 0), [])
        cache.get(("r", 0))
        assert cache.misses == 1
        assert cache.hits == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PageCache(0)

    def test_store_scan_populates_cache(self, store, employees):
        store.store("emp", employees)
        list(store.scan("emp"))
        first_pass_misses = store.cache.misses
        assert first_pass_misses == 5
        list(store.scan("emp"))
        # capacity 3 < 5 segments: a second sequential scan re-misses
        # (classic LRU sequential-flooding), so misses keep growing.
        assert store.cache.misses > first_pass_misses

    def test_small_relation_is_fully_cached(self, tmp_path):
        store = DiskRelationStore(str(tmp_path), rows_per_segment=50,
                                  cache_pages=4)
        small = employee_relation(100, 4, seed=2)   # 2 segments
        store.store("emp", small)
        list(store.scan("emp"))
        misses = store.cache.misses
        list(store.scan("emp"))
        assert store.cache.misses == misses  # all hits


class TestCorruptionAndFailure:
    """Damaged storage surfaces as clean library errors, not garbage."""

    def test_truncated_segment_is_detected(self, tmp_path, employees):
        store = DiskRelationStore(str(tmp_path), rows_per_segment=100)
        store.store("emp", employees)
        segment = segment_file(tmp_path, "emp", 0)
        with open(segment, "rb") as handle:
            payload = handle.read()
        with open(segment, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        from repro.errors import XSTError

        fresh = DiskRelationStore(str(tmp_path))
        with pytest.raises(XSTError):
            fresh.load("emp")

    def test_corrupted_meta_is_detected(self, tmp_path, employees):
        store = DiskRelationStore(str(tmp_path))
        store.store("emp", employees)
        meta = os.path.join(str(tmp_path), "emp", "meta")
        with open(meta, "wb") as handle:
            handle.write(b"not a serialization")
        from repro.errors import XSTError

        fresh = DiskRelationStore(str(tmp_path))
        with pytest.raises(XSTError):
            fresh.load("emp")

    def test_foreign_bytes_in_a_segment(self, tmp_path, employees):
        store = DiskRelationStore(str(tmp_path), rows_per_segment=100)
        store.store("emp", employees)
        segment = segment_file(tmp_path, "emp", 1)
        with open(segment, "ab") as handle:
            handle.write(b"\xff\xfejunk")
        from repro.errors import XSTError

        fresh = DiskRelationStore(str(tmp_path))
        with pytest.raises(XSTError):
            fresh.load("emp")

    def test_missing_segment_file(self, tmp_path, employees):
        store = DiskRelationStore(str(tmp_path), rows_per_segment=100)
        store.store("emp", employees)
        os.remove(segment_file(tmp_path, "emp", 1))
        fresh = DiskRelationStore(str(tmp_path))
        with pytest.raises(FileNotFoundError):
            fresh.load("emp")

    def test_intact_relation_still_loads_after_sibling_corruption(
        self, tmp_path, employees
    ):
        store = DiskRelationStore(str(tmp_path))
        store.store("good", employees)
        store.store("bad", employees)
        with open(os.path.join(str(tmp_path), "bad", "meta"), "wb") as handle:
            handle.write(b"broken")
        fresh = DiskRelationStore(str(tmp_path))
        assert fresh.load("good") == employees


class TestCacheInvalidation:
    """Regression: mutations must evict the relation's warm pages."""

    def test_overwrite_through_a_warm_cache_serves_fresh_rows(
        self, store, employees
    ):
        store.store("emp", employees)
        list(store.scan("emp"))          # warm the cache
        assert store.cache.hits + store.cache.misses > 0
        smaller = employee_relation(10, 2, seed=1)
        store.store("emp", smaller)
        # Same store object, warm cache: must NOT serve stale pages.
        assert store.load("emp") == smaller

    def test_drop_evicts_cached_pages(self, store, employees):
        store.store("emp", employees)
        list(store.scan("emp"))
        store.drop("emp")
        assert store.cache.evict_relation("emp") == 0  # already gone

    def test_eviction_is_per_relation(self, store, employees):
        store.store("emp", employees)
        store.store("other", employee_relation(40, 2, seed=3))
        list(store.scan("other"))
        hits_before = store.cache.hits
        store.store("emp", employee_relation(5, 2, seed=4))
        list(store.scan("other"))        # other's page survives
        assert store.cache.hits > hits_before


class TestAtomicWrites:
    """Temp-file + os.replace: no torn segments or metas, ever."""

    def test_no_temp_residue_after_store(self, tmp_path, employees):
        store = DiskRelationStore(str(tmp_path), rows_per_segment=100)
        store.store("emp", employees)
        files = os.listdir(os.path.join(str(tmp_path), "emp"))
        assert not [name for name in files if name.endswith(".tmp")]

    def test_crash_mid_meta_write_preserves_the_old_relation(
        self, tmp_path, employees
    ):
        from repro.relational.wal import CrashPoint, SimulatedCrashError

        target = str(tmp_path / "target")
        plain = DiskRelationStore(target, rows_per_segment=100)
        plain.store("emp", employees)
        old = plain.load("emp")
        smaller = employee_relation(10, 2, seed=1)
        # Size the overwrite's segment bytes on a scratch copy, then
        # crash the real overwrite two bytes into the meta rewrite:
        # the new generation's segments are all on disk, but the meta
        # pointer never swung, so the OLD relation must still load.
        scratch = DiskRelationStore(str(tmp_path / "scratch"),
                                    rows_per_segment=100)
        scratch.store("emp", smaller)
        segment_bytes = os.path.getsize(
            segment_file(tmp_path / "scratch", "emp", 0)
        )
        point = CrashPoint(after_bytes=segment_bytes + 2)
        crashy = DiskRelationStore(target, rows_per_segment=100,
                                   opener=point.open)
        with pytest.raises(SimulatedCrashError):
            crashy.store("emp", smaller)
        fresh = DiskRelationStore(target)
        assert fresh.load("emp") == old

    def test_crash_between_segments_and_meta_preserves_the_old_relation(
        self, tmp_path, employees
    ):
        from repro.relational.wal import CrashPoint, SimulatedCrashError

        store = DiskRelationStore(str(tmp_path), rows_per_segment=100)
        store.store("emp", employees)
        old = store.load("emp")
        smaller = employee_relation(10, 2, seed=1)
        # One write call per segment; the next (the meta) crashes
        # before a byte lands -- the classic torn-overwrite window.
        point = CrashPoint(after_writes=1)
        crashy = DiskRelationStore(str(tmp_path), rows_per_segment=100,
                                   opener=point.open)
        with pytest.raises(SimulatedCrashError):
            crashy.store("emp", smaller)
        assert DiskRelationStore(str(tmp_path)).load("emp") == old

    def test_crash_before_any_write_leaves_old_state(self, tmp_path,
                                                     employees):
        from repro.relational.wal import CrashPoint, SimulatedCrashError

        plain = DiskRelationStore(str(tmp_path), rows_per_segment=100)
        plain.store("emp", employees)
        point = CrashPoint(after_bytes=0)
        crashy = DiskRelationStore(str(tmp_path), opener=point.open)
        with pytest.raises(SimulatedCrashError):
            crashy.store("emp", employee_relation(10, 2, seed=1))
        assert DiskRelationStore(str(tmp_path)).load("emp") == employees


class TestSegmentChecksums:
    def test_bitflip_inside_a_segment_is_detected(self, tmp_path, employees):
        from repro.relational.wal import CorruptSegmentError

        store = DiskRelationStore(str(tmp_path), rows_per_segment=100)
        store.store("emp", employees)
        segment = segment_file(tmp_path, "emp", 0)
        with open(segment, "r+b") as handle:
            handle.seek(10)
            byte = handle.read(1)
            handle.seek(10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        fresh = DiskRelationStore(str(tmp_path))
        with pytest.raises(CorruptSegmentError, match="checksum"):
            fresh.load("emp")

    def test_missing_footer_is_detected(self, tmp_path, employees):
        from repro.relational.wal import CorruptSegmentError

        store = DiskRelationStore(str(tmp_path), rows_per_segment=100)
        store.store("emp", employees)
        segment = segment_file(tmp_path, "emp", 0)
        size = os.path.getsize(segment)
        with open(segment, "r+b") as handle:
            handle.truncate(size - 4)    # chop into the magic trailer
        fresh = DiskRelationStore(str(tmp_path))
        with pytest.raises(CorruptSegmentError, match="footer"):
            fresh.load("emp")


class TestConfiguration:
    def test_rows_per_segment_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DiskRelationStore(str(tmp_path), rows_per_segment=0)

    def test_segment_count(self, store, employees):
        store.store("emp", employees)
        assert store.segment_count("emp") == 5

    def test_segment_files_exist(self, tmp_path, employees):
        store = DiskRelationStore(str(tmp_path), rows_per_segment=100)
        store.store("emp", employees)
        files = sorted(os.listdir(os.path.join(str(tmp_path), "emp")))
        assert files == [
            "meta", "seg-00001-00000", "seg-00001-00001", "seg-00001-00002"
        ]


class TestNoStatisticsFile:
    """The planner reads the relations themselves: a store persists
    tables (and shard placement), and a ``stats.cat`` an older
    version left behind is never read."""

    @staticmethod
    def _leave_catalog(directory):
        with open(os.path.join(directory, "stats.cat"), "wb") as fh:
            fh.write(b"a catalog an older version wrote")

    def test_a_checkpoint_writes_tables_and_no_catalog(self, tmp_path,
                                                       employees):
        from repro.relational.wal import WriteAheadLog

        directory = str(tmp_path / "store")
        store = DiskRelationStore(directory)
        log = WriteAheadLog(os.path.join(directory, "wal.log"))
        store.checkpoint(log, {"emp": employees})
        log.close()
        assert sorted(os.listdir(directory)) == ["emp", "wal.log"]

    def test_a_leftover_catalog_is_not_a_relation(self, tmp_path, store,
                                                  employees):
        store.store("emp", employees)
        self._leave_catalog(str(tmp_path))
        assert list(store.names()) == ["emp"]
        assert store.load("emp") == employees

    def test_recovery_ignores_a_leftover_catalog(self, tmp_path, employees):
        from repro.relational.wal import WriteAheadLog

        directory = str(tmp_path / "store")
        store = DiskRelationStore(directory)
        log = WriteAheadLog(os.path.join(directory, "wal.log"))
        store.checkpoint(log, {"emp": employees})
        log.close()
        self._leave_catalog(directory)
        log = WriteAheadLog(os.path.join(directory, "wal.log"))
        state = DiskRelationStore(directory).recover(log)
        log.close()
        assert state == {"emp": employees}
