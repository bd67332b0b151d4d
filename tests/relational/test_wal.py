"""Write-ahead log: framing, torn tails, corruption, crash points."""

import os
import struct
import zlib

import pytest

from repro.relational.faults import FaultPlan
from repro.relational.relation import Relation
from repro.relational.wal import (
    CHECKPOINT,
    COMMIT,
    CorruptLogError,
    CrashPoint,
    SimulatedCrashError,
    WriteAheadLog,
    apply_commit,
    checkpoint_record,
    checkpoint_tables,
    commit_changes,
    commit_created,
    commit_record,
    record_kind,
    recover_state,
    scan_bytes,
)
from repro.xst.builders import xrecord, xset


def rel(*ids):
    return Relation.from_dicts(["id"], [{"id": i} for i in ids])


def change(inserted, deleted=()):
    return {"t": (("id",), rel(*inserted).rows, rel(*deleted).rows)}


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "wal.log")


class TestFraming:
    def test_append_replay_roundtrip(self, path):
        log = WriteAheadLog(path)
        assert log.commit(1, change([1, 2])) == 1
        assert log.commit(2, change([3], deleted=[1])) == 2
        records = log.replay()
        assert [record_kind(r) for r in records] == [COMMIT, COMMIT]
        assert commit_changes(records[1])[0][1] == rel(3).rows

    def test_an_unsynced_open_log_replays_every_record(self, path):
        log = WriteAheadLog(path, sync=False)
        log.commit(1, change([1]))
        log.commit(2, change([2]))
        assert log.lsn == 2
        assert len(log.replay()) == 2
        assert len(log.scan().records) == 2

    def test_lsn_survives_reopen(self, path):
        log = WriteAheadLog(path)
        log.commit(1, change([1]))
        log.commit(2, change([2]))
        log.close()
        assert WriteAheadLog(path).lsn == 2

    def test_empty_and_missing_logs_scan_clean(self, path):
        scan = WriteAheadLog(path).scan()
        assert scan.lsn == 0 and scan.corrupt_at is None

    def test_scan_without_decoding(self, path):
        log = WriteAheadLog(path)
        log.commit(1, change([1]))
        scan = log.scan(decode=False)
        assert scan.lsn == 1
        assert scan.records[0][1] is None


class TestTornTail:
    def test_torn_final_frame_is_truncated_on_open(self, path):
        log = WriteAheadLog(path)
        log.commit(1, change([1]))
        log.commit(2, change([2]))
        log.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)
        reopened = WriteAheadLog(path)
        assert reopened.lsn == 1
        assert os.path.getsize(path) < size - 3  # tail gone entirely

    def test_every_truncation_point_is_torn_or_valid(self, path):
        log = WriteAheadLog(path)
        for tx in range(1, 4):
            log.commit(tx, change([tx]))
        log.close()
        with open(path, "rb") as fh:
            data = fh.read()
        for cut in range(len(data) + 1):
            scan = scan_bytes(data[:cut], decode=False)
            assert scan.corrupt_at is None
            assert scan.valid_bytes + scan.torn_bytes == cut

    def test_partial_header_is_a_torn_tail(self, path):
        with open(path, "wb") as fh:
            fh.write(b"XSTW")
        scan = WriteAheadLog(path).scan()
        assert scan.lsn == 0

    def test_foreign_header_is_corruption(self, path):
        with open(path, "wb") as fh:
            fh.write(b"PNG!not a log at all")
        with pytest.raises(CorruptLogError):
            WriteAheadLog(path)


class TestCorruption:
    def _flip_a_byte(self, path, offset):
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))

    def test_midlog_bitflip_raises_typed_error(self, path):
        log = WriteAheadLog(path)
        log.commit(1, change([1]))
        log.commit(2, change([2]))
        log.close()
        self._flip_a_byte(path, 20)  # inside the first frame's payload
        with pytest.raises(CorruptLogError):
            WriteAheadLog(path)

    def test_corruption_is_not_silently_truncated(self, path):
        log = WriteAheadLog(path)
        log.commit(1, change([1]))
        log.close()
        self._flip_a_byte(path, 20)
        fresh = WriteAheadLog.__new__(WriteAheadLog)
        fresh._path, fresh._fh = path, None
        scan = fresh.scan()
        assert scan.corrupt_at is not None
        with pytest.raises(CorruptLogError):
            fresh.truncate_torn_tail(scan)


    def test_a_logged_nan_is_corruption(self, path):
        # A log once admitted nan; the codec now refuses its D payload,
        # so a frame holding one, whose CRC holds, is corrupt at its
        # offset and the log does not open for append.
        log = WriteAheadLog(path)
        log.commit(1, change([0]))
        frame = os.path.getsize(path)  # where the second frame starts
        log.commit(2, change([1.5]))
        log.close()
        with open(path, "rb") as fh:
            data = fh.read()
        at = data.index(b"D" + struct.pack(">d", 1.5), frame)
        data = data[:at + 1] + struct.pack(">d", float("nan")) + data[at + 9:]
        length, _ = struct.unpack_from(">II", data, frame)
        payload = data[frame + 8:frame + 8 + length]
        data = data[:frame + 4] + struct.pack(">I", zlib.crc32(payload)) + \
            data[frame + 8:]
        with open(path, "wb") as fh:
            fh.write(data)
        scan = scan_bytes(data)
        assert scan.lsn == 1 and scan.corrupt_at == frame
        with pytest.raises(CorruptLogError):
            WriteAheadLog(path)


class TestRecords:
    def test_commit_record_roundtrip(self):
        record = commit_record(7, change([1, 2], deleted=[9]),
                               {"t": ("id",)})
        assert record_kind(record) == COMMIT
        (name, inserted, deleted), = commit_changes(record)
        assert name == "t"
        assert inserted == rel(1, 2).rows and deleted == rel(9).rows
        assert commit_created(record) == [("t", ("id",))]

    def test_a_commit_entry_carries_no_heading(self):
        record = commit_record(7, change([1]))
        (entry,) = record.elements_at("changes")[0].as_tuple()
        assert not entry.elements_at("heading")
        assert not record.elements_at("created")
        assert commit_created(record) == []

    def test_checkpoint_record_roundtrip(self):
        record = checkpoint_record(["b", "a"])
        assert record_kind(record) == CHECKPOINT
        assert checkpoint_tables(record) == ("a", "b")

    def test_kindless_record_is_corrupt(self):
        with pytest.raises(CorruptLogError):
            record_kind(xrecord({"no": "kind"}))


class TestReplay:
    def test_apply_commit_is_last_touch_wins(self):
        state = {"t": rel(1, 2, 3)}
        apply_commit(state, commit_record(1, change([4], deleted=[1])))
        assert state["t"].rows == rel(2, 3, 4).rows

    def test_recover_state_starts_at_last_checkpoint(self):
        records = [
            commit_record(1, change([1])),
            checkpoint_record(["t"]),
            commit_record(2, change([2])),
        ]
        loaded = {"t": rel(1)}
        state, replayed = recover_state(records, loader=loaded.__getitem__)
        assert replayed == 1
        assert state["t"].rows == rel(1, 2).rows

    def test_replay_absorbs_newer_than_checkpoint_snapshots(self):
        # The last-touch-wins invariant: replaying the post-checkpoint
        # suffix onto a snapshot that already contains some of those
        # commits (a crash mid-checkpoint leaves mixed vintages) still
        # lands on the final state.
        records = [
            checkpoint_record(["t"]),
            commit_record(1, change([2], deleted=[1])),
            commit_record(2, change([3])),
        ]
        for vintage in (rel(1), rel(2), rel(2, 3)):
            state, _ = recover_state(records, loader=lambda name: vintage)
            assert state["t"].rows == rel(2, 3).rows, vintage

    def test_recovered_tables_can_be_born_from_the_log(self):
        records = [commit_record(1, change([1, 2]),
                                 {"t": ("id",), "empty": ("a", "b")})]
        state, _ = recover_state(records)
        assert state["t"].heading.names == ("id",)
        assert state["t"].cardinality() == 2
        assert state["empty"].heading.names == ("a", "b")
        assert state["empty"].cardinality() == 0

    def test_created_keeps_the_table_the_base_holds(self):
        records = [commit_record(1, change([2]), {"t": ("id",)})]
        state, _ = recover_state(records, base={"t": rel(1)})
        assert state["t"].rows == rel(1, 2).rows

    def test_a_change_to_an_unintroduced_table_is_corrupt(self):
        records = [commit_record(1, change([1]))]
        with pytest.raises(CorruptLogError):
            recover_state(records)


class TestCompact:
    def test_compact_drops_the_prefix(self, path):
        log = WriteAheadLog(path)
        log.commit(1, change([1]))
        log.checkpoint(["t"])
        log.commit(2, change([2]))
        assert log.compact() == 1
        records = log.replay()
        assert [record_kind(r) for r in records] == [CHECKPOINT, COMMIT]
        assert log.lsn == 2

    def test_compact_without_checkpoint_is_a_noop(self, path):
        log = WriteAheadLog(path)
        log.commit(1, change([1]))
        assert log.compact() == 0
        assert log.lsn == 1


class TestCrashPoint:
    def test_byte_budget_leaves_a_torn_prefix(self, path):
        point = CrashPoint(after_bytes=12)
        log = WriteAheadLog(path, opener=point.open)
        with pytest.raises(SimulatedCrashError):
            log.commit(1, change([1]))
        assert os.path.getsize(path) == 12
        assert WriteAheadLog(path).lsn == 0  # torn tail truncated

    def test_write_budget(self, path):
        point = CrashPoint(after_writes=2)  # header + one frame land
        log = WriteAheadLog(path, sync=False, opener=point.open)
        log.commit(1, change([1]))
        with pytest.raises(SimulatedCrashError):
            log.commit(2, change([2]))
        log.close()
        assert WriteAheadLog(path).lsn == 1

    def test_sync_budget(self, path):
        point = CrashPoint(after_syncs=1)
        log = WriteAheadLog(path, opener=point.open)
        log.commit(1, change([1]))
        with pytest.raises(SimulatedCrashError):
            log.commit(2, change([2]))

    def test_budget_is_shared_across_files(self, tmp_path):
        point = CrashPoint(after_bytes=100)
        first = point.open(str(tmp_path / "a"), "wb")
        first.write(b"x" * 60)
        first.close()
        second = point.open(str(tmp_path / "b"), "wb")
        with pytest.raises(SimulatedCrashError):
            second.write(b"y" * 60)
        second.close()
        assert (tmp_path / "b").read_bytes() == b"y" * 40

    def test_no_budget_is_a_passthrough(self, path):
        log = WriteAheadLog(path, opener=CrashPoint().open)
        for tx in range(1, 10):
            log.commit(tx, change([tx]))
        assert log.lsn == 9

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            CrashPoint(after_bytes=-1)


class TestFaultPlanIntegration:
    def test_crash_points_come_from_the_plan(self):
        plan = FaultPlan().crash(after_bytes=5).crash(after_bytes=11)
        points = plan.crash_points()
        assert [p.after_bytes for p in points] == [5, 11]

    def test_node_crashes_are_not_storage_crash_points(self):
        plan = FaultPlan().crash("node-1", at_op=3).crash(after_bytes=7)
        assert [p.after_bytes for p in plan.crash_points()] == [7]

    def test_crash_sweep_is_seeded_and_bounded(self):
        first = FaultPlan.crash_sweep(99, total_bytes=500, points=8)
        again = FaultPlan.crash_sweep(99, total_bytes=500, points=8)
        offsets = [p.after_bytes for p in first.crash_points()]
        assert offsets == [p.after_bytes for p in again.crash_points()]
        assert len(offsets) == 8 == len(set(offsets))
        assert all(0 <= o <= 500 for o in offsets)

    def test_crash_sweep_covers_tiny_logs_exhaustively(self):
        plan = FaultPlan.crash_sweep(1, total_bytes=3, points=10)
        assert len(plan.crash_points()) == 4  # offsets 0..3
