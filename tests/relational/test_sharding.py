"""Shard maps, routing, digests, and the move journal.

The Hypothesis properties pin the routing contract the fault and
chaos suites depend on: every value lands in exactly one bucket, ints
route by value on any bucket count, and routing survives a
serialization round trip bit for bit.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ShardMovedError, ShardPlacementError
from repro.relational.relation import Relation
from repro.relational.sharding import (
    MOVE_STATES,
    ShardCatalog,
    ShardMap,
    ShardMove,
    bucket_digest,
    shard_index,
)

# Values the routing hash must handle: ints route by value, everything
# else by canonical serialization bytes.
routable = st.one_of(
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
    st.text(max_size=12),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


class TestShardIndexProperties:
    @given(value=routable, buckets=st.integers(min_value=1, max_value=64))
    def test_exactly_one_bucket(self, value, buckets):
        index = shard_index(value, buckets)
        assert 0 <= index < buckets
        # Deterministic: same value, same bucket, every time.
        assert shard_index(value, buckets) == index

    @given(
        value=routable,
        nodes=st.integers(min_value=1, max_value=12),
        factor=st.integers(min_value=1, max_value=3),
    )
    def test_routing_stable_under_round_trip(self, value, nodes, factor):
        factor = min(factor, nodes)
        original = ShardMap.successor_rings("id", nodes, factor)
        restored = ShardMap.from_xset(original.to_xset())
        assert restored == original
        assert restored.bucket_for(value) == original.bucket_for(value)

    @given(
        value=routable,
        nodes=st.integers(min_value=2, max_value=8),
    )
    def test_split_reroutes_within_double(self, value, nodes):
        base = ShardMap.successor_rings("id", nodes, 1)
        split = base.split()
        index = split.bucket_for(value)
        assert 0 <= index < 2 * nodes
        # A merge undoes the split's routing exactly.
        assert split.merged().bucket_for(value) == base.bucket_for(value)


class TestShardMap:
    def test_default_reproduces_successor_scheme(self):
        shard_map = ShardMap.successor_rings("id", 4, 2)
        assert shard_map.bucket_count == 4
        assert shard_map.replicas(0) == (0, 1)
        assert shard_map.replicas(3) == (3, 0)
        assert shard_map.primary(2) == 2
        assert shard_map.ring(1) == "1>2"
        assert shard_map.epoch == 1

    def test_buckets_on_and_survives(self):
        shard_map = ShardMap.successor_rings("id", 3, 2)
        assert shard_map.buckets_on(0) == [0, 2]
        assert shard_map.survives(frozenset([1]))
        assert not shard_map.survives(frozenset([0, 1]))

    def test_moved_bumps_epoch_and_rewrites_ring(self):
        shard_map = ShardMap.successor_rings("id", 4, 2)
        moved = shard_map.moved(0, donor=0, recipient=3)
        assert moved.epoch == 2
        assert moved.replicas(0) == (3, 1)
        # The original is untouched (maps are immutable in spirit).
        assert shard_map.replicas(0) == (0, 1)
        assert shard_map.epoch == 1

    def test_moved_rejects_bad_endpoints(self):
        shard_map = ShardMap.successor_rings("id", 4, 2)
        with pytest.raises(ShardPlacementError):
            shard_map.moved(0, donor=2, recipient=3)  # 2 not in ring
        with pytest.raises(ShardPlacementError):
            shard_map.moved(0, donor=0, recipient=1)  # 1 already holds

    def test_split_and_merge_change_bucket_count(self):
        shard_map = ShardMap.successor_rings("id", 4, 2)
        split = shard_map.split()
        assert split.bucket_count == 8
        assert split.epoch == 2
        assert split.replicas(4) == shard_map.replicas(0)
        merged = split.merged()
        assert merged.bucket_count == 4
        assert merged.epoch == 3

    def test_merge_requires_even_count(self):
        shard_map = ShardMap.successor_rings("id", 3, 1)
        with pytest.raises(ShardPlacementError):
            shard_map.merged()

    def test_check_epoch_refuses_stale(self):
        shard_map = ShardMap.successor_rings("id", 4, 2, epoch=3)
        shard_map.check_epoch("t", None)  # unversioned: always current
        shard_map.check_epoch("t", 3)
        with pytest.raises(ShardMovedError) as exc:
            shard_map.check_epoch("t", 2, bucket=1)
        err = exc.value
        assert err.code == "SHARD_MOVED"
        assert err.exit_code == 19
        assert err.requested_epoch == 2
        assert err.current_epoch == 3
        assert err.bucket == 1
        assert err.retry_after_s == 0.0

    def test_same_placement_ignores_epoch(self):
        a = ShardMap.successor_rings("id", 4, 2, epoch=1)
        b = ShardMap.successor_rings("id", 4, 2, epoch=5)
        assert a.same_placement(b)
        assert not a.same_placement(a.moved(0, 0, 3))

    def test_validation_rejects_broken_maps(self):
        with pytest.raises(ShardPlacementError):
            ShardMap("id", 4, 2, {0: (0, 1), 2: (2, 3)})  # gap at 1
        with pytest.raises(ShardPlacementError):
            ShardMap("id", 4, 2, {0: ()})  # empty ring
        with pytest.raises(ShardPlacementError):
            ShardMap("id", 4, 2, {0: (1, 1)})  # repeated node
        with pytest.raises(ShardPlacementError):
            ShardMap("id", 4, 2, {0: (0, 9)})  # node out of range
        with pytest.raises(ShardPlacementError):
            ShardMap("id", 4, 2, {0: (0, 1)}, epoch=0)  # bad epoch


class TestShardCatalog:
    def test_round_trip(self):
        catalog = ShardCatalog({
            "users": ShardMap.successor_rings("id", 4, 2, epoch=3),
            "orders": ShardMap.successor_rings("uid", 4, 2).split(),
        })
        restored = ShardCatalog.from_xset(catalog.to_xset())
        assert sorted(restored.names()) == ["orders", "users"]
        assert restored.get("users") == catalog.get("users")
        assert restored.get("orders") == catalog.get("orders")
        assert "users" in restored
        assert len(restored) == 2


class TestBucketDigest:
    def test_order_independent(self):
        a = Relation.from_dicts(["id", "v"], [{"id": 1, "v": "a"},
                                              {"id": 2, "v": "b"}])
        b = Relation.from_dicts(["id", "v"], [{"id": 2, "v": "b"},
                                              {"id": 1, "v": "a"}])
        assert bucket_digest(a) == bucket_digest(b)

    def test_distinguishes_content(self):
        a = Relation.from_dicts(["id"], [{"id": 1}])
        b = Relation.from_dicts(["id"], [{"id": 2}])
        assert bucket_digest(a) != bucket_digest(b)

    def test_empty_and_none_agree(self):
        empty = Relation.from_dicts(["id"], [])
        assert bucket_digest(None) == bucket_digest(empty)
        assert bucket_digest(empty).endswith("-0")


class TestMoveJournal:
    def test_round_trip_preserves_progress(self):
        move = ShardMove("users", 2, donor=1, recipient=3, chunk_rows=8)
        move.state = "verify"
        move.copied_rows = 40
        move.target_epoch = 2
        move.swing_version = 17
        move.swing_digest = "0badf00d-3"
        restored = ShardMove.from_xset(move.to_xset())
        assert restored.table == "users"
        assert restored.bucket == 2
        assert restored.donor == 1
        assert restored.recipient == 3
        assert restored.chunk_rows == 8
        assert restored.state == "verify"
        assert restored.copied_rows == 40
        assert restored.target_epoch == 2
        assert restored.swing_version == 17
        assert restored.swing_digest == "0badf00d-3"

    def test_round_trip_of_a_fresh_move(self):
        move = ShardMove("t", 0, donor=0, recipient=2)
        restored = ShardMove.from_xset(move.to_xset())
        assert restored.state == "copy"
        assert restored.target_epoch == 0
        assert restored.swing_version == 0
        # The swing-time bucket value is working state, never journaled.
        assert restored.swing_value is None

    def test_rejects_unknown_state(self):
        move = ShardMove("t", 0, donor=0, recipient=2)
        move.state = "copy"
        value = move.to_xset()
        move.state = "teleporting"
        with pytest.raises(ShardPlacementError):
            ShardMove.from_xset(move.to_xset())
        # The untampered journal still decodes.
        assert ShardMove.from_xset(value).state == "copy"

    def test_move_states_cover_lifecycle(self):
        assert MOVE_STATES == ("copy", "catch_up", "swing", "verify",
                               "gc", "done")
