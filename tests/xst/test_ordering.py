"""Canonical ordering: totality, consistency with equality, stability."""

from hypothesis import given
from hypothesis import strategies as st

from repro.xst.builders import xset, xtuple
from repro.xst.ordering import canonical_hash, canonical_key, pair_key
from repro.xst.xset import EMPTY, XSet

from tests.conftest import atoms, xsets

mixed_values = st.one_of(atoms, xsets(max_depth=1, max_size=3))


class TestTotality:
    @given(mixed_values, mixed_values)
    def test_any_two_values_compare(self, left, right):
        # Python would raise for 3 < "a"; canonical keys never do.
        assert (canonical_key(left) < canonical_key(right)) or (
            canonical_key(left) >= canonical_key(right)
        )

    @given(st.lists(mixed_values, max_size=8))
    def test_any_value_list_sorts(self, values):
        ordered = sorted(values, key=canonical_key)
        assert len(ordered) == len(values)

    def test_cross_type_ordering_is_by_rank(self):
        values = [XSet([("z", 1)]), b"bytes", "string", 3, None]
        ordered = sorted(values, key=canonical_key)
        assert ordered[0] is None          # rank 0
        assert ordered[1] == 3             # numbers
        assert ordered[2] == "string"
        assert ordered[3] == b"bytes"
        assert isinstance(ordered[4], XSet)


class TestConsistencyWithEquality:
    @given(mixed_values)
    def test_reflexive(self, value):
        assert canonical_key(value) == canonical_key(value)

    def test_equal_numbers_share_keys(self):
        assert canonical_key(1) == canonical_key(1.0)
        assert canonical_key(True) == canonical_key(1)
        assert canonical_key(0) == canonical_key(False)

    def test_unequal_big_ints_have_distinct_ordered_keys(self):
        # float() cannot tell 2**53 from 2**53 + 1; the key must.
        big = [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 10**400, -(2**53) - 1]
        keys = [canonical_key(value) for value in big]
        assert len(set(keys)) == len(big)
        assert sorted(big, key=canonical_key) == sorted(big)
        hashes = {canonical_hash(value) for value in big}
        assert len(hashes) == len(big)

    def test_exact_floats_keep_the_float_payload(self):
        # Every key that float() represents exactly is unchanged, so
        # canonical_hash (shard routing, sketches) is too.
        for value in (0, 1, -7, True, 2**53, 2**60, 1.5):
            assert canonical_key(value) == (1, float(value))
            assert type(canonical_key(value)[1]) is float
        assert canonical_key(2**53) == canonical_key(float(2**53))
        assert canonical_hash(3) == canonical_hash(3.0) == 3182653471
        assert canonical_key(2**53 + 1) < canonical_key(float(2**53 + 2))

    def test_the_zeros_hash_alike(self):
        # -0.0 == 0 == False, so the columnar runs file them under one
        # hash and an equality's binary search meets them all; a longer
        # number that merely starts with "-0.0" keeps its own hash.
        zero = canonical_hash(0)
        assert canonical_hash(-0.0) == canonical_hash(0.0) == zero
        assert canonical_hash(False) == zero
        assert canonical_hash(xset([-0.0])) == canonical_hash(xset([0]))
        assert canonical_hash(-0.05) != canonical_hash(0.05)
        assert canonical_hash(-0.0001) != canonical_hash(0.0001)

    def test_key_of_a_set_is_remembered_and_stable(self):
        value = xset([xtuple(["a", 1]), xtuple(["b", 2.0])])
        first = canonical_key(value)
        assert canonical_key(value) is first
        value | xset(["c"]), value - value, repr(value), hash(value)
        assert canonical_key(value) is first
        assert first == canonical_key(XSet(reversed(value.pairs())))

    def test_subclass_instances_are_keyed_but_not_remembered(self):
        class Tagged(XSet):
            __slots__ = ()

        value = Tagged([("a", 1)])
        assert canonical_key(value) == canonical_key(XSet([("a", 1)]))
        assert value._key is None

    @given(xsets(), xsets())
    def test_equal_sets_share_keys(self, left, right):
        if left == right:
            assert canonical_key(left) == canonical_key(right)

    def test_rebuilt_set_shares_its_key(self):
        original = xset(["b", "a", 3])
        rebuilt = XSet(tuple(reversed(original.pairs())))
        assert canonical_key(original) == canonical_key(rebuilt)


class TestStructuralOrdering:
    def test_smaller_sets_sort_first(self):
        small = xset(["a"])
        large = xset(["a", "b"])
        assert canonical_key(small) < canonical_key(large)

    def test_same_size_orders_by_content(self):
        assert canonical_key(xset(["a"])) < canonical_key(xset(["b"]))

    def test_nested_sets_order_recursively(self):
        shallow = xset([xset(["a"])])
        deeper = xset([xset(["b"])])
        assert canonical_key(shallow) < canonical_key(deeper)

    def test_complex_numbers_have_their_own_band(self):
        # complex sorts after real numbers but before strings.
        key = canonical_key(1 + 2j)
        assert canonical_key(999999) < key < canonical_key("a")


class TestPairKey:
    def test_orders_by_element_then_scope(self):
        assert pair_key(("a", 2)) < pair_key(("b", 1))
        assert pair_key(("a", 1)) < pair_key(("a", 2))

    @given(st.lists(st.tuples(atoms, atoms), min_size=1, max_size=6))
    def test_sorting_pairs_is_deterministic(self, pairs):
        once = sorted(pairs, key=pair_key)
        again = sorted(list(reversed(pairs)), key=pair_key)
        assert once == again


class TestDownstreamDeterminism:
    @given(xsets())
    def test_pairs_are_always_sorted(self, value):
        keys = [pair_key(pair) for pair in value.pairs()]
        assert keys == sorted(keys)

    def test_iteration_order_is_insertion_independent(self):
        forward = XSet([(i, None) for i in range(10)])
        backward = XSet([(i, None) for i in reversed(range(10))])
        assert forward.pairs() == backward.pairs()

    def test_empty_set_key(self):
        assert canonical_key(EMPTY) == canonical_key(XSet())
        assert canonical_key(EMPTY) < canonical_key(xtuple(["x"]))
