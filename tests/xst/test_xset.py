"""Unit tests for the XSet core: construction, identity, shape."""

import copy
import pickle

import pytest
from hypothesis import given

from repro.errors import InvalidAtomError, NotATupleError
from repro.xst.builders import scoped, singleton, xpair, xrecord, xset, xtuple
from repro.xst.xset import EMPTY, XSet

from tests.conftest import xsets


class TestConstruction:
    def test_empty_set_has_no_pairs(self):
        assert XSet().pairs() == ()
        assert len(EMPTY) == 0
        assert EMPTY.is_empty

    def test_duplicate_pairs_collapse(self):
        assert XSet([("a", 1), ("a", 1), ("a", 1)]) == XSet([("a", 1)])

    def test_same_element_under_two_scopes_is_two_memberships(self):
        two = XSet([("a", 1), ("a", 2)])
        assert len(two) == 2
        assert two.scopes_of("a") == (1, 2)

    def test_insertion_order_is_irrelevant(self):
        assert XSet([("a", 1), ("b", 2)]) == XSet([("b", 2), ("a", 1)])

    def test_non_pair_input_is_rejected_helpfully(self):
        with pytest.raises(InvalidAtomError, match="expects .element, scope."):
            XSet(["a", "b"])

    def test_unhashable_element_is_rejected(self):
        with pytest.raises(InvalidAtomError, match="not hashable"):
            XSet([([1, 2], EMPTY)])

    def test_unhashable_scope_is_rejected(self):
        with pytest.raises(InvalidAtomError):
            XSet([("a", {1: 2})])

    def test_process_cannot_enter_a_set(self):
        from repro.core.process import Process
        from repro.core.sigma import Sigma

        process = Process(xset([xpair(1, 2)]), Sigma.columns([1], [2]))
        with pytest.raises(InvalidAtomError, match="behaviors"):
            XSet([(process, EMPTY)])

    def test_process_cannot_be_a_scope_either(self):
        from repro.core.process import Process
        from repro.core.sigma import Sigma

        process = Process(xset([xpair(1, 2)]), Sigma.columns([1], [2]))
        with pytest.raises(InvalidAtomError):
            XSet([("a", process)])


class TestBuilders:
    def test_xset_builds_classical_members(self):
        classical = xset(["a", "b"])
        assert classical.contains("a")
        assert classical.contains("a", EMPTY)
        assert classical.is_classical()

    def test_singleton(self):
        assert singleton("a") == xset(["a"])
        assert singleton("a", 3) == XSet([("a", 3)])

    def test_xtuple_assigns_positions(self):
        assert xtuple(["p", "q"]).pairs() == (("p", 1), ("q", 2))

    def test_xpair_is_def_7_2(self):
        assert xpair("x", "y") == XSet([("x", 1), ("y", 2)])

    def test_xrecord_scopes_by_attribute(self):
        row = xrecord({"name": "ada", "dept": 3})
        assert row.contains("ada", "name")
        assert row.contains(3, "dept")

    def test_scoped_is_raw_pairs(self):
        assert scoped([("e", "s")]).pairs() == (("e", "s"),)


class TestMembership:
    def test_contains_defaults_to_classical_scope(self):
        assert xset(["a"]).contains("a")
        assert not XSet([("a", 1)]).contains("a")
        assert XSet([("a", 1)]).contains("a", 1)

    def test_none_is_a_legitimate_scope(self):
        # Regression: scope omission is a sentinel, not None, so
        # membership under the scope None is expressible.
        scoped_by_none = XSet([("a", None)])
        assert scoped_by_none.contains("a", None)
        assert not scoped_by_none.contains("a")
        assert singleton("a", None) == scoped_by_none
        assert singleton("a") == xset(["a"])

    def test_in_operator_is_any_scope(self):
        assert "a" in XSet([("a", 7)])
        assert "b" not in XSet([("a", 7)])

    def test_elements_and_scopes_views(self):
        mixed = XSet([("a", 1), ("b", 1), ("a", 2)])
        assert mixed.elements() == ("a", "b")
        assert mixed.scopes() == (1, 2)
        assert mixed.elements_at(1) == ("a", "b")
        assert mixed.scopes_of("b") == (1,)

    def test_missing_element_has_no_scopes(self):
        assert XSet([("a", 1)]).scopes_of("zzz") == ()
        assert XSet([("a", 1)]).elements_at(99) == ()


class TestEqualityAndHashing:
    def test_equal_sets_hash_equal(self):
        left = XSet([("a", 1), ("b", 2)])
        right = XSet([("b", 2), ("a", 1)])
        assert left == right
        assert hash(left) == hash(right)

    def test_nested_structural_equality(self):
        inner = xtuple(["a", "b"])
        assert xset([inner]) == xset([xtuple(["a", "b"])])

    def test_int_and_float_members_follow_python_equality(self):
        assert xset([1]) == xset([1.0])
        assert hash(xset([1])) == hash(xset([1.0]))

    def test_big_int_members_keep_the_hash_eq_contract(self):
        # canonical_key once mapped every number through float(), so
        # these two sorted by insertion order: equal sets, unequal hashes.
        forward = xset([2**53, 2**53 + 1])
        backward = xset([2**53 + 1, 2**53])
        assert forward == backward
        assert forward.pairs() == backward.pairs()
        assert hash(forward) == hash(backward)
        assert len({forward, backward}) == 1
        assert xset([2**53]) != xset([2**53 + 1])

    def test_comparison_with_non_xset_is_not_equal(self):
        assert xset(["a"]) != "a"
        assert not (xset(["a"]) == frozenset({"a"}))

    @given(xsets())
    def test_rebuild_from_pairs_is_identity(self, value):
        assert XSet(value.pairs()) == value
        assert hash(XSet(value.pairs())) == hash(value)


class TestImmutability:
    def test_attributes_cannot_be_set(self):
        with pytest.raises(AttributeError):
            xset(["a"]).extra = 1

    def test_attributes_cannot_be_deleted(self):
        with pytest.raises(AttributeError):
            del xset(["a"])._pairs

    @given(xsets())
    def test_a_value_is_its_own_copy_and_pickles_to_an_equal_one(self, value):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(value, protocol))
            assert again == value and hash(again) == hash(value)
            assert repr(again) == repr(value)

    def test_memo_slots_are_as_immutable_as_the_rest(self):
        value = xset(["a"])
        for name in ("_key", "_by_scope", "_by_element"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)


class TestTupleShape:
    def test_empty_set_is_the_zero_tuple(self):
        assert EMPTY.tuple_length() == 0
        assert EMPTY.is_tuple()
        assert EMPTY.as_tuple() == ()

    def test_tuple_recognition(self):
        assert xtuple(["a", "b", "c"]).tuple_length() == 3
        assert xtuple(["a", "b", "c"]).as_tuple() == ("a", "b", "c")

    def test_gap_in_positions_is_not_a_tuple(self):
        assert XSet([("a", 1), ("b", 3)]).tuple_length() is None

    def test_duplicate_position_is_not_a_tuple(self):
        assert XSet([("a", 1), ("b", 1)]).tuple_length() is None

    def test_non_integer_scope_is_not_a_tuple(self):
        assert XSet([("a", 1), ("b", "two")]).tuple_length() is None

    def test_boolean_scope_is_not_a_position(self):
        assert XSet([("a", True)]).tuple_length() is None

    def test_zero_position_is_not_a_tuple(self):
        assert XSet([("a", 0)]).tuple_length() is None

    def test_as_tuple_raises_for_non_tuples(self):
        with pytest.raises(NotATupleError):
            XSet([("a", "s")]).as_tuple()

    def test_equal_elements_at_distinct_positions(self):
        # <a, a> is a legitimate 2-tuple; CST's Kuratowski pair
        # degenerates here but Def 9.1 does not.
        assert xtuple(["a", "a"]).as_tuple() == ("a", "a")


class TestRecordShape:
    def test_record_recognition(self):
        assert xrecord({"k": 1}).is_record()
        assert not xtuple(["a"]).is_record()
        assert not EMPTY.is_record()

    def test_record_with_repeated_attribute_is_not_a_record(self):
        assert not XSet([("a", "k"), ("b", "k")]).is_record()

    def test_as_record_round_trip(self):
        fields = {"name": "ada", "dept": 3}
        assert dict(xrecord(fields).as_record()) == fields

    def test_as_record_raises_for_non_records(self):
        with pytest.raises(NotATupleError):
            xtuple(["a"]).as_record()


class TestSubsets:
    def test_subset_operators(self):
        small = XSet([("a", 1)])
        large = XSet([("a", 1), ("b", 2)])
        assert small <= large
        assert small < large
        assert large >= small
        assert large > small
        assert not large <= small

    def test_nonempty_subset_matches_the_papers_footnote(self):
        large = XSet([("a", 1)])
        assert not EMPTY.is_nonempty_subset(large)
        assert large.is_nonempty_subset(large)

    @given(xsets(), xsets())
    def test_subset_agrees_with_pair_inclusion(self, left, right):
        expected = set(left.pairs()) <= set(right.pairs())
        assert left.issubset(right) == expected


class TestToPython:
    def test_tuple_conversion(self):
        assert xtuple([1, 2, 3]).to_python() == (1, 2, 3)

    def test_classical_conversion(self):
        assert xset([1, 2]).to_python() == frozenset({1, 2})

    def test_nested_conversion(self):
        nested = xset([xtuple([1, 2])])
        assert nested.to_python() == frozenset({(1, 2)})

    def test_scoped_conversion_keeps_pairs(self):
        assert XSet([("a", 1), ("b", "s")]).to_python() == frozenset(
            {("a", 1), ("b", "s")}
        )


class TestRendering:
    def test_empty_renders_as_braces(self):
        assert repr(EMPTY) == "{}"

    def test_tuples_render_in_angle_brackets(self):
        assert repr(xtuple(["a", "b"])) == "<a, b>"

    def test_classical_members_render_bare(self):
        assert repr(xset(["a"])) == "{a}"

    def test_scoped_members_render_with_caret(self):
        assert repr(XSet([("a", "x")])) == "{a^x}"

    def test_rendering_is_deterministic(self):
        left = XSet([("b", 2), ("a", 1)])
        right = XSet([("a", 1), ("b", 2)])
        assert repr(left) == repr(right)

    def test_non_identifier_strings_are_quoted(self):
        assert repr(xset(["two words"])) == "{'two words'}"
