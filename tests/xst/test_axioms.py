"""The XST axioms (reference [1]) verified over the model."""

from hypothesis import given
from hypothesis import strategies as st

from repro.xst.axioms import (
    empty_set_holds,
    extensionality_holds,
    foundation_holds,
    pairing_holds,
    powerset_holds,
    replacement_holds,
    separation_holds,
    union_holds,
)
from repro.xst.builders import xset, xtuple
from repro.xst.xset import XSet

from tests.conftest import atoms, xsets


class TestExtensionality:
    @given(xsets(), xsets())
    def test_holds_for_arbitrary_pairs(self, a, b):
        assert extensionality_holds(a, b)

    @given(xsets())
    def test_holds_reflexively(self, a):
        assert extensionality_holds(a, a)

    @given(xsets())
    def test_holds_against_a_rebuild(self, a):
        assert extensionality_holds(a, XSet(reversed(a.pairs())))


class TestEmptySet:
    def test_exists_and_is_unique(self):
        assert empty_set_holds()


class TestPairing:
    @given(atoms, atoms, atoms, atoms)
    def test_holds_for_atoms(self, x, s, y, t):
        assert pairing_holds(x, s, y, t)

    @given(xsets(), atoms, atoms, atoms)
    def test_holds_with_set_elements(self, x, s, y, t):
        assert pairing_holds(x, s, y, t)

    def test_collapsing_pair(self):
        # x = y, s = t: pairing gives the singleton, still exact.
        assert pairing_holds("a", 1, "a", 1)


class TestUnion:
    @given(st.lists(xsets(max_depth=1), max_size=4))
    def test_holds_for_families_of_sets(self, members):
        family = xset(members)
        assert union_holds(family)

    @given(xsets())
    def test_holds_with_atom_elements_mixed_in(self, inner):
        family = xset(["atom", inner])
        assert union_holds(family)

    def test_empty_family(self):
        assert union_holds(XSet())


class TestSeparation:
    @given(xsets())
    def test_holds_for_scope_predicates(self, a):
        assert separation_holds(a, lambda element, scope: scope == 1)

    @given(xsets())
    def test_holds_for_element_predicates(self, a):
        assert separation_holds(
            a, lambda element, scope: isinstance(element, str)
        )

    @given(xsets())
    def test_holds_for_constant_predicates(self, a):
        assert separation_holds(a, lambda element, scope: True)
        assert separation_holds(a, lambda element, scope: False)


class TestReplacement:
    @given(xsets())
    def test_holds_for_scope_shift(self, a):
        assert replacement_holds(
            a, lambda element, scope: (element, xtuple(("shifted", scope)))
        )

    @given(xsets())
    def test_holds_for_collapsing_transforms(self, a):
        # Non-injective transforms are fine: the image is a set.
        assert replacement_holds(a, lambda element, scope: ("same", 0))


class TestPowerset:
    @given(xsets(max_depth=1, max_size=4))
    def test_holds_for_small_sets(self, a):
        assert powerset_holds(a)

    def test_holds_for_empty(self):
        assert powerset_holds(XSet())


class TestFoundation:
    @given(xsets())
    def test_no_generated_value_contains_itself(self, a):
        assert foundation_holds(a)

    def test_deep_nesting_is_still_well_founded(self):
        value = XSet()
        for _ in range(20):
            value = xset([value])
        assert foundation_holds(value)
