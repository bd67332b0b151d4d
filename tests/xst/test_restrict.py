"""sigma-Restriction (Def 7.6): CST compatibility, appendix usage, edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError, InvalidAtomError
from repro.gov.governor import governed
from repro.xst.builders import scoped, xpair, xset, xtuple
from repro.xst.rescope import rescope_value_by_element
from repro.xst.restrict import restrict_1, sigma_restrict
from repro.xst.serialization import dumps
from repro.xst.xset import EMPTY, XSet

from tests.conftest import pair_relations, xsets
from tests.xst.test_canonical_form import seeded, spelled


def _sigma_1() -> XSet:
    """The sigma ``<1>`` keying on position 1."""
    return xtuple([1])


class TestCSTShape:
    def test_restriction_keeps_matching_first_components(self):
        f = xset([xpair("a", "x"), xpair("b", "y"), xpair("c", "x")])
        keys = xset([xtuple(["a"]), xtuple(["c"])])
        assert sigma_restrict(f, keys, _sigma_1()) == xset(
            [xpair("a", "x"), xpair("c", "x")]
        )

    def test_restrict_1_alias(self):
        f = xset([xpair("a", "x"), xpair("b", "y")])
        assert restrict_1(f, xset([xtuple(["b"])])) == xset([xpair("b", "y")])

    def test_missing_key_keeps_nothing(self):
        f = xset([xpair("a", "x")])
        assert restrict_1(f, xset([xtuple(["zzz"])])).is_empty

    def test_appendix_b_restriction_step(self):
        # f |_{<1>} {<a>} keeps only the member starting with a.
        f = xset(
            [xtuple(["a", "a", "a", "b", "b"]), xtuple(["b", "b", "a", "a", "b"])]
        )
        kept = sigma_restrict(f, xset([xtuple(["a"])]), _sigma_1())
        assert kept == xset([xtuple(["a", "a", "a", "b", "b"])])


class TestKeyWidths:
    def test_two_column_keys(self):
        f = xset([xtuple(["a", "b", 1]), xtuple(["a", "c", 2])])
        sigma = xtuple([1, 2])
        keys = xset([xtuple(["a", "b"])])
        assert sigma_restrict(f, keys, sigma) == xset([xtuple(["a", "b", 1])])

    def test_key_on_second_position(self):
        f = xset([xpair("a", "x"), xpair("b", "y")])
        # By-element sigma {2^1}: key position 1 matches member position 2.
        sigma = XSet([(2, 1)])
        keys = xset([xtuple(["y"])])
        assert sigma_restrict(f, keys, sigma) == xset([xpair("b", "y")])

    def test_attribute_scoped_keys(self):
        rows = xset(
            [
                scoped([("ada", "name"), (3, "dept")]),
                scoped([("alan", "name"), (5, "dept")]),
            ]
        )
        sigma = XSet([("dept", "dept")])
        keys = xset([scoped([(3, "dept")])])
        assert sigma_restrict(rows, keys, sigma) == xset(
            [scoped([("ada", "name"), (3, "dept")])]
        )


class TestLiteralReadingConsequences:
    def test_empty_fragment_keys_are_universal(self):
        # An atom in A re-scopes to the empty fragment and keeps all of R.
        f = xset([xpair("a", "x"), xpair("b", "y")])
        assert sigma_restrict(f, xset(["atom-key"]), _sigma_1()) == f

    def test_atom_members_of_r_survive_only_empty_fragments(self):
        r = xset(["atom-member"])
        tuple_key = xset([xtuple(["a"])])
        assert sigma_restrict(r, tuple_key, _sigma_1()).is_empty
        atom_key = xset(["whatever"])
        assert sigma_restrict(r, atom_key, _sigma_1()) == r

    def test_partial_keys_trigger_wider_members(self):
        # With a two-column sigma, a key supplying only column 1 still
        # matches: its re-scoped fragment is a subset of the member.
        f = xset([xtuple(["a", "b"])])
        sigma = xtuple([1, 2])
        partial = xset([xtuple(["a"])])
        assert sigma_restrict(f, partial, sigma) == f


class TestScopeSideCondition:
    def test_member_scope_condition_filters(self):
        member = xtuple(["a"])
        r = XSet([(member, xtuple(["S"])), (member, xtuple(["T"]))])
        # Key whose own scope re-scopes into <S> only.
        keys = XSet([(xtuple(["a"]), xtuple(["S"]))])
        sigma = _sigma_1()
        result = sigma_restrict(r, keys, sigma)
        assert result == XSet([(member, xtuple(["S"]))])

    def test_classical_key_scope_matches_any_member_scope(self):
        member = xtuple(["a"])
        r = XSet([(member, xtuple(["S"]))])
        keys = xset([xtuple(["a"])])  # key scope {} re-scopes to {}
        assert sigma_restrict(r, keys, _sigma_1()) == r


class TestRestrictionProperties:
    def test_empty_inputs(self):
        f = xset([xpair("a", "x")])
        assert sigma_restrict(EMPTY, xset([xtuple(["a"])]), _sigma_1()).is_empty
        assert sigma_restrict(f, EMPTY, _sigma_1()).is_empty

    @given(pair_relations(), pair_relations())
    def test_result_is_always_a_subset_of_r(self, r, keys):
        assert sigma_restrict(r, keys, _sigma_1()).issubset(r)

    @given(pair_relations(), pair_relations(), pair_relations())
    def test_monotone_in_the_key_set(self, r, small, extra):
        big = small | extra
        assert sigma_restrict(r, small, _sigma_1()).issubset(
            sigma_restrict(r, big, _sigma_1())
        )

    @given(pair_relations(), pair_relations(), pair_relations())
    def test_monotone_in_r(self, r_small, r_extra, keys):
        r_big = r_small | r_extra
        assert sigma_restrict(r_small, keys, _sigma_1()).issubset(
            sigma_restrict(r_big, keys, _sigma_1())
        )

    @given(pair_relations())
    def test_restriction_by_own_domain_is_identity(self, r):
        from repro.xst.domain import sigma_domain

        keys = sigma_domain(r, _sigma_1())
        assert sigma_restrict(r, keys, _sigma_1()) == r

    @given(xsets(), xsets())
    def test_empty_sigma_makes_every_key_universal(self, r, keys):
        result = sigma_restrict(r, keys, EMPTY)
        expected = r if keys else EMPTY
        assert result == expected


# ----------------------------------------------------------------------
# The index-probed restriction against Def 7.6 written out
# ----------------------------------------------------------------------

def _within(fragment: XSet, whole) -> bool:
    """``fragment subseteq whole``, the containing side possibly an atom."""
    return all(
        isinstance(whole, XSet) and whole.contains(element, scope)
        for element, scope in fragment.pairs()
    )


def literal_restrict(r: XSet, a: XSet, sigma: XSet) -> XSet:
    """Def 7.6 transliterated: every z, every a, both subset conditions."""
    return XSet(
        (z, w)
        for z, w in r.pairs()
        if any(
            _within(rescope_value_by_element(x, sigma), z)
            and _within(rescope_value_by_element(s, sigma), w)
            for x, s in a.pairs()
        )
    )


def assert_same_set(result: XSet, expected: XSet) -> None:
    assert spelled(result) == spelled(expected)  # pairs, order, 1 vs 1.0
    assert result == expected
    assert repr(result) == repr(expected)
    assert dumps(result) == dumps(expected)


#: Few values, twin-heavy, so keys hit and 1/1.0/True meet in one bucket.
_values = st.sampled_from([0, 1, 1.0, True, 2, "a", None])
_PARTS = ("k", "v", 1, 2)
_parts = st.sampled_from(_PARTS)
_records = st.builds(
    XSet, st.lists(st.tuples(_values, _parts), min_size=1, max_size=3)
)
#: Classical membership and three non-classical member scopes.
_member_scopes = st.sampled_from([EMPTY, xtuple(["S"]), xtuple(["T"]), "t"])


def _sets_of(members, max_size):
    return st.builds(
        XSet, st.lists(st.tuples(members, _member_scopes), max_size=max_size)
    )


#: The identity over every part (each record key is then its own, non-empty
#: fragment: the probed path), or any re-keying of some parts (which also
#: leaves keys with an empty fragment: the scan).
_sigmas = st.one_of(
    st.just(XSet((part, part) for part in _PARTS)),
    st.builds(XSet, st.lists(st.tuples(_parts, _parts), max_size=4)),
)


class TestProbedRestrictionIsTheDefinition:
    @seeded
    @settings(max_examples=300, deadline=None)
    @given(
        _sets_of(st.one_of(_records, _records, _values), 12),
        _sets_of(_records, 4),
        _sigmas,
        _sigmas,
    )
    def test_record_keys_under_two_scopes_in_turn(self, r, a, first, second):
        # Atom members of R, non-classical member scopes on both sides, and
        # the same R (one value, one set of indexes) under two sigmas.
        for sigma in (first, second, first):
            assert_same_set(
                sigma_restrict(r, a, sigma), literal_restrict(r, a, sigma)
            )

    @seeded
    @settings(max_examples=100, deadline=None)
    @given(
        _sets_of(_records, 12),
        _sets_of(st.one_of(_records, _values, st.just(EMPTY)), 4),
        _sigmas,
    )
    def test_universal_keys_mixed_with_record_keys(self, r, a, sigma):
        assert_same_set(
            sigma_restrict(r, a, sigma), literal_restrict(r, a, sigma)
        )

    @seeded
    @settings(max_examples=100, deadline=None)
    @given(_sets_of(_records, 3), _sets_of(_records, 40), _sigmas)
    def test_many_more_keys_than_members(self, r, a, sigma):
        assert_same_set(
            sigma_restrict(r, a, sigma), literal_restrict(r, a, sigma)
        )

    @given(st.lists(st.tuples(_values, _values), max_size=8), _values, _values)
    def test_multi_part_key_whose_first_part_is_unselective(
        self, rows, wanted, shared
    ):
        # Every member holds shared^k; only v tells them apart.
        r = xset(scoped([(shared, "k"), (v, "v"), (w, "w")]) for v, w in rows)
        key = xset([scoped([(shared, "k"), (wanted, "v")])])
        sigma = XSet([("k", "k"), ("v", "v")])
        result = sigma_restrict(r, key, sigma)
        assert_same_set(result, literal_restrict(r, key, sigma))
        assert len(result) == len({w for v, w in rows if v == wanted})

    def test_kept_members_come_back_in_run_order(self):
        r = xset(scoped([(n, "id"), (n % 3, "dept")]) for n in range(16))
        sigma = XSet([("id", "id")])
        # Run positions 9 and 2: a set of small ints iterates 9 first.
        wanted = [r.pairs()[at][0].elements_at("id")[0] for at in (9, 2)]
        keys = xset(scoped([(n, "id")]) for n in wanted)
        result = sigma_restrict(r, keys, sigma)
        assert result.pairs() == (r.pairs()[2], r.pairs()[9])
        assert_same_set(result, literal_restrict(r, keys, sigma))

    def test_survivors_of_two_keys_come_back_in_run_order(self):
        from tests.xst.test_carried_index import Opaque

        # The second key finds the earlier member: the smaller set sorts
        # first, whatever its element at k.
        early, late = scoped([(1, "k")]), scoped([(0, "k"), ("s", "v")])
        r = XSet([(early, EMPTY), (late, EMPTY)] + [
            (scoped([(n, "k"), ("s", "v")]), EMPTY) for n in range(2, 40)
        ])
        assert r.pairs()[0][0] is early
        keys = XSet([(scoped([(0, "k")]), EMPTY), (scoped([(1, "k")]), EMPTY)])
        sigma = XSet([("k", "k")])
        kept = sigma_restrict(r, keys, sigma)
        assert [member for member, _ in kept.pairs()] == [early, late]
        assert kept == literal_restrict(r, keys, sigma)
        # Unequal members whose keys tie cannot arise: an atom keyed by
        # its repr is refused at the door.
        with pytest.raises(InvalidAtomError, match="no atom"):
            scoped([(Opaque(0), "k"), ("s", "v")])

    def test_typed_twin_keys_keep_the_members_spelling(self):
        r = xset(scoped([(n, "k"), (str(n), "v")]) for n in (1, 2.0, 3))
        sigma = XSet([("k", "k")])
        for twin in (1, 1.0, True):
            kept = sigma_restrict(r, xset([scoped([(twin, "k")])]), sigma)
            assert spelled(kept) == spelled(xset([scoped([(1, "k"), ("1", "v")])]))
        kept = sigma_restrict(r, xset([scoped([(2, "k")])]), sigma)
        assert spelled(kept) == spelled(xset([scoped([(2.0, "k"), ("2.0", "v")])]))


class TestRestrictionIsGoverned:
    ROWS = xset(scoped([(n, "id"), (n % 4, "dept")]) for n in range(40))
    SIGMA = XSet([("dept", "dept")])

    def key(self, *depts):
        return xset(scoped([(dept, "dept")]) for dept in depts)

    def test_charges_the_rows_kept(self):
        for key in (self.key(1), self.key(1, 2), self.key(9), xset(["atom"])):
            with governed(max_rows=1000) as gov:
                kept = sigma_restrict(self.ROWS, key, self.SIGMA)
            assert gov.budget.rows == len(kept)
            assert gov.checkpoints >= 1
            assert gov.last_site == "xst.restrict"
        assert len(kept) == len(self.ROWS)  # the atom key is universal

    def test_a_budget_smaller_than_the_answer_raises(self):
        for key in (self.key(1), xset(["atom"])):
            with pytest.raises(BudgetExceededError) as error:
                with governed(max_rows=5):
                    sigma_restrict(self.ROWS, key, self.SIGMA)
            assert error.value.site == "xst.restrict"
