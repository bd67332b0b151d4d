"""Relative product (Def 10.1): the eight section-10 parameterizations.

The paper lists eight sigma/omega settings showing how one operation
yields differently-shaped joins.  Each case below uses operands chosen
so the join succeeds and the expected member is computed by hand from
Def 10.1; cases 7 and 8 are the wide-tuple settings printed in the
paper verbatim.
"""

import os
import random
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidAtomError
from repro.xst.builders import xpair, xset, xtuple
from repro.xst.relative_product import (
    cst_relative_product,
    relative_product,
    relative_product_nested_loop,
)
from repro.cst.relations import relative_product as cst_ground_truth
from repro.xst.xset import EMPTY, XSet

from tests.conftest import pair_relations
from tests.values import TWINS as POOL_TWINS

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "0"))


def sigma_map(*pairs):
    """Scope map ``{old^new, ...}`` from (old, new) pairs."""
    return XSet(list(pairs))


class TestSection10Cases:
    def test_case_1_classical_compose(self):
        # <a,b> / <b,c> = <a,c>
        sigma = (sigma_map((1, 1)), sigma_map((2, 1)))
        omega = (sigma_map((1, 1)), sigma_map((2, 2)))
        f, g = xset([xpair("a", "b")]), xset([xpair("b", "c")])
        assert relative_product(f, g, sigma, omega) == xset([xpair("a", "c")])

    def test_case_2_keep_both_right_columns(self):
        # <a,b> / <b,c> = <a,b,c>
        sigma = (sigma_map((1, 1)), sigma_map((2, 1)))
        omega = (sigma_map((1, 1)), sigma_map((1, 2), (2, 3)))
        f, g = xset([xpair("a", "b")]), xset([xpair("b", "c")])
        assert relative_product(f, g, sigma, omega) == xset(
            [xtuple(["a", "b", "c"])]
        )

    def test_case_3_keep_left_whole_key_on_firsts(self):
        # <a,b> / <a,c> = <a,b,c>
        sigma = (sigma_map((1, 1), (2, 2)), sigma_map((1, 1)))
        omega = (sigma_map((1, 1)), sigma_map((2, 3)))
        f, g = xset([xpair("a", "b")]), xset([xpair("a", "c")])
        assert relative_product(f, g, sigma, omega) == xset(
            [xtuple(["a", "b", "c"])]
        )

    def test_case_4_swap_left_key_on_firsts(self):
        # <b,a> / <b,c> = <a,c>
        sigma = (sigma_map((2, 1)), sigma_map((1, 1)))
        omega = (sigma_map((1, 1)), sigma_map((2, 2)))
        f, g = xset([xpair("b", "a")]), xset([xpair("b", "c")])
        assert relative_product(f, g, sigma, omega) == xset([xpair("a", "c")])

    def test_case_5_key_on_right_second(self):
        # <a,b> / <c,b> = <a,c,b>
        sigma = (sigma_map((1, 1)), sigma_map((2, 1)))
        omega = (sigma_map((2, 1)), sigma_map((1, 2), (2, 3)))
        f, g = xset([xpair("a", "b")]), xset([xpair("c", "b")])
        assert relative_product(f, g, sigma, omega) == xset(
            [xtuple(["a", "c", "b"])]
        )

    def test_case_6_backwards_compose(self):
        # <a,b> / <c,b> = <a,c>
        sigma = (sigma_map((1, 1)), sigma_map((2, 1)))
        omega = (sigma_map((2, 1)), sigma_map((1, 2)))
        f, g = xset([xpair("a", "b")]), xset([xpair("c", "b")])
        assert relative_product(f, g, sigma, omega) == xset([xpair("a", "c")])

    def test_case_7_wide_reordering(self):
        # sigma = <{2^1,3^2,1^3}, {2^1,3^2}>,
        # omega = <{4^1,3^2}, {2^4,4^5,3^6,1^7,1^8}>
        sigma = (
            sigma_map((2, 1), (3, 2), (1, 3)),
            sigma_map((2, 1), (3, 2)),
        )
        omega = (
            sigma_map((4, 1), (3, 2)),
            sigma_map((2, 4), (4, 5), (3, 6), (1, 7), (1, 8)),
        )
        f = xset([xtuple([10, 2, 3])])
        g = xset([xtuple(["u", "v", 3, 2])])
        expected = xset([xtuple([2, 3, 10, "v", 2, 3, "u", "u"])])
        assert relative_product(f, g, sigma, omega) == expected

    def test_case_8_wide_equi_join(self):
        # Join 5-tuples and 6-tuples on their first three columns.
        sigma = (
            sigma_map((1, 1), (2, 2), (3, 3), (4, 4), (5, 5)),
            sigma_map((1, 1), (2, 2), (3, 3)),
        )
        omega = (
            sigma_map((1, 1), (2, 2), (3, 3)),
            sigma_map((4, 6), (5, 7), (6, 8)),
        )
        f = xset([xtuple([1, 2, 3, 4, 5])])
        g = xset([xtuple([1, 2, 3, "a", "b", "c"])])
        expected = xset([xtuple([1, 2, 3, 4, 5, "a", "b", "c"])])
        assert relative_product(f, g, sigma, omega) == expected

    def test_case_8_mismatched_keys_produce_nothing(self):
        sigma = (
            sigma_map((1, 1), (2, 2), (3, 3), (4, 4), (5, 5)),
            sigma_map((1, 1), (2, 2), (3, 3)),
        )
        omega = (
            sigma_map((1, 1), (2, 2), (3, 3)),
            sigma_map((4, 6), (5, 7), (6, 8)),
        )
        f = xset([xtuple([1, 2, 3, 4, 5])])
        g = xset([xtuple([9, 9, 9, "a", "b", "c"])])
        assert relative_product(f, g, sigma, omega).is_empty


class TestCSTCompatibility:
    def test_cst_alias(self):
        f = xset([xpair("a", "b"), xpair("p", "q")])
        g = xset([xpair("b", "c"), xpair("q", "r")])
        assert cst_relative_product(f, g) == xset(
            [xpair("a", "c"), xpair("p", "r")]
        )

    @given(pair_relations(), pair_relations())
    def test_matches_classical_ground_truth(self, f, g):
        classical_f = frozenset(m.as_tuple() for m, _ in f.pairs())
        classical_g = frozenset(m.as_tuple() for m, _ in g.pairs())
        expected = cst_ground_truth(classical_f, classical_g)
        result = cst_relative_product(f, g)
        assert {
            m.as_tuple() for m, _ in result.pairs()
        } == set(expected)


class TestImplementationEquivalence:
    @given(pair_relations(), pair_relations())
    def test_hash_join_equals_nested_loop(self, f, g):
        sigma = (sigma_map((1, 1)), sigma_map((2, 1)))
        omega = (sigma_map((1, 1)), sigma_map((2, 2)))
        assert relative_product(f, g, sigma, omega) == (
            relative_product_nested_loop(f, g, sigma, omega)
        )

    @given(pair_relations(), pair_relations())
    def test_hash_join_equals_nested_loop_wide_output(self, f, g):
        sigma = (sigma_map((1, 1)), sigma_map((2, 1)))
        omega = (sigma_map((1, 1)), sigma_map((1, 2), (2, 3)))
        assert relative_product(f, g, sigma, omega) == (
            relative_product_nested_loop(f, g, sigma, omega)
        )


class Tied:
    """An atom equal only to itself, whose ``repr`` ties with every
    other one's: no value the log carries, so no set holds one."""

    __slots__ = ()

    def __repr__(self):
        return "tied"


#: The shared pool's typed twins (``1``/``1.0``/``True``,
#: ``0``/``0.0``/``-0.0``/``False``), the complex twin ``1+0j`` and a
#: plain string: equal values spelled apart.
TWINS = [*chain.from_iterable(POOL_TWINS), 1 + 0j, "a"]

#: Member scopes a key sigma reads, twins among them.
SCOPES = [1, 2, 3, 2.0]

#: Targets of a scope map.
TARGETS = [1, 2, "k"]


def spelled(value):
    """``value`` down to its spelling: the type and repr of every atom,
    every set's pairs in run order."""
    if isinstance(value, XSet):
        return tuple((spelled(e), spelled(s)) for e, s in value.pairs())
    return (type(value).__name__, repr(value))


def records(size):
    """Records over ``SCOPES``, possibly several elements at one scope."""
    return st.builds(
        XSet,
        st.lists(st.tuples(st.sampled_from(TWINS), st.sampled_from(SCOPES)),
                 max_size=size),
    )


#: Members: atoms or records; member scopes: mostly the empty set,
#: sometimes a record, so the scope half of a key pair matters too.
members = st.tuples(
    st.one_of(st.sampled_from(TWINS), records(4)),
    st.one_of(st.just(EMPTY), records(2)),
)

#: Scope maps, empty among them, some sending two scopes to one target.
sigmas = st.builds(
    XSet,
    st.lists(st.tuples(st.sampled_from(SCOPES), st.sampled_from(TARGETS)),
             max_size=3),
)


@st.composite
def larger_f(draw):
    """``(F, G)`` with ``|F| > |G|``: ``F`` is indexed, ``G``'s members
    probe, and output arrives ``G``-major."""
    g = XSet(draw(st.lists(members, min_size=1, max_size=5)))
    f = XSet(draw(st.lists(members, min_size=len(g) + 1, max_size=len(g) + 4)))
    return f, g


def random_case(rng):
    """One draw of the sweep below: the same shapes, uniformly."""

    def record(size):
        return XSet(
            (rng.choice(TWINS), rng.choice(SCOPES))
            for _ in range(rng.randint(0, size))
        )

    def operand():
        return XSet(
            (
                rng.choice(TWINS) if rng.random() < 0.15 else record(4),
                EMPTY if rng.random() < 0.7 else record(2),
            )
            for _ in range(rng.randint(0, 7))
        )

    def sigma():
        return XSet(
            (rng.choice(SCOPES), rng.choice(TARGETS))
            for _ in range(rng.randint(0, 3))
        )

    f, g = operand(), operand()
    if rng.random() < 0.5:
        key, kept = sigma(), sigma()
        return f, g, (kept, key), (key, kept)
    return f, g, (sigma(), sigma()), (sigma(), sigma())


def assert_spelled_alike(f, g, sigma, omega):
    assert spelled(relative_product(f, g, sigma, omega)) == spelled(
        relative_product_nested_loop(f, g, sigma, omega)
    )


class TestSpellingExact:
    """The join equals the nested loop down to the type and repr of every
    element and scope, whichever operand is indexed."""

    @given(st.lists(members, max_size=7), st.lists(members, max_size=7),
           sigmas, sigmas, sigmas, sigmas)
    def test_every_spelling_is_the_nested_loops(self, f, g, s1, s2, w1, w2):
        assert_spelled_alike(XSet(f), XSet(g), (s1, s2), (w1, w2))

    @given(larger_f(), sigmas, sigmas, sigmas)
    def test_a_probe_from_g_spells_as_the_nested_loop(self, fg, key, s1, w2):
        # One key sigma on both sides, as a natural join has, so pairs
        # meet often and equal outputs arrive spelled apart.
        assert_spelled_alike(*fg, (s1, key), (key, w2))

    def test_a_seeded_sweep_spells_as_the_nested_loop(self):
        # A G-major arrival left unsorted respells about 2 % of these.
        rng = random.Random(WORKLOAD_SEED)
        for _ in range(2000):
            assert_spelled_alike(*random_case(rng))

    # The larger F is indexed and G's members probe, so output arrives
    # G-major; each case below would come out spelled by arrival.
    SIGMA = (EMPTY, sigma_map((2, 1)))
    OMEGA = (sigma_map((1, 1)), sigma_map((2, 1)))
    F = xset([xpair(1, 2), xpair(2, 1), xpair(3, 9)])

    def test_equal_outputs_keep_the_f_major_spelling(self):
        g = xset([xpair(2, 1), xpair(1, True)])
        assert_spelled_alike(self.F, g, self.SIGMA, self.OMEGA)
        ((member, _),) = relative_product(self.F, g, self.SIGMA, self.OMEGA)
        assert type(member.elements()[0]) is int

    def test_atoms_keyed_alike_are_refused_at_the_door(self):
        # Unequal atoms whose keys tie would leave their order to
        # arrival; the constructor refuses them, so no output ties.
        with pytest.raises(InvalidAtomError, match="no atom"):
            xpair(2, Tied())


class TestDegenerateKeys:
    def test_empty_key_specs_cross_everything(self):
        # With sigma2 = omega1 = {}, every pair of members matches.
        sigma = (sigma_map((1, 1)), EMPTY)
        omega = (EMPTY, sigma_map((1, 2)))
        f = xset([xtuple(["a"]), xtuple(["b"])])
        g = xset([xtuple(["x"]), xtuple(["y"])])
        result = relative_product(f, g, sigma, omega)
        assert len(result) == 4
        assert result.contains(xtuple(["a", "x"]))

    def test_empty_operands(self):
        sigma = (sigma_map((1, 1)), sigma_map((2, 1)))
        omega = (sigma_map((1, 1)), sigma_map((2, 2)))
        assert relative_product(EMPTY, xset([xpair(1, 2)]), sigma, omega).is_empty
        assert relative_product(xset([xpair(1, 2)]), EMPTY, sigma, omega).is_empty

    def test_atom_members_join_via_empty_keys(self):
        # Atoms re-scope to {}, so two atom members always share the
        # empty join key; kept parts are also empty, so the result is
        # one empty-member pair.
        sigma = (EMPTY, EMPTY)
        omega = (EMPTY, EMPTY)
        f, g = xset(["p"]), xset(["q"])
        result = relative_product(f, g, sigma, omega)
        assert result == xset([EMPTY])
