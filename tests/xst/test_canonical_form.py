"""Canonical-form oracle for results built without the checked constructor.

Several kernel operations hand their result to the kernel's private
run constructor, on the argument that it is already a duplicate-free
canonical run of admitted pairs.  The public ``XSet(pairs)`` makes no
such assumption, so it is the oracle: every result, and every extended
set nested inside it, must be indistinguishable from the same pairs
pushed back through the public constructor in reverse order.

The atoms include typed twins (``1``/``1.0``/``True``), ``None`` and
integers around ``2**53`` that ``float`` cannot tell apart.
"""

import os

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.relational import algebra
from repro.relational.relation import Relation
from repro.xst.domain import sigma_domain
from repro.xst.image import image
from repro.xst.ordering import canonical_key
from repro.xst.relative_product import (
    relative_product,
    relative_product_nested_loop,
)
from repro.xst.rescope import rescope_by_element, rescope_by_scope
from repro.xst.restrict import sigma_restrict
from repro.xst.serialization import dumps
from repro.xst.xset import EMPTY, XSet

#: CI's ``columnar`` sweep sets the seed; each seed draws other examples.
_SEED = os.environ.get("REPRO_WORKLOAD_SEED")
seeded = seed(int(_SEED)) if _SEED else (lambda test: test)

atoms = st.one_of(
    st.sampled_from([0, 1, 1.0, True, 2, 2.0, -3, 0.5, None, "a", "b", "c"]),
    st.sampled_from([2**53, 2**53 + 1, 2**53 + 2, float(2**53), -(2**53) - 1]),
)


def nested(max_size: int = 4) -> st.SearchStrategy:
    """Extended sets over ``atoms``: empties, nested scopes, twins."""
    flat = st.builds(
        XSet,
        st.lists(
            st.tuples(atoms, st.one_of(st.just(EMPTY), atoms)), max_size=max_size
        ),
    )

    def extend(children):
        values = st.one_of(atoms, children)
        return st.builds(
            XSet, st.lists(st.tuples(values, values), max_size=max_size)
        )

    return st.recursive(flat, extend, max_leaves=8)


#: Scope specifications over the scopes ``nested`` sets actually use,
#: identity-heavy so the in-place re-scope is exercised as well.
sigmas = st.builds(
    XSet,
    st.lists(
        st.one_of(
            st.builds(lambda scope: (scope, scope), atoms),
            st.tuples(atoms, atoms),
        ),
        max_size=4,
    ),
)

ATTRS = ("k", "v", "w")
values = st.sampled_from([0, 1, 1.0, True, None, "a", 2**53, 2**53 + 1])


def relations(names=ATTRS) -> st.SearchStrategy:
    return st.builds(
        lambda rows: Relation.from_tuples(list(names), rows),
        st.lists(st.tuples(*[values] * len(names)), max_size=6),
    )


def spelled(value):
    """``repr`` that also tells ``1`` from ``1.0`` from ``True`` apart."""
    if isinstance(value, XSet):
        return [(spelled(e), spelled(s)) for e, s in value.pairs()]
    return (type(value).__name__, repr(value))


def assert_canonical(result: XSet) -> None:
    rebuilt = XSet(reversed(result.pairs()))
    assert spelled(result) == spelled(rebuilt)
    assert result == rebuilt
    assert hash(result) == hash(rebuilt)
    assert canonical_key(result) == canonical_key(rebuilt)
    assert repr(result) == repr(rebuilt)
    assert dumps(result) == dumps(rebuilt)
    # The indexes, built on first use, against ones derived from the pairs.
    by_element, by_scope = {}, {}
    for element, scope in rebuilt.pairs():
        by_element.setdefault(element, []).append(scope)
        by_scope.setdefault(scope, []).append(element)
    for element, scopes in by_element.items():
        assert result.scopes_of(element) == tuple(scopes)
        assert element in result
    for scope, elements in by_scope.items():
        assert result.elements_at(scope) == tuple(elements)
    assert result.elements() == rebuilt.elements()
    assert result.scopes() == rebuilt.scopes()
    assert result.is_record() == rebuilt.is_record()
    assert result.tuple_length() == rebuilt.tuple_length()
    for element, scope in result.pairs():
        for member in (element, scope):
            if isinstance(member, XSet):
                assert_canonical(member)


class TestBooleanAlgebra:
    @given(nested(), nested(), nested())
    def test_results_are_canonical(self, a, b, c):
        for result in (a | b, a & b, a - b, a ^ b, a.union(b, c),
                       a.intersection(b, c)):
            assert_canonical(result)

    @given(nested(), nested())
    def test_results_are_the_set_theoretic_ones(self, a, b):
        left, right = set(a.pairs()), set(b.pairs())
        assert set((a | b).pairs()) == left | right
        assert set((a & b).pairs()) == left & right
        assert set((a - b).pairs()) == left - right
        assert set((a ^ b).pairs()) == left ^ right

    def test_typed_twins_keep_the_left_operands_spelling(self):
        ints = XSet([(1, "a"), (2, "b"), (3, "c")])
        floats = XSet([(1.0, "a"), (2.0, "b")])
        assert spelled(ints & floats) == spelled(XSet([(1, "a"), (2, "b")]))
        assert spelled(floats & ints) == spelled(floats)
        assert spelled(floats | ints) == spelled(
            XSet([(1.0, "a"), (2.0, "b"), (3, "c")])
        )
        assert spelled(ints - XSet([(3.0, "c")])) == spelled(ints & floats)

    @given(nested(), nested())
    def test_operands_keep_their_key_and_order(self, a, b):
        key, pairs = canonical_key(a), a.pairs()
        a | b, a & b, a - b, a ^ b, b | a, sorted([a, b], key=canonical_key)
        assert canonical_key(a) == key
        assert canonical_key(a) == canonical_key(XSet(reversed(pairs)))
        assert a.pairs() == pairs

    @given(st.lists(st.tuples(atoms, atoms), max_size=30),
           st.lists(st.tuples(atoms, atoms), max_size=3))
    def test_merging_a_short_run_into_a_long_one(self, many, few):
        big, small = XSet(many), XSet(few)
        assert (big | small).pairs() == XSet(many + few).pairs()
        assert (small | big).pairs() == XSet(few + many).pairs()
        assert_canonical(big | small)


class TestKernelOperations:
    @given(nested(), sigmas)
    def test_rescope(self, a, sigma):
        assert_canonical(rescope_by_scope(a, sigma))
        assert_canonical(rescope_by_element(a, sigma))
        expected = XSet(
            (element, new_scope)
            for element, scope in a.pairs()
            for new_scope in sigma.scopes_of(scope)
        )
        assert spelled(rescope_by_scope(a, sigma)) == spelled(expected)

    @seeded
    @given(nested(), sigmas)
    def test_rescope_returning_its_operand_equals_the_built_result(self, a, sigma):
        for rescope, targets in ((rescope_by_scope, sigma.scopes_of),
                                 (rescope_by_element, sigma.elements_at)):
            result = rescope(a, sigma)
            built = XSet(
                (element, new_scope)
                for element, scope in a.pairs()
                for new_scope in targets(scope)
            )
            # Whichever path answered -- for ``result is a`` the operand
            # itself -- sigma's spelling of every scope is what comes back.
            assert spelled(result) == spelled(built)
            assert repr(result) == repr(built)
            assert hash(result) == hash(built)
            assert canonical_key(result) == canonical_key(built)
            assert dumps(result) == dumps(built)

    def test_rescope_returns_its_operand_only_at_its_own_spelling(self):
        inner, half = XSet([("s", 1)]), 0.5
        a = XSet([("x", 1), ("y", "k"), ("z", inner), ("w", half)])

        def identity(respelled=()):
            scopes = {1: 1, "k": "k", inner: inner, half: half}
            scopes.update(respelled)  # equal keys: only the new scope changes
            return XSet(scopes.items())

        # str and int scopes by equality, anything else by identity.
        same = identity({"k": "".join(["k"])})
        assert rescope_by_scope(a, same) is a
        assert rescope_by_element(a, same) is a
        assert rescope_by_scope(EMPTY, same) is EMPTY
        twins = [
            {1: 1.0}, {1: True}, {half: float("0.5")},
            {inner: XSet([("s", 1.0)])}, {inner: XSet([("s", 1)])},
        ]
        for respelled in twins:
            sigma = identity(respelled)
            result = rescope_by_scope(a, sigma)
            assert result is not a and result == a
            assert spelled(result) == spelled(XSet(
                (element, sigma.scopes_of(scope)[0]) for element, scope in a.pairs()
            ))
        # A dropped or a duplicated membership is not the operand either.
        assert rescope_by_scope(a, XSet([(1, 1)])) == XSet([("x", 1)])
        assert len(rescope_by_scope(a, same | XSet([(1, 2)]))) == 5

    @given(nested(), nested(), sigmas)
    def test_restrict_domain_image(self, r, a, sigma):
        assert_canonical(sigma_restrict(r, a, sigma))
        assert_canonical(sigma_domain(r, sigma))
        assert_canonical(image(r, a, (sigma, sigma)))

    @settings(deadline=None)
    @given(nested(), nested(), sigmas, sigmas, sigmas, sigmas)
    def test_relative_product(self, f, g, s1, s2, o1, o2):
        joined = relative_product(f, g, (s1, s2), (o1, o2))
        assert_canonical(joined)
        literal = relative_product_nested_loop(f, g, (s1, s2), (o1, o2))
        assert_canonical(literal)
        assert joined.pairs() == literal.pairs()


class TestRelationalOperators:
    @settings(deadline=None)
    @given(relations(), relations(("k", "x")), values)
    def test_results_are_canonical(self, rel, other, wanted):
        results = [
            algebra.select(rel, lambda row: row["k"] == wanted),
            algebra.select_eq(rel, {"k": wanted}),
            algebra.project(rel, ["v", "k"]),
            algebra.project(rel, ["w"]),
            algebra.rename(rel, {"k": "z", "w": "a"}),
            algebra.join(rel, other),
            algebra.semijoin(rel, other),
        ]
        for result in results:
            assert_canonical(result.rows)
            # Every row is still validated on the way into a Relation.
            assert Relation(result.heading, XSet(result.rows.pairs())) == result

    @given(relations(), relations())
    def test_set_operators(self, rel, other):
        for result in (algebra.union(rel, other), algebra.difference(rel, other),
                       algebra.intersection(rel, other)):
            assert_canonical(result.rows)
