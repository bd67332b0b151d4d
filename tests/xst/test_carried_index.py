"""Carried-index oracle: a difference or union hands its result the
operand's keys and member indexes, patched by the pairs it removed or
added, instead of leaving them to be derived again.

Random chains of ``union``, ``difference``, ``intersection`` and
``symmetric_difference`` run over sets whose member indexes are filled
on random scopes.  After every operation the result, and each operand,
must be indistinguishable from values nobody patched:

* every filled ``_by_part`` index equals one built afresh on an
  unindexed copy of the same run, order included, holds the run's own
  pair objects, and shares no dict with another value;
* the remembered ``_key`` equals ``_xset_key`` derived afresh;
* the result equals the public constructor's on the same pairs on
  order, spelling, hash, ``repr`` and serialized bytes.

The members mix typed twins (``1``/``1.0``/``True``/``1+0j``), other
atoms, nested sets, non-record members and empty sets.  Each chain runs once
with every operation forced onto the bisecting patch and once under
the shipped length rule, over runs long enough for it to patch.
"""

import importlib
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAtomError
from repro.xst.builders import from_python
from repro.xst.ordering import _xset_key
from repro.xst.restrict import sigma_restrict
from repro.xst.serialization import dumps
from repro.xst.xset import EMPTY, XSet

from tests.values import REFUSED, refusal
from tests.xst.test_canonical_form import seeded

xset_module = importlib.import_module("repro.xst.xset")


class Opaque:
    """A value whose ``repr`` ties with every other one's; no atom."""

    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, Opaque) and self.tag == other.tag

    def __hash__(self):
        return hash(("opaque", self.tag))

    def __repr__(self):
        return "opaque"


class Valued:
    """A value equal to its value's twins, with the default ``repr``; no
    atom."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Valued) and other.value == self.value

    def __hash__(self):
        return hash(self.value)


#: The inner scopes members use, and indexes are filled on.
SCOPES = ("k", "v", 1, 1.0, EMPTY)

atoms = st.one_of(
    st.sampled_from([1, 1.0, True, 1 + 0j, 0, 2, 2.0, None, "a", "b", b"x"]),
    st.sampled_from([0.5, 0.5 + 0.5j, -0.0, 2**53 + 1]),
)
#: Records, non-records (two elements at one scope) and the empty set.
rows = st.builds(
    XSet, st.lists(st.tuples(atoms, st.sampled_from(SCOPES)), max_size=3)
)
nested = st.builds(
    XSet, st.lists(st.tuples(rows, st.sampled_from(SCOPES)), max_size=2)
)
pairs = st.tuples(
    st.one_of(rows, rows, nested, atoms), st.sampled_from([EMPTY, "k", 1, True])
)
OPERATIONS = ("union", "difference", "intersection", "symmetric_difference")


def spelled(value):
    """Spelling and order, telling twins apart."""
    if isinstance(value, XSet):
        return [(spelled(e), spelled(s)) for e, s in value.pairs()]
    return (type(value).__name__, repr(value))


def expected(operation, a, b):
    """The same pairs through the public constructor, left spelling first."""
    in_a, in_b = set(a.pairs()), set(b.pairs())
    only_a = [pair for pair in a.pairs() if pair not in in_b]
    if operation == "union":
        return XSet(a.pairs() + b.pairs())
    if operation == "difference":
        return XSet(only_a)
    if operation == "intersection":
        return XSet(pair for pair in a.pairs() if pair in in_b)
    return XSet(only_a + [pair for pair in b.pairs() if pair not in in_a])


def assert_indexes_fresh(value, others=()):
    """Every filled index is the one a fresh build makes, over the run's
    own pair objects, in no dict another value holds."""
    if not value._by_part:
        return
    copy = XSet._from_run(value.pairs())
    assert copy._by_part is None
    run = {id(pair) for pair in value.pairs()}
    for scope, index in value._by_part.items():
        assert index == copy._members_holding(scope)
        assert all(id(pair) in run for held in index.values() for pair in held)
        for other in others:
            # An operation may answer with an operand itself.
            assert other is value or other._by_part is None or all(
                index is not theirs for theirs in other._by_part.values()
            )


def assert_keyed(value):
    assert value._key is not None  # every value in a chain is keyed
    assert value._key == _xset_key(value)


def assert_probes_agree(value):
    """Restriction reads the carried indexes as it reads fresh ones."""
    if not value._by_part:
        return
    copy = XSet._from_run(value.pairs())
    for scope in list(value._by_part):
        held = list(value._by_part[scope])[:2]
        sigma = XSet([(scope, scope)])
        for chosen in (held[:1], held):  # one key, then two
            key = XSet((XSet([(x, scope)]), EMPTY) for x in chosen)
            got = sigma_restrict(value, key, sigma)
            assert spelled(got) == spelled(sigma_restrict(copy, key, sigma))


@pytest.fixture(scope="class", params=[1, None],
                ids=["patch-always", "shipped-rule"])
def rule(request):
    """Force every operation onto the bisecting patch, or keep the rule."""
    shipped = xset_module._FEW
    if request.param is not None:
        xset_module._FEW = request.param
    yield request.param
    xset_module._FEW = shipped


def operand(data, current):
    """A set to apply: a few pairs, fresh or ``current``'s, or all of
    ``current`` but a few and maybe a fresh one."""
    chosen = data.draw(st.lists(pairs, max_size=2))
    if current.pairs():
        some = data.draw(st.lists(st.sampled_from(current.pairs()), max_size=2))
        if data.draw(st.booleans()):
            some = [pair for pair in current.pairs() if pair not in some]
        chosen += some
    return XSet(data.draw(st.permutations(chosen)))


def fill(data, value):
    for scope in data.draw(st.lists(st.sampled_from(SCOPES), max_size=3)):
        value._members_holding(scope)


class TestCarriedIndexes:
    @seeded
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_chains_equal_unpatched_values(self, rule, data):
        # Under the shipped rule a run patches when at most one pair in
        # 16 changes, so it needs a few dozen members to patch at all.
        sizes = {"max_size": 8} if rule == 1 else {"min_size": 32, "max_size": 48}
        current = XSet(data.draw(st.lists(pairs, **sizes)))
        fill(data, current)
        for _ in range(data.draw(st.integers(1, 6))):
            other = operand(data, current)
            if data.draw(st.booleans()):
                fill(data, other)
            operation = data.draw(st.sampled_from(OPERATIONS))
            flipped = data.draw(st.booleans())
            left, right = (other, current) if flipped else (current, other)
            result = getattr(left, operation)(right)
            want = expected(operation, left, right)
            assert spelled(result) == spelled(want)
            assert result == want and hash(result) == hash(want)
            assert repr(result) == repr(want)
            assert dumps(result) == dumps(want)
            for value in (result, left, right):
                assert_keyed(value)
            assert result._key == want._key
            assert_indexes_fresh(result, (left, right))
            assert_indexes_fresh(left)
            assert_indexes_fresh(right)
            assert_probes_agree(result)
            current = result
            fill(data, current)

    def test_a_carried_index_follows_each_patch(self, rule):
        rows = [XSet([(n, "k"), (n % 3, "v")]) for n in range(40)]
        table = XSet((row, EMPTY) for row in rows)
        table._members_holding("k")
        table._members_holding("v")
        gone = XSet([(rows[7], EMPTY), (XSet([(1.0, "k"), (1, "v")]), EMPTY)])
        came = XSet([(XSet([(99, "k"), (0, "v")]), EMPTY)])
        for result in (table - gone, table | came, table & (table - gone),
                       (table - gone) | came):
            assert result._by_part is not None
            assert_indexes_fresh(result, (table,))
            assert_keyed(result)
        assert (table - gone)._members_holding("k").get(7) is None
        assert (table - gone)._members_holding("k").get(1.0) is None
        assert (table | came)._members_holding("k")[99] == ((came.pairs()[0]),)

    def test_atoms_whose_keys_would_tie_are_refused_at_the_door(self):
        # An atom keyed by its repr would tie with every other one's, and
        # only arrival would order them; the constructors refuse it, so
        # the keys of a run strictly ascend.
        for pairs in ([(Opaque(0), "k")], [("same", Opaque(1))]):
            with pytest.raises(InvalidAtomError, match="no atom"):
                XSet(pairs)

    @pytest.mark.parametrize("refused", REFUSED)
    def test_a_key_unequal_to_itself_is_refused_at_the_door(self, refused):
        # Every member equals itself and is keyed exactly, so a bisection
        # finds it: a nan, or a value that is no atom, never becomes an
        # element or a scope.
        for pairs in ([(refused, "k")], [("k", refused)], [(1, "j")] * 3 + [
            (refused, EMPTY)
        ]):
            with pytest.raises(InvalidAtomError, match=refusal(refused)):
                XSet(pairs)
        with pytest.raises(InvalidAtomError, match=refusal(refused)):
            XSet._record((1, refused), ("a", "b"), (("a",), ("b",)))

    @pytest.mark.parametrize("stored, twin", [
        ((1, 2), (1.0, 2)), (frozenset({1}), frozenset({True})),
        (Valued(1), Valued(1.0)),
    ], ids=["tuple", "frozenset", "default-repr"])
    def test_equal_atoms_keyed_apart_are_refused_at_the_door(
        self, rule, stored, twin
    ):
        # Keyed by its repr, an atom's equal twin that prints otherwise
        # would be keyed apart; no constructor admits either.
        for value in (stored, twin):
            with pytest.raises(InvalidAtomError, match="no atom"):
                XSet([(value, "k")])
        if type(stored) is Valued:
            return
        # As the extended sets they stand for, the twins share a key,
        # and the patched difference finds one by bisection.
        stored, twin = from_python(stored), from_python(twin)

        def row(k):
            return XSet([(k, "k"), ("a" if k == stored else "b", "v")])

        held = row(stored)
        table = XSet([(held, EMPTY)] + [
            (row(n), EMPTY) for n in range(100, 140)
        ])
        table._members_holding("v")
        want = XSet(pair for pair in table.pairs() if pair[0] is not held)
        shrunk = table - XSet([(row(twin), EMPTY)])
        assert spelled(shrunk) == spelled(want)
        assert shrunk._key == _xset_key(shrunk)
        assert_indexes_fresh(shrunk, (table,))

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), Fraction(1, 3), Decimal("2.50"), Decimal("0.1"),
        Fraction(10**400),
    ], ids=["half", "third", "decimal", "decimals", "huge"])
    def test_a_fraction_or_a_decimal_is_refused_at_the_door(self, value):
        # No atom type of the log's: its float or int twin is the value.
        for pairs in ([(value, "k")], [("k", value)]):
            with pytest.raises(InvalidAtomError, match="no atom"):
                XSet(pairs)

    @pytest.mark.parametrize("stored, twin", [
        (1, 1 + 0j), (0.5, 0.5 + 0j), (1, True), (2**53, float(2**53)),
    ], ids=["complex", "complex-half", "bool", "float"])
    def test_a_twin_of_any_numeric_type_is_found_by_bisection(
        self, rule, stored, twin
    ):
        # Equal numbers share a key whatever their types, so a twin
        # spelled otherwise is found where its key bisects.
        def row(k):
            return XSet([(k, "k"), ("a" if k == stored else "b", "v")])

        held = row(stored)
        table = XSet([(held, EMPTY)] + [
            (row(n), EMPTY) for n in range(100, 140)
        ])
        table._members_holding("v")
        shrunk = table - XSet([(row(twin), EMPTY)])
        assert spelled(shrunk) == spelled(XSet(
            pair for pair in table.pairs() if pair[0] is not held
        ))
        assert len(shrunk) == len(table) - 1 and shrunk._key == _xset_key(shrunk)
        assert_indexes_fresh(shrunk, (table,))
        grown = table | XSet([(row(twin), EMPTY)])
        assert grown is table
