"""One pool of values for the oracles.

Every door of the engine -- the ``XSet`` constructors, ``Relation``
pages, comparisons, tables, the wire, the codec, CSV -- either carries a
value byte for byte or refuses it with a typed error before any work.
The oracles draw from this one pool so that they all ask about the same
values:

* the typed twins ``1``/``1.0``/``True`` and ``0``/``0.0``/``-0.0``/
  ``False``: equal, spelled differently, one member of a set;
* the float edges ``±inf``, and the integers around ``2**53`` that a
  float cannot tell apart (``2**53 + 1``) beside the float that is one
  of them (``float(2**53)``);
* ``None``, ``""``, ``"1"`` (a string that spells a twin) and ``b"a"``;
* the empty set and nested sets over all of these.

:data:`REFUSED` holds the values no door admits: the ``nan`` of every
atom type, unequal to itself, so no set can know it as a member; and
values that are no atom -- a tuple, a frozenset, a ``Fraction``, a
``Decimal`` (its ``nan`` too), an instance of a user class -- which the
log cannot carry.  :func:`refusal` is the text each is refused with.
"""

from decimal import Decimal
from fractions import Fraction

from hypothesis import strategies as st

from repro.xst.xset import EMPTY, XSet

#: Equal values spelled differently, each group one member of a set.
TWINS = ((1, 1.0, True), (0, 0.0, -0.0, False))

#: The numbers of the pool: the twins, the float edges, and the
#: integers around ``2**53`` beside the float equal to one of them.
NUMBERS = tuple(value for twins in TWINS for value in twins) + (
    float("inf"), float("-inf"),
    2**53 - 1, 2**53, 2**53 + 1, float(2**53),
)

#: Every atom of the pool.
ATOMS = NUMBERS + (None, "", "1", b"a")

class Plain:
    """An instance of a user class: hashable, equal to itself, with the
    default ``repr``."""

    __slots__ = ()


#: The ``nan`` of each atom type: none equals itself.
NANS = (float("nan"), -float("nan"), complex(float("nan"), 0.0))

#: Values every door refuses with a typed error: the nans, then values
#: that are no atom (a ``Decimal`` nan is one, of no atom type).
REFUSED = NANS + (
    Decimal("NaN"), (1, 2), frozenset({1}), Fraction(1, 2), Decimal(1),
    Plain(),
)


def refusal(value) -> str:
    """The pattern of the text ``value``, one of :data:`REFUSED`, is
    refused with."""
    return "does not equal itself" if value in NANS else "is no atom"


def label(value) -> str:
    """A test id for ``value``: its ``repr``, a user class's name."""
    return "Plain()" if type(value) is Plain else repr(value)

atoms = st.sampled_from(ATOMS)
numbers = st.sampled_from(NUMBERS)


def sets(max_size: int = 3) -> st.SearchStrategy:
    """The empty set and nested sets over the pool's atoms."""
    return st.recursive(
        st.just(EMPTY),
        lambda children: st.builds(XSet, st.lists(
            st.tuples(st.one_of(atoms, children),
                      st.one_of(st.just(EMPTY), atoms, children)),
            max_size=max_size,
        )),
        max_leaves=6,
    )


#: Any value of the pool, mostly atoms.
values = st.one_of(atoms, atoms, atoms, sets())


def spelled(value):
    """A value's spelling, telling twins apart: ``(type, repr)`` of an
    atom, a set's pairs in run order."""
    if isinstance(value, XSet):
        return [(spelled(e), spelled(s)) for e, s in value.pairs()]
    return (type(value).__name__, repr(value))
