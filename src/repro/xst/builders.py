"""Convenient constructors for the common extended-set shapes.

The kernel's :class:`~repro.xst.xset.XSet` constructor takes raw
``(element, scope)`` pairs.  Application code nearly always wants one
of a handful of shapes instead, and these builders name them:

============  =====================================================
builder       shape
============  =====================================================
``xset``      classical set: every member under the empty scope
``xtuple``    Def 9.1 n-tuple ``{x1^1, ..., xn^n}``
``xpair``     Def 7.2 ordered pair ``<x, y> = {x^1, y^2}``
``xrecord``   attribute-scoped row ``{v^'col', ...}``
``scoped``    explicit ``(element, scope)`` pairs (alias of XSet)
``relation``  classical set of tuples, from an iterable of sequences
``from_python``  deep conversion of builtin containers
============  =====================================================
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence, Tuple

from repro.xst.xset import EMPTY, XSet, _admit_all

__all__ = [
    "xset",
    "xtuple",
    "xpair",
    "xrecord",
    "scoped",
    "relation",
    "from_python",
    "singleton",
]


def xset(members: Iterable[Any] = ()) -> XSet:
    """A classical set: each member held under the empty scope."""
    return XSet((member, EMPTY) for member in members)


_UNSET = object()


def singleton(member: Any, scope: Any = _UNSET) -> XSet:
    """The one-pair set ``{member^scope}`` (classical scope by default).

    ``None`` is a legitimate scope atom; omission is detected by a
    sentinel so ``singleton(x, None)`` builds ``{x^None}``.
    """
    return XSet([(member, EMPTY if scope is _UNSET else scope)])


def xtuple(items: Sequence[Any]) -> XSet:
    """The Def 9.1 n-tuple ``{items[0]^1, ..., items[n-1]^n}``."""
    return XSet((item, index) for index, item in enumerate(items, start=1))


def xpair(first: Any, second: Any) -> XSet:
    """The Def 7.2 ordered pair ``<first, second> = {first^1, second^2}``."""
    return XSet([(first, 1), (second, 2)])


def xrecord(fields: Mapping[str, Any]) -> XSet:
    """A row whose scopes are attribute names: ``{value^'name', ...}``."""
    return XSet((value, name) for name, value in fields.items())


def scoped(pairs: Iterable[Tuple[Any, Any]]) -> XSet:
    """Explicit ``(element, scope)`` pairs; a readable alias of ``XSet``."""
    return XSet(pairs)


def relation(rows: Iterable[Sequence[Any]]) -> XSet:
    """A classical set of n-tuples, one per input sequence.

    This is the working shape for the paper's relations: e.g.
    ``relation([("a", "x"), ("b", "y")])`` builds
    ``{<a, x>, <b, y>}``.
    """
    return xset(xtuple(row) for row in rows)


def from_python(value: Any) -> Any:
    """Deep-convert builtin containers into extended sets.

    ``set``/``frozenset`` become classical sets, ``tuple``/``list``
    become n-tuples, ``dict`` becomes a record (string keys) or a
    scoped set (other keys), and atoms pass through.  The conversion
    recurses into nested containers.  Any other value is no atom (a
    number of another type, an instance of a user class) and is refused
    as the kernel refuses it, with an
    :class:`~repro.errors.InvalidAtomError`.
    """
    if isinstance(value, XSet):
        return value
    if isinstance(value, (set, frozenset)):
        return xset(from_python(member) for member in value)
    if isinstance(value, (tuple, list)):
        return xtuple([from_python(item) for item in value])
    if isinstance(value, Mapping):
        converted = {key: from_python(item) for key, item in value.items()}
        if all(isinstance(key, str) for key in converted):
            return xrecord(converted)
        return XSet((item, from_python(key)) for key, item in converted.items())
    _admit_all((value,))
    return value
