"""Canonical total ordering over heterogeneous XST values.

Extended sets may contain atoms of unrelated Python types alongside
nested extended sets, and Python refuses to compare such values
directly (``3 < "a"`` raises ``TypeError``).  The kernel nevertheless
needs *one* deterministic order so that every :class:`~repro.xst.xset.XSet`
has a single canonical pair sequence.  Canonical order buys us:

* structural equality and hashing that are independent of insertion
  order,
* a stable, reproducible ``repr`` (important for doctests and for
  diffing benchmark output),
* deterministic iteration, which keeps every algorithm in the library
  reproducible run-to-run.

The order sorts first by a small *rank* assigned to each value family
and then by a payload that is guaranteed comparable within the rank.
The ordering is consistent with equality for the values the library
admits: equal values produce equal keys (e.g. ``1`` and ``1.0`` or
``True``), and unequal values of the same rank produce distinct,
comparable payloads.
"""

from __future__ import annotations

import zlib
from typing import Any, Tuple

#: Rank constants; lower ranks sort first.
_RANK_NONE = 0
_RANK_NUMBER = 1
_RANK_STRING = 2
_RANK_BYTES = 3
_RANK_OTHER = 4
_RANK_XSET = 5


#: The ``XSet`` class.  ``repro.xst.xset`` imports this module, so it
#: cannot be imported here; that module stores the class once defined.
_XSet: Any = None


def _number_payload(value: Any) -> Any:
    """``float(value)`` when that is exact, else the ``int`` itself.

    ``1``, ``1.0`` and ``True`` therefore share one payload, while
    integers no float can represent (``2**53 + 1``, ``10**400``) keep
    distinct ones; Python orders ``int`` against ``float`` exactly.
    """
    try:
        as_float = float(value)
    except OverflowError:
        return value
    return as_float if as_float == value else value


def canonical_key(value: Any) -> Tuple:
    """Return a sort key giving a total order over admissible values.

    The key is a tuple ``(rank, payload)``.  Payloads are constructed so
    that any two values of equal rank have comparable payloads, and so
    that ``a == b`` implies ``canonical_key(a) == canonical_key(b)``.

    ``XSet`` instances are ordered structurally: first by cardinality,
    then lexicographically by the canonical keys of their (element,
    scope) pairs.  This makes the order well-founded on the nesting
    depth of the set.  The key of an ``XSet`` (exactly that type; a
    subclass is keyed afresh on every call) is a pure function of its
    immutable pairs and is remembered on the instance.
    """
    cls = type(value)
    if cls is _XSet:
        key = value._key
        if key is None:
            key = _xset_key(value)
            object.__setattr__(value, "_key", key)
        return key
    if cls is str:
        return (_RANK_STRING, value)
    if cls is float:
        return (_RANK_NUMBER, value)
    if cls is int:
        # _number_payload, inline: the hottest atom type pays no call.
        try:
            as_float = float(value)
        except OverflowError:
            return (_RANK_NUMBER, value)
        return (_RANK_NUMBER, as_float if as_float == value else value)
    if value is None:
        return (_RANK_NONE, 0)
    if isinstance(value, (int, float)):
        # bool is a subclass of int and folds into the number rank, so
        # True == 1 keeps a key equal to canonical_key(1).
        return (_RANK_NUMBER, _number_payload(value))
    if isinstance(value, complex):
        return (_RANK_NUMBER + 0.5, (value.real, value.imag))
    if isinstance(value, str):
        return (_RANK_STRING, value)
    if isinstance(value, bytes):
        return (_RANK_BYTES, value)
    if isinstance(value, _XSet):
        return _xset_key(value)
    # Any other hashable atom: order by type name, then by repr.  repr
    # ties are acceptable because such atoms are opaque to the kernel.
    return (_RANK_OTHER, type(value).__name__, repr(value))


def _xset_key(value: Any) -> Tuple:
    pair_keys = tuple(map(pair_key, value.pairs()))
    return (_RANK_XSET, len(pair_keys), pair_keys)


def pair_key(pair: Tuple[Any, Any]) -> Tuple:
    """Sort key for an ``(element, scope)`` pair: element, then scope."""
    element, scope = pair
    return (canonical_key(element), canonical_key(scope))


def canonical_hash(value: Any) -> int:
    """A deterministic 32-bit hash of a value's canonical key.

    Python's built-in ``hash`` is salted per process for strings, so
    anything derived from it changes run to run.  Shard placement
    (:mod:`repro.relational.sharding`) and the columnar runs
    (:mod:`repro.relational.columnar`) need hashes that are identical
    across runs and machines; this one is CRC32 over the repr of
    :func:`canonical_key`, which is itself canonical: equal values
    have equal keys, so equal values hash equally regardless of type
    spelling (``1`` vs ``1.0`` vs ``True``).
    """
    return zlib.crc32(repr(canonical_key(value)).encode("utf-8"))
