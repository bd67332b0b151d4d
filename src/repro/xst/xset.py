"""The extended set: scoped membership made concrete.

An *extended set* (Blass & Childs' XST; Childs, VLDB 1977) generalizes
the classical set by attaching a **scope** to every membership: instead
of the single predicate ``x in A``, XST has the family ``x in_s A`` ("x
is a member of A under scope s").  Everything else in the library --
tuples, records, relations, images, processes -- is a pattern of scoped
memberships:

* classical membership is membership under the empty scope:
  ``x in A  ==  x in_() A`` where ``()`` denotes the empty extended set;
* the ordered pair of Def 7.2 is ``<x, y> = {x^1, y^2}``;
* an n-tuple (Def 9.1) is ``{x1^1, ..., xn^n}``;
* a relational row is ``{v1^'col1', ..., vk^'colk'}``.

:class:`XSet` realizes this as an immutable, hashable collection of
``(element, scope)`` pairs, where elements and scopes are either
*atoms* (hashable, non-``XSet`` Python values) or nested ``XSet``
instances.  Pairs are stored deduplicated and in the canonical order of
:mod:`repro.xst.ordering`, so equality, hashing, iteration and ``repr``
are all structural and deterministic.

Only data lives in extended sets.  A :class:`~repro.core.process.Process`
is *behavior*, not substance ("processes do not exist in any formal set
theory and thus can not be contained in sets" -- paper, section 2), and
the constructor rejects any attempt to place one inside an ``XSet``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import InvalidAtomError, NotATupleError
from repro.xst import ordering
from repro.xst.ordering import _RANK_XSET, canonical_key

__all__ = ["XSet", "EMPTY", "Pair"]

#: An ``(element, scope)`` membership pair.
Pair = Tuple[Any, Any]

#: Sentinel distinguishing "scope omitted" from the legal scope None.
_UNSET = object()

#: Sort key of a ``(pair, pair key)`` item: the key, never the pair.
_pair_key_of = itemgetter(1)


def _check_admissible(value: Any, role: str) -> None:
    """Reject values that cannot live inside an extended set.

    Atoms must be hashable (the kernel indexes memberships by value)
    and must not be process objects, which the theory keeps outside of
    sets.  ``XSet`` instances are always admissible.
    """
    if isinstance(value, XSet):
        return
    if hasattr(value, "__xst_process__"):
        raise InvalidAtomError(
            "processes are behaviors, not sets; they cannot be %s of an "
            "extended set (paper, section 2)" % role
        )
    try:
        hash(value)
    except TypeError as exc:
        raise InvalidAtomError(
            "%r is not hashable and cannot be used as an XSet %s; convert "
            "it with repro.xst.builders.from_python first" % (value, role)
        ) from exc


def _group(pairs: Tuple[Pair, ...], by: int) -> Dict[Any, Tuple[Any, ...]]:
    """Map coordinate ``by`` of each pair to the other coordinates under it."""
    grouped: Dict[Any, list] = {}
    for pair in pairs:
        grouped.setdefault(pair[by], []).append(pair[1 - by])
    return {key: tuple(values) for key, values in grouped.items()}


class XSet:
    """An immutable extended set of ``(element, scope)`` pairs.

    Instances are created from any iterable of pairs; duplicates are
    removed and the remainder is stored in canonical order::

        >>> a = XSet([("x", 1), ("y", 2)])
        >>> a == XSet([("y", 2), ("x", 1), ("x", 1)])
        True

    The empty extended set is importable as :data:`EMPTY` and doubles
    as the *default scope*: ``A.contains(x)`` asks for classical
    membership ``x in_EMPTY A``.
    """

    __slots__ = (
        "_pairs", "_pair_set", "_by_element", "_by_scope", "_by_part", "_hash", "_key"
    )

    _pairs: Tuple[Pair, ...]
    _pair_set: frozenset
    #: ``{element: scopes}`` / ``{scope: elements}``, each built from the
    #: pairs by the first method that reads it; ``None`` until then.
    _by_element: Optional[Dict[Any, Tuple[Any, ...]]]
    _by_scope: Optional[Dict[Any, Tuple[Any, ...]]]
    #: ``{s: {x: run positions of the set members z with x in_s z}}``, one
    #: inner scope ``s`` at a time, each filled by the first restriction
    #: that names it.  Derived from the canonical run alone, so it needs
    #: no invalidation: it lives and dies with this immutable value.
    _by_part: Optional[Dict[Any, Dict[Any, Tuple[int, ...]]]]
    _hash: int
    #: ``canonical_key(self)``: filled by the checked constructor and by
    #: ``union``, which sort by it; otherwise by the first call of it.
    _key: Optional[Tuple]

    def __init__(self, pairs: Iterable[Pair] = ()):
        # One pass: admit each value, derive its key once, and keep the
        # first spelling of equal pairs beside the key it will sort by.
        keyed: Dict[Pair, Tuple] = {}
        for item in pairs:
            try:
                element, scope = item
            except (TypeError, ValueError) as exc:
                raise InvalidAtomError(
                    "XSet expects (element, scope) pairs; got %r. Use "
                    "repro.xst.builders for classical sets, tuples and "
                    "records." % (item,)
                ) from exc
            if type(element) not in _ADMITTED_BY_TYPE:
                _check_admissible(element, "an element")
            if type(scope) not in _ADMITTED_BY_TYPE:
                _check_admissible(scope, "a scope")
            keyed.setdefault(
                (element, scope), (canonical_key(element), canonical_key(scope))
            )
        # Stable and on the keys alone, so opaque atoms whose reprs tie
        # keep insertion order.
        ordered, keys = (
            zip(*sorted(keyed.items(), key=_pair_key_of)) if keyed else ((), ())
        )
        self._fill(ordered, frozenset(keyed), keys)

    def _fill(
        self,
        ordered: Tuple[Pair, ...],
        pair_set: frozenset,
        keys: Optional[Tuple] = None,
    ) -> None:
        """``keys``, from a caller that sorted or merged by them: the pair
        keys of ``ordered``, in step with it."""
        fill = object.__setattr__
        fill(self, "_pairs", ordered)
        fill(self, "_pair_set", pair_set)
        fill(self, "_by_element", None)
        fill(self, "_by_scope", None)
        fill(self, "_by_part", None)
        fill(self, "_hash", hash(pair_set))
        # Remembered on exact XSet only, the rule canonical_key follows.
        key = None
        if keys is not None and type(self) is XSet:
            key = (_RANK_XSET, len(keys), keys)
        fill(self, "_key", key)

    @staticmethod
    def _from_run(
        ordered: Iterable[Pair],
        pair_set: Optional[frozenset] = None,
        keys: Optional[Tuple] = None,
    ) -> "XSet":
        """The unchecked constructor, for kernel results only.

        ``ordered`` must be a duplicate-free sequence, in canonical
        order, of pairs taken from existing ``XSet`` instances (so
        already admitted): a subsequence of one canonical run or a
        merge of two.  ``pair_set``, when the caller already holds it,
        is the same pairs as a frozenset, and ``keys`` their pair keys
        in the same order.  Anything else goes through ``XSet(pairs)``.
        """
        ordered = tuple(ordered)
        self = object.__new__(XSet)
        self._fill(
            ordered, frozenset(ordered) if pair_set is None else pair_set, keys
        )
        return self

    def _elements_index(self) -> Dict[Any, Tuple[Any, ...]]:
        index = self._by_element
        if index is None:
            index = _group(self._pairs, 0)
            object.__setattr__(self, "_by_element", index)
        return index

    def _scopes_index(self) -> Dict[Any, Tuple[Any, ...]]:
        index = self._by_scope
        if index is None:
            index = _group(self._pairs, 1)
            object.__setattr__(self, "_by_scope", index)
        return index

    def _members_holding(self, scope: Any) -> Dict[Any, Tuple[int, ...]]:
        """``{x: ascending run positions of the members z with x in_scope z}``.

        Atom members hold nothing.  Keys meet by Python equality (the
        twins ``1``/``1.0``/``True`` share a list), as pairs do in
        ``_pair_set``; callers decide membership by the definition.
        """
        by_part = self._by_part
        if by_part is None:
            by_part = {}
            object.__setattr__(self, "_by_part", by_part)
        index = by_part.get(scope)
        if index is None:
            grouped: Dict[Any, list] = {}
            for position, (member, _) in enumerate(self._pairs):
                if isinstance(member, XSet):
                    for element in member._scopes_index().get(scope, ()):
                        grouped.setdefault(element, []).append(position)
            index = {key: tuple(run) for key, run in grouped.items()}
            by_part[scope] = index
        return index

    # ------------------------------------------------------------------
    # Immutability & identity
    # ------------------------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("XSet instances are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("XSet instances are immutable")

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, XSet):
            return NotImplemented
        return self._pair_set == other._pair_set

    def __ne__(self, other: Any) -> bool:
        if not isinstance(other, XSet):
            return NotImplemented
        return self._pair_set != other._pair_set

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def pairs(self) -> Tuple[Pair, ...]:
        """All ``(element, scope)`` pairs in canonical order."""
        return self._pairs

    def elements(self) -> Tuple[Any, ...]:
        """Distinct elements, in canonical order, ignoring scopes."""
        return tuple(sorted(self._elements_index(), key=canonical_key))

    def scopes(self) -> Tuple[Any, ...]:
        """Distinct scopes in use, in canonical order."""
        return tuple(sorted(self._scopes_index(), key=canonical_key))

    def scopes_of(self, element: Any) -> Tuple[Any, ...]:
        """Every scope ``s`` with ``element in_s self`` (may be empty)."""
        return self._elements_index().get(element, ())

    def elements_at(self, scope: Any) -> Tuple[Any, ...]:
        """Every element ``x`` with ``x in_scope self`` (may be empty)."""
        return self._scopes_index().get(scope, ())

    def contains(self, element: Any, scope: Any = _UNSET) -> bool:
        """Scoped membership test ``element in_scope self``.

        With ``scope`` omitted this is classical membership, i.e.
        membership under the empty scope :data:`EMPTY`.  (``None`` is a
        legitimate scope atom, so omission is detected by a sentinel,
        not by ``None``.)
        """
        if scope is _UNSET:
            scope = EMPTY
        return (element, scope) in self._pair_set

    def __contains__(self, element: Any) -> bool:
        """True if ``element`` is a member under *any* scope.

        This loose reading is the convenient one for ``in`` checks; use
        :meth:`contains` for an exact scoped membership test.
        """
        return element in self._elements_index()

    def __len__(self) -> int:
        """Number of membership pairs (an element counts once per scope)."""
        return len(self._pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    @property
    def is_empty(self) -> bool:
        return not self._pairs

    def is_classical(self) -> bool:
        """True if every membership uses the empty scope (a plain set)."""
        return all(scope == EMPTY for _, scope in self._pairs)

    # ------------------------------------------------------------------
    # Classical algebra (lifted to scoped pairs)
    # ------------------------------------------------------------------

    def union(self, *others: "XSet") -> "XSet":
        result = self
        for other in others:
            present = result._pair_set
            extra = [
                item
                for item in zip(other._pairs, canonical_key(other)[2])
                if item[0] not in present
            ]
            if not extra:
                continue
            if len(extra) == len(other._pairs) and not result._pairs:
                result = other
                continue
            # Two canonical runs of admitted pairs (extra is a subsequence
            # of other's) sharing no pair, each beside its remembered
            # keys; the sort finds both runs and merges them on the keys,
            # which the result remembers in turn.
            extra_pairs, extra_keys = zip(*extra)
            ordered, keys = zip(*sorted(
                zip(
                    result._pairs + extra_pairs,
                    canonical_key(result)[2] + extra_keys,
                ),
                key=_pair_key_of,
            ))
            result = XSet._from_run(ordered, present.union(extra_pairs), keys)
        return result

    def intersection(self, *others: "XSet") -> "XSet":
        kept = self._pair_set
        for other in others:
            # a - (a - b), not a & b: of two equal members spelled
            # differently (1, 1.0) ``&`` may return either operand's.
            kept = kept - (kept - other._pair_set)
        return self._keeping(kept)

    def difference(self, other: "XSet") -> "XSet":
        return self._keeping(self._pair_set - other._pair_set)

    def symmetric_difference(self, other: "XSet") -> "XSet":
        return self.difference(other).union(other.difference(self))

    def _keeping(self, kept: frozenset) -> "XSet":
        """The members of ``self`` that are in ``kept``, a subset of them."""
        if len(kept) == len(self._pairs):
            return self
        # A subsequence of this set's own canonical run.
        return XSet._from_run(
            (pair for pair in self._pairs if pair in kept), kept
        )

    def __or__(self, other: "XSet") -> "XSet":
        if not isinstance(other, XSet):
            return NotImplemented
        return self.union(other)

    def __and__(self, other: "XSet") -> "XSet":
        if not isinstance(other, XSet):
            return NotImplemented
        return self.intersection(other)

    def __sub__(self, other: "XSet") -> "XSet":
        if not isinstance(other, XSet):
            return NotImplemented
        return self.difference(other)

    def __xor__(self, other: "XSet") -> "XSet":
        if not isinstance(other, XSet):
            return NotImplemented
        return self.symmetric_difference(other)

    def issubset(self, other: "XSet") -> bool:
        return self._pair_set <= other._pair_set

    def issuperset(self, other: "XSet") -> bool:
        return self._pair_set >= other._pair_set

    def is_nonempty_subset(self, other: "XSet") -> bool:
        """The paper's footnoted reading of its subset symbol.

        Definitions 2.1 and 5.1 note that their subset sign means
        *non-empty* subset; this predicate is that reading.
        """
        return bool(self._pairs) and self._pair_set <= other._pair_set

    def __le__(self, other: "XSet") -> bool:
        if not isinstance(other, XSet):
            return NotImplemented
        return self.issubset(other)

    def __lt__(self, other: "XSet") -> bool:
        if not isinstance(other, XSet):
            return NotImplemented
        return self._pair_set < other._pair_set

    def __ge__(self, other: "XSet") -> bool:
        if not isinstance(other, XSet):
            return NotImplemented
        return self.issuperset(other)

    def __gt__(self, other: "XSet") -> bool:
        if not isinstance(other, XSet):
            return NotImplemented
        return self._pair_set > other._pair_set

    # ------------------------------------------------------------------
    # Tuple shape (Def 9.1) and record shape
    # ------------------------------------------------------------------

    def tuple_length(self) -> Optional[int]:
        """``n`` if this set is an n-tuple per Def 9.1, else ``None``.

        A set is an n-tuple when its scopes are exactly the integers
        ``1..n`` with a single element at each.  The empty set is the
        0-tuple.
        """
        n = len(self._pairs)
        if n == 0:
            return 0
        by_scope = self._scopes_index()
        if len(by_scope) != n:
            return None
        for scope in by_scope:
            if isinstance(scope, bool) or not isinstance(scope, int):
                return None
            if not 1 <= scope <= n:
                return None
        return n

    def is_tuple(self) -> bool:
        """True when :meth:`tuple_length` succeeds (Def 9.1)."""
        return self.tuple_length() is not None

    def as_tuple(self) -> Tuple[Any, ...]:
        """Elements in scope order ``1..n``; raises if not a tuple."""
        n = self.tuple_length()
        if n is None:
            raise NotATupleError(
                "%r is not an n-tuple: scopes must be exactly 1..n with one "
                "element each (Def 9.1)" % (self,)
            )
        by_scope = self._scopes_index()
        return tuple(by_scope[i][0] for i in range(1, n + 1))

    def is_record(self) -> bool:
        """True if scopes are distinct strings with one element each."""
        if not self._pairs:
            return False
        by_scope = self._scopes_index()
        if len(by_scope) != len(self._pairs):
            return False
        for scope in by_scope:
            if not isinstance(scope, str):
                return False
        return True

    def as_record(self) -> Mapping[str, Any]:
        """Mapping view ``{scope: element}`` for record-shaped sets."""
        if not self.is_record():
            raise NotATupleError(
                "%r is not record-shaped: scopes must be distinct strings "
                "with one element each" % (self,)
            )
        return {scope: elems[0] for scope, elems in self._scopes_index().items()}

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------

    def to_python(self) -> Any:
        """Best-effort conversion back to builtin Python values.

        Tuples become ``tuple``; classical sets become ``frozenset``;
        anything else becomes a ``frozenset`` of ``(element, scope)``
        pairs.  Nested extended sets are converted recursively.
        """

        def convert(value: Any) -> Any:
            return value.to_python() if isinstance(value, XSet) else value

        n = self.tuple_length()
        if n is not None and n > 0:
            return tuple(convert(x) for x in self.as_tuple())
        if self.is_classical():
            return frozenset(convert(x) for x, _ in self._pairs)
        return frozenset(
            (convert(element), convert(scope)) for element, scope in self._pairs
        )

    # ------------------------------------------------------------------
    # Rendering (paper notation; see repro.notation for the parser)
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return render(self)


def _render_value(value: Any) -> str:
    if isinstance(value, XSet):
        return render(value)
    if isinstance(value, str):
        return value if value.isidentifier() else repr(value)
    return repr(value)


def render(xset: XSet) -> str:
    """Render in the paper's notation.

    Tuples print as ``<a, b>``; classical memberships omit the scope
    mark; scoped memberships print as ``element^scope``.
    """
    if xset.is_empty:
        return "{}"
    if xset.is_tuple():
        return "<%s>" % ", ".join(_render_value(x) for x in xset.as_tuple())
    parts = []
    for element, scope in xset.pairs():
        if isinstance(scope, XSet) and scope.is_empty:
            parts.append(_render_value(element))
        else:
            parts.append("%s^%s" % (_render_value(element), _render_value(scope)))
    return "{%s}" % ", ".join(parts)


#: Exact types the constructor admits without a ``_check_admissible``
#: call.  The builtins are hashable and, having no instance dict and no
#: settable class attribute, cannot carry ``__xst_process__``: neither a
#: process nor unhashable, by type.  ``XSet`` is admissible by definition.
#: Every other type -- subclasses of these included -- takes the check.
_ADMITTED_BY_TYPE = frozenset({str, int, float, bool, bytes, type(None), XSet})

#: The empty extended set; also the *default scope* giving classical
#: membership (``x in A`` is ``x in_EMPTY A``).
EMPTY = XSet()

ordering._XSet = XSet
