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
*atoms* -- the values the log carries: ``None``, ``bool``, ``int``,
``float``, ``complex``, ``str`` and ``bytes`` -- or nested ``XSet``
instances.  Pairs are stored deduplicated and in the canonical order of
:mod:`repro.xst.ordering`, so equality, hashing, iteration and ``repr``
are all structural and deterministic.

Only data lives in extended sets.  A :class:`~repro.core.process.Process`
is *behavior*, not substance ("processes do not exist in any formal set
theory and thus can not be contained in sets" -- paper, section 2), and
the constructor rejects any attempt to place one inside an ``XSet``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import compress, repeat
from operator import attrgetter, itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import InvalidAtomError, NotATupleError
from repro.xst import ordering
from repro.xst.ordering import _RANK_XSET, canonical_key, pair_key

__all__ = ["XSet", "EMPTY", "Pair"]

#: An ``(element, scope)`` membership pair.
Pair = Tuple[Any, Any]

#: A ``(pair, pair key)`` item: a pair beside the key it sorts by.
_Keyed = Tuple[Pair, Tuple]

#: Sentinel distinguishing "scope omitted" from the legal scope None.
_UNSET = object()

#: Sort key of a ``(pair, pair key)`` item: the key, never the pair.
_pair_key_of = itemgetter(1)

#: The remembered ``canonical_key`` of a keyed ``XSet``.
_key_of = attrgetter("_key")


#: Patch a run by bisection when at most one pair in this many changes
#: (``few * _FEW <= many``), else filter or merge the whole run.  Each
#: changed pair costs a C-level bisection of the run's keys and a few
#: Python steps; a full filter or merge costs a Python step per pair of
#: the run, and drops the member indexes the patch carries.  Measured
#: over 64 to 16 384 rows (EXPERIMENTS.md E41), a bare difference
#: crosses over between 1/16 and 1/8 of the run, a union or a difference
#: whose index is then probed between 1/8 and 1/4; at 1/16 the patch
#: wins at every size.
_FEW = 16


def _dropping(run: Tuple, positions: List[int]) -> Tuple:
    """``run`` less its entries at ``positions`` (ascending, at least
    one), copied a slice at a time."""
    kept = list(run[:positions[0]])
    for at, stop in zip(positions, [*positions[1:], len(run)]):
        kept += run[at + 1:stop]
    return tuple(kept)


def _inserting(run: Tuple, moves: List[Tuple[int, Tuple]], part: int) -> Tuple:
    """``run`` with ``item[part]`` of each ``(position, item)`` move put
    before its entry at that position (moves by ascending position, at
    least one; ``len(run)`` appends), copied a slice at a time."""
    merged = list(run[:moves[0][0]])
    for (at, item), (stop, _) in zip(moves, [*moves[1:], (len(run), None)]):
        merged.append(item[part])
        merged += run[at:stop]
    return tuple(merged)


def _merged(
    pairs: Tuple[Pair, ...], keys: Tuple, extra: List[_Keyed]
) -> Tuple[Tuple[Pair, ...], Tuple]:
    """A canonical run and its ``keys`` merged with ``extra``, ``(pair,
    pair key)`` items in canonical order that share no pair with it:
    the merged run beside its keys.

    A few extra pairs are put in by bisection (in canonical order, so at
    ascending positions), more by one sort, which finds both runs and
    merges them.
    """
    if len(extra) * _FEW <= len(keys):
        moves = [(bisect_right(keys, item[1]), item) for item in extra]
        return _inserting(pairs, moves, 0), _inserting(keys, moves, 1)
    ordered, keys = zip(*sorted([*zip(pairs, keys), *extra], key=_pair_key_of))
    return ordered, keys


def _holding(pairs: Iterable[Pair], scope: Any) -> Dict[Any, List[Pair]]:
    """``{x: the pairs (z, w) with x in_scope z, in their order}`` (atom
    members hold nothing).

    Each member's elements at ``scope`` are read straight off its run,
    in its order; no member builds its scope index for this.  Scopes
    meet as dict keys do, ``at is scope or at == scope``, so the twins
    ``1``/``1.0``/``True`` meet each other; the elements become keys, so
    twins share a run.
    """
    grouped: Dict[Any, List[Pair]] = defaultdict(list)
    for pair in pairs:
        member = pair[0]
        if type(member) is XSet or isinstance(member, XSet):
            for element, at in member._pairs:
                if at is scope or at == scope:
                    grouped[element].append(pair)
    return grouped


def _find(keys: Tuple, key: Tuple) -> Optional[int]:
    """Where the pair keyed ``key`` stands in a run whose ``keys`` are in
    step with its pairs: equal keys mean equal pairs, so bisection finds
    it.  ``None`` when it is not there."""
    at = bisect_left(keys, key)
    return at if at < len(keys) and keys[at] == key else None


def _check_admissible(value: Any, role: str) -> None:
    """Reject values that cannot live inside an extended set.

    An atom is a value the log carries byte for byte
    (:mod:`repro.xst.serialization`): ``None`` or an instance of one of
    :data:`_ATOM_TYPES` (``bool`` is an ``int``; subclasses are admitted,
    as the codec writes each by the type it extends) that is hashable --
    the kernel indexes memberships by value -- and equals itself: a set
    is known by its members, so a member that is not its own equal
    (``nan``) cannot be found again.  ``XSet`` instances are always
    admissible.  Anything else -- a tuple, a frozenset, a number of
    another type, an instance of a user class, a process, which the
    theory keeps outside of sets -- is refused; ``from_python`` turns a
    container into the extended set it stands for.  The constructors
    call this only for a value whose exact type is not in
    ``_ADMITTED_BY_TYPE`` or that is a float unequal to itself, a test
    they make inline.
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
    if value is not None and not isinstance(value, _ATOM_TYPES):
        raise InvalidAtomError(
            "%r is no atom, so it cannot be %s of an extended set: an atom "
            "is None, bool, int, float, complex, str or bytes; convert it "
            "with repro.xst.builders.from_python first" % (value, role)
        )
    if not value == value:
        raise InvalidAtomError(
            "%r does not equal itself, so it cannot be %s of an extended "
            "set: a set is known by its members" % (value, role)
        )


def _admit_all(values: Iterable[Any]) -> None:
    """Refuse the first of ``values`` no extended set can hold: the
    constructors' inline test, for a door outside the kernel that takes
    values before it builds a set of them."""
    for value in values:
        kind = type(value)
        if kind not in _ADMITTED_BY_TYPE or kind is float and value != value:
            _check_admissible(value, "an element")


def _group(pairs: Tuple[Pair, ...], by: int) -> Dict[Any, Tuple[Any, ...]]:
    """Map coordinate ``by`` of each pair to the other coordinates under it."""
    grouped: Dict[Any, list] = {}
    for pair in pairs:
        grouped.setdefault(pair[by], []).append(pair[1 - by])
    return {key: tuple(values) for key, values in grouped.items()}


class Immutable:
    """A value: its constructor fills its slots (``object.__setattr__``)
    and nothing changes them, so a copy is the value itself; a subclass
    pickles through its constructor (``__reduce__``)."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __copy__(self) -> "Immutable":
        return self

    def __deepcopy__(self, memo) -> "Immutable":
        return self


class XSet(Immutable):
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
    #: ``{s: {x: the pairs (z, w) of the set with x in_s z, in run
    #: order}}`` -- the run's own pair objects -- one inner scope ``s`` at
    #: a time, each filled by the first restriction that names it or
    #: carried, patched, from the operand of a difference or union.  A
    #: pure function of the canonical run, so it needs no invalidation:
    #: it lives and dies with this immutable value.
    _by_part: Optional[Dict[Any, Dict[Any, Tuple[Pair, ...]]]]
    _hash: int
    #: ``canonical_key(self)``: filled by the checked constructor and by
    #: ``union``, which sort by it, and by a difference or intersection
    #: of a keyed operand, which keeps a subsequence of its keys;
    #: otherwise by the first call of it.
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
            kind = type(element)
            if kind not in _ADMITTED_BY_TYPE or kind is float and element != element:
                _check_admissible(element, "an element")
            kind = type(scope)
            if kind not in _ADMITTED_BY_TYPE or kind is float and scope != scope:
                _check_admissible(scope, "a scope")
            keyed.setdefault(
                (element, scope), (canonical_key(element), canonical_key(scope))
            )
        # On the keys alone: equal keys mean equal pairs, and those the
        # dict has already made one.
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

    @staticmethod
    def _record(
        values: Tuple[Any, ...], scopes: Tuple[Any, ...], scope_keys: Tuple
    ) -> "XSet":
        """The record ``{v1^s1, ..., vk^sk}``: ``XSet(zip(values, scopes))``.

        ``scopes`` are distinct admitted values (a heading's names) and
        ``scope_keys`` their canonical keys, in step with them, derived
        once by the caller for every record over the same scopes.  Each
        value is admitted as the checked constructor admits it and keyed
        once; distinct scopes make every pair distinct, so there is
        nothing to deduplicate.
        """
        for value in values:
            kind = type(value)
            if kind not in _ADMITTED_BY_TYPE or kind is float and value != value:
                _check_admissible(value, "an element")
        # On the keys alone, as the checked constructor sorts.
        ordered, keys = zip(*sorted(
            zip(zip(values, scopes), zip(map(canonical_key, values), scope_keys)),
            key=_pair_key_of,
        )) if values else ((), ())
        self = object.__new__(XSet)
        self._fill(ordered, frozenset(ordered), keys)
        return self

    @staticmethod
    def _of_records(records: List["XSet"]) -> "XSet":
        """The classical set of ``records``: ``XSet((r, EMPTY) for r in
        records)``, for records built by :meth:`_record` (so admitted
        and keyed).

        Sorted stably on the records' remembered keys: every pair key is
        ``(record key, EMPTY's key)``, so the records' keys alone decide
        each comparison the checked constructor makes.  When two records
        are equal it keeps the first spelling.
        """
        pair_set = frozenset(zip(records, repeat(EMPTY)))
        if len(pair_set) < len(records):
            return XSet(zip(records, repeat(EMPTY)))
        records = sorted(records, key=_key_of)
        return XSet._from_run(
            tuple(zip(records, repeat(EMPTY))), pair_set,
            tuple(zip(map(_key_of, records), repeat(EMPTY._key))),
        )

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

    def _members_holding(self, scope: Any) -> Dict[Any, Tuple[Pair, ...]]:
        """``{x: the pairs (z, w) of this set with x in_scope z, in run order}``.

        Atom members hold nothing.  Keys meet by Python equality (the
        twins ``1``/``1.0``/``True`` share a run), as pairs do in
        ``_pair_set``; callers decide membership by the definition.
        """
        by_part = self._by_part
        if by_part is None:
            by_part = {}
            object.__setattr__(self, "_by_part", by_part)
        index = by_part.get(scope)
        if index is None:
            grouped = _holding(self._pairs, scope)
            index = dict(zip(grouped, map(tuple, grouped.values())))
            by_part[scope] = index
        return index

    def _carry_parts(
        self, result: "XSet", removed: List[Pair], added: List[Pair]
    ) -> None:
        """Hand ``result`` this set's filled member indexes, patched.

        ``result``'s run is this one less the ``removed`` pairs (this
        set's own) and plus the ``added`` ones (in run order).  Each
        index is copied before it is patched, so ``result`` holds no
        reference to this set's, and a run that empties goes with its
        key: a fresh build never makes an empty one.  A pair is found
        and put in by bisecting its key, so a carried index always
        equals the one a fresh build makes.
        """
        if not self._by_part:
            return
        carried = {}
        # A list first: another reader may add a scope meanwhile.
        for scope, index in list(self._by_part.items()):
            index = dict(index)
            for element, gone in _holding(removed, scope).items():
                run = index[element]
                for pair in gone:
                    at = bisect_left(run, pair_key(pair), key=pair_key)
                    run = run[:at] + run[at + 1:]
                if run:
                    index[element] = run
                else:
                    del index[element]
            for element, came in _holding(added, scope).items():
                run = index.get(element, ())
                for pair in came:
                    at = bisect_right(run, pair_key(pair), key=pair_key)
                    run = run[:at] + (pair,) + run[at:]
                index[element] = run
            carried[scope] = index
        object.__setattr__(result, "_by_part", carried)

    # ------------------------------------------------------------------
    # Immutability & identity
    # ------------------------------------------------------------------

    def __reduce__(self):
        return XSet, (self._pairs,)

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
            other_keys = canonical_key(other)[2]
            if not result._pairs:
                if other._pairs:
                    result = other
                continue
            # The set operators reuse the hashes the frozensets hold.
            new = other._pair_set - result._pair_set
            if not new:
                continue
            extra = list(zip(other._pairs, other_keys))
            if len(new) < len(extra):
                extra = [item for item in extra if item[0] in new]
            # Two canonical runs of admitted pairs (extra is a subsequence
            # of other's) sharing no pair, each beside its remembered
            # keys, merged on the keys, which the result remembers in turn.
            keys = canonical_key(result)[2]
            ordered, merged_keys = _merged(result._pairs, keys, extra)
            grown = XSet._from_run(ordered, result._pair_set | new, merged_keys)
            if len(extra) * _FEW <= len(keys):
                # A patch: the member indexes come along, patched too.
                result._carry_parts(grown, [], [pair for pair, _ in extra])
            result = grown
        return result

    def intersection(self, *others: "XSet") -> "XSet":
        kept = self._pair_set
        for other in others:
            # a - (a - b), not a & b: of two equal members spelled
            # differently (1, 1.0) ``&`` may return either operand's.
            kept = kept - (kept - other._pair_set)
        lost = len(self._pairs) - len(kept)
        if lost and lost * _FEW <= len(self._pairs):
            return self._keeping(kept, [
                (pair, pair_key(pair)) for pair in self._pair_set - kept
            ])
        return self._keeping(kept)

    def difference(self, other: "XSet") -> "XSet":
        if not other._pairs:
            return self  # X - {} is X: no copy of X's pair set
        kept = self._pair_set - other._pair_set
        if len(other._pairs) * _FEW <= len(self._pairs):
            return self._keeping(
                kept, zip(other._pairs, canonical_key(other)[2])
            )
        return self._keeping(kept)

    def symmetric_difference(self, other: "XSet") -> "XSet":
        return self.difference(other).union(other.difference(self))

    def _keeping(
        self,
        kept: frozenset,
        candidates: Optional[Iterable[_Keyed]] = None,
        own: Optional[Iterable[Pair]] = None,
    ) -> "XSet":
        """The members of ``self`` that are in ``kept``, a subset of them.

        ``candidates``, when the caller holds them, are ``(pair, pair
        key)`` items among which is every member of ``self`` not in
        ``kept``, spelled either way; the rest are no members at all.
        Each is then looked up by bisecting this set's keys, and the
        result carries this set's member indexes, patched.  Otherwise
        the run is filtered; ``own``, when the caller holds it, is
        ``kept`` as this run's own pair objects, and the filter then
        tests identity and hashes no pair (an ``XSet`` element's hash is
        a Python call).  Either way the result is a subsequence of this
        set's canonical run, beside the matching subsequence of its keys
        when it has any.
        """
        pairs = self._pairs
        lost = len(pairs) - len(kept)
        if not lost:
            return self
        if candidates is not None:
            keys = canonical_key(self)[2]
            found = (_find(keys, key) for _, key in candidates)
            positions = sorted(at for at in found if at is not None)
            result = XSet._from_run(
                _dropping(pairs, positions), kept, _dropping(keys, positions)
            )
            self._carry_parts(result, [pairs[at] for at in positions], [])
            return result
        # One C-level pass over the run: which of its pairs are kept.
        if own is None:
            mask = list(map(kept.__contains__, pairs))
        else:
            ids = set(map(id, own))
            mask = list(map(ids.__contains__, map(id, pairs)))
        keys = None if self._key is None else tuple(compress(self._key[2], mask))
        return XSet._from_run(tuple(compress(pairs, mask)), kept, keys)

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

    def isdisjoint(self, other: "XSet") -> bool:
        """No membership pair in common; asks the smaller set's pairs."""
        return self._pair_set.isdisjoint(other._pair_set)

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


#: The atom types: with ``None``, what an extended set holds besides
#: extended sets -- the values the log carries (see _check_admissible).
_ATOM_TYPES = (int, float, complex, str, bytes)

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
