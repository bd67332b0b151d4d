"""The sigma-Restriction operation (Def 7.6) and its CST specialization.

Restriction filters a set of structured members by the members of a
second set, under a scope specification::

    R |_sigma A = { z^w : (z in_w R) and
                    exists a, s ( a in_s A
                                  and a^{\\sigma\\} subseteq z
                                  and s^{\\sigma\\} subseteq w ) }

Each member ``a`` of the restricting set ``A`` is re-scoped *by
element* through sigma into the shape it would occupy inside a member
of ``R``; any ``z`` containing that re-scoped fragment (with the
member-scope condition holding likewise) survives.  With
``sigma = <1>`` over a set of pairs this is exactly CST restriction
``R | A`` (Def 3.3): keep the pairs whose first component appears in
``A``.

Two literal-reading consequences worth knowing (both covered by tests):

* A restricting member ``a`` whose re-scope ``a^{\\sigma\\}`` is empty
  imposes no element condition, so it keeps every ``z`` whose scope
  passes the scope condition.  In particular atoms in ``A`` re-scope to
  the empty set and act as universal keys.
* Members ``z`` of ``R`` that are atoms can only be kept by such
  empty-fragment keys, since a non-empty fragment cannot be a subset of
  an atom.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, List, Mapping, Sequence, Tuple

from repro.gov.governor import active as _gov_active
from repro.obs.instrument import kernel_op
from repro.xst.xset import Pair, XSet, _admit_all
from repro.xst.rescope import rescope_value_by_element

__all__ = ["sigma_restrict", "restrict_1", "restrict_records"]


def _fragment_within(fragment: XSet, whole: Any) -> bool:
    """Subset test where the containing side may be an atom."""
    if fragment.is_empty:
        return True
    if isinstance(whole, XSet):
        return fragment.issubset(whole)
    return False


@kernel_op("restrict")
def sigma_restrict(r: XSet, a: XSet, sigma: XSet) -> XSet:
    """Def 7.6: ``R |_sigma A``.

    The fragments ``a^{\\sigma\\}`` / ``s^{\\sigma\\}`` are computed once
    per member of ``A``.  When every element fragment is non-empty, a
    kept ``z`` must hold each of its parts, so the candidates come from
    ``R``'s per-scope member index and only they are tested; a key with
    an empty element fragment is universal, and then every member of
    ``R`` is tested.  Either way the definition's two subset conditions
    decide what is kept.
    """
    keys = dict.fromkeys(
        (
            rescope_value_by_element(member, sigma),
            rescope_value_by_element(member_scope, sigma),
        )
        for member, member_scope in a.pairs()
    )
    if not keys:
        return XSet()
    gov = _gov_active()
    charged = 0
    if all(element_fragment for element_fragment, _ in keys):
        kept = _probe(r, keys, gov)
    else:
        kept = []
        for scanned, (candidate, candidate_scope) in enumerate(r.pairs(), 1):
            for element_fragment, scope_fragment in keys:
                if _fragment_within(
                    element_fragment, candidate
                ) and _fragment_within(scope_fragment, candidate_scope):
                    kept.append((candidate, candidate_scope))
                    break
            if gov is not None and not (scanned & 1023):
                gov.checkpoint("xst.restrict", len(kept) - charged)
                charged = len(kept)
    if gov is not None:
        gov.checkpoint("xst.restrict", len(kept) - charged)
    # A subsequence of r's own canonical run.
    return XSet._from_run(kept)


def _probe(r: XSet, keys, gov) -> List[Pair]:
    """The members of ``r`` some key keeps, every element fragment non-empty.

    A kept ``z`` holds every part ``x^s`` of the key's element fragment,
    so the shortest of the parts' index runs holds every candidate; the
    index proposes, Def 7.6's two conditions decide.  Each run is in
    ``r``'s order, so one key's survivors are the answer as they stand.
    """
    found: List[Pair] = []
    for probed, (element_fragment, scope_fragment) in enumerate(keys, 1):
        candidates = min(
            (
                r._members_holding(scope).get(element, ())
                for element, scope in element_fragment.pairs()
            ),
            key=len,
        )
        for pair in candidates:
            if _fragment_within(
                element_fragment, pair[0]
            ) and _fragment_within(scope_fragment, pair[1]):
                found.append(pair)
        if gov is not None and not (probed & 1023):
            gov.checkpoint("xst.restrict")
    if len(keys) == 1:
        return found
    return _in_run_order(r, found)


def _in_run_order(r: XSet, found: List[Pair]) -> List[Pair]:
    """The distinct pairs of ``found`` in ``r``'s order.

    ``found`` holds ``r``'s own pair objects (its index holds no other),
    so identity tells them apart, and one C-level pass over the run
    keeps them.
    """
    members = r.pairs()
    distinct = set(map(id, found))
    return list(compress(members, map(distinct.__contains__, map(id, members))))


def restrict_records(r: XSet, keys: Sequence[Mapping[Any, Any]]) -> XSet:
    """``sigma_restrict(r, xset(map(xrecord, keys)), sigma)`` with
    ``sigma`` the identity on the keys' attributes, for an ``r`` whose
    members are records: the rows holding every ``value^attr`` of some
    key ``{attr: value}``.

    Under that sigma a key re-scopes to itself and its member scope to
    the empty set, so Def 7.6 keeps a row exactly when the row holds
    each of the key's parts -- and a record holds ``value^attr``
    exactly when ``r._members_holding(attr)[value]`` lists it.  So the
    member index decides, and no part is re-tested: a one-attribute key
    keeps its run as it stands, a wider key keeps the rows of its
    shortest run that hold its other parts, and ``{}`` keeps every row.
    The answer is in ``r``'s own run order.  Every value and attribute
    is admitted (:class:`~repro.errors.InvalidAtomError` for one no set
    can hold) before any row is read.  :func:`sigma_restrict` is the
    specification; the tests compare the two.
    """
    for key in keys:
        _admit_all((*key, *key.values()))
    if len(keys) > 1:
        # Equal keys are one member of the key set.
        keys = tuple({frozenset(key.items()): key for key in keys}.values())
    return _restricted_records(r, keys)


@kernel_op("restrict")
def _restricted_records(r: XSet, keys: Sequence[Mapping[Any, Any]]) -> XSet:
    """:func:`restrict_records` over distinct, admitted ``keys``."""
    if not keys:
        return XSet()
    gov = _gov_active()
    if not all(keys):
        kept = r  # an empty key keeps every row
    elif len(keys) == 1:
        kept = XSet._from_run(_holding_key(r, keys[0]))
    else:
        found: List[Pair] = []
        for probed, key in enumerate(keys, 1):
            found += _holding_key(r, key)
            if gov is not None and not (probed & 1023):
                gov.checkpoint("xst.restrict")
        kept = XSet._from_run(_in_run_order(r, found))
    if gov is not None:
        gov.checkpoint("xst.restrict", len(kept))
    return kept


def _holding_key(r: XSet, key: Mapping[Any, Any]) -> Sequence[Pair]:
    """The members of ``r`` holding every part of the non-empty ``key``,
    in run order: its shortest index run, less the rows that miss one of
    its other parts."""
    if len(key) == 1:
        (attr, value), = key.items()
        return r._members_holding(attr).get(value, ())
    parts: List[Tuple[Any, Any]] = [(value, attr) for attr, value in key.items()]
    runs = [r._members_holding(attr).get(value, ()) for value, attr in parts]
    shortest = min(range(len(runs)), key=lambda at: len(runs[at]))
    del parts[shortest]
    return [pair for pair in runs[shortest] if pair[0]._pair_set.issuperset(parts)]


def restrict_1(r: XSet, a: XSet) -> XSet:
    """CST-shaped restriction: keep members whose position-1 part is in A.

    ``A`` here holds 1-tuples ``<k>`` (or wider tuples; only position 1
    is consulted), matching the paper's usage ``f |_{<1>} {<a>}``.
    """
    return sigma_restrict(r, a, XSet([(1, 1)]))
