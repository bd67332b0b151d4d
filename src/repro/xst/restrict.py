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

from typing import Any

from repro.gov.governor import active as _gov_active
from repro.obs.instrument import kernel_op
from repro.xst.xset import XSet
from repro.xst.rescope import rescope_value_by_element

__all__ = ["sigma_restrict", "restrict_1"]


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
    per member of ``A`` and then checked against each member of ``R``.
    """
    keys = [
        (
            rescope_value_by_element(member, sigma),
            rescope_value_by_element(member_scope, sigma),
        )
        for member, member_scope in a.pairs()
    ]
    if not keys:
        return XSet()
    gov = _gov_active()
    charged = 0
    kept = []
    for scanned, (candidate, candidate_scope) in enumerate(r.pairs(), 1):
        for element_fragment, scope_fragment in keys:
            if _fragment_within(element_fragment, candidate) and _fragment_within(
                scope_fragment, candidate_scope
            ):
                kept.append((candidate, candidate_scope))
                break
        if gov is not None and not (scanned & 1023):
            gov.checkpoint("xst.restrict", len(kept) - charged)
            charged = len(kept)
    if gov is not None:
        gov.checkpoint("xst.restrict", len(kept) - charged)
    # A subsequence of r's own canonical run.
    return XSet._from_run(kept)


def restrict_1(r: XSet, a: XSet) -> XSet:
    """CST-shaped restriction: keep members whose position-1 part is in A.

    ``A`` here holds 1-tuples ``<k>`` (or wider tuples; only position 1
    is consulted), matching the paper's usage ``f |_{<1>} {<a>}``.
    """
    return sigma_restrict(r, a, XSet([(1, 1)]))
