"""Re-scoping: the paper's Definitions 7.3 and 7.5.

Re-scoping is the primitive under everything interesting in XST.  A
*scope specification* sigma is itself an extended set read as a scope
mapping, and there are two directions:

**Re-scope by scope** (Def 7.3)::

    A^{/sigma/} = { x^w : exists s (x in_s A  and  s in_w sigma) }

``sigma`` maps *old scopes to new scopes*: each membership ``s in_w
sigma`` sends elements held at scope ``s`` in ``A`` to scope ``w`` in
the result.  Memberships of ``A`` whose scope does not occur as an
element of ``sigma`` are dropped.  Example (the paper's)::

    {a^x, b^y, c^z}^{/{x^1, y^2, z^3}/} = {a^1, b^2, c^3}

**Re-scope by element** (Def 7.5)::

    A^{\\sigma\\} = { x^w : exists s (x in_s A  and  w in_s sigma) }

Here ``sigma`` is read the other way around: the *elements* of sigma
are the new scopes, held at the old scope they replace.  Example::

    {a^1, b^2, c^3}^{\\{w^1, v^2, t^3}\\} = {a^w, b^v, c^t}

The two directions are mutually inverse when sigma is a bijection
between scope alphabets; in general either may drop or duplicate
memberships (a scope mapped to two new scopes duplicates; an unmapped
scope drops).

Scope values that are *atoms* rather than extended sets can appear as
the scope of a membership (e.g. string attribute names).  When Def 7.4
asks for ``w^{/sigma/}`` of such an atom ``w``, we adopt the urelement
reading -- an atom has no scoped members, so its re-scope is the empty
set.  This matches every worked example in the paper, whose member
scopes are always extended sets (possibly empty).
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.xst.xset import EMPTY, XSet

__all__ = [
    "rescope_by_scope",
    "rescope_by_element",
    "rescope_value_by_scope",
    "rescope_value_by_element",
    "identity_sigma_for",
]


def _spelled_as(new_scope: Any, scope: Any) -> bool:
    """True when ``new_scope`` is ``scope`` down to its spelling.

    Equal atoms may be spelled differently (``1``/``1.0``/``True``,
    ``0.0``/``-0.0``) and so may equal nested sets, so only identity, or
    equality of two ``str`` or two ``int`` of that exact type, counts.
    """
    return new_scope is scope or (
        type(new_scope) is type(scope)
        and type(scope) in (str, int)
        and new_scope == scope
    )


def _rescope(a: XSet, targets_of: Callable[[Any, Tuple], Tuple]) -> XSet:
    """``{x^w : x in_s a and w in targets_of(s)}`` for either direction."""
    for _, scope in a.pairs():
        targets = targets_of(scope, ())
        if len(targets) != 1 or not _spelled_as(targets[0], scope):
            break
    else:
        # Every membership is kept, once, at the scope a spells: the
        # result is a itself (so the empty set re-scopes to itself).
        return a
    pairs = []
    in_place = True
    for element, scope in a.pairs():
        targets = targets_of(scope, ())
        for new_scope in targets:
            pairs.append((element, new_scope))
        if targets and (len(targets) > 1 or targets[0] != scope):
            in_place = False
    if in_place:
        # Every kept scope maps to itself alone, so the result is a
        # subsequence of a's canonical run (equal scopes have equal keys)
        # of elements admitted by a at scopes admitted by sigma.
        return XSet._from_run(pairs)
    return XSet(pairs)


def rescope_by_scope(a: XSet, sigma: XSet) -> XSet:
    """Def 7.3: ``A^{/sigma/}``, mapping old scopes to new scopes."""
    return _rescope(a, sigma._elements_index().get)


def rescope_by_element(a: XSet, sigma: XSet) -> XSet:
    """Def 7.5: ``A^{\\sigma\\}``, new scopes drawn from sigma's elements."""
    return _rescope(a, sigma._scopes_index().get)


def rescope_value_by_scope(value: Any, sigma: XSet) -> XSet:
    """``value^{/sigma/}`` extended to atoms (which re-scope to empty)."""
    if not isinstance(value, XSet):
        return EMPTY
    if not value._pairs:
        # The empty set re-scopes to itself whatever sigma says; it is the
        # scope of every classical member, so a join's per-member path
        # stops here.
        return value
    return _rescope(value, sigma._elements_index().get)


def rescope_value_by_element(value: Any, sigma: XSet) -> XSet:
    """``value^{\\sigma\\}`` extended to atoms (which re-scope to empty)."""
    if isinstance(value, XSet):
        return rescope_by_element(value, sigma)
    return EMPTY


def identity_sigma_for(a: XSet) -> XSet:
    """The sigma that re-scopes every scope of ``a`` to itself.

    ``rescope_by_scope(a, identity_sigma_for(a)) == a`` for every
    extended set ``a``; useful as the neutral scope specification.
    """
    return XSet((scope, scope) for scope in a.scopes())
