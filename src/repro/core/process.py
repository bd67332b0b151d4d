"""Processes: sets acting as behavior (the paper's core contribution).

A *process* ``f_(sigma)`` is a set ``f`` together with a scope
specification ``sigma = <sigma1, sigma2>``, read not as data but as a
prediction of behavior: applied to an input set it produces an output
set via the Image operation (Defs 3.8 / 8.1)::

    f_(sigma)(x) = f[x]_sigma = D_{sigma2}( f |_{sigma1} x )

Processes are deliberately *not* extended sets -- "processes do not
exist in any formal set theory and thus can not be contained in sets"
(section 2) -- and the kernel enforces that: putting a
:class:`Process` inside an :class:`~repro.xst.xset.XSet` raises.  What
*can* be put in a set is the process's denotation ``f^sigma`` (the
graph tagged by its sigma), which is how process spaces hold their
members (Def 5.1).

Nested application (Def 4.1) applies a process *to a process* and
yields another process, not a result set::

    f_(sigma)( g_(omega) ) = ( f[g]_sigma )_(omega)

:meth:`Process.__call__` dispatches on its operand's type to realize
both rules, which is exactly how the paper's Appendix B builds four
distinct behaviors out of one five-column set by repeated
self-application.

Finite-check caveats.  Two of the paper's predicates quantify over
*all* sets:

* Def 2.1 (well-formedness) reduces exactly to a member-local check --
  see :meth:`Process.is_wellformed` -- because the universal input
  ``{ {}^{} }`` triggers every member, so no search over inputs is
  needed.
* Def 8.2 (functionhood) does not reduce; :meth:`Process.is_function`
  checks the canonical family of singletons drawn from the process's
  own sigma1-domain (the family every example in the paper uses) and
  accepts a richer family from the caller when needed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from repro.errors import NotAProcessError
from repro.core.sigma import Sigma
from repro.xst.domain import sigma_domain
from repro.xst.image import image
from repro.xst.rescope import rescope_value_by_scope
from repro.xst.tuples import concat, tup
from repro.xst.xset import XSet

__all__ = ["Process", "identity_process"]


class Process:
    """The behavior ``f_(sigma)`` of a set ``f`` under a sigma pair."""

    #: Marker consulted by the XSet constructor to keep behaviors out
    #: of sets (paper, section 2).
    __xst_process__ = True

    __slots__ = ("_graph", "_sigma")

    def __init__(self, graph: XSet, sigma: Sigma):
        if not isinstance(graph, XSet):
            raise TypeError("process graph must be an extended set")
        if not isinstance(sigma, Sigma):
            sigma = Sigma(*sigma)
        object.__setattr__(self, "_graph", graph)
        object.__setattr__(self, "_sigma", sigma)

    def __setattr__(self, name, value):
        raise AttributeError("Process instances are immutable")

    @property
    def graph(self) -> XSet:
        """The underlying set ``f`` (data, not behavior)."""
        return self._graph

    @property
    def sigma(self) -> Sigma:
        return self._sigma

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(self, x: XSet) -> XSet:
        """Defs 3.8 / 8.1: ``f_(sigma)(x) = f[x]_sigma``."""
        return image(self._graph, x, self._sigma)

    def apply_to_process(self, other: "Process") -> "Process":
        """Def 4.1: ``f_(sigma)(g_(omega)) = (f[g]_sigma)_(omega)``."""
        return Process(self.apply(other._graph), other._sigma)

    def __call__(self, operand: Union[XSet, "Process"]) -> Union[XSet, "Process"]:
        """Apply to a set (result: set) or to a process (result: process)."""
        if isinstance(operand, Process):
            return self.apply_to_process(operand)
        if isinstance(operand, XSet):
            return self.apply(operand)
        raise TypeError(
            "a process applies to an extended set or to another process, "
            "not to %r" % (operand,)
        )

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------

    def domain(self) -> XSet:
        """``D_{sigma1}(f)`` -- the inputs the graph can react to."""
        return sigma_domain(self._graph, self._sigma.sigma1)

    def codomain(self) -> XSet:
        """``D_{sigma2}(f)`` -- every output part the graph can emit."""
        return sigma_domain(self._graph, self._sigma.sigma2)

    def domain_singletons(self) -> Iterator[XSet]:
        """The canonical singleton inputs ``{d^s}`` from the domain."""
        for pair in self.domain().pairs():
            yield XSet([pair])

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def is_wellformed(self) -> bool:
        """Def 2.1 process well-formedness, decided exactly.

        Def 2.1 demands a witness input for ``f`` and for every
        non-empty ``g`` subset of ``f``.  Both quantifiers collapse:

        * *singletons suffice* -- restriction is monotone in its first
          operand, so a witness for a one-member subset is a witness
          for every superset;
        * *a universal input exists* -- the input ``{ {}^{} }``
          re-scopes to empty fragments, which trigger every member of
          every graph (Def 7.6's subset conditions hold vacuously).

        Hence ``f_(sigma)`` is a process iff ``f`` is non-empty and
        every member's sigma2 re-scope is non-empty -- a member that
        can emit nothing poisons the subset consisting of it alone.
        """
        if self._graph.is_empty:
            return False
        sigma2 = self._sigma.sigma2
        return all(
            not rescope_value_by_scope(member, sigma2).is_empty
            for member, _ in self._graph.pairs()
        )

    def require_wellformed(self) -> "Process":
        """Raise :class:`NotAProcessError` unless Def 2.1 holds."""
        if not self.is_wellformed():
            raise NotAProcessError(
                "%r violates Def 2.1: empty graph or a member whose sigma2 "
                "re-scope is empty" % (self,)
            )
        return self

    def is_function(self, inputs: Optional[Iterable[XSet]] = None) -> bool:
        """Def 8.2: singleton inputs with non-empty image map to singletons.

        The definition quantifies over all singleton sets; this check
        runs over the canonical family -- singletons of the process's
        own sigma1-domain -- unless the caller supplies a richer
        ``inputs`` family.  For tuple graphs keyed on full sigma1
        width (every example in the paper) the canonical family is
        decisive.
        """
        candidates = self.domain_singletons() if inputs is None else inputs
        for candidate in candidates:
            if len(candidate) != 1:
                continue
            result = self.apply(candidate)
            if not result.is_empty and len(result) != 1:
                return False
        return True

    def is_injective(self, inputs: Optional[Iterable[XSet]] = None) -> bool:
        """Def 6.3's 1-1 condition over a finite family of singletons."""
        seen = {}
        candidates = list(self.domain_singletons() if inputs is None else inputs)
        for candidate in candidates:
            result = self.apply(candidate)
            if result.is_empty:
                continue
            if result in seen and seen[result] != candidate:
                return False
            seen[result] = candidate
        return True

    # ------------------------------------------------------------------
    # Behavioral equality (Def 2.2)
    # ------------------------------------------------------------------

    def equivalent_on(self, other: "Process", inputs: Iterable[XSet]) -> bool:
        """Def 2.2 process equality checked over a given input family."""
        return all(self.apply(x) == other.apply(x) for x in inputs)

    def extensionally_equal(self, other: "Process") -> bool:
        """Def 2.2 over the canonical family: both processes' domain
        singletons plus both full domains.

        This is the decidable proxy the paper itself relies on in
        Appendix B (where equalities like ``f_(sigma) = g1_(sigma)``
        are validated input-by-input over ``{<a>}`` and ``{<b>}``).
        """
        family = list(self.domain_singletons())
        family.extend(other.domain_singletons())
        family.append(self.domain())
        family.append(other.domain())
        return self.equivalent_on(other, family)

    # ------------------------------------------------------------------
    # Derived processes
    # ------------------------------------------------------------------

    def inverse(self) -> "Process":
        """The behavior with sigma halves swapped (Example 8.1's tau).

        The inverse of a function need not be a function; Example 8.1's
        ``f_(tau)`` is the paper's own witness.
        """
        return Process(self._graph, self._sigma.inverted())

    def denotation(self) -> XSet:
        """The set ``f^sigma``: the graph held at scope sigma.

        This is the membership shape process spaces use (``f in_sigma
        P(A,B)``, Def 5.1): a set may contain the *denotation* of a
        process even though it can never contain the process itself.
        """
        return XSet([(self._graph, self._sigma.to_xset())])

    # ------------------------------------------------------------------
    # Identity & protocol
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Structural identity: same graph, same sigma.

        The paper's process equality (Def 2.2) is *behavioral*; use
        :meth:`extensionally_equal` / :meth:`equivalent_on` for that.
        Structural equality is what hashing requires and implies
        behavioral equality.
        """
        if not isinstance(other, Process):
            return NotImplemented
        return self._graph == other._graph and self._sigma == other._sigma

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(("repro.Process", self._graph, self._sigma))

    def __repr__(self) -> str:
        return "Process(%r, %r)" % (self._graph, self._sigma)


def identity_process(a: XSet) -> Process:
    """The identity behavior ``I_A`` on a classical set of n-tuples.

    Built as the graph ``{ t . t : t in A }`` with sigma keying on the
    first copy and emitting the second; Appendix B's closing equality
    ``f_(sigma) = I_A`` is verified against this construction.  All
    members of ``A`` must share one arity.
    """
    arities = set()
    pairs = []
    for member, scope in a.pairs():
        if not isinstance(member, XSet):
            raise NotAProcessError(
                "identity_process needs tuple members; got atom %r" % (member,)
            )
        arity = tup(member)
        arities.add(arity)
        pairs.append((concat(member, member), scope))
    if not pairs:
        raise NotAProcessError("identity_process on the empty set is not a process")
    if len(arities) != 1:
        raise NotAProcessError(
            "identity_process needs uniform arity; saw arities %s"
            % sorted(arities)
        )
    arity = arities.pop()
    sigma = Sigma.columns(
        list(range(1, arity + 1)), list(range(arity + 1, 2 * arity + 1))
    )
    return Process(XSet(pairs), sigma)
