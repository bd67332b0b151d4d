"""Relative product: Def 10.1, the join engine of XST.

The relative product generalizes CST's bland compose-two-relations
operation into a parameterized join.  Four scope specifications steer
it -- ``sigma = <sigma1, sigma2>`` for the left operand and
``omega = <omega1, omega2>`` for the right::

    F /_{<sigma1,sigma2>}^{<omega1,omega2>} G =
      { z^tau : exists x, s, y, t (
            x in_s F  and  y in_t G
            and x^{/sigma2/} = y^{/omega1/}        -- join condition
            and s^{/sigma2/} = t^{/omega1/}        -- on scopes too
            and z   = x^{/sigma1/} union y^{/omega2/}
            and tau = s^{/sigma1/} union t^{/omega2/} ) }

``sigma2`` extracts the left join key, ``omega1`` the right join key;
``sigma1`` and ``omega2`` say which re-scoped parts of the joined
members survive into the result.  The paper's section 10 lists eight
sigma/omega parameterizations producing eight differently-shaped
results from the same operands; all eight are exercised by the test
suite and the classical ``{<a,b>} / {<b,c>} = {<a,c>}`` is case 1.

Implementation: the index proposes, Def 10.1 decides.  The larger
operand is indexed (``G`` on a tie) and the other one probes.  When the
indexed side's key sigma sends some scope ``k`` alone to a target
``w``, a probing member whose key holds ``e`` at ``w`` meets only the
indexed members holding ``e`` at ``k`` -- a run of that operand's
per-scope member index, which a committed relation carries; otherwise
(a product's empty key, atom members, a key sigma with no single-source
target) it meets every indexed member.  A candidate joins iff its key
pair equals the probe's, and its key and kept parts are re-scoped once
per run per call, so a join costs its probes, the candidates they meet
and its output, not ``|F| + |G|``.  The nested loop stays as the
executable specification (``benchmarks/bench_join.py`` compares both).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.gov.governor import active as _gov_active
from repro.obs.instrument import kernel_op
from repro.xst.rescope import rescope_value_by_scope
from repro.xst.xset import Pair, XSet

__all__ = ["relative_product", "relative_product_nested_loop", "cst_relative_product"]

SigmaPair = Tuple[XSet, XSet]

#: Cancellation-checkpoint stride for join output loops (power of two).
_CHECK_EVERY = 1024

#: The output pair ``(z, tau)`` of a ``(z, tau, F's pair)`` triple.
_output = itemgetter(0, 1)


def _split(spec) -> SigmaPair:
    if hasattr(spec, "sigma1") and hasattr(spec, "sigma2"):
        return spec.sigma1, spec.sigma2
    first, second = spec
    return first, second


def _probe_scope(key_sigma: XSet) -> Optional[Pair]:
    """``(k, w)``: a scope ``k`` that ``key_sigma`` sends to ``w``, where
    no other scope goes; ``None`` when every target has several sources
    (or there is none)."""
    sources = key_sigma._scopes_index()
    for scope, target in key_sigma.pairs():
        if len(sources[target]) == 1:
            return scope, target
    return None


def _arrival_free(result: XSet, emitted: int) -> bool:
    """Whether any order of the ``emitted`` pairs builds ``result``: none
    collapsed into another, so no spelling was chosen by arrival.
    Distinct pairs have distinct keys, so arrival never orders them."""
    return len(result) == emitted


@kernel_op("relative_product")
def relative_product(f: XSet, g: XSet, sigma: SigmaPair, omega: SigmaPair) -> XSet:
    """Def 10.1: the larger operand's member index proposes candidates,
    the definition's key equality decides (output identical, spelling
    for spelling, to the nested loop).

    A run of candidates is re-scoped once per call however many probes
    meet it.  When ``G``'s members probe, output arrives ``G``-major;
    if that could change the result's spelling or order, it is sorted
    ``F``-major, the nested loop's order, and built again.
    """
    sigma1, sigma2 = _split(sigma)
    omega1, omega2 = _split(omega)
    if not f or not g:
        return XSet()
    from_g = len(f) > len(g)
    if from_g:
        indexed, index_key, index_kept = f, sigma2, sigma1
        probing, probe_key, probe_kept = g, omega1, omega2
    else:
        indexed, index_key, index_kept = g, omega1, omega2
        probing, probe_key, probe_kept = f, sigma2, sigma1
    probe_scope = _probe_scope(index_key)
    if probe_scope is not None:
        source, target = probe_scope
        runs = indexed._members_holding(source)
    everyone = indexed.pairs()
    # id(run) -> [(pair, its key pair, its kept parts)], in run order.
    met: Dict[int, List] = {}
    gov = _gov_active()
    charged = 0
    triples: List[Tuple[XSet, XSet, Pair]] = []
    for member, member_scope in probing.pairs():
        element_key = rescope_value_by_scope(member, probe_key)
        # Frozensets compare as XSet.__eq__ does, with no method call.
        key = (
            element_key._pair_set,
            rescope_value_by_scope(member_scope, probe_key)._pair_set,
        )
        run = everyone
        if probe_scope is not None:
            for element, scope in element_key.pairs():
                if scope == target:
                    run = runs.get(element, ())
                    break
        if not run:
            continue
        entries = met.get(id(run))
        if entries is None:
            entries = met[id(run)] = [
                (
                    pair,
                    (
                        rescope_value_by_scope(pair[0], index_key)._pair_set,
                        rescope_value_by_scope(pair[1], index_key)._pair_set,
                    ),
                    rescope_value_by_scope(pair[0], index_kept),
                    rescope_value_by_scope(pair[1], index_kept),
                )
                for pair in run
            ]
        kept = None
        for pair, candidate_key, part, scope_part in entries:
            if candidate_key != key:
                continue
            if kept is None:
                kept = (
                    rescope_value_by_scope(member, probe_kept),
                    rescope_value_by_scope(member_scope, probe_kept),
                )
            if from_g:  # the candidate is F's: its parts go first
                triples.append(
                    (part.union(kept[0]), scope_part.union(kept[1]), pair)
                )
            else:
                triples.append(
                    (kept[0].union(part), kept[1].union(scope_part), pair)
                )
            if gov is not None and not (len(triples) & (_CHECK_EVERY - 1)):
                gov.checkpoint("xst.relative_product", len(triples) - charged)
                charged = len(triples)
    if gov is not None:
        gov.checkpoint("xst.relative_product", len(triples) - charged)
    result = XSet(map(_output, triples))
    if from_g and not _arrival_free(result, len(triples)):
        at = dict(zip(map(id, f.pairs()), range(len(f))))
        triples.sort(key=lambda triple: at[id(triple[2])])
        result = XSet(map(_output, triples))
    return result


@kernel_op("relative_product_nested_loop")
def relative_product_nested_loop(
    f: XSet, g: XSet, sigma: SigmaPair, omega: SigmaPair
) -> XSet:
    """Def 10.1 transliterated: the O(|F| * |G|) comparison loop.

    Kept as the executable specification the index-probing join is
    validated against (property tests assert both agree, spelling for
    spelling, on random inputs) and as the baseline for the join
    benchmarks.
    """
    sigma1, sigma2 = _split(sigma)
    omega1, omega2 = _split(omega)
    pairs = []
    for x, s in f.pairs():
        x_key = rescope_value_by_scope(x, sigma2)
        s_key = rescope_value_by_scope(s, sigma2)
        for y, t in g.pairs():
            if rescope_value_by_scope(y, omega1) != x_key:
                continue
            if rescope_value_by_scope(t, omega1) != s_key:
                continue
            z = rescope_value_by_scope(x, sigma1).union(
                rescope_value_by_scope(y, omega2)
            )
            tau = rescope_value_by_scope(s, sigma1).union(
                rescope_value_by_scope(t, omega2)
            )
            pairs.append((z, tau))
    return XSet(pairs)


#: sigma/omega for the classical relative product over pair relations:
#: match left position 2 against right position 1, keep left 1 / right 2.
_CST_SIGMA = (XSet([(1, 1)]), XSet([(2, 1)]))
_CST_OMEGA = (XSet([(1, 1)]), XSet([(2, 2)]))


def cst_relative_product(f: XSet, g: XSet) -> XSet:
    """CST relative product: ``{<a,b>} / {<b,c>} = {<a,c>}``."""
    return relative_product(f, g, _CST_SIGMA, _CST_OMEGA)
