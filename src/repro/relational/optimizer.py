"""Plan optimization via the composition theorem.

Section 12 argues that because compositions of processes are always
constructible (Theorem 11.2), data management behavior can be
*optimized*: intermediate operations that only relay results can be
eliminated before anything executes.  This optimizer applies that idea
to query plans with four families:

1. **Unary fusion** -- adjacent Project/Rename stages are one
   re-scoping process each, so their composition is a single stage
   whose sigma is the fused scope map (``Sigma.fused_output``); chains
   collapse to one node and intermediate materializations disappear.
2. **Restriction pushdown** -- a restriction (``Restrict``, a
   conjunction of comparisons, equalities among them) is a separation
   over the sigma-domain followed by a Def 7.6 restriction by the
   values that pass, so it commutes below Project/Rename (with
   attribute names mapped through) and its comparisons go into every
   Join side whose heading holds their attributes, shrinking
   relative-product inputs.  A comparison that reaches its Scan is
   decided over the stored relation's member index.
3. **Adjacent restrictions merge** -- stacked ``Restrict`` nodes are
   one conjunction, so they become one node: its equalities one
   restriction key, its other comparisons decided once per attribute.
4. **Join ordering** -- after the rewrite fixed point, every maximal
   join region is re-associated and its build sides chosen by one
   cost-ordered search (:func:`repro.relational.cost.reorder_joins`)
   over one cardinality table
   (:class:`repro.relational.cost.CardinalityEstimator`), which reads
   its numbers off the catalog value: cardinalities, and the distinct
   counts and run lengths of the relations' member indexes.

Rewrites preserve results exactly (asserted in the tests: optimized
and unoptimized plans agree on every generated workload, in every
catalog state).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.obs import metrics as _metrics
from repro.obs.instrument import enabled as _obs_enabled
from repro.relational.algebra import Comparison
from repro.relational.cost import reorder_joins
from repro.relational.query import (
    Database,
    Join,
    Plan,
    Project,
    Rename,
    Restrict,
)

__all__ = ["optimize"]


def optimize(plan: Plan, db: Database) -> Plan:
    """The rewrite fixed point, then one cost-ordered join search.

    The plan must be well defined on ``db``'s headings
    (:meth:`Database.heading_of` raises ``SchemaError`` otherwise):
    a rewrite may erase an ill-formed node, and the optimized and the
    unoptimized plan have to agree on refusing it.  A plan holding no
    ``Join`` has nothing to order and builds no estimator.
    """
    db.heading_of(plan)
    # A rule that fires shrinks the tree or moves a node down it, and a
    # pass in which none fires returns the very object it was given
    # (``with_children`` allocates nothing over unchanged inputs).
    while True:
        _gov_checkpoint("optimizer.pass")
        rewritten = _rewrite(plan, db)
        if rewritten is plan:
            break
        plan = rewritten
    if not _has_join(plan):
        return plan
    if _obs_enabled():
        _metrics.registry().counter(
            "repro_opt_plans_total", "Join-ordered plans.",
        ).inc()
    return reorder_joins(plan, db)


def _has_join(plan: Plan) -> bool:
    # Runs on every optimized plan, point reads included: a plain loop,
    # three calls a node.
    if isinstance(plan, Join):
        return True
    for child in plan.children():
        if _has_join(child):
            return True
    return False


# ----------------------------------------------------------------------
# Rewrites
# ----------------------------------------------------------------------


def _rewrite(plan: Plan, db: Database) -> Plan:
    """One bottom-up pass: rewrite the inputs, then apply this node
    type's rule (:data:`_RULES`) if it has one."""
    plan = plan.with_children(
        *[_rewrite(child, db) for child in plan.children()]
    )
    rule = _RULES.get(type(plan))
    return plan if rule is None else rule(plan, db)


def _rewrite_restriction(plan: Restrict, db: Database) -> Plan:
    """Move a restriction toward the data: merged with a restriction
    below it, below a Project unchanged, below a Rename with its
    attributes spelled as they are underneath, and into each Join side
    whose heading holds the attributes of some of its comparisons.  An
    attribute in *both* headings restricts both inputs: the natural
    join equates shared attributes, so the condition holds on each side
    independently and both relative-product inputs shrink."""
    child = plan.child
    if isinstance(child, Restrict):
        return _rewrite_restriction(
            Restrict(child.child, child.comparisons + plan.comparisons), db
        )
    if isinstance(child, Project):
        return Project(
            _rewrite_restriction(plan.with_children(child.child), db),
            child.attrs,
        )
    if isinstance(child, Rename):
        return Rename(_rewrite_restriction(Restrict(child.child, [
            Comparison(child.origin(comparison.attr), comparison.operator,
                       comparison.value)
            for comparison in plan.comparisons
        ]), db), child.mapping)
    if isinstance(child, Join):
        sides = []
        for side in child.children():
            held = db.heading_of(side)
            mine = [c for c in plan.comparisons if c.attr in held]
            if mine:
                side = _rewrite_restriction(Restrict(side, mine), db)
            sides.append(side)
        return Join(*sides)
    return plan


def _compose_renames(
    inner: Mapping[str, str], outer: Mapping[str, str]
) -> Dict[str, str]:
    """One rename equivalent to ``inner`` followed by ``outer``.

    This is the scope-map composition behind ``Sigma.fused_output``:
    ``a -> m`` then ``m -> z`` becomes ``a -> z``.
    """
    fused = {}
    inner_outputs = set(inner.values())
    for old, mid in inner.items():
        fused[old] = outer.get(mid, mid)
    for old, new in outer.items():
        # Outer renames of attributes inner left untouched pass through;
        # outer keys that are inner *outputs* were already chained above.
        if old not in inner_outputs and old not in inner:
            fused[old] = new
    return {old: new for old, new in fused.items() if old != new}


def _rewrite_project(plan: Project, db: Database) -> Plan:
    child = plan.child
    # Project o Project collapses to the outer attribute list.
    if isinstance(child, Project):
        return Project(child.child, plan.attrs)
    # Project o Rename: rename only what survives the projection.
    if isinstance(child, Rename):
        inner_attrs = tuple(child.origin(attr) for attr in plan.attrs)
        surviving = {
            old: new
            for old, new in child.mapping.items()
            if new in plan.attrs
        }
        inner = Project(child.child, inner_attrs)
        return Rename(inner, surviving) if surviving else inner
    return plan


def _rewrite_rename(plan: Rename, db: Database) -> Plan:
    if not plan.mapping:
        return plan.child
    child = plan.child
    # Rename o Rename fuses into one scope map (composition theorem).
    if isinstance(child, Rename):
        fused = _compose_renames(child.mapping, plan.mapping)
        return Rename(child.child, fused) if fused else child.child
    return plan


#: The rewrite rule of each node type that has one, as ``(node, db)``.
_RULES = {
    Restrict: _rewrite_restriction,
    Project: _rewrite_project,
    Rename: _rewrite_rename,
}

