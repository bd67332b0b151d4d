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
2. **Selection pushdown** -- SelectEq commutes below Project/Rename
   (with attribute names mapped through) and into the matching side
   of a Join, shrinking relative-product inputs.
3. **Adjacent select merging** -- stacked SelectEq nodes merge into
   one restriction key.
4. **Join ordering** -- after the rewrite fixed point, every maximal
   join region is re-associated and its build sides chosen by one
   cost-ordered search (:func:`repro.relational.cost.reorder_joins`)
   over one cardinality table
   (:class:`repro.relational.cost.CardinalityEstimator`).  The search
   runs on every catalog: ``ANALYZE`` statistics
   (:attr:`Database.stats`) and feedback corrections refine the
   numbers it compares; where there are none it compares live
   cardinalities and the fallback selectivities.

Rewrites preserve results exactly (asserted in the tests: optimized
and unoptimized plans agree on every generated workload, in every
catalog state).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.obs import metrics as _metrics
from repro.obs.instrument import enabled as _obs_enabled
from repro.relational.cost import CardinalityEstimator, reorder_joins
from repro.relational.query import (
    Database,
    Join,
    Plan,
    Project,
    Rename,
    SelectEq,
    SelectPred,
)

__all__ = ["optimize"]


def optimize(plan: Plan, db: Database) -> Plan:
    """The rewrite fixed point, then one cost-ordered join search.

    The plan must be well defined on ``db``'s headings
    (:meth:`Database.heading_of` raises ``SchemaError`` otherwise):
    a rewrite may erase an ill-formed node, and the optimized and the
    unoptimized plan have to agree on refusing it.  Statistics change
    the estimates the search compares, never whether it runs; a plan
    holding no ``Join`` has nothing to order and builds no estimator.
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
    estimator = CardinalityEstimator(db)
    if _obs_enabled():
        _metrics.registry().counter(
            "repro_opt_plans_total",
            "Join-ordered plans by whether a fresh statistic stood "
            "under them.", ("mode",),
        ).inc(mode="cost" if estimator.has_stats(plan) else "heuristic")
    return reorder_joins(plan, db, estimator)


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


def _rewrite_select(plan: SelectEq, db: Database) -> Plan:
    child = plan.child
    # Merge stacked equality selections into one restriction key.
    if isinstance(child, SelectEq):
        merged = dict(child.conditions)
        for attr, value in plan.conditions.items():
            if attr in merged and merged[attr] != value:
                # Contradictory conditions: keep both nodes; the
                # restriction will produce the (empty) answer anyway.
                return plan
            merged[attr] = value
        return _rewrite_select(SelectEq(child.child, merged), db)
    # Push below a projection when the projection keeps the attributes.
    if isinstance(child, Project) and all(
        attr in child.attrs for attr in plan.conditions
    ):
        return Project(
            _rewrite_select(SelectEq(child.child, plan.conditions), db),
            child.attrs,
        )
    # Push below a rename by translating attribute names back.
    if isinstance(child, Rename):
        translated = {
            child.origin(attr): value
            for attr, value in plan.conditions.items()
        }
        return Rename(
            _rewrite_select(SelectEq(child.child, translated), db),
            child.mapping,
        )
    # Push into every join side that owns condition attributes.  An
    # attribute appearing in *both* headings filters both inputs: the
    # natural join equates shared attributes, so the condition holds on
    # each side independently and both relative-product inputs shrink.
    if isinstance(child, Join):
        left_names = set(db.heading_of(child.left).names)
        right_names = set(db.heading_of(child.right).names)
        attrs = set(plan.conditions)
        if attrs <= left_names | right_names:
            left_conditions = {
                attr: value
                for attr, value in plan.conditions.items()
                if attr in left_names
            }
            right_conditions = {
                attr: value
                for attr, value in plan.conditions.items()
                if attr in right_names
            }
            new_left = child.left
            if left_conditions:
                new_left = _rewrite_select(
                    SelectEq(child.left, left_conditions), db
                )
            new_right = child.right
            if right_conditions:
                new_right = _rewrite_select(
                    SelectEq(child.right, right_conditions), db
                )
            return Join(new_left, new_right)
    return plan


def _rewrite_select_pred(plan: SelectPred, db: Database) -> Plan:
    """Push an opaque-predicate selection below re-scoping stages.

    The predicate sees exactly the row it would have seen above the
    stage: below a Project the full row is narrowed back to the
    projected attributes before the original predicate runs, and below
    a Rename the pre-rename row is translated through the scope map.
    Either way the predicate itself is never inspected -- only the row
    it is handed changes shape -- so the rewrite is safe for arbitrary
    Python callables.
    """
    child = plan.child
    if isinstance(child, Project):
        attrs = child.attrs
        predicate = plan.predicate

        def narrowed(row, _predicate=predicate, _attrs=attrs):
            return _predicate({name: row[name] for name in _attrs})

        # The wrapper changed which row shape the predicate sees, so
        # the cache key must say so -- otherwise a directly-built
        # predicate with the same key below this Project would alias.
        cache_key = plan.cache_key
        if cache_key is not None:
            cache_key = "narrow{%s}:%s" % (",".join(attrs), cache_key)
        return Project(
            _rewrite_select_pred(
                SelectPred(
                    child.child, narrowed, plan.label, cache_key=cache_key
                ),
                db,
            ),
            child.attrs,
        )
    if isinstance(child, Rename):
        mapping = child.mapping
        predicate = plan.predicate

        def translated(row, _predicate=predicate, _mapping=mapping):
            return _predicate(
                {_mapping.get(name, name): value for name, value in row.items()}
            )

        cache_key = plan.cache_key
        if cache_key is not None:
            cache_key = "viarename{%s}:%s" % (
                ",".join(
                    "%s->%s" % item for item in sorted(mapping.items())
                ),
                cache_key,
            )
        return Rename(
            _rewrite_select_pred(
                SelectPred(
                    child.child, translated, plan.label, cache_key=cache_key
                ),
                db,
            ),
            child.mapping,
        )
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
    SelectEq: _rewrite_select,
    SelectPred: _rewrite_select_pred,
    Project: _rewrite_project,
    Rename: _rewrite_rename,
}

