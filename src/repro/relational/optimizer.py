"""Plan optimization via the composition theorem.

Section 12 argues that because compositions of processes are always
constructible (Theorem 11.2), data management behavior can be
*optimized*: intermediate operations that only relay results can be
eliminated before anything executes.  This optimizer applies that idea
to query plans with four rewrite families:

1. **Unary fusion** -- adjacent Project/Rename stages are one
   re-scoping process each, so their composition is a single stage
   whose sigma is the fused scope map (``Sigma.fused_output``); chains
   collapse to one node and intermediate materializations disappear.
2. **Selection pushdown** -- SelectEq commutes below Project/Rename
   (with attribute names mapped through) and into the matching side
   of a Join, shrinking relative-product inputs.
3. **Adjacent select merging** -- stacked SelectEq nodes merge into
   one restriction key.
4. **Join input ordering** -- the smaller estimated side becomes the
   build side of the hash-join relative product.

When the database carries a populated statistics catalog
(:attr:`Database.stats`, see :mod:`repro.relational.stats`), a fifth
stage runs after the fixed point: cost-based join-order enumeration
from :mod:`repro.relational.cost` replaces the single build-side swap
with a dynamic-programming search over the whole join lattice.  With
no (fresh) statistics the stage is skipped entirely and the output is
byte-identical to the heuristic pipeline.

Rewrites preserve results exactly (asserted in the tests: optimized
and unoptimized plans agree on every generated workload).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.obs import metrics as _metrics
from repro.obs.instrument import enabled as _obs_enabled
from repro.relational.query import (
    Aggregate,
    Database,
    Difference,
    Join,
    Limit,
    Plan,
    Project,
    Rename,
    Scan,
    SelectEq,
    SelectPred,
    Union,
)

__all__ = ["optimize", "estimate_rows"]


def optimize(plan: Plan, db: Database) -> Plan:
    """Apply the rewrite families bottom-up until a fixed point.

    The plan must be well defined on ``db``'s headings
    (:meth:`Database.heading_of` raises ``SchemaError`` otherwise):
    a rewrite may erase an ill-formed node, and the optimized and the
    unoptimized plan have to agree on refusing it.
    """
    db.heading_of(plan)
    # A rule that fires shrinks the tree or moves a node down it, and a
    # pass in which none fires returns the very object it was given
    # (``with_children`` allocates nothing over unchanged inputs).
    while True:
        _gov_checkpoint("optimizer.pass")
        rewritten = _rewrite(plan, db)
        if rewritten is plan:
            return _maybe_cost_reorder(plan, db)
        plan = rewritten


def _maybe_cost_reorder(plan: Plan, db: Database) -> Plan:
    """Cost-based join ordering, applied only when statistics exist.

    The guard is deliberately strict: an empty or entirely-stale
    catalog leaves the heuristic plan untouched (byte-identical), so
    databases that never ran ANALYZE behave exactly as before.
    """
    catalog = getattr(db, "stats", None)
    if catalog is None or not catalog.names():
        _record_plan_mode("heuristic")
        return plan
    # Imported lazily: cost imports this module's sibling query types
    # and would otherwise create an import cycle at load time.
    from repro.relational.cost import CardinalityEstimator, reorder_joins

    estimator = CardinalityEstimator(db)
    if not estimator.has_stats(plan):
        _record_plan_mode("heuristic")
        return plan
    reordered = reorder_joins(plan, db, estimator)
    _record_plan_mode("cost")
    return reordered


def _record_plan_mode(mode: str) -> None:
    if _obs_enabled():
        _metrics.registry().counter(
            "repro_opt_plans_total",
            "Optimized plans by planning mode.", ("mode",),
        ).inc(mode=mode)


def estimate_rows(plan: Plan, db: Database) -> int:
    """Cheap cardinality estimate used for join ordering.

    Base relations report their true size; equality selections assume
    one-in-ten selectivity; joins assume the smaller input bounds the
    result; a grouping keeps one row in ten.  Precision is unimportant
    -- only the relative order of join inputs is consumed.
    """
    rule = _ESTIMATES.get(type(plan))
    if rule is None:
        raise TypeError("unknown plan node %r" % (plan,))
    return rule(plan, db)


_ESTIMATES = {
    Scan: lambda plan, db: db.relation(plan.name).cardinality(),
    SelectEq: lambda plan, db: max(1, estimate_rows(plan.child, db) // 10),
    SelectPred: lambda plan, db: max(1, estimate_rows(plan.child, db) // 3),
    Project: lambda plan, db: estimate_rows(plan.child, db),
    Rename: lambda plan, db: estimate_rows(plan.child, db),
    Join: lambda plan, db: max(
        estimate_rows(plan.left, db), estimate_rows(plan.right, db)
    ),
    Union: lambda plan, db: (
        estimate_rows(plan.left, db) + estimate_rows(plan.right, db)
    ),
    Difference: lambda plan, db: estimate_rows(plan.left, db),
    # One group in ten input rows; a single row when nothing groups.
    Aggregate: lambda plan, db: (
        max(1, estimate_rows(plan.child, db) // 10) if plan.group_attrs else 1
    ),
    Limit: lambda plan, db: min(plan.count, estimate_rows(plan.child, db)),
}


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


def _rewrite_join(plan: Join, db: Database) -> Plan:
    # Build on the smaller estimated input: relative_product buckets
    # its second operand, so put the smaller side on the right.
    # Natural join is symmetric up to attribute order (headings merge
    # by name), so swapping operands is always result-preserving.
    if estimate_rows(plan.right, db) > estimate_rows(plan.left, db):
        return Join(plan.right, plan.left)
    return plan


#: The rewrite rule of each node type that has one, as ``(node, db)``.
_RULES = {
    SelectEq: _rewrite_select,
    SelectPred: _rewrite_select_pred,
    Project: _rewrite_project,
    Rename: _rewrite_rename,
    Join: _rewrite_join,
}

