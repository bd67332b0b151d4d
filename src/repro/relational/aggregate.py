"""Grouping and aggregation over XST relations.

Grouping is image application: reading a relation as the process
``rel.as_process(group_attrs, rest)`` and applying it to each distinct
key fragment partitions the rows -- one Def 7.1 image per group.  This
module packages that into the familiar ``group_by`` / aggregate API
and keeps the group *sets* available, because under XST a group is a
first-class extended set, not a transient iterator state.

Aggregates are named functions over the group's column values:
``count``, ``sum``, ``avg``, ``min``, ``max``, plus ``set_of`` (the
distinct values as a frozenset) for the set-flavoured reading.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.algebra import project
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.builders import xset
from repro.xst.restrict import sigma_restrict
from repro.xst.xset import XSet

__all__ = ["group_by", "aggregate", "AGGREGATES"]


def _count(values: List[Any]) -> int:
    return len(values)


def _sum(values: List[Any]) -> Any:
    return sum(values)


def _avg(values: List[Any]) -> float:
    if not values:
        raise SchemaError("avg over an empty group")
    return sum(values) / len(values)


def _min(values: List[Any]) -> Any:
    if not values:
        raise SchemaError("min over an empty group")
    return min(values)


def _max(values: List[Any]) -> Any:
    if not values:
        raise SchemaError("max over an empty group")
    return max(values)


def _set_of(values: List[Any]) -> frozenset:
    return frozenset(values)


#: Registered aggregate functions, by the name used in specs.
AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "count": _count,
    "sum": _sum,
    "avg": _avg,
    "min": _min,
    "max": _max,
    "set_of": _set_of,
}


def group_by(
    rel: Relation, attrs: Sequence[str]
) -> List[Tuple[Dict[str, Any], Relation]]:
    """Partition a relation by the given attributes.

    Returns ``(key_dict, group_relation)`` pairs in canonical key
    order.  Each group is computed by one sigma-restriction of the row
    set with the key fragment -- grouping *is* restriction.
    """
    # The distinct keys are the projection onto the grouping attributes.
    keys = project(rel, attrs)
    key_sigma = XSet((attr, attr) for attr in keys.heading.names)
    groups = []
    for key_dict, (key_fragment, _) in zip(keys.iter_dicts(), keys.rows.pairs()):
        members = sigma_restrict(rel.rows, xset([key_fragment]), key_sigma)
        # A restriction of rel's rows: a subset of rel.
        groups.append((key_dict, Relation._from_valid(rel.heading, members)))
    return groups


def aggregate(
    rel: Relation,
    group_attrs: Sequence[str],
    aggregations: Mapping[str, Tuple[str, str]],
) -> Relation:
    """Grouped aggregation producing a new relation.

    ``aggregations`` maps output attribute names to ``(function_name,
    source_attribute)`` pairs, e.g.::

        aggregate(emp, ["dept"],
                  {"headcount": ("count", "emp"),
                   "payroll":   ("sum", "salary")})

    For ``count`` the source attribute only needs to exist.  Group
    keys become attributes of the result alongside the aggregates.
    """
    for out_name, (fn_name, source) in aggregations.items():
        if fn_name not in AGGREGATES:
            raise SchemaError(
                "unknown aggregate %r (have: %s)"
                % (fn_name, ", ".join(sorted(AGGREGATES)))
            )
        rel.heading.require([source])
        if out_name in group_attrs:
            raise SchemaError(
                "aggregate output %r collides with a group key" % (out_name,)
            )
    out_heading = Heading(tuple(group_attrs) + tuple(aggregations))
    if group_attrs:
        groups = group_by(rel, group_attrs)
    else:
        # No grouping attributes: the whole relation is one group (the
        # SQL reading of an ungrouped aggregate query).
        groups = [({}, rel)]
    sources = {source for _, source in aggregations.values()}
    out_rows = []
    for key_dict, group in groups:
        # One pass over the group: each source column read once from the
        # rows' scope indexes (one element at each attribute, as validated).
        held = [row._scopes_index() for row, _ in group.rows.pairs()]
        columns = {
            source: [index[source][0] for index in held] for source in sources
        }
        row = dict(key_dict)
        for out_name, (fn_name, source) in aggregations.items():
            row[out_name] = AGGREGATES[fn_name](columns[source])
        out_rows.append(row)
    return Relation.from_dicts(out_heading, out_rows)
