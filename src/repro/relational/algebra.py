"""Relational algebra as direct XST kernel calls.

Every operator here is a thin skin over one kernel operation -- the
point of the 1977 programme is precisely that a data management layer
*is* extended set processing:

=============  ======================================================
operator       kernel realization
=============  ======================================================
``select_eq``  Def 7.6 sigma-restriction by a key-fragment set
``select``     separation over rows (general predicates have no
               set-algebraic key; documented record-level fallback)
``project``    Def 7.4 sigma-domain with an attribute identity sigma
``rename``     Def 7.3 re-scope by scope on every row
``join``       Def 10.1 relative product keyed on shared attributes
``product``    relative product with the empty join key (everything
               matches everything)
``union`` etc  kernel Boolean algebra on the row sets
=============  ======================================================

All operators are set-at-a-time: one kernel call over whole relations,
no per-row interpretation in Python beyond what the kernel itself
performs.  The record-at-a-time equivalents used as the benchmark
baseline live in :mod:`repro.relational.storage` and the record mode
of :mod:`repro.relational.query`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.xst.builders import xrecord, xset
from repro.xst.domain import sigma_domain
from repro.xst.relative_product import relative_product
from repro.xst.rescope import rescope_by_scope
from repro.xst.restrict import sigma_restrict
from repro.xst.xset import XSet

__all__ = [
    "select_eq",
    "select",
    "project",
    "rename",
    "join",
    "semijoin",
    "product",
    "union",
    "difference",
    "intersection",
]


def _attribute_identity(attrs: Sequence[str]) -> XSet:
    """The sigma mapping each attribute scope to itself."""
    return XSet((attr, attr) for attr in attrs)


def select_eq(rel: Relation, conditions: Mapping[str, Any]) -> Relation:
    """Rows whose attributes equal the given values, via restriction.

    The conditions become a one-record key set and a Def 7.6
    restriction does the filtering -- the *set-processing* selection.
    """
    attrs = rel.heading.require(conditions)
    key = xset([xrecord({attr: conditions[attr] for attr in attrs})])
    rows = sigma_restrict(rel.rows, key, _attribute_identity(attrs))
    return Relation._from_valid(rel.heading, rows)  # a subset of rel


def select(rel: Relation, predicate: Callable[[Dict[str, Any]], bool]) -> Relation:
    """Rows satisfying an arbitrary Python predicate.

    General predicates carry no extended-set key, so this is honest
    separation: the predicate sees each row as a dict.  Use
    :func:`select_eq` whenever the condition is an equality -- the
    optimizer rewrites eligible selects into restrictions.
    """
    kept = [
        member
        for member, record in zip(rel.rows.pairs(), rel.iter_dicts())
        if predicate(record)
    ]
    # Separation keeps a subsequence of the relation's own canonical run
    # (so also a subset of its validated rows).
    return Relation._from_valid(rel.heading, XSet._from_run(kept))


#: The plan executor's name for :func:`select`: plan nodes spell each
#: kernel once, as ``ColumnarRelation`` does (``Plan.apply``).
select_pred = select


def project(rel: Relation, attrs: Sequence[str]) -> Relation:
    """The sigma-domain over the chosen attributes (duplicates collapse)."""
    wanted = rel.heading.require(attrs)
    rows = sigma_domain(rel.rows, _attribute_identity(wanted))
    return Relation(rel.heading.project(wanted), rows)


def rename(rel: Relation, mapping: Mapping[str, str]) -> Relation:
    """Re-scope every row through an old-name -> new-name sigma."""
    rel.heading.require(mapping)
    new_heading = rel.heading.rename(dict(mapping))
    sigma = XSet(
        (name, mapping.get(name, name)) for name in rel.heading.names
    )
    rows = XSet(
        (rescope_by_scope(row, sigma), scope) for row, scope in rel.rows.pairs()
    )
    return Relation(new_heading, rows)


def join(rel: Relation, other: Relation) -> Relation:
    """Natural join: one Def 10.1 relative product on shared attributes.

    sigma2/omega1 extract the shared attributes as the join key;
    sigma1/omega2 keep each side whole, and the member-level union
    merges matching rows (shared values coincide by construction).
    Joins with no shared attribute degrade to :func:`product`.
    """
    shared = rel.heading.common(other.heading)
    key_sigma = _attribute_identity(shared)
    sigma = (_attribute_identity(rel.heading.names), key_sigma)
    omega = (key_sigma, _attribute_identity(other.heading.names))
    rows = relative_product(rel.rows, other.rows, sigma, omega)
    return Relation(rel.heading.union(other.heading), rows)


def semijoin(rel: Relation, other: Relation) -> Relation:
    """Rows of ``rel`` with at least one join partner in ``other``.

    Realized as a Def 7.6 restriction of ``rel`` by ``other``'s rows
    under the shared-attribute sigma -- restriction *is* semijoin.
    """
    shared = rel.heading.common(other.heading)
    if not shared:
        raise SchemaError("semijoin needs at least one shared attribute")
    rows = sigma_restrict(rel.rows, other.rows, _attribute_identity(shared))
    return Relation._from_valid(rel.heading, rows)  # a subset of rel


def product(rel: Relation, other: Relation) -> Relation:
    """Cartesian product of relations with disjoint headings."""
    if not rel.heading.disjoint_from(other.heading):
        raise SchemaError(
            "product requires disjoint headings; shared: %s"
            % list(rel.heading.common(other.heading))
        )
    empty_key = XSet()
    sigma = (_attribute_identity(rel.heading.names), empty_key)
    omega = (empty_key, _attribute_identity(other.heading.names))
    rows = relative_product(rel.rows, other.rows, sigma, omega)
    return Relation(rel.heading.union(other.heading), rows)


def _require_same_heading(rel: Relation, other: Relation) -> None:
    if rel.heading != other.heading:
        raise SchemaError(
            "headings differ: %r vs %r" % (rel.heading, other.heading)
        )


# The Boolean operators keep their inputs' heading and only rows that
# one of them holds, so their results take the trusted constructor: a
# union of, or a subset of, same-heading validated relations.

def union(rel: Relation, other: Relation) -> Relation:
    _require_same_heading(rel, other)
    return Relation._from_valid(rel.heading, rel.rows | other.rows)


def difference(rel: Relation, other: Relation) -> Relation:
    _require_same_heading(rel, other)
    return Relation._from_valid(rel.heading, rel.rows - other.rows)


def intersection(rel: Relation, other: Relation) -> Relation:
    _require_same_heading(rel, other)
    return Relation._from_valid(rel.heading, rel.rows & other.rows)
