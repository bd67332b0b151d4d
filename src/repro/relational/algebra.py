"""Relational algebra as XST kernel operations.

Every operator here is a thin skin over one kernel operation -- the
point of the 1977 programme is precisely that a data management layer
*is* extended set processing:

=============  ======================================================
operator       kernel realization
=============  ======================================================
``restrict``   a conjunction of ``Comparison`` values (an equality is
               the case where one value passes): the equalities, one
               value per attribute, make a one-record key and a Def 7.6
               restriction keeps the rows holding it; every other
               comparison is a Def 7.4 separation over the
               sigma-domain at its attribute (the carried member
               index's keys), all of an attribute's comparisons decided
               together once per value, then a Def 7.6 restriction by
               the values that pass (an operand with no index there:
               its column, decided in one C-level pass)
``select``     any other predicate has no set-algebraic key: separation
               over rows (the documented record-level fallback)
``project``    Def 7.4 sigma-domain with an attribute identity sigma
               (``sigma_domain`` is the specification): each row's
               pairs at the kept names, picked off its run and keys;
               equal picks collapse to the first
``rename``     Def 7.3 re-scope by scope on every row
               (``rescope_by_scope`` is the specification): each row's
               values, in run order, built as a record at their new
               names (``XSet._record``)
``join``       Def 10.1 relative product keyed on shared attributes
               (``relative_product_nested_loop`` is the specification):
               the larger operand's member index proposes, the shared
               values as one tuple decide, and each joined row is the
               left row's run merged with the right row's pairs at the
               names the left lacks
``product``    the same with the empty join key (everything matches
               everything)
``union`` etc  kernel Boolean algebra on the row sets
``group_by``   Def 7.1 image of every distinct key fragment at once:
               runs of the row set's per-scope member index
``aggregate``  ``group_by``, then a named function over each group's
               column values
``limit``      separation of the first rows in the kernel's total order
               (``canonical_key``) of one attribute
=============  ======================================================

All operators are set-at-a-time: one kernel operation over whole
relations, no per-row interpretation in Python beyond what the kernel
itself performs.  The record-at-a-time equivalents used as the
benchmark baseline live in :mod:`repro.relational.storage` and the
record mode of :mod:`repro.relational.query`.

A row is built by its heading.  Every member of a relation is a record
over its heading, a function from attribute names to values, so the
operators that make new rows make them from the operands' records:
a projection restricts the function to some names, a rename changes its
keys and not its values, a join adds the right record's unshared values
to the left record.  Each result row is a merge or a subsequence of
operand runs, beside their remembered keys, so nothing is re-scoped,
re-sorted from scratch or validated again.  Each equals its Def 7.4 /
7.3 / 10.1 specification spelling for spelling
(``tests/relational/test_row_building_oracle.py``), and the kernel
functions stay the API for operands that are no relation.

Grouping is image application: reading a relation as the process
``rel.as_process(group_attrs, rest)`` and applying it to each distinct
key fragment partitions the rows -- one Def 7.1 image per group.
Every key's image is there at once in the row set's member index (the
re-keying by scope of the paper's section 12 "dynamic restructuring"):
the rows holding each value at the first group attribute, in run
order, each such run split the same way by every further attribute.
So ``group_by`` reads the groups off that index in one pass, with no
projection and no restriction per key.  ``group_by`` / ``aggregate``
package that into the familiar API and keep the group *sets*
available, because under XST a group is a first-class extended set,
not a transient iterator state.

Aggregates are named functions over the group's column values:
``count``, ``sum``, ``avg``, ``min``, ``max``, plus ``set_of`` (the
distinct values as a classical :class:`XSet`, admissible in every row,
digest and shipment) for the set-flavoured reading.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, repeat
from operator import attrgetter, eq, ge, gt, itemgetter, le, lt, ne, not_
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import InvalidAtomError, SchemaError
from repro.gov.governor import active as _gov_active
from repro.obs.instrument import kernel_op
from repro.relational.relation import Relation, _positional, _run_dicts
from repro.relational.schema import Heading
from repro.xst.builders import xset
from repro.xst.ordering import canonical_key, pair_key
from repro.xst.relative_product import _CHECK_EVERY, _arrival_free
from repro.xst.restrict import restrict_records
from repro.xst.xset import (
    _ADMITTED_BY_TYPE, _FEW, Pair, XSet, _check_admissible, _holding, _merged,
)

__all__ = [
    "restrict",
    "select",
    "Comparison",
    "Param",
    "project",
    "rename",
    "join",
    "semijoin",
    "product",
    "union",
    "difference",
    "intersection",
    "group_by",
    "aggregate",
    "aggregate_heading",
    "AGGREGATES",
    "limit",
]


#: A row pair's element, and its scope (the attribute name).
_element_of = itemgetter(0)
_scope_of = itemgetter(1)

#: Distinct attribute tuples whose identity sigma is kept: a catalog's
#: keys, join keys and headings, with room for ad-hoc projections.
_IDENTITY_ENTRIES = 256


@lru_cache(maxsize=_IDENTITY_ENTRIES)
def _attribute_identity(attrs: Tuple[str, ...]) -> XSet:
    """The sigma mapping each attribute scope to itself, one value per
    attribute tuple, so the member indexes a restriction reads off it
    are built once, not once per call."""
    return XSet((attr, attr) for attr in attrs)


#: The comparison operators, each a C function of two values.
_OPERATORS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge,
}


class Param:
    """Parameter ``$index`` of a statement template: scope ``index`` of
    the one argument tuple an execution binds.

    It stands where a literal value would -- a ``Comparison``'s
    constant, a ``Limit`` count -- so a plan holding one is a
    template, well defined on a catalog's headings like any plan but
    not executable until :func:`repro.relational.sql.run` binds its
    arguments.  Its ``repr`` is its spelling, so a template's conditions
    and ``explain`` read like the statement that made them.
    """

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __eq__(self, other) -> bool:
        return type(other) is Param and other.index == self.index

    def __hash__(self) -> int:
        return hash((Param, self.index))

    def __repr__(self) -> str:
        return "$%d" % self.index


class Comparison:
    """One comparison condition, ``row[attr] <operator> value``, kept as
    its parts so the kernel can read it: what a plan's ``Restrict``
    holds, an equality ``Comparison(attr, "=", value)`` included.

    Values meet by Python ``==`` and the ordering operators: the typed
    twins (``1``/``1.0``/``True``) are equal.  ``value`` is admitted
    when the comparison is built, as a set's member is: a value no set
    can hold (``nan``, which equals nothing, or any value that is no
    atom) is an :class:`~repro.errors.InvalidAtomError`, so ``==`` here
    is the membership every executor's index decides.  A :class:`Param`
    is no value but stands in a template's comparison until its argument
    is bound.  Called on a row dict it decides that row, as the record
    executor and the columnar backend call it.  A value that does not
    compare with ``value`` (``'>'`` between an ``int`` and a ``str``) is
    refused with a :class:`~repro.errors.SchemaError` naming the
    attribute, the operator and the type held.
    """

    __slots__ = ("attr", "operator", "value", "_test")

    def __init__(self, attr: str, operator: str, value: Any):
        kind = type(value)
        if kind not in _ADMITTED_BY_TYPE or kind is float and value != value:
            if kind is not Param:  # a placeholder, not a value
                _check_admissible(value, "an element")
        self.attr, self.operator, self.value = attr, operator, value
        self._test = _OPERATORS[operator]

    def __call__(self, row: Dict[str, Any]) -> Any:
        try:
            held = row[self.attr]
        except KeyError:
            Heading(list(row)).require([self.attr])
            raise
        try:
            return self._test(held, self.value)
        except TypeError:
            raise self._refusal(held) from None

    def __repr__(self) -> str:
        return "%s %s %r" % (self.attr, self.operator, self.value)

    def _refusal(self, held: Any) -> SchemaError:
        return SchemaError(
            "%s %s %r: %r holds %s, which does not compare with %s" % (
                self.attr, self.operator, self.value, self.attr,
                type(held).__name__, type(self.value).__name__,
            )
        )


def restrict(rel: Relation, comparisons: Sequence[Comparison]) -> Relation:
    """The rows passing every comparison: Def 7.6 restrictions.

    The first equality at each attribute is one value of a one-record
    key, and one Def 7.6 restriction by that key keeps the rows holding
    it: a point read's whole work.  Every other comparison is a
    separation over the sigma-domain at its attribute (Def 7.4) among
    those rows, all of an attribute's decided together, so two ranges
    cost one pass: each distinct value of a carried member index is
    decided once, in C, and the runs of the values that pass are kept;
    an operand with no index there (a join's result) has its column
    decided in one C-level pass.  No row is read as a dict, and when
    every value passes the operand itself is the answer.

    The answer and any refusal are the record reading's: the
    equalities, then each other comparison in the order given, asked of
    each row in run order until one fails (:class:`Comparison`).
    """
    key: Dict[str, Any] = {}
    rest = []
    for comparison in comparisons:
        if comparison.operator == "=" and comparison.attr not in key:
            key[comparison.attr] = comparison.value
        else:
            rest.append(comparison)
    if key:
        rel.heading.require(key)
    if rest:
        rel.heading.require(map(attrgetter("attr"), rest))
    if key:
        rows = restrict_records(rel.rows, (key,))
        rel = Relation._from_valid(rel.heading, rows)  # a subset of rel
    if rest:
        try:
            return _separated(rel, rest)
        except TypeError:
            # A value does not compare: the record reading says whether
            # it asks a row holding one, and which row first.
            asked = sorted(rest, key=lambda c: c.operator != "=")
            return select(rel, lambda row: all(c(row) for c in asked))
    return rel


def _separated(rel: Relation, comparisons: List[Comparison]) -> Relation:
    """``rel``'s rows passing ``comparisons``, each attribute's decided
    together over all of ``rel``; ``TypeError`` if a value does not."""
    grouped: Dict[str, List[Comparison]] = {}
    for comparison in comparisons:
        grouped.setdefault(comparison.attr, []).append(comparison)
    rows = rel.rows
    gone = set()  # ids of the pairs some attribute drops
    for attr, group in grouped.items():
        # The member index at attr, if the operand already carries it.
        runs = (rows._by_part or {}).get(attr)
        held = runs if runs is not None else [
            element for row, _ in rows._pairs
            for element, at in row._pairs if at is attr or at == attr
        ]
        fails = list(map(not_, map(all, zip(*[
            map(comparison._test, held, repeat(comparison.value))
            for comparison in group
        ]))))
        gone.update(map(id, compress(rows._pairs, fails) if runs is None
                        else chain.from_iterable(compress(runs.values(),
                                                          fails))))
    if not gone:
        return rel
    held = list(map(gone.__contains__, map(id, rows._pairs)))
    kept = list(compress(rows._pairs, map(not_, held)))
    dropped = list(compress(rows._pairs, held))
    if len(dropped) <= len(kept):
        pair_set = rows._pair_set.difference(dropped)
    else:
        pair_set = frozenset(kept)
    few = rows._key is not None and len(dropped) * _FEW <= len(rows._pairs)
    # kept and dropped are rel's own pair objects, split between them.
    return Relation._from_valid(rel.heading, rows._keeping(
        pair_set,
        [(pair, pair_key(pair)) for pair in dropped] if few else None,
        kept,
    ))


def select(
    rel: Relation, predicate: Callable[[Dict[str, Any]], Any]
) -> Relation:
    """Rows satisfying an arbitrary predicate over row dicts.

    A predicate carries no extended-set key, so this is honest
    separation: the predicate sees each row as a dict.  It is the
    kernel's record-level separation and no plan node holds one.  Use
    :func:`restrict` whenever the condition is a conjunction of
    comparisons.
    """
    kept = [
        member
        for member, record in zip(rel.rows.pairs(), _run_dicts(rel.rows))
        if predicate(record)
    ]
    # Separation keeps a subsequence of the relation's own canonical run
    # (so also a subset of its validated rows).
    return Relation._from_valid(rel.heading, XSet._from_run(kept))


def project(rel: Relation, attrs: Sequence[str]) -> Relation:
    """The sigma-domain over the chosen attributes (duplicates collapse).

    Each row keeps its pairs at the chosen names: a subsequence of its
    own canonical run, beside the same subsequence of its keys.  The
    same names in the same order are the relation itself.
    """
    wanted = rel.heading.require(attrs)
    if wanted == rel.heading.names:
        return rel
    heading = rel.heading.project(wanted)
    # Built here from validated records over the result heading: each
    # row of rel cut down to its names.
    return Relation._from_valid(heading, _picked(rel.rows, wanted))


@kernel_op("domain")
def _picked(rows: XSet, wanted: Tuple[str, ...]) -> XSet:
    """``sigma_domain(rows, _attribute_identity(wanted))`` over record
    rows: each row's pairs at ``wanted``, picked off its run and its
    keys.  Equal picks collapse to the first in run order."""
    if not wanted:
        return XSet()
    kept = frozenset(wanted).__contains__
    records = []
    for row, _ in rows._pairs:
        mask = list(map(kept, map(_scope_of, row._pairs)))
        records.append(XSet._from_run(
            tuple(compress(row._pairs, mask)), None,
            tuple(compress(canonical_key(row)[2], mask)),
        ))
    return XSet._of_records(records)


def rename(rel: Relation, mapping: Mapping[str, str]) -> Relation:
    """Re-scope every row through an old-name -> new-name sigma.

    A row keeps its values and changes its keys: it is built again as
    the record of its values, in its own run order, at their new names.
    Renaming nothing is the relation itself.
    """
    rel.heading.require(mapping)
    heading = rel.heading.rename(dict(mapping))
    if heading.names == rel.heading.names:
        return rel
    new_name = dict(zip(rel.heading.names, heading.names))
    new_key = dict(zip(rel.heading.names, heading._scope_keys()))
    records = []
    for row, _ in rel.rows._pairs:
        names = tuple(map(_scope_of, row._pairs))
        records.append(XSet._record(
            tuple(map(_element_of, row._pairs)),
            tuple(map(new_name.__getitem__, names)),
            tuple(map(new_key.__getitem__, names)),
        ))
    # Records built over the result heading from rel's validated rows.
    return Relation._of_built(heading, records)


def join(rel: Relation, other: Relation) -> Relation:
    """Natural join: the Def 10.1 relative product on shared attributes.

    The larger operand's member index at the first shared attribute
    proposes candidates and the shared values decide.  A joined row is
    the left row merged with the right row's pairs at the attributes the
    left lacks, so a shared value keeps the left row's spelling.  Joins
    with no shared attribute degrade to :func:`product`.
    """
    heading = rel.heading.union(other.heading)
    # Built here from validated records over the result heading: a row
    # of rel merged with a row of other at the names rel lacks.
    return Relation._from_valid(heading, _joined_rows(
        rel.rows, other.rows, rel.heading.common(other.heading),
        heading._name_set - rel.heading._name_set,
    ))


def semijoin(rel: Relation, other: Relation) -> Relation:
    """Rows of ``rel`` with at least one join partner in ``other``.

    Realized as a Def 7.6 restriction of ``rel`` by ``other``'s rows
    under the shared-attribute sigma, each a key of its values at the
    shared attributes -- restriction *is* semijoin.
    """
    shared = rel.heading.common(other.heading)
    if not shared:
        raise SchemaError("semijoin needs at least one shared attribute")
    rows = restrict_records(rel.rows, [
        dict(zip(shared, values)) for values in _distinct_at(other.rows, shared)
    ])
    return Relation._from_valid(rel.heading, rows)  # a subset of rel


def _distinct_at(rows: XSet, attrs: Tuple[str, ...]) -> Dict[Tuple, None]:
    """The distinct tuples of values the record ``rows`` hold at
    ``attrs``, as the keys of a dict: one attribute's read off the
    member index there, so a stored relation's are read once."""
    if len(attrs) == 1:
        return dict.fromkeys(zip(rows._members_holding(attrs[0])))
    return dict.fromkeys(_positional(attrs, _run_dicts(rows)))


def product(rel: Relation, other: Relation) -> Relation:
    """Cartesian product of relations with disjoint headings: the join
    with the empty key (everything matches everything)."""
    if not rel.heading.disjoint_from(other.heading):
        raise SchemaError(
            "product requires disjoint headings; shared: %s"
            % list(rel.heading.common(other.heading))
        )
    return join(rel, other)


def _values_at(row: XSet, names: Tuple[str, ...]) -> Tuple:
    """``row``'s values at ``names``, in that order.  As one tuple they
    compare value by value, ``is`` or ``==``, as the frozensets of key
    pairs Def 10.1 compares do: twins match."""
    if not names:
        return ()
    return tuple(map(dict(map(reversed, row._pairs)).__getitem__, names))


def _part(row: XSet, names: frozenset) -> Tuple[List, frozenset]:
    """``row``'s pairs at ``names``, each beside its key, in run order,
    and the same pairs as a set."""
    mask = list(map(names.__contains__, map(_scope_of, row._pairs)))
    return (
        list(compress(zip(row._pairs, canonical_key(row)[2]), mask)),
        frozenset(compress(row._pairs, mask)),
    )


def _joined(row: XSet, part: Tuple[List, frozenset]) -> XSet:
    """``row`` merged with ``part``, another row's pairs at names it
    lacks: ``row.union(other row)``, made from the runs and keys."""
    extra, pair_set = part
    keys = canonical_key(row)[2]  # remembered on row, as _of_records needs
    if not extra:
        return row
    ordered, keys = _merged(row._pairs, keys, extra)
    return XSet._from_run(ordered, row._pair_set | pair_set, keys)


@kernel_op("relative_product")
def _joined_rows(
    f: XSet, g: XSet, shared: Tuple[str, ...], extra: frozenset
) -> XSet:
    """The relative product of two relations' rows keyed on ``shared``,
    keeping every attribute: each ``F`` row merged with the pairs at
    ``extra`` of each ``G`` row holding the same ``shared`` values.

    ``relative_product`` with identity sigmas is the specification, and
    this is its probe: the larger operand's member index proposes (``G``
    on a tie; with no key ``F`` probes all of ``G``), a run of candidates
    is read once per call, and output arriving ``G``-major is sorted
    ``F``-major, the nested loop's order, when that order could change
    the result's spelling or order.
    """
    if not f or not g:
        return XSet()
    from_g = bool(shared) and len(f) > len(g)
    indexed, probing = (f, g) if from_g else (g, f)
    runs = indexed._members_holding(shared[0]) if shared else None
    # id(run) -> [(pair, its shared values, its part when it is G's)].
    met: Dict[int, List] = {}
    gov = _gov_active()
    charged = 0
    records: List[XSet] = []
    lefts: List[Pair] = []
    for row, _ in probing._pairs:
        key = _values_at(row, shared)
        run = runs.get(key[0], ()) if shared else indexed._pairs
        if not run:
            continue
        entries = met.get(id(run))
        if entries is None:
            entries = met[id(run)] = [
                (
                    pair, _values_at(pair[0], shared),
                    None if from_g else _part(pair[0], extra),
                )
                for pair in run
            ]
        part = None
        for pair, candidate_key, candidate_part in entries:
            if candidate_key != key:
                continue
            if from_g:  # the candidate is F's row
                if part is None:
                    part = _part(row, extra)
                records.append(_joined(pair[0], part))
                lefts.append(pair)
            else:
                records.append(_joined(row, candidate_part))
            if gov is not None and not (len(records) & (_CHECK_EVERY - 1)):
                gov.checkpoint("xst.relative_product", len(records) - charged)
                charged = len(records)
    if gov is not None:
        gov.checkpoint("xst.relative_product", len(records) - charged)
    result = XSet._of_records(records)
    if from_g and not _arrival_free(result, len(records)):
        at = dict(zip(map(id, f._pairs), range(len(f))))
        order = sorted(range(len(records)), key=lambda i: at[id(lefts[i])])
        result = XSet._of_records([records[i] for i in order])
    return result


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


# ----------------------------------------------------------------------
# Grouping and aggregation
# ----------------------------------------------------------------------


def _count(values: List[Any]) -> int:
    return len(values)


def _sum(values: List[Any]) -> Any:
    return sum(values)


def _avg(values: List[Any]) -> float:
    if not values:
        raise SchemaError("avg over an empty group")
    return sum(values) / len(values)


# min and max fold by the kernel's total order, not Python's ``<``:
# defined for every admitted value (``None``, typed twins, mixed
# types) and equal to ``<`` on numbers and on strings.

def _min(values: List[Any]) -> Any:
    if not values:
        raise SchemaError("min over an empty group")
    return min(values, key=canonical_key)


def _max(values: List[Any]) -> Any:
    if not values:
        raise SchemaError("max over an empty group")
    return max(values, key=canonical_key)


#: Registered aggregate functions, by the name used in specs.
AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "count": _count,
    "sum": _sum,
    "avg": _avg,
    "min": _min,
    "max": _max,
    "set_of": xset,  # the paper's own set value: a classical XSet
}


def group_by(
    rel: Relation, attrs: Sequence[str]
) -> List[Tuple[Dict[str, Any], Relation]]:
    """Partition a relation by the given attributes.

    Returns ``(key_dict, group_relation)`` pairs in the canonical order
    of the groups' key fragments (Def 7.4's projection of a row onto
    ``attrs``), each key spelled as the group's first row spells it.
    Every group is the Def 7.1 image of its key fragment, and all of
    them come at once off the row set's member index: the rows holding
    each value at the first attribute, in run order, each such run split
    the same way by every further attribute.  No attributes make the
    whole relation one group (none when it is empty); an unknown or a
    repeated attribute is a :class:`~repro.errors.SchemaError`.
    """
    names = rel.heading.project(attrs).names
    run = rel.rows.pairs()
    if not names or not run:
        return [({}, rel)] if run else []
    first, *rest = names
    groups = list(rel.rows._members_holding(first).values())
    for attr in rest:
        groups = [
            part for block in groups for part in _holding(block, attr).values()
        ]
    # Sorted on the key fragments' canonical keys, which differ group
    # to group: the order the projection's checked constructor gives.
    keyed = []
    for group in groups:
        # A subsequence of the first row's canonical run.
        fragment = XSet._from_run(
            pair for pair in group[0][0].pairs() if pair[1] in names
        )
        keyed.append((fragment, group))
    keyed.sort(key=lambda item: canonical_key(item[0]))
    return [
        (
            {attr: value for value, attr in fragment.pairs()},
            # A run of rel's own rows, in its order: a subset of rel.
            Relation._from_valid(rel.heading, XSet._from_run(group)),
        )
        for fragment, group in keyed
    ]


def aggregate_heading(
    heading: Heading,
    group_attrs: Sequence[str],
    aggregations: Mapping[str, Tuple[str, str]],
) -> Heading:
    """The heading :func:`aggregate` produces over ``heading``.

    The one well-definedness rule of an aggregation, shared by the
    kernel and by the ``Aggregate`` plan node's static check: group
    attributes and every source exist, every function is registered,
    no output takes a group key's name; group keys come first.
    """
    heading.require(group_attrs)
    for out_name, (fn_name, source) in aggregations.items():
        if fn_name not in AGGREGATES:
            raise SchemaError(
                "unknown aggregate %r (have: %s)"
                % (fn_name, ", ".join(sorted(AGGREGATES)))
            )
        heading.require([source])
        if out_name in group_attrs:
            raise SchemaError(
                "aggregate output %r collides with a group key" % (out_name,)
            )
    return Heading(tuple(group_attrs) + tuple(aggregations))


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
    ``sum`` / ``avg`` over values that do not add raise
    :class:`~repro.errors.SchemaError` naming the source attribute; one
    whose value would be ``nan`` (``inf`` added to ``-inf``), which no
    set can hold, raises :class:`~repro.errors.InvalidAtomError`.
    """
    out_heading = aggregate_heading(rel.heading, group_attrs, aggregations)
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
            try:
                value = row[out_name] = AGGREGATES[fn_name](columns[source])
            except TypeError:
                held_types = {type(v).__name__ for v in columns[source]}
                raise SchemaError(
                    "%s(%s) needs numbers; %r holds %s"
                    % (fn_name, source, source, ", ".join(sorted(held_types)))
                ) from None
            if type(value) is float and value != value:
                raise InvalidAtomError(
                    "%s(%s) would be nan, which no set can hold" % (
                        fn_name, source)
                )
        out_rows.append(row)
    return Relation.from_dicts(out_heading, out_rows)


def _require_count(count: int) -> None:
    """The one well-formedness rule of a limit's count, shared by the
    kernel and by the ``Limit`` plan node: no negative count."""
    if count < 0:
        raise SchemaError("Limit needs a non-negative count, not %r" % (count,))


def limit(
    rel: Relation,
    count: int,
    order_by: Optional[str] = None,
    descending: bool = False,
) -> Relation:
    """The first ``count`` rows in the order of attribute ``order_by``.

    The order is the kernel's own (``canonical_key``: total over every
    admitted value), canonical row order when ``order_by`` is ``None``
    and between rows whose keys are equal -- in either direction.  A
    subset of ``rel``, so still a relation: ORDER BY decides *which*
    rows are kept, never how the answer is laid out.
    """
    _require_count(count)
    if order_by is not None:
        rel.heading.require([order_by])
    members = rel.rows.pairs()
    if count >= len(members):
        return rel
    kept = range(len(members))
    if order_by is not None:
        keys = [
            canonical_key(row._scopes_index()[order_by][0])
            for row, _ in members
        ]
        kept = sorted(kept, key=keys.__getitem__, reverse=descending)
    # Back in canonical order: a subsequence of the relation's own run
    # (so also a subset of its validated rows).
    kept = sorted(kept[:count])
    return Relation._from_valid(
        rel.heading, XSet._from_run([members[index] for index in kept])
    )
