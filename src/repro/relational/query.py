"""Query plans with set-at-a-time and record-at-a-time executors.

A plan is a small algebraic AST over named base relations.  One plan,
two execution disciplines:

* **set mode** (:meth:`Database.execute`) -- each node is one XST
  kernel call over whole relations, via
  :mod:`repro.relational.algebra`.  This is Extended Set Processing.
* **record mode** (:meth:`Database.execute_records`) -- the classical
  record-processing discipline the paper's reference [4] compares
  against: Python iterators pull one row dict at a time through the
  plan, selections test rows individually, and joins run as nested
  loops over the probe side.

Both executors produce the same :class:`~repro.relational.relation.
Relation` for every plan (asserted property-style in the tests), so
benchmark differences between them are purely the processing
discipline -- which is exactly the experiment ref [4] describes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union as TypingUnion

from repro.errors import SchemaError, XSTError
from repro.gov.governor import active as _gov_active
from repro.obs.digest import build_digest, plan_hash, record_digest
from repro.obs.instrument import enabled as _obs_enabled
from repro.obs.trace import tracer as _tracer
from repro.relational import algebra
from repro.relational.columnar import (
    ColumnarRelation,
    materialize as _materialize,
    _record_backend,
)
from repro.relational.relation import Relation
from repro.relational.schema import Heading

#: What flows between plan nodes in set mode: either the canonical row
#: model or its sorted-run encoding.  Both expose ``heading`` and
#: ``cardinality()``, which is all the executor shell needs.
Operand = TypingUnion[Relation, ColumnarRelation]

__all__ = [
    "Plan",
    "Scan",
    "SelectEq",
    "SelectPred",
    "Project",
    "Rename",
    "Join",
    "Union",
    "Difference",
    "Aggregate",
    "Limit",
    "Param",
    "scans",
    "plan_cache_key",
    "scan_tables",
    "Database",
]


class Plan:
    """Base class for plan nodes; subclasses are immutable records.

    A node is the single owner of every *structural* fact about its
    operator -- its inputs, how to rebuild it over new inputs, its
    heading rule with the conditions under which it is well defined,
    its kernel on every backend and where its attributes come from --
    so every walker (executor, optimizer, cost planner, views, IVM,
    result cache, cluster) is generic over this protocol.  What
    needs module-local state (cost formulas, delta rules, rewrite
    rules) lives in one ``{node type: rule}`` table in its module.
    An operator that does not implement a method fails typed.
    """

    __slots__ = ()

    #: Kernel-op label for ``repro_kernel_backend_total``.
    op = "unknown"

    def children(self) -> Tuple["Plan", ...]:
        raise NotImplementedError

    def with_children(self, *children: "Plan") -> "Plan":
        """The same operator, same parameters, over new inputs;
        ``self`` when every child is the one it already has."""
        raise self._unknown()

    def heading(self, *inputs: Heading) -> Heading:
        """The output heading over the given input headings.

        Raises :class:`~repro.errors.SchemaError` when the operator is
        not well defined on them; :meth:`Database.heading_of` folds
        this over a whole plan before any work starts.
        """
        raise self._unknown()

    def apply(self, kernels, inputs: Sequence[Any]):
        """Run this operator's kernel over already-computed inputs.

        ``kernels`` is a backend namespace: :mod:`~repro.relational.
        algebra` for rows, :class:`~repro.relational.columnar.
        ColumnarRelation` for sorted runs, the cluster's for operands
        still in their buckets -- one name per operator, spelled alike.
        """
        raise self._unknown()

    def origin(self, attr: str) -> Optional[str]:
        """The name output attribute ``attr`` carries in the inputs
        (``None`` for a column the node computes)."""
        return attr

    def __setattr__(self, key, value):
        raise AttributeError("plan nodes are immutable")

    def _unknown(self) -> TypeError:
        return TypeError("unknown plan node %s" % type(self).__name__)

    def describe(self) -> str:
        """One-line operator description (used by explain output)."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Indented operator-tree rendering."""
        lines = ["%s%s" % ("  " * indent, self.describe())]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return self.describe()


class Param:
    """Parameter ``$index`` of a statement template: scope ``index`` of
    the one argument tuple an execution binds.

    It stands where a literal value would -- a ``SelectEq`` condition,
    an XQL comparison, a ``Limit`` count -- so a plan holding one is a
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


class Scan(Plan):
    """Read a named base relation (the one leaf: its heading and its
    rows are the catalog's, so :class:`Database` supplies both)."""

    __slots__ = ("name",)
    op = "scan"

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def children(self) -> Tuple[Plan, ...]:
        return ()

    def with_children(self) -> Plan:
        return self

    def describe(self) -> str:
        return "Scan(%s)" % self.name


class _Unary(Plan):
    """One input; a subclass's own slots are its constructor's
    parameters after the child, in order."""

    __slots__ = ("child",)

    def __init__(self, child: Plan):
        object.__setattr__(self, "child", child)

    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, child: Plan) -> Plan:
        if child is self.child:
            return self
        cls = type(self)
        return cls(child, *[getattr(self, slot) for slot in cls.__slots__])


class SelectEq(_Unary):
    """Equality selection; eligible for restriction-based execution."""

    __slots__ = ("conditions",)
    op = "restrict"

    def __init__(self, child: Plan, conditions: Mapping[str, Any]):
        super().__init__(child)
        object.__setattr__(self, "conditions", dict(conditions))

    def heading(self, child: Heading) -> Heading:
        child.require(self.conditions)
        return child

    def apply(self, kernels, inputs):
        return kernels.select_eq(inputs[0], self.conditions)

    def describe(self) -> str:
        conditions = ", ".join(
            ["%s=%r" % item for item in sorted(self.conditions.items())]
        )
        return "SelectEq(%s)" % conditions


class SelectPred(_Unary):
    """General predicate selection (record-level in both modes).

    ``cache_key`` is an optional canonical string naming the
    predicate's *semantics* (the XQL compiler sets it to the condition
    text).  Only predicates with a cache key participate in result
    caching -- labels are display strings, not identities, and two
    different callables may share one.
    """

    __slots__ = ("predicate", "label", "cache_key")
    op = "select_pred"

    def __init__(
        self,
        child: Plan,
        predicate: Callable[[Dict[str, Any]], bool],
        label: str = "<predicate>",
        cache_key: Optional[str] = None,
    ):
        super().__init__(child)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "cache_key", cache_key)

    def heading(self, child: Heading) -> Heading:
        return child

    def apply(self, kernels, inputs):
        return kernels.select_pred(inputs[0], self.predicate)

    def describe(self) -> str:
        return "SelectPred(%s)" % self.label


class Project(_Unary):
    __slots__ = ("attrs",)
    op = "project"

    def __init__(self, child: Plan, attrs: Sequence[str]):
        super().__init__(child)
        object.__setattr__(self, "attrs", tuple(attrs))

    def heading(self, child: Heading) -> Heading:
        return child.project(self.attrs)

    def apply(self, kernels, inputs):
        return kernels.project(inputs[0], self.attrs)

    def describe(self) -> str:
        return "Project(%s)" % ", ".join(self.attrs)


class Rename(_Unary):
    __slots__ = ("mapping",)
    op = "rename"

    def __init__(self, child: Plan, mapping: Mapping[str, str]):
        super().__init__(child)
        object.__setattr__(self, "mapping", dict(mapping))

    def heading(self, child: Heading) -> Heading:
        return child.rename(self.mapping)

    def apply(self, kernels, inputs):
        return kernels.rename(inputs[0], self.mapping)

    def origin(self, attr: str) -> str:
        for old, new in self.mapping.items():
            if new == attr:
                return old
        return attr

    def describe(self) -> str:
        renames = ", ".join(
            "%s->%s" % item for item in sorted(self.mapping.items())
        )
        return "Rename(%s)" % renames


class Aggregate(_Unary):
    """Grouped aggregation: the Def 7.1 image of every distinct key
    fragment of ``group_attrs``, read at once off the input's member
    index (all rows are one group when there are none), then
    ``aggregations`` -- ``{output: (function, source)}`` -- over each
    group's column values."""

    __slots__ = ("group_attrs", "aggregations")
    op = "aggregate"

    def __init__(
        self,
        child: Plan,
        group_attrs: Sequence[str],
        aggregations: Mapping[str, Tuple[str, str]],
    ):
        super().__init__(child)
        object.__setattr__(self, "group_attrs", tuple(group_attrs))
        object.__setattr__(self, "aggregations", dict(aggregations))

    def heading(self, child: Heading) -> Heading:
        # The kernel's own rule, so the two cannot disagree.
        return algebra.aggregate_heading(
            child, self.group_attrs, self.aggregations
        )

    def apply(self, kernels, inputs):
        return kernels.aggregate(
            inputs[0], self.group_attrs, self.aggregations
        )

    def origin(self, attr: str) -> Optional[str]:
        # An output is computed here, even one named like its source:
        # no input column (or base statistic) stands behind it.
        return None if attr in self.aggregations else attr

    def describe(self) -> str:
        outputs = ", ".join(
            "%s=%s(%s)" % (out_name, fn_name, source)
            for out_name, (fn_name, source) in self.aggregations.items()
        )
        return "Aggregate(%s; %s)" % (", ".join(self.group_attrs), outputs)


class Limit(_Unary):
    """The first ``count`` rows in the kernel's order of ``order_by``
    (canonical row order when ``None`` and between equal keys): a
    subset of its input, so still a relation."""

    __slots__ = ("count", "order_by", "descending")
    op = "limit"

    def __init__(
        self,
        child: Plan,
        count: int,
        order_by: Optional[str] = None,
        descending: bool = False,
    ):
        if type(count) is not Param:
            algebra._require_count(count)  # the kernel's own rule
        super().__init__(child)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "order_by", order_by)
        object.__setattr__(self, "descending", descending)

    def heading(self, child: Heading) -> Heading:
        if self.order_by is not None:
            child.require([self.order_by])
        return child

    def apply(self, kernels, inputs):
        return kernels.limit(
            inputs[0], self.count, self.order_by, self.descending
        )

    def describe(self) -> str:
        if self.order_by is None:
            return "Limit(%s)" % (self.count,)
        return "Limit(%s by %s %s)" % (
            self.count, self.order_by, "desc" if self.descending else "asc"
        )


class _Binary(Plan):
    __slots__ = ("left", "right")

    def __init__(self, left: Plan, right: Plan):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, left: Plan, right: Plan) -> Plan:
        if left is self.left and right is self.right:
            return self
        return type(self)(left, right)

    def apply(self, kernels, inputs):
        # A binary operator's label is its kernel's name.
        return getattr(kernels, self.op)(inputs[0], inputs[1])

    def heading(self, left: Heading, right: Heading) -> Heading:
        """Union and Difference: defined on equal headings only."""
        if left != right:
            raise SchemaError("headings differ: %r vs %r" % (left, right))
        return left


class Join(_Binary):
    """Natural join on shared attributes."""

    op = "join"

    def heading(self, left: Heading, right: Heading) -> Heading:
        return left.union(right)

    def describe(self) -> str:
        return "Join"


class Union(_Binary):
    op = "union"

    def describe(self) -> str:
        return "Union"


class Difference(_Binary):
    op = "difference"

    def describe(self) -> str:
        return "Difference"


def scans(plan: Plan) -> List[str]:
    """The base relations a plan reads: discovery order, no repeats."""
    names: Dict[str, None] = {}

    def walk(node: Plan) -> None:
        if isinstance(node, Scan):
            names[node.name] = None
        for child in node.children():
            walk(child)

    walk(plan)
    return list(names)


class _Uncacheable(Exception):
    pass


def _canonical(plan: Plan) -> str:
    if isinstance(plan, SelectPred):
        if plan.cache_key is None:
            raise _Uncacheable
        head = "SelectPred{%s}" % plan.cache_key
    else:
        head = plan.describe()
    children = plan.children()
    if not children:
        return head
    return "%s(%s)" % (head, ",".join([_canonical(child) for child in children]))


def plan_cache_key(plan: Plan) -> Optional[str]:
    """The canonical result-cache key for a plan, or ``None`` if
    uncacheable.

    Uncacheable means some ``SelectPred`` carries no ``cache_key`` --
    an opaque Python callable whose semantics the cache cannot name.
    """
    try:
        text = _canonical(plan)
    except _Uncacheable:
        return None
    return "%s:%s" % (plan_hash(text), text)


def scan_tables(plan: Plan) -> Tuple[str, ...]:
    """The base relations a plan scans, sorted and deduplicated."""
    return tuple(sorted(scans(plan)))


class _RunKernels:
    """Sorted runs as a kernel namespace: ``ColumnarRelation``'s own
    kernel where it spells one; any other name hands its operands back
    to rows and runs ``algebra``'s (the twin of the cluster's rule), so
    an operator with no batch kernel runs here without a line."""

    def __getattr__(self, name: str) -> Callable[..., Any]:
        kernel = getattr(ColumnarRelation, name, None)
        if kernel is not None:
            return kernel
        kernel = getattr(algebra, name)

        def on_rows(*operands):
            _record_backend(name, "row")
            return kernel(*map(_materialize, operands))

        return on_rows


_RUN_KERNELS = _RunKernels()


def _gov_summary(root_span) -> Dict[str, Any]:
    """Governance events for a digest: span annotations + live ledgers.

    ``gov_died_at``/``gov_checkpoints`` come off the span tree (stamped
    by the governor's cancellation path); checkpoint and budget totals
    come from the ambient governor when one is installed.
    """
    gov: Dict[str, Any] = {}
    for span in root_span.tree():
        for key in ("gov_died_at", "gov_checkpoints"):
            value = span.attrs.get(key)
            if value is not None:
                gov[key] = value
    governor = _gov_active()
    if governor is not None:
        gov["checkpoints"] = governor.checkpoints
        if governor.budget is not None:
            gov["budget_rows"] = governor.budget.rows
            gov["budget_cells"] = governor.budget.cells
    return gov


class Database:
    """A catalog of named relations plus the two executors.

    ``result_cache`` is a :class:`~repro.relational.ivm.cache.
    QueryResultCache` for :meth:`execute` (default: none); catalogs
    holding the same relation objects share its entries.  A hand-built
    catalog is a mutable fixture; the one a
    :class:`~repro.relational.tx.TransactionManager` produces per
    commit is shared by every reader of that version, so it is sealed
    (:meth:`add`, :meth:`remove` and the columnar encodings raise
    ``SchemaError``) and moves only by :meth:`with_relations`.
    """

    def __init__(self, relations: Optional[Mapping[str, Relation]] = None,
                 *, result_cache=None):
        self._relations: Dict[str, Relation] = dict(relations or {})
        self._columnar: Dict[str, ColumnarRelation] = {}
        self._result_cache = result_cache
        self._sealed = False
        # Optimized statement plans of this value (:meth:`plan_memo`).
        self._plans: Dict[str, Any] = {}
        #: The :class:`~repro.relational.views.ViewCatalog` serving this
        #: catalog, set by the view catalog itself; ``None`` without one.
        self.views = None

    def with_relations(self, changed: Mapping[str, Relation]) -> "Database":
        """A new catalog with ``changed`` bound and everything else
        shared: other relations and run encodings, cache, views, seal."""
        successor = Database(
            {**self._relations, **changed}, result_cache=self._result_cache
        )
        successor._columnar = {
            name: runs for name, runs in self._columnar.items()
            if name not in changed
        }
        successor._sealed = self._sealed
        successor.views = self.views
        return successor

    def _before_edit(self) -> None:
        """Refuse to edit a committed catalog; a hand-built one changes
        in place, and then what was planned on it may no longer hold."""
        if self._sealed:
            raise SchemaError("a committed catalog changes by a commit")
        self._plans = {}

    def add(self, name: str, relation: Relation) -> None:
        self._before_edit()
        self._relations[name] = relation
        # A replaced relation invalidates its run encoding: stale runs
        # would silently answer queries about data that is gone.
        self._columnar.pop(name, None)

    def remove(self, name: str) -> bool:
        """Forget a relation (and its encoding); False if unknown."""
        self._before_edit()
        existed = self._relations.pop(name, None) is not None
        self._columnar.pop(name, None)
        return existed

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError("unknown relation %r" % (name,)) from None

    def names(self) -> List[str]:
        return sorted(self._relations)

    # ------------------------------------------------------------------
    # Columnar run encodings
    # ------------------------------------------------------------------

    def encode_columnar(self, names: Optional[Sequence[str]] = None) -> List[str]:
        """Encode ``names`` (default: every relation) into sorted runs.

        Scans of an encoded relation return its
        :class:`~repro.relational.columnar.ColumnarRelation` and the
        whole plan above them runs on the columnar batch kernels; the
        final answer is canonically identical to the row path (the
        differential oracle's contract), just faster.  Re-encoding is
        idempotent; :meth:`add` drops a stale encoding automatically.
        """
        self._before_edit()
        targets = list(names) if names is not None else self.names()
        for name in targets:
            self._columnar[name] = ColumnarRelation.from_relation(
                self.relation(name)
            )
        return targets

    def drop_columnar(self, names: Optional[Sequence[str]] = None) -> None:
        """Forget run encodings (all of them by default)."""
        self._before_edit()
        if names is None:
            self._columnar.clear()
        else:
            for name in names:
                self._columnar.pop(name, None)

    def has_columnar(self, name: str) -> bool:
        return name in self._columnar

    def columnar(self, name: str) -> ColumnarRelation:
        try:
            return self._columnar[name]
        except KeyError:
            raise SchemaError(
                "relation %r has no columnar encoding" % (name,)
            ) from None

    def plan_memo(self) -> Dict[str, Any]:
        """This catalog value's memo of optimized statement plans.

        :func:`repro.relational.sql.run` keeps one entry per statement
        text here (and bounds them), so a plan dies with the value it
        was planned on.  What ``optimize`` returns is a function of the
        plan and this value's relations and encodings alone, so nothing
        empties the memo but an edit of a hand-built catalog.
        """
        return self._plans

    # ------------------------------------------------------------------
    # Set-at-a-time execution (Extended Set Processing)
    # ------------------------------------------------------------------

    def execute(self, plan: Plan) -> Relation:
        """Evaluate bottom-up with one kernel call per node.

        With observability enabled (``REPRO_OBS=1``) every plan node
        additionally records a span on the global tracer -- the same
        span tree :func:`repro.relational.profile.execute_profiled`
        measures explicitly.

        With a result cache (``Database(..., result_cache=...)``),
        cacheable plans are answered from the cache when an entry was
        computed from the very relations the plan scans now; misses
        execute normally and populate it.

        A plan that is not well defined on the catalog's headings is
        refused with :class:`~repro.errors.SchemaError` first: before
        the cache, the governor or any kernel has seen it.
        """
        self.heading_of(plan)
        if self._result_cache is not None:
            return self._execute_cached(plan, self._execute_uncached)
        return self._execute_uncached(plan)

    def _execute_uncached(self, plan: Plan) -> Relation:
        if _obs_enabled():
            return self._execute_observed(plan)
        return _materialize(self._execute_raw(plan))

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------

    @property
    def result_cache(self):
        return self._result_cache

    def _execute_cached(
        self, plan: Plan, run: Callable[[Plan], Relation]
    ) -> Relation:
        """The one result-cache consult: ``run(plan)`` computes a miss
        (this catalog's executor, or the cluster's over its buckets)."""
        plan_key = plan_cache_key(plan)
        if plan_key is None:
            return run(plan)
        # The fingerprint *is* the data the execution reads: the
        # immutable relations themselves (heading_of vouched for every
        # name), which the entry keeps for as long as it lives.
        tables = scan_tables(plan)
        inputs = tuple([self._relations[name] for name in tables])
        hit = self._result_cache.lookup(plan_key, inputs)
        if hit is not None:
            return hit
        result = run(plan)
        self._result_cache.store(plan_key, inputs, tables, result)
        return result

    def _execute_observed(self, plan: Plan) -> Relation:
        """The ``REPRO_OBS=1`` path: spans, then a digest per query.

        Every execution -- successful or dying on a typed error --
        produces one :class:`~repro.obs.digest.QueryDigest` built from
        the recorded span tree and fanned out to the digest sinks
        (slow-query log, flight recorder).
        """
        # Not at module level: the span walker lives beside
        # explain_analyze, which runs the planner, and the planner
        # imports this module's node table.
        from repro.relational.profile import execute_spanned

        hash_value = plan_hash(plan.explain())
        try:
            result, root = execute_spanned(self, plan)
        except XSTError as error:
            root = _tracer().last_root()
            if root is not None:
                digest = build_digest(
                    root,
                    hash_value,
                    describe=plan.describe(),
                    status=getattr(error, "code", type(error).__name__),
                    gov=_gov_summary(root),
                    trace_id=root.attrs.get("trace_id"),
                )
                record_digest(digest)
            raise
        digest = build_digest(
            root,
            hash_value,
            describe=plan.describe(),
            gov=_gov_summary(root),
            trace_id=root.attrs.get("trace_id"),
        )
        record_digest(digest)
        return _materialize(result)

    def _execute_raw(self, plan: Plan) -> Operand:
        """Bottom-up evaluation *without* canonicalizing intermediates.

        Results stay in whatever backend produced them; a columnar
        pipeline only pays XSet construction once, at the boundary in
        :meth:`execute`.
        """
        return self.execute_node(
            plan, [self._execute_raw(child) for child in plan.children()]
        )

    def execute_node(
        self, plan: Plan, inputs: Sequence[Operand]
    ) -> Operand:
        """Evaluate ONE node over already-computed child results.

        This is the single evaluation table both backends and both
        executors share: each node names its kernel once
        (:meth:`Plan.apply`) and runs it on whichever backend its
        inputs are in; :meth:`execute` recurses over it directly, and
        the profiler walks the same table with a span around each call
        -- so the measured execution *is* the production execution.
        It is also the per-node cancellation checkpoint of set mode:
        an ambient :class:`repro.gov.Governor` is charged each node's
        output cardinality, so a governed query dies between operators
        (and *inside* the big ones, which checkpoint in their kernel
        loops).
        """
        if isinstance(plan, Scan):
            result = self._columnar.get(plan.name)
            if _obs_enabled():
                _record_backend(
                    plan.op, "row" if result is None else "columnar"
                )
            if result is None:
                result = self.relation(plan.name)
        else:
            kernels = algebra
            for operand in inputs:
                if isinstance(operand, ColumnarRelation):
                    # The fast path is sticky: once any child produced
                    # a run encoding, siblings are promoted (an
                    # O(n log n) encode, no worse than the hash-join
                    # build it replaces) and the node runs on the
                    # columnar batch kernels, which record their own
                    # executions -- or, for an operator that has none,
                    # back on rows (``_RunKernels``).
                    kernels = _RUN_KERNELS
                    inputs = [
                        operand
                        if isinstance(operand, ColumnarRelation)
                        else ColumnarRelation.from_relation(operand)
                        for operand in inputs
                    ]
                    break
            else:
                if _obs_enabled():
                    _record_backend(plan.op, "row")
            result = plan.apply(kernels, inputs)
        gov = _gov_active()
        if gov is not None:
            gov.checkpoint(
                "plan.%s" % type(plan).__name__.lower(),
                result.cardinality(),
                len(result.heading.names),
            )
        return result

    # ------------------------------------------------------------------
    # Record-at-a-time execution (the ref [4] baseline)
    # ------------------------------------------------------------------

    def execute_records(self, plan: Plan) -> Relation:
        """Pull rows one dict at a time through the plan, then re-relate.

        Record mode checkpoints an ambient governor every ``_RECORD_
        CHECK_EVERY`` rows pulled from the plan root -- the per-row
        discipline gets per-row cancellation.
        """
        heading = self.heading_of(plan)
        gov = _gov_active()
        if gov is None:
            rows = list(self._iterate(plan))
        else:
            rows = []
            width = len(heading.names)
            for row in self._iterate(plan):
                rows.append(row)
                if not (len(rows) & (_RECORD_CHECK_EVERY - 1)):
                    gov.checkpoint(
                        "records.pull", _RECORD_CHECK_EVERY, width
                    )
            gov.checkpoint(
                "records.pull",
                len(rows) & (_RECORD_CHECK_EVERY - 1),
                width,
            )
        return Relation.from_dicts(heading, _dedup(rows))

    def heading_of(self, plan: Plan) -> Heading:
        """The heading ``plan`` produces over this catalog.

        The one fold of :meth:`Plan.heading` over a plan tree, and
        therefore the static well-definedness check: it raises
        :class:`~repro.errors.SchemaError` for an unknown relation or
        an operator that is not defined on its inputs' headings,
        reading no row.
        """
        if isinstance(plan, Scan):
            return self.relation(plan.name).heading
        if not isinstance(plan, Plan):
            raise TypeError("unknown plan node %r" % (plan,))
        return plan.heading(
            *[self.heading_of(child) for child in plan.children()]
        )

    def _iterate(self, plan: Plan) -> Iterator[Dict[str, Any]]:
        if isinstance(plan, Scan):
            yield from self.relation(plan.name).iter_dicts()
        elif isinstance(plan, SelectEq):
            conditions = plan.conditions
            for row in self._iterate(plan.child):
                if all(row[attr] == value for attr, value in conditions.items()):
                    yield row
        elif isinstance(plan, SelectPred):
            for row in self._iterate(plan.child):
                if plan.predicate(row):
                    yield row
        elif isinstance(plan, Project):
            for row in self._iterate(plan.child):
                yield {attr: row[attr] for attr in plan.attrs}
        elif isinstance(plan, Rename):
            mapping = plan.mapping
            for row in self._iterate(plan.child):
                yield {mapping.get(attr, attr): value for attr, value in row.items()}
        elif isinstance(plan, Join):
            # Classical record processing: materialize the left side,
            # then nested-loop probe with each right row.
            left_rows = list(self._iterate(plan.left))
            left_heading = self.heading_of(plan.left)
            right_heading = self.heading_of(plan.right)
            shared = left_heading.common(right_heading)
            for right_row in self._iterate(plan.right):
                for left_row in left_rows:
                    if all(left_row[attr] == right_row[attr] for attr in shared):
                        merged = dict(left_row)
                        merged.update(right_row)
                        yield merged
        elif isinstance(plan, Union):
            yield from self._iterate(plan.left)
            yield from self._iterate(plan.right)
        elif isinstance(plan, Difference):
            right_rows = [
                tuple(sorted(row.items(), key=lambda item: item[0]))
                for row in self._iterate(plan.right)
            ]
            right_set = set(right_rows)
            for row in self._iterate(plan.left):
                key = tuple(sorted(row.items(), key=lambda item: item[0]))
                if key not in right_set:
                    yield row
        elif isinstance(plan, (Aggregate, Limit)):
            # Blocking operators: pull the input a row at a time, then
            # one kernel call over what was pulled.
            pulled = Relation.from_dicts(
                self.heading_of(plan.child),
                _dedup(list(self._iterate(plan.child))),
            )
            yield from plan.apply(algebra, [pulled]).iter_dicts()
        else:
            raise TypeError("unknown plan node %r" % (plan,))


#: Row stride between record-mode cancellation checkpoints (power of
#: two, so the in-loop test is a mask).
_RECORD_CHECK_EVERY = 128


def _dedup(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    seen = set()
    unique = []
    for row in rows:
        key = tuple(sorted(row.items(), key=lambda item: item[0]))
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique
