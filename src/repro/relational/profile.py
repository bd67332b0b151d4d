"""Instrumented plan execution: per-operator rows and timings.

``explain()`` shows a plan's shape; :func:`execute_profiled` shows its
*behavior*: every operator's output cardinality and wall time, as a
tree mirroring the plan.  The optimizer benchmarks use it to attribute
speedups to specific rewrites, and the examples print it as a
poor-man's EXPLAIN ANALYZE.

Since the observability layer landed, profiling is span-based: the
generic walker :func:`execute_spanned` wraps each
:meth:`~repro.relational.query.Database.execute_node` call in a
:class:`repro.obs.trace.Span`, and :class:`NodeProfile` is a *view*
over the resulting span tree -- one measurement substrate for local
plans, cluster queries, and the exported ``repro obs-trace`` output.
:func:`explain_analyze` reads the same span tree against the planner's
estimates.

:func:`profile_cluster` does the same for distributed queries: it runs
one :class:`~repro.relational.distributed.Cluster` query and renders
the per-bucket read trace -- which replica served each bucket, how
many rows it returned, and where failovers landed -- so the fault
benchmarks can attribute recovery cost to specific buckets.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.obs import instrument, metrics
from repro.obs.trace import Span, Tracer
from repro.obs.trace import tracer as global_tracer
from repro.relational.columnar import ColumnarRelation, materialize
from repro.relational.cost import CardinalityEstimator, qerror
from repro.relational.optimizer import optimize
from repro.relational.query import Database, Plan
from repro.relational.relation import Relation

__all__ = [
    "NodeProfile",
    "execute_profiled",
    "execute_spanned",
    "explain_analyze",
    "profile_cluster",
]


class NodeProfile:
    """One operator's measured execution (a view over one span).

    Semantics worth reading twice:

    * ``seconds`` is *inclusive* of children, matching how EXPLAIN
      ANALYZE output is conventionally read; use
      :meth:`exclusive_seconds` to attribute time to one operator.
    * :meth:`total_rows` sums every operator's *output* cardinality,
      so rows flowing through a deep plan are deliberately counted at
      each materialization point -- it measures total set traffic, not
      distinct rows.
    """

    __slots__ = ("describe", "rows", "seconds", "children")

    def __init__(self, describe: str, rows: int, seconds: float,
                 children: List["NodeProfile"]):
        self.describe = describe
        self.rows = rows
        self.seconds = seconds
        self.children = children

    @classmethod
    def from_span(cls, span: Span) -> "NodeProfile":
        """Build the profile view over a finished span tree."""
        return cls(
            span.name,
            int(span.attrs.get("rows", 0)),
            span.duration_s,
            [cls.from_span(child) for child in span.children],
        )

    def total_rows(self) -> int:
        """Rows produced by this operator and everything under it.

        Each operator's output is counted once, so a row surviving N
        operators contributes N times -- the number measures set
        traffic through the plan (the quantity set-at-a-time execution
        economizes), not distinct rows.
        """
        return self.rows + sum(child.total_rows() for child in self.children)

    def exclusive_seconds(self) -> float:
        """Time spent in this operator alone, children subtracted.

        Clamped at 0.0: clock granularity can make a parent's
        inclusive time read fractionally below its children's sum.
        This is the number optimizer benchmarks should attribute
        rewrites with; ``seconds`` stays inclusive.
        """
        return max(
            0.0,
            self.seconds - sum(child.seconds for child in self.children),
        )

    def render(self, indent: int = 0) -> str:
        lines = [
            "%s%-40s %6d rows  %8.3f ms"
            % ("  " * indent, self.describe, self.rows, self.seconds * 1000)
        ]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "NodeProfile(%s, %d rows)" % (self.describe, self.rows)


def execute_spanned(
    db: Database, plan: Plan, tracer: Optional[Tracer] = None
) -> Tuple[Relation, Span]:
    """Execute a plan with one span per operator; returns the root span.

    This is the generic walker behind both :func:`execute_profiled`
    and the production hook in :meth:`Database.execute` under
    ``REPRO_OBS=1``: it recurses over ``plan.children()`` and
    evaluates each node through
    :meth:`~repro.relational.query.Database.execute_node`, so there is
    no per-node-type measurement code to fall out of sync with the
    executor.  ``tracer`` defaults to the process-global tracer;
    callers refuse an ill-formed plan first (``Database.heading_of``).
    """
    active_tracer = global_tracer() if tracer is None else tracer
    recording = instrument.enabled()
    registry = metrics.registry() if recording else None
    root_holder: List[Span] = []

    def walk(node: Plan) -> Relation:
        with active_tracer.span(
            node.describe(), node=type(node).__name__
        ) as span:
            if not root_holder:
                root_holder.append(span)
            inputs = [walk(child) for child in node.children()]
            result = db.execute_node(node, inputs)
            rows = result.cardinality()
            span.set("rows", rows)
            # Which backend served this node, for the digest.
            span.set(
                "backend",
                "columnar"
                if isinstance(result, ColumnarRelation) else "row",
            )
            if registry is not None:
                registry.counter(
                    "repro_plan_node_total",
                    "Plan operator executions.", ("node",),
                ).inc(node=type(node).__name__)
        return result

    # Intermediates stay in whatever backend produced them (columnar
    # results are never canonicalized mid-plan); only the answer the
    # caller sees is collapsed to the canonical row model.
    result = materialize(walk(plan))
    return result, root_holder[0]


def execute_profiled(
    db: Database, plan: Plan, tracer: Optional[Tracer] = None
) -> Tuple[Relation, NodeProfile]:
    """Set-at-a-time execution with per-operator measurement.

    The result relation is identical to ``db.execute(plan)``; the
    profile tree mirrors the plan tree.  Per-node time is *inclusive*
    of children (see :meth:`NodeProfile.exclusive_seconds` to
    attribute), matching how EXPLAIN ANALYZE output is conventionally
    read.  Profiling always measures, regardless of the ``REPRO_OBS``
    switch -- the switch gates the zero-config production hooks, not
    an explicit request to profile.
    """
    db.heading_of(plan)
    result, root = execute_spanned(db, plan, tracer)
    return result, NodeProfile.from_span(root)


def explain_analyze(db: Database, plan: Plan,
                    optimized: bool = True) -> Tuple[Relation, str]:
    """Execute a plan and render per-node ``est_rows`` vs ``actual_rows``.

    Returns ``(result_relation, text)``.  The text mirrors
    ``Plan.explain()`` with one measurement suffix per line plus a
    closing q-error summary -- the plan-quality report the E23
    experiment records.  With ``optimized=True`` the plan goes through
    :func:`repro.relational.optimizer.optimize` first (which consults
    the catalog exactly as production execution would).
    """
    db.heading_of(plan)
    if optimized:
        plan = optimize(plan, db)
    # The span walker is the executor; each span carries its node's
    # measured ``rows``.
    result, root = execute_spanned(db, plan)
    est = CardinalityEstimator(db)
    lines: List[str] = []
    errors: List[float] = []

    def render(node: Plan, span, indent: int) -> None:
        estimated = est.estimate(node)
        actual = span.attrs["rows"]
        error = qerror(estimated, actual)
        errors.append(error)
        lines.append(
            "%s%-44s est_rows=%-8d actual_rows=%-8d q=%.2f"
            % ("  " * indent, node.describe(), int(round(estimated)),
               actual, error)
        )
        for child, child_span in zip(node.children(), span.children):
            render(child, child_span, indent + 1)

    render(plan, root, 0)
    worst = max(errors)
    mean = sum(errors) / len(errors)
    lines.append("q-error: max=%.2f mean=%.2f over %d nodes"
                 % (worst, mean, len(errors)))
    return result, "\n".join(lines)


def profile_cluster(cluster, query, *args, **kwargs):
    """Run one distributed query and return ``(result, profile)``.

    ``query`` is a :class:`~repro.relational.distributed.Cluster`
    method name (``"execute"``) or a bound callable.  The profile's
    children are the cluster's per-bucket read spans: one leaf per bucket access,
    labeled ``table[bucket] @ node``, so a failover shows up as the
    bucket served by a non-primary node.  The root's time is real wall
    time; per-leaf times are each bucket's serve time.

    A cluster that has never run a query (or a cluster-like object
    without trace fields at all) profiles to an empty-children tree
    rather than raising.
    """
    bound = getattr(cluster, query) if isinstance(query, str) else query
    started = time.perf_counter()
    result = bound(*args, **kwargs)
    elapsed = time.perf_counter() - started
    events = getattr(cluster, "last_query_events", None) or []
    describe = getattr(cluster, "last_query_describe", "") or "cluster query"
    children = [
        NodeProfile(event_describe, rows, seconds, [])
        for event_describe, rows, seconds in events
    ]
    rows = result.cardinality() if isinstance(result, Relation) else 0
    return result, NodeProfile(describe, rows, elapsed, children)
