"""Views: named queries, optionally materialized and delta-maintained.

A view is a plan over base relations.  A *virtual* view re-executes on
every read; a *materialized* view caches its result and remembers the
immutable relations it was computed from.  There is one staleness
rule: the view is fresh iff every current input **is** the remembered
one -- O(dependencies) pointer comparisons, no row touched.  Only an
input that was *replaced by another object* is looked at: it counts as
unmoved when it equals the old one and serializes to the same bytes
(someone rebuilt an equal relation by hand; a typed-twin respelling,
``1`` -> ``1.0``, is equal and *has* moved).

With a :class:`~repro.relational.tx.TransactionManager` attached the
catalog's database is a private overlay (own cache and statistics,
``__view__`` shadows) over the relations of ``manager.committed()`` --
all at construction, each commit's changed ones after it, never the
diff replayed onto a copy -- and *maintains* materialized views
incrementally, propagating each commit's exact insert/delete sets
through the view plan (:mod:`repro.relational.ivm.delta`) and applying
``(cache - deleted) | inserted`` instead of recomputing.  Plans
containing a node with no delta rule fall back to marking the view
stale; the next read recomputes.  :meth:`ViewCatalog.verify` is the
``repro fsck``-style digest cross-check that a maintained cache is
byte-identical to a fresh recomputation.

:class:`ViewCatalog` extends a :class:`~repro.relational.query.
Database` with view definitions; views can reference earlier views,
and reads resolve through the chain.  Stacked materialized views
maintain in definition order, each view's delta feeding its
dependents' propagation as if it were a base-table diff.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import SchemaError
from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.relational.optimizer import optimize
from repro.relational.query import Database, Plan, Scan, scans
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.serialization import digest

__all__ = ["View", "ViewCatalog"]


class View:
    """A named plan with optional materialization state."""

    def __init__(self, name: str, plan: Plan, materialized: bool):
        self.name = name
        self.plan = plan
        self.materialized = materialized
        self._cache: Optional[Relation] = None
        # The staleness fingerprint: dependency -> the relation the
        # cache was computed from (base tables by their value, a
        # materialized view dependency by its cache).  None = stale.
        self._inputs: Optional[Dict[str, Relation]] = None
        #: Manager commit version at the last refresh or delta apply.
        self.refresh_version = 0
        self.reads = 0
        self.cache_hits = 0
        self.delta_applies = 0
        self.recomputes = 0
        self.fallbacks = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.reads if self.reads else 0.0

    def __repr__(self) -> str:
        kind = "materialized" if self.materialized else "virtual"
        return "View(%s, %s)" % (self.name, kind)


class ViewCatalog:
    """A database plus named views (virtual or materialized).

    With ``manager`` attached ``db`` holds the manager's committed
    relations (the same objects, adopted after every commit) and every
    materialized view is incrementally maintained after every commit.
    All mutations of those tables must then flow through the manager:
    the next commit overwrites an out-of-band ``db.add``.
    """

    def __init__(self, db: Database, manager=None):
        self._db = db
        self._views: Dict[str, View] = {}
        self._manager = manager
        if manager is not None:
            self._adopt(manager.committed().names())
            manager.subscribe(self._on_commit)

    @property
    def database(self) -> Database:
        return self._db

    @property
    def manager(self):
        return self._manager

    def close(self) -> None:
        """Detach from the manager's commit stream; idempotent."""
        if self._manager is not None:
            self._manager.unsubscribe(self._on_commit)
            self._manager = None

    # ------------------------------------------------------------------
    # Definition
    # ------------------------------------------------------------------

    def define(self, name: str, plan: Plan, materialized: bool = False) -> View:
        """Register a view; names may not shadow base relations."""
        if name in self._views:
            raise SchemaError("view %r already defined" % (name,))
        try:
            self._db.relation(name)
        except SchemaError:
            pass
        else:
            raise SchemaError(
                "view %r would shadow a base relation" % (name,)
            )
        for base in scans(plan):
            if base not in self._views:
                self._db.relation(base)  # raises for unknown names
        view = View(name, plan, materialized)
        self._views[name] = view
        return view

    def drop(self, name: str) -> View:
        """Remove a view; refuses while another view references it."""
        view = self._views.get(name)
        if view is None:
            raise SchemaError("unknown view %r" % (name,))
        for other in self._views.values():
            if other.name != name and name in scans(other.plan):
                raise SchemaError(
                    "view %r is referenced by view %r" % (name, other.name)
                )
        del self._views[name]
        self._db.remove("__view__" + name)
        return view

    def names(self) -> List[str]:
        return sorted(self._views)

    def view(self, name: str) -> View:
        view = self._views.get(name)
        if view is None:
            raise SchemaError("unknown view %r" % (name,))
        return view

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _resolve_plan(self, plan: Plan) -> Plan:
        """Inline view references by materializing them into the db.

        Views referencing views resolve recursively; each referenced
        view's current rows are installed as a shadow base relation
        for the duration of execution.
        """
        referenced = [base for base in scans(plan) if base in self._views]
        for base in referenced:
            self._db.add("__view__" + base, self.read(base))
        return _map_scans(
            plan,
            lambda scan: Scan("__view__" + scan.name)
            if scan.name in referenced else scan,
        )

    def read(self, name: str) -> Relation:
        """The view's current contents (cached if materialized+fresh)."""
        view = self._views.get(name)
        if view is None:
            raise SchemaError("unknown view %r" % (name,))
        view.reads += 1
        if view.materialized and view._cache is not None and not self.is_stale(
            name
        ):
            view.cache_hits += 1
            return view._cache
        plan = optimize(self._resolve_plan(view.plan), self._db)
        result = self._db.execute(plan)
        if view.materialized:
            view._cache = result
            view.recomputes += 1
            self._record_refresh(view)
        return result

    def execute(self, plan: Plan) -> Relation:
        """Run an ad-hoc plan that may scan views as if they were
        relations (each view reference resolves through :meth:`read`)."""
        return self._db.execute(optimize(self._resolve_plan(plan), self._db))

    # ------------------------------------------------------------------
    # Staleness
    # ------------------------------------------------------------------

    def _current_inputs(self, view: View) -> Dict[str, Optional[Relation]]:
        """The relation behind every dependency, views chased down.

        Virtual view references expand to their base tables;
        materialized references contribute their cache -- the object
        that is replaced exactly when *their* contents move.
        """
        inputs: Dict[str, Optional[Relation]] = {}

        def visit(name: str) -> None:
            dep = self._views.get(name)
            if dep is None:
                inputs[name] = self._db.relation(name)
            elif dep.materialized:
                inputs[name] = dep._cache
            else:
                for base in scans(dep.plan):
                    visit(base)

        for base in scans(view.plan):
            visit(base)
        return inputs

    def is_stale(self, name: str) -> bool:
        """True when a materialized view's inputs have moved.

        Virtual views are never stale (they always recompute); an
        unmaterialized-yet materialized view is considered stale.
        O(dependencies) pointer comparisons; rows are read only for an
        input somebody replaced with an equal relation.
        """
        view = self._views.get(name)
        if view is None:
            raise SchemaError("unknown view %r" % (name,))
        if not view.materialized:
            return False
        if view._inputs is None:
            return True
        current = self._current_inputs(view)
        for dep, relation in current.items():
            if not _same_input(relation, view._inputs.get(dep)):
                return True
        # Remember equal rebuilds as the inputs they are, so the next
        # check is pointer comparisons again.
        view._inputs = current
        # A cache object that has not moved says nothing while its own
        # view is stale (it is only replaced when it re-materializes).
        return any(self.is_stale(dep) for dep in current if dep in self._views)

    def refresh(self, name: str) -> Relation:
        """Force recomputation of a materialized view."""
        view = self._views.get(name)
        if view is None:
            raise SchemaError("unknown view %r" % (name,))
        view._cache = None
        view._inputs = None
        return self.read(name)

    def verify(self, name: str) -> bool:
        """Digest cross-check: does the cache match a fresh compute?

        An O(data) integrity audit, not a staleness test -- for
        ``repro views --verify`` / fsck-style checks.  Views
        without a cache (virtual, or not yet materialized) verify
        trivially.
        """
        view = self.view(name)
        if not view.materialized or view._cache is None:
            return True
        plan = optimize(self._resolve_plan(view.plan), self._db)
        fresh = self._db.execute(plan)
        return digest(view._cache.rows) == digest(fresh.rows)

    # ------------------------------------------------------------------
    # Incremental maintenance (manager attached)
    # ------------------------------------------------------------------

    def _record_refresh(self, view: View) -> None:
        view._inputs = self._current_inputs(view)
        if self._manager is not None:
            view.refresh_version = self._manager.current_version

    def _adopt(self, names) -> None:
        """Hold what the manager holds: the committed relation of each
        of ``names`` -- a table moves only by a commit that names it."""
        committed = self._manager.committed()
        for name in names:
            self._db.add(name, committed.relation(name))

    def _on_commit(self, version: int, changes) -> None:
        """Manager commit hook: adopt the commit, maintain every view."""
        from repro.relational.ivm.delta import Delta

        self._adopt(changes)
        base_deltas: Dict[str, Delta] = {}
        for name in sorted(changes):
            heading_names, inserted, deleted = changes[name]
            heading = Heading(heading_names)
            # Trusted: the commit diff's halves are subsets of the
            # table's validated old and new values.
            base_deltas[name] = Delta(
                Relation._from_valid(heading, inserted),
                Relation._from_valid(heading, deleted),
            )
        if self._db.result_cache is not None:
            self._db.result_cache.invalidate_tables(sorted(changes))
        failed: set = set()
        for name, view in list(self._views.items()):
            if view.materialized:
                self._maintain(view, base_deltas, version, failed)

    def _maintain(
        self, view: View, base_deltas: Dict[str, "Delta"], version: int,
        failed: set,
    ) -> None:
        from repro.relational.ivm.delta import (
            DeltaPropagator,
            DeltaUnsupported,
        )

        if view._cache is None or view._inputs is None:
            # Not materialized yet (or already stale): nothing to
            # maintain; the next read computes from current state.
            failed.add(view.name)
            return
        current = self._current_inputs(view)
        if all(
            relation is view._inputs.get(dep)
            for dep, relation in current.items()
        ):
            return  # untouched by this commit
        try:
            expanded = self._expand_for_delta(view.plan, failed)
            propagator = DeltaPropagator(self._db, base_deltas)
            delta = propagator.delta(expanded)
        except DeltaUnsupported:
            view.fallbacks += 1
            view._inputs = None  # honest: next read recomputes
            failed.add(view.name)
            return
        if not delta.is_empty():
            view._cache = delta.apply_to(view._cache)
            view.delta_applies += 1
            _gov_checkpoint(
                "ivm.apply", delta.size(), len(delta.heading.names)
            )
            shadow = "__view__" + view.name
            self._db.add(shadow, view._cache)
            base_deltas[shadow] = delta
        view._inputs = current
        view.refresh_version = version

    def _expand_for_delta(self, plan: Plan, failed: set) -> Plan:
        """Rewrite a view plan so the propagator sees only relations.

        Virtual view references inline their (expanded) plans;
        materialized references become scans of their ``__view__``
        shadow relation -- whose delta this round is already in the
        propagator's base set.  References to unmaintainable views
        (no cache yet, or fell back this round) are unmaintainable
        themselves.
        """
        from repro.relational.ivm.delta import DeltaUnsupported

        def transform(scan: Scan) -> Plan:
            view = self._views.get(scan.name)
            if view is None:
                return scan
            if not view.materialized:
                return self._expand_for_delta(view.plan, failed)
            if scan.name in failed or view._cache is None:
                raise DeltaUnsupported(
                    "view %r depends on unmaintained view %r"
                    % (scan.name, scan.name)
                )
            shadow = "__view__" + scan.name
            if shadow not in self._db._relations:
                self._db.add(shadow, view._cache)
            return Scan(shadow)

        return _map_scans(plan, transform)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> List[Dict[str, object]]:
        """One summary row per view (for ``repro views`` and tests)."""
        rows = []
        for name in self.names():
            view = self._views[name]
            rows.append({
                "name": name,
                "kind": "materialized" if view.materialized else "virtual",
                "stale": self.is_stale(name),
                "rows": (
                    view._cache.cardinality()
                    if view._cache is not None else None
                ),
                "refresh_version": view.refresh_version,
                "reads": view.reads,
                "hit_rate": view.hit_rate,
                "delta_applies": view.delta_applies,
                "recomputes": view.recomputes,
                "fallbacks": view.fallbacks,
            })
        return rows


def _same_input(new: Optional[Relation], old: Optional[Relation]) -> bool:
    """Is ``new`` the input ``old`` was?  The same object -- or, when
    somebody installed another one, an equal relation spelled alike
    (memoized hashes refuse a different one in O(1); the O(data)
    digests tell a hand-made rebuild from a typed-twin respelling)."""
    if new is None or old is None:
        return False  # a dependency with no cache yet
    return new is old or (
        new == old and digest(new.rows) == digest(old.rows)
    )


def _map_scans(plan: Plan, transform: Callable[[Scan], Plan]) -> Plan:
    """``plan`` with every Scan passed through ``transform`` (the same
    object when ``transform`` returns every Scan it was given)."""
    if isinstance(plan, Scan):
        return transform(plan)
    return plan.with_children(
        *[_map_scans(child, transform) for child in plan.children()]
    )
