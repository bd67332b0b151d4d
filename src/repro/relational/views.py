"""Views: named queries, optionally materialized and delta-maintained.

A view is a relation of the catalog value.  A :class:`ViewCatalog`
attaches itself to the :class:`~repro.relational.query.Database` it
serves -- ``manager.committed()`` when a :class:`~repro.relational.tx.
TransactionManager` is given, else the hand-built ``db`` -- every
catalog derived from that one (each commit's value, each pinned
snapshot) carries the handle, and ``sql.run(db, text)`` finds it there.
Tables and views share one namespace; definitions are shared and
immediate, and are not logged.

A *virtual* view re-executes on every read; a *materialized* one keeps
its result and the immutable relations it was computed from.  One
resolution rule serves every reader (:meth:`ViewCatalog.resolve`): a
virtual reference is replaced by the view's plan; a materialized one is
bound **under its own name** in a throw-away ``db.with_relations({view:
contents})`` of the *reader's* catalog, where ``contents`` is the
materialization iff every remembered input **is** the reader's relation
of that name -- O(dependencies) pointer comparisons, no row touched --
and otherwise the body evaluated on the reader's value.  So a reader
pinned at an old version reads the view as of that version, only a
reader holding the current value (:attr:`ViewCatalog.database`)
replaces the materialization, and no catalog gains or loses a relation.
Only an input that was *replaced by another object* is looked at: it
counts as unmoved when it equals the old one and serializes to the same
bytes (someone rebuilt an equal relation by hand; a typed-twin
respelling, ``1`` -> ``1.0``, is equal and *has* moved).

With a manager the catalog *maintains* materialized views as a commit
listener: each commit's exact insert/delete sets are propagated through
the view plan over ``manager.committed()`` (:mod:`repro.relational.ivm.
delta`) and ``(cache - deleted) | inserted`` applied instead of
recomputing; stacked views maintain in definition order, each handed
its dependency's delta under the dependency's own name.  A plan with a
node that has no delta rule falls back to marking the view stale; the
next read recomputes.  Result-cache entries computed from a replaced
materialization are reclaimed.  :meth:`ViewCatalog.verify` is the
``repro fsck``-style digest cross-check that a maintained cache is
byte-identical to a fresh recomputation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SchemaError
from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.relational.ivm.delta import (
    Delta,
    DeltaPropagator,
    DeltaUnsupported,
)
from repro.relational.optimizer import optimize
from repro.relational.query import Database, Plan, Scan, scans
from repro.relational.relation import Relation
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
    """Named views (virtual or materialized) over one catalog value.

    With ``manager`` the catalog serves ``manager.committed()`` and
    every materialized view is incrementally maintained after every
    commit; without one it serves the hand-built ``db``.
    """

    def __init__(self, db: Database, manager=None):
        # With a manager ``db`` is accepted and unused: the call shape
        # (a catalog first, ``manager=`` second) is fixed by its benchmark.
        self._db = db
        self._views: Dict[str, View] = {}
        self._manager = manager
        self.database.views = self
        if manager is not None:
            manager.subscribe(self._on_commit)

    @property
    def database(self) -> Database:
        """The current catalog value: the one whose reader replaces a
        materialization."""
        if self._manager is not None:
            return self._manager.committed()
        return self._db

    @property
    def manager(self):
        return self._manager

    def close(self) -> None:
        """Detach from the manager's commit stream; idempotent."""
        if self._manager is not None:
            self._manager.unsubscribe(self._on_commit)

    # ------------------------------------------------------------------
    # Definition
    # ------------------------------------------------------------------

    def define(self, name: str, plan: Plan, materialized: bool = False) -> View:
        """Register a view whose body is well defined on the current
        catalog value; a refused definition registers nothing."""
        if name in self._views:
            raise SchemaError("view %r already defined" % (name,))
        if name in self.database.names():
            raise SchemaError("view %r would shadow a base relation" % name)
        db, body = self.resolve(self.database, plan)
        db.heading_of(body)  # raises for unknown names and attributes
        view = View(name, plan, materialized)
        self._views[name] = view
        return view

    def drop(self, name: str) -> View:
        """Remove a view; refuses while another view references it."""
        view = self.view(name)
        for other in self._views.values():
            if other.name != name and name in scans(other.plan):
                raise SchemaError(
                    "view %r is referenced by view %r" % (name, other.name)
                )
        del self._views[name]
        self._reclaim(name)
        return view

    def names(self) -> List[str]:
        return sorted(self._views)

    def defines(self, names) -> bool:
        """Is any of ``names`` a view?"""
        return not self._views.keys().isdisjoint(names)

    def view(self, name: str) -> View:
        view = self._views.get(name)
        if view is None:
            raise SchemaError("unknown view %r" % (name,))
        return view

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _bind(
        self, db: Database, plan: Plan,
        contents: Callable[[View], Relation],
    ) -> Tuple[Database, Plan]:
        """``plan`` over relations alone: virtual references inlined,
        each materialized one left a Scan of its own name, bound to
        ``contents(view)`` in a throw-away successor of ``db``."""
        bound: Dict[str, Relation] = {}

        def transform(scan: Scan) -> Plan:
            view = self._views.get(scan.name)
            if view is None:
                return scan
            if not view.materialized:
                return _map_scans(view.plan, transform)
            if scan.name not in bound:
                bound[scan.name] = contents(view)
            return scan

        plan = _map_scans(plan, transform)
        return (db.with_relations(bound) if bound else db), plan

    def resolve(self, db: Database, plan: Plan) -> Tuple[Database, Plan]:
        """The one resolution rule: a catalog and a plan that name only
        relations and answer what ``plan`` -- which may scan views --
        means to a reader holding ``db``."""
        return self._bind(db, plan, lambda view: self._read(view, db))

    def _evaluate(self, db: Database, plan: Plan) -> Relation:
        db, plan = self.resolve(db, plan)
        return db.execute(optimize(plan, db))

    def _read(self, view: View, db: Database) -> Relation:
        """What ``view`` holds for a reader of ``db``: the
        materialization when it was computed from that reader's
        relations, else the body evaluated on them -- which becomes
        the materialization when the reader holds the current value."""
        view.reads += 1
        if view.materialized and self._fresh(view, db):
            view.cache_hits += 1
            return view._cache
        result = self._evaluate(db, view.plan)
        if view.materialized and db is self.database:
            view.recomputes += 1
            self._replace(view, result, self._current_inputs(view, db))
        return result

    def read(self, name: str) -> Relation:
        """The view's current contents (cached if materialized+fresh)."""
        return self._read(self.view(name), self.database)

    def execute(self, plan: Plan) -> Relation:
        """Run an ad-hoc plan that may scan views as if they were
        relations, on the current catalog value."""
        return self._evaluate(self.database, plan)

    # ------------------------------------------------------------------
    # Staleness
    # ------------------------------------------------------------------

    def _current_inputs(
        self, view: View, db: Database
    ) -> Dict[str, Optional[Relation]]:
        """The relation behind every dependency, views chased down.

        Virtual view references expand to their base tables (``db``'s);
        materialized references contribute their cache -- the object
        that is replaced exactly when *their* contents move.
        """
        inputs: Dict[str, Optional[Relation]] = {}

        def visit(name: str) -> None:
            dep = self._views.get(name)
            if dep is None:
                inputs[name] = db.relation(name)
            elif dep.materialized:
                inputs[name] = dep._cache
            else:
                for base in scans(dep.plan):
                    visit(base)

        for base in scans(view.plan):
            visit(base)
        return inputs

    def _fresh(self, view: View, db: Database) -> bool:
        """Is the materialization what the body yields on ``db``?
        O(dependencies) pointer comparisons; rows are read only for an
        input somebody replaced with an equal relation."""
        if view._inputs is None:
            return False
        current = self._current_inputs(view, db)
        for dep, relation in current.items():
            if not _same_input(relation, view._inputs.get(dep)):
                return False
        if db is self.database:
            # Remember equal rebuilds as the inputs they are, so the
            # next check is pointer comparisons again.
            view._inputs = current
        # A cache object that has not moved says nothing while its own
        # view is stale (it is only replaced when it re-materializes).
        return all(
            self._fresh(self._views[dep], db)
            for dep in current if dep in self._views
        )

    def is_stale(self, name: str) -> bool:
        """True when a materialized view's inputs have moved past it
        (or it was never read); a virtual view is never stale."""
        view = self.view(name)
        return view.materialized and not self._fresh(view, self.database)

    def refresh(self, name: str) -> Relation:
        """Force recomputation of a materialized view."""
        self.view(name)._inputs = None
        return self.read(name)

    def verify(self, name: str) -> bool:
        """Digest cross-check: does the cache match a fresh compute?

        An O(data) integrity audit, not a staleness test -- for
        ``repro views --verify`` / fsck-style checks.  Views without a
        cache (virtual, or not yet materialized) verify trivially.
        """
        view = self.view(name)
        if not view.materialized or view._cache is None:
            return True
        fresh = self._evaluate(self.database, view.plan)
        return digest(view._cache.rows) == digest(fresh.rows)

    # ------------------------------------------------------------------
    # Incremental maintenance (manager attached)
    # ------------------------------------------------------------------

    def _reclaim(self, name: str) -> None:
        """Hygiene: answers cached from a materialization of ``name``
        that is gone cannot hit again."""
        cache = self.database.result_cache
        if cache is not None:
            cache.invalidate_tables((name,))

    def _replace(self, view: View, contents: Relation, inputs) -> None:
        """``contents``, computed from ``inputs`` of the current
        catalog value, is the materialization from here on."""
        if view._cache is not None and contents is not view._cache:
            self._reclaim(view.name)
        view._cache = contents
        view._inputs = inputs
        if self._manager is not None:
            view.refresh_version = self._manager.current_version

    def _on_commit(self, version: int, changes) -> None:
        """Manager commit hook: maintain every materialized view."""
        deltas: Dict[str, Delta] = {}
        for name, (heading, inserted, deleted) in changes.items():
            # Trusted: the commit diff's halves are subsets of the
            # table's validated old and new values.
            deltas[name] = Delta(
                Relation._from_valid(heading, inserted),
                Relation._from_valid(heading, deleted),
            )
        failed: set = set()
        for view in list(self._views.values()):
            if view.materialized:
                self._maintain(view, deltas, failed)

    def _maintain(
        self, view: View, deltas: Dict[str, Delta], failed: set
    ) -> None:
        """Bring ``view`` up to the committed value; its own delta joins
        ``deltas`` under its name, for the views stacked on it."""
        if view._cache is None or view._inputs is None:
            # Not materialized yet (or already stale): nothing to
            # maintain; the next read computes from current state.
            failed.add(view.name)
            return
        db = self.database
        current = self._current_inputs(view, db)
        if all(
            relation is view._inputs.get(dep)
            for dep, relation in current.items()
        ):
            return  # untouched by this commit

        def maintained(dep: View) -> Relation:
            if dep.name in failed or dep._cache is None:
                raise DeltaUnsupported(
                    "view %r depends on unmaintained view %r"
                    % (view.name, dep.name)
                )
            return dep._cache

        try:
            bound, plan = self._bind(db, view.plan, maintained)
            delta = DeltaPropagator(bound, deltas).delta(plan)
        except DeltaUnsupported:
            view.fallbacks += 1
            view._inputs = None  # honest: next read recomputes
            failed.add(view.name)
            return
        contents = view._cache
        if not delta.is_empty():
            contents = delta.apply_to(contents)
            view.delta_applies += 1
            _gov_checkpoint(
                "ivm.apply", delta.size(), len(delta.heading.names)
            )
            deltas[view.name] = delta
        self._replace(view, contents, current)

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
