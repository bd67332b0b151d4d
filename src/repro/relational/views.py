"""Views: named queries, optionally materialized and delta-maintained.

A view is a relation of the catalog value.  A :class:`ViewCatalog`
attaches itself to the :class:`~repro.relational.query.Database` it
serves -- ``manager.committed()`` with a manager, else the hand-built
``db`` -- every catalog derived from that one carries the handle, and
``sql.run(db, text)`` finds it there.  Tables and views share one
namespace; definitions are shared, immediate and not logged.

A *virtual* view re-executes on every read.  A *materialized* one is a
result-cache entry pinned under its name (:attr:`ViewCatalog.store`),
keyed like any other by the unoptimized resolved body and the very
relations it scans.  :meth:`ViewCatalog.resolve` binds a materialized
reference **under its own name** in a throw-away ``db.with_relations``
of the *reader's* catalog, to the entry for the body on that reader's
relations (a materialized dependency counting as its own answer):
computed on a miss, and pinned only when the reader holds the current
value, so a reader pinned at an old version reads the view as of it.
A view is stale when its name is not pinned to the entry for the
current inputs; an equal relation built anew is a new input, as it is
to every entry.

A view moves when it is read; a commit does nothing for views.  A
reader holding the current value whose view is pinned at older inputs
patches the pinned answer by what moved -- the relative complement of
each old input and its new value, both ways, on their pair sets: no
listener, no log -- propagated through the body
(:mod:`repro.relational.ivm.delta`); a stacked view reads (so patches)
its dependency first.  The read recomputes when the body has no delta
rule or comes to a value no set can hold (a ``sum`` come to ``nan``),
or when an input holds a row of the old one in another object
(rebuilt, or respelled ``1.0`` for ``1``), which no value diff sees.
:meth:`ViewCatalog.verify` is the ``repro fsck``-style digest check.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import is_
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import InvalidAtomError, SchemaError
from repro.gov.governor import checkpoint as _gov_checkpoint
from repro.relational.ivm.cache import QueryResultCache
from repro.relational.ivm.delta import Delta, DeltaPropagator, DeltaUnsupported
from repro.relational.optimizer import optimize
from repro.relational.query import Database, Plan, Scan, scans
from repro.relational.relation import Relation
from repro.xst.ordering import canonical_key, pair_key
from repro.xst.serialization import digest
from repro.xst.xset import XSet, _dropping

__all__ = ["View", "ViewCatalog"]


class View:
    """A named plan and its counters; a materialization is a pinned
    entry of :attr:`ViewCatalog.store`."""

    def __init__(self, name: str, plan: Plan, materialized: bool):
        self.name = name
        self.plan = plan
        self.materialized = materialized
        #: Manager commit version the answer was last pinned at.
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

    With ``manager`` the catalog serves ``manager.committed()``,
    without one the hand-built ``db``; a materialized view is brought
    up to date by the read that finds it behind.
    """

    def __init__(self, db: Database, manager=None):
        # With a manager ``db`` is accepted and unused: the call shape
        # (a catalog first, ``manager=`` second) is fixed by its benchmark.
        self._db = db
        self._views: Dict[str, View] = {}
        self._manager = manager
        self.database.views = self
        #: Where materializations are pinned: the catalog's result
        #: cache, else our own (a view adds no cache to a catalog).
        self.store = self.database.result_cache
        if self.store is None:
            self.store = QueryResultCache(name="views")

    @property
    def database(self) -> Database:
        """The current catalog value: the one whose reader pins a
        materialization."""
        if self._manager is not None:
            return self._manager.committed()
        return self._db

    @property
    def manager(self):
        return self._manager

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
                raise SchemaError("view %r is referenced by view %r"
                                  % (name, other.name))
        del self._views[name]
        self._release(view)
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
        contents: Callable[[View], Optional[Relation]],
    ) -> Tuple[Database, Plan]:
        """``plan`` over relations alone: virtual references inlined,
        each materialized one left a Scan of its own name, bound to
        ``contents(view)`` in a throw-away successor of ``db``."""
        bound: Dict[str, Optional[Relation]] = {}

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
        """What ``view`` holds for a reader of ``db``: the store's entry
        for the body on that reader's relations, patched from the pin or
        computed on a miss -- and pinned as the materialization when
        the reader holds the current value."""
        view.reads += 1
        if not view.materialized:
            return self._evaluate(db, view.plan)
        bound, body = self.resolve(db, view.plan)
        found = key, inputs, _ = bound.cache_key(body)
        answer = self.store.pinned_at(view.name, key, inputs)
        if answer is not None:
            view.cache_hits += 1
            return answer
        current = db is self.database
        answer = self._patched(view, bound, body, found) if current else None
        if answer is None:
            answer = self.store.lookup(key, inputs)
            if answer is not None:
                view.cache_hits += 1
            else:
                answer = _compute(bound, body)
                self.store.store(*found, answer)
                view.recomputes += current
        if current:
            self._pin(view, found, answer)
        return answer

    def read(self, name: str) -> Relation:
        """The view's current contents (the pinned answer when fresh)."""
        return self._read(self.view(name), self.database)

    def execute(self, plan: Plan) -> Relation:
        """Run an ad-hoc plan that may scan views as if they were
        relations, on the current catalog value."""
        return self._evaluate(self.database, plan)

    def _current(self, view: View, db: Database) -> Optional[Relation]:
        """``view``'s pinned answer when it is the entry for the body on
        ``db``, else None: no row is read and no counter moves.  A stale
        dependency binds None, which no pinned fingerprint holds."""
        bound, body = self._bind(db, view.plan,
                                 lambda dep: self._current(dep, db))
        key, inputs, _ = bound.cache_key(body)
        return self.store.pinned_at(view.name, key, inputs)

    def is_stale(self, name: str) -> bool:
        """Has a materialized view no pinned entry for the current
        inputs (moved on, or never read)?  A virtual view never has."""
        view = self.view(name)
        return view.materialized and \
            self._current(view, self.database) is None

    def refresh(self, name: str) -> Relation:
        """Force recomputation of a materialized view."""
        self._release(self.view(name))
        return self.read(name)

    def verify(self, name: str) -> bool:
        """Digest cross-check of the view -- read, so brought current as
        any read brings it -- against a fresh compute: an O(data) audit
        for ``repro views --verify``, not a staleness test.  A view
        pinning nothing verifies trivially."""
        view = self.view(name)
        if self.store.pinned(name) is None:
            return True
        answer = self.read(name)
        fresh = _compute(*self.resolve(self.database, view.plan))
        return digest(answer.rows) == digest(fresh.rows)

    # ------------------------------------------------------------------
    # Incremental maintenance (on the read)
    # ------------------------------------------------------------------

    def _pin(self, view: View, found, answer: Relation) -> None:
        """``answer``, the body's on the current value (``found`` by
        :meth:`Database.cache_key`), is the materialization from here on."""
        held = self.store.pinned(view.name)
        if held is not None and held[0] is not answer:
            self._release(view)
        self.store.pin(view.name, *found, answer)
        if self.store is not self.database.result_cache:
            # Hygiene: what snapshot readers stored here pins old inputs.
            self.store.invalidate_tables(found[2])
        if self._manager is not None:
            view.refresh_version = self._manager.current_version

    def _release(self, view: View) -> None:
        """Unpin ``view``'s materialization; answers cached from it
        cannot hit again, so they go too."""
        if self.store.unpin(view.name):
            for cache in {self.store, self.database.result_cache} - {None}:
                cache.invalidate_tables((view.name,))

    def _patched(self, view: View, bound: Database, body: Plan,
                 found) -> Optional[Relation]:
        """The pinned answer moved to ``bound``'s inputs (``found`` by
        :meth:`Database.cache_key`), or None: a recompute is due."""
        pinned = self.store.pinned(view.name)
        _, inputs, tables = found
        if pinned is None or inputs is None:
            return None
        answer, _, held = pinned
        deltas: Dict[str, Delta] = {}
        for name, old, new in zip(tables, held, inputs):
            if old is not new:
                deltas[name] = _moved(old, new)
                if deltas[name] is None:
                    return None  # a row rebuilt: the read recomputes
        try:
            delta = DeltaPropagator(bound, deltas).delta(body)
        except (DeltaUnsupported, InvalidAtomError):
            # A body whose new value no set can hold (a sum come to
            # nan) is refused by the recompute this read falls back to.
            view.fallbacks += 1
            self._release(view)
            return None
        if not delta.is_empty():
            _gov_checkpoint("ivm.apply", delta.size(),
                            len(delta.heading.names))
            answer = delta.apply_to(answer)
            view.delta_applies += 1
        return answer

    def status(self) -> List[Dict[str, object]]:
        """One summary row per view (for ``repro views`` and tests)."""
        rows = []
        for name in self.names():
            view = self._views[name]
            pinned = self.store.pinned(name)
            rows.append({
                "name": name,
                "kind": "materialized" if view.materialized else "virtual",
                "stale": self.is_stale(name),
                "rows": None if pinned is None else pinned[0].cardinality(),
                "refresh_version": view.refresh_version,
                "reads": view.reads,
                "hit_rate": view.hit_rate,
                "delta_applies": view.delta_applies,
                "recomputes": view.recomputes,
                "fallbacks": view.fallbacks,
            })
        return rows


def _compute(db: Database, body: Plan) -> Relation:
    """``body``'s answer on ``db``, computed past ``db``'s result cache:
    the store holds it once, under the unoptimized body's key."""
    db.heading_of(body)
    return db._execute_uncached(optimize(body, db))


def _moved(old: Relation, new: Relation) -> Optional[Delta]:
    """The exact delta from ``old`` to ``new`` -- C-level work in
    proportion to both, Python work to the pairs that moved -- or None:
    another heading, or a row of ``old`` in another object of ``new``
    (rebuilt, or respelled ``1.0`` for ``1``), which no value diff sees."""
    if old.heading != new.heading:
        return None
    before, after = old.rows, new.rows
    gained = after._pair_set - before._pair_set
    lost = before._pair_set - after._pair_set
    # What stays is equal in value, so in canonical order: it must be
    # the very same objects, pair for pair.
    if not all(map(is_, _less(after, gained), _less(before, lost))):
        return None
    # Trusted: subsets of two validated relations' rows, sorted.
    return Delta(*[Relation._from_valid(new.heading, XSet._from_run(
        sorted(pairs, key=pair_key), pairs)) for pairs in (gained, lost)])


def _less(rows: XSet, pairs: frozenset) -> Tuple:
    """The run of ``rows`` less ``pairs``, its own, found by their keys."""
    if not pairs:
        return rows._pairs
    keys = canonical_key(rows)[2]
    return _dropping(rows._pairs, sorted(
        bisect_left(keys, pair_key(pair)) for pair in pairs))


def _map_scans(plan: Plan, transform: Callable[[Scan], Plan]) -> Plan:
    """``plan`` with every Scan passed through ``transform`` (the same
    object when ``transform`` returns every Scan it was given)."""
    if isinstance(plan, Scan):
        return transform(plan)
    return plan.with_children(
        *[_map_scans(child, transform) for child in plan.children()]
    )
