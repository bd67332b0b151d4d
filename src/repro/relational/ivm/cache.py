"""Bounded query-result cache keyed on plan identity + input identity.

A cache entry's key is the pair ``(plan key, fingerprint)``:

* the **plan key** (:func:`repro.relational.query.plan_cache_key`)
  is the canonical rendering of the plan tree -- for an XQL statement,
  of its compiled plan bound to its arguments, never of the plan the
  optimizer picked (:func:`repro.relational.sql.run` consults before it
  plans; a view body is keyed alike) --
  ``repro.obs.digest.plan_hash`` over a canonical text made of every
  node's description (a ``Restrict`` names each comparison's
  attribute, operator and constant, so every plan has a key), with the
  full canonical text appended so a CRC collision can never alias two
  distinct plans;
* the **fingerprint** is the tuple of immutable relations the plan
  scans, one per base table in sorted table order, compared by
  **identity**.  A relation never changes, so "the same data" is "the
  same object"; the entry holds its fingerprint for as long as it
  lives, so an identity can never be reused underneath it.

Identity, not ``==``: ``xset([1]) == xset([1.0])`` (typed twins are
equal members with equal hashes and different bytes), so a value-keyed
entry would serve the old spelling after a respelling write.

Because the inputs are *part of the key*, correctness never depends on
invalidation: a result computed from one value of ``emp`` is
unreachable by a reader holding another.  The per-table diff-stream
invalidation (:meth:`QueryResultCache.invalidate_tables`) exists to
reclaim memory promptly and to keep the LRU full of entries that can
still hit.

A materialized view is an entry **pinned** under the view's name
(:meth:`QueryResultCache.pin`): found by the same key, exempt from LRU
eviction and invalidation, released when its name is pinned anew or
unpinned.  It is fresh when its name is pinned to the entry for the
current inputs (:meth:`QueryResultCache.pinned_at`), as any entry is.

Metrics: every event increments
``repro_cache_events_total{event,cache}`` when observability is
enabled (``hit`` / ``miss`` / ``stale`` / ``store`` / ``evict`` /
``invalidate``).  A *stale* is a miss for a plan key the cache has
seen before at a different fingerprint -- the signature of data having
moved on underneath a repeated query.  One consult counts one of
``hit``, ``miss`` and ``stale``: a hit when found, a miss or stale by
:meth:`QueryResultCache.count_miss` -- at once, or, for a served
statement, after its heading check, so an ill-formed statement counts
nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.obs.instrument import enabled as _obs_enabled
from repro.obs.metrics import registry
from repro.relational.relation import Relation

__all__ = ["QueryResultCache"]

#: The scanned base relations themselves, in sorted table order; two
#: fingerprints are the same when their members are the same objects.
Fingerprint = Tuple[Any, ...]
#: What the entry table is keyed on: plan key + ``id`` of each input.
_Key = Tuple[str, Tuple[int, ...]]
#: A stored answer, the tables its plan scans and its fingerprint.
_Entry = Tuple[Relation, Tuple[str, ...], Fingerprint]


def _record_event(cache: str, event: str, amount: int = 1) -> None:
    if not amount or not _obs_enabled():
        return
    registry().counter(
        "repro_cache_events_total",
        "Result cache events by type.",
        ("event", "cache"),
    ).inc_key((event, cache), amount)


class QueryResultCache:
    """LRU of immutable query results; never serves across inputs.

    Results are :class:`~repro.relational.relation.Relation` values --
    immutable, so entries are shared by reference and a hit is a dict
    lookup.  ``capacity`` bounds the entry count; eviction is LRU.
    One cache instance may back many readers (all server sessions
    share one), because sessions pinned at the same version hold the
    same relation objects and therefore share entries.  Pinned entries
    come on top of ``capacity``: one per pinning name.
    """

    def __init__(self, capacity: int = 256, name: str = "db"):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity
        self._name = name
        # Each entry keeps the fingerprint it was stored under: while
        # it lives, no other object can take one of its inputs' ids.
        self._entries: "OrderedDict[_Key, _Entry]" = OrderedDict()
        self._by_table: Dict[str, Set[_Key]] = {}
        # Pinned entries live outside the LRU and the per-table index,
        # so neither eviction nor invalidation reaches them.
        self._pinned: Dict[_Key, _Entry] = {}
        self._pins: Dict[str, _Key] = {}
        # Plan keys ever stored (bounded), for classifying misses as
        # cold vs stale.  Metrics only -- correctness never reads it.
        self._known_plans: "OrderedDict[str, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def name(self) -> str:
        return self._name

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries) + len(self._pinned)

    # -- read/write ----------------------------------------------------

    def lookup(
        self, plan_key: str, fingerprint: Fingerprint, *,
        count_miss: bool = True,
    ) -> Optional[Relation]:
        """The entry for ``(plan_key, fingerprint)``, counted a hit, or
        None, counted by :meth:`count_miss` -- unless ``count_miss`` is
        False: then the caller counts it once it has checked that the
        statement it consulted for is well formed."""
        key = (plan_key, tuple(map(id, fingerprint)))
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        else:
            entry = self._pinned.get(key)
        if entry is not None:
            self.hits += 1
            _record_event(self._name, "hit")
            return entry[0]
        if count_miss:
            self.count_miss(plan_key)
        return None

    def count_miss(self, plan_key: str) -> None:
        """Count a consult for ``plan_key`` that found no entry: stale
        when the key was stored before (at other inputs), else a miss."""
        if plan_key in self._known_plans:
            self.stale += 1
            _record_event(self._name, "stale")
        else:
            self.misses += 1
            _record_event(self._name, "miss")

    def store(
        self,
        plan_key: str,
        fingerprint: Fingerprint,
        tables: Iterable[str],
        result: Relation,
    ) -> None:
        key = (plan_key, tuple(map(id, fingerprint)))
        if key in self._entries:
            self._entries.move_to_end(key)
        tables = tuple(tables)
        self._entries[key] = (result, tables, fingerprint)
        for table in tables:
            self._by_table.setdefault(table, set()).add(key)
        self._known_plans[plan_key] = None
        self._known_plans.move_to_end(plan_key)
        while len(self._known_plans) > 4 * self._capacity:
            self._known_plans.popitem(last=False)
        self.stores += 1
        _record_event(self._name, "store")
        while len(self._entries) > self._capacity:
            victim, entry = self._entries.popitem(last=False)
            self._unindex(victim, entry[1])
            self.evictions += 1
            _record_event(self._name, "evict")

    def _unindex(self, key: _Key, tables: Tuple[str, ...]) -> None:
        for table in tables:
            keys = self._by_table.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_table[table]

    # -- pinning -------------------------------------------------------

    def pin(self, name: str, plan_key: str, fingerprint: Fingerprint,
            tables: Iterable[str], result: Relation) -> None:
        """Hold ``result`` as the entry for ``(plan_key, fingerprint)``
        under ``name`` until ``name`` is pinned anew or unpinned; what
        ``name`` pinned before is released."""
        key = (plan_key, tuple(map(id, fingerprint)))
        if self._pins.get(name) != key:
            self.unpin(name)
            self._pins[name] = key
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._unindex(key, entry[1])
            self._pinned.setdefault(key, (result, tuple(tables), fingerprint))

    def unpin(self, name: str) -> bool:
        """Release what ``name`` pins (the entry goes with the last name
        pinning it); False when it pins nothing."""
        key = self._pins.pop(name, None)
        if key is not None and key not in self._pins.values():
            del self._pinned[key]
        return key is not None

    def pinned(self, name: str) -> Optional[_Entry]:
        """What ``name`` pins -- its answer, the tables it scanned and
        the relations it was computed from -- whatever they are now."""
        key = self._pins.get(name)
        return None if key is None else self._pinned[key]

    def pinned_at(self, name: str, plan_key: str,
                  fingerprint: Fingerprint) -> Optional[Relation]:
        """``name``'s answer when it is pinned as the entry for exactly
        these inputs, else None; no counter moves."""
        key = self._pins.get(name)
        same = key == (plan_key, tuple(map(id, fingerprint)))
        return self._pinned[key][0] if same else None

    # -- invalidation --------------------------------------------------

    def invalidate_tables(self, tables: Iterable[str]) -> int:
        """Drop every unpinned entry whose plan scans any of ``tables``.

        This is memory hygiene, not correctness: entries are keyed by
        the relations they read, so a post-commit reader could never
        hit them anyway -- but until they go they keep those superseded
        relations alive.  Returns the number of entries dropped.
        """
        dropped = 0
        for table in tables:
            for key in list(self._by_table.get(table, ())):
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self._unindex(key, entry[1])
                    dropped += 1
        self.invalidations += dropped
        _record_event(self._name, "invalidate", dropped)
        return dropped

    def clear(self) -> int:
        """Drop every unpinned entry."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_table.clear()
        self.invalidations += dropped
        _record_event(self._name, "invalidate", dropped)
        return dropped

    # -- introspection -------------------------------------------------

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses + self.stale
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "name": self._name,
            "size": len(self),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return "QueryResultCache(%s, %d/%d, hit_rate=%.2f)" % (
            self._name, len(self), self._capacity, self.hit_rate
        )
