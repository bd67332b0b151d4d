"""Incremental view maintenance and MVCC-keyed result caching.

Two halves, both resting on a relation being an immutable value:

* :mod:`~repro.relational.ivm.delta` -- exact set-valued delta
  propagation through query plans, so a materialized view catches up
  with its moved inputs (read by read, :mod:`repro.relational.views`)
  by applying ``(cache - deleted) | inserted`` instead of recomputing.
* :mod:`~repro.relational.ivm.cache` -- a bounded LRU of query results
  keyed on (canonical plan key, the relations they were computed
  from, by identity), so a result can never be served to a reader
  holding other relations.

Everything rides XST member equality: the diffs are XSets, so the
typed twins 1 / 1.0 / True collapse in deltas exactly as they do in
the base relations.
"""

from repro.relational.ivm.cache import QueryResultCache
from repro.relational.ivm.delta import Delta, DeltaPropagator, DeltaUnsupported
from repro.relational.query import plan_cache_key, scan_tables

__all__ = [
    "Delta",
    "DeltaPropagator",
    "DeltaUnsupported",
    "QueryResultCache",
    "plan_cache_key",
    "scan_tables",
]
