"""Statistics catalog: data-grounded cardinality evidence for planning.

Section 12's optimization argument -- whole-plan compositions can be
rewritten before anything executes -- is only as good as the planner's
cardinality guesses.  Until now those guesses were magic constants
(one-in-ten for every equality selection, ``max(left, right)`` for
every join).  This module replaces guessing with *measurement*: an
``ANALYZE`` pass over a relation collects, per attribute,

* a **distinct-value estimate** from a deterministic KMV (k minimum
  values) sketch -- the k smallest :func:`repro.xst.ordering.
  canonical_hash` values seen; with fewer than k distinct hashes the
  count is exact, beyond that the classical ``(k - 1) / max_kth``
  estimator applies;
* an **equi-depth histogram** over the canonical total ordering
  (:func:`repro.xst.ordering.canonical_key`), so selectivities of
  range-shaped predicates and uniform-part equality lookups read off
  bucket densities;
* a **most-common-value list** (top frequencies, ties broken by
  canonical order) for skew-aware equality selectivity;
* the **null fraction** (``None`` values).

Everything is deterministic: no wall clock, no salted hashing, and the
optional row-sampling path draws from a seeded ``random.Random``
following the repo's workload-seed convention, so two ANALYZE runs over
equal relations produce byte-identical catalogs.

Staleness: a :class:`StatsCatalog` tracks mutations applied to each
relation since its last ANALYZE (fed by
:class:`~repro.relational.tx.TransactionManager`).  Past a threshold
(a fraction of the analyzed row count, floor ``STALE_MIN_MUTATIONS``)
the entry is *invalidated*: :meth:`StatsCatalog.get` returns ``None``
and the estimator sizes the relation from its live cardinality and the
fallback selectivities until a fresh ANALYZE.  Catalogs serialize
to/from canonical XSet values so
:class:`~repro.relational.disk.DiskRelationStore` checkpoints persist
them next to the data they describe.

Execution feedback: the observability loop (:mod:`repro.obs.feedback`)
can install *observed* cardinalities -- what a predicate actually
returned at run time -- as a bounded **overlay** keyed by
``(relation, feedback_key(conditions))``.  The overlay never touches
the ANALYZE ground truth in ``_entries``: corrections live beside it,
are consulted first by the cost model, are dropped the moment the
relation is re-ANALYZEd, and are runtime-only (they do not serialize).
Severe, repeated misestimates can additionally *force* an entry stale
via :meth:`StatsCatalog.mark_stale`, steering the owner toward a
fresh ANALYZE.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.xst.builders import xtuple
from repro.xst.ordering import canonical_hash, canonical_key
from repro.xst.xset import XSet

__all__ = [
    "AttributeStats",
    "RelationStats",
    "StatsCatalog",
    "analyze_relation",
    "KMV_SIZE",
    "HISTOGRAM_BUCKETS",
    "MCV_SIZE",
    "STALE_FRACTION",
    "STALE_MIN_MUTATIONS",
    "FEEDBACK_MAX_ENTRIES",
    "feedback_key",
]

#: KMV sketch size: the k smallest canonical hashes kept per attribute.
KMV_SIZE = 64

#: Equi-depth histogram bucket count.
HISTOGRAM_BUCKETS = 8

#: Most-common-value list length.
MCV_SIZE = 8

#: An entry goes stale when mutations since ANALYZE exceed this
#: fraction of the analyzed row count...
STALE_FRACTION = 0.2

#: ...with this floor, so tiny relations aren't invalidated by a
#: single insert.
STALE_MIN_MUTATIONS = 16

#: Upper bound on feedback-overlay entries per catalog; the oldest
#: correction is evicted first (FIFO), so a long-running workload's
#: overlay stays a cache, not a second catalog.
FEEDBACK_MAX_ENTRIES = 128

#: Hash range of :func:`canonical_hash` (32 bits), for the KMV
#: estimator's unit-interval normalization.
_HASH_SPACE = float(1 << 32)


def feedback_key(conditions: Mapping[str, Any]) -> str:
    """Canonical overlay key for an equality-predicate set.

    Attribute-sorted ``repr`` pairs, so ``{"a": 1, "b": 2}`` and
    ``{"b": 2, "a": 1}`` key identically and the key is a plain string
    that survives JSONL round trips through digests.
    """
    return ",".join(
        "%s=%r" % (name, conditions[name]) for name in sorted(conditions)
    )


def _kmv_estimate(hashes: Sequence[int], exact_distinct: int) -> int:
    """Distinct-value estimate from the k smallest hashes.

    ``hashes`` is the sorted KMV synopsis; ``exact_distinct`` is the
    number of distinct hashes actually observed (exact while the
    sketch is not full).  The classical estimator ``(k - 1) / U_k``
    (``U_k`` the k-th minimum normalized to the unit interval) applies
    only once the sketch saturates.
    """
    if exact_distinct < KMV_SIZE or len(hashes) < KMV_SIZE:
        return exact_distinct
    kth = hashes[KMV_SIZE - 1] / _HASH_SPACE
    if kth <= 0.0:
        return exact_distinct
    return int(round((KMV_SIZE - 1) / kth))


class AttributeStats:
    """Collected statistics for one attribute of one relation."""

    __slots__ = ("distinct", "null_fraction", "mcvs", "histogram", "rows")

    def __init__(
        self,
        rows: int,
        distinct: int,
        null_fraction: float,
        mcvs: Sequence[Tuple[Any, int]],
        histogram: Sequence[Tuple[Any, Any, int]],
    ):
        self.rows = rows
        self.distinct = distinct
        self.null_fraction = null_fraction
        #: ``(value, count)`` pairs, most frequent first.
        self.mcvs: Tuple[Tuple[Any, int], ...] = tuple(
            (value, count) for value, count in mcvs
        )
        #: Equi-depth buckets ``(low, high, rows_in_bucket)`` in
        #: canonical order; ``high`` is inclusive.
        self.histogram: Tuple[Tuple[Any, Any, int], ...] = tuple(
            (low, high, count) for low, high, count in histogram
        )

    # -- selectivity reads ---------------------------------------------

    def eq_selectivity(self, value: Any) -> float:
        """Estimated fraction of rows with ``attr == value``.

        MCV hit: the exact tracked frequency.  Otherwise: the non-MCV,
        non-null mass spread uniformly over the remaining distinct
        values -- the textbook formula, grounded in this relation's
        measured skew instead of a constant.
        """
        if self.rows <= 0:
            return 0.0
        if value is None:
            return self.null_fraction
        for mcv_value, count in self.mcvs:
            if mcv_value == value:
                return count / self.rows
        mcv_rows = sum(count for _, count in self.mcvs)
        remaining_rows = self.rows * (1.0 - self.null_fraction) - mcv_rows
        remaining_distinct = self.distinct - len(self.mcvs)
        if remaining_rows <= 0 or remaining_distinct <= 0:
            # Every value is accounted for by the MCV list; an unseen
            # literal matches nothing (but never estimate a hard 0 --
            # the answer, not the estimate, decides emptiness).
            return 1.0 / max(1, self.rows)
        return max(
            1.0 / max(1, self.rows),
            (remaining_rows / remaining_distinct) / self.rows,
        )

    def range_selectivity(self, low: Any, high: Any) -> float:
        """Estimated fraction of rows in ``[low, high]`` (canonical order).

        Linear in the histogram bucket count; partially-covered end
        buckets contribute half their mass (the equi-depth analog of
        interpolation without assuming a value metric).
        """
        if self.rows <= 0 or not self.histogram:
            return 1.0 / 3.0
        low_key = canonical_key(low)
        high_key = canonical_key(high)
        covered = 0.0
        for bucket_low, bucket_high, count in self.histogram:
            b_low, b_high = canonical_key(bucket_low), canonical_key(bucket_high)
            if b_high < low_key or b_low > high_key:
                continue
            if low_key <= b_low and b_high <= high_key:
                covered += count
            else:
                covered += count / 2.0
        return min(1.0, covered / self.rows)

    # -- serialization --------------------------------------------------

    def to_xset(self) -> XSet:
        return xtuple([
            self.rows,
            self.distinct,
            self.null_fraction,
            xtuple([xtuple([value, count]) for value, count in self.mcvs]),
            xtuple([
                xtuple([low, high, count])
                for low, high, count in self.histogram
            ]),
        ])

    @classmethod
    def from_xset(cls, value: XSet) -> "AttributeStats":
        rows, distinct, null_fraction, mcvs, histogram = value.as_tuple()
        return cls(
            rows,
            distinct,
            null_fraction,
            [tuple(pair.as_tuple()) for pair in mcvs.as_tuple()],
            [tuple(bucket.as_tuple()) for bucket in histogram.as_tuple()],
        )

    def __repr__(self) -> str:
        return (
            "AttributeStats(distinct=%d, nulls=%.3f, mcvs=%d, buckets=%d)"
            % (self.distinct, self.null_fraction, len(self.mcvs),
               len(self.histogram))
        )


class RelationStats:
    """Row count plus per-attribute statistics for one relation."""

    __slots__ = ("rows", "attributes")

    def __init__(self, rows: int, attributes: Mapping[str, AttributeStats]):
        self.rows = rows
        self.attributes: Dict[str, AttributeStats] = dict(attributes)

    def attribute(self, name: str) -> Optional[AttributeStats]:
        return self.attributes.get(name)

    def to_xset(self) -> XSet:
        return xtuple([
            self.rows,
            xtuple([
                xtuple([name, self.attributes[name].to_xset()])
                for name in sorted(self.attributes)
            ]),
        ])

    @classmethod
    def from_xset(cls, value: XSet) -> "RelationStats":
        rows, attributes = value.as_tuple()
        decoded = {}
        for entry in attributes.as_tuple():
            name, attr_stats = entry.as_tuple()
            decoded[name] = AttributeStats.from_xset(attr_stats)
        return cls(rows, decoded)

    def __repr__(self) -> str:
        return "RelationStats(%d rows, %d attributes)" % (
            self.rows, len(self.attributes)
        )


def analyze_relation(
    relation: Relation,
    sample_rows: Optional[int] = None,
    seed: int = 0,
) -> RelationStats:
    """One ANALYZE pass: scan (or seeded-sample) a relation once.

    ``sample_rows`` caps the rows inspected for the histogram/MCV/
    sketch scan; rows are chosen by a seeded ``random.Random(seed)``
    (the workload-seed convention), so sampling is reproducible.  The
    row *count* is always exact -- only per-attribute structure is
    sampled.  Iteration follows the relation's canonical pair order,
    so two runs see identical rows in identical order.
    """
    rows = list(relation.iter_dicts())
    total = len(rows)
    inspected = rows
    if sample_rows is not None and 0 < sample_rows < total:
        rng = random.Random(seed)
        inspected = [rows[i] for i in sorted(rng.sample(range(total), sample_rows))]
    scale = total / len(inspected) if inspected else 1.0
    attributes: Dict[str, AttributeStats] = {}
    for attr in relation.heading.names:
        values = [row[attr] for row in inspected]
        nulls = sum(1 for value in values if value is None)
        present = [value for value in values if value is not None]
        # Frequency table drives distinct count, MCVs and histogram
        # alike; canonical_key gives the total order over mixed types.
        frequency: Dict[Any, int] = {}
        for value in present:
            frequency[value] = frequency.get(value, 0) + 1
        hashes = sorted({canonical_hash(value) for value in frequency})
        distinct = _kmv_estimate(hashes[:KMV_SIZE], len(frequency))
        if scale > 1.0 and present:
            # Sample extrapolation: an attribute whose sample is mostly
            # unique scales with the relation (keys); one whose sample
            # repeats has (almost) shown its whole value set (labels).
            if distinct >= len(inspected) // 2:
                distinct = int(round(distinct * scale))
        ranked = sorted(
            frequency.items(),
            key=lambda item: (-item[1], canonical_key(item[0])),
        )
        mcvs = [
            (value, int(round(count * scale)))
            for value, count in ranked[:MCV_SIZE]
            if count > 1 or len(ranked) <= MCV_SIZE
        ]
        histogram = _equi_depth(present, HISTOGRAM_BUCKETS, scale)
        attributes[attr] = AttributeStats(
            rows=total,
            distinct=max(1, distinct) if present else 0,
            null_fraction=(nulls / len(values)) if values else 0.0,
            mcvs=mcvs,
            histogram=histogram,
        )
    return RelationStats(total, attributes)


def _equi_depth(
    values: List[Any], buckets: int, scale: float
) -> List[Tuple[Any, Any, int]]:
    """Equi-depth buckets ``(low, high, rows)`` over canonical order."""
    if not values:
        return []
    ordered = sorted(values, key=canonical_key)
    count = len(ordered)
    bucket_count = min(buckets, count)
    out = []
    for index in range(bucket_count):
        start = (index * count) // bucket_count
        stop = ((index + 1) * count) // bucket_count
        if stop <= start:
            continue
        out.append((
            ordered[start],
            ordered[stop - 1],
            int(round((stop - start) * scale)),
        ))
    return out


class StatsCatalog:
    """Named relation statistics plus mutation-driven staleness.

    The catalog is the planner's one lookup point: ``get(name)``
    returns ``None`` for unknown *or stale* entries, which is the
    signal to fall back to live cardinality and the fallback
    selectivities.  Mutation counts arrive from
    :class:`~repro.relational.tx.TransactionManager` (or any caller of
    :meth:`record_mutations`).
    """

    def __init__(
        self,
        stale_fraction: float = STALE_FRACTION,
        stale_min: int = STALE_MIN_MUTATIONS,
        feedback_max: int = FEEDBACK_MAX_ENTRIES,
    ):
        self._entries: Dict[str, RelationStats] = {}
        self._mutations: Dict[str, int] = {}
        self._stale_fraction = stale_fraction
        self._stale_min = stale_min
        # Runtime-only execution-feedback state: cardinality overlay
        # keyed by (relation, feedback_key-or-None) in insertion order
        # (FIFO eviction), plus the force-stale set.  Neither
        # serializes -- restored catalogs start with a clean overlay.
        self._feedback: Dict[Tuple[str, Optional[str]], int] = {}
        self._feedback_max = feedback_max
        self._force_stale: set = set()
        #: Moves whenever what the planner reads here may have changed:
        #: an ANALYZE or drop, an entry going stale, a new or changed
        #: feedback correction.  A catalog value's plan memo
        #: (:meth:`~repro.relational.query.Database.plan_memo`) holds
        #: only for the epoch it was planned under.
        self.epoch = 0

    # -- population -----------------------------------------------------

    def analyze(
        self,
        name: str,
        relation: Relation,
        sample_rows: Optional[int] = None,
        seed: int = 0,
    ) -> RelationStats:
        """Collect and install fresh statistics for one relation."""
        stats = analyze_relation(relation, sample_rows=sample_rows, seed=seed)
        self._entries[name] = stats
        self._mutations[name] = 0
        # Fresh ground truth supersedes every runtime correction.
        self._discard_feedback(name)
        self.epoch += 1
        return stats

    def drop(self, name: str) -> None:
        self._entries.pop(name, None)
        self._mutations.pop(name, None)
        self._discard_feedback(name)
        self.epoch += 1

    def _discard_feedback(self, name: str) -> None:
        self._force_stale.discard(name)
        stale_keys = [entry for entry in self._feedback if entry[0] == name]
        for entry in stale_keys:
            del self._feedback[entry]

    # -- reads ----------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._entries)

    def get(self, name: str, allow_stale: bool = False) -> Optional[RelationStats]:
        """The entry for ``name``; ``None`` when absent or stale."""
        stats = self._entries.get(name)
        if stats is None:
            return None
        if not allow_stale and self.is_stale(name):
            return None
        return stats

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __len__(self) -> int:
        return len(self._entries)

    # -- staleness ------------------------------------------------------

    def record_mutations(self, name: str, count: int) -> None:
        """Account ``count`` inserted/deleted rows against ``name``."""
        if count < 0:
            raise SchemaError("mutation counts only accumulate")
        if name in self._entries:
            was_stale = self.is_stale(name)
            self._mutations[name] = self._mutations.get(name, 0) + count
            if self.is_stale(name) != was_stale:
                self.epoch += 1

    def mutations_since_analyze(self, name: str) -> int:
        return self._mutations.get(name, 0)

    def stale_threshold(self, name: str) -> int:
        stats = self._entries.get(name)
        rows = stats.rows if stats is not None else 0
        return max(self._stale_min, int(rows * self._stale_fraction))

    def is_stale(self, name: str) -> bool:
        if name not in self._entries:
            return False
        if name in self._force_stale:
            return True
        return self._mutations.get(name, 0) > self.stale_threshold(name)

    def mark_stale(self, name: str) -> None:
        """Force ``name`` stale regardless of its mutation ledger.

        The feedback loop calls this after repeated *severe*
        misestimates: the ANALYZE entry is evidently wrong about the
        live data even though no mutations were recorded through the
        transaction layer.  A fresh :meth:`analyze` clears the mark.
        """
        if name in self._entries and name not in self._force_stale:
            self._force_stale.add(name)
            self.epoch += 1

    def stale_names(self) -> List[str]:
        return sorted(name for name in self._entries if self.is_stale(name))

    # -- execution feedback overlay -------------------------------------

    def record_feedback(
        self, name: str, key: Optional[str], rows: int
    ) -> None:
        """Install one observed cardinality: ``rows`` for ``key``.

        ``key`` is a :func:`feedback_key` string for an equality
        predicate over ``name``, or ``None`` for the relation's own
        observed row count (a Scan correction).  The overlay is FIFO
        bounded at ``feedback_max`` entries and never touches the
        ANALYZE ground truth.
        """
        if rows < 0:
            raise SchemaError("observed cardinalities are non-negative")
        entry = (name, key)
        if self._feedback.get(entry) == rows:
            return
        if entry not in self._feedback and \
                len(self._feedback) >= self._feedback_max:
            oldest = next(iter(self._feedback))
            del self._feedback[oldest]
        self._feedback[entry] = int(rows)
        self.epoch += 1

    def feedback_rows(self, name: str, key: Optional[str]) -> Optional[int]:
        """The overlay correction for ``(name, key)``, or ``None``."""
        return self._feedback.get((name, key))

    def feedback_entries(self) -> Dict[Tuple[str, Optional[str]], int]:
        """A copy of the live overlay (insertion order preserved)."""
        return dict(self._feedback)

    # -- serialization --------------------------------------------------

    def to_xset(self) -> XSet:
        """The whole catalog as one canonical XSet value.

        Mutation counters travel too: a checkpointed catalog restored
        after recovery keeps its staleness accounting.
        """
        return xtuple([
            xtuple([
                name,
                self._entries[name].to_xset(),
                self._mutations.get(name, 0),
            ])
            for name in sorted(self._entries)
        ])

    @classmethod
    def from_xset(cls, value: XSet) -> "StatsCatalog":
        catalog = cls()
        for entry in value.as_tuple():
            name, stats, mutations = entry.as_tuple()
            catalog._entries[name] = RelationStats.from_xset(stats)
            catalog._mutations[name] = mutations
        return catalog

    def __repr__(self) -> str:
        return "StatsCatalog(%s)" % ", ".join(
            "%s=%dr" % (name, self._entries[name].rows)
            for name in sorted(self._entries)
        ) if self._entries else "StatsCatalog(empty)"
