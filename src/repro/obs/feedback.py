"""Planner feedback loop: executed cardinalities correct future plans.

Classic cost-based planning is open-loop: ANALYZE measures once, every
plan after that trusts the snapshot.  This module closes the loop
using the digests the observability path already produces
(:mod:`repro.obs.digest`): whenever an executed plan node's q-error
exceeds a threshold, the *actual* cardinality is written back into the
:class:`~repro.relational.stats.StatsCatalog` as a bounded overlay
correction -- never mutating the ANALYZE ground truth -- so the next
plan over the same shape estimates from evidence.

A loop holds the catalog it corrects, not a database, and is switched
on where the slow log and the flight recorder are::

    loop = FeedbackLoop(db.stats)
    add_digest_sink(loop.consume)      # ... remove_digest_sink to stop

so it keeps learning across commits (every catalog value a
:class:`~repro.relational.tx.TransactionManager` produces carries the
same ``StatsCatalog``).  A digest names relations, not catalogs: a
registered loop learns from every observed execution in the process.

Two kinds of corrections are learned, both anchored at base relations
(where the estimator can reuse them):

* **Scan row counts** -- the relation's live cardinality, when the
  catalog's row count has drifted;
* **equality-predicate cardinalities** -- keyed by
  :func:`~repro.relational.stats.feedback_key` over a ``SelectEq``
  directly above a ``Scan``, exactly the shape the estimator consults.

Repeated *severe* misestimates (q-error >=
:data:`SEVERE_QERROR`, :data:`SEVERE_STRIKES` strikes) additionally
force the relation's catalog entry stale via
:meth:`~repro.relational.stats.StatsCatalog.mark_stale`, steering the
owner toward a fresh ANALYZE; :meth:`FeedbackLoop.reanalyze_stale`
runs it on demand.

Safety: feedback only ever changes *estimates*, and estimates only
steer plan choice among algebraically equivalent plans -- the
Hypothesis property in ``tests/obs/test_feedback.py`` pins
feedback-on answers equal to feedback-off answers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.digest import QueryDigest

__all__ = [
    "FeedbackLoop",
    "QERROR_THRESHOLD",
    "SEVERE_QERROR",
    "SEVERE_STRIKES",
]

#: Per-node q-error at or above which a correction is recorded.
QERROR_THRESHOLD = 2.0

#: A q-error at or above this counts as a *severe* strike...
SEVERE_QERROR = 10.0

#: ...and this many strikes force the relation's entry stale.
SEVERE_STRIKES = 3


class FeedbackLoop:
    """Consumes digests, writes overlay corrections into ``stats``."""

    def __init__(
        self,
        stats,
        qerror_threshold: float = QERROR_THRESHOLD,
        severe_qerror: float = SEVERE_QERROR,
        severe_strikes: int = SEVERE_STRIKES,
    ):
        if qerror_threshold < 1.0:
            raise ValueError("q-error thresholds start at 1.0 (perfect)")
        self._catalog = stats
        self.qerror_threshold = qerror_threshold
        self.severe_qerror = severe_qerror
        self.severe_strikes = severe_strikes
        self._strikes: Dict[str, int] = {}
        self.corrections = 0
        self.marked_stale: List[str] = []

    # -- intake ---------------------------------------------------------

    def consume(self, digest: QueryDigest) -> int:
        """Learn from one digest; returns corrections recorded.

        Only nodes carrying both an estimate and a base-relation
        anchor (``relation``, optionally ``conditions``) are
        considered; failed queries still teach (their completed nodes
        measured real cardinalities before the error).
        """
        catalog = self._catalog
        recorded = 0
        for node in digest.nodes:
            error = node.get("q_error")
            relation = node.get("relation")
            if error is None or relation is None:
                continue
            if error < self.qerror_threshold:
                continue
            actual = int(node.get("actual_rows", node.get("rows", 0)))
            key = node.get("conditions")
            catalog.record_feedback(relation, key, actual)
            recorded += 1
            if error >= self.severe_qerror:
                strikes = self._strikes.get(relation, 0) + 1
                self._strikes[relation] = strikes
                if strikes >= self.severe_strikes and \
                        not catalog.is_stale(relation):
                    catalog.mark_stale(relation)
                    self.marked_stale.append(relation)
        self.corrections += recorded
        return recorded

    # -- maintenance ----------------------------------------------------

    def reanalyze_stale(self, db, seed: int = 0) -> List[str]:
        """Re-ANALYZE every stale relation ``db`` holds, from ``db``'s
        rows; returns the names refreshed.

        This is the loop's closing arc: corrections accumulate, severe
        ones force staleness, and a fresh ANALYZE replaces both the
        drifted ground truth *and* (by catalog contract) drops the
        overlay entries it supersedes.
        """
        present = set(db.names())
        refreshed = [
            name for name in self._catalog.stale_names() if name in present
        ]
        for name in refreshed:
            self._catalog.analyze(name, db.relation(name), seed=seed)
            self._strikes.pop(name, None)
        return refreshed

    def stats(self) -> Dict[str, Any]:
        return {
            "corrections": self.corrections,
            "overlay": len(self._catalog.feedback_entries()),
            "strikes": dict(self._strikes),
            "marked_stale": list(self.marked_stale),
        }

    def __repr__(self) -> str:
        return "FeedbackLoop(%d corrections, %d strikes)" % (
            self.corrections, sum(self._strikes.values())
        )
