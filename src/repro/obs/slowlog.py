"""Bounded slow-query log with reservoir-sampled normals.

Every digest the obs path produces (:mod:`repro.obs.digest`) is
offered to the process-global :class:`SlowQueryLog`.  Queries at or
over the latency threshold are *always* kept (up to the slow
capacity, oldest evicted first); queries under it enter a classic
Vitter reservoir so the log retains an unbiased sample of normal
traffic for baseline comparison without growing with the workload.

The reservoir uses its own seeded :class:`random.Random` stream, so a
fixed seed plus a fixed workload reproduces the exact same sample --
the determinism contract the chaos tests pin everywhere else applies
to the slow-query log too.

Export is JSONL (one digest per line, sorted keys) consumed by the
``repro obs-report`` CLI, which ranks entries by latency.
"""

from __future__ import annotations

import json
import os
import random
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.digest import QueryDigest, add_digest_sink

__all__ = ["SlowQueryLog", "slowlog", "configure"]

#: Latency at or above which a query is unconditionally logged.
DEFAULT_THRESHOLD_S = 0.050

#: How many slow entries are retained (oldest evicted first).
DEFAULT_SLOW_CAPACITY = 256

#: Reservoir size for sub-threshold "normal" queries.
DEFAULT_RESERVOIR_SIZE = 64

#: Seed for the reservoir's private random stream.
DEFAULT_SEED = 101


class SlowQueryLog:
    """Threshold log + reservoir sample over query digests."""

    def __init__(
        self,
        threshold_s: float = DEFAULT_THRESHOLD_S,
        slow_capacity: int = DEFAULT_SLOW_CAPACITY,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        seed: int = DEFAULT_SEED,
        path: Optional[str] = None,
    ):
        if slow_capacity < 1 or reservoir_size < 1:
            raise ValueError("slow-query log capacities must be positive")
        self.threshold_s = threshold_s
        self.path = path
        self._slow: deque = deque(maxlen=slow_capacity)
        self._reservoir: List[QueryDigest] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._seed = seed
        self._seen_normal = 0
        self._seen_total = 0

    # -- recording -----------------------------------------------------

    def record(self, digest: QueryDigest) -> None:
        """Offer one digest; slow entries always land, normals sample."""
        self._seen_total += 1
        if digest.wall_s >= self.threshold_s or digest.status != "ok":
            self._slow.append(digest)
            self._sink(digest)
            return
        self._seen_normal += 1
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(digest)
            return
        slot = self._rng.randrange(self._seen_normal)
        if slot < self._reservoir_size:
            self._reservoir[slot] = digest

    def _sink(self, digest: QueryDigest) -> None:
        if self.path is None:
            return
        with open(self.path, "a") as handle:
            handle.write(json.dumps(digest.to_dict(), sort_keys=True) + "\n")

    # -- inspection ----------------------------------------------------

    def slow(self) -> List[QueryDigest]:
        """Threshold-or-error entries, oldest first."""
        return list(self._slow)

    def normals(self) -> List[QueryDigest]:
        """The reservoir sample of sub-threshold queries."""
        return list(self._reservoir)

    def entries(self) -> List[QueryDigest]:
        """Everything retained: slow entries then the reservoir."""
        return list(self._slow) + list(self._reservoir)

    def top(self, n: int = 10) -> List[QueryDigest]:
        """The ``n`` slowest retained digests.

        Ties break on plan hash so the ordering is deterministic even
        when wall times collide (common under a fake clock).
        """
        return sorted(
            self.entries(),
            key=lambda digest: (-digest.wall_s, digest.plan_hash),
        )[:n]

    def stats(self) -> Dict[str, Any]:
        return {
            "seen": self._seen_total,
            "slow": len(self._slow),
            "sampled": len(self._reservoir),
            "threshold_s": self.threshold_s,
            "seed": self._seed,
        }

    # -- export and lifecycle ------------------------------------------

    def export_jsonl(self, destination) -> int:
        """Write every retained digest as JSON lines; returns the count.

        Slow entries first (oldest first), then the reservoir -- each
        line tagged ``"kind": "slow"`` or ``"kind": "sample"`` so the
        report CLI can separate tails from baseline.
        """
        records = [
            dict(digest.to_dict(), kind="slow") for digest in self._slow
        ] + [
            dict(digest.to_dict(), kind="sample")
            for digest in self._reservoir
        ]
        if hasattr(destination, "write"):
            for record in records:
                destination.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            with open(destination, "w") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def reset(self) -> None:
        """Drop all entries and rewind the sampling stream."""
        self._slow.clear()
        self._reservoir = []
        self._rng = random.Random(self._seed)
        self._seen_normal = 0
        self._seen_total = 0

    def __repr__(self) -> str:
        return "SlowQueryLog(%d slow, %d sampled, >=%.3fs)" % (
            len(self._slow), len(self._reservoir), self.threshold_s
        )


#: The process-global log the digest pipeline records into.  A JSONL
#: sink can be attached at import time via ``REPRO_SLOWLOG=<path>``.
_SLOWLOG = SlowQueryLog(path=os.environ.get("REPRO_SLOWLOG") or None)


def slowlog() -> SlowQueryLog:
    """The process-global slow-query log."""
    return _SLOWLOG


def configure(
    threshold_s: Optional[float] = None,
    slow_capacity: Optional[int] = None,
    reservoir_size: Optional[int] = None,
    seed: Optional[int] = None,
    path: Optional[str] = None,
) -> SlowQueryLog:
    """Replace the global log's tuning; existing entries are dropped.

    Only the parameters passed change; the rest keep current values.
    Returns the reconfigured log.
    """
    global _SLOWLOG
    current = _SLOWLOG
    _SLOWLOG = SlowQueryLog(
        threshold_s=(
            current.threshold_s if threshold_s is None else threshold_s
        ),
        slow_capacity=(
            current._slow.maxlen if slow_capacity is None else slow_capacity
        ),
        reservoir_size=(
            current._reservoir_size
            if reservoir_size is None else reservoir_size
        ),
        seed=current._seed if seed is None else seed,
        path=current.path if path is None else path,
    )
    return _SLOWLOG


def _record(digest: QueryDigest) -> None:
    _SLOWLOG.record(digest)


add_digest_sink(_record)
