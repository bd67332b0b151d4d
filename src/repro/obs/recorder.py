"""Flight recorder: a bounded window of recent events, snapshotted on failure.

The recorder keeps a fixed-size ring of the most recent observability
events -- finished spans, governor cancellations, query digests --
and, whenever a *typed* availability error is constructed (any
:class:`repro.errors.UnavailableError` subclass, or the WAL's
``CorruptLogError``), freezes that window into a structured
**incident record**: the error's class/code/message plus its
structured context attributes, the active trace id, the event window
leading up to the failure, and a small metrics subset (cluster and
governor counters).  Incidents land in a bounded deque and optionally
stream to a JSONL file (``REPRO_INCIDENTS=<path>``), queryable via
``repro obs-incidents``.

Free-when-off is the contract: a disabled recorder installs no
listeners, so span close and error construction each stay at one
global ``None`` check.  Enabling installs the span hook
(:func:`repro.obs.trace.set_span_listener`), the error hook
(:func:`repro.errors.set_error_listener`), and a digest sink; the
governor additionally notifies :func:`notify_gov_event` from its
cancellation path.

Determinism: events carry only span/digest data (deterministic under
a :class:`~repro.obs.trace.FakeClock`) and incident sequence numbers
from a local counter -- no wall clocks, no randomness -- so chaos
incidents are byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import os
from collections import deque
from itertools import count
from typing import Any, Dict, List, Optional

from repro.errors import _ERROR_CONTEXT_ATTRS, set_error_listener
from repro.obs.digest import QueryDigest, add_digest_sink, remove_digest_sink
from repro.obs.metrics import registry
from repro.obs.trace import Span, set_span_listener

__all__ = [
    "FlightRecorder",
    "recorder",
    "enable",
    "disable",
    "notify_gov_event",
]

#: Ring capacity: how many recent events an incident window can hold.
DEFAULT_WINDOW = 64

#: How many incident records are retained (oldest evicted first).
DEFAULT_INCIDENT_CAPACITY = 32

#: Metric families included in incident snapshots.
_INCIDENT_METRIC_PREFIXES = ("repro_cluster", "repro_gov")


def _span_event(span: Span) -> Dict[str, Any]:
    return {
        "event": "span",
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_s": span.start_s,
        "duration_s": span.duration_s,
        "attrs": dict(span.attrs),
    }


class FlightRecorder:
    """Ring buffer of recent events + incident snapshots on typed errors."""

    def __init__(self, window: int = DEFAULT_WINDOW,
                 incident_capacity: int = DEFAULT_INCIDENT_CAPACITY,
                 path: Optional[str] = None):
        if window < 1 or incident_capacity < 1:
            raise ValueError("flight recorder capacities must be positive")
        self.path = path
        self._ring: deque = deque(maxlen=window)
        self._incidents: deque = deque(maxlen=incident_capacity)
        self._seq = count(1)
        self._installed = False
        self._prev_span_listener = None
        self._prev_error_listener = None
        self._in_snapshot = False

    # -- event intake --------------------------------------------------

    def on_span(self, span: Span) -> None:
        self._ring.append(_span_event(span))

    def on_digest(self, digest: QueryDigest) -> None:
        self._ring.append(
            {
                "event": "digest",
                "plan_hash": digest.plan_hash,
                "describe": digest.describe,
                "status": digest.status,
                "wall_s": digest.wall_s,
                "backend": digest.backend,
                "trace_id": digest.trace_id,
            }
        )

    def on_gov_event(self, kind: str, detail: Dict[str, Any]) -> None:
        record = {"event": "gov", "kind": kind}
        record.update(detail)
        self._ring.append(record)

    # -- incident snapshot ---------------------------------------------

    def on_error(self, error: Exception) -> None:
        """Freeze the current window into an incident record.

        Reentrancy-guarded: a listener-induced error while we snapshot
        (or a typed error constructed *by* metric code) must not
        recurse into a second snapshot.
        """
        if self._in_snapshot:
            return
        self._in_snapshot = True
        try:
            self._incidents.append(self._snapshot(error))
        finally:
            self._in_snapshot = False

    def _snapshot(self, error: Exception) -> Dict[str, Any]:
        context: Dict[str, Any] = {}
        for attr in _ERROR_CONTEXT_ATTRS + ("retry_after_s",):
            value = getattr(error, attr, None)
            if value is not None:
                context[attr] = (
                    list(value) if isinstance(value, tuple) else value
                )
        trace_id = None
        for event in reversed(self._ring):
            if event["event"] == "span":
                candidate = event["attrs"].get("trace_id")
            else:
                candidate = event.get("trace_id")
            if candidate is not None:
                trace_id = candidate
                break
        metrics = {
            key: value
            for key, value in sorted(registry().snapshot().items())
            if key.startswith(_INCIDENT_METRIC_PREFIXES)
        }
        incident = {
            "seq": next(self._seq),
            "error": {
                "type": type(error).__name__,
                "code": getattr(error, "code", None),
                "message": str(error),
                "context": context,
            },
            "trace_id": trace_id,
            "window": list(self._ring),
            "metrics": metrics,
        }
        if self.path is not None:
            with open(self.path, "a") as handle:
                handle.write(json.dumps(incident, sort_keys=True) + "\n")
        return incident

    # -- lifecycle -----------------------------------------------------

    def install(self) -> None:
        """Hook span close, error construction, and the digest stream."""
        if self._installed:
            return
        self._prev_span_listener = set_span_listener(self.on_span)
        self._prev_error_listener = set_error_listener(self.on_error)
        add_digest_sink(self.on_digest)
        self._installed = True

    def uninstall(self) -> None:
        """Restore the previous listeners; the window survives."""
        if not self._installed:
            return
        set_span_listener(self._prev_span_listener)
        set_error_listener(self._prev_error_listener)
        remove_digest_sink(self.on_digest)
        self._prev_span_listener = None
        self._prev_error_listener = None
        self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    # -- inspection and export -----------------------------------------

    def window(self) -> List[Dict[str, Any]]:
        """The current ring contents, oldest first."""
        return list(self._ring)

    def incidents(self) -> List[Dict[str, Any]]:
        """Retained incident records, oldest first."""
        return list(self._incidents)

    def export_jsonl(self, destination) -> int:
        """Write retained incidents as JSON lines; returns the count."""
        records = list(self._incidents)
        if hasattr(destination, "write"):
            for record in records:
                destination.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            with open(destination, "w") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def reset(self) -> None:
        """Drop the window, incidents, and sequence numbering."""
        self._ring.clear()
        self._incidents.clear()
        self._seq = count(1)

    def __repr__(self) -> str:
        return "FlightRecorder(%d events, %d incidents%s)" % (
            len(self._ring), len(self._incidents),
            ", installed" if self._installed else ""
        )


#: The process-global recorder; inert until :func:`enable` installs it.
_RECORDER = FlightRecorder(
    path=os.environ.get("REPRO_INCIDENTS") or None
)


def recorder() -> FlightRecorder:
    """The process-global flight recorder (may be uninstalled)."""
    return _RECORDER


def enable() -> FlightRecorder:
    """Install the global recorder's hooks; idempotent."""
    _RECORDER.install()
    return _RECORDER


def disable() -> FlightRecorder:
    """Remove the hooks (window and incidents are kept); idempotent."""
    _RECORDER.uninstall()
    return _RECORDER


def notify_gov_event(kind: str, detail: Dict[str, Any]) -> None:
    """Governor-side hook: record a governance event when enabled.

    The governor calls this from its (already obs-gated) cancellation
    path; when the recorder is not installed this is a cheap no-op.
    """
    if _RECORDER._installed:
        _RECORDER.on_gov_event(kind, detail)
