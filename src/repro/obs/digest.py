"""Execution digests: one compact, structured record per query.

A :class:`QueryDigest` is the after-the-fact answer to "what did this
query actually do": the canonical plan hash, per-node cardinalities,
which kernel backend served each operator (columnar sorted runs or the
row model), the governor events that fired (checkpoints, budget spent,
the shed/deadline outcome), and the wall/simulated latency.  Digests
are built from the span tree
:func:`repro.relational.profile.execute_spanned` already records, so
there is no second measurement substrate to drift -- the digest *is*
a projection of the trace.

Digests feed two consumers:

* the slow-query log (:mod:`repro.obs.slowlog`) keeps the worst and a
  reservoir of the rest, exported as JSONL for ``repro obs-report``;
* the flight recorder (:mod:`repro.obs.recorder`) keeps recent
  digests in its ring so incident records show what ran just before
  a failure.

Everything here is deterministic given deterministic spans: the plan
hash is a CRC-32 of the canonical ``explain()`` text and node records
preserve span order, so two identical runs digest identically.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional

from repro.obs.trace import Span

__all__ = [
    "QueryDigest",
    "build_digest",
    "plan_hash",
    "record_digest",
    "add_digest_sink",
    "remove_digest_sink",
]

#: Span attributes copied verbatim into each digest node record when
#: present.
_NODE_ATTRS = ("node", "backend", "gov_died_at", "gov_checkpoints")


def plan_hash(explain_text: str) -> str:
    """Canonical plan hash: CRC-32 of the ``explain()`` rendering.

    Two structurally identical plans hash identically across runs and
    machines (the explain text is deterministic), so the slow-query
    log can group recurring query shapes under one key.
    """
    return "%08x" % (zlib.crc32(explain_text.encode("utf-8")) & 0xFFFFFFFF)


class QueryDigest:
    """One executed query, compactly: plan, cardinalities, governance.

    ``nodes`` is a flat pre-order list (parents before children, span
    order) of per-operator records; ``gov`` aggregates governor
    events; ``status`` is ``"ok"`` or the typed error code the query
    died with.  :meth:`to_dict` is the JSONL wire format the CLI and
    CI artifacts consume.
    """

    __slots__ = (
        "describe", "plan_hash", "nodes", "backend", "gov",
        "wall_s", "status", "trace_id", "rows",
    )

    def __init__(
        self,
        describe: str,
        hash_value: str,
        nodes: List[Dict[str, Any]],
        backend: str,
        gov: Dict[str, Any],
        wall_s: float,
        status: str = "ok",
        trace_id: Optional[str] = None,
        rows: int = 0,
    ):
        self.describe = describe
        self.plan_hash = hash_value
        self.nodes = nodes
        self.backend = backend
        self.gov = gov
        self.wall_s = wall_s
        self.status = status
        self.trace_id = trace_id
        self.rows = rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "describe": self.describe,
            "plan_hash": self.plan_hash,
            "nodes": [dict(node) for node in self.nodes],
            "backend": self.backend,
            "gov": dict(self.gov),
            "wall_s": self.wall_s,
            "status": self.status,
            "trace_id": self.trace_id,
            "rows": self.rows,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "QueryDigest":
        return cls(
            record.get("describe", ""),
            record.get("plan_hash", ""),
            [dict(node) for node in record.get("nodes", ())],
            record.get("backend", "row"),
            dict(record.get("gov", {})),
            float(record.get("wall_s", 0.0)),
            status=record.get("status", "ok"),
            trace_id=record.get("trace_id"),
            rows=int(record.get("rows", 0)),
        )

    def __repr__(self) -> str:
        return "QueryDigest(%s, %s, %d nodes)" % (
            self.plan_hash, self.status, len(self.nodes)
        )


def _walk(span: Span, nodes: List[Dict[str, Any]], depth: int) -> None:
    record: Dict[str, Any] = {
        "describe": span.name,
        "depth": depth,
        "rows": int(span.attrs.get("rows", 0)),
    }
    for attr in _NODE_ATTRS:
        value = span.attrs.get(attr)
        if value is not None:
            record[attr] = value
    nodes.append(record)
    for child in span.children:
        _walk(child, nodes, depth + 1)


def build_digest(
    root: Span,
    hash_value: str,
    describe: str = "",
    status: str = "ok",
    gov: Optional[Dict[str, Any]] = None,
    trace_id: Optional[str] = None,
) -> QueryDigest:
    """Project one finished span tree into a :class:`QueryDigest`.

    The backend is ``"columnar"`` when any operator span recorded a
    columnar backend attribute, else ``"row"`` -- matching the sticky
    promotion rule of the dispatch (one encoded scan pulls the whole
    subtree onto the batch kernels).
    """
    nodes: List[Dict[str, Any]] = []
    _walk(root, nodes, 0)
    backend = (
        "columnar"
        if any(node.get("backend") == "columnar" for node in nodes)
        else "row"
    )
    return QueryDigest(
        describe or root.name,
        hash_value,
        nodes,
        backend,
        dict(gov or {}),
        root.duration_s,
        status=status,
        trace_id=trace_id,
        rows=nodes[0]["rows"] if nodes else 0,
    )


#: Registered digest consumers, called in registration order with each
#: produced digest.  The slow-query log registers itself on module
#: import, the flight recorder on enable.
_SINKS: List[Callable[[QueryDigest], None]] = []


def add_digest_sink(sink: Callable[[QueryDigest], None]) -> None:
    if sink not in _SINKS:
        _SINKS.append(sink)


def remove_digest_sink(sink: Callable[[QueryDigest], None]) -> None:
    if sink in _SINKS:
        _SINKS.remove(sink)


def record_digest(digest: QueryDigest) -> None:
    """Fan one digest out to every registered consumer."""
    for sink in _SINKS:
        sink(digest)
