"""Timing shims and the in-memory span store for the traced round.

The benchmark measures layers from outside: :func:`install` wraps the
public entry points of each layer -- module-level functions where the
*calling* module looks the name up, methods on their class, commit
listeners by shimming the public ``TransactionManager.subscribe`` --
and every call made while a request is open records one span
``[layer, name, start, end, parent, request]``.  Nothing in ``src/``
is edited; spans inside the program are a later change (ROADMAP 5).

One request is outstanding at a time and the server runs on the same
event loop as the clients, so a single stack of open spans is enough:
the root is the client call, and whatever synchronous stretch runs
next -- on either side of the socket -- nests under it.

A layer's *self time* is its spans' duration minus the part covered by
child spans.  The root span's uncovered time is split at two instants:
the start of the server's decode of the request frame and the end of
its last reply encode.  Inside that window it is
``server.service`` residual (``Server._dispatch``, the page loop, the
pump/serve task hand-off); outside it is ``server.client`` self time
(the retry loop, the socket hop and the loop wake-up in both
directions).
"""

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

import repro.relational.sql as sql
import repro.relational.wal as wal
import repro.server.client as client_mod
import repro.server.service as service
from repro.errors import WriteConflictError
from repro.gov.admission import AdmissionController
from repro.relational.constraints import Table
from repro.relational.ivm.cache import QueryResultCache
from repro.relational.ivm.delta import Delta, DeltaPropagator
from repro.relational.query import Database
from repro.relational.relation import Relation
from repro.relational.tx import TransactionManager
from repro.relational.wal import WriteAheadLog
from repro.server.client import Client
from repro.server.protocol import FrameDecoder, FrameType
from repro.server.session import Session

LAYER, NAME, START, END, PARENT, REQUEST = range(6)

ROOT_LAYER = "server.client"
RESIDUAL_LAYER = "server.service"


class Tracer:
    """Span store plus the counters taken at the same boundaries.

    ``spans`` and ``stack`` are plain lists the shims touch directly:
    a shim costs a few microseconds and a point read crosses fifteen.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []    # indices of the open spans
        self.counts: Counter = Counter()
        self.armed = False            # record roots (off during warm-up)
        self.session_dbs: Dict[int, Any] = {}   # id(session) -> last db

    def number_requests(self) -> int:
        """Fill in each span's request id (its root's ordinal)."""
        requests = 0
        for span in self.spans:
            if span[PARENT] < 0:
                span[REQUEST] = requests
                requests += 1
            else:
                span[REQUEST] = self.spans[span[PARENT]][REQUEST]
        return requests

    def dump(self, path: str) -> None:
        """One JSON object per span; times in seconds from the first."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            for layer, name, start, end, parent, request in self.spans:
                out.write(json.dumps({
                    "layer": layer, "name": name,
                    "start": start - origin, "end": end - origin,
                    "parent": parent, "request": request,
                }) + "\n")


def load(path: str) -> List[List[Any]]:
    """Read back what :meth:`Tracer.dump` wrote."""
    spans = []
    with open(path) as lines:
        for line in lines:
            row = json.loads(line)
            spans.append([row["layer"], row["name"], row["start"],
                          row["end"], row["parent"], row["request"]])
    return spans


# ----------------------------------------------------------------------
# Shim factories
# ----------------------------------------------------------------------

Note = Optional[Callable[[Tracer, List[Any], tuple, Any], None]]


def _sync(tracer: Tracer, layer: str, name: str, fn: Callable,
          note: Note = None) -> Callable:
    spans, stack, clock = tracer.spans, tracer.stack, time.perf_counter

    def shim(*args, **kwargs):
        if not stack:                 # not inside a traced request
            return fn(*args, **kwargs)
        span = [layer, name, 0.0, 0.0, stack[-1], -1]
        stack.append(len(spans))
        spans.append(span)
        span[START] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = clock()
            stack.pop()
        if note is not None:
            note(tracer, span, args, result)
        return result
    return shim


def _context(tracer: Tracer, layer: str, name: str, fn: Callable) -> Callable:
    spans, stack, clock = tracer.spans, tracer.stack, time.perf_counter

    @contextmanager
    def shim(*args, **kwargs):
        if not stack:
            with fn(*args, **kwargs) as value:
                yield value
            return
        span = [layer, name, 0.0, 0.0, stack[-1], -1]
        stack.append(len(spans))
        spans.append(span)
        span[START] = clock()
        try:
            with fn(*args, **kwargs) as value:
                yield value
        finally:
            span[END] = clock()
            stack.pop()
    return shim


def _root(tracer: Tracer, name: str, fn: Callable) -> Callable:
    spans, stack, clock = tracer.spans, tracer.stack, time.perf_counter

    async def shim(*args, **kwargs):
        if not tracer.armed:
            return await fn(*args, **kwargs)
        span = [ROOT_LAYER, name, 0.0, 0.0, -1, -1]
        stack.append(len(spans))
        spans.append(span)
        span[START] = clock()
        try:
            return await fn(*args, **kwargs)
        finally:
            span[END] = clock()
            stack.pop()
    return shim


def listener_layer(listener: Callable) -> str:
    """``relational.views`` for ``ViewCatalog._on_commit`` and so on."""
    owner = getattr(listener, "__self__", None)
    module = listener.__module__ if owner is None \
        else type(owner).__module__
    return module.removeprefix("repro.")


# ----------------------------------------------------------------------
# Counters read at the shimmed boundaries
# ----------------------------------------------------------------------

_REPLY_TYPES = frozenset((
    FrameType.WELCOME, FrameType.PAGE, FrameType.PREPARED,
    FrameType.COMMITTED, FrameType.REFRESHED, FrameType.CANCELLED,
    FrameType.ERROR,
))


def _note_encode(tracer, span, args, result):
    reply = args[0] in _REPLY_TYPES
    span[NAME] = "encode_frame.reply" if reply else "encode_frame.request"
    tracer.counts["wire_bytes"] += len(result)
    tracer.counts["frames"] += 1
    if args[0] == FrameType.PAGE:
        tracer.counts["pages"] += 1


def _note_feed(tracer, span, args, result):
    if result:
        reply = result[0][0] in _REPLY_TYPES
        span[NAME] = "feed.reply" if reply else "feed.request"


def _note_execute(tracer, span, args, result):
    # Only executions sql.run asked for answer a client; the view
    # catalog's own (maintenance) executions nest under a listener.
    if tracer.spans[span[PARENT]][LAYER] == "relational.sql":
        tracer.counts["rows_out"] += result.cardinality()


def _note_rows(tracer, span, args, result):
    tracer.counts["rows_materialized"] += len(result)


def _note_database(tracer, span, args, result):
    session = args[0]
    if tracer.session_dbs.get(id(session)) is not result:
        tracer.session_dbs[id(session)] = result
        tracer.counts["db_builds"] += 1


def _counting_conflicts(tracer: Tracer, mutate: Callable) -> Callable:
    def shim(self, ops):
        try:
            return mutate(self, ops)
        except WriteConflictError:
            tracer.counts["conflicts"] += 1
            raise
    return shim


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def shim_subscribe(wrap: Callable[[Callable], Callable]) -> None:
    """Route every later ``TransactionManager.subscribe`` through
    ``wrap`` -- call before the view catalog and server are built."""
    subscribe = TransactionManager.subscribe

    def shim(self, listener):
        return subscribe(self, wrap(listener))
    TransactionManager.subscribe = shim


def install() -> Tracer:
    """Patch every layer's public entry points; returns the tracer.

    Runs once in a traced child process, which exits afterwards, so
    nothing is ever un-patched.
    """
    tracer = Tracer()

    def method(cls, attr, layer, note=None):
        setattr(cls, attr, _sync(tracer, layer,
                                 "%s.%s" % (cls.__name__, attr),
                                 getattr(cls, attr), note))

    for attr in ("query", "execute", "mutate", "refresh"):
        setattr(Client, attr, _root(tracer, attr, getattr(Client, attr)))

    # encode_frame is imported by name into both endpoints.
    encode = _sync(tracer, "server.protocol", "encode_frame",
                   service.encode_frame, _note_encode)
    service.encode_frame = encode
    client_mod.encode_frame = encode
    method(FrameDecoder, "feed", "server.protocol", _note_feed)

    AdmissionController.admitted = _context(
        tracer, "gov.admission", "AdmissionController.admitted",
        AdmissionController.admitted)

    Session.mutate = _counting_conflicts(tracer, Session.mutate)
    method(Session, "mutate", "server.session")
    method(Session, "database", "server.session", _note_database)
    method(Session, "statement", "server.session")
    method(Session, "refresh", "server.session")

    service.run_xql = _sync(tracer, "relational.sql", "run",
                            service.run_xql)
    sql.parse_query = _sync(tracer, "relational.sql", "parse_query",
                            sql.parse_query)
    sql.compile_query = _sync(tracer, "relational.sql", "compile_query",
                              sql.compile_query)
    sql.optimize = _sync(tracer, "relational.optimizer", "optimize",
                         sql.optimize)
    sql.aggregate = _sync(tracer, "relational.aggregate", "aggregate",
                          sql.aggregate)

    for attr in ("lookup", "store", "invalidate_tables"):
        method(QueryResultCache, attr, "relational.ivm.cache")
    method(Database, "execute", "relational.query", _note_execute)

    method(Relation, "to_rows", "relational.relation", _note_rows)
    Relation.from_tuples = classmethod(_sync(
        tracer, "relational.relation", "Relation.from_tuples",
        Relation.__dict__["from_tuples"].__func__, _note_rows))

    for attr in ("insert", "update", "delete", "check_now"):
        method(Table, attr, "relational.constraints")
    TransactionManager.transaction = _context(
        tracer, "relational.tx", "TransactionManager.transaction",
        TransactionManager.transaction)
    method(TransactionManager, "snapshot", "relational.tx")
    method(WriteAheadLog, "append", "relational.wal")
    # wal.py reaches fsync through the os module, so that is where the
    # caller looks the name up; it nests under append.
    wal.os.fsync = _sync(tracer, "relational.wal", "fsync", os.fsync)

    method(DeltaPropagator, "delta", "relational.ivm.delta")
    method(Delta, "apply_to", "relational.ivm.delta")
    shim_subscribe(lambda listener: _sync(
        tracer, listener_layer(listener), "listener", listener))
    return tracer


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

def attribute(spans: List[List[Any]]) -> Dict[str, Any]:
    """Self time per layer and per ``(layer, name)``, in seconds.

    Returns ``{"layers": {layer: s}, "names": {(layer, name): s},
    "inclusive": {(layer, name): s}, "calls": {(layer, name): n},
    "traced_s": total root time, "residual_s": server.service
    residual, "requests": n}``.  ``sum(layers.values()) == traced_s``
    up to float rounding, by construction.
    """
    covered = [0.0] * len(spans)
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
            if spans[span[PARENT]][PARENT] < 0:
                children.setdefault(span[PARENT], []).append(index)
    window: Dict[int, List[Optional[float]]] = {}
    for span in spans:
        if span[NAME] == "feed.request":
            window.setdefault(span[REQUEST], [span[START], None])
        elif span[NAME] == "encode_frame.reply" and \
                span[REQUEST] in window:
            window[span[REQUEST]][1] = span[END]
    layers: Counter = Counter()
    names: Counter = Counter()
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    traced = residual = 0.0
    requests = 0
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        key = (span[LAYER], span[NAME])
        inclusive[key] += duration
        calls[key] += 1
        own = duration - covered[index]
        if span[PARENT] < 0:
            requests += 1
            traced += duration
            inside = _uncovered_inside(
                spans, span, children.get(index, ()),
                window.get(span[REQUEST]))
            residual += inside
            layers[RESIDUAL_LAYER] += inside
            own -= inside
        layers[span[LAYER]] += own
        names[key] += own
    return {"layers": dict(layers), "names": dict(names),
            "inclusive": dict(inclusive), "calls": dict(calls),
            "traced_s": traced, "residual_s": residual,
            "requests": requests}


def _uncovered_inside(spans, root, child_indices,
                      window: Optional[List[Optional[float]]]) -> float:
    """Root time no child covers that falls inside the server window."""
    if not window or window[1] is None:
        return 0.0
    low, high = window
    total, cursor = 0.0, root[START]
    for index in child_indices:          # already in start order
        child = spans[index]
        total += _overlap(cursor, child[START], low, high)
        cursor = child[END]
    return total + _overlap(cursor, root[END], low, high)


def _overlap(start: float, end: float, low: float, high: float) -> float:
    return max(0.0, min(end, high) - max(start, low))


def check_parents(spans: List[List[Any]]) -> List[str]:
    """Structural faults: a missing, foreign or non-enclosing parent."""
    faults = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent < 0:
            if span[LAYER] != ROOT_LAYER:
                faults.append("span %d (%s) has no parent" % (index, span))
            continue
        if parent >= index:
            faults.append("span %d names a later parent %d" % (index, parent))
            continue
        above = spans[parent]
        if above[REQUEST] != span[REQUEST]:
            faults.append("span %d crosses requests" % index)
        if not (above[START] <= span[START] and span[END] <= above[END]):
            faults.append("span %d is not inside its parent" % index)
    return faults
