"""The asyncio TCP server: admission-gated, fault-injectable, drainable.

One event loop, one task per connection, sequential request dispatch
per connection -- the concurrency model matches the rest of the repo
(deterministic, no threads).  Frames are decoded in the transport's
data callback, where the bytes land, and queued for the connection's
task; a request spawns no task of its own.  The pieces:

* **Handshake**: the first frame must be HELLO (protocol version,
  optional auth token, client id, priority class); the reply is
  WELCOME with the server-assigned session id, the MVCC version the
  session is pinned to, and the session's trace id -- the causal
  thread every later span on either side of the wire carries.
* **Front door**: every QUERY/EXECUTE/MUTATE asks the
  :class:`~repro.gov.admission.AdmissionController` for a slot first,
  so overload sheds work *before* it runs, with the controller's
  deterministic ``retry_after_s`` hint riding the ERROR frame.
* **Fault injection**: every outgoing frame passes through a
  :class:`~repro.relational.faults.NetworkFaultInjector`, which may
  delay it, tear it (send a prefix and abort), or drop the connection
  -- the same seeded-schedule determinism the storage and cluster
  layers already have, moved to the wire.
* **Slow consumers**: a send that cannot drain within
  ``send_timeout_s`` (:func:`~repro.server.protocol.within`) sheds the
  connection (typed :class:`~repro.errors.NetworkError` recorded,
  transport aborted) instead of letting one stalled reader pin server
  buffers.
* **Idempotent writes**: MUTATE results are cached by
  ``(client_id, request_id)`` *before* the ack is sent, so a client
  that lost the ack can retry the same request id and get the original
  commit version back -- an acknowledged write is never applied twice.
* **Graceful drain**: :meth:`Server.drain` stops accepting, sheds
  in-flight work below the admission controller's priority line with
  a deterministic retry-after, lets higher-priority requests finish
  within ``drain_timeout_s``, says GOODBYE to everyone, and flushes
  the flight recorder's incidents to ``incident_log``.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.errors import (
    NetworkError,
    OverloadedError,
    SessionError,
    XSTError,
)
from repro.gov.admission import AdmissionController, PRIORITY_CRITICAL
from repro.obs.recorder import recorder
from repro.obs.trace import TraceContext, tracer
from repro.relational.faults import NO_NETWORK_FAULTS, NetworkFaultInjector
from repro.relational.ivm.cache import QueryResultCache
from repro.relational.relation import _positional
from repro.relational.sql import run as run_xql
from repro.relational.tx import TransactionManager
from repro.server.protocol import (
    FrameDecoder,
    FrameType,
    PROTOCOL_VERSION,
    encode_frame,
    error_body,
    within,
)
from repro.server.session import Session

__all__ = ["Server"]


class _Hangup(Exception):
    """Internal: abort this connection immediately (injected fault,
    slow consumer, or drain deadline) -- never leaves the server."""


class _FrameReader(asyncio.StreamReader):
    """A connection's inbound side, decoded in the transport's callbacks.

    The protocol hands each chunk to :meth:`feed_data` as it lands; the
    frames it completes go straight onto ``frames``, the connection's
    queue, with no reader task between.  A CANCEL marks its id in
    ``cancelled`` here, out of band, so the page loop sees it at the
    next page edge while a result streams.  The stream ends with
    ``eof`` (clean close or lost connection) or ``error`` (framing
    damage or a torn tail); whatever is queued after that is never read.
    """

    def __init__(self) -> None:
        super().__init__()
        self.decoder = FrameDecoder()
        self.frames: "asyncio.Queue[Tuple[str, Any]]" = asyncio.Queue()
        self.cancelled: Set[str] = set()

    def feed_data(self, data: bytes) -> None:
        try:
            frames = self.decoder.feed(data)
        except NetworkError as err:
            self.frames.put_nowait(("error", err))
            return
        for ftype, body in frames:
            if ftype == FrameType.CANCEL:
                rid = body.get("id")
                if isinstance(rid, str) and rid:
                    self.cancelled.add(rid)
            self.frames.put_nowait(("frame", (ftype, body)))

    def feed_eof(self) -> None:
        super().feed_eof()
        try:
            self.decoder.finish()
        except NetworkError as err:
            self.frames.put_nowait(("error", err))
            return
        self.frames.put_nowait(("eof", None))

    def set_exception(self, exc: BaseException) -> None:
        # A reset peer ends the stream as a close does, so the serve
        # task wakes and releases the session and its snapshot.
        super().set_exception(exc)
        self.frames.put_nowait(("eof", None))


class _Connection:
    """Book-keeping for one accepted socket."""

    def __init__(self, conn_id: int,
                 reader: _FrameReader,
                 writer: asyncio.StreamWriter):
        self.conn_id = conn_id
        self.writer = writer
        self.frames = reader.frames
        self.cancelled = reader.cancelled
        self.session: Optional[Session] = None
        self.trace: Optional[TraceContext] = None
        self.client_id = "?"
        self.current_rid: Optional[str] = None
        self.busy = False
        self.draining = False
        self.shed = False


class Server:
    """Serve a :class:`~repro.relational.tx.TransactionManager` over TCP."""

    def __init__(self, manager: TransactionManager, *,
                 token: Optional[str] = None,
                 capacity: int = 8,
                 soft_capacity: Optional[int] = None,
                 max_sessions: int = 32,
                 page_rows: int = 64,
                 send_timeout_s: float = 2.0,
                 drain_timeout_s: float = 1.0,
                 net_faults: NetworkFaultInjector = NO_NETWORK_FAULTS,
                 admission: Optional[AdmissionController] = None,
                 incident_log: Optional[str] = None,
                 result_cache_capacity: int = 0):
        self._manager = manager
        self._token = token
        # Sessions read the manager's committed catalog, so the cache
        # they share is the one it carries (entries fingerprinted by
        # the relations a plan scans, reclaimed by the commit that
        # replaces them).  A manager built without one gets one here.
        if result_cache_capacity > 0 and manager.result_cache is None:
            manager._attach_result_cache(QueryResultCache(
                capacity=result_cache_capacity, name="server"
            ))
        self.admission = admission if admission is not None else \
            AdmissionController(capacity, soft_capacity)
        self.max_sessions = max_sessions
        self.page_rows = max(1, page_rows)
        self.send_timeout_s = send_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.net_faults = net_faults
        self.incident_log = incident_log
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: Set[_Connection] = set()
        self._conn_ids = 0
        self._session_ids = 0
        # (client_id, request_id) -> commit version, insertion-ordered
        # so the cache stays bounded by evicting the oldest acks.
        self._idempotent: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
        self.idempotent_capacity = 256
        self.draining = False
        self.sessions_served = 0
        self.requests_served = 0
        self.connections_aborted = 0
        self.writes_replayed = 0

    @property
    def result_cache(self):
        """The cache served reads share: the manager's, if it has one."""
        return self._manager.result_cache

    # -- lifecycle ------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting; ``port=0`` picks a free port."""
        if self._server is not None:
            raise SessionError("server is already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: asyncio.StreamReaderProtocol(_FrameReader(), self._handle),
            host, port,
        )

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise SessionError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def open_connections(self) -> int:
        return len(self._conns)

    async def close(self) -> None:
        """Hard stop: close the listener and abort every connection."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._conns):
            self._abort(conn)
        await asyncio.sleep(0)

    async def drain(self) -> Dict[str, int]:
        """Graceful shutdown; returns ``{"finished": n, "shed": m,
        "aborted": k}``: of the connections busy when the drain began,
        ``n`` completed their request and left before the deadline and
        ``m`` were shed; ``k`` connections of any kind outlived it.

        Stops accepting, then walks the open connections: idle ones
        get an orderly GOODBYE now; busy ones below the admission
        controller's ``shed_below_priority`` line are shed (their
        in-flight request dies with a typed
        :class:`~repro.errors.OverloadedError` carrying the
        controller's deterministic retry-after); busy ones at or above
        the line may finish their current request, bounded by
        ``drain_timeout_s``, after which stragglers are aborted.
        Finally the flight recorder's incidents are flushed to
        ``incident_log`` when one is configured.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        shed = 0
        allowed = []
        for conn in list(self._conns):
            conn.draining = True
            if not conn.busy:
                conn.frames.put_nowait(("drain", None))
            elif conn.session is not None and \
                    conn.session.priority < self.admission.shed_below_priority:
                conn.shed = True
                shed += 1
            else:
                allowed.append(conn)
        # Busy connections finish (or die shedding) at their next page
        # boundary; poll until everyone is gone or the drain deadline
        # passes, then abort the stragglers.
        waited = 0.0
        step = 0.005
        while self._conns and waited < self.drain_timeout_s:
            await asyncio.sleep(step)
            waited += step
        aborted = len(self._conns)
        finished = sum(1 for conn in allowed if conn not in self._conns)
        for conn in list(self._conns):
            self._abort(conn)
        if self.incident_log is not None and recorder().installed:
            recorder().export_jsonl(self.incident_log)
        return {"finished": finished, "shed": shed, "aborted": aborted}

    # -- connection handling --------------------------------------------

    async def _handle(self, reader: _FrameReader,
                      writer: asyncio.StreamWriter) -> None:
        self._conn_ids += 1
        conn = _Connection(self._conn_ids, reader, writer)
        self._conns.add(conn)
        try:
            await self._serve_conn(conn)
        except _Hangup:
            self.connections_aborted += 1
        except ConnectionError:
            pass
        finally:
            if conn.session is not None:
                conn.session.close()
            self._conns.discard(conn)
            try:
                if conn.writer.transport is not None:
                    conn.writer.transport.abort()
            except (RuntimeError, AttributeError):
                pass

    async def _serve_conn(self, conn: _Connection) -> None:
        kind, payload = await conn.frames.get()
        if kind != "frame":
            if kind == "error":
                await self._send_error(conn, payload, None)
            return
        ftype, body = payload
        if ftype != FrameType.HELLO:
            await self._send_error(
                conn,
                SessionError("expected HELLO, got frame type %d" % ftype),
                body.get("id") if isinstance(body, dict) else None,
            )
            return
        try:
            session = self._open_session(body)
        except XSTError as err:
            await self._send_error(conn, err, body.get("id"))
            return
        conn.session = session
        conn.client_id = str(body.get("client", "?"))
        conn.trace = TraceContext(
            "trace-%s" % session.session_id,
            baggage={"session": session.session_id},
        )
        await self._send(conn, FrameType.WELCOME, {
            "session": session.session_id,
            "version": session.version,
            "trace": conn.trace.trace_id,
            "tables": session.snapshot.names(),
        })
        while True:
            if conn.draining:
                await self._goodbye(conn, "draining")
                return
            kind, payload = await conn.frames.get()
            if kind == "error":
                await self._send_error(conn, payload, None)
                return
            if kind == "eof":
                return
            if kind == "drain":
                await self._goodbye(conn, "draining")
                return
            ftype, body = payload
            if ftype == FrameType.GOODBYE:
                await self._send(conn, FrameType.GOODBYE,
                                 {"reason": "goodbye"})
                return
            await self._dispatch(conn, ftype, body)

    def _open_session(self, body: Dict[str, Any]) -> Session:
        if body.get("protocol") != PROTOCOL_VERSION:
            raise SessionError(
                "unsupported protocol %r (server speaks %d)"
                % (body.get("protocol"), PROTOCOL_VERSION)
            )
        if self._token is not None and body.get("token") != self._token:
            raise SessionError("authentication rejected")
        if self.draining:
            raise SessionError(
                "server is draining",
                retry_after_s=self.admission.retry_after_s(),
            )
        open_sessions = sum(1 for c in self._conns if c.session is not None)
        if open_sessions >= self.max_sessions:
            raise SessionError(
                "session table is full (%d open)" % open_sessions,
                retry_after_s=self.admission.retry_after_s(),
            )
        priority = body.get("priority", 1)
        if not isinstance(priority, int) or \
                not 0 <= priority <= PRIORITY_CRITICAL:
            raise SessionError("priority must be an int in [0, %d]"
                               % PRIORITY_CRITICAL)
        self._session_ids += 1
        self.sessions_served += 1
        return Session(
            "s%d" % self._session_ids, self._manager,
            priority=priority,
        )

    # -- request dispatch -----------------------------------------------

    async def _dispatch(self, conn: _Connection, ftype: int,
                        body: Dict[str, Any]) -> None:
        rid = body.get("id")
        if not isinstance(rid, str) or not rid:
            await self._send_error(
                conn, SessionError("requests need a string id"), None
            )
            return
        if ftype == FrameType.CANCEL:
            # The reader already marked it; this is just the ack for a
            # cancel that raced past its target (or targeted nothing).
            # Dispatch is sequential, so by now the target has finished
            # or never existed: forget the id, the set stays bounded.
            conn.cancelled.discard(rid)
            await self._send(conn, FrameType.CANCELLED, {"id": rid})
            return
        session = conn.session
        conn.busy = True
        conn.current_rid = rid
        self.requests_served += 1
        with tracer().span("server.request", kind=ftype, request=rid,
                           session=session.session_id) as span:
            conn.trace.annotate(span)
            try:
                # A body is decoded JSON, so its values have exact
                # types: ``type(x) is`` refuses a malformed one at the
                # door, before admission, at no call on the hot path.
                if ftype == FrameType.QUERY:
                    xql = body.get("xql", "")
                    if type(xql) is not str:
                        raise SessionError(
                            "QUERY xql must be a string",
                            session_id=session.session_id,
                        )
                    await self._run_query(conn, rid, xql)
                elif ftype == FrameType.EXECUTE:
                    args = body.get("args", [])
                    if type(args) is not list:
                        raise SessionError(
                            "EXECUTE args must be a list",
                            session_id=session.session_id,
                        )
                    template = session.statement(body.get("name", ""),
                                                 args)
                    await self._run_query(conn, rid, template, args)
                elif ftype == FrameType.PREPARE:
                    session.prepare(body.get("name", ""),
                                    body.get("xql", ""))
                    await self._send(conn, FrameType.PREPARED,
                                     {"id": rid, "name": body.get("name")})
                elif ftype == FrameType.MUTATE:
                    await self._run_mutate(conn, rid, body)
                elif ftype == FrameType.REFRESH:
                    version = session.refresh()
                    await self._send(conn, FrameType.REFRESHED,
                                     {"id": rid, "version": version})
                else:
                    raise SessionError(
                        "unexpected frame type %d" % ftype,
                        session_id=session.session_id,
                    )
            except _Hangup:
                raise
            except Exception as err:  # typed or not, never kill the loop
                span.set("error", getattr(err, "code", "ERROR"))
                await self._send_error(conn, err, rid)
            finally:
                conn.busy = False
                conn.current_rid = None

    def _check_shed(self, conn: _Connection, rid: str) -> None:
        if conn.shed:
            raise OverloadedError(
                self.admission.in_flight, self.admission.capacity,
                self.admission.retry_after_s(), reason="draining",
            )

    async def _run_query(self, conn: _Connection, rid: str,
                         xql: str, args: Sequence[Any] = ()) -> None:
        session = conn.session
        self._check_shed(conn, rid)
        with self.admission.admitted(session.priority):
            relation = run_xql(session.database(), xql, args=args)
        heading = list(relation.heading.names)
        # The answer's run as it stands: values in heading order, rows in
        # canonical order, with no Python call per row.
        rows = _positional(heading, relation.iter_dicts())
        total, sent, seq = len(rows), 0, 0
        while True:
            if rid in conn.cancelled:
                await self._send(conn, FrameType.CANCELLED, {"id": rid})
                return
            self._check_shed(conn, rid)
            chunk = rows[sent:sent + self.page_rows]
            last = sent + len(chunk) >= total
            await self._send(conn, FrameType.PAGE, {
                "id": rid, "seq": seq, "heading": heading,
                "rows": chunk, "last": last,
                "version": session.version,
            })
            sent += len(chunk)
            seq += 1
            if last:
                return
            # Yield a loop turn so the transport can deliver a CANCEL
            # between pages.
            await asyncio.sleep(0)

    async def _run_mutate(self, conn: _Connection, rid: str,
                          body: Dict[str, Any]) -> None:
        session = conn.session
        key = (conn.client_id, rid)
        cached = self._idempotent.get(key)
        if cached is not None:
            # A retry of an acknowledged write: replay the original
            # ack, never the write.
            self.writes_replayed += 1
            await self._send(conn, FrameType.COMMITTED, {
                "id": rid, "version": cached, "replayed": True,
            })
            return
        ops = body.get("ops", [])
        if type(ops) is not list:
            raise SessionError("MUTATE ops must be a list",
                               session_id=session.session_id)
        writes = session.writes(ops)  # refused here, before admission
        self._check_shed(conn, rid)
        with self.admission.admitted(session.priority):
            version = session.mutate(writes)
        # Remember the ack *before* sending it: if the send dies on
        # the wire, the client's retry finds the cache and the write
        # is not applied twice.
        self._idempotent[key] = version
        while len(self._idempotent) > self.idempotent_capacity:
            self._idempotent.popitem(last=False)
        await self._send(conn, FrameType.COMMITTED, {
            "id": rid, "version": version, "replayed": False,
        })

    # -- the instrumented send path -------------------------------------

    async def _send(self, conn: _Connection, ftype: int,
                    body: Dict[str, Any]) -> None:
        data = encode_frame(ftype, body)
        action, payload, delay_s = self.net_faults.on_frame(data)
        if delay_s > 0.0:
            await asyncio.sleep(delay_s)
        if action == "drop":
            raise _Hangup("injected connection drop")
        conn.writer.write(payload)
        try:
            await within(conn.writer.drain(), self.send_timeout_s)
        except asyncio.TimeoutError:
            # Constructing the typed error snapshots recorder context;
            # the connection is then shed so one stalled reader cannot
            # pin server buffers.
            NetworkError(
                "slow consumer: send stalled past %.3fs"
                % self.send_timeout_s
            )
            raise _Hangup("slow consumer") from None
        except ConnectionError:
            raise _Hangup("peer went away") from None
        if action == "tear":
            raise _Hangup("injected torn frame")

    async def _send_error(self, conn: _Connection, error: Exception,
                          rid: Optional[str]) -> None:
        await self._send(conn, FrameType.ERROR, error_body(error, rid))

    async def _goodbye(self, conn: _Connection, reason: str) -> None:
        try:
            await self._send(conn, FrameType.GOODBYE, {
                "reason": reason,
                "retry_after_s": self.admission.retry_after_s(),
            })
        except _Hangup:
            pass

    def _abort(self, conn: _Connection) -> None:
        try:
            if conn.writer.transport is not None:
                conn.writer.transport.abort()
        except (RuntimeError, AttributeError):
            pass
        if conn.session is not None:
            conn.session.close()
        self._conns.discard(conn)

    def __repr__(self) -> str:
        return "Server(%d connections, %d sessions served%s)" % (
            len(self._conns), self.sessions_served,
            ", draining" if self.draining else "",
        )
