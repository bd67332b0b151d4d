"""The retrying client: idempotent requests, ledgered backoff.

The client owns the *at-least-once wire, exactly-once effect*
discipline end to end:

* **Idempotent request ids** -- every logical request gets one id from
  a deterministic per-client counter, allocated *before* the first
  attempt and reused verbatim on every retry.  For writes the server
  caches the commit version under ``(client_id, request_id)``, so a
  retry after a lost ack replays the original ack instead of applying
  the write twice.
* **Capped exponential backoff with jitter, drawn against one shared
  Deadline ledger** -- every backoff pause is charged to the client's
  single :class:`~repro.gov.governor.Deadline` as simulated time (the
  PR 4 pattern: one ledger, no per-retry budget resets), so the total
  time a caller can lose to retries is bounded and the retry loop
  dies with a typed :class:`~repro.errors.DeadlineExceededError`
  rather than retrying forever.  Jitter comes from a seeded RNG:
  two clients built with the same seed back off identically.
* **Typed failure, never a hang** -- transport failures of every kind
  (refused/dropped connections, torn frames, streams that end
  mid-result, reads stalled past ``read_timeout_s``) surface as
  :class:`~repro.errors.NetworkError`; the retry loop treats those
  and :class:`~repro.errors.OverloadedError` (honouring the server's
  ``retry_after_s`` hint) as transient, and everything else --
  write conflicts, session rejections, schema errors -- as final.

A result stream is complete only when a PAGE frame says ``last``:
a connection that dies mid-stream is a retryable failure, never a
truncated answer presented as a complete one.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    NetworkError,
    OverloadedError,
    SessionError,
    UnavailableError,
)
from repro.gov.admission import PRIORITY_NORMAL
from repro.gov.governor import Deadline
from repro.relational.relation import Relation
from repro.server.protocol import (
    FrameDecoder,
    FrameType,
    PROTOCOL_VERSION,
    encode_frame,
    error_from_body,
    within,
)

__all__ = ["Client", "connect"]

_READ_CHUNK = 1 << 16


class Client:
    """One logical client; survives reconnects with stable identity."""

    def __init__(self, host: str, port: int, *,
                 token: Optional[str] = None,
                 client_id: str = "c0",
                 priority: int = PRIORITY_NORMAL,
                 seed: int = 0,
                 deadline: Optional[Deadline] = None,
                 max_attempts: int = 6,
                 backoff_base_s: float = 0.002,
                 backoff_cap_s: float = 0.1,
                 read_timeout_s: float = 5.0,
                 sleep_backoff: bool = False):
        self.host = host
        self.port = port
        self.token = token
        self.client_id = client_id
        self.priority = priority
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.read_timeout_s = read_timeout_s
        self.sleep_backoff = sleep_backoff
        #: One ledger for the client's whole lifetime: connection
        #: attempts, retries and backoff pauses all draw it down.
        self.deadline = deadline if deadline is not None \
            else Deadline.simulated(30.0)
        self._rng = random.Random(seed)
        self._request_ids = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._decoder = FrameDecoder()
        self._inbox: List[Tuple[int, Dict[str, Any]]] = []
        #: ``{name: xql}`` acknowledged: re-registered by every reconnect.
        self._prepared: Dict[str, str] = {}
        self.session_id: Optional[str] = None
        self.version: Optional[int] = None
        self.trace_id: Optional[str] = None
        self.retries = 0
        self.backoff_charged_s = 0.0

    # -- connection management ------------------------------------------

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def _connect(self) -> None:
        """Open the socket, run the handshake and re-register the
        prepared statements, under ids outside the request counter."""
        self._drop()
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except (ConnectionError, OSError) as err:
            raise NetworkError("connect failed: %s" % err) from None
        self._decoder = FrameDecoder()
        self._inbox = []
        await self._write_frame(FrameType.HELLO, {
            "protocol": PROTOCOL_VERSION,
            "token": self.token,
            "client": self.client_id,
            "priority": self.priority,
        })
        ftype, body = await self._read_frame()
        if ftype == FrameType.ERROR:
            self._drop()
            raise error_from_body(body)
        if ftype != FrameType.WELCOME:
            self._drop()
            raise NetworkError(
                "handshake answered with frame type %d" % ftype
            )
        self.session_id = body.get("session")
        self.version = body.get("version")
        self.trace_id = body.get("trace")
        for name, xql in self._prepared.items():
            rid = "%s-prepare-%s" % (self.client_id, name)
            await self._write_frame(
                FrameType.PREPARE, {"id": rid, "name": name, "xql": xql}
            )
            ftype, body = await self._read_response(rid)
            self._expect(ftype, FrameType.PREPARED, body)

    def _drop(self) -> None:
        if self._writer is not None:
            try:
                if self._writer.transport is not None:
                    self._writer.transport.abort()
            except (RuntimeError, AttributeError):
                pass
        self._reader = None
        self._writer = None
        self._inbox = []

    async def close(self) -> None:
        """Orderly goodbye (best effort), then drop the socket."""
        if self._writer is not None:
            try:
                await self._write_frame(
                    FrameType.GOODBYE, {"reason": "goodbye"}
                )
                ftype, _ = await self._read_frame()
            except (UnavailableError, ConnectionError):
                pass
        self._drop()

    # -- framing over the socket ----------------------------------------

    async def _write_frame(self, ftype: int, body: Dict[str, Any]) -> None:
        if self._writer is None:
            raise NetworkError("not connected")
        try:
            self._writer.write(encode_frame(ftype, body))
            await self._writer.drain()
        except ConnectionError as err:
            raise NetworkError("send failed: %s" % err) from None

    async def _read_frame(self) -> Tuple[int, Dict[str, Any]]:
        """The next frame, or a typed NetworkError -- never a hang."""
        while not self._inbox:
            if self._reader is None:
                raise NetworkError("not connected")
            try:
                data = await within(
                    self._reader.read(_READ_CHUNK), self.read_timeout_s
                )
            except asyncio.TimeoutError:
                raise NetworkError(
                    "read stalled past %.3fs" % self.read_timeout_s
                ) from None
            except ConnectionError as err:
                raise NetworkError("read failed: %s" % err) from None
            if not data:
                self._decoder.finish()  # torn tail -> NetworkError
                raise NetworkError("connection closed by server")
            self._inbox.extend(self._decoder.feed(data))
        return self._inbox.pop(0)

    # -- the retry loop -------------------------------------------------

    def _next_request_id(self) -> str:
        self._request_ids += 1
        return "%s-%d" % (self.client_id, self._request_ids)

    def _backoff(self, attempt: int,
                 hint: Optional[float] = None) -> float:
        """One pause, charged to the shared deadline ledger.

        ``min(cap, base * 2^attempt)`` with multiplicative jitter in
        [0.5, 1.0) from the seeded RNG, floored by the server's
        ``retry_after_s`` hint when one arrived.  The charge lands
        *before* any real sleep, so the ledger -- not wall luck --
        decides when retrying stops.
        """
        delay = min(self.backoff_cap_s,
                    self.backoff_base_s * (2 ** attempt))
        delay *= 0.5 + 0.5 * self._rng.random()
        if hint is not None:
            delay = max(delay, hint)
        self.deadline.charge(delay)
        self.backoff_charged_s += delay
        self.deadline.check("client.backoff")
        return delay

    async def _call(
        self, ftype: Optional[int] = None,
        body: Optional[Dict[str, Any]] = None,
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Send one request, retrying transient failures: the one
        retry loop.

        An attempt opens the connection (socket + handshake) when
        there is none, then sends the request and reads its answer;
        with no request (:func:`connect`) the handshake is all of it.
        The request id inside ``body`` is fixed across attempts --
        that is the idempotency contract.  Returns the first non-PAGE
        response frame, or the PAGE stream collected into one
        (:meth:`_read_response`).
        """
        last: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            self.deadline.check("client.request")
            try:
                if not self.connected:
                    await self._connect()
                if ftype is None:
                    return None
                await self._write_frame(ftype, body)
                return await self._read_response(body["id"])
            except (NetworkError, OverloadedError) as err:
                last = err
                self._drop()
                self.retries += 1
                hint = getattr(err, "retry_after_s", None)
                if attempt + 1 < self.max_attempts:
                    delay = self._backoff(attempt, hint)
                    if self.sleep_backoff and delay > 0:
                        await asyncio.sleep(delay)
        raise last if last is not None else NetworkError("no attempts ran")

    async def _read_response(self, rid: str) -> Tuple[int, Dict[str, Any]]:
        """Frames for ``rid`` until a terminal one arrives.

        PAGE streams are accumulated here and returned as one
        synthetic ``(PAGE, {...})`` with the concatenated rows once
        the ``last`` page lands; a stream that dies earlier, or a page
        whose body is not a list of names and a list of list rows,
        raises :class:`~repro.errors.NetworkError` (and the whole
        request retries under the same id).
        """
        pages: List[Dict[str, Any]] = []
        while True:
            ftype, body = await self._read_frame()
            if body.get("id") not in (None, rid):
                # A stale answer from before a reconnect; skip it.
                continue
            if ftype == FrameType.PAGE:
                heading, page_rows = body.get("heading", []), body.get("rows", [])
                if not (
                    type(heading) is list
                    and type(page_rows) is list
                    and set(map(type, page_rows)) <= {list}
                ):
                    # A string would pass for a list of names, a mapping
                    # or a string for a row: refuse the shape here; what
                    # the names and values are is the Relation's to judge.
                    raise NetworkError(
                        "malformed PAGE for request %s: heading must be a "
                        "list and rows a list of lists" % rid
                    )
                pages.append(body)
                if body.get("last"):
                    rows: List[List[Any]] = []
                    for page in pages:
                        rows.extend(page.get("rows", []))
                    return FrameType.PAGE, {
                        "id": rid,
                        "heading": pages[0].get("heading", []),
                        "rows": rows,
                        "version": pages[-1].get("version"),
                        "pages": len(pages),
                    }
                continue
            if ftype == FrameType.ERROR:
                raise error_from_body(body)
            return ftype, body

    # -- public surface -------------------------------------------------

    async def query(self, xql: str) -> Relation:
        """Run one XQL query against the session's pinned snapshot."""
        rid = self._next_request_id()
        ftype, body = await self._call(
            FrameType.QUERY, {"id": rid, "xql": xql}
        )
        return self._relation_of(ftype, body)

    async def prepare(self, name: str, xql: str) -> None:
        rid = self._next_request_id()
        ftype, body = await self._call(
            FrameType.PREPARE, {"id": rid, "name": name, "xql": xql}
        )
        self._expect(ftype, FrameType.PREPARED, body)
        self._prepared[name] = xql

    async def execute(self, name: str,
                      args: Sequence[Any] = ()) -> Relation:
        """Run a prepared statement with positional arguments."""
        if isinstance(args, (str, bytes, dict)):
            # Each would bind its characters, bytes or keys as values.
            raise SessionError(
                "statement arguments must be a sequence of values, got %r"
                % type(args).__name__
            )
        rid = self._next_request_id()
        ftype, body = await self._call(
            FrameType.EXECUTE,
            {"id": rid, "name": name, "args": list(args)},
        )
        return self._relation_of(ftype, body)

    async def mutate(self, ops: Sequence[Sequence[Any]]) -> int:
        """Apply one atomic write batch; returns its commit version.

        The request id is allocated once, so a retry after a lost ack
        is replayed from the server's idempotency cache -- the write
        itself runs at most once.
        """
        rid = self._next_request_id()
        ftype, body = await self._call(
            FrameType.MUTATE,
            {"id": rid, "ops": [list(op) for op in ops]},
        )
        self._expect(ftype, FrameType.COMMITTED, body)
        self.version = body.get("version")
        return body["version"]

    async def refresh(self) -> int:
        """Re-pin the session snapshot at the latest version."""
        rid = self._next_request_id()
        ftype, body = await self._call(FrameType.REFRESH, {"id": rid})
        self._expect(ftype, FrameType.REFRESHED, body)
        self.version = body.get("version")
        return body["version"]

    async def cancel(self, request_id: str) -> None:
        """Fire-and-forget cancellation of an in-flight request id."""
        if self.connected:
            await self._write_frame(FrameType.CANCEL, {"id": request_id})

    # -- helpers --------------------------------------------------------

    def _expect(self, ftype: int, wanted: int,
                body: Dict[str, Any]) -> None:
        if ftype != wanted:
            raise NetworkError(
                "expected frame type %d, got %d (%r)"
                % (wanted, ftype, body)
            )

    def _relation_of(self, ftype: int,
                     body: Dict[str, Any]) -> Relation:
        if ftype == FrameType.CANCELLED:
            raise NetworkError("request %s was cancelled" % body.get("id"))
        self._expect(ftype, FrameType.PAGE, body)
        # Shape-checked page by page as it arrived (_read_response); the
        # names, widths and values are checked here, before the answer
        # returns, and its row set is built when something reads it.
        return Relation.from_page(body.get("heading", []), body.get("rows", []))

    def __repr__(self) -> str:
        return "Client(%s -> %s:%s, session=%s)" % (
            self.client_id, self.host, self.port, self.session_id,
        )


async def connect(host: str, port: int, **kwargs: Any) -> Client:
    """Build a :class:`Client` and run the handshake (with retries)."""
    client = Client(host, port, **kwargs)
    await client._call()
    return client
