"""The wire protocol: length-prefixed, CRC-framed JSON messages.

One frame is::

    +-------+---------+------+----------------+---------+
    | magic | version | type | payload length | payload | CRC32 |
    | 2B    | 1B      | 1B   | 4B big-endian  | N bytes | 4B    |
    +-------+---------+------+----------------+---------+-------+

The CRC covers header *and* payload, so a bit flip anywhere in the
frame -- not just the body -- is detected.  Payloads are canonical
JSON objects (sorted keys, no whitespace), which keeps the protocol
dependency-free, inspectable with ``tcpdump``, and deterministic: the
same message always encodes to the same bytes.

Decoding is incremental and *total*: :class:`FrameDecoder` consumes
arbitrary byte chunks and either yields complete frames, waits for
more input, or raises a typed :class:`~repro.errors.NetworkError`
(bad magic, unsupported version, oversized length, CRC mismatch,
non-JSON payload).  :meth:`FrameDecoder.finish` closes the stream:
leftover bytes -- a torn frame, the wire analogue of the WAL's torn
tail -- raise :class:`~repro.errors.NetworkError` rather than being
silently dropped, so a connection that dies mid-frame can never be
mistaken for a clean goodbye.  The property pinned by
``tests/server/test_protocol.py``: every prefix of a valid frame
stream decodes to a (possibly empty) prefix of its frames plus either
a clean end or a typed error -- never a hang, never an unhandled
exception.

Both endpoints bound their waits on the socket with :func:`within`, a
deadline that is a timer on the waiting task rather than a task of its
own.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from typing import Any, Awaitable, Dict, List, Optional, Tuple, TypeVar

from repro.errors import (
    _ERROR_CONTEXT_ATTRS,
    BudgetExceededError,
    CircuitOpenError,
    ClusterUnavailableError,
    DeadlineExceededError,
    IntegrityError,
    InvalidAtomError,
    NetworkError,
    NotationError,
    OverloadedError,
    SchemaError,
    SessionError,
    ShardMovedError,
    UnavailableError,
    WriteConflictError,
    XSTError,
)

__all__ = [
    "FrameType",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_body",
    "FrameDecoder",
    "within",
    "error_body",
    "error_from_body",
]

MAGIC = b"XS"
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's payload; a length prefix past this is
#: treated as framing damage, not an allocation request.
MAX_FRAME_BYTES = 1 << 24

_HEADER = struct.Struct(">2sBBI")  # magic, version, type, payload length
_TRAILER = struct.Struct(">I")     # CRC32(header + payload)


class FrameType:
    """Message type codes (one byte on the wire)."""

    HELLO = 1       # client -> server: open a session (token, client id)
    WELCOME = 2     # server -> client: session id + pinned MVCC version
    QUERY = 3       # client -> server: run one XQL query
    PAGE = 4        # server -> client: one result page (last=true ends)
    PREPARE = 5     # client -> server: register a parameterized statement
    PREPARED = 6    # server -> client: statement accepted
    EXECUTE = 7     # client -> server: run a prepared statement with args
    MUTATE = 8      # client -> server: one atomic batch of writes
    COMMITTED = 9   # server -> client: the batch's commit version
    REFRESH = 10    # client -> server: re-pin the session snapshot
    REFRESHED = 11  # server -> client: the new snapshot version
    CANCEL = 12     # client -> server: abandon an in-flight request id
    CANCELLED = 13  # server -> client: the request stopped at a page edge
    ERROR = 14      # server -> client: typed failure for one request
    GOODBYE = 15    # either direction: orderly close (reason, retry hint)

    #: Every code the decoder accepts; anything else is a protocol error.
    ALL = frozenset(range(HELLO, GOODBYE + 1))


def encode_frame(frame_type: int, body: Dict[str, Any]) -> bytes:
    """One message as wire bytes (header + canonical JSON + CRC)."""
    if frame_type not in FrameType.ALL:
        raise ValueError("unknown frame type %r" % (frame_type,))
    payload = json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            "payload of %d bytes exceeds the %d-byte frame ceiling"
            % (len(payload), MAX_FRAME_BYTES)
        )
    header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, frame_type, len(payload))
    return header + payload + _TRAILER.pack(zlib.crc32(header + payload))


def decode_body(payload: bytes, frame: int) -> Dict[str, Any]:
    """Payload bytes -> JSON object, or a typed protocol error."""
    try:
        body = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise NetworkError("payload is not valid JSON", frame=frame) from None
    if not isinstance(body, dict):
        raise NetworkError("payload is not a JSON object", frame=frame)
    return body


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    ``feed`` returns every frame completed by the new bytes;
    ``finish`` asserts the stream ended on a frame boundary.  All
    failure modes raise :class:`~repro.errors.NetworkError` carrying
    the 0-based index of the offending frame; the decoder is then
    poisoned (every later call re-raises), matching what a real
    endpoint does -- one framing error kills the connection.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._frames = 0
        self._dead: Optional[NetworkError] = None

    @property
    def frames_decoded(self) -> int:
        return self._frames

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def _die(self, reason: str) -> NetworkError:
        self._dead = NetworkError(reason, frame=self._frames)
        self._buffer.clear()
        return self._dead

    def feed(self, data: bytes) -> List[Tuple[int, Dict[str, Any]]]:
        """Consume ``data``; return the frames it completed, in order."""
        if self._dead is not None:
            raise self._dead
        self._buffer.extend(data)
        out: List[Tuple[int, Dict[str, Any]]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return out
            magic, version, frame_type, length = _HEADER.unpack_from(
                self._buffer
            )
            if magic != MAGIC:
                raise self._die("bad magic %r" % (bytes(magic),))
            if version != PROTOCOL_VERSION:
                raise self._die("unsupported protocol version %d" % version)
            if frame_type not in FrameType.ALL:
                raise self._die("unknown frame type %d" % frame_type)
            if length > MAX_FRAME_BYTES:
                raise self._die(
                    "frame length %d exceeds the %d-byte ceiling"
                    % (length, MAX_FRAME_BYTES)
                )
            total = _HEADER.size + length + _TRAILER.size
            if len(self._buffer) < total:
                return out
            crc_expected, = _TRAILER.unpack_from(
                self._buffer, _HEADER.size + length
            )
            crc_actual = zlib.crc32(
                bytes(self._buffer[: _HEADER.size + length])
            )
            if crc_actual != crc_expected:
                raise self._die("frame failed its CRC check")
            payload = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
            del self._buffer[:total]
            try:
                body = decode_body(payload, self._frames)
            except NetworkError as error:
                self._dead = error
                self._buffer.clear()
                raise
            out.append((frame_type, body))
            self._frames += 1

    def finish(self) -> None:
        """Declare end-of-stream; torn trailing bytes are an error."""
        if self._dead is not None:
            raise self._dead
        if self._buffer:
            raise self._die(
                "stream ended inside a frame (%d torn bytes)"
                % len(self._buffer)
            )


_T = TypeVar("_T")


async def within(awaitable: Awaitable[_T], seconds: float) -> _T:
    """Await ``awaitable`` in the calling task for at most ``seconds``.

    The deadline is one ``call_later`` timer that cancels the waiting
    task; that cancel comes out as :class:`asyncio.TimeoutError` and is
    withdrawn (``Task.uncancel``, on Python 3.11+), so nothing above
    sees the task as still cancelling.  A cancel from anywhere else
    passes through untouched.  No task is spawned and no loop turn is
    spent: an awaitable that is ready returns at once.
    """
    task = asyncio.current_task()
    expired = []

    def expire() -> None:
        expired.append(True)
        task.cancel()

    timer = task.get_loop().call_later(seconds, expire)
    try:
        return await awaitable
    except asyncio.CancelledError:
        # Take back the timer's cancel; if another is still pending, the
        # task is being cancelled from outside too, and that wins.
        # Before 3.11 there is no count to consult: an outside cancel
        # landing in the same loop turn as the timer reads as expiry.
        if expired and (not hasattr(task, "uncancel") or task.uncancel() == 0):
            raise asyncio.TimeoutError from None
        raise
    finally:
        timer.cancel()


# ----------------------------------------------------------------------
# Typed errors over the wire
# ----------------------------------------------------------------------

def error_body(error: Exception,
               request_id: Optional[str] = None) -> Dict[str, Any]:
    """Render any exception as an ERROR frame body.

    Typed errors keep their stable code/exit code and structured
    context (schema violations, bad XQL and integrity failures too:
    ``SCHEMA``/``NOTATION``/``INTEGRITY``, and a value no set can hold:
    ``INVALID_ATOM``); anything else travels as the generic code
    ``ERROR``, both with the CLI's exit code 2.
    """
    context = {}
    for attr in _ERROR_CONTEXT_ATTRS:
        value = getattr(error, attr, None)
        if value is not None:
            context[attr] = list(value) if isinstance(value, tuple) else value
    body: Dict[str, Any] = {
        "code": getattr(error, "code", "ERROR"),
        "exit_code": getattr(error, "exit_code", 2),
        "message": str(error),
        "context": context,
    }
    if request_id is not None:
        body["id"] = request_id
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is not None:
        body["retry_after_s"] = retry_after
    return body


def error_from_body(body: Dict[str, Any]) -> Exception:
    """Reconstruct the typed error an ERROR frame describes.

    The governance and serving classes rebuild with their structured
    context so client-side handling (and the flight recorder) sees
    the same shape the server raised (a wrong statement raises the
    class it raises embedded); unknown codes degrade to the
    :class:`~repro.errors.UnavailableError` base or a plain
    :class:`~repro.errors.XSTError` for non-availability failures.
    """
    code = body.get("code", "ERROR")
    message = body.get("message", "")
    context = body.get("context", {})
    retry_after = body.get("retry_after_s")
    if code == "OVERLOADED":
        return OverloadedError(
            context.get("in_flight", 0), context.get("capacity", 0),
            retry_after if retry_after is not None else 0.0,
            reason=context.get("reason", "at capacity"),
        )
    if code == "DEADLINE_EXCEEDED":
        return DeadlineExceededError(
            context.get("elapsed_s", 0.0), context.get("timeout_s", 0.0),
            site=context.get("site", "<server>"),
        )
    if code == "BUDGET_EXCEEDED":
        return BudgetExceededError(
            context.get("resource", "rows"), context.get("spent", 0),
            context.get("limit", 0), site=context.get("site", "<server>"),
        )
    if code == "WRITE_CONFLICT":
        return WriteConflictError(
            context.get("tables", ()), context.get("read_version", 0),
            context.get("committed_version", 0),
        )
    if code == "SESSION":
        return SessionError(
            context.get("reason", message),
            session_id=context.get("session_id"),
            retry_after_s=retry_after,
        )
    if code == "NETWORK":
        return NetworkError(
            context.get("reason", message), frame=context.get("frame"),
            retry_after_s=retry_after,
        )
    if code == "CIRCUIT_OPEN":
        return CircuitOpenError(
            context.get("table", "?"), context.get("bucket", 0),
            context.get("node", "?"),
            retry_after_ops=context.get("retry_after_ops", 0),
        )
    if code == "SHARD_MOVED":
        return ShardMovedError(
            context.get("table", "?"),
            context.get("requested_epoch", 0),
            context.get("current_epoch", 0),
            bucket=context.get("bucket"),
        )
    if code == "CLUSTER_UNAVAILABLE":
        return ClusterUnavailableError(
            context.get("table", "?"), context.get("bucket", 0),
            replicas=context.get("replicas", ()),
            reason=context.get("reason", message),
        )
    if code == "UNAVAILABLE":
        error = UnavailableError(message)
        error.retry_after_s = retry_after
        return error
    for wrong_statement in (SchemaError, NotationError, IntegrityError,
                            InvalidAtomError):
        if code == wrong_statement.code:
            return wrong_statement(message)
    return XSTError(message)
