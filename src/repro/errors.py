"""Exception hierarchy for the XST reproduction.

Every error raised by this library derives from :class:`XSTError`, so
callers can catch one type to guard against any library failure.  The
subclasses mirror the layers of the system:

* :class:`InvalidAtomError` -- a value that cannot participate in an
  extended set was used as an element or scope (kernel layer).
* :class:`NotATupleError` -- an operation that requires Def 9.1 n-tuples
  (consecutive integer scopes ``1..n``) received a non-tuple.
* :class:`NotAProcessError` -- a (set, sigma) pair fails the Def 2.1
  well-formedness condition for processes.
* :class:`NotAFunctionError` -- a process violates the Def 8.2
  single-valuedness requirement where a function is demanded.
* :class:`AmbiguousValueError` -- Def 9.8/9.9 value extraction found
  zero or several candidate values.
* :class:`CompositionError` -- Def 11.1 composition was requested for
  processes that are not compositable.
* :class:`SchemaError` -- relational layer: rows do not match the
  declared heading, or an operation references unknown attributes.
* :class:`NotationError` -- the paper-notation parser rejected its
  input.
* :class:`IntegrityError` -- a mutation would violate a declared
  constraint.  These three say the caller's own statement is wrong:
  each has a stable ``.code`` and crosses the wire as itself.
* :class:`UnavailableError` -- the shared base of every "no correct
  answer can be given *right now*" failure: the resource-governance
  family (:class:`DeadlineExceededError`, :class:`BudgetExceededError`,
  :class:`OverloadedError`, :class:`CircuitOpenError`), the
  distributed layer's :class:`ClusterUnavailableError` and
  :class:`ShardMovedError`, and the serving layer's
  :class:`NetworkError`, :class:`SessionError` and
  :class:`WriteConflictError`.  Each carries structured context
  (elapsed vs budget, node id, retry-after, frame offset, conflicting
  tables) and a stable ``.code`` / ``.exit_code`` pair the CLI maps to
  distinct process exit codes -- scripts can branch on the failure
  class without parsing messages.
* :class:`ShardPlacementError` -- the shard catalog is internally
  inconsistent (a bucket owned by two epochs, a torn rebalance, an
  anti-entropy digest mismatch).  Unlike the transient family this is
  *damage*, not load: it shares the stable ``code``/``exit_code``
  contract so ``repro fsck`` can report placement corruption
  distinctly, and construction notifies the flight recorder.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

#: Optional hook fired when a *typed availability* error is
#: constructed (any :class:`UnavailableError` subclass, plus the WAL's
#: ``CorruptLogError``, which calls :func:`notify_error` itself).  The
#: flight recorder (:mod:`repro.obs.recorder`) installs itself here to
#: snapshot diagnostic context at the moment of failure; ``None``
#: keeps error construction at one extra global read.
_ERROR_LISTENER: Optional[Callable[[Exception], None]] = None


def set_error_listener(
    listener: Optional[Callable[[Exception], None]],
) -> Optional[Callable[[Exception], None]]:
    """Install (or clear, with ``None``) the typed-error hook.

    Returns the previous listener.  The listener must not raise and
    must not construct typed errors of its own (no reentrancy guard
    is taken on this hot-adjacent path).
    """
    global _ERROR_LISTENER
    previous = _ERROR_LISTENER
    _ERROR_LISTENER = listener
    return previous


#: The structured context attributes typed errors carry -- the union of
#: the constructor signatures below plus the WAL's ``CorruptLogError``
#: payloads -- listed once: an ERROR frame ships them and a
#: flight-recorder incident records them.  Left out on purpose:
#: ``retry_after_s`` (every :class:`UnavailableError` has it; it travels
#: beside the context) and ``ClusterUnavailableError.key`` (an arbitrary
#: kernel value, rendered in the message).
_ERROR_CONTEXT_ATTRS = (
    "elapsed_s", "timeout_s", "site",
    "resource", "spent", "limit",
    "in_flight", "capacity", "reason",
    "table", "bucket", "node", "retry_after_ops", "replicas",
    "frame", "session_id", "request_id",
    "tables", "read_version", "committed_version",
    "requested_epoch", "current_epoch",
)


def notify_error(error: Exception) -> None:
    """Fire the typed-error hook (no-op when none is installed)."""
    listener = _ERROR_LISTENER
    if listener is not None:
        listener(error)


class XSTError(Exception):
    """Base class for all errors raised by this library."""


class UnavailableError(XSTError, RuntimeError):
    """Base of transient "no correct answer right now" failures.

    Subclasses never stand in for a *wrong* answer: they are raised in
    place of data whenever deadlines, budgets, admission control, open
    circuit breakers, or replica loss make a correct answer
    unobtainable.  Every subclass pins:

    * ``code`` -- a stable machine-readable failure class;
    * ``exit_code`` -- the process exit code ``python -m repro`` uses
      for this class (generic errors exit 2);
    * ``retry_after_s`` -- a hint (possibly ``None``) for when a retry
      could succeed.

    Construction notifies the flight-recorder hook (see
    :func:`set_error_listener`); subclasses set their structured
    context attributes *before* chaining to ``super().__init__``, so
    the listener always sees a fully-populated error.
    """

    code = "UNAVAILABLE"
    exit_code = 10
    retry_after_s: Optional[float] = None

    def __init__(self, *args: Any):
        super().__init__(*args)
        if _ERROR_LISTENER is not None:
            _ERROR_LISTENER(self)


class InvalidAtomError(XSTError, TypeError):
    """An unusable value was offered as an atom: unhashable, a process,
    or unequal to itself (``nan``), or a malformed encoding of one."""

    code = "INVALID_ATOM"


class NotATupleError(XSTError, ValueError):
    """An extended set without Def 9.1 tuple shape was used as a tuple."""


class NotAProcessError(XSTError, ValueError):
    """A (set, sigma) pair violates Def 2.1 process well-formedness."""


class NotAFunctionError(XSTError, ValueError):
    """A process violates Def 8.2 where functional behavior is required."""


class AmbiguousValueError(XSTError, ValueError):
    """Def 9.8/9.9 value extraction has no unique answer."""


class CompositionError(XSTError, ValueError):
    """Two processes cannot be composed under Def 11.1."""


class SchemaError(XSTError, ValueError):
    """Relational-layer schema violation."""

    code = "SCHEMA"


class NotationError(XSTError, ValueError):
    """Paper-notation source text could not be parsed."""

    code = "NOTATION"


class IntegrityError(XSTError, ValueError):
    """A mutation would violate a declared constraint."""

    code = "INTEGRITY"


class DeadlineExceededError(UnavailableError):
    """A governed execution ran past its deadline.

    Raised *mid-operator* at the next cooperative cancellation
    checkpoint (see :mod:`repro.gov`), never after completing the
    work.  ``elapsed_s``/``timeout_s`` are the deadline ledger at the
    moment of death and ``site`` names the checkpoint that fired
    (e.g. ``"xst.cross"``), which also lands on the active span.
    """

    code = "DEADLINE_EXCEEDED"
    exit_code = 12

    def __init__(self, elapsed_s: float, timeout_s: float,
                 site: str = "<unknown>"):
        self.elapsed_s = elapsed_s
        self.timeout_s = timeout_s
        self.site = site
        super().__init__(
            "deadline exceeded at %s: %.6fs elapsed > %.6fs budget"
            % (site, elapsed_s, timeout_s)
        )


class BudgetExceededError(UnavailableError):
    """A governed execution exhausted a resource budget.

    ``resource`` names the exhausted ledger (``"rows"``, ``"cells"``
    or ``"bytes"``), ``spent``/``limit`` its state, and ``site`` the
    cancellation checkpoint that noticed -- again mid-operator, so a
    runaway cross product dies while materializing, not after.
    """

    code = "BUDGET_EXCEEDED"
    exit_code = 13

    def __init__(self, resource: str, spent: float, limit: float,
                 site: str = "<unknown>"):
        self.resource = resource
        self.spent = spent
        self.limit = limit
        self.site = site
        super().__init__(
            "budget exceeded at %s: %s spent %s > limit %s"
            % (site, resource, _trim(spent), _trim(limit))
        )


class OverloadedError(UnavailableError):
    """Admission control shed this query: the system is at capacity.

    Carries the in-flight occupancy that triggered the shed and a
    deterministic ``retry_after_s`` hint.  Shedding happens *before*
    any work runs, so a shed query consumes no budget and holds no
    partial state.
    """

    code = "OVERLOADED"
    exit_code = 14

    def __init__(self, in_flight: int, capacity: int,
                 retry_after_s: float, reason: str = "at capacity"):
        self.in_flight = in_flight
        self.capacity = capacity
        self.retry_after_s = retry_after_s
        self.reason = reason
        super().__init__(
            "overloaded (%s): %d in flight / capacity %d; retry after %.3fs"
            % (reason, in_flight, capacity, retry_after_s)
        )


class CircuitOpenError(UnavailableError):
    """Every replica that could serve a read sits behind an open breaker.

    Distinct from :class:`ClusterUnavailableError` (replicas *dead*):
    here the nodes may well be back, but their breakers have not yet
    run a successful probe.  ``retry_after_ops`` says how many cluster
    operations remain until the earliest half-open probe.
    """

    code = "CIRCUIT_OPEN"
    exit_code = 15

    def __init__(self, table: str, bucket: int, node: str,
                 retry_after_ops: int = 0):
        self.table = table
        self.bucket = bucket
        self.node = node
        self.retry_after_ops = retry_after_ops
        super().__init__(
            "circuit open for partition %d of %r: breaker on %s probes in "
            "%d ops" % (bucket, table, node, retry_after_ops)
        )


class NetworkError(UnavailableError):
    """A wire-level failure between client and server.

    Raised wherever the transport, not the query, failed: a dropped
    or reset connection, a torn or truncated frame, a checksum
    mismatch, a protocol violation, or a stream that ended mid-result.
    The answer may exist -- the bytes carrying it did not arrive
    intact -- so the client's retry loop treats this as transient.
    ``frame`` is the 0-based frame number (or byte offset for framing
    damage) where the stream died, when known.
    """

    code = "NETWORK"
    exit_code = 16

    def __init__(self, reason: str, frame: Optional[int] = None,
                 retry_after_s: Optional[float] = None):
        self.reason = reason
        self.frame = frame
        self.retry_after_s = retry_after_s
        where = "" if frame is None else " at frame %d" % frame
        super().__init__("network failure%s: %s" % (where, reason))


class SessionError(UnavailableError):
    """A server session could not be established or has become invalid.

    Covers authentication rejection, a handshake the server refuses
    (wrong protocol version, malformed hello), references to unknown
    prepared statements, and requests arriving on a session the server
    already closed (e.g. after a drain).  ``session_id`` is the
    server-assigned id when one was ever granted.
    """

    code = "SESSION"
    exit_code = 17

    def __init__(self, reason: str, session_id: Optional[str] = None,
                 retry_after_s: Optional[float] = None):
        self.reason = reason
        self.session_id = session_id
        self.retry_after_s = retry_after_s
        where = "" if session_id is None else " (session %s)" % session_id
        super().__init__("session failure%s: %s" % (where, reason))


class WriteConflictError(UnavailableError):
    """First-committer-wins: another transaction committed first.

    A snapshot-isolation write transaction read at ``read_version``
    but a table it wrote was committed past that version by someone
    else before it could commit.  The losing transaction's buffered
    writes are discarded untouched; retrying against a fresh snapshot
    usually succeeds, which is what ``retry_after_s=0.0`` signals.
    """

    code = "WRITE_CONFLICT"
    exit_code = 18
    retry_after_s = 0.0

    def __init__(self, tables: Sequence[str], read_version: int,
                 committed_version: int):
        self.tables = tuple(tables)
        self.read_version = read_version
        self.committed_version = committed_version
        super().__init__(
            "write conflict on %s: snapshot read at version %d but "
            "version %d already committed"
            % (", ".join(self.tables), read_version, committed_version)
        )


def _trim(value: float) -> str:
    """Render budgets integer-ish when they are whole numbers."""
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


class ClusterUnavailableError(UnavailableError):
    """A distributed query could not be answered correctly.

    Raised only when *no* correct answer exists: every replica of a
    partition the query needs is dead, or the query's simulated time
    budget was exhausted by retries.  Wrong answers are never returned
    in place of this error.

    The offending partition is rendered in paper notation (the rows
    live under attribute scopes, so the key fragment prints as e.g.
    ``{5^'dept'}``), matching the library-wide rule that errors show
    the set they choked on.
    """

    code = "CLUSTER_UNAVAILABLE"
    exit_code = 11

    def __init__(
        self,
        table: str,
        bucket: int,
        replicas: Sequence[str] = (),
        reason: str = "all replicas are dead",
        key: Optional[Any] = None,
    ):
        self.table = table
        self.bucket = bucket
        self.replicas = tuple(replicas)
        self.reason = reason
        self.key = key
        key_part = "" if key is None else " for key %r" % (key,)
        tried = (
            " (tried %s)" % ", ".join(self.replicas) if self.replicas else ""
        )
        super().__init__(
            "partition %d of %r is unavailable%s: %s%s"
            % (bucket, table, key_part, reason, tried)
        )


class ShardMovedError(UnavailableError):
    """The caller routed with a stale shard-map epoch.

    Online rebalancing swings a table's :class:`ShardMap` to a new
    epoch atomically; any request stamped with an older epoch is
    refused *before any bucket is read* -- the data may have moved,
    and answering from the old placement could be wrong.  The error
    carries both epochs so clients refresh their cached map and retry
    immediately (``retry_after_s=0.0``: the new map is already
    installed, nothing needs to drain).
    """

    code = "SHARD_MOVED"
    exit_code = 19
    retry_after_s = 0.0

    def __init__(self, table: str, requested_epoch: int,
                 current_epoch: int, bucket: Optional[int] = None):
        self.table = table
        self.requested_epoch = requested_epoch
        self.current_epoch = current_epoch
        self.bucket = bucket
        where = "" if bucket is None else " (bucket %d)" % bucket
        super().__init__(
            "shard map for %r moved%s: request at epoch %d but cluster "
            "is at epoch %d" % (table, where, requested_epoch, current_epoch)
        )


class ShardPlacementError(XSTError, ValueError):
    """The shard catalog or a rebalance journal is inconsistent.

    Raised when placement *invariants* are violated: a bucket with no
    owner or two owners, a persisted move journal whose epoch
    contradicts the installed map (a torn swing), or a post-move
    anti-entropy digest mismatch between donor and recipient.  This is
    corruption, not load -- there is no retry hint -- but it shares
    the stable ``code``/``exit_code`` contract so ``repro fsck`` can
    exit distinctly on placement damage, and construction notifies
    the flight recorder like the availability family does.
    """

    code = "SHARD_PLACEMENT"
    exit_code = 20

    def __init__(self, *args: Any):
        super().__init__(*args)
        notify_error(self)
