"""Per-connection session state: snapshot pin, prepared statements.

A session is the unit of isolation the server hands each connection:

* an MVCC :class:`~repro.relational.tx.Snapshot` pinned at handshake
  (and re-pinned on REFRESH or after the session's own commit), so
  every query a session runs sees one consistent version no matter
  how many writers commit meanwhile -- *snapshot sessions*.  It pins
  the manager's committed catalog, the ``Database`` embedded callers
  get from ``manager.committed()``: same relations, same cache;
* a registry of prepared statements: named XQL templates with
  ``$1..$n`` placeholders (at most :data:`MAX_STATEMENTS`), whose
  EXECUTE arguments are type-checked here and bound into the plan as
  values by :func:`repro.relational.sql.run` -- no argument is ever
  rendered into text.  An argument, like a MUTATE row's value, must be
  a value a set can hold: a ``nan`` is refused here, before admission,
  with :class:`~repro.errors.InvalidAtomError`;
* the session's priority class for admission and drain shedding
  (which request is in flight and which ids were cancelled is the
  connection's business, in :mod:`repro.server.service`).

Sessions never share mutable state: two sessions at the same version
hold the same immutable catalog value (and through it the manager's
result cache), nothing else.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import SessionError
from repro.gov.admission import PRIORITY_NORMAL
from repro.relational.query import Database
from repro.relational.tx import Snapshot, TransactionManager
from repro.xst.xset import _admit_all

__all__ = ["Session", "render_statement", "MAX_STATEMENTS"]

#: Prepared statements one session holds; a PREPARE of a new name
#: beyond it is refused (re-preparing a held name replaces it).
MAX_STATEMENTS = 256

#: The argument types a statement binds: what a JSON number or string
#: decodes to (``bool`` is not ``int`` here).
_ARGUMENT_TYPES = frozenset((int, float, str))

#: The table a write names.
_table_of = itemgetter(1)


def _refuse_argument(value: Any) -> None:
    if isinstance(value, bool):
        # XQL has no boolean literals; 1/0 would silently change type.
        raise SessionError("statement arguments cannot be booleans")
    raise SessionError(
        "statement arguments must be numbers or strings, got %r"
        % type(value).__name__
    )


def render_literal(value: Any) -> str:
    """One argument as an XQL literal; reject what XQL cannot carry.

    Not on the served path (EXECUTE binds values): kept to spell a
    statement as the text a QUERY would send, e.g. for an oracle."""
    if type(value) is int:
        return str(value)
    if type(value) is float:
        return repr(value)
    if type(value) is str:
        if "'" in value:
            raise SessionError(
                "statement arguments cannot contain single quotes"
            )
        return "'%s'" % value
    _refuse_argument(value)


_PLACEHOLDER = re.compile(r"\$(\d*)")


def render_statement(template: str, args: Sequence[Any]) -> str:
    """Substitute ``$1..$n`` placeholders with rendered literals.

    One pass over the *template*: each ``$k`` is replaced once and the
    rendered literals are never searched again, so an argument may
    itself contain ``$``.  Every placeholder must be bound and every
    argument used -- a mismatch is a typed
    :class:`~repro.errors.SessionError`, not a silently wrong query.
    """
    # Mapped, not called: CI refuses a ``render_literal(`` call under
    # src/repro/server/, where nothing renders on the served path.
    literals = list(map(render_literal, args))
    used = set()

    def bind(match) -> str:
        index = int(match.group(1) or 0)
        if not 1 <= index <= len(literals):
            raise SessionError(
                "statement placeholders left unbound: %s in %s"
                % (match.group(), template)
            )
        used.add(index)
        return literals[index - 1]

    text = _PLACEHOLDER.sub(bind, template)
    for index in range(len(literals), 0, -1):
        if index not in used:
            raise SessionError(
                "statement has no placeholder $%d for argument %d"
                % (index, index)
            )
    return text


class Session:
    """One connection's server-side state."""

    def __init__(self, session_id: str, manager: TransactionManager,
                 priority: int = PRIORITY_NORMAL):
        self.session_id = session_id
        self.priority = priority
        self._manager = manager
        self._snapshot: Snapshot = manager.snapshot()
        self._statements: Dict[str, str] = {}
        self.closed = False

    # -- snapshot pinning ----------------------------------------------

    @property
    def version(self) -> int:
        """The MVCC version this session's reads are pinned to."""
        return self._snapshot.version

    @property
    def snapshot(self) -> Snapshot:
        return self._snapshot

    def refresh(self) -> int:
        """Re-pin at the latest committed version; returns it."""
        self._require_open()
        self._snapshot.close()
        self._snapshot = self._manager.snapshot()
        return self._snapshot.version

    def database(self) -> Database:
        """The committed catalog of the pinned version: the object
        ``manager.committed()`` answered when the snapshot opened, so
        queries against it are embedded execution, byte-for-byte --
        the differential oracle's anchor."""
        self._require_open()
        return self._snapshot.database

    # -- prepared statements -------------------------------------------

    def prepare(self, name: str, template: str) -> None:
        self._require_open()
        if not name or not isinstance(name, str):
            raise SessionError("statement names must be non-empty strings",
                               session_id=self.session_id)
        if not isinstance(template, str):
            raise SessionError("statement text must be a string",
                               session_id=self.session_id)
        if name not in self._statements and \
                len(self._statements) >= MAX_STATEMENTS:
            raise SessionError(
                "a session holds at most %d prepared statements"
                % MAX_STATEMENTS, session_id=self.session_id,
            )
        self._statements[name] = template

    def statement(self, name: str, args: Sequence[Any]) -> str:
        """The template of statement ``name``, once each argument is a
        type a statement binds (``args`` go to
        :func:`repro.relational.sql.run` with it, which checks them
        against the placeholders)."""
        self._require_open()
        template = self._statements.get(name)
        if template is None:
            raise SessionError("unknown prepared statement %r" % (name,),
                               session_id=self.session_id)
        for value in args:
            if type(value) not in _ARGUMENT_TYPES:
                _refuse_argument(value)
        _admit_all(args)
        return template

    def statements(self) -> List[str]:
        return sorted(self._statements)

    # -- writes ---------------------------------------------------------

    def writes(self, ops: Sequence[Sequence[Any]]) -> List[Tuple]:
        """One batch of wire-shaped ops as the writes :meth:`mutate`
        applies, each checked before any work is done.

        Ops are wire-shaped lists: ``["insert", table, row]``,
        ``["delete", table, where]`` and ``["update", table, where,
        set]``.  A malformed op is a
        :class:`~repro.errors.SessionError`, and a value no set can hold
        (``nan``) an :class:`~repro.errors.InvalidAtomError`.
        """
        self._require_open()
        parsed: List[Tuple] = []
        for op in ops:
            if not isinstance(op, (list, tuple)) or len(op) < 3:
                raise SessionError("malformed mutation op %r" % (op,),
                                   session_id=self.session_id)
            kind, name = op[0], op[1]
            # Wire values have exact types; this test costs no call.
            if type(name) is not str:
                raise SessionError("mutation op table must be a string, "
                                   "got %r" % (name,),
                                   session_id=self.session_id)
            try:
                if kind == "insert" and len(op) == 3:
                    parsed.append(("insert", name, dict(op[2])))
                elif kind == "delete" and len(op) == 3:
                    parsed.append(("delete", name, dict(op[2])))
                elif kind == "update" and len(op) == 4:
                    parsed.append(("update", name, dict(op[2]), dict(op[3])))
                else:
                    raise SessionError("unknown mutation op %r" % (kind,),
                                       session_id=self.session_id)
            except (TypeError, ValueError):
                # ``dict()`` of something that is not a row.
                raise SessionError("malformed mutation op %r" % (op,),
                                   session_id=self.session_id) from None
            for row in parsed[-1][2:]:
                _admit_all(row.values())
        return parsed

    def mutate(self, writes: Sequence[Tuple]) -> int:
        """Apply one atomic batch of :meth:`writes`; returns the commit
        version.

        The batch commits under first-committer-wins against this
        session's pinned version: if any written table was committed
        past :attr:`version` by someone else, the batch raises
        :class:`~repro.errors.WriteConflictError` and nothing is
        applied.  On success the session re-pins at the new version so
        its own write is immediately readable.
        """
        self._require_open()
        version = self._manager._commit_ops(
            writes, set(map(_table_of, writes)), self.version
        )
        self.refresh()
        return version

    # -- lifecycle ------------------------------------------------------

    def _require_open(self) -> None:
        if self.closed:
            raise SessionError("session is closed",
                               session_id=self.session_id)

    def close(self) -> None:
        """Release the snapshot pin; idempotent."""
        if not self.closed:
            self._snapshot.close()
            self.closed = True

    def __repr__(self) -> str:
        return "Session(%s, version=%d%s)" % (
            self.session_id, self.version,
            ", closed" if self.closed else "",
        )
