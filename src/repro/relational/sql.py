"""XQL: a small SQL-flavoured surface over the plan algebra.

The 1977 pitch is that a backend's *query language* can compile to
set-theoretic operations whose behavior is provable.  XQL is the
demonstration: a deliberately small SELECT dialect that parses to the
exact plan nodes of :mod:`repro.relational.query`, so every XQL query
runs under both executors and through the optimizer unchanged.

Grammar::

    query   :=  select | analyze | view
    select  :=  SELECT columns FROM source (JOIN source)*
                [WHERE condition (AND condition)*]
                [GROUP BY names]
                [ORDER BY name [ASC | DESC]]
                [LIMIT number]
                [TIMEOUT seconds]
                [BUDGET rows]
    analyze :=  ANALYZE [relation_name]
    view    :=  CREATE [MATERIALIZED] VIEW name AS select
              | REFRESH VIEW name | DROP VIEW name
    columns :=  '*' | column (',' column)*
    column  :=  name | name AS name | agg '(' name ')' AS name
    agg     :=  COUNT | SUM | AVG | MIN | MAX
    source  :=  relation_name
    condition := name ('=' | '!=' | '<' | '<=' | '>' | '>=') literal

Restrictions (on purpose): joins are natural joins; aggregates require
GROUP BY; literals are integers, floats and quoted strings.  Keywords
are case-insensitive; names are case-sensitive.

The whole statement is one plan: WHERE compiles below an ``Aggregate``
node (GROUP BY and the aggregates), the column list and its aliases
are one ``Project``/``Rename`` tail above it (plain columns of a
grouped statement must be group attributes), and LIMIT is a ``Limit``
node carrying ORDER BY -- the first rows in the kernel's order of that
attribute, so ORDER BY decides *which* rows LIMIT keeps.  Nothing
executes after ``Database.execute``: the heading check, the optimizer,
the result cache, views and the cluster see all of it.  A relation is
a set, so ORDER BY without LIMIT changes nothing about :func:`run`'s
answer; :func:`run_rows` lays the answer out in the query's order.

``ANALYZE`` collects planner statistics (see
:mod:`repro.relational.stats`) for one relation, or for every relation
when no name is given, and returns a one-row-per-relation summary of
the refreshed catalog.  The view statements act on the
:class:`~repro.relational.views.ViewCatalog` the database carries
(``db.views``); with one attached a ``source`` may name a view, read as
of ``db``'s own relations -- embedded or over the wire, the same call.

``TIMEOUT``/``BUDGET`` are the per-query resource-governance clauses:
execution runs inside a :func:`repro.gov.governed` scope with the
given deadline (seconds, fractional allowed) and/or materialized-row
budget, so a runaway query raises a typed
:class:`~repro.errors.DeadlineExceededError` /
:class:`~repro.errors.BudgetExceededError` mid-operator instead of
running unbounded.  Note the distinction from ``LIMIT``: LIMIT is an
operator of the plan, BUDGET bounds the rows *materialized while
computing* it.

Usage::

    from repro.relational.sql import run
    run(db, "SELECT name, dname FROM emp JOIN dept WHERE dept = 3")
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NotationError, SchemaError, XSTError
from repro.gov.governor import governed
# Called by nothing here (the Aggregate node names its kernel); kept as
# a module attribute because benchmarks/e2e/layers.py wraps it by name.
from repro.relational.algebra import aggregate  # noqa: F401
from repro.relational.optimizer import optimize
from repro.relational.query import (
    Aggregate,
    Database,
    Join,
    Limit,
    Plan,
    Project,
    Rename,
    Scan,
    SelectEq,
    SelectPred,
)
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.ordering import canonical_key

__all__ = ["parse_query", "compile_query", "run", "run_rows", "Query"]

_TOKEN = re.compile(
    r"""
    (?P<name>[A-Za-z_][A-Za-z_0-9]*) |
    (?P<number>-?\d+\.\d+|-?\d+)     |
    (?P<string>'[^']*')              |
    (?P<op><=|>=|!=|=|<|>)           |
    (?P<punct>[(),*])                |
    (?P<space>\s+)                   |
    (?P<bad>.)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "join", "where", "and", "group", "by", "as",
    "count", "sum", "avg", "min", "max", "order", "asc", "desc", "limit",
    "timeout", "budget", "analyze",
    "create", "materialized", "view", "refresh", "drop",
}

_AGGREGATES = {"count", "sum", "avg", "min", "max"}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    out = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        lexeme = match.group()
        if kind == "space":
            continue
        if kind == "bad":
            raise NotationError(
                "XQL: unexpected character %r at %d" % (lexeme, match.start())
            )
        if kind == "name" and lexeme.lower() in _KEYWORDS:
            out.append(("kw", lexeme.lower()))
        else:
            out.append((kind, lexeme))
    return out


class Query:
    """A parsed XQL query: columns, sources, conditions, grouping."""

    def __init__(self):
        self.star = False
        self.columns: List[Tuple[str, Optional[str]]] = []       # (name, alias)
        self.aggregates: List[Tuple[str, str, str]] = []         # (fn, src, alias)
        self.sources: List[str] = []
        self.conditions: List[Tuple[str, str, Any]] = []          # (attr, op, value)
        self.group_by: List[str] = []
        self.order_by: Optional[Tuple[str, bool]] = None          # (attr, descending)
        self.limit: Optional[int] = None
        self.timeout_s: Optional[float] = None
        self.budget_rows: Optional[int] = None

    def __repr__(self) -> str:
        return "Query(sources=%s, columns=%s, aggregates=%s)" % (
            self.sources, self.columns, self.aggregates
        )


class _Parser:
    def __init__(self, text: str = "", tokens=None):
        self._stream = _tokenize(text) if tokens is None else list(tokens)
        self._position = 0

    def _peek(self) -> Optional[Tuple[str, str]]:
        if self._position >= len(self._stream):
            return None
        return self._stream[self._position]

    def _next(self) -> Tuple[str, str]:
        token = self._peek()
        if token is None:
            raise NotationError("XQL: unexpected end of query")
        self._position += 1
        return token

    def _expect_kw(self, word: str) -> None:
        kind, lexeme = self._next()
        if kind != "kw" or lexeme != word:
            raise NotationError("XQL: expected %s, found %r" % (word.upper(), lexeme))

    def _expect_name(self) -> str:
        kind, lexeme = self._next()
        if kind != "name":
            raise NotationError("XQL: expected a name, found %r" % (lexeme,))
        return lexeme

    def _at_kw(self, word: str) -> bool:
        token = self._peek()
        return token is not None and token == ("kw", word)

    def parse(self) -> Query:
        query = Query()
        self._expect_kw("select")
        self._columns(query)
        self._expect_kw("from")
        query.sources.append(self._expect_name())
        while self._at_kw("join"):
            self._next()
            query.sources.append(self._expect_name())
        if self._at_kw("where"):
            self._next()
            query.conditions.append(self._condition())
            while self._at_kw("and"):
                self._next()
                query.conditions.append(self._condition())
        if self._at_kw("group"):
            self._next()
            self._expect_kw("by")
            query.group_by.append(self._expect_name())
            while self._peek() == ("punct", ","):
                self._next()
                query.group_by.append(self._expect_name())
        if self._at_kw("order"):
            self._next()
            self._expect_kw("by")
            attr = self._expect_name()
            descending = False
            if self._at_kw("desc"):
                self._next()
                descending = True
            elif self._at_kw("asc"):
                self._next()
            query.order_by = (attr, descending)
        if self._at_kw("limit"):
            self._next()
            kind, literal = self._next()
            if kind != "number" or "." in literal or int(literal) < 0:
                raise NotationError(
                    "XQL: LIMIT needs a non-negative integer, found %r"
                    % (literal,)
                )
            query.limit = int(literal)
        if self._at_kw("timeout"):
            self._next()
            kind, literal = self._next()
            if kind != "number" or float(literal) < 0:
                raise NotationError(
                    "XQL: TIMEOUT needs a non-negative number of seconds, "
                    "found %r" % (literal,)
                )
            query.timeout_s = float(literal)
        if self._at_kw("budget"):
            self._next()
            kind, literal = self._next()
            if kind != "number" or "." in literal or int(literal) < 0:
                raise NotationError(
                    "XQL: BUDGET needs a non-negative integer row count, "
                    "found %r" % (literal,)
                )
            query.budget_rows = int(literal)
        leftover = self._peek()
        if leftover is not None:
            raise NotationError("XQL: trailing input at %r" % (leftover[1],))
        if query.aggregates and not query.group_by:
            raise NotationError("XQL: aggregates require GROUP BY")
        return query

    def _columns(self, query: Query) -> None:
        if self._peek() == ("punct", "*"):
            self._next()
            query.star = True
            return
        self._column(query)
        while self._peek() == ("punct", ","):
            self._next()
            self._column(query)

    def _column(self, query: Query) -> None:
        kind, lexeme = self._next()
        if kind == "kw" and lexeme in _AGGREGATES:
            fn_name = lexeme
            if self._next() != ("punct", "("):
                raise NotationError("XQL: expected ( after %s" % fn_name.upper())
            source = self._expect_name()
            if self._next() != ("punct", ")"):
                raise NotationError("XQL: expected ) in aggregate")
            self._expect_kw("as")
            alias = self._expect_name()
            query.aggregates.append((fn_name, source, alias))
            return
        if kind != "name":
            raise NotationError("XQL: expected a column, found %r" % (lexeme,))
        alias = None
        if self._at_kw("as"):
            self._next()
            alias = self._expect_name()
        query.columns.append((lexeme, alias))

    def _condition(self) -> Tuple[str, str, Any]:
        attr = self._expect_name()
        kind, operator = self._next()
        if kind != "op":
            raise NotationError("XQL: expected an operator, found %r" % (operator,))
        kind, literal = self._next()
        if kind == "number":
            value: Any = float(literal) if "." in literal else int(literal)
        elif kind == "string":
            value = literal[1:-1]
        else:
            raise NotationError("XQL: expected a literal, found %r" % (literal,))
        return (attr, operator, value)


def parse_query(text: str) -> Query:
    """Parse XQL text into a :class:`Query` description."""
    return _Parser(text).parse()


_PREDICATES = {
    "=": lambda left, right: left == right,
    "!=": lambda left, right: left != right,
    "<": lambda left, right: left < right,
    "<=": lambda left, right: left <= right,
    ">": lambda left, right: left > right,
    ">=": lambda left, right: left >= right,
}


def compile_query(query: Query) -> Plan:
    """Lower a parsed query -- all of it -- to plan nodes.

    Raises :class:`~repro.errors.SchemaError` for a grouped statement
    whose column list names a non-grouped attribute: decidable from
    the text alone, so refused before there is a plan.
    """
    plan: Plan = Scan(query.sources[0])
    for source in query.sources[1:]:
        plan = Join(plan, Scan(source))
    equalities = {}
    for attr, operator, value in query.conditions:
        if operator == "=" and attr not in equalities:
            equalities[attr] = value
        else:
            test = _PREDICATES[operator]
            condition = "%s %s %r" % (attr, operator, value)
            plan = SelectPred(
                plan,
                lambda row, a=attr, t=test, v=value: t(row[a], v),
                label=condition,
                # The condition text IS the predicate's semantics, so
                # compiled queries are result-cacheable.
                cache_key=condition,
            )
    if equalities:
        plan = SelectEq(plan, equalities)
    aggregations: Dict[str, Tuple[str, str]] = {}
    if query.aggregates or query.group_by:
        stray = [
            name for name, _ in query.columns if name not in query.group_by
        ]
        if stray:
            raise SchemaError(
                "XQL: non-grouped columns in aggregate query: %s" % stray
            )
        aggregations = {
            alias: (fn_name, source)
            for fn_name, source, alias in query.aggregates
        }
        plan = Aggregate(plan, query.group_by, aggregations)
    # One projection/rename tail for every statement shape; ``*`` and a
    # select list of aggregates alone keep the whole heading.
    if query.columns:
        plan = Project(
            plan, [name for name, _ in query.columns] + [*aggregations]
        )
        renames = {name: alias for name, alias in query.columns if alias}
        if renames:
            plan = Rename(plan, renames)
    if query.limit is not None:
        plan = Limit(plan, query.limit, *(query.order_by or ()))
    return plan


def _run_analyze(db: Database, text: str) -> Relation:
    """Execute an ANALYZE statement."""
    stream = _tokenize(text)
    if len(stream) == 1:
        targets = None
    elif len(stream) == 2 and stream[1][0] == "name":
        targets = [stream[1][1]]
    else:
        raise NotationError("XQL: ANALYZE takes at most one relation name")
    analyzed = db.analyze(targets)
    rows = []
    for name in analyzed:
        entry = db.stats.get(name, allow_stale=True)
        rows.append({
            "relation": name,
            "rows": entry.rows,
            "attributes": len(entry.attributes),
        })
    return Relation.from_dicts(
        Heading(["relation", "rows", "attributes"]), rows
    )


def _run_view_statement(db: Database, text: str) -> Relation:
    """Execute a CREATE/REFRESH/DROP VIEW statement on the view catalog
    ``db`` carries.

    A view body is any SELECT -- GROUP BY, aggregates and ORDER BY ...
    LIMIT are plan nodes like the rest -- without TIMEOUT / BUDGET,
    which govern one execution and not a relation-valued plan.  A
    materialized view is computed immediately, so it is fresh -- and
    incrementally maintained, when the catalog has a manager -- from
    the moment the statement returns.  Definitions are the catalog's,
    not a version's: shared and immediate, like ANALYZE's statistics.
    """
    stream = _tokenize(text)
    head = stream[0]
    views = db.views
    if views is None:
        raise SchemaError(
            "XQL: %s VIEW needs a view catalog" % head[1].upper()
        )
    if head == ("kw", "create"):
        materialized = stream[1:2] == [("kw", "materialized")]
        index = 2 if materialized else 1
        if index >= len(stream) or stream[index] != ("kw", "view"):
            raise NotationError("XQL: expected VIEW after CREATE")
        index += 1
        if index >= len(stream) or stream[index][0] != "name":
            raise NotationError("XQL: CREATE VIEW needs a view name")
        name = stream[index][1]
        index += 1
        if index >= len(stream) or stream[index] != ("kw", "as"):
            raise NotationError("XQL: expected AS in CREATE VIEW")
        index += 1
        body = _Parser(tokens=stream[index:]).parse()
        if body.timeout_s is not None or body.budget_rows is not None:
            raise NotationError(
                "XQL: a view body takes no TIMEOUT or BUDGET (they "
                "govern one execution)"
            )
        plan = compile_query(body)
        if body.order_by is not None and body.limit is None:
            _require_order_attr(body, *views.resolve(db, plan))
        views.define(name, plan, materialized=materialized)
        try:
            rows = views.read(name).cardinality()
        except XSTError:
            views.drop(name)  # a refused statement defines nothing
            raise
        return Relation.from_dicts(
            Heading(["view", "kind", "rows"]),
            [{
                "view": name,
                "kind": "materialized" if materialized else "virtual",
                "rows": rows,
            }],
        )
    if (
        len(stream) != 3 or stream[1] != ("kw", "view")
        or stream[2][0] != "name"
    ):
        raise NotationError(
            "XQL: expected %s VIEW name" % head[1].upper()
        )
    name = stream[2][1]
    if head[1] == "refresh":
        refreshed = views.refresh(name)
        return Relation.from_dicts(
            Heading(["view", "rows"]),
            [{"view": name, "rows": refreshed.cardinality()}],
        )
    views.drop(name)
    return Relation.from_dicts(
        Heading(["view", "dropped"]), [{"view": name, "dropped": 1}]
    )


#: Bound of the statement memo below, in distinct statement texts.
_MEMO_ENTRIES = 512

#: A statement's first word, which alone decides its kind.
_HEAD = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)")

_VIEW_STATEMENTS = frozenset(("create", "refresh", "drop"))


@lru_cache(maxsize=_MEMO_ENTRIES)
def _select(text: str) -> Tuple[Query, Plan]:
    """The parsed and compiled SELECT of ``text``, once per text.

    Both are pure functions of the text (a plan names relations, it
    holds no data), so one process-wide memo serves every session and
    every database; callers only read them.  A text that raises is not
    stored and is parsed again next time.
    """
    query = parse_query(text)
    return query, compile_query(query)


def _run(
    db: Database, text: str, optimized: bool
) -> Tuple[Optional[Query], Relation]:
    """Execute one statement; the query is ``None`` unless a SELECT.

    ANALYZE and the view statements act on the database, so they run
    every time and never enter the memo.
    """
    head = _HEAD.match(text)
    kind = head.group(1).lower() if head else ""
    if kind == "analyze":
        return None, _run_analyze(db, text)
    if kind in _VIEW_STATEMENTS:
        return None, _run_view_statement(db, text)
    query, plan = _select(text)
    if query.timeout_s is not None or query.budget_rows is not None:
        # TIMEOUT/BUDGET clauses execute the query under a governor so
        # the kernel's cancellation checkpoints can stop it mid-operator.
        with governed(timeout_s=query.timeout_s, max_rows=query.budget_rows):
            return query, _run_parsed(db, query, plan, optimized)
    return query, _run_parsed(db, query, plan, optimized)


def run(db: Database, text: str, optimized: bool = True) -> Relation:
    """Parse, compile, (optionally) optimize and execute an XQL query."""
    return _run(db, text, optimized)[1]


def _require_order_attr(query: Query, db: Database, plan: Plan) -> None:
    """Refuse a bare ORDER BY that names an attribute the answer lacks.

    ORDER BY without LIMIT is the one clause that is not a plan node (a
    relation keeps no row order; :func:`run_rows` lays it out), so its
    attribute is checked here against the plan's static heading: refused
    like any other unknown attribute, before any work.  Callers test
    for the bare clause themselves -- a statement without one (every
    served shape) pays no call.
    """
    db.heading_of(plan).require([query.order_by[0]])


def _run_parsed(
    db: Database, query: Query, plan: Plan, optimized: bool
) -> Relation:
    views = db.views
    # Asked of the parsed sources: a statement that names no view pays
    # no plan walk.
    if views is not None and views.defines(query.sources):
        db, plan = views.resolve(db, plan)
    if query.order_by is not None and query.limit is None:
        _require_order_attr(query, db, plan)
    if optimized:
        plan = optimize(plan, db)
    return db.execute(plan)


def run_rows(
    db: Database, text: str, optimized: bool = True
) -> List[Dict[str, Any]]:
    """Like :func:`run`, but returns an ordered list of row dicts.

    A relation is a set and cannot carry row order; when a query says
    ORDER BY, this is the entry point that lays the answer out in that
    order -- the kernel's (``canonical_key``), the one LIMIT chose its
    rows by.  Without ORDER BY, and between equal keys, the canonical
    row order is used, which is deterministic but not meaningful.
    """
    query, relation = _run(db, text, optimized)
    rows = list(relation.iter_dicts())
    if query is not None and query.order_by is not None:
        attr, descending = query.order_by
        rows.sort(key=lambda row: canonical_key(row[attr]), reverse=descending)
    return rows
