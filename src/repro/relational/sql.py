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
                [LIMIT count]
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
    literal, count, seconds, rows  :=  number | string | '$' digits

Restrictions (on purpose): joins are natural joins; aggregates require
GROUP BY; literals are integers, floats and quoted strings.  Keywords
are case-insensitive; names are case-sensitive.

A placeholder ``$k`` may stand wherever a literal may; it compiles to a
:class:`~repro.relational.query.Param` and :func:`run` binds
``args[k - 1]`` into the plan as a value.  A statement is one plan
value: parsed and compiled once per process, optimized once per
catalog value (:meth:`Database.plan_memo`), bound per execution --
``QUERY`` is the zero-argument case of ``EXECUTE``.

With a result cache, a statement is answered before it is planned: the
cache is consulted under the key of the compiled statement bound to
its arguments (never of the optimized plan: every rewrite denotes the
same set, Thm 11.2) and the relations it scans, the key a view body is
stored under too.  A hit runs no optimizer and no heading check; only
a miss is checked, counted, planned and executed, and its answer
stored under that key.  A statement reading a view is resolved and
planned first, as without a cache.

The whole statement is one plan: WHERE compiles to one ``Restrict``
node, the conjunction of its comparisons, below an ``Aggregate`` node
(GROUP BY and the aggregates), the column list and its aliases
are one ``Project``/``Rename`` tail above it (plain columns of a
grouped statement must be group attributes), and LIMIT is a ``Limit``
node carrying ORDER BY -- the first rows in the kernel's order of that
attribute, so ORDER BY decides *which* rows LIMIT keeps.  Nothing
executes after ``Database.execute``: the heading check, the optimizer,
the result cache, views and the cluster see all of it.  A relation is
a set, so ORDER BY without LIMIT changes nothing about :func:`run`'s
answer; :func:`run_rows` lays the answer out in the query's order.

``ANALYZE`` reports what the planner reads of one relation, or of
every relation when no name is given: one row per relation with its
row count and its number of attributes, read off the catalog value.
It changes nothing -- the planner reads the relations themselves, so
there is nothing to collect.  The view statements act on the
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import NotationError, SchemaError, SessionError, XSTError
from repro.gov.governor import governed
# Called by nothing here (the Aggregate node names its kernel); kept as
# a module attribute because benchmarks/e2e/layers.py wraps it by name.
from repro.relational.algebra import aggregate  # noqa: F401
from repro.relational.algebra import Comparison
from repro.relational.optimizer import optimize
from repro.relational.query import (
    Aggregate,
    Database,
    Join,
    Limit,
    Param,
    Plan,
    Project,
    Rename,
    Restrict,
    Scan,
    plan_cache_key,
    scan_tables,
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
    (?P<param>\$\d*)                 |
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
        # A clause's value, or the Param its placeholder compiles to.
        self.limit: Optional[int] = None
        self.timeout_s: Optional[float] = None
        self.budget_rows: Optional[int] = None
        self.parameters: List[str] = []     # placeholder spellings, in order
        # How many arguments bind the placeholders ($1..$n, each used),
        # or -1 when no count does.
        self.arity = 0

    def __repr__(self) -> str:
        return "Query(sources=%s, columns=%s, aggregates=%s)" % (
            self.sources, self.columns, self.aggregates
        )


#: The clauses whose literal is a number: what each takes, and whether
#: a fractional number is one.
_CLAUSES = {
    "LIMIT": ("a non-negative integer", False),
    "TIMEOUT": ("a non-negative number of seconds", True),
    "BUDGET": ("a non-negative integer row count", False),
}


def _clause_number(clause: str, value: Any, shown: Any) -> Any:
    """``value`` as the number ``clause`` takes, else a typed refusal
    naming ``shown`` (the lexeme, or a bound argument)."""
    what, fractional = _CLAUSES[clause]
    if (type(value) is int or fractional and type(value) is float) \
            and value >= 0:
        return float(value) if fractional else value
    raise NotationError("XQL: %s needs %s, found %r" % (clause, what, shown))


class _Parser:
    def __init__(self, text: str = "", tokens=None):
        self._stream = _tokenize(text) if tokens is None else list(tokens)
        self._position = 0
        self._parameters: List[str] = []

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
            query.limit = self._clause("LIMIT")
        if self._at_kw("timeout"):
            self._next()
            query.timeout_s = self._clause("TIMEOUT")
        if self._at_kw("budget"):
            self._next()
            query.budget_rows = self._clause("BUDGET")
        leftover = self._peek()
        if leftover is not None:
            raise NotationError("XQL: trailing input at %r" % (leftover[1],))
        if query.aggregates and not query.group_by:
            raise NotationError("XQL: aggregates require GROUP BY")
        query.parameters = self._parameters
        indices = {_index(spelling) for spelling in self._parameters}
        query.arity = (
            len(indices) if indices == set(range(1, len(indices) + 1))
            else -1
        )
        return query

    def _param(self, spelling: str) -> Param:
        self._parameters.append(spelling)
        return Param(_index(spelling))

    def _clause(self, clause: str) -> Any:
        kind, literal = self._next()
        if kind == "param":
            return self._param(literal)
        value = None
        if kind == "number":
            value = float(literal) if "." in literal else int(literal)
        return _clause_number(clause, value, literal)

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
        elif kind == "param":
            value = self._param(literal)
        else:
            raise NotationError("XQL: expected a literal, found %r" % (literal,))
        return (attr, operator, value)


def _index(spelling: str) -> int:
    """The argument a placeholder names: ``$3`` is 3; ``$`` names none."""
    return int(spelling[1:] or 0)


def parse_query(text: str) -> Query:
    """Parse XQL text into a :class:`Query` description."""
    return _Parser(text).parse()


def compile_query(query: Query) -> Plan:
    """Lower a parsed query -- all of it -- to plan nodes.

    Raises :class:`~repro.errors.SchemaError` for a grouped statement
    whose column list names a non-grouped attribute: decidable from
    the text alone, so refused before there is a plan.
    """
    plan: Plan = Scan(query.sources[0])
    for source in query.sources[1:]:
        plan = Join(plan, Scan(source))
    if query.conditions:
        # The whole WHERE clause is one conjunction: one node.
        plan = Restrict(plan, [Comparison(*cond) for cond in query.conditions])
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


def _refuse_arguments(query: Query, text: str, count: int) -> None:
    """Raise for ``count`` arguments that do not bind ``query``'s
    placeholders: the first placeholder (in text order) left unbound,
    else the last argument no placeholder uses.  Called only when the
    count differs from :attr:`Query.arity`, so one of the two holds."""
    used = set()
    for spelling in query.parameters:
        index = _index(spelling)
        if not 1 <= index <= count:
            raise SessionError(
                "statement placeholders left unbound: %s in %s"
                % (spelling, text)
            )
        used.add(index)
    for index in range(count, 0, -1):
        if index not in used:
            raise SessionError(
                "statement has no placeholder $%d for argument %d"
                % (index, index)
            )


def _bind(plan: Plan, args: Sequence[Any]) -> Plan:
    """``plan`` with every parameter replaced by its argument's value:
    the very plan :func:`compile_query` builds from the statement with
    those values written in (same conditions, same descriptions, same result
    cache key), so an execution and a query of that text share result
    cache entries.  ``args`` fit the plan's placeholders."""
    children = plan.children()
    if children:
        plan = plan.with_children(*[_bind(child, args) for child in children])
    binder = _BINDERS.get(type(plan))
    return plan if binder is None else binder(plan, args)


def _bind_restrict(plan: Restrict, args: Sequence[Any]) -> Plan:
    return Restrict(plan.child, [
        Comparison(comparison.attr, comparison.operator,
                   args[comparison.value.index - 1])
        if type(comparison.value) is Param else comparison
        for comparison in plan.comparisons
    ])


def _bind_limit(plan: Limit, args: Sequence[Any]) -> Plan:
    if type(plan.count) is not Param:
        return plan
    return Limit(plan.child, _clause_argument("LIMIT", plan.count, args),
                 plan.order_by, plan.descending)


#: The binding rule of each node type that can hold a parameter.
_BINDERS = {
    Restrict: _bind_restrict,
    Limit: _bind_limit,
}


def _clause_argument(clause: str, value: Any, args: Sequence[Any]) -> Any:
    """A clause's value, its placeholder (if it is one) bound."""
    if type(value) is not Param:
        return value
    value = args[value.index - 1]
    return _clause_number(clause, value, value)


def _run_analyze(db: Database, text: str) -> Relation:
    """Execute an ANALYZE statement: a report, with no side effect."""
    stream = _tokenize(text)
    if len(stream) == 1:
        targets = db.names()
    elif len(stream) == 2 and stream[1][0] == "name":
        targets = [stream[1][1]]
    else:
        raise NotationError("XQL: ANALYZE takes at most one relation name")
    rows = []
    for name in targets:
        relation = db.relation(name)
        rows.append({
            "relation": name,
            "rows": len(relation),
            "attributes": len(relation.heading),
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
    not a version's: shared and immediate.
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
        if body.parameters:
            raise NotationError(
                "XQL: a view body takes no placeholders (a view is "
                "defined once, not bound per execution)"
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

#: Bound of one catalog value's plan memo (:meth:`Database.plan_memo`),
#: in statement texts; the oldest entry goes first.
_PLAN_ENTRIES = 128

#: The first word of a statement that is not a SELECT -- ANALYZE or a
#: view statement -- which alone decides its kind: a whole word, in
#: any case.  One match, which a SELECT fails.
_NOT_SELECT = re.compile(r"\s*(analyze|create|refresh|drop)(?![A-Za-z_0-9])",
                         re.IGNORECASE | re.ASCII)


class _Selected(tuple):
    """What :func:`_select` holds for a text: unpacks as ``(query,
    template)``.  A cached catalog's first consult for the text fills in
    the tables the template scans (sorted) and, when it has no
    placeholders, its result-cache key (a template's key is its
    binding's): functions of the text too, so filled once per text, and
    never for a catalog without a cache."""

    tables: Optional[Tuple[str, ...]] = None
    key: Optional[str] = None


@lru_cache(maxsize=_MEMO_ENTRIES)
def _select(text: str) -> _Selected:
    """The parsed and compiled SELECT of ``text``, once per text.

    Both are pure functions of the text (a plan names relations, it
    holds no data; a placeholder is a :class:`Param`, not a value), so
    one process-wide memo serves every session and every database;
    callers only read them (and fill in :class:`_Selected`'s derived
    fields).  A text that raises is not stored and is
    parsed again next time.
    """
    query = parse_query(text)
    return _Selected((query, compile_query(query)))


def _run(
    db: Database, text: str, optimized: bool, args: Sequence[Any] = ()
) -> Tuple[Optional[Query], Relation]:
    """Execute one statement; the query is ``None`` unless a SELECT.

    ANALYZE and the view statements are not plans, so they run every
    time and never enter the memo; they take no arguments.
    """
    head = _NOT_SELECT.match(text)
    if head is not None:
        if args:
            _refuse_arguments(Query(), text, len(args))
        if head.group(1).lower() == "analyze":
            return None, _run_analyze(db, text)
        return None, _run_view_statement(db, text)
    selected = _select(text)
    query = selected[0]
    if len(args) != query.arity:
        _refuse_arguments(query, text, len(args))
    timeout_s, budget_rows = query.timeout_s, query.budget_rows
    if args:
        timeout_s = _clause_argument("TIMEOUT", timeout_s, args)
        budget_rows = _clause_argument("BUDGET", budget_rows, args)
    if timeout_s is not None or budget_rows is not None:
        # TIMEOUT/BUDGET clauses execute the query under a governor so
        # the kernel's cancellation checkpoints can stop it mid-operator.
        with governed(timeout_s=timeout_s, max_rows=budget_rows):
            return query, _answer(db, text, selected, args, optimized)
    return query, _answer(db, text, selected, args, optimized)


def _answer(
    db: Database, text: str, selected: _Selected, args: Sequence[Any],
    optimized: bool,
) -> Relation:
    """The answer of ``text`` bound to ``args`` (which fit its
    placeholders) on ``db``.

    With a result cache, it is consulted first, under the key of the
    compiled statement bound to ``args`` -- never of a plan the
    optimizer picked: every rewrite denotes the same set (Thm 11.2),
    so the answer is a function of the statement and the relations it
    scans, and the view store keys a body alike.  An entry is stored
    only after the statement passed the heading check on these very
    relations, so a hit is well formed and costs no ``optimize``, no
    ``heading_of`` and no key rendering.  A miss is checked, then
    counted (an ill-formed statement moves no counter), then planned
    and executed, and its answer stored under that key.
    """
    query, template = selected
    cache = db.result_cache
    views = db.views
    if cache is None or views is not None and views.defines(query.sources):
        db, plan = _planned(db, text, query, template, args, optimized)
        return db.execute(plan)
    tables = selected.tables
    if tables is None:
        tables = selected.tables = scan_tables(template)
        if not args:
            selected.key = plan_cache_key(template)
    if args:
        bound = _bind(template, args)
        key = plan_cache_key(bound)
    else:
        bound, key = template, selected.key
    bare_order = query.order_by is not None and query.limit is None
    if bare_order:
        # The one clause outside the plan, so outside its key: checked
        # before the consult.
        _require_order_attr(query, db, bound)
    inputs = db.inputs(tables)
    if inputs is not None:
        answer = cache.lookup(key, inputs, count_miss=False)
        if answer is not None:
            return answer
    if not bare_order:
        db.heading_of(bound)
    cache.count_miss(key)
    _, plan = _planned(db, text, query, template, args, optimized)
    return db.execute(plan, stored_as=(key, inputs, tables))


def run(
    db: Database, text: str, optimized: bool = True,
    args: Sequence[Any] = (),
) -> Relation:
    """Parse, compile, (optionally) optimize and execute an XQL query.

    ``args`` bind the statement's placeholders -- ``$k`` is
    ``args[k - 1]`` -- as values: the answer is the one the statement
    with those literals written in gives, for any value a set can hold,
    including those no XQL literal spells (``1e20``, ``inf``, a string
    holding ``'``); a ``nan``, which equals nothing, is refused when it
    is bound (:class:`~repro.errors.InvalidAtomError`).  A placeholder
    left unbound, or an argument no placeholder uses, is a typed
    :class:`~repro.errors.SessionError`.
    """
    return _run(db, text, optimized, args)[1]


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


def _planned(
    db: Database, text: str, query: Query, template: Plan,
    args: Sequence[Any], optimized: bool,
) -> Tuple[Database, Plan]:
    """The catalog and the plan that execute ``text`` bound to ``args``
    (which fit its placeholders)."""
    views = db.views
    # Asked of the parsed sources: a statement that names no view pays
    # no plan walk.
    if views is not None and views.defines(query.sources):
        db, plan = views.resolve(db, _bind(template, args) if args
                                 else template)
        if query.order_by is not None and query.limit is None:
            _require_order_attr(query, db, plan)
        return db, optimize(plan, db) if optimized else plan
    if query.order_by is not None and query.limit is None:
        _require_order_attr(query, db, template)
    if not optimized:
        return db, _bind(template, args) if args else template
    if args and len(query.sources) > 1:
        # A join's order is searched over estimates that read the
        # arguments (the length of a value's run in a member index),
        # so a joining template is ordered per binding: the estimator
        # is never handed a Param.
        return db, optimize(_bind(template, args), db)
    # Otherwise the optimized plan is a function of the text and the
    # catalog value alone: planned once per value (heading-checked
    # there), then bound.
    memo = db.plan_memo()
    plan = memo.get(text)
    if plan is None:
        plan = optimize(template, db)
        if len(memo) >= _PLAN_ENTRIES:
            del memo[next(iter(memo))]
        memo[text] = plan
    return db, _bind(plan, args) if args else plan


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
