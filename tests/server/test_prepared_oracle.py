"""Differential oracle: a served ``EXECUTE`` against the text it means.

``EXECUTE`` binds its arguments into the statement's plan as values;
the statement with those arguments written in as literals
(:func:`repro.server.session.render_statement`) is the reference.
Hypothesis draws templates over every literal position the grammar has
-- a condition under each comparison operator, ``LIMIT``, ``TIMEOUT``
and ``BUDGET`` -- and arguments XQL can spell, and checks that

* the served answer equals the unoptimized embedded run of the
  rendered text, byte for byte;
* the bound plan carries the result-cache key of the rendered text's
  plan, optimized or not, so ``QUERY`` and ``EXECUTE`` share entries;
* arguments that do not fit the placeholders are refused with the
  message rendering gives.

Seeded by ``REPRO_WORKLOAD_SEED`` (default 101), so a failure replays.
"""

import asyncio
import os

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.errors import SessionError
from repro.relational import sql
from repro.relational.constraints import KeyConstraint, Table
from repro.relational.optimizer import optimize
from repro.relational.query import plan_cache_key
from repro.relational.tx import TransactionManager
from repro.server import Server, connect
from repro.server.session import render_statement
from repro.xst.serialization import dumps

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "101"))

NAMES = ("ada", "bob", "cyd", "dee", "$1", "a b")
DEPTS = ("eng", "ops", "r&d$")

#: The sources a statement reads, with the numeric attributes each
#: adds; every source has the textual ``name`` and ``dept``.
SOURCES = {
    "emp": ("eid", "salary"),
    "emp join dept": ("eid", "salary", "floor"),
    "emp join dept join proj": ("eid", "salary", "floor", "proj"),
}
TEXTUAL = ("name", "dept")
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")


def make_manager():
    # ``dept`` is skewed (nine in ten rows are "eng"), so the join order
    # depends on which department a condition names: the estimator
    # reads each value's run.
    emp = Table(
        ["eid", "name", "dept", "salary"],
        [{"eid": n, "name": NAMES[n % len(NAMES)],
          "dept": DEPTS[0] if n % 10 else DEPTS[1 + n // 10 % 2],
          "salary": 100 * (n % 7)}
         for n in range(120)],
        [KeyConstraint(["eid"])],
    )
    dept = Table(["dept", "floor"], [
        {"dept": name, "floor": floor} for floor, name in enumerate(DEPTS)
    ])
    proj = Table(["eid", "proj"],
                 [{"eid": n, "proj": n % 5} for n in range(0, 120, 2)])
    return TransactionManager({"emp": emp, "dept": dept, "proj": proj})


@pytest.fixture(scope="module")
def served():
    loop = asyncio.new_event_loop()
    manager = make_manager()
    server = Server(manager)
    loop.run_until_complete(server.start())
    client = loop.run_until_complete(connect("127.0.0.1", server.port))
    yield loop, manager, client
    loop.run_until_complete(client.close())
    loop.run_until_complete(server.close())
    loop.close()


#: Arguments a literal can spell: integers, floats whose ``repr`` is
#: ``digits.digits``, strings without a quote.
numbers = st.one_of(
    st.integers(-5, 30),
    st.integers(-4 * 800, 4 * 800).map(lambda n: n / 4),
)
strings = st.one_of(st.sampled_from(NAMES + DEPTS + DEPTS),
                    st.text(alphabet="abdeno$& ", max_size=4))
#: A literal written into a template holds no ``$``: in a template a
#: quoted ``$1`` is text, while rendering would substitute into it.
literal_strings = strings.filter(lambda text: "$" not in text)


@st.composite
def statements(draw):
    """``(template, args)``: placeholders numbered in a drawn order,
    some used twice, each argument typed for where it stands."""
    source = draw(st.sampled_from(sorted(SOURCES)))
    numeric = SOURCES[source]
    columns = draw(st.sampled_from(
        ["*", "eid, name",
         "name, dept" + (", floor" if "join dept" in source else "")]
    ))
    conditions = draw(st.lists(st.tuples(
        st.sampled_from(numeric + TEXTUAL), st.sampled_from(OPERATORS),
        st.booleans(),          # a placeholder (else a literal)
    ), max_size=4))
    clauses = draw(st.lists(st.sampled_from(("LIMIT", "TIMEOUT", "BUDGET")),
                            unique=True))
    # One slot per placeholder, by the kind of argument it takes; the
    # text holds "?" where each goes until they are numbered.
    slots, where = [], []
    for attr, operator, placeholder in conditions:
        kind = "number" if attr in numeric else "string"
        if placeholder:
            slots.append(kind)
            where.append("%s %s ?" % (attr, operator))
        else:
            value = draw(numbers if kind == "number" else literal_strings)
            where.append("%s %s %s" % (
                attr, operator, render_statement("$1", [value])))
    text = "select %s from %s" % (columns, source)
    if where:
        text += " where " + " and ".join(where)
    tail = []
    for clause in ("LIMIT", "TIMEOUT", "BUDGET"):
        if clause in clauses:
            slots.append(clause)
            if clause == "LIMIT" and draw(st.booleans()):
                tail.append("order by %s%s" % (
                    "name" if columns.startswith("name") else "eid",
                    draw(st.sampled_from(["", " asc", " desc"]))))
            tail.append("%s ?" % clause.lower())
    if tail:
        text += " " + " ".join(tail)
    # Number the placeholders: a permutation, and a condition may reuse
    # an earlier condition's placeholder of the same kind.
    order = draw(st.permutations(range(1, len(slots) + 1)))
    indices, kinds = [], {}
    for position, kind in enumerate(slots):
        earlier = [index for index in indices if kinds[index] == kind]
        if kind in ("number", "string") and earlier and \
                draw(st.integers(0, 3)) == 0:
            indices.append(draw(st.sampled_from(earlier)))
        else:
            indices.append(order[position])
        kinds[indices[-1]] = kind
    used = sorted(set(indices))
    # Renumber densely so every argument is used.
    dense = {index: n for n, index in enumerate(used, start=1)}
    for index in indices:
        text = text.replace("?", "$%d" % dense[index], 1)
    args = [None] * len(used)
    for index in used:
        kind = kinds[index]
        args[dense[index] - 1] = draw({
            "number": numbers, "string": strings,
            "LIMIT": st.integers(0, 6),
            "TIMEOUT": st.sampled_from([60, 60.0, 3600.5]),
            "BUDGET": st.sampled_from([10 ** 6, 10 ** 7]),
        }[kind])
    return text, args


class TestServedExecuteIsTheRenderedText:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=150, deadline=None)
    @given(statement=statements())
    # The skewed department reorders this join: bound into a plan whose
    # joins were ordered without the value, its key would differ.
    @example(statement=("select * from emp join dept join proj "
                        "where dept = $1", ["eng"]))
    def test_answers_and_cache_keys_agree(self, served, statement):
        loop, manager, client = served
        template, args = statement
        rendered = render_statement(template, args)
        db = manager.committed()
        loop.run_until_complete(client.prepare("t", template))
        answer = loop.run_until_complete(client.execute("t", args))
        expected = sql.run(db, rendered, optimized=False)
        assert answer == expected
        assert dumps(answer.rows) == dumps(expected.rows)

        query, compiled = sql._select(template)
        for optimized in (False, True):
            _, bound = sql._planned(
                db, template, query, compiled, args, optimized)
            text_plan = sql._select(rendered)[1]
            if optimized:
                text_plan = optimize(text_plan, db)
            assert plan_cache_key(bound) == plan_cache_key(text_plan)
            assert plan_cache_key(bound) is not None

    @seed(WORKLOAD_SEED)
    @settings(max_examples=60, deadline=None)
    @given(statement=statements(), change=st.integers(-2, 2),
           gap=st.booleans())
    def test_arguments_that_do_not_fit_are_refused_alike(
            self, served, statement, change, gap):
        loop, _, client = served
        template, args = statement
        count = len(args) + change
        if gap and args:
            # Skip a number: ``$n`` becomes ``$n+1``, leaving ``$n`` out.
            template = template.replace("$%d" % len(args),
                                        "$%d" % (len(args) + 1))
        elif count == len(args) or count < 0:
            count = len(args) + 1
        args = (args + [7, 8])[:max(0, count)]
        with pytest.raises(SessionError) as rendering:
            render_statement(template, args)
        loop.run_until_complete(client.prepare("t", template))
        with pytest.raises(SessionError) as serving:
            loop.run_until_complete(client.execute("t", args))
        assert serving.value.reason == rendering.value.reason
