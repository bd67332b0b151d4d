"""Differential oracle: a cached answer against the statement it answers.

With a result cache, :func:`repro.relational.sql.run` consults it
before it plans, under the key of the compiled statement bound to its
arguments, and runs the optimizer only on a miss.  Hypothesis draws
streams over ``mixed_cached``-like shapes -- selections and joins,
prepared joining templates with arguments, ``TIMEOUT``/``BUDGET``, a
bare ``ORDER BY``, texts naming an unknown relation or attribute --
read by a session that follows every commit and by one that stays
pinned until it refreshes, between commits of values drawn from
:mod:`tests.values` (the twins, the float edges, sets).  It checks that

* every answer equals ``sql.run(..., optimized=False)`` on a cache-less
  copy of the reader's catalog value, and has its optimized run's
  bytes;
* a refused statement raises the error the cache-less run raises,
  type and text;
* an ill-formed statement moves no cache counter, and a well-formed
  one exactly one of hits, misses and stale -- also when a value only
  execution meets refuses it.

Seeded by ``REPRO_WORKLOAD_SEED`` (default 101), so a failure replays.
"""

import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, XSTError
from repro.relational import sql
from repro.relational.constraints import KeyConstraint, Table
from repro.relational.ivm.cache import QueryResultCache
from repro.relational.query import Database
from repro.relational.tx import TransactionManager
from repro.relational.views import ViewCatalog
from repro.server.session import Session
from repro.xst.serialization import dumps
from tests.values import ATOMS, values

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "101"))

DEPTS = 4

#: Statements without placeholders, well formed on every value the
#: stream makes.  The first is the materialized view's body, so a read
#: of it may hit the view's pinned entry.
QUERIES = [
    "select emp, name from emp where dept = 1",
    *["select emp, name, dname from emp join dept where dept = %d" % k
      for k in range(DEPTS)],
    "select emp, name, dname from emp join dept where emp = 3",
    *["select emp, name, salary from emp where dept = %d" % k
      for k in range(DEPTS)],
    "select dname from dept where dept = 2",
    "select emp, hours from proj where proj = 1",
    "select name, dname, hours from emp join dept join proj where proj = 0",
    "select emp, name from emp where dept = 2 timeout 60",
    "select * from emp join dept budget 1000000",
    "select emp, salary from emp where dept = 0 order by salary desc",
    "select emp, name from emp order by emp desc limit 3",
    "select dept, count(emp) as n from emp group by dept",
]

#: Prepared templates, with the kind of argument each placeholder takes.
TEMPLATES = [
    ("select emp, name, dname from emp join dept where dept = $1",
     ("dept",)),
    ("select name, dname, hours from emp join dept join proj "
     "where proj = $1 and dept = $2", ("proj", "dept")),
    ("select emp, name from emp where dept = $1 budget $2",
     ("dept", "budget")),
    ("select emp, name from emp where salary > $1 limit $2",
     ("value", "limit")),
    ("select emp, salary from emp where dept = $1 order by salary",
     ("dept",)),
    ("select emp from emp where dept = $1 timeout $2", ("dept", "timeout")),
]

#: Statements that are not well formed: an unknown relation or
#: attribute, in the plan or in a bare ORDER BY alone.
ILL_FORMED = [
    ("select * from nosuch", ()),
    ("select emp from emp join nosuch", ()),
    ("select ghost from emp where dept = 1", ()),
    ("select emp from emp where ghost = 1", ()),
    ("select emp, name from emp where dept = 1 order by ghost", ()),
    ("select emp, name from emp where dept = 1 order by salary", ()),
    ("select emp from emp where ghost = $1", ("dept",)),
    ("select emp, name, dname from emp join dept where dept = $1 "
     "order by hours", ("dept",)),
]

#: What a statement argument may be: the pool's atoms a session binds.
ARGUMENT_ATOMS = [value for value in ATOMS if type(value) in (int, float, str)]

ARGUMENTS = {
    "dept": st.one_of(st.integers(0, DEPTS), st.sampled_from(ARGUMENT_ATOMS)),
    "proj": st.integers(0, 3),
    "value": st.one_of(st.integers(-1, 9), st.sampled_from(ARGUMENT_ATOMS)),
    "limit": st.integers(0, 4),
    "budget": st.just(10 ** 6),
    "timeout": st.sampled_from([60, 3600.5]),
}


def make_manager():
    emp = Table(
        ["emp", "name", "dept", "salary"],
        [{"emp": n, "name": "e%d" % n, "dept": n % DEPTS, "salary": n % 5}
         for n in range(12)],
        [KeyConstraint(["emp"])],
    )
    dept = Table(["dept", "dname"],
                 [{"dept": k, "dname": "d%d" % k} for k in range(DEPTS)],
                 [KeyConstraint(["dept"])])
    proj = Table(["emp", "proj", "hours"],
                 [{"emp": n, "proj": n % 3, "hours": n} for n in range(0, 12, 2)])
    manager = TransactionManager({"emp": emp, "dept": dept, "proj": proj},
                                 result_cache=QueryResultCache(capacity=8))
    catalog = ViewCatalog(Database(), manager=manager)
    sql.run(catalog.database, "CREATE MATERIALIZED VIEW hot AS " + QUERIES[0])
    return manager


def arguments(kinds):
    return st.tuples(*[ARGUMENTS[kind] for kind in kinds]).map(list)


#: ``(text, args, well formed)``.
statements = st.one_of(
    st.tuples(st.sampled_from(QUERIES), st.just([]), st.just(True)),
    st.sampled_from(TEMPLATES).flatmap(
        lambda template: st.tuples(st.just(template[0]),
                                   arguments(template[1]), st.just(True))),
    st.sampled_from(ILL_FORMED).flatmap(
        lambda statement: st.tuples(st.just(statement[0]),
                                    arguments(statement[1]),
                                    st.just(False))),
)

commits = st.one_of(
    st.tuples(st.just("update"), st.integers(0, 15), values),
    st.tuples(st.just("insert"), st.integers(12, 15), values),
    st.tuples(st.just("delete"), st.integers(0, 15), st.none()),
    st.tuples(st.just("proj"), st.integers(0, 15), st.integers(0, 3)),
)

steps = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(["follower", "pinned"]),
              statements),
    st.tuples(st.just("read"), st.sampled_from(["follower", "pinned"]),
              statements),
    st.tuples(st.just("commit"), commits),
    st.tuples(st.just("refresh"),),
)


def commit(manager, step):
    """One commit; a refused insert (the row or its key is present)
    commits nothing, and the stream goes on."""
    kind, key, value = step
    emp = manager.table("emp")
    try:
        if kind == "update":
            emp.update({"emp": key}, {"salary": value})
        elif kind == "insert":
            emp.insert({"emp": key, "name": "n%d" % key, "dept": value,
                        "salary": key})
        elif kind == "delete":
            emp.delete({"emp": key})
        else:
            manager.table("proj").insert({"emp": key, "proj": value,
                                          "hours": key})
    except IntegrityError:
        pass


def counters(cache):
    return cache.hits, cache.misses, cache.stale


def cacheless(db):
    return Database({name: db.relation(name) for name in db.names()})


def read(session, text, args):
    """What the server runs for a QUERY of ``text``, or for an EXECUTE
    of ``text`` prepared, with ``args``."""
    if args:
        session.prepare("s", text)
        text = session.statement("s", args)
    return sql.run(session.database(), text, args=args)


class TestACachedAnswerIsTheStatements:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=300, deadline=None)
    @given(stream=st.lists(steps, min_size=1, max_size=40))
    def test_cached_answers_agree_with_a_cacheless_run(self, stream):
        manager = make_manager()
        cache = manager.result_cache
        sessions = {"follower": Session("f", manager),
                    "pinned": Session("p", manager)}
        for step in stream:
            if step[0] == "commit":
                commit(manager, step[1])
                sessions["follower"].refresh()
                continue
            if step[0] == "refresh":
                sessions["pinned"].refresh()
                continue
            session = sessions[step[1]]
            text, args, well_formed = step[2]
            plain = cacheless(session.database())
            before = counters(cache)
            try:
                optimized = sql.run(plain, text, args=args)
            except XSTError as refusal:
                # Ill formed, or refused by a value only execution
                # meets (``salary > ''`` over integers).
                with pytest.raises(type(refusal)) as served:
                    read(session, text, args)
                assert str(served.value) == str(refusal)
            else:
                assert well_formed, text
                answer = read(session, text, args)
                assert answer == sql.run(plain, text, optimized=False,
                                         args=args), (text, args)
                assert dumps(answer.rows) == dumps(optimized.rows), \
                    (text, args)
            moved = sorted(now - then for now, then in
                           zip(counters(cache), before))
            assert moved == ([0, 0, 1] if well_formed else [0, 0, 0]), \
                (text, args, moved)
        for session in sessions.values():
            session.close()
        # The streams exercise the cache, not only compute afresh.
        assert cache.hits + cache.misses + cache.stale > 0
