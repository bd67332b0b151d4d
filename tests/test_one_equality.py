"""One equality: membership and ``==`` are one relation.

A set is known by its members, which needs every member to equal itself.
The kernel decides membership identity-first (dict keys, tuple
compares), restrictions and joins decide by ``==``, and the canonical
order bisects by keys; the three agree exactly when no admitted value is
unequal to itself.  So ``nan`` -- of any type -- is refused at every
door, with a typed error and before any work, and on every value of the
shared pool (``tests/values.py``):

* ``a == b`` exactly when ``{a}`` and ``{b}`` are one set, and exactly
  when ``a`` and ``b`` share a canonical key;
* ``semijoin(r, s) == project(join(r, s), heading(r))``: restriction is
  semijoin, on the row, record and columnar executors and the cluster;
* ``loads(dumps(v)) == v``.

Seeded by ``REPRO_WORKLOAD_SEED`` (default 101), so a failure replays.
"""

import asyncio
import os
import struct

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import InvalidAtomError
from repro.relational.algebra import Comparison, aggregate, semijoin
from repro.relational.constraints import Table
from repro.relational.csvio import loads_csv
from repro.relational.distributed import Cluster
from repro.relational.query import Database, Join, Project, Scan
from repro.relational.relation import Relation
from repro.relational.tx import TransactionManager
from repro.relational.wal import WriteAheadLog
from repro.server import Server, connect
from repro.xst.ordering import canonical_key
from repro.xst.serialization import dumps, loads
from repro.xst.xset import EMPTY, XSet

from tests.server.test_service import make_manager, scripted_pages
from tests.values import REFUSED, spelled, values

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "101"))

NAN = float("nan")


# ----------------------------------------------------------------------
# Every door refuses a value unequal to itself
# ----------------------------------------------------------------------

def table():
    return Table(["a", "b"], [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])


def refused_by_table(operation):
    """A table ``operation`` refuses, leaving the table as it was."""
    def door(value):
        held = table()
        before = held.snapshot()
        try:
            operation(held, value)
        finally:
            assert held.snapshot() is before
    return door


def sums_to(value):
    """A ``sum`` over ``inf`` and ``-inf``, which would be ``value``."""
    rel = Relation.from_tuples(["g", "x"], [(1, float("inf")), (1, -float("inf"))])
    aggregate(rel, ["g"], {"s": ("sum", "x")})


#: In-process doors: each takes the refused value.
DOORS = {
    "xset-element": lambda value: XSet([(value, EMPTY)]),
    "xset-scope": lambda value: XSet([("a", value)]),
    "record": lambda value: Relation.from_tuples(["a", "b"], [(1, value)]),
    "from-page": lambda value: Relation.from_page(["a"], [[1], [value]]),
    "comparison": lambda value: Comparison("a", "=", value),
    "table-insert": refused_by_table(
        lambda held, value: held.insert({"a": value, "b": "z"})),
    "table-delete": refused_by_table(
        lambda held, value: held.delete({"a": value})),
    "table-update-where": refused_by_table(
        lambda held, value: held.update({"a": value}, {"b": "z"})),
    "table-update-set": refused_by_table(
        lambda held, value: held.update({"a": 3}, {"b": value})),
    "csv-converter": lambda value: loads_csv(
        "a,b\n1,x\n", converters={"a": lambda cell: value}),
}


def dumped_float(value):
    return b"D" + struct.pack(">d", value)


#: Doors a float ``nan`` reaches: a ``D`` payload that decodes to it,
#: alone and as a member, and a sum that would be one.
FLOAT_DOORS = {
    "loads": lambda value: loads(dumped_float(value)),
    "loads-in-a-set": lambda value: loads(
        b"X\x00\x00\x00\x01" + dumped_float(value) + b"N"),
    "sum-inf-and-minus-inf": sums_to,
}


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30))


def served_door(send):
    """A door over a real ``Server`` with a WAL and a result cache:
    ``send(client, value)`` must be refused with the typed error, and no
    WAL LSN, cache counter, commit or admission may move."""
    def door(value, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"), sync=False)

        async def body():
            manager = TransactionManager(make_manager().tables, log=log)
            server = Server(manager, result_cache_capacity=8)
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port)
                await client.prepare(
                    "by_eid", "select name from emp where eid = $1")
                await client.execute("by_eid", [1])
                cache = server.result_cache

                def moved():
                    return (log.lsn, manager.current_version, cache.hits,
                            cache.misses, cache.stale, cache.stores,
                            server.admission.admitted_total)

                before = moved()
                with pytest.raises(InvalidAtomError,
                                   match="does not equal itself"):
                    await send(client, value)
                assert moved() == before
                # The session survives and still answers.
                rel = await client.execute("by_eid", [2])
                assert rel.to_rows() == [("bob",)]
                await client.close()
            finally:
                await server.close()

        run(body())
    return door


def page_door(value, tmp_path):
    """A PAGE holding the value: the client refuses it on decode."""
    async def query(client):
        return await client.query("select a from t")
    with pytest.raises(InvalidAtomError, match="does not equal itself"):
        run(scripted_pages([{"heading": ["a"], "rows": [[1], [value]]}],
                           query))


#: Doors over the wire, which carries a float ``nan`` only (JSON spells
#: it ``NaN``): each takes the value and the test's ``tmp_path``.
WIRE = {
    "execute": served_door(
        lambda client, value: client.execute("by_eid", [value])),
    "mutate-insert": served_door(lambda client, value: client.mutate(
        [["insert", "emp", {"eid": value, "name": "nan", "dept": "ops"}]])),
    "mutate-delete": served_door(lambda client, value: client.mutate(
        [["delete", "emp", {"eid": value}]])),
    "mutate-update": served_door(lambda client, value: client.mutate(
        [["update", "emp", {"eid": 1}, {"name": value}]])),
    "page-decode": page_door,
}


def in_process(door):
    def refused(value, tmp_path):
        with pytest.raises(InvalidAtomError):
            door(value)
    return refused


CASES = [
    pytest.param(in_process(DOORS[name]), value, id="%s-%r" % (name, value))
    for name in DOORS for value in REFUSED
] + [
    pytest.param(in_process(FLOAT_DOORS[name]), NAN, id=name)
    for name in FLOAT_DOORS
] + [
    pytest.param(WIRE[name], NAN, id=name) for name in WIRE
]


class TestEveryDoorRefusesNan:
    @pytest.mark.parametrize("door, value", CASES)
    def test_before_any_work(self, door, value, tmp_path):
        door(value, tmp_path)

    @pytest.mark.parametrize("cell", ["nan", "Nan", "NaN", "-nan"])
    def test_a_csv_cell_that_reads_as_nan_stays_its_text(self, cell):
        rel = loads_csv("name,n\n%s,1\ninf,2\n" % cell)
        assert sorted(rel.to_rows(), key=repr) == sorted(
            [(cell, 1), (float("inf"), 2)], key=repr)


# ----------------------------------------------------------------------
# Membership is equality
# ----------------------------------------------------------------------

class TestMembershipIsEquality:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=300, deadline=None)
    @given(values, values)
    def test_equal_values_are_one_member_and_one_key(self, a, b):
        assert a == a and XSet([(a, EMPTY)]).contains(a)
        equal = a == b
        assert (XSet([(a, EMPTY)]) == XSet([(b, EMPTY)])) is equal
        assert (len(XSet([(a, EMPTY), (b, EMPTY)])) == 1) is equal
        assert (canonical_key(a) == canonical_key(b)) is equal

    @seed(WORKLOAD_SEED)
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_every_value_round_trips_through_the_codec(self, value):
        decoded = loads(dumps(value))
        assert decoded == value and spelled(decoded) == spelled(value)


#: Right headings: one shared attribute, two (in either order), and a
#: heading that adds one.
RIGHTS = [("a", "c"), ("b", "a"), ("a", "b", "c")]


def relation(names, rows):
    return Relation.from_tuples(names, rows)


@st.composite
def operands(draw):
    """``(r, s)``: relations over ``(a, b)`` and a drawn right heading,
    some of ``s``'s rows sharing ``r``'s values so that rows meet."""
    right = draw(st.sampled_from(RIGHTS))
    left_rows = draw(st.lists(st.tuples(values, values), max_size=6))
    right_rows = draw(st.lists(st.tuples(*[values] * len(right)), max_size=6))
    for row in left_rows[:draw(st.integers(0, len(left_rows)))]:
        shared = dict(zip(("a", "b"), row))
        right_rows.append(tuple(
            shared.get(name, draw(values)) for name in right))
    return relation(("a", "b"), left_rows), relation(right, right_rows)


class TestSemijoinIsRestriction:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=120, deadline=None)
    @given(operands())
    def test_on_every_executor_and_the_cluster(self, pair):
        r, s = pair
        want = semijoin(r, s)
        plan = Project(Join(Scan("r"), Scan("s")), r.heading.names)
        db = Database({"r": r, "s": s})
        encoded = Database({"r": r, "s": s})
        encoded.encode_columnar()
        cluster = Cluster(2)
        cluster.create_table("r", r, "a")
        cluster.create_table("s", s, "a")
        for got in (db.execute(plan), db.execute_records(plan),
                    encoded.execute(plan), cluster.execute(plan)):
            assert got == want and hash(got) == hash(want)
        # The row executor's join keeps the left rows' spellings, so the
        # projection back is r's own rows.
        assert spelled(db.execute(plan).rows) == spelled(want.rows)
