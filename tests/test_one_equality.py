"""One equality: membership and ``==`` are one relation.

A set is known by its members, which needs every member to equal itself.
The kernel decides membership identity-first (dict keys, tuple
compares), restrictions and joins decide by ``==``, and the canonical
order bisects by keys; the three agree exactly when every admitted value
equals itself and is keyed exactly.  So an atom is a value the log can
carry -- None, bool, int, float, complex, str or bytes -- that equals
itself: a ``nan`` of any type, and any value of another type (a tuple,
a frozenset, a ``Fraction``, a ``Decimal``, a user class's instance),
is refused at every door, with a typed error and before any work, and
on every value the constructors admit (the shared pool,
``tests/values.py``, and more):

* ``a == b`` exactly when ``{a}`` and ``{b}`` are one set, and exactly
  when ``a`` and ``b`` share a canonical key;
* ``semijoin(r, s) == project(join(r, s), heading(r))``: restriction is
  semijoin, on the row, record and columnar executors and the cluster,
  and the join is spelled alike on each of them;
* ``loads(dumps(v)) == v``.

Seeded by ``REPRO_WORKLOAD_SEED`` (default 101), so a failure replays.
"""

import asyncio
import enum
import os
import struct

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import InvalidAtomError
from repro.relational.algebra import Comparison, Param, aggregate, semijoin
from repro.relational.constraints import Table
from repro.relational.csvio import loads_csv
from repro.relational.distributed import Cluster
from repro.relational.query import Database, Join, Project, Scan
from repro.relational.relation import Relation
from repro.relational.tx import TransactionManager
from repro.relational.wal import WriteAheadLog
from repro.server import Server, connect
from repro.xst.builders import from_python
from repro.xst.ordering import canonical_hash, canonical_key
from repro.xst.serialization import dumps, loads
from repro.xst.xset import EMPTY, XSet

from tests.server.test_service import make_manager, scripted_pages
from tests.values import REFUSED, atoms, label, refusal, spelled, values

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "101"))

NAN = float("nan")


# ----------------------------------------------------------------------
# Every door refuses a value unequal to itself, or no atom
# ----------------------------------------------------------------------

class Counted:
    """A constraint that always holds and counts the checks it makes."""

    def __init__(self):
        self.checks = 0

    def check(self, relation):
        self.checks += 1

    def check_delta(self, relation, inserted, deleted):
        self.checks += 1


def refused_by_table(operation, logged=False):
    """A table ``operation`` refuses before any work: the table stays as
    it was, no constraint check runs and, on a table whose commits a
    WAL logs, the LSN does not move."""
    def door(value, tmp_path):
        counted = Counted()
        held = Table(["a", "b"], [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}],
                     [counted])
        log = None
        if logged:
            log = WriteAheadLog(str(tmp_path / "wal.log"), sync=False)
            TransactionManager({"t": held}, log=log)
        before, lsn, counted.checks = held.snapshot(), log and log.lsn, 0
        with pytest.raises(InvalidAtomError, match=refusal(value)):
            operation(held, value)
        assert held.snapshot() is before and counted.checks == 0
        assert (log and log.lsn) == lsn
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
    "from-python": from_python,
    "comparison": lambda value: Comparison("a", "=", value),
    "csv-converter": lambda value: loads_csv(
        "a,b\n1,x\n", converters={"a": lambda cell: value}),
}

#: ``from_python`` makes the extended set a container stands for.
CONVERTED = (tuple, frozenset)

#: Table statements: each takes the table and the refused value.
STATEMENTS = {
    "table-insert": lambda held, value: held.insert({"a": value, "b": "z"}),
    "table-delete": lambda held, value: held.delete({"a": value}),
    "table-update-where":
        lambda held, value: held.update({"a": value}, {"b": "z"}),
    "table-update-set": lambda held, value: held.update({"a": 3}, {"b": value}),
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
    pytest.param(in_process(DOORS[name]), value,
                 id="%s-%s" % (name, label(value)))
    for name in DOORS for value in REFUSED
    if not (name == "from-python" and isinstance(value, CONVERTED))
] + [
    pytest.param(refused_by_table(STATEMENTS[name], logged), value,
                 id="%s%s-%s" % (name, "-wal" if logged else "", label(value)))
    for name in STATEMENTS for logged in (False, True) for value in REFUSED
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

    @pytest.mark.parametrize("value", [
        value for value in REFUSED if isinstance(value, CONVERTED)])
    def test_from_python_makes_the_set_a_container_stands_for(self, value):
        with pytest.raises(InvalidAtomError, match="no atom"):
            XSet([(value, EMPTY)])
        converted = from_python(value)
        assert type(converted) is XSet and loads(dumps(converted)) == converted

    def test_a_param_stands_in_a_comparison_but_in_no_set(self):
        assert Comparison("a", "=", Param(1)).value == Param(1)
        with pytest.raises(InvalidAtomError, match="no atom"):
            XSet([(Param(1), EMPTY)])

    @pytest.mark.parametrize("cell", ["nan", "Nan", "NaN", "-nan"])
    def test_a_csv_cell_that_reads_as_nan_stays_its_text(self, cell):
        rel = loads_csv("name,n\n%s,1\ninf,2\n" % cell)
        assert sorted(rel.to_rows(), key=repr) == sorted(
            [(cell, 1), (float("inf"), 2)], key=repr)


# ----------------------------------------------------------------------
# Membership is equality
# ----------------------------------------------------------------------

class Text(str):
    __slots__ = ()


class Count(int):
    __slots__ = ()


class Tone(str, enum.Enum):
    """A str subclass whose ``repr`` is its own, ``<Tone.RED: 'red'>``."""

    RED = "red"


#: Every kind of value a constructor admits: the pool's, the complex
#: twins, ints no float holds, atom subclasses, and the extended sets
#: ``from_python`` makes of tuples and frozensets.
admitted = st.one_of(
    values,
    st.sampled_from([1 + 0j, 0.5 + 0j, 0.5, 1 + 2j, -0.0j, 10**400,
                     -(10**400), Count(1), Count(2**53 + 1), Text("1"),
                     Tone.RED, "red"]),
    st.builds(from_python, st.tuples(values, values)),
    st.builds(from_python, st.frozensets(atoms, max_size=3)),
)

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

    @seed(WORKLOAD_SEED)
    @settings(max_examples=300, deadline=None)
    @given(admitted, admitted)
    def test_every_admitted_value_is_keyed_exactly_and_carried(self, a, b):
        # Keys equal exactly when values do: no two members tie, and
        # equal values hash alike whatever their types' reprs.
        assert (canonical_key(a) == canonical_key(b)) is (a == b)
        if a == b:
            assert canonical_hash(a) == canonical_hash(b)
        for value in (a, b):
            assert loads(dumps(value)) == value


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
        # A shared attribute keeps the left row's spelling on every
        # executor, so the join itself is spelled alike.
        joined = Join(Scan("r"), Scan("s"))
        spellings = [spelled(got.rows) for got in (
            db.execute(joined), db.execute_records(joined),
            encoded.execute(joined),
        )]
        assert spellings[1:] == spellings[:1] * 2

    def test_a_subclass_meets_its_twin_on_every_executor(self):
        r = relation(("a", "b"), [(Tone.RED, "x")])
        s = relation(("a", "c"), [("red", "y")])
        db = Database({"r": r, "s": s})
        encoded = Database({"r": r, "s": s})
        encoded.encode_columnar()
        joined = Join(Scan("r"), Scan("s"))
        assert len(db.execute(joined)) == len(encoded.execute(joined)) == 1

    def test_the_record_join_keeps_the_left_spelling(self):
        r = relation(("a", "b"), [(2**53, "b")])
        s = relation(("b", "a"), [("b", float(2**53))])
        db = Database({"r": r, "s": s})
        joined = Join(Scan("r"), Scan("s"))
        assert spelled(db.execute_records(joined).rows) == spelled(
            db.execute(joined).rows) == spelled(r.rows)
