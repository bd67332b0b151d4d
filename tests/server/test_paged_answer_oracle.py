"""Differential oracle: a served answer against the relation its pages spell.

The client keeps a served answer's checked, de-duplicated page rows and
builds the row set from them when something reads it as a set
(``Relation.from_page``).  The reference is the eager constructor over
the same rows, ``Relation.from_tuples(heading, page rows)``.  Hypothesis
draws relations from the shared pool's atoms a page carries
(``tests/values.py``: no sets, no bytes) -- typed twins
``1``/``1.0``/``True``, ``0``/``0.0``/``-0.0``/``False``, ``±inf``,
``2**53 ± 1``, ``None``, ``""`` and ``"1"`` -- serves each through a real
``Server``/``Client`` in one page or many, and checks that

* ``cardinality()`` and ``iter_dicts()`` (row for row, in the order
  given) agree with the reference before anything is built;
* equality, the hash and the row set's run (``repr(rows._pairs)``)
  agree once it is.

A scripted server sends what no real one does: duplicate spellings of
one row, which collapse to the first as ``from_tuples`` keeps it, and
rows out of canonical order, which still fill the same set; and a
``nan``, which no real server can hold, refused with a typed error.

Seeded by ``REPRO_WORKLOAD_SEED`` (default 101), so a failure replays.
"""

import asyncio
import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import InvalidAtomError
from repro.relational.constraints import Table
from repro.relational.relation import Relation
from repro.relational.tx import TransactionManager
from repro.server import Server, connect
from repro.server.protocol import FrameType
from tests.server.test_service import scripted_pages
from tests.values import ATOMS

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "101"))

NAMES = ("a", "b", "c")

#: The pool's atoms a served page carries (JSON: no sets, no bytes),
#: which compare or print alike, and one plain string.
POOL = tuple(value for value in ATOMS if type(value) is not bytes) + ("a",)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30))


@st.composite
def served_tables(draw):
    width = draw(st.integers(min_value=1, max_value=len(NAMES)))
    names = list(NAMES[:width])
    rows = draw(st.lists(
        st.tuples(*[st.sampled_from(POOL)] * width), max_size=12))
    return names, [dict(zip(names, row)) for row in rows]


async def served_answer(names, rows, page_rows):
    """The client's answer to ``select * from t`` over ``rows``, and the
    concatenated rows of the PAGE frames it arrived in."""
    server = Server(TransactionManager({"t": Table(names, rows)}),
                    page_rows=page_rows)
    await server.start()
    try:
        client = await connect("127.0.0.1", server.port)
        try:
            ftype, body = await client._call(FrameType.QUERY, {
                "id": client._next_request_id(), "xql": "select * from t"})
            return client._relation_of(ftype, body), body
        finally:
            await client.close()
    finally:
        await server.close()


def assert_same_answer(got, heading, page_rows, in_run_order=True):
    """``got`` is the relation ``from_tuples`` builds from the page rows:
    counted and read before its row set exists, equal after.  Pages in
    the run's order read in the built relation's order, row for row."""
    expected = Relation.from_tuples(heading, page_rows)
    assert got._rows is None  # nothing has read it as a set yet
    assert got.cardinality() == expected.cardinality() == len(got)
    assert bool(got) == bool(expected)
    assert got.heading == expected.heading
    dicts = list(got.iter_dicts())
    assert got._rows is None
    if in_run_order:
        assert dicts == list(expected.iter_dicts())
    else:
        def spelled(rows):
            return sorted(repr(tuple(map(row.get, heading))) for row in rows)
        assert spelled(dicts) == spelled(expected.iter_dicts())
    assert [list(row) for row in dicts] == [list(heading)] * len(dicts)
    assert got == expected and hash(got) == hash(expected)
    assert repr(got.rows._pairs) == repr(expected.rows._pairs)
    assert got.to_rows() == expected.to_rows()
    return expected


class TestServedAnswers:
    @seed(WORKLOAD_SEED)
    @settings(max_examples=150, deadline=None)
    @given(served_tables(), st.sampled_from((1, 2, 3, 64)))
    def test_a_served_answer_is_the_relation_its_pages_spell(
            self, table, page_rows):
        names, rows = table
        got, body = run(served_answer(names, rows, page_rows))
        assert body["heading"] == names
        assert body["pages"] == max(1, -(-len(body["rows"]) // page_rows))
        # A real server sends the answer's run, in canonical order, so
        # the kept rows read as the built relation's, row for row.
        assert_same_answer(got, names, body["rows"])

    def test_the_empty_answer(self):
        got, body = run(served_answer(["a", "b"], [], 2))
        assert body["rows"] == [] and body["pages"] == 1
        assert_same_answer(got, ["a", "b"], [])
        assert not got and got.rows.is_empty


class TestScriptedPages:
    """Pages no real server sends, still read as ``from_tuples`` reads
    the same rows."""

    @staticmethod
    def answer(*pages):
        async def query(client):
            return await client.query("select a from t")
        return run(scripted_pages(list(pages), query))

    def test_duplicate_spellings_collapse_to_the_first(self):
        got = self.answer({"heading": ["a"], "rows": [[1]]},
                          {"heading": ["a"], "rows": [[1.0], [True]]})
        expected = assert_same_answer(
            got, ["a"], [[1], [1.0], [True]], in_run_order=False)
        assert len(got) == len(expected) == 1
        assert [type(row["a"]) for row in got.iter_dicts()] == [int]
        assert repr(got.rows._pairs) == "(({1^a}, {}),)"

    def test_twins_collapse_within_a_wide_row_only_when_all_agree(self):
        got = self.answer({"heading": ["a", "b"], "rows": [
            [True, "x"], [1, "x"], [1.0, "y"], [-0.0, None], [0, None]]})
        assert_same_answer(got, ["a", "b"], [
            [True, "x"], [1, "x"], [1.0, "y"], [-0.0, None], [0, None]],
            in_run_order=False)
        assert [row["a"] for row in got.iter_dicts()] == [True, 1.0, -0.0]
        assert [type(row["a"]) for row in got.iter_dicts()] == \
            [bool, float, float]

    def test_a_nan_in_a_page_is_refused(self):
        # JSON spells it NaN; the client refuses it before it keeps the
        # page, so building the row set later cannot fail.
        with pytest.raises(InvalidAtomError, match="does not equal itself"):
            self.answer({"heading": ["a"], "rows": [[1], [float("nan")]]})

    def test_rows_out_of_order_fill_the_same_set(self):
        got = self.answer({"heading": ["a"], "rows": [[3], ["x"]]},
                          {"heading": ["a"], "rows": [[1], [None]]})
        # The kept rows read in the order they came ...
        assert [row["a"] for row in got.iter_dicts()] == [3, "x", 1, None]
        expected = Relation.from_tuples(["a"], [[3], ["x"], [1], [None]])
        assert [row["a"] for row in expected.iter_dicts()] != [3, "x", 1, None]
        # ... and the set they fill is the one from_tuples builds.
        assert got == expected and hash(got) == hash(expected)
        assert repr(got.rows._pairs) == repr(expected.rows._pairs)
        assert len(got) == 4
