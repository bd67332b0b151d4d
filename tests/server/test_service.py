"""Server behavior: handshake, sessions, streaming, drain, idempotence.

Each test spins a real asyncio server on an ephemeral port and talks
to it through the real client -- no mocks on the happy path, so the
protocol, session and service layers are exercised exactly as
production wires them.
"""

import asyncio
import socket
import struct

import pytest

from repro.errors import (
    BudgetExceededError,
    IntegrityError,
    InvalidAtomError,
    NetworkError,
    NotationError,
    OverloadedError,
    SchemaError,
    SessionError,
    UnavailableError,
    WriteConflictError,
    XSTError,
)
from repro.gov.admission import (
    PRIORITY_BACKGROUND,
    PRIORITY_CRITICAL,
)
from repro.obs import instrument
from repro.relational.algebra import Comparison
from repro.relational.constraints import KeyConstraint, Table
from repro.relational.cost import CardinalityEstimator
from repro.relational.csvio import dumps_csv
from repro.relational.faults import FaultPlan, NetworkFaultInjector
from repro.relational.ivm.cache import QueryResultCache
from repro.relational.query import Database, Restrict, Scan, plan_cache_key
from repro.relational.sql import run as run_xql
from repro.relational.tx import TransactionManager
from repro.relational.views import ViewCatalog
from repro.relational.wal import WriteAheadLog
from repro.server import Client, Server, connect
from repro.server.protocol import FrameType
from repro.server.session import render_statement


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30))


def make_manager():
    emp = Table(
        ["eid", "name", "dept"],
        [
            {"eid": 1, "name": "ada", "dept": "eng"},
            {"eid": 2, "name": "bob", "dept": "ops"},
            {"eid": 3, "name": "cyd", "dept": "eng"},
        ],
        [KeyConstraint(["eid"])],
    )
    dept = Table(
        ["dept", "floor"],
        [{"dept": "eng", "floor": 3}, {"dept": "ops", "floor": 1}],
    )
    return TransactionManager({"emp": emp, "dept": dept})


async def served(test, manager=None, **server_kw):
    """Start a server, run ``test(server)``, tear everything down."""
    server = Server(manager or make_manager(), **server_kw)
    await server.start()
    try:
        return await test(server)
    finally:
        await server.close()


async def scripted_pages(pages, test):
    """Serve the handshake, then answer every QUERY with ``pages`` (PAGE
    bodies, the last marked ``last``); returns ``test(client)``."""
    from repro.server.protocol import FrameDecoder, encode_frame

    connections = []

    async def serve(reader, writer):
        connections.append(writer)
        decoder = FrameDecoder()
        while True:
            data = await reader.read(1 << 16)
            if not data:
                return
            for ftype, frame in decoder.feed(data):
                if ftype == FrameType.HELLO:
                    replies = [(FrameType.WELCOME, {
                        "session": "s1", "version": 0, "trace": "t"})]
                elif ftype == FrameType.QUERY:
                    replies = [
                        (FrameType.PAGE, dict(page, id=frame["id"], seq=seq,
                                              last=seq == len(pages) - 1))
                        for seq, page in enumerate(pages)
                    ]
                else:  # GOODBYE
                    writer.close()
                    return
                for reply in replies:
                    writer.write(encode_frame(*reply))
                await writer.drain()

    fake = await asyncio.start_server(serve, "127.0.0.1", 0)
    try:
        client = await connect("127.0.0.1", fake.sockets[0].getsockname()[1],
                               max_attempts=2)
        try:
            return await test(client)
        finally:
            await client.close()
    finally:
        fake.close()
        for writer in connections:
            writer.close()
        await fake.wait_closed()


class TestHandshake:
    def test_welcome_carries_session_version_trace(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            assert client.session_id == "s1"
            assert client.version == 0
            assert client.trace_id == "trace-s1"
            await client.close()

        run(served(body))

    def test_wrong_token_is_session_error(self):
        async def body(server):
            with pytest.raises(SessionError):
                await connect("127.0.0.1", server.port, token="wrong")

        run(served(body, token="sekrit"))

    def test_right_token_admitted(self):
        async def body(server):
            client = await connect(
                "127.0.0.1", server.port, token="sekrit"
            )
            assert client.session_id is not None
            await client.close()

        run(served(body, token="sekrit"))

    def test_session_table_bounded(self):
        async def body(server):
            a = await connect("127.0.0.1", server.port)
            with pytest.raises(SessionError) as exc:
                await connect("127.0.0.1", server.port)
            assert exc.value.retry_after_s is not None
            await a.close()

        run(served(body, max_sessions=1))

    def test_bad_priority_rejected(self):
        async def body(server):
            with pytest.raises(SessionError):
                await connect("127.0.0.1", server.port, priority=9)

        run(served(body))


class TestQueries:
    def test_query_matches_embedded_execution(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            over_wire = await client.query(
                "select name from emp where dept = 'eng'"
            )
            db = Database({
                name: table.snapshot()
                for name, table in server._manager.tables.items()
            })
            embedded = run_xql(
                db, "select name from emp where dept = 'eng'"
            )
            assert dumps_csv(over_wire) == dumps_csv(embedded)
            await client.close()

        run(served(body))

    def test_results_stream_in_pages(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            rid = "probe-1"
            await client._write_frame(3, {"id": rid,
                                          "xql": "select eid from emp"})
            ftype, page = await client._read_response(rid)
            assert page["pages"] == 3  # 3 rows, 1 row per page
            assert sorted(r[0] for r in page["rows"]) == [1, 2, 3]
            await client.close()

        run(served(body, page_rows=1))

    def test_empty_result_is_one_last_page(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            rel = await client.query(
                "select name from emp where dept = 'none'"
            )
            assert len(rel) == 0
            await client.close()

        run(served(body))

    def test_bad_xql_is_typed_not_fatal(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            with pytest.raises(XSTError):
                await client.query("selekt nothing")
            # The connection survives a failed request.
            rel = await client.query("select dept from dept")
            assert len(rel) == 2
            await client.close()

        run(served(body))

    def test_ill_formed_query_is_refused_before_any_work(self, tmp_path):
        from repro.relational.wal import WriteAheadLog

        log = WriteAheadLog(str(tmp_path / "wal.log"), sync=False)

        async def body():
            manager = TransactionManager(make_manager().tables, log=log)
            server = Server(manager, result_cache_capacity=8)
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port)
                await client.mutate(
                    [["insert", "emp", {"eid": 9, "name": "eve",
                                        "dept": "ops"}]]
                )
                lsn = log.lsn
                cache = server.result_cache
                before = (cache.hits, cache.misses, cache.stale)
                for text in ("select bogus from emp join dept",
                             "select name from emp where bogus = 1"):
                    with pytest.raises(XSTError,
                                       match="unknown attributes") as info:
                        await client.query(text)
                    # SchemaError's wire form is itself: fix, never retry.
                    assert type(info.value) is SchemaError
                assert (cache.hits, cache.misses, cache.stale) == before
                assert log.lsn == lsn
                # The session survives and still answers.
                rel = await client.query("select name from emp join dept")
                assert len(rel) == 4
                await client.close()
            finally:
                await server.close()

        run(body())
        log.close()

    def test_a_listener_fault_does_not_cost_a_mutate_its_ack(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"), sync=False)
        manager = TransactionManager(make_manager().tables, log=log)
        heard = []

        def faulty(version, changes):
            raise RuntimeError("listener fault")

        manager.subscribe(faulty)
        manager.subscribe(lambda version, changes: heard.append(version))

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            version = await client.mutate(
                [["insert", "emp", {"eid": 9, "name": "eve", "dept": "ops"}]]
            )
            # The write is durable, so it is acked, and every listener ran.
            assert version == manager.current_version == log.lsn == 1
            assert heard == [1]
            rel = await client.query("select name from emp where eid = 9")
            assert rel.to_rows() == [("eve",)]
            await client.close()

        run(served(body, manager))
        log.close()

    def test_join_queries_work_over_the_wire(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            rel = await client.query(
                "select name, floor from emp join dept"
            )
            rows = rel.to_rows()
            assert ("ada", 3) in rows and ("bob", 1) in rows
            await client.close()

        run(served(body))


    def test_order_by_decides_which_rows_limit_keeps(self):
        """A served answer is a relation: ORDER BY picks LIMIT's rows,
        the pages carry them in canonical order (docs/serving.md)."""
        salaries = [310, 120, 990, 470, 55, 640, 230]
        pay = Table(["eid", "salary"], [
            {"eid": eid, "salary": salary}
            for eid, salary in enumerate(salaries)
        ])

        async def body():
            server = Server(TransactionManager({"pay": pay}))
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port)
                top = await client.query(
                    "select eid, salary from pay "
                    "order by salary desc limit 3"
                )
                await client.close()
                return top
            finally:
                await server.close()

        top = run(body())
        assert sorted(row["salary"] for row in top.iter_dicts()) == \
            sorted(salaries)[-3:]


    def test_a_column_python_cannot_order_is_served_in_the_kernels(self):
        """``None``, a number and a string in one column: ORDER BY ...
        LIMIT and min/max answer over the wire as they do embedded."""
        mixed = Table(["k", "v"], [
            {"k": 1, "v": None}, {"k": 2, "v": 3}, {"k": 3, "v": "x"},
        ])
        texts = (
            "select k, v from t order by v limit 2",
            "select k, v from t order by v desc limit 2",
            "select k, min(v) as lo, max(v) as hi from t group by k",
        )

        async def body():
            server = Server(TransactionManager({"t": mixed}))
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port)
                answers = [await client.query(text) for text in texts]
                await client.close()
                return answers
            finally:
                await server.close()

        embedded = Database({"t": mixed.snapshot()})
        served_answers = run(body())
        assert served_answers == [run_xql(embedded, text) for text in texts]
        assert sorted(served_answers[0].to_rows(), key=str) == \
            [(1, None), (2, 3)]
        assert sorted(served_answers[1].to_rows(), key=str) == \
            [(2, 3), (3, "x")]


class TestSameFailureThroughEveryDoor:
    """What the caller's own statement gets wrong raises one class,
    embedded or served -- a client can tell fix-your-query from
    retry-later without parsing a message."""

    DUPLICATE = {"eid": 1, "name": "dup", "dept": "eng"}

    @pytest.mark.parametrize("text, error, code", [
        ("select name from ghost", SchemaError, "SCHEMA"),
        ("select bogus from emp", SchemaError, "SCHEMA"),
        ("select name frm emp", NotationError, "NOTATION"),
        (None, IntegrityError, "INTEGRITY"),  # the duplicate key
        ("select name, count(eid) as n from emp group by dept",
         SchemaError, "SCHEMA"),
        ("select dept, count(ghost) as n from emp group by dept",
         SchemaError, "SCHEMA"),
        ("select dept, count(eid) as dept from emp group by dept",
         SchemaError, "SCHEMA"),
        ("select name from emp order by ghost limit 2",
         SchemaError, "SCHEMA"),
        ("select name from emp order by ghost", SchemaError, "SCHEMA"),
        ("select dept, sum(name) as s from emp group by dept",
         SchemaError, "SCHEMA"),
        ("create materialized view v as select nope from emp",
         SchemaError, "SCHEMA"),
        ("create view emp as select name from emp", SchemaError, "SCHEMA"),
        ("create view v as select name from emp order by eid",
         SchemaError, "SCHEMA"),
        ("refresh view ghost", SchemaError, "SCHEMA"),
        ("drop view ghost", SchemaError, "SCHEMA"),
        ("create view v select name from emp", NotationError, "NOTATION"),
        ("create view v as select name from emp budget 9",
         NotationError, "NOTATION"),
        ("select name from emp where eid > 'q'", SchemaError, "SCHEMA"),
        ("select name from emp where dept <= 3", SchemaError, "SCHEMA"),
        ("select name from emp where ghost > 1", SchemaError, "SCHEMA"),
    ], ids=["unknown_table", "unknown_attribute", "bad_xql",
            "duplicate_key", "non_grouped_column", "unknown_source",
            "colliding_output", "unknown_order", "unknown_order_no_limit",
            "sum_of_strings", "view_unknown_attribute", "view_shadows_table",
            "view_unknown_order", "refresh_unknown_view",
            "drop_unknown_view", "view_bad_xql", "view_body_budget",
            "incomparable_constant", "incomparable_column",
            "compare_unknown_attribute"])
    def test_embedded_and_served_raise_the_same_class(
            self, text, error, code):
        manager = make_manager()
        ViewCatalog(Database(), manager=manager)
        with pytest.raises(error) as embedded:
            if text is None:
                manager.table("emp").insert(self.DUPLICATE)
            else:
                hand_built = Database({
                    name: table.snapshot()
                    for name, table in manager.tables.items()
                })
                ViewCatalog(hand_built)
                run_xql(hand_built, text)

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            with pytest.raises(error) as served_error:
                if text is None:
                    await client.mutate([["insert", "emp", self.DUPLICATE]])
                else:
                    await client.query(text)
            assert (client.retries, client.connected) == (0, True)
            await client.close()
            return served_error.value

        over_the_wire = run(served(body, manager))
        assert type(over_the_wire) is type(embedded.value) is error
        assert over_the_wire.code == embedded.value.code == code
        assert str(over_the_wire) == str(embedded.value)

    def test_unknown_codes_still_degrade(self):
        from repro.server.protocol import error_from_body

        rebuilt = error_from_body({"code": "FUTURE", "message": "m"})
        assert type(rebuilt) is XSTError


class TestMalformedPages:
    """A PAGE body of the wrong shape is a typed failure, never a relation
    read off the wrong thing (a string as names, a mapping's keys or a
    string's characters as a row) and never a bare ``TypeError``."""

    @staticmethod
    async def answer_with(page, test, reply_type=None):
        """Serve the handshake, then ``page`` (a PAGE body, or the body
        of a ``reply_type`` frame) to every QUERY."""
        from repro.server.protocol import FrameDecoder, FrameType, encode_frame

        connections = []

        async def serve(reader, writer):
            connections.append(writer)
            decoder = FrameDecoder()
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    return
                for ftype, frame in decoder.feed(data):
                    if ftype == FrameType.HELLO:
                        reply = (FrameType.WELCOME, {
                            "session": "s1", "version": 0, "trace": "t"})
                    elif ftype == FrameType.QUERY and reply_type is None:
                        reply = (FrameType.PAGE, dict(
                            page, id=frame["id"], last=True))
                    elif ftype == FrameType.QUERY:
                        reply = (reply_type, dict(page, id=frame["id"]))
                    else:  # GOODBYE
                        writer.close()
                        return
                    writer.write(encode_frame(*reply))
                    await writer.drain()

        fake = await asyncio.start_server(serve, "127.0.0.1", 0)
        try:
            port = fake.sockets[0].getsockname()[1]
            client = await connect("127.0.0.1", port, max_attempts=2)
            try:
                return await test(client), len(connections)
            finally:
                await client.close()
        finally:
            fake.close()
            for writer in connections:
                writer.close()
            await fake.wait_closed()

    def ask(self, page):
        return run(self.answer_with(
            page, lambda client: client.query("select a from t")))

    def test_a_well_formed_page_is_a_relation(self):
        rel, connections = self.ask({"heading": ["a", "b"],
                                     "rows": [[1, "x"], [2, "y"]]})
        assert rel.to_rows() == [(1, "x"), (2, "y")] and connections == 1
        empty, _ = self.ask({})  # both fields default to empty
        assert len(empty) == 0 and len(empty.heading) == 0

    @pytest.mark.parametrize("page", [
        {"heading": ["a"], "rows": [5]},
        {"heading": ["a"], "rows": 7},
        {"heading": "ab", "rows": [[1, 2]]},
        {"heading": ["a"], "rows": [{"a": 1}]},
        {"heading": ["a"], "rows": ["x"]},
    ])
    def test_a_wrong_shape_is_a_network_error_naming_the_request(self, page):
        async def body(client):
            with pytest.raises(NetworkError, match="malformed PAGE for "
                               "request c0-1: heading must be a list and "
                               "rows a list of lists"):
                await client.query("select a from t")
            return client.retries

        retries, connections = run(self.answer_with(page, body))
        # Transient like every wire failure: retried under the same id on
        # a fresh connection until the attempts run out.
        assert (retries, connections) == (2, 2)

    def test_a_shard_moved_refusal_is_typed_and_final(self):
        """No server sends it today (docs/sharding.md), but if one did:
        the typed error with both epochs, on the first attempt, and the
        connection stays up -- nothing is re-stamped or retried."""
        from repro.errors import ShardMovedError
        from repro.server.protocol import FrameType, error_body

        async def body(client):
            with pytest.raises(ShardMovedError) as refused:
                await client.query("select a from t")
            return refused.value, client.retries, client.connected

        (error, retries, connected), connections = run(self.answer_with(
            error_body(ShardMovedError("t", 1, 2, bucket=3)), body,
            reply_type=FrameType.ERROR))
        assert (error.table, error.requested_epoch, error.current_epoch,
                error.bucket) == ("t", 1, 2, 3)
        assert (retries, connected, connections) == (0, True, 1)

    @pytest.mark.parametrize("page, error, message", [
        ({"heading": ["a", "b"], "rows": [[1]]},
         "SchemaError", "has 1 values for 2 attributes"),
        ({"heading": ["a", "a"], "rows": []},
         "SchemaError", "duplicate attribute names"),
        ({"heading": ["a", 1], "rows": []},
         "SchemaError", "attribute names must be non-empty strings"),
        ({"heading": ["a"], "rows": [[[1, 2]]]},
         "InvalidAtomError", "not hashable"),
    ])
    def test_what_the_page_holds_keeps_its_own_typed_error(
            self, page, error, message):
        import repro.errors

        with pytest.raises(getattr(repro.errors, error), match=message):
            self.ask(page)


class TestRefusalsOnALaterPage:
    """What a page holds is judged when the answer is, however late the
    page: ``Client.query`` raises the typed error ``from_tuples`` gives,
    at once and never retried, not at the answer's first read."""

    GOOD = {"heading": ["a", "b"], "rows": [[1, "x"], [2, "y"]]}

    @pytest.mark.parametrize("late_rows, error, message", [
        ([[3]], "SchemaError",
         r"row \(3,\) has 1 values for 2 attributes"),
        ([[3, "z", 4]], "SchemaError",
         r"row \(3, 'z', 4\) has 3 values for 2 attributes"),
        ([[3, [1, 2]]], "InvalidAtomError", r"\[1, 2\] is not hashable"),
        ([[3, {"k": 1}]], "InvalidAtomError",
         r"\{'k': 1\} is not hashable"),
    ])
    def test_the_query_itself_refuses(self, late_rows, error, message):
        import repro.errors

        async def body(client):
            with pytest.raises(getattr(repro.errors, error), match=message):
                await client.query("select a, b from t")
            return client.retries

        late = {"heading": ["a", "b"], "rows": late_rows}
        assert run(scripted_pages([self.GOOD, self.GOOD, late], body)) == 0

    def test_well_formed_later_pages_are_one_answer(self):
        async def body(client):
            return await client.query("select a, b from t")

        rel = run(scripted_pages(
            [self.GOOD, {"heading": ["a", "b"], "rows": [[3, "z"]]}], body))
        assert rel.to_rows() == [(1, "x"), (2, "y"), (3, "z")]


class TestPreparedStatements:
    def test_prepare_execute(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.prepare(
                "by_dept", "select name from emp where dept = $1"
            )
            rel = await client.execute("by_dept", ["eng"])
            assert sorted(r[0] for r in rel.to_rows()) == ["ada", "cyd"]
            await client.close()

        run(served(body))

    def test_unknown_statement_is_session_error(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            with pytest.raises(SessionError):
                await client.execute("nope", [])
            await client.close()

        run(served(body))

    def test_argument_rendering_rules(self):
        assert render_statement("select a from t where b = $1", [7]) == \
            "select a from t where b = 7"
        assert render_statement("where a = $1 and b = $2", ["x", 1.5]) == \
            "where a = 'x' and b = 1.5"
        with pytest.raises(SessionError):
            render_statement("where a = $1", ["it's"])  # quote smuggling
        with pytest.raises(SessionError):
            render_statement("where a = $1", [True])
        with pytest.raises(SessionError):
            render_statement("where a = $1", [7, 8])  # unused argument
        with pytest.raises(SessionError):
            render_statement("where a = $1 and b = $2", [7])  # unbound


    def test_arguments_are_never_searched_for_placeholders(self):
        # One pass over the template: a literal that spells a
        # placeholder, or merely contains ``$``, stays a literal.
        assert render_statement(
            "where n = $1 and m = $2", ["x", "$1"]
        ) == "where n = 'x' and m = '$1'"
        assert render_statement("where n = $1", ["cost$"]) == \
            "where n = 'cost$'"
        assert render_statement("where n = $2 and m = $1 and k = $2",
                                [1, "$3"]) == \
            "where n = '$3' and m = 1 and k = '$3'"
        eleven = " ".join("$%d" % n for n in range(11, 0, -1))
        assert render_statement(eleven, list(range(1, 12))) == \
            " ".join(str(n) for n in range(11, 0, -1))
        for template, args in (
            ("where a = $1 and b = $3", [1, 2]),   # $3 unbound, $2 unused
            ("where a = $0", []),
            ("where a = $", []),
            ("where a = $1", []),
        ):
            with pytest.raises(SessionError):
                render_statement(template, args)

    def test_dollar_arguments_over_the_wire(self):
        async def body(server):
            writer = await connect("127.0.0.1", server.port)
            await writer.mutate([
                ("insert", "emp", {"eid": 4, "name": "$1", "dept": "r&d$"}),
            ])
            client = await connect("127.0.0.1", server.port)
            await client.prepare(
                "who", "select eid from emp where dept = $1 and name = $2"
            )
            rel = await client.execute("who", ["r&d$", "$1"])
            assert rel.to_rows() == [(4,)]
            rel = await client.execute("who", ["eng", "$1"])
            assert rel.to_rows() == []
            await writer.close()
            await client.close()

        run(served(body))


class TestArgumentsAreBoundAsValues:
    """``EXECUTE`` binds its arguments into the plan as values, so an
    argument no XQL literal spells -- a float whose ``repr`` has an
    exponent, ``inf``, a string holding ``'`` -- is carried exactly.
    (Rendered into text, the first two failed to tokenize, ``inf`` was
    not a literal and a quote was refused.)  A ``nan``, which no set can
    hold, is refused before admission."""

    @pytest.mark.parametrize("template, args, eids", [
        ("select eid from emp where eid < $1", [1e20], [1, 2, 3]),
        ("select eid from emp where eid > $1", [-1e20], [1, 2, 3]),
        ("select eid from emp where eid >= $1", [2.5e-07], [1, 2, 3]),
        ("select eid from emp where eid < $1", [float("inf")], [1, 2, 3]),
        ("select eid from emp where eid <= $1", [float("-inf")], []),
        ("select eid from emp where eid = $1", [3e0], [3]),
    ], ids=["1e20", "-1e20", "2.5e-07", "inf", "-inf", "3.0"])
    def test_numbers_no_literal_spells(self, template, args, eids):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.prepare("by_eid", template)
            rel = await client.execute("by_eid", args)
            assert sorted(row[0] for row in rel.to_rows()) == eids
            await client.close()

        run(served(body))

    @pytest.mark.parametrize("operator", ["=", "!="],
                             ids=["nan-eq", "nan-ne"])
    def test_a_nan_is_refused_before_admission(self, operator):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.prepare(
                "by_eid", "select eid from emp where eid %s $1" % operator)
            admitted = server.admission.admitted_total
            with pytest.raises(InvalidAtomError, match="does not equal"):
                await client.execute("by_eid", [float("nan")])
            assert server.admission.admitted_total == admitted
            await client.close()

        run(served(body))

    def test_a_string_holding_quotes(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.mutate([
                ["insert", "emp", {"eid": 7, "name": "o'hara", "dept": "''"}],
            ])
            await client.prepare(
                "who", "select eid from emp where name = $1 and dept = $2"
            )
            rel = await client.execute("who", ["o'hara", "''"])
            assert rel.to_rows() == [(7,)]
            rel = await client.execute("who", ["o'hara", "'"])
            assert rel.to_rows() == []
            await client.close()

        run(served(body))

    def test_query_and_execute_share_result_cache_entries(self):
        async def body(server):
            cache = server._manager.result_cache
            client = await connect("127.0.0.1", server.port)
            await client.prepare(
                "who", "select name from emp where dept = $1 and eid > $2"
            )
            text = "select name from emp where dept = 'eng' and eid > 1"
            queried = await client.query(text)
            assert (cache.hits, cache.misses) == (0, 1)
            executed = await client.execute("who", ["eng", 1])
            assert (cache.hits, cache.misses) == (1, 1)
            assert executed == queried and executed.to_rows() == [("cyd",)]
            await client.execute("who", ["eng", 0])
            assert (cache.hits, cache.misses) == (1, 2)
            await client.close()

        run(served(body, result_cache_capacity=8))

    @pytest.mark.parametrize("bad, message", [
        (True, "cannot be booleans"),
        (None, "got 'NoneType'"),
        ([1], "got 'list'"),
        ({"a": 1}, "got 'dict'"),
    ], ids=["bool", "None", "list", "dict"])
    def test_other_arguments_are_refused_before_admission(self, bad, message):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.prepare("by_eid",
                                 "select name from emp where eid = $1")
            admitted = server.admission.admitted_total
            with pytest.raises(SessionError, match=message):
                await client.execute("by_eid", [bad])
            assert server.admission.admitted_total == admitted
            rel = await client.execute("by_eid", [2])
            assert rel.to_rows() == [("bob",)]
            await client.close()

        run(served(body))

    def test_bytes_are_refused_by_the_session(self):
        # JSON cannot carry bytes; an embedded session refuses them too.
        from repro.server.session import Session

        session = Session("s1", make_manager())
        session.prepare("by_eid", "select name from emp where eid = $1")
        with pytest.raises(SessionError, match="got 'bytes'"):
            session.statement("by_eid", [b"1"])
        assert session.statement("by_eid", [1]) == \
            "select name from emp where eid = $1"
        session.close()


class TestPreparedStatementBound:
    def test_a_session_holds_at_most_max_statements(self):
        from repro.server.session import MAX_STATEMENTS

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            for n in range(MAX_STATEMENTS):
                await client.prepare("s%d" % n, "select eid from emp")
            with pytest.raises(SessionError, match="at most %d"
                               % MAX_STATEMENTS):
                await client.prepare("one-more", "select eid from emp")
            # Re-preparing a held name replaces it, at the bound too.
            await client.prepare(
                "s0", "select name from emp where eid = $1"
            )
            rel = await client.execute("s0", [1])
            assert rel.to_rows() == [("ada",)]
            with pytest.raises(SessionError, match="unknown prepared"):
                await client.execute("one-more", [])
            await client.close()

        run(served(body))

    def test_the_client_keeps_the_statements_the_server_holds(self):
        """The client's re-registration list is bounded by the server's:
        a refused PREPARE is never remembered, so a reconnect replays
        exactly the acknowledged statements."""
        from repro.server.session import MAX_STATEMENTS

        held = {"s%d" % n: "select name from emp where eid = %d" % n
                for n in range(MAX_STATEMENTS)}

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            for name, xql in held.items():
                await client.prepare(name, xql)
            with pytest.raises(SessionError, match="at most %d"
                               % MAX_STATEMENTS):
                await client.prepare("one-more", "select eid from emp")
            assert client._prepared == held
            first_session = client.session_id
            sent = []
            write = client._write_frame

            async def recording(ftype, frame):
                if ftype == FrameType.PREPARE:
                    sent.append((frame["name"], frame["xql"]))
                await write(ftype, frame)

            client._write_frame = recording
            client._drop()  # the connection is gone; the next call redials
            rel = await client.execute("s2", [])
            assert rel.to_rows() == [("bob",)]
            assert client.session_id != first_session
            assert sent == list(held.items())
            session, = [conn.session for conn in server._conns
                        if conn.session.session_id == client.session_id]
            assert session._statements == held
            await client.close()

        run(served(body))


class TestMalformedBodiesAreRefusedAtTheDoor:
    """A request body the server cannot read is a typed
    ``SessionError`` before any table is touched: the session survives
    and the log does not move."""

    ROW = {"eid": 9, "name": "eve", "dept": "ops"}
    #: Refused before admission.
    AT_THE_DOOR = [
        (FrameType.EXECUTE, {"name": "who", "args": 5}),
        (FrameType.QUERY, {"xql": 5}),
        (FrameType.PREPARE, {"name": "later", "xql": 5}),
        (FrameType.MUTATE, {"ops": 5}),
    ]
    #: Refused while the session parses the batch.
    IN_THE_BATCH = [
        (FrameType.MUTATE, {"ops": [["insert", ["emp"], ROW]]}),
        (FrameType.MUTATE, {"ops": [["insert", "emp", "eid"]]}),
    ]

    @pytest.mark.parametrize(
        "ftype, request_body", AT_THE_DOOR + IN_THE_BATCH,
        ids=["execute-args", "query-xql", "prepare-xql", "mutate-ops",
             "op-table", "op-row"],
    )
    def test_refused_typed_and_the_session_survives(
            self, tmp_path, ftype, request_body):
        from repro.relational.wal import WriteAheadLog

        log = WriteAheadLog(str(tmp_path / "wal.log"), sync=False)

        async def body():
            manager = TransactionManager(make_manager().tables, log=log)
            server = Server(manager)
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port)
                await client.prepare(
                    "who", "select name from emp where eid = $1"
                )
                await client.mutate([["insert", "emp", self.ROW]])
                lsn, committed = log.lsn, manager.committed()
                admitted = server.admission.admitted_total
                rid = client._next_request_id()
                await client._write_frame(ftype, dict(request_body, id=rid))
                with pytest.raises(SessionError):
                    await client._read_response(rid)
                assert log.lsn == lsn
                assert manager.committed() is committed
                if (ftype, request_body) in self.AT_THE_DOOR:
                    assert server.admission.admitted_total == admitted
                with pytest.raises(SessionError, match="unknown prepared"):
                    await client.execute("later", [])
                # The session survives and still answers.
                rel = await client.execute("who", [9])
                assert rel.to_rows() == [("eve",)]
                await client.close()
            finally:
                await server.close()

        run(body())
        log.close()

    @pytest.mark.parametrize("args", ["ab", b"ab", {"a": 1, "b": 2}],
                             ids=["str", "bytes", "dict"])
    def test_the_client_refuses_an_argument_that_is_not_a_sequence(
            self, args):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.prepare(
                "pair", "select name from emp where eid = $1 and dept = $2"
            )
            served_before = server.requests_served
            with pytest.raises(SessionError):
                await client.execute("pair", args)
            assert server.requests_served == served_before  # never sent
            rel = await client.execute("pair", [1, "eng"])
            assert rel.to_rows() == [("ada",)]
            await client.close()

        run(served(body))


class TestSnapshotSessions:
    def test_reads_pinned_until_refresh(self):
        async def body(server):
            reader = await connect("127.0.0.1", server.port,
                                   client_id="r")
            writer = await connect("127.0.0.1", server.port,
                                   client_id="w")
            await writer.mutate(
                [["insert", "emp",
                  {"eid": 9, "name": "eve", "dept": "eng"}]]
            )
            stale = await reader.query("select eid from emp")
            assert len(stale) == 3  # still at version 0
            version = await reader.refresh()
            assert version == 1
            fresh = await reader.query("select eid from emp")
            assert len(fresh) == 4
            await reader.close()
            await writer.close()

        run(served(body))

    def test_write_conflict_surfaces_typed(self):
        async def body(server):
            a = await connect("127.0.0.1", server.port, client_id="a")
            b = await connect("127.0.0.1", server.port, client_id="b")
            await a.mutate(
                [["update", "emp", {"eid": 1}, {"name": "early"}]]
            )
            with pytest.raises(WriteConflictError) as exc:
                await b.mutate(
                    [["update", "emp", {"eid": 1}, {"name": "late"}]]
                )
            assert exc.value.tables == ("emp",)
            # After refreshing, b can commit.
            await b.refresh()
            await b.mutate(
                [["update", "emp", {"eid": 1}, {"name": "later"}]]
            )
            await a.close()
            await b.close()

        run(served(body))

    def test_mutate_own_write_visible(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.mutate(
                [["insert", "emp",
                  {"eid": 9, "name": "eve", "dept": "eng"}],
                 ["delete", "emp", {"eid": 2}]]
            )
            rel = await client.query("select name from emp")
            names = sorted(r[0] for r in rel.to_rows())
            assert names == ["ada", "cyd", "eve"]
            await client.close()

        run(served(body))

    def test_a_respelling_batch_leaves_memory_as_the_log_spells_it(
        self, tmp_path
    ):
        from repro.relational.wal import WriteAheadLog, recover_state
        from repro.xst.serialization import digest

        table = Table(["k", "v"], [{"k": 1, "v": 1}], [KeyConstraint(["k"])])
        base = table.snapshot()
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        manager = TransactionManager({"t": table}, log=log)

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            # One deferred batch, net diff empty (1 == 1.0): no commit.
            assert await client.mutate([
                ["delete", "t", {"k": 1}],
                ["insert", "t", {"k": 1, "v": 1.0}],
            ]) == 0
            assert table.snapshot() is base and log.lsn == 0
            assert await client.mutate(
                [["insert", "t", {"k": 2, "v": 2}]]
            ) == 1
            answer = await client.query("select k, v from t")
            await client.close()
            return answer

        answer = run(served(body, manager))
        state, replayed = recover_state(log.replay(), base={"t": base})
        assert replayed == 1
        assert digest(state["t"].rows) == digest(table.snapshot().rows) \
            == digest(answer.rows)

    def test_a_reinserted_row_keeps_the_spelling_its_batch_deleted(
        self, tmp_path
    ):
        from repro.relational.wal import WriteAheadLog, recover_state
        from repro.xst.serialization import digest

        table = Table(["k", "v"], [{"k": 1, "v": 1}, {"k": 2, "v": 2}],
                      [KeyConstraint(["k"])])
        base = table.snapshot()
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        manager = TransactionManager({"t": table}, log=log)

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            # One batch: the re-inserted row nets out of the diff, the
            # update does not, so the batch commits and is logged.
            assert await client.mutate([
                ["delete", "t", {"k": 1}],
                ["insert", "t", {"k": 1, "v": 1.0}],
                ["update", "t", {"k": 2}, {"v": 3}],
            ]) == 1
            answer = await client.query("select k, v from t")
            await client.close()
            return answer

        answer = run(served(body, manager))
        state, replayed = recover_state(log.replay(), base={"t": base})
        assert replayed == 1
        assert digest(state["t"].rows) == digest(table.snapshot().rows) \
            == digest(answer.rows)
        assert [type(v) for row in sorted(answer.to_rows()) for v in row] \
            == [int] * 4

    def test_malformed_ops_are_session_errors(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            with pytest.raises(SessionError):
                await client.mutate([["upsert", "emp", {}]])
            await client.close()

        run(served(body))


class TestServedStatistics:
    """Served plans read the committed value itself: every session at
    one version plans from the same relations, and ``ANALYZE`` over the
    wire is a report that changes nothing."""

    THREE_WAY = "select name, city from emp join dept join site"

    @staticmethod
    def three_tables(log=None):
        manager = make_manager()
        site = Table(["floor", "city"], [{"floor": 1, "city": "oslo"},
                                         {"floor": 3, "city": "rome"}])
        return TransactionManager({**manager.tables, "site": site}, log=log)

    def test_served_and_embedded_runs_share_one_plan(self):
        manager = self.three_tables()

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            over_wire = await client.query(self.THREE_WAY)
            db = manager.committed()
            # The session's pinned value is the committed one: its plan
            # is in that value's memo, and the embedded run reuses it.
            planned = db.plan_memo()[self.THREE_WAY]
            embedded = run_xql(db, self.THREE_WAY)
            assert db.plan_memo()[self.THREE_WAY] is planned
            assert dumps_csv(over_wire) == dumps_csv(embedded)
            assert len(over_wire) == 3
            await client.close()

        run(served(body, manager))

    def test_analyze_over_the_wire_is_a_report(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal"))
        manager = self.three_tables(log)

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.query(self.THREE_WAY)
            db = manager.committed()
            memo = dict(db.plan_memo())
            filled = {
                name: set(db.relation(name).rows._by_part or ())
                for name in db.names()
            }
            lsn = log.lsn
            analyzed = await client.query("analyze")
            assert sorted(analyzed.heading.names) == [
                "attributes", "relation", "rows"
            ]
            assert sorted(analyzed.to_rows()) == [
                ("dept", 2, 2), ("emp", 3, 3), ("site", 2, 2)
            ]
            with pytest.raises(SchemaError):
                await client.query("analyze nosuch")
            assert manager.committed() is db
            assert db.plan_memo() == memo
            assert log.lsn == lsn
            assert {
                name: set(db.relation(name).rows._by_part or ())
                for name in db.names()
            } == filled
            await client.close()

        run(served(body, manager))

    def test_analyze_on_a_pinned_session_leaves_later_plans_alone(self):
        manager = TransactionManager({"emp": Table(
            ["eid", "dept"], [{"eid": n, "dept": n % 5} for n in range(40)],
            [KeyConstraint(["eid"])],
        )})

        async def body(server):
            pinned = await connect("127.0.0.1", server.port)
            writer = await connect("127.0.0.1", server.port)
            await writer.mutate([
                ["insert", "emp", {"eid": 40 + n,
                                   "dept": 1 if n < 92 else 2}]
                for n in range(400)
            ])
            report = await pinned.query("analyze emp")
            assert report.to_rows() == [("emp", 40, 2)]
            now = manager.committed()
            estimator = CardinalityEstimator(now)
            plan = Restrict(Scan("emp"), (Comparison("dept", "=", 1),))
            assert estimator.estimate(Scan("emp")) == 440.0
            assert estimator.estimate(plan) == 100.0
            assert now.execute(plan).cardinality() == 100
            await pinned.close()
            await writer.close()

        run(served(body, manager))

    def test_served_mutations_move_the_estimates(self):
        manager = self.three_tables()

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            plan = Restrict(Scan("emp"), (Comparison("dept", "=", "eng"),))
            before = CardinalityEstimator(manager.committed())
            assert before.estimate(plan) == 2.0
            await client.mutate([
                ["insert", "emp", {"eid": 10 + n, "name": "n%d" % n,
                                   "dept": "eng"}]
                for n in range(5)
            ])
            now = manager.committed()
            after = CardinalityEstimator(now)
            assert after.estimate(Scan("emp")) == 8.0
            assert after.estimate(plan) == 7.0 == \
                now.execute(plan).cardinality()
            await client.close()

        run(served(body, manager))

    def test_a_refreshed_session_plans_from_the_new_value(self):
        manager = self.three_tables()

        async def body(server):
            reader = await connect("127.0.0.1", server.port)
            writer = await connect("127.0.0.1", server.port)
            first = await reader.query(self.THREE_WAY)
            old = manager.committed()
            await writer.mutate([
                ["insert", "emp", {"eid": 9, "name": "dee", "dept": "ops"}]
            ])
            # Pinned: the old value answers, and the new one has no
            # plan until a session on it asks.
            assert await reader.query(self.THREE_WAY) == first
            now = manager.committed()
            assert now is not old
            assert self.THREE_WAY not in now.plan_memo()
            await reader.refresh()
            again = await reader.query(self.THREE_WAY)
            assert len(again) == len(first) + 1
            assert now.plan_memo()[self.THREE_WAY].explain() == \
                old.plan_memo()[self.THREE_WAY].explain()
            await reader.close()
            await writer.close()

        run(served(body, manager))


class TestServedViews:
    """A view is a relation of the catalog value a session pins: the
    view statements and view reads work over the wire, as of the
    session's own version."""

    ENG = "select eid, name from emp where dept = 'eng'"

    @staticmethod
    def stack(**manager_kw):
        manager = TransactionManager(make_manager().tables, **manager_kw)
        return manager, ViewCatalog(Database(), manager=manager)

    @staticmethod
    def recompute(manager, text):
        """``text`` on a hand-built catalog of the committed relations:
        no view catalog, no cache, no optimizer."""
        return run_xql(Database({
            name: table.snapshot() for name, table in manager.tables.items()
        }), text, optimized=False)

    def test_create_read_mutate_read(self):
        manager, catalog = self.stack()

        async def body(server):
            writer = await connect("127.0.0.1", server.port, client_id="w")
            reader = await connect("127.0.0.1", server.port, client_id="r")
            created = await writer.query(
                "create materialized view eng as " + self.ENG
            )
            assert created.to_rows() == [("eng", "materialized", 2)]
            await writer.query(
                "create view floors as select name, floor from eng join dept"
            )
            assert catalog.names() == ["eng", "floors"]
            # Definitions are shared and immediate: the other session
            # reads them without a REFRESH.
            assert dumps_csv(await reader.query("select * from eng")) == \
                dumps_csv(self.recompute(manager, self.ENG))
            assert (await reader.query(
                "select name from floors where floor = 3"
            )).cardinality() == 2
            await writer.mutate([
                ["insert", "emp", {"eid": 4, "name": "dee", "dept": "eng"}],
                ["delete", "emp", {"eid": 1}],
            ])
            view = catalog.view("eng")
            assert (view.delta_applies, view.fallbacks) == (0, 0)
            before = self.recompute(make_manager(), self.ENG)
            after = self.recompute(manager, self.ENG)
            assert before != after
            # The writer's read, at the current value, patched the pin;
            # the reader never said REFRESH and reads the view as of the
            # version it holds.
            assert dumps_csv(await writer.query("select * from eng")) == \
                dumps_csv(after)
            assert (view.delta_applies, view.fallbacks) == (1, 0)
            assert dumps_csv(await reader.query("select * from eng")) == \
                dumps_csv(before)
            assert sorted((await reader.query(
                "select name from floors"
            )).to_rows()) == [("ada",), ("cyd",)]
            assert await reader.refresh() == 1
            assert dumps_csv(await reader.query("select * from eng")) == \
                dumps_csv(after)
            # The pinned reader replaced nothing: still maintained.
            assert (view.recomputes, view.fallbacks) == (1, 0)
            assert catalog.verify("eng")
            refreshed = await reader.query("refresh view eng")
            assert refreshed.to_rows() == [("eng", 2)]
            await writer.close()
            await reader.close()

        run(served(body, manager))

    def test_a_write_whose_view_no_set_holds_commits(self):
        # The write is valid and made durable; only the materialized sum
        # comes to nan, so the view unpins and its next read refuses.
        inf = float("inf")
        manager = TransactionManager({"t": Table(
            ["k", "g", "x"], [{"k": 1, "g": "a", "x": inf}],
        )})
        catalog = ViewCatalog(Database(), manager=manager)

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.query("create materialized view s as "
                               "select g, sum(x) as total from t group by g")
            assert (await client.query("select * from s")).to_rows() == \
                [("a", inf)]
            version = await client.mutate(
                [["insert", "t", {"k": 2, "g": "a", "x": -inf}]])
            assert version == manager.current_version == 1
            assert catalog.view("s").fallbacks == 0
            with pytest.raises(InvalidAtomError, match="would be nan"):
                await client.query("select * from s")
            assert catalog.view("s").fallbacks == 1
            await client.close()

        run(served(body, manager))

    def test_a_catch_up_read_under_too_small_a_budget_is_refused(self):
        # The reader's budget bounds the patch its read makes: refused,
        # the pin stays the old entry, and the next read patches it.
        manager, catalog = self.stack()

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.query("create materialized view floors as "
                               "select name, floor from emp join dept")
            held = catalog.store.pinned("floors")
            await client.mutate(
                [["insert", "emp", {"eid": 4, "name": "dee", "dept": "eng"}]]
            )
            view = catalog.view("floors")
            with pytest.raises(BudgetExceededError):
                await client.query("select * from floors budget 1")
            assert catalog.store.pinned("floors") is held
            assert catalog.is_stale("floors")
            assert (view.delta_applies, view.fallbacks, view.recomputes) == \
                (0, 0, 1)
            got = await client.query("select * from floors")
            assert dumps_csv(got) == dumps_csv(self.recompute(
                manager, "select name, floor from emp join dept"))
            assert (view.delta_applies, view.fallbacks, view.recomputes) == \
                (1, 0, 1)
            assert catalog.verify("floors") and client.connected
            await client.close()

        run(served(body, manager))

    def test_drop_then_read_is_a_schema_error(self):
        manager, catalog = self.stack()

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.query("create view eng as " + self.ENG)
            assert (await client.query("select * from eng")).cardinality() == 2
            dropped = await client.query("drop view eng")
            assert dropped.to_rows() == [("eng", 1)]
            with pytest.raises(SchemaError, match="unknown relation 'eng'"):
                await client.query("select * from eng")
            assert catalog.names() == [] and client.connected
            await client.close()

        run(served(body, manager))

    def test_served_and_embedded_view_reads_share_cache_entries(self):
        cache = QueryResultCache(capacity=8)
        manager, catalog = self.stack(result_cache=cache)
        text = "select name from eng"

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.query("create materialized view eng as " + self.ENG)
            stores, hits = cache.stores, cache.hits
            over_wire = await client.query(text)
            assert (cache.stores, cache.hits) == (stores + 1, hits)
            embedded = run_xql(manager.committed(), text)
            assert (cache.stores, cache.hits) == (stores + 1, hits + 1)
            assert dumps_csv(over_wire) == dumps_csv(embedded)
            # A commit moves no counter of the cache: the view waits,
            # pinned, for its next read.
            dropped = cache.invalidations
            counters = (cache.stores, cache.hits, cache.misses, cache.stale)
            await client.mutate(
                [["insert", "emp", {"eid": 5, "name": "eve", "dept": "eng"}]]
            )
            assert (cache.stores, cache.hits, cache.misses, cache.stale,
                    cache.invalidations) == counters + (dropped,)
            assert catalog.store is cache and catalog.is_stale("eng")
            # The read patches the view first.  A replaced
            # materialization takes its entries with it: the answer read
            # through the view goes; the pinned view stays.  The patch
            # reads its sub-plan past the readers' cache: no entry
            # stored, no lookup counted in their hit rate -- the one
            # stale and the one store are the statement's own.
            assert (await client.query(text)).cardinality() == 3
            assert cache.invalidations == dropped + 1
            stored, hit, missed, stale = counters
            assert (cache.stores, cache.hits, cache.misses,
                    cache.stale) == (stored + 1, hit, missed, stale + 1)
            eng = plan_cache_key(Restrict(Scan("emp"),
                                          (Comparison("dept", "=", "eng"),)))
            assert eng.endswith(":Restrict(dept = 'eng')(Scan(emp))")
            assert eng not in [plan_key for plan_key, _ in cache._entries]
            assert not catalog.is_stale("eng")
            await client.close()

        run(served(body, manager))

    def test_a_refused_create_view_defines_nothing(self, tmp_path):
        from repro.relational.wal import WriteAheadLog

        log = WriteAheadLog(str(tmp_path / "wal.log"), sync=False)
        cache = QueryResultCache(capacity=8)
        manager, catalog = self.stack(log=log, result_cache=cache)

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client.mutate(
                [["insert", "emp", {"eid": 9, "name": "eve", "dept": "ops"}]]
            )
            before = (log.lsn, cache.hits, cache.misses, cache.stale,
                      cache.stores)
            for text in (
                "create materialized view bad as select nope from emp",
                "create view bad as select name from emp order by floor",
                "create view bad as select name from ghost",
            ):
                with pytest.raises(SchemaError):
                    await client.query(text)
                assert catalog.names() == [] and catalog.status() == []
            assert (log.lsn, cache.hits, cache.misses, cache.stale,
                    cache.stores) == before
            # The name is free and the session still answers.
            await client.query("create view bad as select name from emp")
            assert (await client.query("select * from bad")).cardinality() == 4
            await client.close()

        run(served(body, manager))
        log.close()


class TestIdempotentRetry:
    def test_duplicate_mutate_replays_ack_not_write(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            rid = client._next_request_id()
            ops = [["insert", "emp",
                    {"eid": 9, "name": "eve", "dept": "eng"}]]
            await client._write_frame(8, {"id": rid, "ops": ops})
            _, first = await client._read_response(rid)
            # The "lost ack" retry: same id, same ops, again.
            await client._write_frame(8, {"id": rid, "ops": ops})
            _, second = await client._read_response(rid)
            assert first["version"] == second["version"] == 1
            assert second["replayed"] is True
            assert server.writes_replayed == 1
            rel = await client.query("select eid from emp where eid = 9")
            assert len(rel) == 1  # applied exactly once
            await client.close()

        run(served(body))

    def test_distinct_ids_apply_separately(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            v1 = await client.mutate(
                [["insert", "emp",
                  {"eid": 8, "name": "gil", "dept": "ops"}]]
            )
            v2 = await client.mutate(
                [["insert", "emp",
                  {"eid": 9, "name": "eve", "dept": "eng"}]]
            )
            assert (v1, v2) == (1, 2)
            await client.close()

        run(served(body))


class TestCancel:
    def test_cancel_stops_a_result_stream_at_a_page_edge(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            rid = client._next_request_id()
            await client._write_frame(3, {"id": rid,
                                          "xql": "select eid from emp"})
            await client.cancel(rid)
            # Collect until the stream terminates: it must end with
            # CANCELLED, not trail pages forever.
            saw_cancelled = False
            for _ in range(10):
                ftype, frame = await client._read_frame()
                if ftype == 13:  # CANCELLED
                    saw_cancelled = True
                    break
                assert ftype == 4  # pages already in flight are fine
            assert saw_cancelled
            await client.close()

        run(served(body, page_rows=1))

    def test_cancelled_ids_do_not_outlive_their_cancel_frame(self):
        """10 000 stray CANCELs leave nothing behind, and a mid-stream
        cancel on the same connection still stops at the next page."""
        from repro.server.protocol import FrameType, encode_frame

        async def body(server):
            client = await connect("127.0.0.1", server.port)
            (conn,) = server._conns
            for batch in range(0, 10_000, 500):
                client._writer.write(b"".join(
                    encode_frame(FrameType.CANCEL, {"id": "ghost-%d" % n})
                    for n in range(batch, batch + 500)
                ))
                await client._writer.drain()
                for n in range(batch, batch + 500):
                    ftype, frame = await client._read_frame()
                    assert (ftype, frame["id"]) == (
                        FrameType.CANCELLED, "ghost-%d" % n)
            assert conn.cancelled == set()
            rid = client._next_request_id()
            await client._write_frame(
                FrameType.QUERY, {"id": rid, "xql": "select eid from emp"})
            await client.cancel(rid)
            replies = []
            while replies[-2:] != [FrameType.CANCELLED] * 2:
                ftype, frame = await client._read_frame()
                assert frame["id"] == rid
                replies.append(ftype)
            # The stream's own CANCELLED, then the CANCEL frame's ack --
            # after at most the pages already in flight, never all three.
            assert replies[:-2] in ([], [FrameType.PAGE], [FrameType.PAGE] * 2)
            assert conn.cancelled == set()
            await client.close()

        run(served(body, page_rows=1))

    def test_cancel_of_unknown_request_is_acked(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            await client._write_frame(12, {"id": "ghost"})
            ftype, frame = await client._read_frame()
            assert ftype == 13 and frame["id"] == "ghost"
            await client.close()

        run(served(body))


class TestAdmissionFrontDoor:
    def test_at_capacity_sheds_with_deterministic_retry_after(self):
        async def body(server):
            client = await connect(
                "127.0.0.1", server.port, max_attempts=1
            )
            with server.admission.hold(2, PRIORITY_CRITICAL):
                with pytest.raises(OverloadedError) as exc:
                    await client.query("select eid from emp")
            assert exc.value.retry_after_s == \
                server.admission.retry_after_unit_s * 2
            await client.close()

        run(served(body, capacity=2, soft_capacity=1))

    def test_background_shed_before_normal(self):
        async def body(server):
            background = await connect(
                "127.0.0.1", server.port,
                priority=PRIORITY_BACKGROUND, max_attempts=1,
                client_id="bg",
            )
            normal = await connect("127.0.0.1", server.port,
                                   client_id="n")
            with server.admission.hold(1, PRIORITY_CRITICAL):
                with pytest.raises(OverloadedError):
                    await background.query("select eid from emp")
                rel = await normal.query("select eid from emp")
                assert len(rel) == 3
            await background.close()
            await normal.close()

        run(served(body, capacity=3, soft_capacity=1))

    def test_overload_retries_then_succeeds(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port,
                                   sleep_backoff=True)
            with server.admission.hold(2, PRIORITY_CRITICAL):
                task = asyncio.ensure_future(
                    client.query("select eid from emp")
                )
                await asyncio.sleep(0.05)  # first attempts shed
            rel = await task
            assert len(rel) == 3
            assert client.retries >= 1
            await client.close()

        run(served(body, capacity=2, soft_capacity=1))


class TestDrain:
    def test_drain_sheds_background_and_finishes_normal(self):
        async def body(server):
            critical = await connect(
                "127.0.0.1", server.port,
                priority=PRIORITY_CRITICAL, client_id="crit",
            )
            background = await connect(
                "127.0.0.1", server.port,
                priority=PRIORITY_BACKGROUND, client_id="bg",
                max_attempts=1,
            )
            result = await server.drain()
            assert result["shed"] == 0  # both were idle: goodbyes
            # New connections are refused...
            with pytest.raises((UnavailableError, ConnectionError)):
                await connect("127.0.0.1", server.port, max_attempts=1)
            # ...and the drained clients' next requests die typed.
            with pytest.raises(UnavailableError):
                await background.query("select eid from emp")
            with pytest.raises(UnavailableError):
                await critical.query("select eid from emp")

        run(served(body))

    @staticmethod
    async def drain_while_busy(server, clients, release=True):
        """Start one query per client, hold each inside the server until
        the drain has classified its connection, then drain."""
        gate = asyncio.Event()
        run_query = server._run_query

        async def held(conn, rid, xql):
            await gate.wait()
            await run_query(conn, rid, xql)

        server._run_query = held
        queries = [
            asyncio.ensure_future(client.query("select eid from emp"))
            for client in clients
        ]
        while sum(conn.busy for conn in server._conns) < len(clients):
            await asyncio.sleep(0)
        draining = asyncio.ensure_future(server.drain())
        while not all(conn.draining for conn in server._conns):
            await asyncio.sleep(0)
        if release:
            gate.set()
        result = await draining
        answers = await asyncio.gather(*queries, return_exceptions=True)
        for client in clients:
            client._drop()
        return result, answers

    def test_drain_counts_every_busy_connection(self):
        async def body(server):
            critical = await connect(
                "127.0.0.1", server.port,
                priority=PRIORITY_CRITICAL, client_id="crit",
            )
            background = await connect(
                "127.0.0.1", server.port,
                priority=PRIORITY_BACKGROUND, client_id="bg",
                max_attempts=1,
            )
            idle = await connect("127.0.0.1", server.port, client_id="idle")
            result, (finished, shed) = await self.drain_while_busy(
                server, [critical, background]
            )
            assert result == {"finished": 1, "shed": 1, "aborted": 0}
            assert len(finished) == 3
            assert isinstance(shed, OverloadedError)
            assert server.open_connections == 0
            idle._drop()

        run(served(body))

    def test_drain_aborts_a_request_that_outlives_the_deadline(self):
        async def body(server):
            client = await connect(
                "127.0.0.1", server.port, max_attempts=1
            )
            result, (answer,) = await self.drain_while_busy(
                server, [client], release=False
            )
            # finished + shed + aborted accounts for the busy connection.
            assert result == {"finished": 0, "shed": 0, "aborted": 1}
            assert isinstance(answer, XSTError)

        run(served(body, drain_timeout_s=0.05))

    def test_drain_flushes_incidents(self, tmp_path):
        from repro.obs.recorder import recorder

        incident_log = str(tmp_path / "incidents.jsonl")

        async def body(server):
            client = await connect(
                "127.0.0.1", server.port, max_attempts=1
            )
            recorder().install()
            try:
                with server.admission.hold(2, PRIORITY_CRITICAL):
                    with pytest.raises(OverloadedError):
                        await client.query("select eid from emp")
                await server.drain()
            finally:
                recorder().uninstall()
                recorder().reset()

        run(served(body, capacity=2, soft_capacity=1,
                   incident_log=incident_log))
        with open(incident_log) as fh:
            lines = fh.read().splitlines()
        assert any('"OVERLOADED"' in line for line in lines)

    def test_drain_is_deterministic_about_retry_hint(self):
        async def body(server):
            client = await connect("127.0.0.1", server.port)
            rid = client._next_request_id()
            await client._write_frame(3, {"id": rid, "xql":
                                          "select eid from emp"})
            _, page = await client._read_response(rid)
            await server.drain()
            ftype, frame = await client._read_frame()
            assert ftype == 15  # GOODBYE
            assert frame["retry_after_s"] == \
                server.admission.retry_after_s()

        run(served(body))


class TestSlowConsumer:
    def test_stalled_drain_sheds_the_connection(self):
        async def body(server):
            class StalledWriter:
                def __init__(self):
                    self.transport = None

                def write(self, data):
                    pass

                async def drain(self):
                    await asyncio.sleep(60)

            class FakeConn:
                writer = StalledWriter()

            with pytest.raises(Exception) as exc:
                await server._send(FakeConn(), 4, {"id": "x"})
            assert "slow consumer" in str(exc.value)
            assert server.net_faults.frames >= 0

        run(served(body, send_timeout_s=0.01))


async def until(condition, seconds=5.0):
    """Poll ``condition`` on the loop until it holds or time runs out."""
    for _ in range(int(seconds / 0.005)):
        if condition():
            return True
        await asyncio.sleep(0.005)
    return condition()


class TestPeerReset:
    """A peer that resets its socket leaves like one that closes it:
    the connection, its session slot and its pinned snapshot go."""

    @staticmethod
    def reset(client):
        sock = client._writer.get_extra_info("socket")
        # Linger 0: closing the socket sends RST, not FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        client._writer.transport.abort()

    def test_a_reset_peer_releases_its_session_and_snapshot(self):
        manager = make_manager()

        async def body(server):
            clients = [
                await connect("127.0.0.1", server.port, client_id="c%d" % n,
                              max_attempts=1)
                for n in range(2)
            ]
            # Both sessions stay pinned at version 0 past this commit.
            manager.table("emp").insert(
                {"eid": 4, "name": "dee", "dept": "ops"})
            assert manager.retained_versions() == [0, 1]
            for client in clients:
                self.reset(client)
            assert await until(lambda: server.open_connections == 0)
            assert manager.retained_versions() == [1]
            third = await connect("127.0.0.1", server.port, client_id="c2",
                                  max_attempts=1)
            assert third.version == 1
            await third.close()

        run(served(body, manager, max_sessions=2))


class TestDeadlinesOnRealSockets:
    """Both wire deadlines, reached through real transports."""

    def test_a_client_that_stops_reading_is_shed(self):
        from repro.obs.recorder import recorder

        pad = "x" * 1000
        manager = TransactionManager({"big": Table(
            ["eid", "pad"],
            [{"eid": n, "pad": pad} for n in range(1000)],
        )})

        async def body(server):
            stalled = await connect("127.0.0.1", server.port,
                                    client_id="stalled", max_attempts=1)
            # Small socket buffers on both ends, so the 1 MB answer
            # backs up into the server's transport whatever the host's
            # TCP autotuning allows.
            (conn,) = server._conns
            for writer, option in ((conn.writer, socket.SO_SNDBUF),
                                   (stalled._writer, socket.SO_RCVBUF)):
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, option, 8192)
            other = await connect("127.0.0.1", server.port,
                                  client_id="other", max_attempts=1)
            aborted = server.connections_aborted
            recorder().install()
            try:
                stalled._writer.transport.pause_reading()
                await stalled._write_frame(FrameType.QUERY, {
                    "id": "scan", "xql": "select eid, pad from big"})
                # The other session is served while the stalled one's
                # pages back up, and after it is shed.
                answer = await other.query("select pad from big where eid = 7")
                assert answer.to_rows() == [(pad,)]
                assert await until(
                    lambda: server.connections_aborted == aborted + 1)
                messages = [incident["error"]["message"]
                            for incident in recorder().incidents()]
            finally:
                recorder().uninstall()
                recorder().reset()
            assert messages == [
                "network failure: slow consumer: send stalled past 0.100s"
            ]
            assert server.open_connections == 1
            answer = await other.query("select eid from big where eid = 9")
            assert answer.to_rows() == [(9,)]
            await other.close()
            stalled._drop()

        run(served(body, manager, page_rows=16, send_timeout_s=0.1))

    def test_a_stalled_read_is_a_network_error_and_spawns_no_task(self):
        # Frame 0 is the WELCOME; frame 1, the answer's page, stalls.
        plan = FaultPlan().delay_frame(1, 1.0)

        async def body(server):
            client = await connect("127.0.0.1", server.port, max_attempts=1)
            # Set after the handshake, which a loaded host may take
            # longer than this to answer.
            client.read_timeout_s = 0.05
            before = asyncio.all_tasks()
            with pytest.raises(NetworkError) as exc:
                await client.query("select eid from emp")
            assert exc.value.reason == "read stalled past 0.050s"
            assert asyncio.all_tasks() == before

        run(served(body, net_faults=NetworkFaultInjector(plan)))


class TestServedCluster:
    """One stack: the server serves the cluster's own engine, so a
    wire MUTATE is a cluster write -- replicated inside the commit,
    before the ack leaves."""

    @staticmethod
    def make_cluster():
        from repro.relational.distributed import Cluster

        tables = make_manager().tables
        cluster = Cluster(3, replication_factor=2)
        for name in ("emp", "dept"):
            cluster.create_table(name, tables[name].snapshot(), "dept")
        cluster.manager.table("emp").add_constraint(KeyConstraint(["eid"]))
        return cluster

    @staticmethod
    def holders(cluster, eid):
        """Names of the nodes whose stored ``emp`` rows include ``eid``."""
        return sorted(
            node.name for node in cluster.nodes
            if node.holds("emp") and any(
                row["eid"] == eid
                for row in node.partition("emp").iter_dicts()
            )
        )

    def test_wire_mutate_is_a_replicated_cluster_write(self):
        from repro.relational.query import Restrict, Scan

        cluster = self.make_cluster()
        shard_map = cluster.shard_map("emp")
        ring = [
            cluster.nodes[index].name
            for index in shard_map.replicas(shard_map.bucket_for("eng"))
        ]
        at_commit = []
        # Subscribed after the cluster's own listener: by the time it
        # runs -- still inside the commit, before any ack -- the row
        # must already sit on every replica.
        cluster.manager.subscribe(
            lambda version, changes: at_commit.append(
                self.holders(cluster, 9)
            )
        )

        async def body():
            server = Server(cluster.manager)
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port)
                version = await client.mutate(
                    [["insert", "emp",
                      {"eid": 9, "name": "eve", "dept": "eng"}]]
                )
                assert version == cluster.manager.current_version == 1
                assert at_commit == [sorted(ring)]
                # The write survives losing the bucket's primary.
                cluster.kill_node(ring[0])
                served_rows = cluster.execute(
                    Restrict(Scan("emp"), (Comparison("dept", "=", "eng"),))
                )
                assert 9 in {row["eid"] for row in served_rows.iter_dicts()}
                assert cluster.execute(Scan("emp")) == \
                    cluster.manager.table("emp").snapshot()
                await client.close()
            finally:
                await server.close()

        run(body())

    def test_wire_constraint_violation_moves_nothing(self):
        cluster = self.make_cluster()

        async def body():
            server = Server(cluster.manager)
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port)
                ops, version = cluster.ops, cluster.manager.current_version
                with pytest.raises(XSTError) as exc:
                    await client.mutate(
                        [["insert", "emp",
                          {"eid": 7, "name": "new", "dept": "ops"}],
                         ["insert", "emp",
                          {"eid": 1, "name": "dup", "dept": "eng"}]]
                    )
                assert not isinstance(exc.value, UnavailableError)
                assert "key(eid)" in str(exc.value)
                assert cluster.ops == ops
                assert cluster.manager.current_version == version
                assert self.holders(cluster, 7) == []
                await client.close()
            finally:
                await server.close()

        run(body())
