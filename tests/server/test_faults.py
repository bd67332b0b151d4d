"""End-to-end fault survival: the served-answer differential oracle.

Two harnesses:

* **Wire chaos**: a seeded sweep of :meth:`FaultPlan.net_chaos`
  schedules (drops, torn frames, delays) injected into the server's
  send path.  For every seed, every client call either returns the
  byte-identical answer embedded execution produces, or raises a
  typed :class:`~repro.errors.UnavailableError` -- never a hang,
  never a partial page presented as complete, never an untyped
  exception.
* **Crash-mid-commit**: the server's WAL writes through a
  :class:`~repro.relational.wal.CrashPoint`; the simulated power cut
  lands mid-append at seeded byte offsets.  Recovery replays the
  surviving log, and every write the client *saw acknowledged* must
  be present -- the ack-after-durable ordering, proved end to end.
"""

import asyncio
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnavailableError
from repro.relational.constraints import KeyConstraint, Table
from repro.relational.csvio import dumps_csv
from repro.relational.faults import FaultPlan, NetworkFaultInjector
from repro.relational.query import Database
from repro.relational.sql import run as run_xql
from repro.relational.tx import TransactionManager
from repro.relational.wal import CrashPoint, WriteAheadLog, recover_state
from repro.server import Server, connect

SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "20260808"))

WORKLOAD = [
    "select name from emp where dept = 'eng'",
    "select eid, name from emp",
    "select name, floor from emp join dept",
    "select dept from dept where floor = 3",
]


def make_tables():
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
    return {"emp": emp, "dept": dept}


def embedded_answers():
    db = Database({name: t.snapshot() for name, t in make_tables().items()})
    return [dumps_csv(run_xql(db, xql)) for xql in WORKLOAD]


def run(coro):
    # The oracle's "never a hang" clause, enforced mechanically.
    return asyncio.run(asyncio.wait_for(coro, 30))


async def chaos_run(seed):
    """One seeded chaos episode; returns (answers, typed_failures)."""
    plan = FaultPlan.net_chaos(
        seed, horizon=30, drops=2, tears=2, delays=2, max_delay=0.001
    )
    manager = TransactionManager(make_tables())
    server = Server(manager, net_faults=NetworkFaultInjector(plan))
    await server.start()
    answers, failures = {}, {}
    try:
        try:
            client = await connect(
                "127.0.0.1", server.port, seed=seed, read_timeout_s=0.5
            )
        except UnavailableError as err:
            return {}, {"connect": type(err).__name__}
        for index, xql in enumerate(WORKLOAD):
            try:
                answers[index] = dumps_csv(await client.query(xql))
            except UnavailableError as err:
                failures[index] = type(err).__name__
        try:
            await client.close()
        except UnavailableError:
            pass
    finally:
        await server.close()
    return answers, failures


class TestWireChaosOracle:
    @pytest.mark.parametrize("offset", range(8))
    def test_served_answers_byte_equal_or_typed(self, offset):
        expected = embedded_answers()
        answers, failures = run(chaos_run(SEED + offset))
        # Every query either matched embedded execution exactly or
        # failed typed; nothing silently diverged.
        for index, answer in answers.items():
            assert answer == expected[index], (
                "seed %d query %d diverged" % (SEED + offset, index)
            )
        # Failures, where they happened, were all typed subclasses.
        for name in failures.values():
            assert name.endswith("Error")

    def test_chaos_is_deterministic_per_seed(self):
        first = run(chaos_run(SEED))
        second = run(chaos_run(SEED))
        assert first == second

    def test_generous_retry_budget_always_answers(self):
        """With enough attempts and no read-timeout pressure, every
        chaos schedule with a finite fault count is survivable."""
        async def body():
            plan = FaultPlan.net_chaos(SEED, horizon=10, drops=1,
                                       tears=1, delays=1)
            manager = TransactionManager(make_tables())
            server = Server(manager,
                            net_faults=NetworkFaultInjector(plan))
            await server.start()
            try:
                client = await connect(
                    "127.0.0.1", server.port, seed=SEED,
                    max_attempts=10, read_timeout_s=1.0,
                )
                out = [dumps_csv(await client.query(xql))
                       for xql in WORKLOAD]
                await client.close()
                return out
            finally:
                await server.close()

        assert run(body()) == embedded_answers()

    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=10, deadline=None)
    def test_hypothesis_seeds_never_hang_or_leak_untyped(self, seed):
        answers, failures = run(chaos_run(seed))
        expected = embedded_answers()
        for index, answer in answers.items():
            assert answer == expected[index]


class TestMidStreamDisconnect:
    def test_drop_inside_result_stream_retries_to_byte_equality(self):
        """A connection dropped between pages must never surface a
        truncated relation: the client retries and the final answer is
        byte-identical."""
        async def body():
            # Frame 0-2: welcome + two pages; drop at frame 3 lands
            # mid-stream for a 3-row, 1-row-per-page query.
            plan = FaultPlan().drop_connection(3)
            manager = TransactionManager(make_tables())
            server = Server(manager, page_rows=1,
                            net_faults=NetworkFaultInjector(plan))
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port,
                                       read_timeout_s=1.0)
                answer = dumps_csv(
                    await client.query("select eid, name from emp")
                )
                assert client.retries >= 1
                await client.close()
                return answer
            finally:
                await server.close()

        db = Database(
            {name: t.snapshot() for name, t in make_tables().items()}
        )
        assert run(body()) == dumps_csv(
            run_xql(db, "select eid, name from emp")
        )

    @pytest.mark.parametrize("drop_at, retries, served", [
        (None, 0, 3),  # prepare + two executes, nothing re-prepared
        (3, 1, 5),     # + the attempt that died + the replayed PREPARE
    ])
    def test_prepared_statements_survive_the_reconnect(
            self, drop_at, retries, served):
        """A reconnect is a new server session; the client re-registers
        what it prepared, outside the request counter, so the retried
        EXECUTE finds its statement."""
        async def body():
            # Frames 0-2: WELCOME, PREPARED, the first answer.
            plan = FaultPlan()
            if drop_at is not None:
                plan.drop_connection(drop_at)
            server = Server(TransactionManager(make_tables()),
                            net_faults=NetworkFaultInjector(plan))
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port,
                                       read_timeout_s=1.0)
                await client.prepare(
                    "by_dept", "select name from emp where dept = $1"
                )
                first = await client.execute("by_dept", ["eng"])
                again = await client.execute("by_dept", ["eng"])
                assert first == again
                assert sorted(again.to_rows()) == [("ada",), ("cyd",)]
                assert client.retries == retries
                assert client._next_request_id() == "c0-4"
                assert server.requests_served == served
                await client.close()
            finally:
                await server.close()

        run(body())

    def test_torn_welcome_is_typed(self):
        async def body():
            plan = FaultPlan().tear_frame(0)  # tear the WELCOME
            manager = TransactionManager(make_tables())
            server = Server(manager,
                            net_faults=NetworkFaultInjector(plan))
            await server.start()
            try:
                client = await connect("127.0.0.1", server.port,
                                       read_timeout_s=0.5)
                # Retrying past the torn handshake is fine; a typed
                # failure would be fine too.  What is not fine is a
                # hang or an untyped error -- both fail the test.
                await client.close()
            except UnavailableError:
                pass
            finally:
                await server.close()

        run(body())


class TestCrashMidCommit:
    """Acked writes survive a server killed mid-commit."""

    def _run_episode(self, wal_path, budget):
        """Client mutates until the WAL crashes; returns acked rows."""
        async def body():
            point = CrashPoint(after_bytes=budget)
            log = WriteAheadLog(wal_path, sync=False, opener=point.open)
            manager = TransactionManager(make_tables(), log=log)
            server = Server(manager)
            await server.start()
            acked = []
            try:
                client = await connect("127.0.0.1", server.port,
                                       read_timeout_s=1.0,
                                       max_attempts=1)
                for k in range(10, 30):
                    try:
                        version = await client.mutate(
                            [["insert", "emp",
                              {"eid": k, "name": "n%d" % k,
                               "dept": "eng"}]]
                        )
                    except Exception:
                        break  # the crash: server can no longer commit
                    acked.append((k, version))
            finally:
                await server.close()
                log.close()
            return acked

        return run(body())

    def test_acked_writes_survive_seeded_crash_points(self, tmp_path):
        # Size a clean run first so crash budgets land mid-workload.
        clean_path = str(tmp_path / "clean.log")
        probe = CrashPoint()  # byte counter, no budget
        acked = self._run_episode_with_opener(clean_path, probe)
        assert len(acked) == 20
        total = probe.bytes_written
        assert total > 0
        rng = random.Random(SEED)
        for budget in sorted(rng.sample(range(1, total), 6)):
            wal_path = str(tmp_path / ("crash-%d.log" % budget))
            acked = self._run_episode(wal_path, budget)
            # Recovery: reopen (truncates any torn tail), replay.
            recovery = WriteAheadLog(wal_path, sync=False)
            state, replayed = recover_state(
                recovery.replay(),
                base={n: t.snapshot()
                      for n, t in make_tables().items()},
            )
            recovery.close()
            recovered_eids = {
                row["eid"] for row in state["emp"].iter_dicts()
            }
            for eid, version in acked:
                assert eid in recovered_eids, (
                    "acked write eid=%d (version %d) lost at crash "
                    "budget %d" % (eid, version, budget)
                )
            # And the replay count is exactly the acked count: the
            # torn in-flight record (if any) never happened.
            assert replayed == len(acked)

    def _run_episode_with_opener(self, wal_path, point):
        async def body():
            log = WriteAheadLog(wal_path, sync=False, opener=point.open)
            manager = TransactionManager(make_tables(), log=log)
            server = Server(manager)
            await server.start()
            acked = []
            try:
                client = await connect("127.0.0.1", server.port,
                                       read_timeout_s=1.0)
                for k in range(10, 30):
                    version = await client.mutate(
                        [["insert", "emp",
                          {"eid": k, "name": "n%d" % k,
                           "dept": "eng"}]]
                    )
                    acked.append((k, version))
                await client.close()
            finally:
                await server.close()
                log.close()
            return acked

        return run(body())

    def test_unacked_write_may_vanish_but_never_half_apply(self, tmp_path):
        wal_path = str(tmp_path / "half.log")
        acked = self._run_episode(wal_path, budget=300)
        recovery = WriteAheadLog(wal_path, sync=False)
        state, replayed = recover_state(
            recovery.replay(),
            base={n: t.snapshot() for n, t in make_tables().items()},
        )
        recovery.close()
        # Every recovered commit is a whole batch: eid k and its name
        # arrived together or not at all.
        for row in state["emp"].iter_dicts():
            if row["eid"] >= 10:
                assert row["name"] == "n%d" % row["eid"]
        assert replayed >= len(acked)
