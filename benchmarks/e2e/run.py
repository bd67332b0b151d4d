#!/usr/bin/env python3
"""End-to-end wire benchmark with per-layer attribution.

Drives ``repro.server.Client`` against a real ``repro.server.Server``
over loopback TCP, checks every answer, and prints every metric named
in ``BENCHMARK.json`` with its unit.  See ``README.md`` beside this
file for definitions, workloads and the measurement method.

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload point_read --seed 7 \\
        --seconds 22 --trace 0                         # driver contract
    python3 benchmarks/e2e/run.py --aa                 # two sets, compared
    python3 benchmarks/e2e/run.py --smoke              # < 20 s self-check

Each (workload, round) runs in a fresh child process (this file with
``--child``), one at a time.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import asyncio
import compileall
import functools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

try:
    import calibration  # noqa: E402  (needs the path set above)
    import layers  # noqa: E402
    import workloads  # noqa: E402
except ModuleNotFoundError as error:
    sys.exit("run.py: %s (is there a src/ beside BENCHMARK.json?)" % error)
from repro import obs  # noqa: E402
from repro.relational import sql  # noqa: E402
from repro.relational.query import Database, Join, Scan  # noqa: E402
from repro.relational.tx import TransactionManager  # noqa: E402
from repro.relational.views import ViewCatalog  # noqa: E402
from repro.relational.wal import (  # noqa: E402
    COMMIT, WriteAheadLog, commit_tx_id, record_kind, recover_state,
)
from repro.server import Server, connect  # noqa: E402
from repro.server.session import render_statement  # noqa: E402


DEFAULT_SEED = 101
MIN_ROUNDS = 3
#: Share of the counted stream a count round covers (two such portions
#: in the obs-on round: one counted, one timed by the registry).
COUNT_SHARE = 0.5
#: A class reports a p95 only with ten samples beyond it.
P95_MIN_INDICES = 200
#: Units whose values must repeat exactly for one seed (A/A mode) --
#: except that with ``repro.obs`` on, paths branch on measured latency
#: (slow-query log, histogram exemplars), so that count moves by a few
#: events in fifty thousand.
EXACT_UNITS = ("kcalls", "count", "bytes", "ratio")
INEXACT = ("obs.extra_kcalls_per_req",)
VIEW_NAME = "emp_dept"


@functools.lru_cache(maxsize=None)
def manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, bounds, run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        return json.load(source)


@functools.lru_cache(maxsize=None)
def units() -> Dict[str, str]:
    return {spec["name"]: spec["unit"] for spec
            in manifest()["end_to_end"] + manifest()["per_layer"]}


# ======================================================================
# Child: one round of one workload in this process
# ======================================================================

class Stack:
    """The stack under test plus two connected clients."""

    def __init__(self, workload: workloads.Workload, seed: int):
        tables = workloads.build_tables(workload, seed)
        self.initial = {name: table.snapshot()
                        for name, table in tables.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR)
        self.log = WriteAheadLog(os.path.join(self.wal_dir, "wal.log"),
                                 sync=True)
        self.manager = TransactionManager(tables, log=self.log)
        self.catalog: Optional[ViewCatalog] = None
        if workload.view:
            self.catalog = ViewCatalog(Database(), manager=self.manager)
            self.catalog.define(VIEW_NAME, Join(Scan("emp"), Scan("dept")),
                                materialized=True)
            self.catalog.read(VIEW_NAME)
        self.server = Server(self.manager,
                             result_cache_capacity=workload.cache_capacity)
        self.clients: List[Any] = []

    async def start(self) -> None:
        await self.server.start()
        for index in range(2):
            client = await connect("127.0.0.1", self.server.port,
                                   client_id="c%d" % index)
            for name, template in workloads.PREPARED.items():
                await client.prepare(name, template)
            self.clients.append(client)

    async def issue(self, request: workloads.Request) -> Any:
        index, kind, payload = request
        client = self.clients[index]
        if kind == "query":
            return await client.query(payload)
        if kind == "execute":
            return await client.execute(*payload)
        if kind == "mutate":
            return await client.mutate(payload)
        return await client.refresh()

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.close()
        self.log.close()

    def discard(self) -> None:
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    def committed(self) -> Dict[str, Any]:
        return {name: table.snapshot()
                for name, table in self.manager.tables.items()}

    def wal_bytes(self) -> int:
        """Size of the log file (it appears with the first commit)."""
        path = self.log.path
        return os.path.getsize(path) if os.path.exists(path) else 0


def request_text(request: workloads.Request) -> str:
    """The XQL a read request runs."""
    _, kind, payload = request
    if kind == "execute":
        return render_statement(workloads.PREPARED[payload[0]], payload[1])
    return payload


def answer_digest(kind: str, result: Any) -> int:
    """A process-independent fingerprint of one reply."""
    if workloads.CLASS_OF[kind] == "read":
        text = repr((sorted(result.heading.names),
                     sorted(map(repr, result.iter_dicts()))))
        return zlib.crc32(text.encode("utf-8"))
    return int(result)


class Pass:
    """Issue requests one at a time, timing each client call.

    Everything after the clock stops -- digests, state capture for the
    oracle, view verification, calibration chunks -- is outside the
    timed window.
    """

    def __init__(self, stack: Stack, check: bool):
        self.stack = stack
        self.check = check
        self.failures: List[str] = []
        self.attempted = 0
        self.acked: List[int] = []
        self.payload_bytes = 0
        self.rows_returned = 0
        self.retained_max = 0
        self.crc = 0
        self.first_counted_ack = 0
        self.slowdown = 1.0     # of the last calibrated run
        self.states = {0: stack.committed()}
        self.reads: List[Tuple[int, str, Any]] = []

    def start_counting(self) -> None:
        """The warm-up is over: what follows is the counted stream."""
        self.attempted = self.crc = 0
        self.payload_bytes = self.rows_returned = 0
        self.first_counted_ack = len(self.acked)

    async def run(self, requests: Sequence[workloads.Request],
                  calibrate: bool = True) -> List[float]:
        """Latency of each request, in seconds at reference speed (see
        ``calibration.py``); as measured with ``calibrate=False``."""
        latencies = []
        speed = calibration.SpeedLog() if calibrate else None
        for position, request in enumerate(requests):
            if speed is not None:
                speed.sample_if_due(position)
            kind = request[1]
            pinned = self.stack.clients[request[0]].version
            self.attempted += 1
            begin = time.perf_counter()
            try:
                result = await self.stack.issue(request)
            except Exception as error:  # refused, typed or not: a failure
                latencies.append(time.perf_counter() - begin)
                self.failures.append("%s raised %r" % (request[1:], error))
                continue
            latencies.append(time.perf_counter() - begin)
            self.crc = zlib.crc32(
                b"%d" % answer_digest(kind, result), self.crc)
            if kind == "mutate":
                self.after_write(request, result)
            elif workloads.CLASS_OF[kind] == "read":
                self.rows_returned += result.cardinality()
                if self.check:
                    self.reads.append((pinned, request_text(request), result))
            self.retained_max = max(
                self.retained_max,
                len(self.stack.manager.retained_versions()))
        if speed is None:
            return latencies
        speed.sample(len(requests))
        self.slowdown = speed.slowdown()
        return speed.to_reference(latencies)

    def after_write(self, request: workloads.Request, version: int) -> None:
        self.acked.append(version)
        self.payload_bytes += sum(
            len(json.dumps(op[2:], sort_keys=True, separators=(",", ":")))
            for op in request[2])
        if not self.check:
            return
        self.states[version] = self.stack.committed()
        catalog = self.stack.catalog
        if catalog is not None and not catalog.verify(VIEW_NAME):
            self.failures.append("view %s diverged at version %d"
                                 % (VIEW_NAME, version))

    def check_answers(self) -> int:
        """Every read against the unoptimized embedded evaluation of the
        same text on the state its session was pinned to."""
        databases: Dict[int, Database] = {}
        expected: Dict[Tuple[int, str], Any] = {}
        for pinned, text, got in self.reads:
            key = (pinned, text)
            if key not in expected:
                if pinned not in databases:
                    databases[pinned] = Database(self.states[pinned])
                expected[key] = sql.run(databases[pinned], text,
                                        optimized=False)
            if got != expected[key]:
                self.failures.append(
                    "wrong answer at version %d for %r" % key)
        return len(self.reads)


def check_durability(stack: Stack, acked: Sequence[int]) -> Dict[str, Any]:
    """Reopen the WAL file from disk and replay it from the initial
    tables: the result must equal the final committed tables, and every
    acknowledged version must be in the log."""
    final = stack.committed()
    begin = time.perf_counter()
    log = WriteAheadLog(stack.log.path)
    records = log.replay()
    state, replayed = recover_state(records, base=stack.initial)
    replay_s = time.perf_counter() - begin
    log.close()
    logged = {commit_tx_id(record) for record in records
              if record_kind(record) == COMMIT}
    return {"ok": state == final and set(acked) <= logged,
            "replay_s": replay_s, "commits": replayed}


def xst_totals() -> Dict[str, float]:
    """Kernel counters from the public registry, summed over ops."""
    totals = {"ops": 0.0, "rows_in": 0.0, "rows_out": 0.0, "seconds": 0.0}
    for key, value in obs.registry().snapshot().items():
        if key.startswith("repro_xst_op_total"):
            totals["ops"] += value
        elif key.startswith("repro_xst_rows_in_total"):
            totals["rows_in"] += value
        elif key.startswith("repro_xst_rows_out_total"):
            totals["rows_out"] += value
        elif key.startswith("repro_xst_op_seconds_sum"):
            totals["seconds"] += value
    return totals


class MaintenanceProbe:
    """Kernel rows read while the view catalog's commit listener runs,
    against the rows in the commit diff (obs-on count round only).

    Installed in both count rounds and switched off during the
    call-counted portion, so it costs the obs-off and obs-on counts
    the same one call per commit.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.rows_in = 0.0
        self.diff_rows = 0

    def wrap(self, listener: Callable) -> Callable:
        if layers.listener_layer(listener) != "relational.views":
            return listener

        def probe(version, changes):
            if not self.enabled:
                return listener(version, changes)
            before = xst_totals()["rows_in"]
            listener(version, changes)
            self.rows_in += xst_totals()["rows_in"] - before
            self.diff_rows += sum(len(inserted) + len(deleted)
                                  for _, inserted, deleted in changes.values())
        return probe


def count_calls() -> Tuple[Callable, List[int]]:
    """A ``sys.setprofile`` hook counting ``call`` + ``c_call`` events."""
    cell = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            cell[0] += 1
    return hook, cell


async def count_round(run: Pass, counted: Sequence[workloads.Request],
                      probe: MaintenanceProbe, with_registry: bool
                      ) -> Dict[str, Any]:
    """First portion under the call counter; with ``repro.obs`` on, a
    second one without it whose kernel work the registry reports (so
    ``xst.op_ms_per_req`` is not inflated by the counter)."""
    portion = max(1, round(len(counted) * COUNT_SHARE))
    hook, calls = count_calls()
    sys.setprofile(hook)
    try:
        # No calibration chunks here: the hook would count their calls.
        await run.run(counted[:portion], calibrate=False)
    finally:
        sys.setprofile(None)
    out: Dict[str, Any] = {"calls": calls[0], "count_requests": portion}
    if with_registry:
        second = counted[portion:2 * portion]
        rows_before, before = run.rows_returned, xst_totals()
        probe.enabled = True
        await run.run(second)
        probe.enabled = False
        after = xst_totals()
        moved = {key: after[key] - before[key] for key in after}
        moved["seconds"] /= run.slowdown      # to reference speed
        out["xst"] = dict(
            moved, requests=len(second),
            rows_returned=run.rows_returned - rows_before,
            maintain_rows_in=probe.rows_in, diff_rows=probe.diff_rows)
    return out


#: Set-ups per timed round: the one the pass runs on, then throwaway
#: ones after it.
SETUPS_PER_ROUND = 3
#: Calibration chunks run before and again after each set-up.
SETUP_CHUNKS = 5


async def set_up(workload: workloads.Workload, seed: int, scale: float,
                 check: bool = False
                 ) -> Tuple[Stack, Pass, List[workloads.Request], float]:
    """Everything ``setup_s`` covers: tables, WAL, view, server, two
    connected clients with their statements prepared, and the warm-up.
    Returns the stack, the pass, the counted requests and the seconds
    at reference speed."""
    chunks = [calibration.timed_chunk() for _ in range(SETUP_CHUNKS)]
    begin = time.perf_counter()
    stack = Stack(workload, seed)
    try:
        await stack.start()
        stream, warm = workloads.build_stream(workload, seed, scale)
        run = Pass(stack, check)
        await run.run(stream[:warm], calibrate=False)
    except BaseException:
        stack.discard()
        raise
    seconds = time.perf_counter() - begin
    chunks += [calibration.timed_chunk() for _ in range(SETUP_CHUNKS)]
    return stack, run, stream[warm:], seconds / calibration.slowdown(chunks)


def settle_allocator() -> None:
    """Free one 1 MiB block, as any long-lived server process has.

    asyncio reads a socket into a fresh 256 KiB buffer.  In a pristine
    process glibc serves a block that large with ``mmap`` and returns
    it with ``munmap`` -- two system calls and page faults on *every*
    read, 15 % of a sub-millisecond request here -- until the process
    first frees a block above the threshold, which raises it for good.
    Compiling imports from source happens to do that; loading them
    from ``__pycache__`` does not.  A long-lived process reaches that
    state with the first block over 128 KiB it ever frees, so the
    benchmark starts there.
    """
    block = bytearray(1 << 20)
    del block


async def child(mode: str, workload: workloads.Workload, seed: int,
                scale: float) -> Dict[str, Any]:
    settle_allocator()
    tracer = layers.install() if mode == "traced" else None
    probe = None
    if mode in ("count", "count_obs"):
        obs.set_enabled(mode == "count_obs")
        probe = MaintenanceProbe()
        layers.shim_subscribe(probe.wrap)
    stack, run, counted, setup_s = await set_up(
        workload, seed, scale, check=(mode == "check"))
    try:
        out: Dict[str, Any] = {"setups_s": [setup_s]}
        wal_before = stack.wal_bytes()
        run.start_counting()
        begin = time.perf_counter()
        if tracer is not None:
            tracer.armed = True
        if probe is None:
            out["latencies"] = await run.run(counted)
        else:
            out.update(await count_round(run, counted, probe,
                                         with_registry=(mode == "count_obs")))
        if tracer is not None:
            tracer.armed = False
        out["wall_s"] = time.perf_counter() - begin
        out["slowdown"] = run.slowdown
        out["wal"] = {
            "bytes": stack.wal_bytes() - wal_before,
            "payload_bytes": run.payload_bytes,
            "writes": len(run.acked) - run.first_counted_ack,
        }
        out["server"] = server_counters(stack)
        out["retained_versions_max"] = run.retained_max
        if mode == "check":
            out["oracle_checked"] = run.check_answers()
        await stack.stop()
        durability = check_durability(stack, run.acked)
        if not durability["ok"]:
            run.failures.append(
                "WAL replay does not reproduce the committed tables")
        out["durability"] = durability
    finally:
        stack.discard()
    if tracer is not None:
        out["trace"] = trace_summary(tracer, workload)
    out.update(attempted=run.attempted, failures=run.failures[:5],
               failed=len(run.failures), answers_crc=run.crc,
               rss_mb=peak_rss_mb())
    if mode in ("timed", "check"):
        for _ in range(SETUPS_PER_ROUND - 1):
            spare, _, _, setup_s = await set_up(workload, seed, scale)
            await spare.stop()
            spare.discard()
            out["setups_s"].append(setup_s)
    return out


def peak_rss_mb() -> float:
    """This process's own peak resident set (``VmHWM``).  Not
    ``ru_maxrss``: Linux folds the parent's resident set at spawn time
    into the child's, so that figure follows whatever the driver
    process happened to do before the round."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def server_counters(stack: Stack) -> Dict[str, Any]:
    """Counts the stack's own public attributes keep."""
    server = stack.server
    out = {
        "retries": sum(client.retries for client in stack.clients),
        "writes_replayed": server.writes_replayed,
        "shed": server.admission.shed_total,
    }
    if server.result_cache is not None:
        out["cache"] = server.result_cache.snapshot()
    if stack.catalog is not None:
        view = stack.catalog.view(VIEW_NAME)
        out["view"] = {"delta_applies": view.delta_applies,
                       "fallbacks": view.fallbacks}
    return out


def trace_summary(tracer: layers.Tracer,
                  workload: workloads.Workload) -> Dict[str, Any]:
    tracer.number_requests()
    tracer.dump(os.path.join(OUT_DIR, "trace-%s.jsonl" % workload.name))
    table = layers.attribute(tracer.spans)
    faults = layers.check_parents(tracer.spans)

    def by_name(mapping: Dict[Tuple[str, str], float]) -> Dict[str, float]:
        return {"%s/%s" % key: value for key, value in mapping.items()}
    return {"layers": table["layers"], "names": by_name(table["names"]),
            "inclusive": by_name(table["inclusive"]),
            "calls": by_name(table["calls"]),
            "traced_s": table["traced_s"], "residual_s": table["residual_s"],
            "requests": table["requests"], "counts": dict(tracer.counts),
            "faults": faults[:5]}


# ======================================================================
# Parent: rounds, statistics, report
# ======================================================================

class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, name: str, seed: int, scale: float
              ) -> Dict[str, Any]:
    """One round in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_OBS", None)
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", mode,
         "--workload", name, "--seed", str(seed), "--scale", repr(scale)],
        env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise ChildFailed("%s/%s exited %d:\n%s"
                          % (name, mode, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    result["process_s"] = time.perf_counter() - begin
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty class."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Rounds:
    """Timed rounds of one workload, folded as they arrive."""

    def __init__(self, name: str, seed: int, scale: float):
        self.name, self.seed, self.scale = name, seed, scale
        self.workload = workloads.WORKLOADS[name]
        stream, warm = workloads.build_stream(self.workload, seed, scale)
        self.classes = [workloads.CLASS_OF[kind]
                        for _, kind, _ in stream[warm:]]
        self.latencies: List[List[float]] = []    # one list per round
        self.typical: List[float] = []            # per index, over rounds
        self.results: List[Dict[str, Any]] = []
        self.spent_s = 0.0
        self.extra: Dict[str, Dict[str, Any]] = {}

    def add_timed(self) -> None:
        mode = "check" if not self.results else "timed"
        result = run_child(mode, self.name, self.seed, self.scale)
        self.latencies.append(result.pop("latencies"))
        self.typical = [statistics.median(index)
                        for index in zip(*self.latencies)]
        self.results.append(result)
        self.spent_s += result["process_s"]

    def add_extra(self, mode: str) -> None:
        self.extra[mode] = run_child(mode, self.name, self.seed, self.scale)

    def every_child(self) -> List[Dict[str, Any]]:
        return self.results + list(self.extra.values())

    # -- verdict -------------------------------------------------------

    def failures(self) -> List[str]:
        found = [failure for result in self.every_child()
                 for failure in result["failures"]]
        full = [result["answers_crc"] for result in self.results]
        if "traced" in self.extra:
            full.append(self.extra["traced"]["answers_crc"])
            found.extend(self.extra["traced"]["trace"]["faults"])
        if len(set(full)) > 1:
            found.append("answers differ between rounds: %s" % full)
        return found

    def attempted(self) -> int:
        return sum(result["attempted"] for result in self.every_child())

    def failed(self) -> int:
        counted = sum(result["failed"] for result in self.every_child())
        return max(counted, len(self.failures()))

    # -- metrics -------------------------------------------------------

    def by_class(self, wanted: str) -> List[float]:
        return [latency for latency, cls in zip(self.typical, self.classes)
                if cls == wanted]

    def end_to_end(self) -> Dict[str, float]:
        count = self.extra["count"]
        reads, writes = self.by_class("read"), self.by_class("write")
        worst = max(result["failed"] / max(1, result["attempted"])
                    for result in self.every_child())
        wal = self.results[0]["wal"]
        return {
            "setup_s": statistics.median(
                seconds for result in self.results
                for seconds in result["setups_s"]),
            "p50_ms": 1e3 * percentile(self.typical, 0.50),
            "p95_ms": 1e3 * percentile(self.typical, 0.95),
            "throughput_rps": len(self.typical) / sum(self.typical),
            "kcalls_per_req": count["calls"] / 1e3 / count["count_requests"],
            "peak_rss_mb": statistics.median(
                result["rss_mb"] for result in self.results),
            "read_p50_ms": 1e3 * percentile(reads, 0.50),
            "read_p95_ms": 1e3 * percentile(reads, 0.95)
            if len(reads) >= P95_MIN_INDICES else 0.0,
            "write_p50_ms": 1e3 * percentile(writes, 0.50),
            "write_p95_ms": 1e3 * percentile(writes, 0.95)
            if len(writes) >= P95_MIN_INDICES else 0.0,
            "failed_frac": worst,
            "wal_amplification": wal["bytes"] / wal["payload_bytes"]
            if wal["payload_bytes"] else 0.0,
        }

    def per_layer(self) -> Dict[str, float]:
        traced, on = self.extra["traced"], self.extra["count_obs"]
        off = self.extra["count"]
        trace, counts = traced["trace"], traced["trace"]["counts"]
        requests = trace["requests"]
        writes = traced["wal"]["writes"]
        server, xst = traced["server"], on["xst"]
        cache = server.get("cache", {})
        view = server.get("view", {})

        def ms(total_s: float, per: int) -> float:
            """Traced-round seconds as reference ms per ``per``."""
            return 1e3 * total_s / traced["slowdown"] / per if per else 0.0

        def own(*keys: str) -> float:
            return sum(trace["names"].get(key, 0.0) for key in keys)

        def layer(name: str) -> float:
            return trace["layers"].get(name, 0.0)

        def calls(*keys: str) -> float:
            return sum(trace["calls"].get(key, 0) for key in keys)

        out = {
            "server.client.self_ms_per_req":
                ms(layer("server.client"), requests),
            "server.client.retries": server["retries"],
            "server.protocol.encode_ms_per_req": ms(own(
                "server.protocol/encode_frame.request",
                "server.protocol/encode_frame.reply"), requests),
            "server.protocol.decode_ms_per_req": ms(own(
                "server.protocol/feed.request", "server.protocol/feed.reply",
                "server.protocol/FrameDecoder.feed"), requests),
            "server.protocol.wire_bytes_per_req":
                counts.get("wire_bytes", 0) / requests,
            "server.protocol.frames_per_req":
                counts.get("frames", 0) / requests,
            "server.service.residual_ms_per_req":
                ms(trace["residual_s"], requests),
            "server.service.pages_per_req": counts.get("pages", 0) / requests,
            "server.service.writes_replayed": server["writes_replayed"],
            "gov.admission.self_ms_per_req":
                ms(layer("gov.admission"), requests),
            "gov.admission.shed": server["shed"],
            "server.session.self_ms_per_req":
                ms(layer("server.session"), requests),
            "server.session.db_builds": counts.get("db_builds", 0),
            "server.session.conflicts": counts.get("conflicts", 0),
            "relational.sql.parse_ms_per_req":
                ms(own("relational.sql/parse_query"), requests),
            "relational.sql.self_ms_per_req": ms(own(
                "relational.sql/run", "relational.sql/compile_query"),
                requests),
            "relational.optimizer.self_ms_per_req":
                ms(layer("relational.optimizer"), requests),
            "relational.ivm.cache.self_ms_per_req":
                ms(layer("relational.ivm.cache"), requests),
            "relational.ivm.cache.hit_rate": cache.get("hit_rate", 0.0),
            "relational.ivm.cache.stale": cache.get("stale", 0),
            "relational.ivm.cache.evictions": cache.get("evictions", 0),
            "relational.ivm.cache.invalidations":
                cache.get("invalidations", 0),
            "relational.query.self_ms_per_req":
                ms(layer("relational.query"), requests),
            "relational.query.rows_out_per_req":
                counts.get("rows_out", 0) / requests,
            "relational.query.rows_examined_per_row_out":
                xst["rows_in"] / xst["rows_returned"]
                if xst["rows_returned"] else 0.0,
            "xst.ops_per_req": xst["ops"] / xst["requests"],
            "xst.rows_in_per_req": xst["rows_in"] / xst["requests"],
            "xst.rows_out_per_req": xst["rows_out"] / xst["requests"],
            "xst.op_ms_per_req": 1e3 * xst["seconds"] / xst["requests"],
            "relational.aggregate.self_ms_per_req":
                ms(layer("relational.aggregate"), requests),
            "relational.relation.rows_ms_per_req":
                ms(layer("relational.relation"), requests),
            "relational.relation.rows_per_req":
                counts.get("rows_materialized", 0) / requests,
            "relational.constraints.self_ms_per_write":
                ms(layer("relational.constraints"), writes),
            "relational.constraints.checks_per_write":
                calls("relational.constraints/Table.check_now") / writes
                if writes else 0.0,
            "relational.tx.commit_self_ms_per_write": ms(own(
                "relational.tx/TransactionManager.transaction"), writes),
            "relational.tx.snapshot_ms_per_req": ms(own(
                "relational.tx/TransactionManager.snapshot"), requests),
            "relational.tx.retained_versions_max":
                traced["retained_versions_max"],
            "relational.wal.append_ms_per_write": ms(trace["inclusive"].get(
                "relational.wal/WriteAheadLog.append", 0.0), writes),
            "relational.wal.fsync_ms_per_write":
                ms(own("relational.wal/fsync"), writes),
            "relational.wal.bytes_per_write":
                traced["wal"]["bytes"] / writes if writes else 0.0,
            "relational.wal.fsyncs_per_write":
                calls("relational.wal/fsync") / writes if writes else 0.0,
            "relational.wal.replay_ms_per_commit": ms(
                traced["durability"]["replay_s"],
                traced["durability"]["commits"]),
            "relational.views.maintain_ms_per_write": ms(
                trace["inclusive"].get("relational.views/listener", 0.0),
                writes),
            "relational.views.delta_applies": view.get("delta_applies", 0),
            "relational.views.fallbacks": view.get("fallbacks", 0),
            "relational.ivm.delta.rows_in_per_delta_row":
                xst["maintain_rows_in"] / xst["diff_rows"]
                if xst["diff_rows"] else 0.0,
            "obs.extra_kcalls_per_req":
                (on["calls"] - off["calls"]) / 1e3 / off["count_requests"],
            "bench.trace_overhead_frac":
                sum(traced["latencies"]) / sum(self.typical) - 1.0,
            "bench.round_spread_frac":
                max(result["wall_s"] for result in self.results)
                / min(result["wall_s"] for result in self.results) - 1.0,
            "bench.machine_slowdown": statistics.median(
                result["slowdown"] for result in self.results),
        }
        e2e = self.end_to_end()
        for name in ("read_p50_ms", "read_p95_ms", "write_p50_ms",
                     "write_p95_ms", "failed_frac", "wal_amplification"):
            out[name] = e2e[name]
        return out


def measure(names: Sequence[str], seed: int, seconds: float,
            rounds: Optional[int], scale: float, trace: Sequence[int]
            ) -> Dict[str, Rounds]:
    """Timed rounds interleaved across ``names`` (w1 r1, w2 r1, ...),
    so each workload samples the whole wall-clock window; then the
    untimed count and traced rounds."""
    sets = {name: Rounds(name, seed, scale) for name in names}

    def unfinished(one: Rounds) -> bool:
        done = len(one.results)
        if rounds is not None:
            return done < rounds
        # Start another round only if an average one still fits.
        return done < MIN_ROUNDS or \
            one.spent_s + one.spent_s / done <= seconds

    while any(unfinished(one) for one in sets.values()):
        for one in sets.values():
            if unfinished(one):
                one.add_timed()
    for one in sets.values():
        one.add_extra("count")
        if 1 in trace:
            one.add_extra("traced")
            one.add_extra("count_obs")
    return sets


def manifest_metrics(trace: Sequence[int]) -> List[Dict[str, Any]]:
    listed = []
    if 0 in trace:
        listed += manifest()["end_to_end"]
    if 1 in trace:
        listed += manifest()["per_layer"]
    return listed


def result_of(one: Rounds, trace: Sequence[int]) -> Dict[str, Any]:
    """The contract's result object for one workload."""
    values: Dict[str, float] = {}
    if 0 in trace:
        values.update(one.end_to_end())
    if 1 in trace:
        values.update(one.per_layer())
    failed = one.failed()
    return {
        "correct": failed == 0,
        "attempted": one.attempted(),
        "failed": failed,
        "metrics": {spec["name"]: {"value": values[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in manifest_metrics(trace)},
    }


def report(one: Rounds, trace: Sequence[int]) -> None:
    sizes = one.workload.sizes()
    print("== %s  seed %d  rounds %d  %s" % (
        one.name, one.seed, len(one.results),
        " ".join("%s=%s" % item for item in sizes.items())))
    e2e = one.end_to_end()
    print("-- end to end (times at reference speed; latency of index i = "
          "median over rounds; %d counted: %d read, %d write)" % (
              len(one.typical), len(one.by_class("read")),
              len(one.by_class("write"))))
    for name, value in e2e.items():
        print("  %-46s %14.4f %s" % (name, value, units()[name]))
    if 1 in trace:
        trace_of = one.extra["traced"]["trace"]
        requests, total = trace_of["requests"], trace_of["traced_s"]
        per_request_ms = 1e3 / one.extra["traced"]["slowdown"] / requests
        print("-- layers, traced round (%d requests, %.4f ms/request)"
              % (requests, total * per_request_ms))
        for layer, own in sorted(trace_of["layers"].items(),
                                 key=lambda item: -item[1]):
            print("  %-46s %10.4f ms/req %6.1f %%" % (
                layer, own * per_request_ms, 100.0 * own / total))
        print("-- per-layer metrics")
        for name, value in one.per_layer().items():
            if name not in e2e:
                print("  %-46s %14.4f %s" % (name, value, units()[name]))
    for failure in one.failures()[:10]:
        print("  FAILED: %s" % failure)


# ======================================================================
# A/A mode and the recorded baseline
# ======================================================================

def compare(first: Dict[str, Dict[str, float]],
            second: Dict[str, Dict[str, float]]) -> bool:
    """Print both sets side by side; False if they disagree."""
    bounds = {spec["name"]: spec["bound"] for spec in manifest()["end_to_end"]}
    agree = True
    for name in first:
        print("== A/A %s" % name)
        for metric, a in first[name].items():
            b = second[name][metric]
            diff = abs(b - a) / abs(a) if a else abs(b)
            exact = units()[metric] in EXACT_UNITS and metric not in INEXACT
            if exact:
                verdict, limit = ("ok" if a == b else "DIFFERS"), "exact"
            elif metric in bounds:
                limit = "%.2f" % bounds[metric]
                verdict = "ok" if diff <= bounds[metric] else "OUTSIDE"
            else:
                verdict, limit = "", "-"
            agree = agree and verdict in ("ok", "")
            print("  %-46s %14.4f %14.4f %8.4f %6s %s" % (
                metric, a, b, diff, limit, verdict))
    return agree


def flatten(sets: Dict[str, Rounds], trace: Sequence[int]
            ) -> Dict[str, Dict[str, float]]:
    return {name: {metric: entry["value"] for metric, entry
                   in result_of(one, trace)["metrics"].items()}
            for name, one in sets.items()}


def record(sets: Dict[str, Rounds], trace: Sequence[int], path: str) -> None:
    """Write the small baseline file (numbers, sizes, machine)."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    seeds = {}
    if os.path.exists(path):
        with open(path) as existing:
            seeds = json.load(existing).get("seeds", {})
    metrics = flatten(sets, trace)
    seed = next(iter(sets.values())).seed
    seeds[str(seed)] = {
        name: {"rounds": len(one.results), "sizes": one.workload.sizes(),
               "metrics": {metric: float("%.6g" % value)
                           for metric, value in metrics[name].items()}}
        for name, one in sets.items()}
    with open(path, "w") as out:
        json.dump({"measured_on_parent_commit": commit,
                   "nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "run_seconds": manifest()["run_seconds"],
                   "seeds": seeds}, out, indent=1, sort_keys=True)
        out.write("\n")


# ======================================================================
# Entry point
# ======================================================================

def parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=manifest()["run_seconds"],
                        help="timed rounds run until this much time is "
                             "spent (at least %d rounds)" % MIN_ROUNDS)
    parser.add_argument("--rounds", type=int,
                        help="exactly this many timed rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default: both")
    parser.add_argument("--aa", action="store_true",
                        help="two complete sets back to back, compared")
    parser.add_argument("--smoke", action="store_true",
                        help="one round on 5%% of each stream")
    parser.add_argument("--record", metavar="FILE",
                        help="also write the numbers to this JSON file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build() -> None:
    """Byte-compile ``src/`` and this directory into ``__pycache__``.

    A child that compiles its imports from source peaks 3 MB (10 %)
    higher in memory and starts 0.3 s later than one that loads them
    from the cache, so every child must find the same thing whatever
    wrote, or did not write, bytecode before.  Up-to-date files are
    skipped.
    """
    for directory in (os.path.join(ROOT, "src"), HERE):
        compileall.compile_dir(directory, quiet=2)


def main(argv: Sequence[str]) -> int:
    args = parse(argv)
    if args.child:
        workload = workloads.WORKLOADS[args.workload[0]]
        print(json.dumps(asyncio.run(
            child(args.child, workload, args.seed, args.scale))))
        return 0
    build()
    names = args.workload or list(workloads.WORKLOADS)
    trace = (0, 1) if args.trace is None else (args.trace,)
    scale, rounds = (0.05, 1) if args.smoke else (1.0, args.rounds)

    def one_set() -> Dict[str, Rounds]:
        sets = measure(names, args.seed, args.seconds, rounds, scale, trace)
        for one in sets.values():
            report(one, trace)
        return sets

    sets = one_set()
    agree = True
    if args.aa:
        agree = compare(flatten(sets, trace), flatten(one_set(), trace))
        print("A/A: %s" % ("sets agree" if agree else "SETS DISAGREE"))
    if args.record:
        record(sets, trace, args.record)
    results = [result_of(one, trace) for one in sets.values()]
    total = {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {
            "%s/%s" % (name, metric): entry
            for name, result in zip(sets, results)
            for metric, entry in result["metrics"].items()},
    }
    print(json.dumps(total))
    return 0 if total["correct"] and agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
