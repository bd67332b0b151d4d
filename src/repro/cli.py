"""Command-line interface: ``python -m repro <command>``.

Four small commands that make the library usable from a shell:

``eval EXPR``
    Parse paper notation and print the canonical rendering, e.g.
    ``python -m repro eval "{b^2, a^1}"`` prints ``<a, b>``.

``image RELATION KEYS``
    Apply the CST-shaped image: both operands in paper notation,
    RELATION a set of pairs, KEYS a set of 1-tuples.

``query CSVDIR XQL``
    Load every ``*.csv`` in a directory as a relation (named by file
    stem) and run an XQL query against them.  The CSV answer is a
    relation, printed in canonical order: ``ORDER BY`` decides which
    rows ``LIMIT`` keeps and nothing else.

``closure CSVFILE FROM TO``
    Read an edge list from a CSV with the given source/target columns
    and print its transitive closure as CSV.

``cluster-status CSVDIR ATTR [NODES [FACTOR]]``
    Load every ``*.csv`` whose heading contains ATTR into a simulated
    cluster partitioned on ATTR (NODES nodes, FACTOR-way replication)
    and print the placement map, per-node liveness and row counts, and
    the replication byte overhead.

``fsck STOREDIR [--log FILE]``
    Offline integrity check of a durable store: verify every stored
    relation's segment checksums and classify the write-ahead log
    (valid records, last checkpoint, torn tail, corruption).  Exits 1
    when anything is damaged, 0 when the store would recover cleanly.

``stats STOREDIR RELATION``
    Print what the planner reads of one stored relation: its row
    count and, per attribute, the distinct count, the number of
    ``None`` values and the four most frequent values -- read off the
    relation itself, so they are exact and never stale.

``recover STOREDIR [--log FILE] [--compact]``
    Run crash recovery: truncate a torn WAL tail, replay the commit
    suffix past the last checkpoint onto the stored snapshots, write
    the recovered state back as a fresh checkpoint, and (with
    ``--compact``) drop the now-redundant log prefix.

``obs-metrics CSVDIR XQL``
    Run a query with observability enabled and print the Prometheus
    text exposition of everything it recorded: kernel op counters and
    latency histograms, plan node counts, cardinalities.

``obs-trace CSVDIR XQL`` / ``obs-trace CSVDIR LEFT RIGHT ATTR``
    Poor-man's distributed EXPLAIN ANALYZE.  The two-argument form
    traces a local XQL query; the four-argument form builds a cluster
    (``--nodes N --factor F``), optionally arms a deterministic chaos
    schedule (``--chaos SEED``), joins LEFT with RIGHT partitioned on
    ATTR, and renders the span tree -- per-bucket reads with retry and
    failover attributes.  ``--out FILE`` also exports JSON lines.

``obs-report FILE [--top N] [--format json|text]``
    Rank a slow-query log (JSONL of query digests, written by
    ``REPRO_SLOWLOG=<path>`` or ``SlowQueryLog.export_jsonl``) by
    latency and print the top N.

``obs-incidents FILE [--format json|text]``
    Print the incident records a flight recorder captured (JSONL from
    ``REPRO_INCIDENTS=<path>`` or ``FlightRecorder.export_jsonl``):
    what failed, its structured context, and the event window that
    led up to it.

``query``/``closure`` additionally accept ``--trace-out FILE`` to
export the execution trace as JSON lines alongside the normal output.
``query`` also takes ``--timeout SECONDS`` and ``--budget ROWS`` to
run under a resource governor (equivalent to the XQL TIMEOUT/BUDGET
clauses).  ``obs-trace`` takes ``--format json|text`` (default text);
JSON output is one span per line in deterministic order (start time,
then span id).

Every command writes to stdout and exits non-zero with a message on
stderr for malformed input, so the tool composes in pipelines.
Governance errors map to stable exit codes (see
:mod:`repro.errors`): 12 deadline, 13 budget, 14 overloaded,
15 circuit open, 11 cluster unavailable; other domain errors exit 2.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

from repro.errors import ShardPlacementError, XSTError
from repro.gov import governed
from repro.notation import parse, render
from repro.obs import observed, tracer
from repro.obs.digest import QueryDigest
from repro.relational.constraints import Table
from repro.relational.cost import member_index
from repro.relational.csvio import dumps_csv, read_csv
from repro.relational.disk import DiskRelationStore
from repro.relational.distributed import Cluster, ClusterUnavailableError
from repro.relational.faults import FaultPlan
from repro.relational.query import Database, Join, Scan
from repro.relational.relation import Relation
from repro.relational.sharding import ShardMove
from repro.relational.sql import run as run_xql
from repro.relational.tx import TransactionManager
from repro.relational.views import ViewCatalog
from repro.relational.wal import (
    CorruptSegmentError,
    WriteAheadLog,
    scan_bytes,
)
from repro.xst.closure import transitive_closure
from repro.xst.builders import xpair, xset
from repro.xst.image import cst_image
from repro.xst.ordering import canonical_key
from repro.xst.xset import XSet

__all__ = ["main"]

_USAGE = """\
usage: python -m repro <command> [args]

commands:
  eval EXPR              parse paper notation, print canonical form
  image RELATION KEYS    CST-shaped image of KEYS under RELATION
  query CSVDIR XQL [--trace-out FILE] [--timeout S] [--budget ROWS]
                         run an XQL query over a directory of CSVs,
                         optionally under a deadline / row budget;
                         the answer is a relation (canonical order):
                         ORDER BY only decides which rows LIMIT keeps
  closure CSV FROM TO [--trace-out FILE]
                         transitive closure of an edge-list CSV
  cluster-status CSVDIR ATTR [NODES [FACTOR]]
                         place CSVs on a simulated replicated cluster
                         and print its status
  fsck STOREDIR [--log FILE]
                         verify segment checksums and WAL integrity
                         (exit 1 on damage)
  stats STOREDIR RELATION
                         print a stored relation's row count and
                         per-attribute value counts
  recover STOREDIR [--log FILE] [--compact]
                         replay the WAL onto the store and write a
                         fresh checkpoint
  obs-metrics CSVDIR XQL run a query observed; print Prometheus text
  obs-trace CSVDIR XQL [--out FILE] [--format json|text]
                         trace a local query; render the span tree
  obs-trace CSVDIR LEFT RIGHT ATTR [--nodes N] [--factor F]
            [--chaos SEED] [--out FILE] [--format json|text]
                         trace a distributed join (optionally under a
                         deterministic chaos fault schedule)
  obs-report FILE [--top N] [--format json|text]
                         rank a slow-query log (digest JSONL) by latency
  obs-incidents FILE [--format json|text]
                         print flight-recorder incident records
  serve CSVDIR [--host H] [--port P] [--port-file FILE] [--token T]
        [--capacity N] [--max-sessions N] [--drain-timeout S]
        [--incident-log FILE]
                         serve the CSVs over TCP (MVCC snapshot
                         sessions; SIGINT/SIGTERM drains gracefully)
  views CSVDIR [XQL ...] [--verify]
                         run view statements (CREATE [MATERIALIZED]
                         VIEW / REFRESH VIEW / DROP VIEW / SELECT)
                         over the CSVs, then list every view's
                         staleness, last-refresh version and cache
                         hit rate; --verify digest-checks each
                         materialized cache against a recompute
"""


def _fail(message: str) -> int:
    print("repro: %s" % message, file=sys.stderr)
    return 2


def _pop_option(args: List[str], name: str):
    """Extract ``name VALUE`` from ``args`` (mutating); None if absent.

    Raises ValueError when the flag is present without a value.
    """
    if name not in args:
        return None
    index = args.index(name)
    if index + 1 >= len(args):
        raise ValueError("%s needs a value" % name)
    value = args[index + 1]
    del args[index:index + 2]
    return value


def _load_db(directory: str) -> Database:
    """Load every ``*.csv`` in a directory as a relation (by stem)."""
    if not os.path.isdir(directory):
        raise XSTError("%r is not a directory" % directory)
    db = Database()
    loaded = 0
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".csv"):
            name = entry[: -len(".csv")]
            db.add(name, read_csv(os.path.join(directory, entry)))
            loaded += 1
    if not loaded:
        raise XSTError("no .csv files in %r" % directory)
    return db


def _command_eval(args: List[str]) -> int:
    if len(args) != 1:
        return _fail("eval takes exactly one expression")
    value = parse(args[0])
    if isinstance(value, XSet):
        print(render(value))
    else:
        print(value)
    return 0


def _command_image(args: List[str]) -> int:
    if len(args) != 2:
        return _fail("image takes RELATION and KEYS")
    relation = parse(args[0])
    keys = parse(args[1])
    if not isinstance(relation, XSet) or not isinstance(keys, XSet):
        return _fail("both operands must be sets")
    print(render(cst_image(relation, keys)))
    return 0


def _command_query(args: List[str]) -> int:
    args = list(args)
    try:
        trace_out = _pop_option(args, "--trace-out")
        timeout = _pop_option(args, "--timeout")
        budget = _pop_option(args, "--budget")
    except ValueError as error:
        return _fail(str(error))
    try:
        timeout = None if timeout is None else float(timeout)
        budget = None if budget is None else int(budget)
    except ValueError:
        return _fail("--timeout needs a number of seconds and "
                     "--budget an integer row count")
    if len(args) != 2:
        return _fail("query takes CSVDIR and an XQL string")
    directory, text = args
    db = _load_db(directory)
    scope = (
        governed(timeout_s=timeout, max_rows=budget)
        if timeout is not None or budget is not None
        else nullcontext()
    )
    with scope:
        if trace_out is None:
            result = run_xql(db, text)
        else:
            with observed():
                tracer().reset()
                result = run_xql(db, text)
                tracer().export_jsonl(trace_out)
    sys.stdout.write(dumps_csv(result))
    return 0


def _command_closure(args: List[str]) -> int:
    args = list(args)
    try:
        trace_out = _pop_option(args, "--trace-out")
    except ValueError as error:
        return _fail(str(error))
    if len(args) != 3:
        return _fail("closure takes CSVFILE, FROM column, TO column")
    path, source_column, target_column = args
    edges = read_csv(path)
    edges.heading.require([source_column, target_column])
    graph = xset(
        xpair(row[source_column], row[target_column])
        for row in edges.iter_dicts()
    )
    if trace_out is None:
        closed = transitive_closure(graph)
    else:
        with observed():
            tracer().reset()
            with tracer().span(
                "closure(%s, %s)" % (source_column, target_column),
                edges=edges.cardinality(),
            ) as span:
                closed = transitive_closure(graph)
                span.set("pairs", len(closed))
            tracer().export_jsonl(trace_out)
    rows = sorted(
        (member.as_tuple() for member, _ in closed.pairs()), key=repr
    )
    result = Relation.from_tuples([source_column, target_column], rows)
    sys.stdout.write(dumps_csv(result))
    return 0


def _command_cluster_status(args: List[str]) -> int:
    if not 2 <= len(args) <= 4:
        return _fail("cluster-status takes CSVDIR, ATTR and optionally "
                     "NODES and FACTOR")
    directory, attr = args[0], args[1]
    try:
        node_count = int(args[2]) if len(args) > 2 else 4
        factor = int(args[3]) if len(args) > 3 else 1
    except ValueError:
        return _fail("NODES and FACTOR must be integers")
    if not os.path.isdir(directory):
        return _fail("%r is not a directory" % directory)
    try:
        cluster = Cluster(node_count, replication_factor=factor)
    except ValueError as error:
        return _fail(str(error))
    loaded = 0
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".csv"):
            continue
        relation = read_csv(os.path.join(directory, entry))
        if attr not in relation.heading:
            continue
        cluster.create_table(entry[: -len(".csv")], relation, attr)
        loaded += 1
    if not loaded:
        return _fail(
            "no .csv file in %r has a %r attribute" % (directory, attr)
        )
    status = cluster.status()
    print("cluster: %d nodes, replication factor %d, partitioned on %r"
          % (node_count, factor, attr))
    for table, info in status["tables"].items():
        shard_map = cluster.shard_map(table)
        print("table %s (rf=%d):" % (table, info["replication_factor"]))
        for bucket, rows in sorted(cluster.bucket_stats(table).items()):
            replicas = ", ".join(
                cluster.nodes[index].name
                for index in shard_map.replicas(bucket)
            )
            print("  bucket %d -> %s  (%d rows)" % (bucket, replicas, rows))
    for node_info in status["nodes"]:
        held = ", ".join(
            "%s%s (%d rows)" % (table, info["buckets"], info["rows"])
            for table, info in node_info["tables"].items()
        ) or "no tables"
        print("%s: %s, %s" % (
            node_info["name"],
            "up" if node_info["alive"] else "DOWN",
            held,
        ))
    network = status["network"]
    print("network: %d messages, %d bytes shipped "
          "(%d bytes replica placement overhead)"
          % (network["messages"], network["bytes_shipped"],
             network["replica_bytes"]))
    return 0


def _store_and_log(args: List[str], command: str):
    """Common argument handling for ``fsck`` and ``recover``."""
    log_path = _pop_option(args, "--log")
    if len(args) != 1:
        raise ValueError("%s takes one STOREDIR" % command)
    directory = args[0]
    if not os.path.isdir(directory):
        raise ValueError("%r is not a directory" % directory)
    if log_path is None:
        log_path = os.path.join(directory, "wal.log")
    return directory, log_path


def _command_fsck(args: List[str]) -> int:
    args = list(args)
    try:
        directory, log_path = _store_and_log(args, "fsck")
    except ValueError as error:
        return _fail(str(error))
    store = DiskRelationStore(directory)
    damage = 0
    for name in store.names():
        try:
            rows = sum(1 for _ in store.scan(name))
        except CorruptSegmentError as error:
            damage += 1
            print("relation %s: DAMAGED (%s)" % (name, error))
        else:
            print("relation %s: ok (%d rows, %d segments)"
                  % (name, rows, store.segment_count(name)))
    if os.path.exists(log_path):
        with open(log_path, "rb") as fh:
            data = fh.read()
        try:
            scan = scan_bytes(data, decode=True)
        except XSTError as error:
            print("log %s: DAMAGED (%s)" % (log_path, error))
            damage += 1
        else:
            checkpoint_index, _ = scan.last_checkpoint()
            print("log %s: %d records, %d bytes durable, last checkpoint %s"
                  % (log_path, scan.lsn, scan.valid_bytes,
                     "at lsn %d" % (checkpoint_index + 1)
                     if checkpoint_index >= 0 else "none"))
            if scan.torn_bytes:
                print("log %s: torn tail of %d bytes (recoverable; "
                      "run recover)" % (log_path, scan.torn_bytes))
            if scan.corrupt_at is not None:
                print("log %s: DAMAGED (corrupt frame at byte %d)"
                      % (log_path, scan.corrupt_at))
                damage += 1
    else:
        print("log %s: absent" % log_path)
    placement_damage = _fsck_shards(store)
    if placement_damage:
        print("fsck: %d placement inconsistenc%s"
              % (placement_damage,
                 "y" if placement_damage == 1 else "ies"))
        return ShardPlacementError.exit_code
    if damage:
        print("fsck: %d damaged item(s)" % damage)
        return 1
    print("fsck: clean")
    return 0


def _fsck_shards(store) -> int:
    """Audit the shard catalog and move journal; count inconsistencies.

    Two torn-rebalance residues are detectable from disk alone:

    * **bucket owned by two epochs** -- the move journal and the
      installed catalog disagree about who owns the moved bucket (a
      crash landed between the epoch swing and the journal update, in
      either order);
    * **orphaned post-move source data** -- a swing committed (the
      journal's ``target_epoch`` is installed) but the donor's frozen
      copy was never garbage-collected.

    Both exit with :attr:`~repro.errors.ShardPlacementError.exit_code`
    so scripts can tell placement damage from ordinary segment rot.
    """
    problems = 0
    shards = None
    try:
        shards = store.load_shards()
    except ShardPlacementError as error:
        print("shards: DAMAGED catalog (%s)" % error)
        problems += 1
    if shards is not None:
        for name in shards.names():
            shard_map = shards.get(name)
            try:
                shard_map.validate()
            except ShardPlacementError as error:
                print("shards %s: DAMAGED (%s)" % (name, error))
                problems += 1
            else:
                print("shards %s: ok (epoch %d, %d buckets, rf=%d)"
                      % (name, shard_map.epoch, shard_map.bucket_count,
                         shard_map.replication_factor))
    move_value = store.load_move()
    if move_value is None:
        return problems
    try:
        move = ShardMove.from_xset(move_value)
    except (ShardPlacementError, ValueError) as error:
        print("move journal: DAMAGED (%s)" % error)
        return problems + 1
    installed = shards.get(move.table) if shards is not None else None
    if move.target_epoch:
        # The journal says the swing committed at target_epoch.
        if installed is None or installed.epoch < move.target_epoch:
            print("move %s[%d]: TORN SWING (journal swung to epoch %d "
                  "but installed map is %s) -- bucket owned by two epochs"
                  % (move.table, move.bucket, move.target_epoch,
                     "absent" if installed is None
                     else "at epoch %d" % installed.epoch))
            problems += 1
        else:
            print("move %s[%d]: ORPHANED post-move source data on node "
                  "%d (swing at epoch %d committed but gc never ran)"
                  % (move.table, move.bucket, move.donor,
                     move.target_epoch))
            problems += 1
    elif (
        installed is not None
        and installed.has_bucket(move.bucket)
        and move.donor not in installed.replicas(move.bucket)
        and move.recipient in installed.replicas(move.bucket)
    ):
        # The journal says pre-swing, yet the installed map already
        # routes the bucket to the recipient: the swing committed but
        # the journal write was lost.
        print("move %s[%d]: TORN SWING (installed map routes to "
              "recipient %d but journal is still '%s') -- bucket owned "
              "by two epochs"
              % (move.table, move.bucket, move.recipient, move.state))
        problems += 1
    else:
        print("move %s[%d]: resumable (%s, %d rows copied, donor %d -> "
              "recipient %d)"
              % (move.table, move.bucket, move.state, move.copied_rows,
                 move.donor, move.recipient))
    return problems


def _command_recover(args: List[str]) -> int:
    args = list(args)
    compact = "--compact" in args
    if compact:
        args.remove("--compact")
    try:
        directory, log_path = _store_and_log(args, "recover")
    except ValueError as error:
        return _fail(str(error))
    data = b""
    if os.path.exists(log_path):
        with open(log_path, "rb") as fh:
            data = fh.read()
    before = scan_bytes(data, decode=False)
    store = DiskRelationStore(directory)
    log = WriteAheadLog(log_path)  # truncates any torn tail
    state = store.recover(log)
    for name in sorted(state):
        print("recovered %s: %d rows" % (name, state[name].cardinality()))
    if state:
        store.checkpoint(log, state)
        print("checkpoint written at lsn %d" % log.lsn)
    if compact:
        dropped = log.compact()
        print("compacted: dropped %d records" % dropped)
    print("recover: %d durable records, %d torn bytes truncated"
          % (before.lsn, before.torn_bytes))
    return 0


def _command_stats(args: List[str]) -> int:
    if len(args) != 2:
        return _fail("stats takes STOREDIR and RELATION")
    directory, name = args
    if not os.path.isdir(directory):
        return _fail("%r is not a directory" % directory)
    relation = DiskRelationStore(directory).load(name)
    print("relation %s: %d rows" % (name, len(relation)))
    for attr in relation.heading.names:
        index = member_index(relation, attr)
        top = sorted(
            index.items(),
            key=lambda item: (-len(item[1]), canonical_key(item[0])),
        )[:4]
        print("  %s: distinct=%d none=%d top: %s"
              % (attr, len(index), len(index.get(None, ())),
                 ", ".join("%r x%d" % (value, len(run))
                           for value, run in top)))
    return 0


def _command_obs_metrics(args: List[str]) -> int:
    if len(args) != 2:
        return _fail("obs-metrics takes CSVDIR and an XQL string")
    directory, text = args
    db = _load_db(directory)
    with observed() as reg:
        reg.reset()
        run_xql(db, text)
        sys.stdout.write(reg.expose())
    return 0


def _print_spans_json(roots) -> None:
    """One JSON object per span, deterministically ordered.

    Sort key is ``(start_s, span_id)`` -- start *tick* first (under a
    fake clock these are simulated seconds), span id as the tie-break
    -- so byte-identical executions print byte-identical output.
    """
    spans = [span.to_dict() for root in roots for span in root.tree()]
    spans.sort(key=lambda record: (record["start_s"], record["span_id"]))
    for record in spans:
        print(json.dumps(record, sort_keys=True))


def _trace_local_query(
    directory: str, text: str, out: Optional[str], fmt: str = "text"
) -> int:
    db = _load_db(directory)
    with observed():
        tracer().reset()
        result = run_xql(db, text)
        root = tracer().last_root()
        if fmt == "json":
            _print_spans_json([] if root is None else [root])
        else:
            print(tracer().render(root))
            print("-- %d result rows" % result.cardinality())
        if out is not None:
            count = tracer().export_jsonl(out)
            if fmt != "json":
                print("-- %d spans -> %s" % (count, out))
    return 0


def _trace_cluster_join(args: List[str], options) -> int:
    directory, left, right, attr = args
    nodes, factor, chaos, out, fmt = options
    try:
        cluster = Cluster(nodes, replication_factor=factor)
    except ValueError as error:
        return _fail(str(error))
    for name in (left, right):
        path = os.path.join(directory, name + ".csv")
        relation = read_csv(path)
        if attr not in relation.heading:
            return _fail("%r has no %r attribute" % (path, attr))
        cluster.create_table(name, relation, attr)
    if chaos is not None:
        # One join ticks the injector only a few times per bucket, so
        # squeeze the chaos horizon to the query's operation window --
        # the default (200) would schedule every fault after the query.
        cluster.install_faults(FaultPlan.chaos(
            chaos, [node.name for node in cluster.nodes],
            horizon=4 * len(cluster.nodes),
        ))
    with observed():
        try:
            result = cluster.execute(Join(Scan(left), Scan(right)))
        except ClusterUnavailableError as error:
            print(cluster.tracer.render(cluster.last_query_span))
            return _fail("join unavailable: %s" % error)
        if fmt == "json":
            root = cluster.last_query_span
            _print_spans_json([] if root is None else [root])
        else:
            print(cluster.tracer.render(cluster.last_query_span))
            network = cluster.network
            print("-- %d result rows; %d retries, %d failovers, "
                  "%d bytes shipped"
                  % (result.cardinality(), network.retries,
                     network.failovers, network.bytes_shipped))
        if out is not None:
            count = cluster.tracer.export_jsonl(out)
            if fmt != "json":
                print("-- %d spans -> %s" % (count, out))
    return 0


def _pop_format(args: List[str]) -> str:
    fmt = _pop_option(args, "--format")
    fmt = "text" if fmt is None else fmt
    if fmt not in ("json", "text"):
        raise ValueError("--format must be 'json' or 'text'")
    return fmt


def _command_obs_trace(args: List[str]) -> int:
    args = list(args)
    try:
        out = _pop_option(args, "--out")
        nodes = _pop_option(args, "--nodes")
        factor = _pop_option(args, "--factor")
        chaos = _pop_option(args, "--chaos")
        fmt = _pop_format(args)
    except ValueError as error:
        return _fail(str(error))
    try:
        nodes = 4 if nodes is None else int(nodes)
        factor = 1 if factor is None else int(factor)
        chaos = None if chaos is None else int(chaos)
    except ValueError:
        return _fail("--nodes, --factor and --chaos must be integers")
    if len(args) == 2:
        return _trace_local_query(args[0], args[1], out, fmt)
    if len(args) == 4:
        return _trace_cluster_join(args, (nodes, factor, chaos, out, fmt))
    return _fail("obs-trace takes CSVDIR XQL, or CSVDIR LEFT RIGHT ATTR")


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    if not os.path.isfile(path):
        raise XSTError("%r is not a file" % path)
    records = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                raise XSTError(
                    "%s line %d is not valid JSON" % (path, line_number)
                ) from None
    return records


def _command_obs_report(args: List[str]) -> int:
    args = list(args)
    try:
        top = _pop_option(args, "--top")
        fmt = _pop_format(args)
        top = 10 if top is None else int(top)
    except ValueError as error:
        return _fail(str(error))
    if len(args) != 1:
        return _fail("obs-report takes one slow-query log FILE")
    digests = [QueryDigest.from_dict(r) for r in _read_jsonl(args[0])]
    digests.sort(key=lambda d: (-d.wall_s, d.plan_hash))
    ranked = digests[:top]
    if fmt == "json":
        for digest in ranked:
            print(json.dumps(digest.to_dict(), sort_keys=True))
        return 0
    print("%d digest(s), top %d by latency:" % (len(digests), len(ranked)))
    for rank, digest in enumerate(ranked, 1):
        print(
            "%2d. [%s] %-40s %10.3f ms  %-8s rows=%d%s"
            % (
                rank,
                digest.plan_hash,
                digest.describe[:40],
                digest.wall_s * 1000,
                digest.backend,
                digest.rows,
                "" if digest.status == "ok" else "  " + digest.status,
            )
        )
    return 0


def _command_obs_incidents(args: List[str]) -> int:
    args = list(args)
    try:
        fmt = _pop_format(args)
    except ValueError as error:
        return _fail(str(error))
    if len(args) != 1:
        return _fail("obs-incidents takes one incident FILE")
    incidents = _read_jsonl(args[0])
    incidents.sort(key=lambda record: record.get("seq", 0))
    if fmt == "json":
        for incident in incidents:
            print(json.dumps(incident, sort_keys=True))
        return 0
    print("%d incident(s):" % len(incidents))
    for incident in incidents:
        error = incident.get("error", {})
        print(
            "#%d %s (%s)%s -- %d event(s) in window"
            % (
                incident.get("seq", 0),
                error.get("type", "?"),
                error.get("code", "?"),
                ""
                if incident.get("trace_id") is None
                else "  trace=%s" % incident["trace_id"],
                len(incident.get("window", ())),
            )
        )
        print("    %s" % error.get("message", ""))
        context = error.get("context", {})
        if context:
            print("    context: %s" % ", ".join(
                "%s=%r" % (key, context[key]) for key in sorted(context)
            ))
    return 0


def _command_serve(args: List[str]) -> int:
    """Serve a directory of CSVs over TCP until SIGINT/SIGTERM."""
    args = list(args)
    try:
        host = _pop_option(args, "--host") or "127.0.0.1"
        port = _pop_option(args, "--port")
        port_file = _pop_option(args, "--port-file")
        token = _pop_option(args, "--token")
        capacity = _pop_option(args, "--capacity")
        max_sessions = _pop_option(args, "--max-sessions")
        drain_timeout = _pop_option(args, "--drain-timeout")
        incident_log = _pop_option(args, "--incident-log")
    except ValueError as error:
        return _fail(str(error))
    try:
        port = 0 if port is None else int(port)
        capacity = 8 if capacity is None else int(capacity)
        max_sessions = 32 if max_sessions is None else int(max_sessions)
        drain_timeout = 1.0 if drain_timeout is None \
            else float(drain_timeout)
    except ValueError:
        return _fail("serve's numeric options take numbers")
    if len(args) != 1:
        return _fail("serve takes CSVDIR")
    db = _load_db(args[0])

    import asyncio
    import signal

    # The one import of asyncio: ``import repro.cli`` stays light.
    from repro.server import Server

    tables = {
        name: Table(db.relation(name).heading,
                    db.relation(name).iter_dicts())
        for name in db.names()
    }
    manager = TransactionManager(tables)

    async def serve() -> None:
        server = Server(
            manager, token=token, capacity=capacity,
            max_sessions=max_sessions, drain_timeout_s=drain_timeout,
            incident_log=incident_log,
        )
        await server.start(host, port)
        bound = server.port
        if port_file is not None:
            with open(port_file, "w") as handle:
                handle.write("%d\n" % bound)
        print("repro server listening on %s:%d (%d tables)"
              % (host, bound, len(tables)), flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("repro server draining", flush=True)
        result = await server.drain()
        print("repro server stopped (shed=%d, aborted=%d)"
              % (result["shed"], result["aborted"]), flush=True)

    asyncio.run(serve())
    return 0


def _command_views(args: List[str]) -> int:
    verify = "--verify" in args
    if verify:
        args = [arg for arg in args if arg != "--verify"]
    if not args:
        return _fail("views needs a CSV directory")
    directory, *statements = args
    source = _load_db(directory)
    tables = {
        name: Table(source.relation(name).heading,
                    source.relation(name).iter_dicts())
        for name in source.names()
    }
    manager = TransactionManager(tables)
    catalog = ViewCatalog(Database(), manager=manager)
    for statement in statements:
        result = run_xql(manager.committed(), statement)
        for row in result.iter_dicts():
            print("  ".join(
                "%s=%r" % item for item in sorted(row.items())
            ))
    header = ("view", "kind", "rows", "stale", "refresh_v",
              "hit_rate", "applies", "recomputes")
    print("\t".join(header))
    failures = 0
    for entry in catalog.status():
        line = (
            entry["name"], entry["kind"],
            "-" if entry["rows"] is None else str(entry["rows"]),
            "yes" if entry["stale"] else "no",
            str(entry["refresh_version"]),
            "%.2f" % entry["hit_rate"],
            str(entry["delta_applies"]), str(entry["recomputes"]),
        )
        if verify:
            ok = catalog.verify(entry["name"])
            line = line + ("verified" if ok else "MISMATCH",)
            if not ok:
                failures += 1
        print("\t".join(line))
    return 1 if failures else 0


_COMMANDS = {
    "eval": _command_eval,
    "views": _command_views,
    "image": _command_image,
    "query": _command_query,
    "closure": _command_closure,
    "cluster-status": _command_cluster_status,
    "fsck": _command_fsck,
    "recover": _command_recover,
    "stats": _command_stats,
    "obs-metrics": _command_obs_metrics,
    "obs-trace": _command_obs_trace,
    "obs-report": _command_obs_report,
    "obs-incidents": _command_obs_incidents,
    "serve": _command_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    command_name, *rest = arguments
    command = _COMMANDS.get(command_name)
    if command is None:
        return _fail("unknown command %r\n%s" % (command_name, _USAGE))
    try:
        return command(rest)
    except XSTError as error:
        # Governance/availability errors carry a stable exit code
        # (repro.errors) so shell callers can branch on *why* a query
        # died: 12 deadline, 13 budget, 14 overloaded, 15 circuit
        # open, 11 cluster unavailable, 16 network, 17 session,
        # 18 write conflict.  Everything else stays 2.
        _fail(str(error))
        return getattr(error, "exit_code", 2)
    except FileNotFoundError as error:
        return _fail(str(error))
