"""The command-line interface, end to end (in-process)."""

import pytest

from repro.cli import main
from repro.relational.csvio import write_csv
from repro.relational.relation import Relation
from repro.workloads.generators import department_relation, employee_relation


@pytest.fixture
def csv_dir(tmp_path):
    write_csv(employee_relation(25, 4, seed=3), str(tmp_path / "emp.csv"))
    write_csv(department_relation(4, seed=3), str(tmp_path / "dept.csv"))
    return str(tmp_path)


class TestEval:
    def test_canonicalizes(self, capsys):
        assert main(["eval", "{b^2, a^1}"]) == 0
        assert capsys.readouterr().out.strip() == "<a, b>"

    def test_atoms_print_plainly(self, capsys):
        assert main(["eval", "42"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_malformed_input_fails_cleanly(self, capsys):
        assert main(["eval", "{{{"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_wrong_arity(self, capsys):
        assert main(["eval"]) == 2


class TestImage:
    def test_example_8_1(self, capsys):
        code = main(
            ["image", "{<a, x>, <b, y>, <c, x>}", "{<a>, <c>}"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "{<x>}"

    def test_non_set_operand(self, capsys):
        assert main(["image", "42", "{<a>}"]) == 2


class TestQuery:
    def test_select_star(self, csv_dir, capsys):
        assert main(["query", csv_dir, "SELECT * FROM emp"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split(",")  # a CSV heading
        assert len(out.splitlines()) == 26  # heading + 25 rows

    def test_join_query(self, csv_dir, capsys):
        code = main(
            ["query", csv_dir,
             "SELECT name, dname FROM emp JOIN dept WHERE dept = 1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,dname"
        assert all("dept-1" in line for line in lines[1:])

    def test_aggregate_query(self, csv_dir, capsys):
        code = main(
            ["query", csv_dir,
             "SELECT dept, COUNT(emp) AS n FROM emp GROUP BY dept"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "dept,n"
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 25

    def test_missing_directory(self, capsys):
        assert main(["query", "/nonexistent", "SELECT * FROM emp"]) == 2

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["query", str(tmp_path), "SELECT * FROM emp"]) == 2

    def test_bad_xql_fails_cleanly(self, csv_dir, capsys):
        assert main(["query", csv_dir, "SELEC * FROM emp"]) == 2


class TestClosure:
    def test_edge_list_closure(self, tmp_path, capsys):
        edges = Relation.from_tuples(
            ["src", "dst"], [(1, 2), (2, 3)]
        )
        path = str(tmp_path / "edges.csv")
        write_csv(edges, path)
        assert main(["closure", path, "src", "dst"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "src,dst"
        assert set(lines[1:]) == {"1,2", "1,3", "2,3"}

    def test_unknown_columns(self, tmp_path, capsys):
        edges = Relation.from_tuples(["a", "b"], [(1, 2)])
        path = str(tmp_path / "edges.csv")
        write_csv(edges, path)
        assert main(["closure", path, "src", "dst"]) == 2

    def test_missing_file(self, capsys):
        assert main(["closure", "/nope.csv", "a", "b"]) == 2


class TestClusterStatus:
    def test_default_shape(self, csv_dir, capsys):
        assert main(["cluster-status", csv_dir, "dept"]) == 0
        out = capsys.readouterr().out
        assert "cluster: 4 nodes, replication factor 1" in out
        assert "table dept (rf=1):" in out
        assert "table emp (rf=1):" in out
        assert "bucket 0 -> node-0" in out
        assert "node-3: up" in out
        assert "network:" in out

    def test_replicated_shape_prices_the_overhead(self, csv_dir, capsys):
        assert main(["cluster-status", csv_dir, "dept", "3", "2"]) == 0
        out = capsys.readouterr().out
        assert "cluster: 3 nodes, replication factor 2" in out
        # Ring successors: bucket 0 on node-0 and node-1.
        assert "bucket 0 -> node-0, node-1" in out
        assert "(0 bytes replica placement overhead)" not in out

    def test_unreplicated_overhead_is_zero(self, csv_dir, capsys):
        assert main(["cluster-status", csv_dir, "dept", "4", "1"]) == 0
        assert "(0 bytes replica placement overhead)" in \
            capsys.readouterr().out

    def test_factor_larger_than_cluster_fails_cleanly(self, csv_dir, capsys):
        assert main(["cluster-status", csv_dir, "dept", "2", "3"]) == 2
        assert "replication factor" in capsys.readouterr().err

    def test_missing_attribute(self, csv_dir, capsys):
        assert main(["cluster-status", csv_dir, "nope"]) == 2
        assert "attribute" in capsys.readouterr().err

    def test_non_integer_arguments(self, csv_dir, capsys):
        assert main(["cluster-status", csv_dir, "dept", "four"]) == 2

    def test_missing_directory(self, capsys):
        assert main(["cluster-status", "/nonexistent", "dept"]) == 2

    def test_wrong_arity(self, capsys):
        assert main(["cluster-status"]) == 2


@pytest.fixture
def durable_dir(tmp_path):
    """A store + WAL with 5 committed txs, a checkpoint, and 1 more tx."""
    import os

    from repro.relational.constraints import KeyConstraint, Table
    from repro.relational.disk import DiskRelationStore
    from repro.relational.tx import TransactionManager
    from repro.relational.wal import WriteAheadLog

    directory = str(tmp_path / "store")
    store = DiskRelationStore(directory)
    log = WriteAheadLog(os.path.join(directory, "wal.log"))
    table = Table(["id", "val"], [], [KeyConstraint(["id"])])
    manager = TransactionManager({"items": table}, log=log)
    for i in range(5):
        with manager.transaction():
            table.insert({"id": i, "val": "v%d" % i})
    store.checkpoint(log, {"items": table.snapshot()})
    with manager.transaction():
        table.insert({"id": 99, "val": "tail"})
    log.close()
    return directory


def _log_path(directory):
    import os

    return os.path.join(directory, "wal.log")


class TestFsck:
    def test_clean_store_passes(self, durable_dir, capsys):
        assert main(["fsck", durable_dir]) == 0
        out = capsys.readouterr().out
        assert "relation items: ok" in out
        assert "7 records" in out  # 5 commits + marker + 1 commit
        assert "last checkpoint at lsn 6" in out
        assert "fsck: clean" in out

    def test_torn_tail_is_reported_but_recoverable(self, durable_dir, capsys):
        with open(_log_path(durable_dir), "ab") as fh:
            fh.write(b"\x00\x00\x01\x00partial")  # incomplete frame
        assert main(["fsck", durable_dir]) == 0
        out = capsys.readouterr().out
        assert "torn tail of 11 bytes" in out
        assert "fsck: clean" in out

    def test_corrupt_log_fails(self, durable_dir, capsys):
        path = _log_path(durable_dir)
        with open(path, "r+b") as fh:
            fh.seek(20)  # inside the first frame's payload
            byte = fh.read(1)
            fh.seek(20)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert main(["fsck", durable_dir]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED (corrupt frame at byte" in out
        assert "damaged item(s)" in out

    def test_corrupt_segment_fails(self, durable_dir, capsys):
        import os

        relation_dir = os.path.join(durable_dir, "items")
        (segment,) = [
            entry for entry in sorted(os.listdir(relation_dir))
            if entry.startswith("seg-")
        ][:1]
        path = os.path.join(relation_dir, segment)
        with open(path, "r+b") as fh:
            byte = fh.read(1)
            fh.seek(0)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert main(["fsck", durable_dir]) == 1
        assert "relation items: DAMAGED" in capsys.readouterr().out

    def test_missing_directory(self, capsys):
        assert main(["fsck", "/nonexistent"]) == 2

    def test_wrong_arity(self, capsys):
        assert main(["fsck"]) == 2


class TestFsckShards:
    """Placement residues exit with ShardPlacementError's code (20)."""

    def _seed_catalog(self, directory, epoch=1):
        from repro.relational.disk import DiskRelationStore
        from repro.relational.sharding import ShardCatalog, ShardMap

        store = DiskRelationStore(directory)
        store.store_shards(ShardCatalog({
            "items": ShardMap.successor_rings("id", 4, 2, epoch=epoch),
        }))
        return store

    def _journal(self, store, state, target_epoch=0):
        from repro.relational.sharding import ShardMove

        move = ShardMove("items", 1, donor=1, recipient=3)
        move.state = state
        move.target_epoch = target_epoch
        store.store_move(move.to_xset())
        return move

    def test_healthy_placement_is_clean(self, durable_dir, capsys):
        self._seed_catalog(durable_dir)
        assert main(["fsck", durable_dir]) == 0
        out = capsys.readouterr().out
        assert "shards items: ok (epoch 1, 4 buckets, rf=2)" in out
        assert "fsck: clean" in out

    def test_resumable_journal_is_clean(self, durable_dir, capsys):
        store = self._seed_catalog(durable_dir)
        self._journal(store, "copy")
        assert main(["fsck", durable_dir]) == 0
        out = capsys.readouterr().out
        assert "move items[1]: resumable (copy" in out
        assert "fsck: clean" in out

    def test_torn_swing_owned_by_two_epochs(self, durable_dir, capsys):
        # The journal swung to epoch 2 but the installed map never
        # followed: the bucket is owned by two epochs at once.
        store = self._seed_catalog(durable_dir, epoch=1)
        self._journal(store, "verify", target_epoch=2)
        assert main(["fsck", durable_dir]) == 20
        out = capsys.readouterr().out
        assert "TORN SWING" in out
        assert "bucket owned by two epochs" in out
        assert "fsck: 1 placement inconsistency" in out

    def test_lost_journal_write_is_a_torn_swing(self, durable_dir, capsys):
        # The installed map already routes bucket 1 to the recipient,
        # yet the journal still says pre-swing: the swing committed
        # but its journal write was lost.
        from repro.relational.disk import DiskRelationStore
        from repro.relational.sharding import ShardCatalog, ShardMap

        store = DiskRelationStore(durable_dir)
        swung = ShardMap.successor_rings("id", 4, 2).moved(
            1, donor=1, recipient=3)
        store.store_shards(ShardCatalog({"items": swung}))
        self._journal(store, "copy")
        assert main(["fsck", durable_dir]) == 20
        out = capsys.readouterr().out
        assert "TORN SWING" in out
        assert "journal is still 'copy'" in out

    def test_orphaned_post_move_source_data(self, durable_dir, capsys):
        # The swing committed (target epoch is installed) but gc never
        # dropped the donor's frozen copy.
        store = self._seed_catalog(durable_dir, epoch=2)
        self._journal(store, "gc", target_epoch=2)
        assert main(["fsck", durable_dir]) == 20
        out = capsys.readouterr().out
        assert "ORPHANED post-move source data on node 1" in out
        assert "fsck: 1 placement inconsistency" in out

    def test_undecodable_journal_is_damage(self, durable_dir, capsys):
        from repro.relational.sharding import ShardMove

        store = self._seed_catalog(durable_dir)
        move = ShardMove("items", 1, donor=1, recipient=3)
        move.state = "teleporting"
        store.store_move(move.to_xset())
        assert main(["fsck", durable_dir]) == 20
        assert "move journal: DAMAGED" in capsys.readouterr().out


class TestRecover:
    def test_replays_and_truncates_the_torn_tail(self, durable_dir, capsys):
        with open(_log_path(durable_dir), "ab") as fh:
            fh.write(b"\x00\x00\x01\x00partial")
        assert main(["recover", durable_dir]) == 0
        out = capsys.readouterr().out
        assert "recovered items: 6 rows" in out
        assert "7 durable records, 11 torn bytes truncated" in out
        assert "checkpoint written" in out
        # A second pass finds nothing wrong.
        assert main(["fsck", durable_dir]) == 0
        assert "fsck: clean" in capsys.readouterr().out

    def test_compact_drops_the_replayed_prefix(self, durable_dir, capsys):
        import os

        before = os.path.getsize(_log_path(durable_dir))
        assert main(["recover", durable_dir, "--compact"]) == 0
        assert "compacted: dropped" in capsys.readouterr().out
        assert os.path.getsize(_log_path(durable_dir)) < before
        assert main(["fsck", durable_dir]) == 0

    def test_corrupt_log_fails_cleanly(self, durable_dir, capsys):
        with open(_log_path(durable_dir), "r+b") as fh:
            fh.seek(20)
            byte = fh.read(1)
            fh.seek(20)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert main(["recover", durable_dir]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_missing_directory(self, capsys):
        assert main(["recover", "/nonexistent"]) == 2


class TestObsMetrics:
    def test_exposition_parses_and_includes_kernel_ops(self, csv_dir, capsys):
        from repro.obs.metrics import parse_exposition

        code = main(
            ["obs-metrics", csv_dir,
             "SELECT name, dname FROM emp JOIN dept WHERE dept = 1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        families = parse_exposition(out)
        assert "repro_xst_op_seconds" in families
        assert "repro_xst_op_total" in families
        assert "repro_plan_node_total" in families

    def test_wrong_arity(self, capsys):
        assert main(["obs-metrics"]) == 2

    def test_leaves_the_switch_off(self, csv_dir, capsys):
        from repro.obs import instrument

        before = instrument.enabled()
        main(["obs-metrics", csv_dir, "SELECT * FROM emp"])
        assert instrument.enabled() == before


class TestObsTrace:
    def test_local_query_renders_the_plan_spans(self, csv_dir, capsys):
        code = main(
            ["obs-trace", csv_dir, "SELECT name FROM emp WHERE dept = 1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Scan(emp)" in out
        assert "SelectEq(dept=1)" in out
        assert "rows=" in out

    def test_local_query_exports_jsonl(self, csv_dir, tmp_path, capsys):
        import json

        target = str(tmp_path / "trace.jsonl")
        code = main(
            ["obs-trace", csv_dir, "SELECT * FROM emp", "--out", target]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in open(target).read().splitlines()
        ]
        assert any(record["name"] == "Scan(emp)" for record in records)

    def test_cluster_join_shows_per_bucket_spans(self, csv_dir, capsys):
        code = main(
            ["obs-trace", csv_dir, "emp", "dept", "dept",
             "--nodes", "3", "--factor", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execute(emp [*] |x| dept [*])" in out
        assert "emp[0] @ node-" in out
        assert "strategy=co_partitioned" in out

    def test_chaos_join_traces_retries_or_failovers(self, csv_dir, capsys):
        # Seeded chaos within the query's horizon: some seed in this
        # small set must produce visible recovery in the trace.
        seen = ""
        for seed in ("1", "2", "3", "5", "7"):
            code = main(
                ["obs-trace", csv_dir, "emp", "dept", "dept",
                 "--nodes", "3", "--factor", "2", "--chaos", seed]
            )
            assert code == 0
            seen += capsys.readouterr().out
        assert "retries=" in seen or "failovers=" in seen

    def test_trace_out_flag_on_query(self, csv_dir, tmp_path, capsys):
        import json

        target = str(tmp_path / "q.jsonl")
        code = main(
            ["query", csv_dir, "SELECT * FROM dept", "--trace-out", target]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split(",")  # CSV still on stdout
        records = [
            json.loads(line)
            for line in open(target).read().splitlines()
        ]
        assert any(record["name"] == "Scan(dept)" for record in records)

    def test_trace_out_flag_on_closure(self, tmp_path, capsys):
        import json

        write_csv(
            Relation.from_dicts(
                ["src", "dst"],
                [{"src": "a", "dst": "b"}, {"src": "b", "dst": "c"}],
            ),
            str(tmp_path / "edges.csv"),
        )
        target = str(tmp_path / "c.jsonl")
        code = main(
            ["closure", str(tmp_path / "edges.csv"), "src", "dst",
             "--trace-out", target]
        )
        assert code == 0
        record = json.loads(open(target).read().splitlines()[0])
        assert record["name"] == "closure(src, dst)"
        assert record["attrs"]["pairs"] == 3

    def test_flag_without_value_fails_cleanly(self, csv_dir, capsys):
        assert main(
            ["obs-trace", csv_dir, "SELECT * FROM emp", "--out"]
        ) == 2

    def test_non_integer_options_fail_cleanly(self, csv_dir, capsys):
        assert main(
            ["obs-trace", csv_dir, "emp", "dept", "dept",
             "--nodes", "three"]
        ) == 2

    def test_wrong_arity(self, csv_dir, capsys):
        assert main(["obs-trace", csv_dir, "a", "b"]) == 2


class TestDispatch:
    def test_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out
        assert main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "eval", "<a, b>"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert completed.stdout.strip() == "<a, b>"


class TestGovernanceOptions:
    """--timeout/--budget and the stable governance exit codes."""

    def test_generous_limits_answer_normally(self, csv_dir, capsys):
        code = main(
            ["query", csv_dir, "SELECT * FROM emp",
             "--timeout", "60", "--budget", "1000000"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 26

    def test_budget_exhaustion_exits_13(self, csv_dir, capsys):
        code = main(
            ["query", csv_dir, "SELECT * FROM emp JOIN emp",
             "--budget", "10"]
        )
        assert code == 13
        assert "budget exceeded" in capsys.readouterr().err

    def test_budget_clause_in_the_query_text(self, csv_dir, capsys):
        code = main(
            ["query", csv_dir, "SELECT * FROM emp JOIN emp BUDGET 10"]
        )
        assert code == 13

    def test_malformed_governance_options(self, csv_dir, capsys):
        code = main(
            ["query", csv_dir, "SELECT * FROM emp", "--timeout", "soon"]
        )
        assert code == 2

    def test_plain_domain_errors_still_exit_2(self, csv_dir, capsys):
        assert main(["query", csv_dir, "SELECT * FROM nosuch"]) == 2


@pytest.fixture
def stats_store(tmp_path):
    """A disk store holding the employee/department workload."""
    from repro.relational.disk import DiskRelationStore

    directory = str(tmp_path / "store")
    store = DiskRelationStore(directory)
    store.store("emp", employee_relation(25, 4, seed=3))
    store.store("dept", department_relation(4, seed=3))
    return directory


class TestAnalyzeCommand:
    def test_there_is_no_analyze_command(self, stats_store, capsys):
        # The planner reads the relations themselves: nothing to collect.
        assert main(["analyze", stats_store]) == 2
        assert "unknown command 'analyze'" in capsys.readouterr().err


class TestStats:
    def test_reports_per_attribute_statistics(self, stats_store, capsys):
        assert main(["stats", stats_store, "emp"]) == 0
        out = capsys.readouterr().out
        assert "relation emp: 25 rows" in out
        assert "  dept: distinct=4 none=0 top: 1 x8, 3 x7, 0 x6, 2 x4" in out
        assert "  emp: distinct=25 none=0 top: 0 x1, 1 x1, 2 x1, 3 x1" in out

    def test_counts_are_exact_and_never_exceed_the_rows(self, tmp_path,
                                                        capsys):
        from repro.relational.disk import DiskRelationStore

        directory = str(tmp_path / "store")
        DiskRelationStore(directory).store(
            "emp", employee_relation(100, 5, seed=1)
        )
        assert main(["stats", directory, "emp"]) == 0
        out = capsys.readouterr().out
        assert "relation emp: 100 rows" in out
        assert "  name: distinct=100 none=0" in out
        assert "  dept: distinct=5 none=0 top: 3 x26, 4 x22, 0 x20, 1 x18" \
            in out

    def test_counts_none_values(self, tmp_path, capsys):
        from repro.relational.disk import DiskRelationStore

        directory = str(tmp_path / "store")
        DiskRelationStore(directory).store("t", Relation.from_dicts(
            ["k", "v"], [{"k": k, "v": None if k % 3 else k} for k in range(9)]
        ))
        assert main(["stats", directory, "t"]) == 0
        assert "  v: distinct=4 none=6 top: None x6, 0 x1, 3 x1, 6 x1" \
            in capsys.readouterr().out

    def test_a_leftover_stats_catalog_is_ignored(self, stats_store, capsys):
        import os

        with open(os.path.join(stats_store, "stats.cat"), "wb") as fh:
            fh.write(b"a catalog an older version wrote")
        assert main(["stats", stats_store, "dept"]) == 0
        assert "relation dept: 4 rows" in capsys.readouterr().out

    def test_unknown_relation_fails_cleanly(self, stats_store, capsys):
        assert main(["stats", stats_store, "ghost"]) == 2

    def test_wrong_arity(self, capsys):
        assert main(["stats"]) == 2

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nowhere"), "emp"]) == 2
        assert "is not a directory" in capsys.readouterr().err

    def test_writes_nothing_to_the_store(self, stats_store, capsys):
        import os

        before = sorted(os.listdir(stats_store))
        assert main(["stats", stats_store, "emp"]) == 0
        assert sorted(os.listdir(stats_store)) == before

    def test_ties_rank_in_canonical_order(self, tmp_path, capsys):
        from repro.relational.disk import DiskRelationStore

        directory = str(tmp_path / "store")
        DiskRelationStore(directory).store("t", Relation.from_dicts(
            ["k", "v"],
            [{"k": k, "v": v} for k, v in enumerate("ddccbbaae")],
        ))
        assert main(["stats", directory, "t"]) == 0
        assert "  v: distinct=5 none=0 top: 'a' x2, 'b' x2, 'c' x2, 'd' x2" \
            in capsys.readouterr().out

    def test_an_empty_relation_has_no_top(self, tmp_path, capsys):
        from repro.relational.disk import DiskRelationStore

        directory = str(tmp_path / "store")
        DiskRelationStore(directory).store(
            "t", Relation.from_dicts(["k"], [])
        )
        assert main(["stats", directory, "t"]) == 0
        out = capsys.readouterr().out
        assert "relation t: 0 rows" in out
        assert "  k: distinct=0 none=0 top: \n" in out

    def test_reads_a_checkpointed_store(self, durable_dir, capsys):
        assert main(["stats", durable_dir, "items"]) == 0
        out = capsys.readouterr().out
        # The checkpoint holds the first five commits; the sixth is
        # only in the log until recovery replays it.
        assert "relation items: 5 rows" in out
        assert "  id: distinct=5 none=0" in out


class TestFsckStats:
    def test_a_clean_store_reports_no_statistics(self, durable_dir, capsys):
        import os

        assert main(["fsck", durable_dir]) == 0
        out = capsys.readouterr().out
        assert "fsck: clean" in out
        assert "stats" not in out
        assert "stats.cat" not in os.listdir(durable_dir)

    def test_a_leftover_stats_catalog_is_ignored(self, durable_dir, capsys):
        import os

        with open(os.path.join(durable_dir, "stats.cat"), "wb") as fh:
            fh.write(b"a catalog an older version wrote")
        assert main(["fsck", durable_dir]) == 0
        out = capsys.readouterr().out
        assert "fsck: clean" in out
        assert not [line for line in out.splitlines()
                    if line.startswith("stats")]


class TestObsTraceFormat:
    def test_json_format_prints_ordered_span_lines(self, csv_dir, capsys):
        import json

        code = main(
            ["obs-trace", csv_dir, "SELECT name FROM emp WHERE dept = 1",
             "--format", "json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()]
        assert any(record["name"] == "Scan(emp)" for record in records)
        keys = [(r["start_s"], r["span_id"]) for r in records]
        assert keys == sorted(keys)
        assert not any(line.startswith("--") for line in out.splitlines())

    def test_json_format_cluster_join_includes_trace_ids(
        self, csv_dir, capsys
    ):
        import json

        code = main(
            ["obs-trace", csv_dir, "emp", "dept", "dept",
             "--nodes", "3", "--factor", "2", "--format", "json"]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert all(
            record["attrs"].get("trace_id") == "t-000001"
            for record in records
        )

    def test_text_is_the_default_format(self, csv_dir, capsys):
        code = main(["obs-trace", csv_dir, "SELECT * FROM emp"])
        assert code == 0
        assert "-- " in capsys.readouterr().out

    def test_unknown_format_fails_cleanly(self, csv_dir, capsys):
        code = main(
            ["obs-trace", csv_dir, "SELECT * FROM emp", "--format", "yaml"]
        )
        assert code == 2
        assert "repro:" in capsys.readouterr().err


@pytest.fixture
def slowlog_file(tmp_path):
    from repro.obs.slowlog import SlowQueryLog
    from tests.obs.test_digest import make_digest

    log = SlowQueryLog(threshold_s=0.0)
    log.record(make_digest(wall_s=0.30, hash_value="aaaaaaaa"))
    log.record(make_digest(wall_s=0.10, hash_value="bbbbbbbb"))
    target = tmp_path / "slow.jsonl"
    log.export_jsonl(str(target))
    return str(target)


class TestObsReport:
    def test_ranks_by_latency_by_default(self, slowlog_file, capsys):
        assert main(["obs-report", slowlog_file]) == 0
        out = capsys.readouterr().out
        assert "2 digest(s), top 2 by latency" in out
        assert out.index("aaaaaaaa") < out.index("bbbbbbbb")

    def test_top_limits_the_listing(self, slowlog_file, capsys):
        assert main(["obs-report", slowlog_file, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "top 1 by latency" in out
        assert "bbbbbbbb" not in out

    def test_json_format_round_trips(self, slowlog_file, capsys):
        import json

        assert main(["obs-report", slowlog_file, "--format", "json"]) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert [record["plan_hash"] for record in records] == [
            "aaaaaaaa", "bbbbbbbb"
        ]

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["obs-report", "/does/not/exist.jsonl"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_malformed_lines_fail_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ok": 1}\nnot json\n')
        assert main(["obs-report", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_an_older_log_with_q_errors_still_ranks(self, tmp_path,
                                                    capsys):
        import json

        older = tmp_path / "older.jsonl"
        older.write_text("".join(
            json.dumps({"plan_hash": hash_value, "describe": "Scan(emp)",
                        "wall_s": wall_s, "max_q_error": q_error,
                        "nodes": []}) + "\n"
            for hash_value, wall_s, q_error in (
                ("aaaaaaaa", 0.001, 9.0), ("bbbbbbbb", 0.002, 1.0),
            )
        ))
        assert main(["obs-report", str(older)]) == 0
        out = capsys.readouterr().out
        assert out.index("bbbbbbbb") < out.index("aaaaaaaa")

    def test_there_is_no_sort_key_option(self, slowlog_file, capsys):
        assert main(["obs-report", slowlog_file, "--by", "latency"]) == 2

    def test_wrong_arity(self, capsys):
        assert main(["obs-report"]) == 2


@pytest.fixture
def incidents_file(tmp_path):
    from repro.errors import DeadlineExceededError, OverloadedError
    from repro.obs.recorder import FlightRecorder

    recorder = FlightRecorder()
    recorder.install()
    try:
        DeadlineExceededError(2.0, 1.0, site="xst.cross")
        OverloadedError(3, 3, 0.5)
    finally:
        recorder.uninstall()
    target = tmp_path / "incidents.jsonl"
    recorder.export_jsonl(str(target))
    return str(target)


class TestObsIncidents:
    def test_text_listing_orders_by_sequence(self, incidents_file, capsys):
        assert main(["obs-incidents", incidents_file]) == 0
        out = capsys.readouterr().out
        assert "2 incident(s):" in out
        assert out.index("#1 DeadlineExceededError (DEADLINE_EXCEEDED)") \
            < out.index("#2 OverloadedError (OVERLOADED)")
        assert "site='xst.cross'" in out

    def test_json_format_round_trips(self, incidents_file, capsys):
        import json

        assert main(
            ["obs-incidents", incidents_file, "--format", "json"]
        ) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert [record["seq"] for record in records] == [1, 2]

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["obs-incidents", "/does/not/exist.jsonl"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_wrong_arity(self, capsys):
        assert main(["obs-incidents"]) == 2


class TestServe:
    """The serve command: boot, serve real clients, drain on signal."""

    def test_bad_numeric_option(self, csv_dir, capsys):
        assert main(["serve", csv_dir, "--capacity", "lots"]) == 2
        assert "numbers" in capsys.readouterr().err

    def test_wrong_arity(self, capsys):
        assert main(["serve"]) == 2

    def test_missing_directory(self, capsys):
        assert main(["serve", "/does/not/exist"]) == 2

    def test_serves_and_drains_on_sigterm(self, csv_dir, tmp_path):
        import asyncio
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.relational.csvio import dumps_csv
        from repro.server import connect

        port_file = str(tmp_path / "port")
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", csv_dir,
             "--port-file", port_file],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 15
            while not os.path.exists(port_file):
                assert time.monotonic() < deadline, proc.stderr.read()
                time.sleep(0.05)
            with open(port_file) as handle:
                port = int(handle.read())

            async def talk():
                client = await connect("127.0.0.1", port)
                served = await client.query("select * from emp")
                await client.close()
                return served

            served = asyncio.run(asyncio.wait_for(talk(), 15))
            assert len(served) == 25
        finally:
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=15)
        assert proc.returncode == 0, err
        assert "listening" in out
        assert "draining" in out
        assert "stopped" in out
