"""The exception hierarchy: one root, informative subclasses."""

import pytest

from repro.errors import (
    _ERROR_CONTEXT_ATTRS,
    AmbiguousValueError,
    BudgetExceededError,
    CircuitOpenError,
    ClusterUnavailableError,
    CompositionError,
    DeadlineExceededError,
    InvalidAtomError,
    NetworkError,
    NotAFunctionError,
    NotAProcessError,
    NotationError,
    NotATupleError,
    OverloadedError,
    SchemaError,
    SessionError,
    ShardMovedError,
    UnavailableError,
    WriteConflictError,
    XSTError,
)
from repro.relational.algebra import Comparison


ALL_ERRORS = [
    InvalidAtomError,
    NotATupleError,
    NotAProcessError,
    NotAFunctionError,
    AmbiguousValueError,
    CompositionError,
    SchemaError,
    NotationError,
    ClusterUnavailableError,
    DeadlineExceededError,
    BudgetExceededError,
    OverloadedError,
    CircuitOpenError,
    NetworkError,
    SessionError,
    WriteConflictError,
]


class TestHierarchy:
    @pytest.mark.parametrize("error_type", ALL_ERRORS)
    def test_rooted_at_xst_error(self, error_type):
        assert issubclass(error_type, XSTError)

    def test_value_flavored_errors_are_value_errors(self):
        for error_type in (
            NotATupleError,
            NotAProcessError,
            NotAFunctionError,
            AmbiguousValueError,
            CompositionError,
            SchemaError,
            NotationError,
        ):
            assert issubclass(error_type, ValueError)

    def test_atom_errors_are_type_errors(self):
        assert issubclass(InvalidAtomError, TypeError)

    def test_cluster_errors_are_runtime_errors(self):
        assert issubclass(ClusterUnavailableError, RuntimeError)

    def test_governance_errors_share_the_unavailable_base(self):
        # One except clause (UnavailableError) catches every "the
        # system declined or failed to serve this" outcome, while the
        # subtype says why.
        for error_type in (
            ClusterUnavailableError,
            DeadlineExceededError,
            BudgetExceededError,
            OverloadedError,
            CircuitOpenError,
            NetworkError,
            SessionError,
            WriteConflictError,
        ):
            assert issubclass(error_type, UnavailableError)
            assert issubclass(error_type, RuntimeError)

    def test_stable_codes_and_exit_codes(self):
        expected = {
            UnavailableError: ("UNAVAILABLE", 10),
            ClusterUnavailableError: ("CLUSTER_UNAVAILABLE", 11),
            DeadlineExceededError: ("DEADLINE_EXCEEDED", 12),
            BudgetExceededError: ("BUDGET_EXCEEDED", 13),
            OverloadedError: ("OVERLOADED", 14),
            CircuitOpenError: ("CIRCUIT_OPEN", 15),
            NetworkError: ("NETWORK", 16),
            SessionError: ("SESSION", 17),
            WriteConflictError: ("WRITE_CONFLICT", 18),
        }
        for error_type, (code, exit_code) in expected.items():
            assert error_type.code == code
            assert error_type.exit_code == exit_code

    def test_governance_errors_carry_structured_context(self):
        deadline = DeadlineExceededError(1.5, 1.0, site="xst.cross")
        assert deadline.elapsed_s == 1.5
        assert deadline.timeout_s == 1.0
        assert deadline.site == "xst.cross"
        budget = BudgetExceededError("rows", 2000, 1000, site="plan.join")
        assert budget.resource == "rows"
        assert budget.spent == 2000 and budget.limit == 1000
        overloaded = OverloadedError(9, 8, retry_after_s=0.02)
        assert overloaded.in_flight == 9 and overloaded.capacity == 8
        assert overloaded.retry_after_s == 0.02
        breaker = CircuitOpenError("emp", 3, "node-2", retry_after_ops=5)
        assert breaker.table == "emp" and breaker.bucket == 3
        assert breaker.node == "node-2" and breaker.retry_after_ops == 5

    def test_network_errors_carry_structured_context(self):
        torn = NetworkError("torn frame", frame=4, retry_after_s=0.1)
        assert torn.reason == "torn frame"
        assert torn.frame == 4 and torn.retry_after_s == 0.1
        assert "at frame 4" in str(torn)
        session = SessionError("auth rejected", session_id="s3")
        assert session.session_id == "s3"
        assert "(session s3)" in str(session)
        conflict = WriteConflictError(["emp", "dept"], 3, 5)
        assert conflict.tables == ("emp", "dept")
        assert conflict.read_version == 3
        assert conflict.committed_version == 5
        # Retrying against a fresh snapshot usually succeeds: the
        # class-level hint says "retry immediately".
        assert conflict.retry_after_s == 0.0
        assert "version 3" in str(conflict)
        assert "version 5" in str(conflict)

    def test_one_except_clause_guards_the_library(self):
        from repro.xst.builders import xset
        from repro.notation import parse

        failures = 0
        for trigger in (
            lambda: xset([{}]),          # unhashable atom
            lambda: parse("{{{"),        # malformed notation
        ):
            try:
                trigger()
            except XSTError:
                failures += 1
        assert failures == 2


class TestServingErrors:
    """The serving failure classes: recorded, exit-coded, legible."""

    def test_flight_recorder_snapshots_serving_errors(self):
        from repro.obs.recorder import recorder

        recorder().install()
        try:
            NetworkError("torn frame", frame=7)
            SessionError("auth rejected", session_id="s2")
            WriteConflictError(["emp"], 1, 4)
        finally:
            recorder().uninstall()
        incidents = recorder().incidents()
        recorder().reset()
        codes = [inc["error"]["code"] for inc in incidents]
        assert codes[-3:] == ["NETWORK", "SESSION", "WRITE_CONFLICT"]
        by_code = {inc["error"]["code"]: inc["error"] for inc in incidents}
        assert by_code["NETWORK"]["context"]["frame"] == 7
        assert by_code["SESSION"]["context"]["session_id"] == "s2"
        conflict = by_code["WRITE_CONFLICT"]["context"]
        assert conflict["tables"] == ["emp"]
        assert conflict["read_version"] == 1
        assert conflict["committed_version"] == 4

    @pytest.mark.parametrize(
        "error, exit_code",
        [
            (NetworkError("connection reset"), 16),
            (SessionError("drained"), 17),
            (WriteConflictError(["emp"], 0, 1), 18),
        ],
        ids=["network", "session", "write-conflict"],
    )
    def test_cli_surfaces_serving_exit_codes(
        self, error, exit_code, monkeypatch, capsys
    ):
        import repro.cli as cli

        def explode(args):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "explode", explode)
        assert cli.main(["explode"]) == exit_code
        assert "repro:" in capsys.readouterr().err


#: One instance per availability class, every constructor argument given.
SAMPLE_UNAVAILABLE = {
    DeadlineExceededError: lambda: DeadlineExceededError(
        1.5, 1.0, site="xst.cross"),
    BudgetExceededError: lambda: BudgetExceededError(
        "rows", 11, 10, site="xst.cross"),
    OverloadedError: lambda: OverloadedError(4, 4, 0.25, reason="draining"),
    CircuitOpenError: lambda: CircuitOpenError(
        "emp", 3, "node-1", retry_after_ops=5),
    NetworkError: lambda: NetworkError(
        "torn frame", frame=7, retry_after_s=0.5),
    SessionError: lambda: SessionError(
        "drained", session_id="s2", retry_after_s=0.5),
    WriteConflictError: lambda: WriteConflictError(["emp"], 1, 4),
    ClusterUnavailableError: lambda: ClusterUnavailableError(
        "emp", 3, replicas=("node-1",), reason="dead", key=5),
    ShardMovedError: lambda: ShardMovedError("emp", 1, 2, bucket=3),
}


def _availability_classes():
    found, queue = [], [UnavailableError]
    while queue:
        for cls in queue.pop().__subclasses__():
            if cls.__module__ == "repro.errors" and cls not in found:
                found.append(cls)
                queue.append(cls)
    return found


class TestErrorContextIsListedOnce:
    """The wire and the flight recorder read one attribute list, and a
    new availability class cannot add context that the list misses."""

    #: Set by constructors, documented as not context in repro.errors.
    NOT_CONTEXT = {"retry_after_s", "key"}

    def test_every_availability_class_has_a_sample(self):
        assert set(_availability_classes()) == set(SAMPLE_UNAVAILABLE)

    @pytest.mark.parametrize(
        "error_type", SAMPLE_UNAVAILABLE, ids=lambda cls: cls.__name__
    )
    def test_what_a_constructor_sets_is_listed(self, error_type):
        error = SAMPLE_UNAVAILABLE[error_type]()
        listed = set(_ERROR_CONTEXT_ATTRS)
        assert set(vars(error)) - self.NOT_CONTEXT <= listed

    def test_a_shard_moved_incident_keeps_its_epochs(self):
        from repro.obs.recorder import recorder
        from repro.server.protocol import error_body

        recorder().install()
        try:
            error = ShardMovedError("emp", 1, 2, bucket=3)
        finally:
            recorder().uninstall()
        incident = recorder().incidents()[-1]["error"]["context"]
        recorder().reset()
        wire = error_body(error)["context"]
        assert incident == dict(wire, retry_after_s=0.0) == {
            "table": "emp", "bucket": 3, "requested_epoch": 1,
            "current_epoch": 2, "retry_after_s": 0.0,
        }


class TestMessages:
    """Errors must say what went wrong in domain language."""

    def test_invalid_atom_names_the_value(self):
        from repro.xst.xset import XSet

        with pytest.raises(InvalidAtomError, match="hashable"):
            XSet([([1, 2], None)])

    def test_tuple_error_cites_the_definition(self):
        from repro.xst.tuples import tup
        from repro.xst.xset import XSet

        with pytest.raises(NotATupleError, match="9.1"):
            tup(XSet([("a", "weird-scope")]))

    def test_process_error_cites_the_definition(self):
        from repro.core.process import Process
        from repro.core.sigma import Sigma
        from repro.xst.xset import XSet

        with pytest.raises(NotAProcessError, match="2.1"):
            Process(XSet(), Sigma.columns([1], [2])).require_wellformed()

    def test_schema_error_lists_alternatives(self):
        from repro.relational.schema import Heading

        with pytest.raises(SchemaError, match="heading has"):
            Heading(["a", "b"]).require(["zzz"])

    def test_notation_error_reports_position(self):
        from repro.notation import parse

        with pytest.raises(NotationError, match="position"):
            parse("{a ; b}")

    def test_ambiguous_value_counts_candidates(self):
        from repro.xst.builders import xset, xtuple
        from repro.xst.values import value

        with pytest.raises(AmbiguousValueError, match="2 distinct"):
            value(xset([xtuple(["a"]), xtuple(["b"])]))


class TestPaperNotation:
    """Every exception shows the offending set in paper notation.

    A bare type name or a Python-internal repr would force the reader
    back into the implementation; the messages must instead speak the
    notation of the paper (scoped sets ``{m^s}``, n-tuples ``<a, b>``)
    so an error is legible next to the definitions it cites.
    """

    def test_invalid_atom_shows_the_offending_value(self):
        from repro.xst.xset import XSet

        with pytest.raises(InvalidAtomError, match=r"\[1, 2\]"):
            XSet([([1, 2], None)])

    def test_tuple_error_renders_the_scoped_set(self):
        from repro.xst.tuples import tup
        from repro.xst.xset import XSet

        with pytest.raises(NotATupleError, match=r"\{a\^'weird-scope'\}"):
            tup(XSet([("a", "weird-scope")]))

    def test_process_error_renders_graph_and_sigmas(self):
        from repro.core.process import Process
        from repro.core.sigma import Sigma
        from repro.xst.xset import XSet

        with pytest.raises(
            NotAProcessError, match=r"Process\(\{\}, Sigma\(<1>, <2>\)\)"
        ):
            Process(XSet(), Sigma.columns([1], [2])).require_wellformed()

    def test_function_error_renders_the_non_pair_member(self):
        from repro.core.process import Process
        from repro.core.sigma import Sigma
        from repro.cst.functions import CSTFunction
        from repro.xst.builders import xset, xtuple

        process = Process(
            xset([xtuple(["a", "b", "c"])]), Sigma.columns([1], [2])
        )
        with pytest.raises(NotAFunctionError, match="<a, b, c>"):
            CSTFunction.from_xst(process)

    def test_ambiguous_value_lists_the_candidates(self):
        from repro.xst.builders import xset, xtuple
        from repro.xst.values import value

        with pytest.raises(AmbiguousValueError, match=r"\['a', 'b'\]"):
            value(xset([xtuple(["a"]), xtuple(["b"])]))

    def test_composition_error_renders_both_arrows(self):
        from repro.core.arrows import arrow_from_pairs

        first = arrow_from_pairs([("x", "y")], ["x"], ["y"])
        second = arrow_from_pairs([("q", "z")], ["q"], ["z"])
        with pytest.raises(
            CompositionError, match=r"Arrow\(1 pairs.*then Arrow\(1 pairs"
        ):
            first.then(second)

    def test_schema_error_renders_the_row_as_a_tuple(self):
        from repro.relational.relation import Relation
        from repro.relational.schema import Heading
        from repro.xst.builders import xset, xtuple

        with pytest.raises(SchemaError, match="<q> is not record-shaped"):
            Relation(Heading(["a"]), xset([xtuple(["q"])]))

    def test_notation_error_reports_the_character_and_position(self):
        from repro.notation import parse

        with pytest.raises(NotationError, match="';' at position 3"):
            parse("{a ; b}")

    def test_cluster_error_renders_the_routing_key_as_a_record(self):
        error = ClusterUnavailableError(
            "emp", 1, ("node-1", "node-2"), key=None
        )
        assert "partition 1 of 'emp'" in str(error)
        assert "tried node-1, node-2" in str(error)

    def test_cluster_error_key_uses_scoped_membership(self):
        from repro.xst.builders import xrecord

        error = ClusterUnavailableError(
            "emp", 1, ("node-1",), key=xrecord({"dept": 5})
        )
        assert "{5^dept}" in str(error)

    def test_live_cluster_failure_carries_the_paper_notation_key(self):
        from repro.relational.distributed import Cluster
        from repro.relational.query import Restrict, Scan
        from repro.workloads.generators import employee_relation

        cluster = Cluster(4, replication_factor=1)
        cluster.create_table(
            "emp", employee_relation(40, 8, seed=13), "dept"
        )
        cluster.kill_node("node-1")
        with pytest.raises(ClusterUnavailableError, match=r"\{5\^dept\}"):
            cluster.execute(Restrict(Scan("emp"),
                                     (Comparison("dept", "=", 5),)))
