"""A MUTATE batch is one delta per table: the oracle.

:meth:`TransactionManager._commit_ops` folds each run of consecutive
inserts, or of deletes, on one table into one statement
(``Table.insert(row, *more)`` / ``Table.delete(where, *more)``).  The
reference is what the batch means: one ``Table`` call per op inside
one deferred transaction.  Run both on twin logged managers: they must
commit equal relations, spelled alike, write byte-identical logs, and
refuse with the same first error -- committing nothing.

The values come from the one pool (``tests/values.py``), so the typed
twins ``1``/``1.0``/``True`` meet: a row deleted and inserted again in
another spelling, a where spelled unlike the row it matches.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAtomError, SchemaError
from repro.relational.constraints import IntegrityError, KeyConstraint, Table
from repro.relational.tx import TransactionManager
from repro.relational.wal import WriteAheadLog
from tests.values import ATOMS, REFUSED, TWINS, Plain, atoms, spelled, values

#: A keyed table and a keyless one: ``k`` determines the row of ``kv``.
HEADINGS = {"kv": ("k", "v"), "ab": ("a", "b")}

#: The twins of ``1``: one member of a set, three spellings.
ONE, ONE_FLOAT, ONE_BOOL = TWINS[0]


def build(initial):
    """The tables, each a fresh object over the same drawn rows."""
    return {
        "kv": Table(HEADINGS["kv"],
                    [{"k": k, "v": v} for k, v in initial["kv"]],
                    [KeyConstraint(["k"])]),
        "ab": Table(HEADINGS["ab"],
                    [{"a": a, "b": b} for a, b in initial["ab"]]),
    }


def one_by_one(manager, ops):
    """The reference: one ``Table`` call per op, one transaction."""
    with manager.transaction(deferred=True):
        for op in ops:
            table = manager.table(op[1])
            if op[0] == "insert":
                table.insert(op[2])
            elif op[0] == "delete":
                table.delete(op[2])
            else:
                table.update(op[2], op[3])


def batched(manager, ops):
    manager._commit_ops(ops, {op[1] for op in ops}, manager.current_version)


def outcome(run, initial, ops):
    """``run`` on a fresh logged manager: what it commits, logs and
    raises."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "wal.log")
        log = WriteAheadLog(path, sync=False)
        manager = TransactionManager(build(initial), log=log)
        before = manager.committed()
        try:
            run(manager, ops)
        except Exception as error:
            refusal = (type(error), str(error))
            # Refused: nothing committed, nothing logged.
            assert manager.committed() is before
            assert manager.current_version == 0 and log.lsn == 0
        else:
            refusal = None
        log.close()
        logged = b""  # a log never appended to may not exist
        if os.path.exists(path):
            with open(path, "rb") as fh:
                logged = fh.read()
    committed = manager.committed()
    state = {name: committed.relation(name) for name in HEADINGS}
    spelling = {name: spelled(relation.rows)
                for name, relation in state.items()}
    return refusal, state, spelling, logged, manager.current_version


def assert_same(initial, ops):
    expected = outcome(one_by_one, initial, ops)
    got = outcome(batched, initial, ops)
    refusal, state, spelling, logged, version = got
    assert refusal == expected[0]
    assert state == expected[1]
    assert spelling == expected[2]
    assert logged == expected[3]
    assert version == expected[4]
    return got


# ----------------------------------------------------------------------
# Drawn batches
# ----------------------------------------------------------------------

#: Key values: the pool's atoms, so twins and repeats are frequent.
keys = atoms
#: A value no door admits, or an attribute no heading has.
refused = st.sampled_from(REFUSED)


def rows(table):
    first, second = HEADINGS[table]
    return st.fixed_dictionaries({first: keys, second: values})


def malformed_rows(table):
    first, second = HEADINGS[table]
    return st.one_of(
        st.fixed_dictionaries({first: keys}),                  # missing
        st.fixed_dictionaries({first: keys, second: values,
                               "ghost": atoms}),                # extra
        st.fixed_dictionaries({first: refused, second: values}),
    )


def wheres(table):
    first, second = HEADINGS[table]
    return st.one_of(
        st.fixed_dictionaries({first: keys}),
        st.fixed_dictionaries({second: values}),
        st.fixed_dictionaries({first: keys, second: values}),
        st.just({}),
    )


def malformed_wheres(table):
    first, _ = HEADINGS[table]
    return st.one_of(st.fixed_dictionaries({"ghost": atoms}),
                     st.fixed_dictionaries({first: refused}))


@st.composite
def ops(draw):
    table = draw(st.sampled_from(sorted(HEADINGS)))
    kind = draw(st.sampled_from(
        ("insert",) * 4 + ("delete",) * 3 + ("update", "malformed")))
    if kind == "insert":
        return ("insert", table, draw(rows(table)))
    if kind == "delete":
        return ("delete", table, draw(wheres(table)))
    if kind == "update":
        _, second = HEADINGS[table]
        return ("update", table, draw(wheres(table)),
                {second: draw(values)})
    if draw(st.booleans()):
        return ("insert", table, draw(malformed_rows(table)))
    return ("delete", table, draw(malformed_wheres(table)))


@st.composite
def initial_states(draw):
    # A dict of keys collapses twins, as the key constraint would.
    keyed = draw(st.dictionaries(keys, values, max_size=4))
    keyless = draw(st.lists(st.tuples(keys, values), max_size=4))
    return {"kv": sorted(keyed.items(), key=repr), "ab": keyless}


@st.composite
def runs(draw):
    """Batches leaning on runs: ops repeated, then rewritten to reinsert
    or delete rows already drawn, in another spelling of a twin."""
    batch = draw(st.lists(ops(), min_size=1, max_size=8))
    echoes = draw(st.lists(st.integers(0, len(batch) - 1), max_size=4))
    for index in echoes:
        kind, table, *rest = batch[index]
        if kind == "insert" and rest[0].keys() == set(HEADINGS[table]):
            first, _ = HEADINGS[table]
            twin = draw(_twin_of(rest[0][first]))
            batch.append(draw(st.sampled_from((
                ("insert", table, rest[0]),                    # repeated
                ("insert", table, {**rest[0], first: twin}),   # respelled
                ("delete", table, {first: twin}),
            ))))
        else:
            batch.append(batch[index])
    if draw(st.booleans()):
        # Long runs: each table's ops together, in their drawn order.
        batch.sort(key=lambda op: op[1])
    return batch


def _twin_of(value):
    for group in TWINS:
        if value in group:
            return st.sampled_from(group)
    return st.just(value)


class TestABatchIsItsOpsOneByOne:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(initial_states(), runs())
    def test_drawn_batches(self, initial, batch):
        assert_same(initial, batch)


# ----------------------------------------------------------------------
# The cases the draw must reach, pinned
# ----------------------------------------------------------------------

EMPTY_STATE = {"kv": [], "ab": []}
SEEDED = {"kv": [(ONE, "x"), (2, "y"), (3, "z")],
          "ab": [(ONE, "x"), (ONE, "y"), (2, "y")]}


def ins(table, first, second):
    return ("insert", table, dict(zip(HEADINGS[table], (first, second))))


def dele(table, **where):
    return ("delete", table, where)


class TestPinnedBatches:
    def test_a_run_of_inserts_commits_one_record(self):
        batch = [ins("kv", k, "v%d" % k) for k in range(4, 9)]
        refusal, state, _, _, version = assert_same(SEEDED, batch)
        assert refusal is None and version == 1
        assert len(state["kv"]) == 8

    def test_a_run_of_deletes_restricts_by_every_where(self):
        # Absent keys, mixed attribute sets and twins of the keys held.
        batch = [dele("kv", k=ONE_FLOAT), dele("kv", k=99),
                 dele("ab", b="y"), dele("ab", a=ONE_BOOL, b="x"),
                 dele("kv", k=3, v="nope"), dele("kv", v="y")]
        refusal, state, _, _, _ = assert_same(SEEDED, batch)
        assert refusal is None
        assert state["kv"].to_rows() == [(3, "z")]
        assert len(state["ab"]) == 0

    def test_the_empty_where_deletes_every_row(self):
        refusal, state, _, _, _ = assert_same(
            SEEDED, [dele("ab", b="nothing"), dele("ab")])
        assert refusal is None and len(state["ab"]) == 0

    @pytest.mark.parametrize("twin", [ONE, ONE_FLOAT, ONE_BOOL])
    def test_delete_then_reinsert_in_another_spelling(self, twin):
        batch = [dele("kv", k=twin), ins("kv", twin, "x"),
                 dele("ab", a=ONE), dele("ab", a=2), ins("ab", twin, "x"),
                 ins("ab", twin, "y"), ins("ab", 2, "y")]
        refusal, _, spelling, logged, version = assert_same(SEEDED, batch)
        assert refusal is None
        # Every row came back: no net change, no commit, the spelling
        # the rows had before.
        assert version == 0 and logged == b""
        assert spelling == outcome(one_by_one, SEEDED, [])[2]

    @pytest.mark.parametrize("twin", [ONE, ONE_FLOAT, ONE_BOOL])
    def test_insert_then_delete_nets_to_nothing(self, twin):
        batch = [ins("kv", twin, "w"), ins("kv", 5, "w"),
                 dele("kv", k=ONE), dele("kv", k=5)]
        refusal, _, _, _, version = assert_same(EMPTY_STATE, batch)
        assert refusal is None and version == 0

    def test_a_row_repeated_in_a_run_is_refused(self):
        refusal, *_ = assert_same(EMPTY_STATE, [
            ins("ab", 1, "x"), ins("ab", 2, "x"), ins("ab", ONE_FLOAT, "x"),
        ])
        assert refusal == (IntegrityError,
                           "row already present: {'a': 1.0, 'b': 'x'}")

    def test_a_row_already_present_is_refused(self):
        refusal, *_ = assert_same(SEEDED, [ins("ab", 7, "q"),
                                           ins("ab", ONE_BOOL, "y")])
        assert refusal[1] == "row already present: {'a': True, 'b': 'y'}"

    @pytest.mark.parametrize("malformed", [
        {"a": 4}, {"a": 4, "b": 1, "c": 2}, {"a": float("nan"), "b": 1},
        {"a": Plain(), "b": 1},
    ], ids=["missing", "extra", "nan", "no-atom"])
    def test_a_repeat_before_a_malformed_row_is_refused_first(
        self, malformed
    ):
        refusal, *_ = assert_same(EMPTY_STATE, [
            ins("ab", 1, "x"), ins("ab", True, "x"),
            ("insert", "ab", malformed),
        ])
        assert refusal[1] == "row already present: {'a': True, 'b': 'x'}"

    def test_a_malformed_row_before_a_repeat_is_refused_first(self):
        refusal, *_ = assert_same(EMPTY_STATE, [
            ins("ab", 1, "x"), ("insert", "ab", {"a": 1}),
            ins("ab", 1, "x"),
        ])
        assert refusal[1].startswith("row keys ['a'] do not match")

    @pytest.mark.parametrize("where", [
        {"ghost": 1}, {"k": float("nan")}, {"k": (1, 2)},
    ])
    def test_a_malformed_where_refuses_the_batch(self, where):
        refusal, *_ = assert_same(SEEDED, [
            dele("kv", k=2), ("delete", "kv", where), dele("kv", k=ONE),
        ])
        assert refusal[0] in (SchemaError, InvalidAtomError)

    def test_runs_split_by_another_table_and_by_updates(self):
        batch = [ins("kv", 4, "a"), ins("ab", 4, "a"), ins("kv", 5, "b"),
                 ("update", "kv", {"k": 5}, {"v": "c"}), ins("kv", 6, "d"),
                 dele("ab", a=4), dele("kv", k=4), dele("kv", k=6)]
        refusal, state, _, _, version = assert_same(SEEDED, batch)
        assert refusal is None and version == 1
        assert (5, "c") in state["kv"].to_rows()

    def test_a_key_violation_is_refused_whole(self):
        refusal, *_ = assert_same(SEEDED, [
            ins("kv", 4, "a"), ins("kv", 5, "b"), ins("kv", ONE_FLOAT, "c"),
        ])
        assert refusal[1] == "key(k) violated: 4 rows share 3 distinct keys"

    def test_every_pool_atom_round_trips_a_run(self):
        batch = [ins("ab", atom, atom) for atom in ATOMS]
        distinct = {}
        for op in batch:
            distinct.setdefault(op[2]["a"], op)
        assert_same(EMPTY_STATE, list(distinct.values()))
