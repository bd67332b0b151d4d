"""Relations: construction, validation, views, process reading."""

import copy
import pickle
from types import MappingProxyType

import pytest

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.builders import xrecord, xset, xtuple
from repro.xst.xset import XSet


EMPLOYEES = [
    {"emp": 1, "name": "ada", "dept": 10},
    {"emp": 2, "name": "alan", "dept": 20},
    {"emp": 3, "name": "grace", "dept": 10},
]


class TestConstruction:
    def test_from_dicts(self):
        rel = Relation.from_dicts(["emp", "name", "dept"], EMPLOYEES)
        assert rel.cardinality() == 3
        assert rel.heading == Heading(["emp", "name", "dept"])

    def test_from_tuples(self):
        rel = Relation.from_tuples(["k", "v"], [(1, "x"), (2, "y")])
        assert rel.cardinality() == 2
        assert {"k": 1, "v": "x"} in list(rel.iter_dicts())

    def test_duplicate_rows_collapse(self):
        rel = Relation.from_tuples(["k"], [(1,), (1,), (2,)])
        assert rel.cardinality() == 2

    def test_missing_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_dicts(["a", "b"], [{"a": 1}])

    def test_extra_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_dicts(["a"], [{"a": 1, "b": 2}])

    def test_wrong_tuple_width_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_tuples(["a", "b"], [(1,)])

    @pytest.mark.parametrize("row", [
        {"a": 1, "b": 2},  # parent commit: [("a", "b")], its keys
        "xy",              # parent commit: [("x", "y")], its characters
        b"xy",             # parent commit: [(120, 121)], its bytes
        MappingProxyType({"a": 1, "b": 2}),
    ])
    def test_strings_and_mappings_are_no_rows(self, row, monkeypatch):
        built = []
        fill = XSet._fill
        with monkeypatch.context() as patch:
            patch.setattr(XSet, "_fill", lambda self, *args: (
                built.append(1), fill(self, *args))[1])
            with pytest.raises(SchemaError, match="not a sequence of values"):
                Relation.from_tuples(["a", "b"], [row])
            assert built == []  # refused before anything is built
            with pytest.raises(SchemaError, match="is a %s, not a sequence "
                               "of values" % type(row).__name__):
                Relation.from_tuples(["a", "b"], [(1, 2), row])
        # Lists and tuples, and other sequences, are rows as before.
        assert Relation.from_tuples(["a", "b"], [[1, 2], (3, 4), range(2)]
                                    ).to_rows() == [(0, 1), (1, 2), (3, 4)]

    def test_raw_constructor_validates_rows(self):
        heading = Heading(["a"])
        with pytest.raises(SchemaError, match="record-shaped"):
            Relation(heading, xset([xtuple([1])]))

    def test_raw_constructor_validates_scopes(self):
        heading = Heading(["a"])
        bad = XSet([(xrecord({"a": 1}), "not-classical")])
        with pytest.raises(SchemaError, match="classical"):
            Relation(heading, bad)

    def test_trusted_constructor_is_the_checked_one_minus_the_loop(self):
        # Allowed for a subset or union of validated same-heading rows;
        # the value is indistinguishable from a checked construction.
        whole = Relation.from_dicts(["emp", "name", "dept"], EMPLOYEES)
        subset = XSet(whole.rows.pairs()[:2])
        trusted = Relation._from_valid(whole.heading, subset)
        assert trusted == Relation(whole.heading, subset)
        assert hash(trusted) == hash(Relation(whole.heading, subset))
        assert trusted.rows is subset and trusted.heading is whole.heading
        with pytest.raises(AttributeError):
            trusted._rows = whole.rows

    def test_rows_must_match_heading(self):
        heading = Heading(["a"])
        with pytest.raises(SchemaError, match="do not match"):
            Relation(heading, xset([xrecord({"b": 1})]))


class TestCopyAndPickle:
    """An immutable value is its own copy and pickles through its
    constructor to an equal value, spelled alike."""

    ROWS = [
        (1, "a", None), (1.0, b"x", True), (-0.0, "", xset([1, 2])),
        (2**53 + 1, "b", xtuple(["a", None])),
    ]

    def test_a_heading(self):
        heading = Heading(["b", "a", "c"])
        assert copy.copy(heading) is heading
        assert copy.deepcopy(heading) is heading
        again = pickle.loads(pickle.dumps(heading))
        assert again == heading and again.names == heading.names

    @pytest.mark.parametrize("build", ["from_tuples", "from_page"])
    def test_a_relation(self, build):
        rel = getattr(Relation, build)(["k", "v", "w"], self.ROWS)
        assert copy.copy(rel) is rel and copy.deepcopy(rel) is rel
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(rel, protocol))
            assert again == rel
            assert again.heading.names == rel.heading.names
            assert repr(again.rows) == repr(rel.rows)
            assert again.to_rows() == rel.to_rows()


class TestFromPage:
    """``from_page`` refuses what ``from_tuples`` refuses, at once, and
    keeps the rows it accepts until something reads the row set."""

    def test_counted_and_read_before_it_is_built(self):
        rel = Relation.from_page(["k", "v"], [[2, "y"], [1, "x"], [2.0, "y"]])
        assert rel._rows is None
        assert (len(rel), rel.cardinality(), bool(rel)) == (2, 2, True)
        # The kept rows in the order they came, keys in heading order;
        # the twin collapsed to its first spelling.
        assert [list(row.items()) for row in rel.iter_dicts()] == [
            [("k", 2), ("v", "y")], [("k", 1), ("v", "x")]]
        assert rel._rows is None and repr(rel) == \
            "Relation(Heading(k, v), 2 rows)"
        built = Relation.from_tuples(["k", "v"], [[2, "y"], [1, "x"], [2.0, "y"]])
        assert rel == built and hash(rel) == hash(built)
        assert repr(rel.rows.pairs()) == repr(built.rows.pairs())
        assert rel.rows is rel.rows  # filled once
        assert rel.to_rows() == built.to_rows() == [(1, "x"), (2, "y")]
        assert list(rel.iter_dicts()) == [{"k": 2, "v": "y"}, {"k": 1, "v": "x"}]

    @pytest.mark.parametrize("names, rows", [
        (["a", "b"], [[1, 2], [3]]),
        (["a", "b"], [[1, 2], (3, 4, 5)]),
        (["a"], [[1], [[2]]]),
        (["a"], [[1], [{"x": 2}]]),
        (["a", "b"], [[1, 2], "xy"]),
        (["a", "b"], [[1, 2], {"a": 1, "b": 2}]),
        ([], [[]]),
        (["a", "a"], []),
        (["a", ""], [[1, 2]]),
    ])
    def test_a_refusal_is_from_tuples_own(self, names, rows):
        with pytest.raises(Exception) as eager:
            Relation.from_tuples(names, rows)
        with pytest.raises(type(eager.value)) as paged:
            Relation.from_page(names, rows)
        assert str(paged.value) == str(eager.value)

    @pytest.mark.parametrize("names, rows", [
        (["a", "b"], [range(2), (3, 4)]),
        (["a", "b"], ((n, -n) for n in range(3))),
        (["a"], ([x] for x in (1, 1.0, True, None))),
        ([], []),
        (["a"], []),
    ])
    def test_any_rows_from_tuples_reads(self, names, rows):
        rows = list(rows)
        assert Relation.from_page(names, iter(rows)) == \
            Relation.from_tuples(names, rows)

    def test_operators_read_the_run_not_the_page_order(self):
        from repro.relational import algebra

        rel = Relation.from_page(["a"], [[3], [1], [2]])
        kept = algebra.select(rel, lambda row: row["a"] > 1)
        assert kept == Relation.from_tuples(["a"], [(2,), (3,)])


class TestViews:
    def test_iter_dicts(self):
        rel = Relation.from_dicts(["emp", "name", "dept"], EMPLOYEES)
        names = sorted(row["name"] for row in rel.iter_dicts())
        assert names == ["ada", "alan", "grace"]

    def test_to_rows_heading_order(self):
        rel = Relation.from_dicts(["emp", "name", "dept"], EMPLOYEES[:1])
        assert rel.to_rows() == [(1, "ada", 10)]

    def test_validated_rows_are_read_without_re_validation(self, monkeypatch):
        source = [
            {"emp": n, "name": "n%d" % n, "dept": 1.0 * (n % 7)}
            for n in range(500)
        ]
        rel = Relation.from_dicts(["emp", "name", "dept"], source)
        expected = sorted(
            ((row["emp"], row["name"], row["dept"]) for row in source), key=repr
        )
        calls = []
        is_record = XSet.is_record
        monkeypatch.setattr(
            XSet, "is_record", lambda self: calls.append(1) or is_record(self)
        )
        rows = rel.to_rows()
        dicts = list(rel.iter_dicts())
        assert calls == []  # parent commit: once per row, in each of the two
        assert rows == expected
        assert [type(value) for value in rows[0]] == [int, str, float]
        assert sorted(dicts, key=lambda row: row["emp"]) == source
        assert [list(row) for row in dicts] == [
            list(row.as_record()) for row, _ in rel.rows.pairs()
        ]

    def test_equality_ignores_row_order(self):
        forward = Relation.from_dicts(["k"], [{"k": 1}, {"k": 2}])
        backward = Relation.from_dicts(["k"], [{"k": 2}, {"k": 1}])
        assert forward == backward
        assert hash(forward) == hash(backward)

    def test_bool_and_len(self):
        empty = Relation.from_dicts(["k"], [])
        assert not empty
        assert len(empty) == 0
        assert Relation.from_dicts(["k"], [{"k": 1}])

    def test_repr(self):
        rel = Relation.from_dicts(["k"], [{"k": 1}])
        assert "1 rows" in repr(rel)

    def test_immutability(self):
        rel = Relation.from_dicts(["k"], [{"k": 1}])
        with pytest.raises(AttributeError):
            rel.heading = Heading(["z"])


class TestProcessReading:
    def test_relation_as_a_behavior(self):
        rel = Relation.from_dicts(["emp", "name", "dept"], EMPLOYEES)
        by_dept = rel.as_process(["dept"], ["name"])
        key = xset([xrecord({"dept": 10})])
        result = by_dept.apply(key)
        names = {row.as_record()["name"] for row, _ in result.pairs()}
        assert names == {"ada", "grace"}

    def test_unknown_attributes_rejected(self):
        rel = Relation.from_dicts(["k"], [{"k": 1}])
        with pytest.raises(SchemaError):
            rel.as_process(["nope"], ["k"])
        with pytest.raises(SchemaError):
            rel.as_process(["k"], ["nope"])

    def test_process_is_wellformed(self):
        rel = Relation.from_dicts(["emp", "name", "dept"], EMPLOYEES)
        assert rel.as_process(["emp"], ["name"]).is_wellformed()

    def test_key_function_is_functional_non_key_is_not(self):
        rel = Relation.from_dicts(["emp", "name", "dept"], EMPLOYEES)
        assert rel.as_process(["emp"], ["name"]).is_function()
        assert not rel.as_process(["dept"], ["name"]).is_function()
