"""Serialization: lossless, canonical, self-delimiting."""

import enum
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidAtomError
from repro.relational.wal import commit_record
from repro.xst.builders import xpair, xrecord, xset, xtuple
from repro.xst.serialization import (
    digest,
    dump_stream,
    dumps,
    load_stream,
    loads,
)
from repro.xst.xset import EMPTY, XSet

from tests.conftest import xsets
from tests.values import ATOMS, REFUSED, values

#: Atoms whose Python equality matches their type (no 1 / 1.0 / True
#: overlap), so digests are fully canonical -- see the module caveat.
typed_atoms = st.one_of(
    st.none(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(max_size=12),
    st.binary(max_size=12),
)


def typed_xsets():
    base = st.builds(
        lambda pairs: XSet(pairs),
        st.lists(st.tuples(typed_atoms, typed_atoms), max_size=4),
    )
    return st.recursive(
        base,
        lambda children: st.builds(
            lambda pairs: XSet(pairs),
            st.lists(
                st.tuples(st.one_of(typed_atoms, children),
                          st.one_of(typed_atoms, children)),
                max_size=3,
            ),
        ),
        max_leaves=6,
    )


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 20


class Name(str):
    """A str subclass: the codec must write it as the str it is."""


def reference_dumps(value):
    """The module docstring's format table, one tag at a time."""
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"T" if value else b"F"
    if isinstance(value, int):
        digits = str(int(value)).encode("ascii")
        return b"I" + struct.pack(">I", len(digits)) + digits
    if isinstance(value, float):
        return b"D" + struct.pack(">d", value)
    if isinstance(value, complex):
        return b"C" + struct.pack(">dd", value.real, value.imag)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + struct.pack(">I", len(raw)) + raw
    if isinstance(value, bytes):
        return b"B" + struct.pack(">I", len(value)) + value
    assert isinstance(value, XSet)
    return b"X" + struct.pack(">I", len(value.pairs())) + b"".join(
        reference_dumps(element) + reference_dumps(scope)
        for element, scope in value.pairs()
    )


def pooled_values():
    """Every admissible kind of value, subclass atoms and nested and
    empty sets included (no ``nan``: it equals nothing, so no set holds
    it and the codec refuses it)."""
    pool = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**100), max_value=2**100),
        st.floats(allow_nan=False),
        st.just(-0.0),
        st.complex_numbers(allow_nan=False),
        st.sampled_from(ATOMS),
        st.text(max_size=8),
        st.text(max_size=8).map(Name),
        st.binary(max_size=8),
        st.sampled_from(Colour),
        st.just(EMPTY),
    )
    return st.recursive(
        pool,
        lambda children: st.lists(
            st.tuples(children, children), max_size=4
        ).map(XSet),
        max_leaves=12,
    )


def two_table_commit():
    emp = xset([xrecord({"emp": 1, "name": "ada", "salary": 90000}),
                xrecord({"emp": 2, "name": "zo\u00eb", "salary": -5})])
    gone = xset([xrecord({"emp": 3, "name": "cy", "salary": 0})])
    dept = xset([xrecord({"dept": 7, "dname": "eng", "budget": 1.5})])
    return commit_record(
        42, {"emp": (None, emp, gone), "dept": (None, dept, EMPTY)},
        created={"dept": ["dept", "dname", "budget"]},
    )


#: ``dumps(two_table_commit())``: a change to the format fails here.
TWO_TABLE_COMMIT = (
    b"X\x00\x00\x00\x04I\x00\x00\x00\x0242S\x00\x00\x00\x02txS\x00"
    b"\x00\x00\x06commitS\x00\x00\x00\x04kindX\x00\x00\x00\x01X"
    b"\x00\x00\x00\x02S\x00\x00\x00\x04deptI\x00\x00\x00\x011X\x00"
    b"\x00\x00\x03S\x00\x00\x00\x06budgetI\x00\x00\x00\x013S\x00"
    b"\x00\x00\x04deptI\x00\x00\x00\x011S\x00\x00\x00\x05dnameI"
    b"\x00\x00\x00\x012I\x00\x00\x00\x012I\x00\x00\x00\x011S\x00"
    b"\x00\x00\x07createdX\x00\x00\x00\x02X\x00\x00\x00\x03S\x00"
    b"\x00\x00\x04deptS\x00\x00\x00\x05tableX\x00\x00\x00\x00S\x00"
    b"\x00\x00\x07deletedX\x00\x00\x00\x01X\x00\x00\x00\x03D?\xf8"
    b"\x00\x00\x00\x00\x00\x00S\x00\x00\x00\x06budgetI\x00\x00\x00"
    b"\x017S\x00\x00\x00\x04deptS\x00\x00\x00\x03engS\x00\x00\x00"
    b"\x05dnameX\x00\x00\x00\x00S\x00\x00\x00\x08insertedI\x00\x00"
    b"\x00\x011X\x00\x00\x00\x03S\x00\x00\x00\x03empS\x00\x00\x00"
    b"\x05tableX\x00\x00\x00\x01X\x00\x00\x00\x03I\x00\x00\x00\x01"
    b"0S\x00\x00\x00\x06salaryI\x00\x00\x00\x013S\x00\x00\x00\x03e"
    b"mpS\x00\x00\x00\x02cyS\x00\x00\x00\x04nameX\x00\x00\x00\x00S"
    b"\x00\x00\x00\x07deletedX\x00\x00\x00\x02X\x00\x00\x00\x03I"
    b"\x00\x00\x00\x02-5S\x00\x00\x00\x06salaryI\x00\x00\x00\x012S"
    b"\x00\x00\x00\x03empS\x00\x00\x00\x04zo\xc3\xabS\x00\x00\x00"
    b"\x04nameX\x00\x00\x00\x00X\x00\x00\x00\x03I\x00\x00\x00\x011"
    b"S\x00\x00\x00\x03empI\x00\x00\x00\x0590000S\x00\x00\x00\x06s"
    b"alaryS\x00\x00\x00\x03adaS\x00\x00\x00\x04nameX\x00\x00\x00"
    b"\x00S\x00\x00\x00\x08insertedI\x00\x00\x00\x012S\x00\x00\x00"
    b"\x07changes"
)


class TestByteIdentity:
    """``dumps`` writes the format table's bytes, whichever path an atom
    takes through it."""

    @given(pooled_values())
    def test_dumps_matches_the_reference_encoder(self, value):
        assert dumps(value) == reference_dumps(value)
        assert dump_stream([value, value]) == reference_dumps(value) * 2

    @given(pooled_values())
    def test_loads_reads_the_reference_bytes(self, value):
        assert loads(reference_dumps(value)) == value

    @pytest.mark.parametrize("atom", [True, Colour.BLUE, Name("ab"), -0.0])
    def test_subclass_atoms_inside_a_set_keep_their_encoding(self, atom):
        value = XSet([(atom, "s"), ("s", atom)])
        assert dumps(value) == reference_dumps(value)
        assert dumps(value).count(dumps(atom)) == 2

    def test_a_two_table_commit_record_is_pinned(self):
        record = two_table_commit()
        assert dumps(record) == reference_dumps(record) == TWO_TABLE_COMMIT
        assert loads(TWO_TABLE_COMMIT) == record


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**80,
            -(2**80),
            1.5,
            -0.0,
            2 + 3j,
            "",
            "héllo",
            b"",
            b"\x00\xff",
            EMPTY,
        ],
    )
    def test_atoms_round_trip(self, value):
        assert loads(dumps(value)) == value

    def test_types_survive(self):
        assert isinstance(loads(dumps(1)), int)
        assert isinstance(loads(dumps(1.0)), float)
        assert loads(dumps(True)) is True
        assert loads(dumps(b"x")) == b"x"

    def test_shapes_round_trip(self):
        values = [
            xset(["a", "b"]),
            xtuple([1, 2, 3]),
            xpair("x", xtuple(["nested"])),
            xrecord({"name": "ada", "dept": 3}),
            XSet([(xset([1]), xset([2]))]),
        ]
        for value in values:
            assert loads(dumps(value)) == value

    @given(xsets())
    def test_arbitrary_xsets_round_trip(self, value):
        assert loads(dumps(value)) == value

    @given(values)
    def test_every_pooled_value_round_trips(self, value):
        assert loads(dumps(value)) == value

    def test_unserializable_values_rejected(self):
        with pytest.raises(InvalidAtomError):
            dumps(object())


class TestCanonicity:
    def test_equal_sets_share_bytes(self):
        forward = XSet([("a", 1), ("b", 2)])
        backward = XSet([("b", 2), ("a", 1)])
        assert dumps(forward) == dumps(backward)

    @given(typed_xsets())
    def test_digest_is_construction_order_independent(self, value):
        shuffled = XSet(tuple(reversed(value.pairs())))
        assert digest(value) == digest(shuffled)

    def test_different_sets_differ(self):
        assert digest(xset(["a"])) != digest(xset(["b"]))
        assert digest(xtuple(["a", "b"])) != digest(xtuple(["b", "a"]))

    def test_scope_changes_the_digest(self):
        assert digest(XSet([("a", 1)])) != digest(XSet([("a", 2)]))


class TestErrors:
    def test_truncated_input(self):
        payload = dumps(xtuple([1, 2, 3]))
        with pytest.raises(InvalidAtomError, match="truncated"):
            loads(payload[:-2])

    def test_trailing_bytes(self):
        with pytest.raises(InvalidAtomError, match="trailing"):
            loads(dumps(1) + b"junk")

    def test_unknown_tag(self):
        with pytest.raises(InvalidAtomError, match="unknown"):
            loads(b"?")

    @pytest.mark.parametrize("payload", [
        b"I\x00\x00\x00\x02zz",
        b"X\x00\x00\x00\x01I\x00\x00\x00\x02zzN",
    ])
    def test_an_int_that_is_not_a_decimal(self, payload):
        with pytest.raises(InvalidAtomError, match="malformed"):
            loads(payload)

    @pytest.mark.parametrize("text", [b" 7", b"+7", b"07", b"0_7", b"-0"])
    def test_an_int_dumps_does_not_write(self, text):
        # int() reads each of these, but dumps never writes them: a value
        # decodes only from the bytes it re-encodes to.
        payload = b"I" + struct.pack(">I", len(text)) + text
        for data in (payload, b"X\x00\x00\x00\x01" + payload + b"N"):
            with pytest.raises(InvalidAtomError, match="malformed"):
                loads(data)

    @given(st.text(alphabet="+-_ 0123456789", max_size=6))
    def test_every_decoded_int_re_encodes_to_its_input(self, text):
        payload = b"I" + struct.pack(">I", len(text)) + text.encode()
        try:
            value = loads(payload)
        except InvalidAtomError:
            return
        assert dumps(value) == payload

    @pytest.mark.parametrize("refused", REFUSED[:3])
    def test_a_nan_is_refused_both_ways(self, refused):
        with pytest.raises(InvalidAtomError, match="does not equal itself"):
            dumps(refused)
        payload = reference_dumps(refused)
        for data in (payload, b"X\x00\x00\x00\x01" + payload + b"N"):
            with pytest.raises(InvalidAtomError, match="does not equal"):
                loads(data)

    @pytest.mark.parametrize("payload", [
        b"S\x00\x00\x00\x01\xff",
        b"X\x00\x00\x00\x01NS\x00\x00\x00\x01\xff",
    ])
    def test_a_str_that_is_not_utf8(self, payload):
        with pytest.raises(InvalidAtomError, match="malformed"):
            loads(payload)

    def test_a_malformed_stream_value(self):
        with pytest.raises(InvalidAtomError, match="malformed"):
            list(load_stream(dumps(1) + b"S\x00\x00\x00\x01\xff"))

    def test_a_pair_count_the_payload_cannot_hold(self):
        with pytest.raises(InvalidAtomError, match="truncated"):
            loads(b"X\xff\xff\xff\xffNN")

    def test_every_prefix_is_truncated(self):
        for end in range(len(TWO_TABLE_COMMIT)):
            with pytest.raises(InvalidAtomError, match="truncated"):
                loads(TWO_TABLE_COMMIT[:end])

    def test_every_bit_flip_decodes_or_is_refused(self):
        decoded = 0
        for index in range(len(TWO_TABLE_COMMIT)):
            for bit in range(8):
                flipped = bytearray(TWO_TABLE_COMMIT)
                flipped[index] ^= 1 << bit
                try:
                    loads(bytes(flipped))
                except InvalidAtomError:
                    continue
                decoded += 1
        # A flip inside a name or a digit can leave a well-formed value.
        assert 0 < decoded < len(TWO_TABLE_COMMIT) * 8


class TestStreams:
    def test_stream_round_trip(self):
        values = [xtuple([1]), "atom", xset(["a", "b"]), 42, EMPTY]
        assert list(load_stream(dump_stream(values))) == values

    def test_empty_stream(self):
        assert list(load_stream(b"")) == []

    def test_streams_concatenate(self):
        left = dump_stream([1, 2])
        right = dump_stream(["x"])
        assert list(load_stream(left + right)) == [1, 2, "x"]

    @given(st.lists(typed_xsets(), max_size=5))
    def test_stream_property(self, values):
        assert list(load_stream(dump_stream(values))) == values
