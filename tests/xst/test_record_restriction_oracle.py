"""Record-restriction oracle: ``restrict_records(r, keys)`` reads each
key's member-index run and re-tests nothing, and must answer exactly
what Def 7.6 answers, ``sigma_restrict(r, xset(map(xrecord, keys)),
_attribute_identity(attrs))`` with ``attrs`` the keys' attributes.

The two are compared by ``==``, by the serialized bytes of the answer
(so the same spelling, in the same run order), by the rows charged to a
governor's budget, by the ``restrict`` kernel counters, and by the type
of any refusal.

The rows are records over three attributes whose values come from the
shared pool (``tests/values.py``): the typed twins ``1``/``1.0``/``True``,
``None``, ``bytes``, ``str`` and set-valued values, drawn from a few so
that keys meet rows.  A key is ``{}`` or a record over one or two
attributes, an attribute no row holds among them; zero to three keys,
their values from the same draw or, now and then, one no set can hold.
The operand comes fresh, with member indexes filled on random
attributes, or as the difference of an indexed operand, so that it
carries a patched index.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAtomError
from repro.gov.governor import governed
from repro.obs import observed
from repro.relational.algebra import _attribute_identity
from repro.xst.builders import xrecord, xset
from repro.xst.restrict import restrict_records, sigma_restrict
from repro.xst.serialization import dumps
from repro.xst.xset import XSet

from tests import values as pool
from tests.xst.test_canonical_form import seeded

ATTRS = ("a", "b", "c")
#: Key attributes: the rows' own and one no row holds.
KEY_ATTRS = ATTRS + ("z",)


def reference(r, keys):
    """Def 7.6, spelled out: the key set, under the identity sigma."""
    attrs = tuple(dict.fromkeys(attr for key in keys for attr in key))
    return sigma_restrict(r, xset(map(xrecord, keys)), _attribute_identity(attrs))


def outcome(run, registry):
    """What ``run()`` gives: the answer's value and bytes, the rows it
    charged and the kernel's ``restrict`` counters -- or its refusal."""
    before = registry.snapshot()
    try:
        with governed(max_rows=10 ** 9) as governor:
            answer = run()
    except Exception as refused:  # compared by type below
        return ("refused", type(refused))
    counters = {
        name: value for name, value in registry.delta(before).items()
        if 'op="restrict"' in name and "seconds" not in name
    }
    return ("answer", answer, dumps(answer), governor.budget.rows, counters)


@st.composite
def cases(draw):
    pool_values = draw(st.lists(pool.values, min_size=1, max_size=4))
    held = st.sampled_from(pool_values)
    rows = draw(st.lists(
        st.fixed_dictionaries({attr: held for attr in ATTRS}), max_size=12,
    ))
    attrs = st.sampled_from(ATTRS + ATTRS + ("z",))
    key = st.one_of(
        st.just({}),
        st.dictionaries(attrs, held, min_size=1, max_size=1),
        st.dictionaries(attrs, held, min_size=2, max_size=2),
        st.dictionaries(attrs, held, min_size=2, max_size=2),
    )
    keys = draw(st.lists(key, max_size=3))
    if keys and draw(st.integers(0, 9)) == 0:
        # Now and then a value no set can hold, in a random key.
        at = draw(st.integers(0, len(keys) - 1))
        keys[at] = {**keys[at], draw(attrs): draw(st.sampled_from(pool.REFUSED))}
    form = draw(st.sampled_from(["fresh", "indexed", "carried"]))
    indexed = draw(st.lists(st.sampled_from(KEY_ATTRS), max_size=3))
    extra = draw(st.lists(
        st.fixed_dictionaries({attr: held for attr in ATTRS}), max_size=4,
    ))
    return rows, keys, form, indexed, extra


def operand(rows, form, indexed, extra):
    r = xset(map(xrecord, rows))
    if form == "fresh":
        return r
    if form == "carried":
        # A difference hands its result the operand's patched indexes.
        r = r | xset(map(xrecord, extra))
    for attr in indexed:
        r._members_holding(attr)
    if form == "carried":
        r = r - xset(map(xrecord, [row for row in extra if row not in rows]))
    return r


class TestRecordRestriction:
    @seeded
    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_the_index_run_answers_as_def_7_6(self, case):
        rows, keys, form, indexed, extra = case
        r = operand(rows, form, indexed, extra)
        with observed(True) as registry:
            got = outcome(lambda: restrict_records(r, keys), registry)
            expected = outcome(lambda: reference(r, keys), registry)
        assert got[:4] == expected[:4]
        if got[0] == "answer":
            assert got[4] == expected[4]

    def test_a_refusal_reads_no_row(self, monkeypatch):
        r = xset(map(xrecord, [{"a": 1}, {"a": 2}]))

        def read(*args):
            raise AssertionError("a row was read")

        monkeypatch.setattr(XSet, "_members_holding", read)
        for value in pool.REFUSED:
            for keys in ([{"a": value}], [{"a": 1}, {"b": 2, "a": value}]):
                with pytest.raises(InvalidAtomError):
                    restrict_records(r, keys)
                with pytest.raises(InvalidAtomError):
                    reference(r, keys)

    def test_an_empty_key_keeps_the_operand(self):
        r = xset(map(xrecord, [{"a": 1}, {"a": 2}]))
        assert restrict_records(r, [{"a": 1}, {}]) is r
        assert restrict_records(r, []) == xset([])
