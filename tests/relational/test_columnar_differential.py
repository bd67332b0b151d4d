"""Differential oracle: the columnar backend is invisible except for speed.

Representation independence (paper section 12) says any physical
layout that canonicalizes to the same extended set is admissible.
This suite enforces that claim mechanically for the sorted-run
backend of :mod:`repro.relational.columnar`:

* every kernel operator, applied to Hypothesis-generated relations
  (mixed value types, nulls, typed twins like ``1``/``1.0``/``True``,
  duplicates-after-projection, empty and singleton relations), gives
  a result canonically equal to the row-at-a-time operator;
* every generated *plan tree* executes to the same
  :class:`~repro.relational.relation.Relation` on an encoded database
  as on a plain one (relation ``__eq__`` is canonical equality);
* a stateful machine interleaves inserts, deletes, re-encodes and
  queries across both backends and they never disagree -- including
  after :meth:`Database.add` silently invalidates an encoding.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.relational import algebra
from repro.relational.algebra import Comparison
from repro.relational.columnar import (
    ColumnarRelation,
    encode,
    materialize,
)
from repro.relational.query import (
    Aggregate,
    Database,
    Difference,
    Join,
    Limit,
    Project,
    Rename,
    Restrict,
    Scan,
    Union,
)
from repro.relational.relation import Relation
from repro.workloads import department_relation, employee_relation

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: A deliberately small value universe: collisions, duplicates after
#: projection, and cross-type equality twins must actually occur.
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=5),
    st.sampled_from([1, 1.0, True, 0, 0.0, False, -1.5, 2.0]),
    st.text(alphabet="xyz", max_size=2),
    st.binary(max_size=2),
)

_R_ATTRS = ("a", "b", "c")
_S_ATTRS_POOL = ("b", "c", "d", "e")


@st.composite
def relations(draw, names=None, max_rows=10):
    if names is None:
        width = draw(st.integers(min_value=1, max_value=3))
        names = draw(st.permutations(_R_ATTRS))[:width]
    rows = draw(
        st.lists(
            st.tuples(*[atoms] * len(names)), min_size=0, max_size=max_rows
        )
    )
    return Relation.from_tuples(list(names), rows)


@st.composite
def table_pairs(draw):
    """Two relations whose headings overlap often but not always."""
    r = draw(relations())
    s_width = draw(st.integers(min_value=1, max_value=3))
    s_names = draw(st.permutations(_S_ATTRS_POOL))[:s_width]
    s = draw(relations(names=s_names))
    return r, s


def _value_pool(*rels):
    """Atoms worth probing: literals plus values actually present."""
    pool = [None, True, 0, 1, 1.0, "x", b"y", -1.5]
    for rel in rels:
        for row in rel.to_rows():
            pool.extend(row)
    # Deduplicate while keeping order deterministic (repr disambiguates
    # the 1/1.0/True twins without relying on type ordering).
    seen = set()
    unique = []
    for value in pool:
        key = (type(value).__name__, repr(value))
        if key not in seen:
            seen.add(key)
            unique.append(value)
    return unique


def _draw_plan(draw, headings, pool, depth):
    """One random plan node over base tables ``r``/``s``.

    Returns ``(plan, output heading names)`` so conditions, projections
    and renames always reference attributes that exist -- the oracle
    tests semantics, not error paths (those are pinned separately).
    The aggregates drawn are the ones total over the heterogeneous
    pool (``min``/``max`` fold by ``canonical_key``; ``sum``/``avg``
    need numbers).
    """
    if depth <= 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        name = draw(st.sampled_from(sorted(headings)))
        return Scan(name), headings[name]
    kind = draw(
        st.sampled_from(
            ("restrict", "project", "rename", "join",
             "union", "difference", "aggregate", "limit")
        )
    )
    if kind == "join":
        left, left_names = _draw_plan(draw, headings, pool, depth - 1)
        right, right_names = _draw_plan(draw, headings, pool, depth - 1)
        merged = tuple(dict.fromkeys(left_names + right_names))
        return Join(left, right), merged
    child, names = _draw_plan(draw, headings, pool, depth - 1)
    if kind == "restrict":
        # Equalities and inequalities only: they decide every pair of
        # values in the pool, where an ordering would refuse some.
        comparisons = draw(st.lists(
            st.builds(
                Comparison, st.sampled_from(names),
                st.sampled_from(("=", "!=")), st.sampled_from(pool),
            ),
            min_size=1, max_size=3,
        ))
        return Restrict(child, comparisons), names
    if kind == "project":
        kept = tuple(
            draw(
                st.lists(
                    st.sampled_from(names), min_size=1, max_size=len(names),
                    unique=True,
                )
            )
        )
        return Project(child, kept), kept
    if kind == "aggregate":
        group = tuple(draw(st.lists(
            st.sampled_from(names), min_size=0, max_size=2, unique=True
        )))
        function = draw(st.sampled_from(("count", "min", "max", "set_of")))
        if not group and function in ("min", "max"):
            function = "count"  # the one group may be empty
        source = draw(st.sampled_from(names))
        out = function + "9"
        if out in names:
            return child, names
        return Aggregate(child, group, {out: (function, source)}), \
            group + (out,)
    if kind == "limit":
        count = draw(st.integers(min_value=0, max_value=4))
        order_by = draw(st.one_of(st.none(), st.sampled_from(names)))
        return Limit(child, count, order_by, draw(st.booleans())), names
    if kind == "rename":
        old = draw(st.sampled_from(names))
        new = old + "9"
        if new in names:
            return child, names
        return (
            Rename(child, {old: new}),
            tuple(new if name == old else name for name in names),
        )
    # union / difference: the right side selects from the same subtree,
    # which keeps headings equal by construction while still exercising
    # non-trivial overlaps.
    attr = draw(st.sampled_from(names))
    value = draw(st.sampled_from(pool))
    other = Restrict(child, (Comparison(attr, "=", value),))
    node = Union(child, other) if kind == "union" else Difference(child, other)
    return node, names


# ----------------------------------------------------------------------
# Per-operator differentials
# ----------------------------------------------------------------------


class TestKernelOpsAgree:
    @settings(max_examples=60, deadline=None)
    @given(rel=relations(), data=st.data())
    def test_restrict_by_one_equality(self, rel, data):
        attr = data.draw(st.sampled_from(rel.heading.names))
        value = data.draw(st.sampled_from(_value_pool(rel)))
        comparisons = (Comparison(attr, "=", value),)
        expected = algebra.restrict(rel, comparisons)
        assert encode(rel).restrict(comparisons).to_relation() == expected

    @settings(max_examples=40, deadline=None)
    @given(rel=relations(), data=st.data())
    def test_restrict_by_several_comparisons(self, rel, data):
        comparisons = data.draw(st.lists(
            st.builds(
                Comparison, st.sampled_from(rel.heading.names),
                st.sampled_from(("=", "!=")),
                st.sampled_from(_value_pool(rel)),
            ),
            min_size=1, max_size=3,
        ))
        expected = algebra.restrict(rel, comparisons)
        assert encode(rel).restrict(comparisons).to_relation() == expected

    @settings(max_examples=60, deadline=None)
    @given(rel=relations(), data=st.data())
    def test_project(self, rel, data):
        attrs = data.draw(
            st.lists(
                st.sampled_from(rel.heading.names),
                min_size=1, max_size=len(rel.heading.names), unique=True,
            )
        )
        expected = algebra.project(rel, attrs)
        assert encode(rel).project(attrs).to_relation() == expected

    @settings(max_examples=60, deadline=None)
    @given(tables=table_pairs())
    def test_join(self, tables):
        r, s = tables
        expected = algebra.join(r, s)
        assert encode(r).join(encode(s)).to_relation() == expected

    @settings(max_examples=30, deadline=None)
    @given(r=relations(names=("a", "b")), s=relations(names=("d", "e")))
    def test_cross(self, r, s):
        expected = algebra.product(r, s)
        assert encode(r).cross(encode(s)).to_relation() == expected

    @settings(max_examples=30, deadline=None)
    @given(r=relations(names=("a", "b")), s=relations(names=("b", "d")))
    def test_semijoin(self, r, s):
        expected = algebra.semijoin(r, s)
        assert encode(r).semijoin(encode(s)).to_relation() == expected

    @settings(max_examples=30, deadline=None)
    @given(r=relations(names=("a", "b")), s=relations(names=("b", "a")))
    def test_union_difference(self, r, s):
        assert encode(r).union(encode(s)).to_relation() == algebra.union(r, s)
        assert (
            encode(r).difference(encode(s)).to_relation()
            == algebra.difference(r, s)
        )

    @settings(max_examples=30, deadline=None)
    @given(rel=relations(names=("a", "b", "c")))
    def test_rename(self, rel):
        expected = algebra.rename(rel, {"a": "z", "b": "a"})
        assert (
            encode(rel).rename({"a": "z", "b": "a"}).to_relation() == expected
        )

    @settings(max_examples=30, deadline=None)
    @given(rel=relations(names=("a", "b", "c")), data=st.data())
    def test_restrict_then_project(self, rel, data):
        # The Def 7.1 image of one key: a restriction, then a projection.
        key = (Comparison("a", "=", data.draw(st.sampled_from(
            _value_pool(rel)))),)
        expected = algebra.project(algebra.restrict(rel, key), ["b", "c"])
        got = encode(rel).restrict(key).project(["b", "c"])
        assert got.to_relation() == expected

    @settings(max_examples=30, deadline=None)
    @given(rel=relations(), data=st.data())
    def test_restrict_by_an_inequality(self, rel, data):
        attr = data.draw(st.sampled_from(rel.heading.names))
        value = data.draw(st.sampled_from(_value_pool(rel)))
        expected = algebra.select(rel, lambda row: not row[attr] == value)
        got = encode(rel).restrict((Comparison(attr, "!=", value),))
        assert got.to_relation() == expected


# ----------------------------------------------------------------------
# Composed plans
# ----------------------------------------------------------------------


class TestPlanTreesAgree:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_plan_trees(self, data):
        r, s = data.draw(table_pairs())
        pool = _value_pool(r, s)
        plan, _ = _draw_plan(
            data.draw,
            {"r": r.heading.names, "s": s.heading.names},
            pool,
            depth=3,
        )
        db_row = Database({"r": r, "s": s})
        db_col = Database({"r": r, "s": s})
        db_col.encode_columnar()
        expected = db_row.execute(plan)
        actual = db_col.execute(plan)
        assert actual == expected
        # Cardinality parity is stronger than canonical equality of the
        # final answer: it is what keeps governor charges identical.
        assert actual.cardinality() == expected.cardinality()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_partial_encoding_promotes(self, data):
        """Encoding only one table still answers identically."""
        r, s = data.draw(table_pairs())
        pool = _value_pool(r, s)
        plan, _ = _draw_plan(
            data.draw,
            {"r": r.heading.names, "s": s.heading.names},
            pool,
            depth=2,
        )
        encoded_name = data.draw(st.sampled_from(["r", "s"]))
        db_row = Database({"r": r, "s": s})
        db_mixed = Database({"r": r, "s": s})
        db_mixed.encode_columnar([encoded_name])
        assert db_mixed.execute(plan) == db_row.execute(plan)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_record_mode_agrees_with_columnar(self, data):
        """Three disciplines, one answer: records, sets, runs."""
        r, s = data.draw(table_pairs())
        plan = Join(Scan("r"), Scan("s"))
        db_col = Database({"r": r, "s": s})
        db_col.encode_columnar()
        assert db_col.execute(plan) == db_col.execute_records(plan)


# ----------------------------------------------------------------------
# Stateful interleaving
# ----------------------------------------------------------------------


class BackendInterleaving(RuleBasedStateMachine):
    """Inserts, deletes, re-encodes and queries against both backends.

    The row database is the model; the columnar database is the system
    under test.  Updates go through :meth:`Database.add` on both --
    which on the columnar side must invalidate the run encoding -- and
    re-encoding is a *separate, optional* step, so the machine also
    drives the stale-encoding path where scans fall back to rows.
    """

    keys = st.integers(min_value=0, max_value=4)

    def __init__(self):
        super().__init__()
        self.db_row = Database()
        self.db_col = Database()
        for name, names in (("r", ("k", "v")), ("s", ("v", "w"))):
            empty = Relation.from_tuples(list(names), [])
            self.db_row.add(name, empty)
            self.db_col.add(name, empty)
        self.db_col.encode_columnar()

    def _apply(self, name, relation, reencode):
        self.db_row.add(name, relation)
        self.db_col.add(name, relation)
        if reencode:
            self.db_col.encode_columnar([name])

    @rule(name=st.sampled_from(["r", "s"]), x=keys, y=keys,
          reencode=st.booleans())
    def insert(self, name, x, y, reencode):
        rel = self.db_row.relation(name)
        grown = algebra.union(
            rel, Relation.from_tuples(rel.heading, [(x, y)])
        )
        self._apply(name, grown, reencode)

    @rule(name=st.sampled_from(["r", "s"]), x=keys, reencode=st.booleans())
    def delete_matching(self, name, x, reencode):
        rel = self.db_row.relation(name)
        attr = rel.heading.names[0]
        shrunk = algebra.difference(rel, algebra.restrict(rel,
                (Comparison(attr, "=", x),)))
        self._apply(name, shrunk, reencode)

    @rule(x=keys)
    def query_select(self, x):
        plan = Restrict(Scan("r"), (Comparison("k", "=", x),))
        assert self.db_col.execute(plan) == self.db_row.execute(plan)

    @rule()
    def query_join(self):
        plan = Project(Join(Scan("r"), Scan("s")), ["k", "w"])
        assert self.db_col.execute(plan) == self.db_row.execute(plan)

    @rule(x=keys)
    def query_compound(self, x):
        plan = Difference(
            Scan("r"), Restrict(Scan("r"), (Comparison("v", "=", x),))
        )
        assert self.db_col.execute(plan) == self.db_row.execute(plan)

    @invariant()
    def encodings_match_their_relations(self):
        for name in ("r", "s"):
            if self.db_col.has_columnar(name):
                assert (
                    self.db_col.columnar(name).to_relation()
                    == self.db_row.relation(name)
                )


BackendInterleaving.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
TestBackendInterleaving = BackendInterleaving.TestCase


# ----------------------------------------------------------------------
# Workload scale, seeded from the environment
# ----------------------------------------------------------------------

WORKLOAD_SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", "101"))


class TestWorkloadScaleAgreement:
    """Generator workloads at the seed the CI columnar job sweeps."""

    @pytest.fixture(scope="class")
    def databases(self):
        tables = {
            "emp": employee_relation(400, 16, seed=WORKLOAD_SEED),
            "dept": department_relation(16, seed=WORKLOAD_SEED),
        }
        db_row = Database(dict(tables))
        db_col = Database(dict(tables))
        db_col.encode_columnar()
        return db_row, db_col

    @pytest.mark.parametrize("plan", [
        Restrict(Scan("emp"), (Comparison("dept", "=", 3),)),
        Project(Restrict(Scan("emp"),
                         (Comparison("dept", "=", 3),)), ["name"]),
        Join(Scan("emp"), Scan("dept")),
        Project(Join(Scan("emp"), Scan("dept")), ["name", "dname"]),
        Union(Restrict(Scan("emp"), (Comparison("dept", "=", 1),)),
              Restrict(Scan("emp"), (Comparison("dept", "=", 2),))),
        Difference(Scan("emp"), Restrict(Scan("emp"),
                                         (Comparison("dept", "=", 0),))),
    ], ids=["select", "select-project", "join", "join-project",
            "union", "difference"])
    def test_plans_agree_on_generator_workloads(self, databases, plan):
        db_row, db_col = databases
        assert db_col.execute(plan) == db_row.execute(plan)
