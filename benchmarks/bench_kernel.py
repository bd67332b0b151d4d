"""Experiments E5-E8 and E24 harness: kernel micro-operations.

Series: construction, re-scoping, sigma-domain, sigma-restriction and
Boolean algebra over growing extended sets -- the constant factors
every higher layer inherits -- plus the E24 head-to-head between the
row pipeline and the sorted-run columnar kernels on relation-scale
sigma-restriction and join.
"""

import pytest

from repro.relational import algebra
from repro.relational.algebra import Comparison
from repro.relational.columnar import ColumnarRelation
from repro.workloads import (
    department_relation,
    employee_relation,
    pair_relation,
)
from repro.xst.builders import xset, xtuple
from repro.xst.domain import sigma_domain
from repro.xst.rescope import rescope_by_scope
from repro.xst.restrict import sigma_restrict
from repro.xst.xset import XSet

SIZES = (100, 400, 1600)


@pytest.mark.parametrize("size", SIZES)
def test_construction_from_pairs(benchmark, size):
    pairs = [(index, index % 7) for index in range(size)]
    benchmark(XSet, pairs)


@pytest.mark.parametrize("size", SIZES)
def test_construction_nested_tuples(benchmark, size):
    rows = [(index, "name-%d" % index) for index in range(size)]

    def build():
        return xset(xtuple(row) for row in rows)

    benchmark(build)


@pytest.mark.parametrize("size", SIZES)
def test_rescope_by_scope(benchmark, size):
    wide = XSet((index, index % 10 + 1) for index in range(size))
    sigma = XSet((scope, scope * 100) for scope in range(1, 11))
    benchmark(rescope_by_scope, wide, sigma)


@pytest.mark.parametrize("size", SIZES)
def test_sigma_domain_projection(benchmark, size):
    relation = pair_relation(size, seed=9)
    sigma = xtuple([1])
    benchmark(sigma_domain, relation, sigma)


@pytest.mark.parametrize("size", SIZES)
def test_sigma_restrict_single_key(benchmark, size):
    relation = pair_relation(size, seed=9)
    keys = xset([xtuple([size // 2])])
    benchmark(sigma_restrict, relation, keys, xtuple([1]))


@pytest.mark.parametrize("size", SIZES)
def test_union(benchmark, size):
    left = pair_relation(size, seed=1)
    right = pair_relation(size, seed=2)
    benchmark(left.union, right)


@pytest.mark.parametrize("size", SIZES)
def test_intersection(benchmark, size):
    left = pair_relation(size, seed=1)
    right = left | pair_relation(size // 2, seed=3)
    benchmark(left.intersection, right)


@pytest.mark.parametrize("size", SIZES)
def test_hash_and_equality(benchmark, size):
    left = pair_relation(size, seed=4)
    right = XSet(left.pairs())

    def compare():
        return hash(left) == hash(right) and left == right

    assert compare()
    benchmark(compare)


# --- E24: sorted-run columnar kernels vs the row pipeline ----------
#
# Same semantic operation, two physical paths.  The row side runs the
# kernel the planner used before PR 6; the columnar side probes a
# pre-built sorted run (encode cost is benchmarked separately below,
# because a run is built once and amortized over every later query).

COLUMNAR_SIZES = (10_000, 100_000)
_DEPARTMENTS = 1_000


def _employee_tables(size):
    employees = employee_relation(size, _DEPARTMENTS, seed=31)
    departments = department_relation(_DEPARTMENTS, seed=31)
    return employees, departments


@pytest.mark.parametrize("size", COLUMNAR_SIZES)
def test_row_sigma_restriction(benchmark, size):
    employees, _ = _employee_tables(size)
    result = benchmark.pedantic(
        algebra.restrict, args=(employees, (Comparison("dept", "=", 7),)),
        rounds=3, iterations=1,
    )
    assert result.cardinality() > 0


@pytest.mark.parametrize("size", COLUMNAR_SIZES)
def test_columnar_sigma_restriction(benchmark, size):
    employees, _ = _employee_tables(size)
    encoded = ColumnarRelation.from_relation(employees)
    encoded.run("dept")  # steady state: the run already exists
    result = benchmark(encoded.restrict, (Comparison("dept", "=", 7),))
    assert result.cardinality() > 0


@pytest.mark.parametrize("size", COLUMNAR_SIZES)
def test_row_join(benchmark, size):
    employees, departments = _employee_tables(size)
    result = benchmark.pedantic(
        algebra.join, args=(employees, departments),
        rounds=1, iterations=1,
    )
    assert result.cardinality() == size


@pytest.mark.parametrize("size", COLUMNAR_SIZES)
def test_columnar_merge_join(benchmark, size):
    employees, departments = _employee_tables(size)
    left = ColumnarRelation.from_relation(employees)
    right = ColumnarRelation.from_relation(departments)
    left.run("dept")
    right.run("dept")
    result = benchmark.pedantic(
        left.join, args=(right,), rounds=3, iterations=1,
    )
    assert result.cardinality() == size


@pytest.mark.parametrize("size", COLUMNAR_SIZES)
def test_columnar_encode(benchmark, size):
    """The one-time cost the fast path amortizes: hash + stable sort."""
    employees, _ = _employee_tables(size)

    def encode_and_build():
        encoded = ColumnarRelation.from_relation(employees)
        encoded.run("dept")
        return encoded

    benchmark.pedantic(encode_and_build, rounds=3, iterations=1)
