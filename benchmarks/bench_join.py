"""Experiment E16 harness: relative-product joins.

Series: the index-probing relative product (the shipped implementation;
the ``hash`` names below are from when it bucketed its right operand)
vs the Def 10.1 nested-loop transliteration, over growing sizes and
over key skew.  Reproduced shape: the indexed join is linear where the
nested loop is quadratic (crossover at tiny n), and skew degrades it
only through larger match output, not probe cost.
"""

import pytest

from repro.relational.algebra import join
from repro.relational.relation import Relation
from repro.workloads import (
    department_relation,
    employee_relation,
    pair_relation,
    skewed_values,
)
from repro.xst.relative_product import (
    relative_product,
    relative_product_nested_loop,
)
from repro.xst.builders import xpair, xset
from repro.xst.xset import XSet

SIZES = (50, 200, 800)

SIGMA = (XSet([(1, 1)]), XSet([(2, 1)]))
OMEGA = (XSet([(1, 1)]), XSet([(2, 2)]))


def chain_operands(size: int):
    left = pair_relation(size, seed=21, key_space=size)
    right = xset(
        xpair(member.as_tuple()[1], index)
        for index, (member, _) in enumerate(left.pairs())
    )
    return left, right


@pytest.mark.parametrize("size", SIZES)
def test_hash_relative_product(benchmark, size):
    left, right = chain_operands(size)
    benchmark(relative_product, left, right, SIGMA, OMEGA)


@pytest.mark.parametrize("size", (50, 200))
def test_nested_loop_relative_product(benchmark, size):
    # Quadratic: capped at 200 to keep the suite quick.
    left, right = chain_operands(size)
    expected = relative_product(left, right, SIGMA, OMEGA)
    result = benchmark(
        relative_product_nested_loop, left, right, SIGMA, OMEGA
    )
    assert result == expected


@pytest.mark.parametrize("skew", (0.0, 1.1, 1.8))
def test_hash_join_under_skew(benchmark, skew):
    size, distinct = 400, 40
    if skew:
        keys = skewed_values(size, distinct, seed=5, skew=skew)
    else:
        keys = [index % distinct for index in range(size)]
    left = xset(xpair(key, index) for index, key in enumerate(keys))
    right = xset(xpair(key, "payload-%d" % key) for key in range(distinct))
    benchmark(relative_product, left, right, SIGMA, OMEGA)


@pytest.mark.parametrize("size", SIZES)
def test_natural_join_of_relations(benchmark, size):
    employees = employee_relation(size, max(2, size // 20), seed=31)
    departments = department_relation(max(2, size // 20), seed=31)
    result = benchmark(join, employees, departments)
    assert isinstance(result, Relation)


@pytest.mark.parametrize("size", SIZES)
def test_semijoin_restriction(benchmark, size):
    from repro.relational.algebra import semijoin

    employees = employee_relation(size, max(2, size // 20), seed=31)
    departments = department_relation(max(2, size // 20), seed=31)
    benchmark(semijoin, employees, departments)
