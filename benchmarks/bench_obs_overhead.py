"""Experiment E20 harness: what observing the kernel costs.

Series: the instrumented kernel entry points (``sigma_restrict``,
``image``, ``relative_product``, ``transitive_closure``) with the
observability switch off vs forced on, over the standard workload
sizes.  Reproduced shape: with ``REPRO_OBS`` unset every instrumented
call pays exactly one module-global boolean test, so the off rows
match the uninstrumented E5-E8 numbers within noise; the on rows pay
one counter bump and one histogram observation per kernel call --
amortized to nothing on large operands, and documented under 5% even
on the smallest.
"""

import pytest

from repro.obs import instrument
from repro.relational.algebra import Comparison
from repro.workloads import pair_relation
from repro.xst.builders import xpair, xset, xtuple
from repro.xst.closure import transitive_closure
from repro.xst.image import cst_image
from repro.xst.relative_product import cst_relative_product
from repro.xst.restrict import sigma_restrict

SIZES = (100, 400, 1600)


@pytest.fixture(params=(False, True), ids=("obs_off", "obs_on"))
def obs_switch(request):
    previous = instrument.set_enabled(request.param)
    yield request.param
    instrument.set_enabled(previous)


@pytest.mark.parametrize("size", SIZES)
def test_restrict_overhead(benchmark, obs_switch, size):
    relation = pair_relation(size, seed=9)
    keys = xset([xtuple([size // 2])])
    benchmark(sigma_restrict, relation, keys, xtuple([1]))


@pytest.mark.parametrize("size", SIZES)
def test_image_overhead(benchmark, obs_switch, size):
    relation = pair_relation(size, seed=9)
    keys = xset([xtuple([size // 3]), xtuple([size // 2])])
    benchmark(cst_image, relation, keys)


@pytest.mark.parametrize("size", SIZES)
def test_relative_product_overhead(benchmark, obs_switch, size):
    left = pair_relation(size, seed=1)
    right = pair_relation(size, seed=2)
    benchmark(cst_relative_product, left, right)


@pytest.mark.parametrize("size", (16, 32))
def test_closure_overhead(benchmark, obs_switch, size):
    chain = xset(xpair(index, index + 1) for index in range(size))
    benchmark(transitive_closure, chain)


# -- the PR 7 digest/recorder paths: free when off ---------------------


def _query_db():
    from repro.relational.query import Database, Restrict, Scan
    from repro.workloads import department_relation, employee_relation

    db = Database()
    db.add("emp", employee_relation(400, 8, seed=9))
    db.add("dept", department_relation(8, seed=9))
    return db, Restrict(Scan("emp"), (Comparison("dept", "=", 1),))


def test_execute_digest_overhead(benchmark, obs_switch):
    """Database.execute: off pays one boolean, on spans + digests."""
    from repro.obs.slowlog import slowlog

    db, plan = _query_db()
    benchmark(db.execute, plan)
    slowlog().reset()


@pytest.fixture(params=(False, True), ids=("recorder_off", "recorder_on"))
def recorder_switch(request):
    from repro.obs.recorder import disable, enable, recorder

    if request.param:
        enable()
    yield request.param
    disable()
    recorder().reset()


def test_error_construction_overhead(benchmark, recorder_switch):
    """Typed-error construction: the incident hook is one None check."""
    from repro.errors import DeadlineExceededError

    benchmark(DeadlineExceededError, 2.0, 1.0, "bench")
