"""Experiment E22 harness: what governance costs, and what it saves.

Two questions, two series:

1. **Checkpoint overhead.**  The governed kernel entry points
   (``cross``, ``relative_product``, ``sigma_restrict``,
   ``transitive_closure``) and the plan executor, with no governor
   installed vs a generous one.  The uninstalled cost is one
   module-global read per batch (within noise of the pre-governance
   numbers); the installed cost is one bounds check per 1024-row
   batch, documented here rather than hidden.

2. **Shed vs queue under overload.**  A synthetic overload ramp
   through an :class:`AdmissionController` composed around each
   cluster read, as the server composes its front door around each
   request: with admission control the excess
   queries are refused in O(1) *before* any execution; without it
   every query runs to completion.  The per-refusal cost (error
   construction) vs the per-query cost (full scan) is the measured
   gap -- the reason load shedding keeps an overloaded system
   responsive.
"""

import pytest

from repro.errors import OverloadedError
from repro.gov import AdmissionController, governed
from repro.relational.algebra import Comparison
from repro.relational.distributed import Cluster
from repro.relational.query import Database, Join, Restrict, Scan
from repro.workloads import pair_relation
from repro.workloads.generators import employee_relation
from repro.xst.builders import xpair, xset, xtuple
from repro.xst.products import cross
from repro.xst.relative_product import cst_relative_product
from repro.xst.restrict import sigma_restrict

SIZES = (100, 400)


@pytest.fixture(params=("ungoverned", "governed"))
def governor_mode(request):
    """Run the body bare, or inside a generous (never-firing) scope."""
    return request.param


def _run(mode, fn, *args):
    if mode == "governed":
        with governed(timeout_s=3600.0, max_rows=10**12):
            return fn(*args)
    return fn(*args)


# ----------------------------------------------------------------------
# Series 1: checkpoint overhead on kernel ops and plan execution
# ----------------------------------------------------------------------


@pytest.mark.parametrize("size", SIZES)
def test_cross_checkpoint_overhead(benchmark, governor_mode, size):
    left = xset(xtuple([index]) for index in range(size))
    right = xset(xtuple([index]) for index in range(64))
    benchmark(_run, governor_mode, cross, left, right)


@pytest.mark.parametrize("size", SIZES)
def test_relative_product_checkpoint_overhead(benchmark, governor_mode,
                                              size, workload_seed):
    left = pair_relation(size, seed=workload_seed)
    right = pair_relation(size, seed=workload_seed + 1)
    benchmark(_run, governor_mode, cst_relative_product, left, right)


@pytest.mark.parametrize("size", SIZES)
def test_restrict_checkpoint_overhead(benchmark, governor_mode, size,
                                      workload_seed):
    relation = pair_relation(size, seed=workload_seed)
    keys = xset([xtuple([size // 2])])
    benchmark(_run, governor_mode, sigma_restrict, relation, keys,
              xtuple([1]))


@pytest.mark.parametrize("size", SIZES)
def test_plan_execution_checkpoint_overhead(benchmark, governor_mode,
                                            size, workload_seed):
    db = Database()
    db.add("emp", employee_relation(size, max(2, size // 20),
                                    seed=workload_seed))
    plan = Restrict(Join(Scan("emp"), Scan("emp")),
                    (Comparison("dept", "=", 1),))
    benchmark(_run, governor_mode, db.execute, plan)


def test_closure_checkpoint_overhead(benchmark, governor_mode):
    chain = xset(xpair(index, index + 1) for index in range(32))
    from repro.xst.closure import transitive_closure

    benchmark(_run, governor_mode, transitive_closure, chain)


# ----------------------------------------------------------------------
# Series 2: shed vs queue under an overload ramp
# ----------------------------------------------------------------------


def _build_cluster():
    cluster = Cluster(3, replication_factor=2)
    cluster.create_table(
        "emp", employee_relation(400, 8, seed=101), "dept"
    )
    return cluster


def _overload_ramp(cluster, admission=None, queries=32, held=0):
    """``queries`` scans, each through ``admission`` (when given) with
    ``held`` of its slots already occupied."""
    served = shed = 0
    if admission is None:
        for _ in range(queries):
            cluster.execute(Scan("emp"))
            served += 1
        return served, shed
    with admission.hold(held):
        for _ in range(queries):
            try:
                with admission.admitted():
                    cluster.execute(Scan("emp"))
                served += 1
            except OverloadedError:
                shed += 1
    return served, shed


def test_overload_queue_everything(benchmark):
    """Baseline: no admission control, every query runs."""
    cluster = _build_cluster()
    served, shed = benchmark(_overload_ramp, cluster)
    assert served == 32 and shed == 0


def test_overload_shed_everything(benchmark):
    """Saturated front door: every query refused before any work."""
    cluster = _build_cluster()
    served, shed = benchmark(
        _overload_ramp, cluster, AdmissionController(4), held=4
    )
    assert served == 0 and shed == 32


def test_overload_admit_when_idle(benchmark):
    """Admission control priced on the happy path (no contention)."""
    cluster = _build_cluster()
    served, shed = benchmark(
        _overload_ramp, cluster, AdmissionController(64)
    )
    assert served == 32 and shed == 0
