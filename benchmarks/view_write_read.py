"""A view read after every write, against the write alone.

Each round commits a one-row update of a keyed ``emp`` table (through
``TransactionManager._commit_ops``, the call a served MUTATE makes) and
then reads a materialized ``emp |x| dept`` view.  The bare side makes
the same commits with no view catalog.  One JSON line per table size:
the median milliseconds per round, bare and with the read, and their
difference -- what keeping the view current costs per write, wherever
that work runs (in the commit or in the read).  Observability is off
and the collector paused while timing.

    PYTHONPATH=src python benchmarks/view_write_read.py
    PYTHONPATH=src python benchmarks/view_write_read.py --sizes 256 4096 --rounds 51
"""

import argparse
import gc
import json
import statistics
import time

from repro.obs import observed
from repro.relational.constraints import KeyConstraint, Table
from repro.relational.query import Database, Join, Scan
from repro.relational.tx import TransactionManager
from repro.relational.views import ViewCatalog
from repro.workloads.generators import department_relation, employee_relation

DEPARTMENTS = 8


def stack(size, seed, views):
    emp = employee_relation(size, DEPARTMENTS, seed=seed)
    dept = department_relation(DEPARTMENTS, seed=seed)
    manager = TransactionManager({
        "emp": Table(emp.heading, emp.iter_dicts(), [KeyConstraint(["emp"])]),
        "dept": Table(dept.heading, dept.iter_dicts()),
    })
    body = Join(Scan("emp"), Scan("dept"))
    manager.committed().execute(body)  # the same member indexes
    catalog = None
    if views:
        catalog = ViewCatalog(Database(), manager=manager)
        catalog.define("by_dept", body, materialized=True)
        catalog.read("by_dept")
    return manager, catalog


def per_round_ms(size, rounds, seed, views):
    manager, catalog = stack(size, seed, views)
    samples = []
    gc.disable()
    try:
        for step in range(rounds):
            started = time.perf_counter()
            manager._commit_ops(
                [("update", "emp", {"emp": step % size}, {"salary": -step})],
                {"emp"}, manager.current_version,
            )
            if catalog is not None:
                catalog.read("by_dept")
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    if catalog is not None:
        assert catalog.verify("by_dept")
    return statistics.median(samples) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[256, 4096, 16384])
    parser.add_argument("--rounds", type=int, default=101)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    with observed(False):
        for size in args.sizes:
            bare = per_round_ms(size, args.rounds, args.seed, False)
            read = per_round_ms(size, args.rounds, args.seed, True)
            print(json.dumps({
                "rows": size, "write_ms": round(bare, 4),
                "write_then_read_ms": round(read, 4),
                "view_ms_per_write": round(read - bare, 4),
            }))


if __name__ == "__main__":
    main()
