#!/usr/bin/env python3
"""Print the optimized plan of every statement text the e2e workloads send.

For each workload of ``benchmarks/e2e/workloads.py`` at one seed, the
tables are built and enrolled in a ``TransactionManager``, the whole
request stream is generated, and every distinct XQL text it carries
(queries from ten times the benchmark's stream length, and the
prepared statements' templates) is parsed, compiled
and optimized against the manager's committed catalog value.  The
output is one JSON object ``{workload: {text: plan.explain()}}``, so two
checkouts are compared by running this in each and diffing the trees::

    python3 benchmarks/plan_identity.py --seed 101 > new.json
    (cd ../parent && python3 benchmarks/plan_identity.py --seed 101) > old.json
    python3 benchmarks/plan_identity.py --compare old.json new.json

It reads only the public planner API (``sql.parse_query``,
``sql.compile_query``, ``optimizer.optimize``), so it runs unchanged on
older trees.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"),
                os.path.join(HERE, "e2e")]

import workloads  # noqa: E402
from repro.relational import sql  # noqa: E402
from repro.relational.optimizer import optimize  # noqa: E402
from repro.relational.tx import TransactionManager  # noqa: E402


def texts_of(workload, seed):
    """Every distinct statement text of one workload's stream."""
    # Long enough that every text of every pool turns up.
    requests, _ = workloads.build_stream(workload, seed, scale=10.0)
    texts = set(workloads.PREPARED.values())
    for _, kind, payload in requests:
        if kind == "query":
            texts.add(payload)
    return sorted(texts)


def plans(seed):
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        db = TransactionManager(
            workloads.build_tables(workload, seed)
        ).committed()
        out[name] = {
            text: optimize(
                sql.compile_query(sql.parse_query(text)), db
            ).explain()
            for text in texts_of(workload, seed)
        }
    return out


def compare(old_path, new_path):
    """Count the texts whose plans differ: anywhere in the tree, and in
    the root node alone (what ``repr(plan)`` shows)."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    texts = differ = at_root = 0
    for name in sorted(set(old) | set(new)):
        for text in sorted(set(old.get(name, {})) | set(new.get(name, {}))):
            texts += 1
            before = old.get(name, {}).get(text, "")
            after = new.get(name, {}).get(text, "")
            if before != after:
                differ += 1
                at_root += before.split("\n")[0] != after.split("\n")[0]
                print("DIFFERS %s: %s" % (name, text))
    print(json.dumps({"texts": texts, "differ": differ,
                      "differ_at_root": at_root}))
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    print(json.dumps(plans(args.seed), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
