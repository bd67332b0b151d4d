#!/usr/bin/env python3
"""Gate a fresh end-to-end run's call counts against the newest record.

A performance change checks in its ``benchmarks/e2e/run.py --record``
output as ``BENCH_PR<n>.json`` at the repository root: the commit, the
interpreter, and per seed and workload the exact counts.  This script
compares a new record, made with the same flags, against the newest of
them (largest ``n``) and exits 1 when any workload's ``kcalls_per_req``
at a seed both hold is more than ``BOUND`` times the recorded one::

    python3 benchmarks/e2e/run.py --trace 0 --rounds 3 --seed 101 \\
        --record /tmp/new.json
    python3 benchmarks/trajectory.py /tmp/new.json

Call counts are exact per seed but differ between interpreters, so the
two records must name the same Python minor version.  Exit 2 when
they do not, or when there is nothing to compare.
"""

import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC = "kcalls_per_req"
BOUND = 1.10


def newest_record(root):
    """The path of the ``BENCH_PR<n>.json`` with the largest ``n``, or
    ``None`` when there is none."""
    found = {}
    for path in glob.glob(os.path.join(root, "BENCH_PR*.json")):
        match = re.search(r"BENCH_PR(\d+)\.json$", path)
        if match:
            found[int(match.group(1))] = path
    return found[max(found)] if found else None


def minor(version):
    return ".".join(version.split(".")[:2])


def rises(old, new):
    """``(seed, workload, recorded, measured)`` for every count above
    ``BOUND`` times its record, and the number of counts compared."""
    over, compared = [], 0
    for seed in sorted(set(old["seeds"]) & set(new["seeds"])):
        recorded, measured = old["seeds"][seed], new["seeds"][seed]
        for workload in sorted(set(recorded) & set(measured)):
            before = recorded[workload]["metrics"][METRIC]
            after = measured[workload]["metrics"][METRIC]
            compared += 1
            print("seed %s %-14s %s %.6f -> %.6f (%+.2f %%)" % (
                seed, workload, METRIC, before, after,
                100.0 * (after / before - 1.0)))
            if after > BOUND * before:
                over.append((seed, workload, before, after))
    return over, compared


def main(argv):
    if len(argv) != 1:
        print("usage: trajectory.py NEW  (a run.py --record output)")
        return 2
    path = newest_record(ROOT)
    if path is None:
        print("no BENCH_PR<n>.json under %s" % ROOT)
        return 2
    with open(path) as fh:
        old = json.load(fh)
    with open(argv[0]) as fh:
        new = json.load(fh)
    if minor(old["python"]) != minor(new["python"]):
        print("%s was recorded on Python %s, this run on %s: call counts "
              "are not comparable" % (path, old["python"], new["python"]))
        return 2
    print("against %s (commit %s)" % (
        os.path.basename(path), old["measured_on_parent_commit"]))
    over, compared = rises(old, new)
    if not compared:
        print("no seed and workload in common")
        return 2
    for seed, workload, before, after in over:
        print("RISE seed %s %s: %s %.6f > %.2f x %.6f" % (
            seed, workload, METRIC, after, BOUND, before))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
