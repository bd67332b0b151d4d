"""Self-test of the end-to-end benchmark (run explicitly; tier-1
collects only ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

One ``run.py --smoke`` (one round on 5 % of each stream, all four
workloads, timed + traced + both count rounds) feeds every test.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _manifest:
    MANIFEST = json.load(_manifest)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_manifest_matches_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in MANIFEST["workloads"]] == \
        list(workloads.WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    names = [spec["name"] for spec
             in MANIFEST["workloads"] + MANIFEST["end_to_end"]
             + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for spec in MANIFEST["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in MANIFEST["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    for spec in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(spec["unit"]) and \
            spec["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(spec for spec in MANIFEST["end_to_end"]
             if spec["name"] == "setup_s").items()


def test_every_metric_is_emitted_for_every_workload(smoke):
    assert smoke["correct"] and smoke["failed"] == 0
    assert smoke["attempted"] >= 1
    for workload in workloads.WORKLOADS:
        for spec in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
            entry = smoke["metrics"]["%s/%s" % (workload, spec["name"])]
            assert entry["unit"] == spec["unit"]
            assert isinstance(entry["value"], (int, float))
        for spec in MANIFEST["end_to_end"]:
            assert smoke["metrics"][
                "%s/%s" % (workload, spec["name"])]["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_trace_accounts_for_the_request_time(smoke, workload):
    spans = layers.load(os.path.join(HERE, "out",
                                     "trace-%s.jsonl" % workload))
    assert layers.check_parents(spans) == []
    table = layers.attribute(spans)
    assert table["requests"] > 0
    accounted = sum(table["layers"].values())
    assert abs(accounted - table["traced_s"]) <= 0.01 * table["traced_s"]
    assert min(table["layers"].values()) >= -1e-9


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_streams_are_a_pure_function_of_the_seed(workload):
    spec = workloads.WORKLOADS[workload]
    assert workloads.build_stream(spec, 7) == workloads.build_stream(spec, 7)
    assert workloads.build_stream(spec, 7) != workloads.build_stream(spec, 8)
    stream, warm = workloads.build_stream(spec, 7)
    assert warm == spec.warmup and len(stream) == warm + spec.counted
