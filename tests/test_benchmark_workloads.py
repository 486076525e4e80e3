import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    try:
        yield load("perfbench_workloads", PERFBENCH / "workloads.py")
    finally:
        del sys.modules["perfbench_workloads"]


@pytest.mark.parametrize("name", ["detect", "sweep", "pipeline"])
def test_benchmark_replica_matches_the_op(workloads, name, tmp_path):
    # A traced benchmark run rebuilds each op from the public calls its
    # command makes and requires the same output bytes; a shortcut taken
    # only inside detect_ground or the CLI would make every traced op fail.
    wl = workloads.WORKLOADS[name](tmp_path, seed=7)
    op = wl.build(0)
    try:
        result = wl.run(op)
        assert wl.check(op, result) == []
        assert wl.output(op, result) == wl.replica(op, workloads.Spans()).output
    finally:
        wl.cleanup(op)


@pytest.fixture(scope="module")
def harness():
    # worker.py and run.py import their siblings by bare name, as they do
    # when run from perfbench/
    siblings = ("kernels", "workloads")
    try:
        for name in siblings:
            load(name, PERFBENCH / f"{name}.py")
        yield load("perfbench_worker", PERFBENCH / "worker.py"), load("perfbench_run", PERFBENCH / "run.py")
    finally:
        for name in (*siblings, "perfbench_worker", "perfbench_run"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["detect", "sweep", "pipeline"])
def test_traced_run_reports_every_layer_as_strict_json(harness, name, tmp_path):
    # The traced run's last line is strict JSON with every per-layer metric
    # of BENCHMARK.json: a metric that is missing (the kernel replay failed)
    # or not finite would leave the benchmark without its result line.
    worker, run = harness
    wl = sys.modules["workloads"].WORKLOADS[name](tmp_path, seed=7)
    op = wl.build(0)
    try:
        raw = worker.traced(wl, [op])
    finally:
        wl.cleanup(op)
    assert raw["failed"] == 0, raw["failures"]
    names = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    values, _ = run.per_layer(raw, names)
    assert [name for name in names if not math.isfinite(values.get(name, math.nan))] == []
    json.dumps(values, allow_nan=False)
