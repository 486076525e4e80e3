import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
