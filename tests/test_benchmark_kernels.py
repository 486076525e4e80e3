import importlib.util
from pathlib import Path

from soilprobe.scenario import run_scenario, scenario_preset

KERNELS = Path(__file__).resolve().parent.parent / "perfbench" / "kernels.py"


def test_benchmark_kernel_replay_runs():
    # The benchmark's kernel replay builds the step functions' records with
    # their current signatures; if they drift, a traced run silently loses
    # the five kernel metrics.
    spec = importlib.util.spec_from_file_location("perfbench_kernels", KERNELS)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    trace = run_scenario(scenario_preset("moist", duration=2.0, approach_height=0.01))
    per_call, per_step, reason = kernels.replay(trace)
    assert reason == ""
    assert set(per_call) == set(kernels.NAMES)
    assert per_step > 0.0
