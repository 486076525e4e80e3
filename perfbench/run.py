"""Soilprobe benchmark: run one workload and print its metrics.

Run from the root of a soilprobe checkout:

    python3 perfbench/run.py --workload detect|sweep|pipeline --seed N \
        --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics; --trace 1 times the calls into
each soilprobe module from the benchmark's own replica of every op and
reports the per-layer metrics. Metric names and units come from
BENCHMARK.json. Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
perfbench/README.md describes the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from kernels import NAMES as KERNEL_NAMES

HERE = Path(__file__).resolve().parent
# set-up is measured in this many fresh processes, the workload's own included
SETUP_RUNS = 5
# whole-run budget; the benchmark must end within 180 s
BUDGET_S = 170.0
# a percentile is reported only with at least this many samples above it
TAIL_SAMPLES = 10
# Every workload process gets the same string hashes and one BLAS/OpenMP
# thread, so runs differ only in their inputs and the host, and numpy does
# not contend with itself for the two vCPUs.
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _spawn(root: Path, work: Path, args, deadline: float, setup_only: bool) -> dict:
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=root,
                              env={**os.environ, **WORKER_ENV}, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        raise BenchError("workload process ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scaled(name: str, seconds: float) -> float:
    if name.endswith("_ms"):
        return seconds * 1e3
    if name.endswith("_us"):
        return seconds * 1e6
    return seconds


def end_to_end(raw: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    lat = raw["latency_s"]
    if not lat:
        raise BenchError("no op completed")
    n = len(lat)
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if n > 1 else lat * 9
    p10, p90 = deciles[0], deciles[-1]
    p50 = statistics.median(lat)
    ops_per_s = raw["runs_per_op"] * n / sum(lat)
    speeds = raw["host_speed"]
    adjusted = statistics.median(t * v for t, v in zip(lat, speeds))
    values = {
        "latency_ms.adjusted": adjusted * 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(r["setup_s"] * r["setup_speed"] for r in setups),
    }
    lines = [
        f"latency_ms.adjusted = {adjusted * 1e3:.4f} ms (median of n={n} op times x host speed; "
        f"host speed median {statistics.median(speeds):.4f}, range {min(speeds):.3f}-{max(speeds):.3f})",
        f"latency_ms.min = {min(lat) * 1e3:.4f} ms (n={n})",
        f"latency_ms.p10 = {p10 * 1e3:.4f} ms (n={n}, {sum(v < p10 for v in lat)} below)",
        f"latency_ms.p50 = {p50 * 1e3:.4f} ms (n={n})",
    ]
    if n >= 10 * TAIL_SAMPLES:
        lines.append(f"latency_ms.p90 = {p90 * 1e3:.4f} ms (n={n}, {sum(v > p90 for v in lat)} above)")
    else:
        lines.append(f"latency_ms.p90 not reported: n={n} leaves fewer than "
                     f"{TAIL_SAMPLES} samples above it")
    lines += [
        f"ops_per_s = {ops_per_s:.4f} 1/s ({raw['runs_per_op']} unit(s) of work per op)",
        f"fail_ratio = {raw['failed'] / raw['attempted']:.4f} ({raw['failed']}/{raw['attempted']})",
        f"peak_rss_mb = {raw['peak_rss_mb']:.2f} MB",
        f"setup_s = {values['setup_s']:.4f} s (median of {len(setups)} set-up times x host speed; "
        "raw: " + ", ".join(f"{r['setup_s']:.3f}" for r in setups)
        + ", host speed: " + ", ".join(f"{r['setup_speed']:.3f}" for r in setups) + ")",
    ]
    return values, lines


def per_layer(raw: dict, names: list[str]) -> tuple[dict, list[str]]:
    """Per-op medians of each layer; a layer the op never calls reads 0."""
    records = raw["records"]
    if not records:
        raise BenchError("no op completed")
    untraced_p50 = statistics.median(raw["untraced_s"])
    medians = {}
    for name in names:
        samples = [rec["spans"].get(name, rec["values"].get(name)) for rec in records]
        samples = [s for s in samples if s is not None]
        if samples:
            medians[name] = statistics.median(samples)
    span_names = {name for rec in records for name in rec["spans"]}
    traced_p50 = statistics.median(raw["traced_s"])
    medians["cli.self_ms"] = untraced_p50 - sum(medians[name] for name in span_names)
    medians["trace.overhead_ms"] = traced_p50 - untraced_p50
    values = {name: _scaled(name, value) for name, value in medians.items()}
    lines = [f"untraced op p50 {untraced_p50 * 1e3:.4f} ms, traced op p50 "
             f"{traced_p50 * 1e3:.4f} ms, n={len(records)}"]
    lines += raw["kernel_reasons"]
    kernel_absent = bool(raw["kernel_reasons"])
    uncalled = []
    for name in names:
        if name in values:
            continue
        if kernel_absent and name in (*KERNEL_NAMES, "scenario.loop_self_us"):
            lines.append(f"{name} absent: kernel replay unavailable")
        else:
            values[name] = 0.0
            uncalled.append(name)
    if uncalled:
        lines.append("reads 0, not called by this workload's op: " + ", ".join(uncalled))
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("detect", "sweep", "pipeline"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, required=True, help="how long to run ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "soilprobe" / "__init__.py").is_file():
        print(f"error: {root} holds no soilprobe source tree (src/soilprobe)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    try:
        deadline = start + BUDGET_S
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                setups.append(_spawn(root, work / f"setup_{i}", args, deadline, True))
        raw = _spawn(root, work / "run", args, deadline, False)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    try:
        if args.trace:
            metrics = spec["per_layer"]
            values, lines = per_layer(raw, [m["name"] for m in metrics])
        else:
            metrics = spec["end_to_end"]
            values, lines = end_to_end(raw, setups + [raw])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in metrics}
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines + raw["failures"]:
        print(line)
    if raw["failed"] and not raw["unexpected"]:
        print("every failed op is the recorded rigid-contact defect (perfbench/README.md)")
    print(json.dumps({
        "correct": raw["unexpected"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
