"""One workload process of the soilprobe benchmark (started by run.py).

It sets up (imports soilprobe from the checkout's src/, builds the first
input and runs one untimed warm-up op), then runs ops one after another in
a closed loop with a single caller for the given seconds, completing the
last rotation of scenario kinds, and prints one JSON line of raw
measurements. Each op gets a fresh input, built untimed before it runs.
Set-up, and in the untraced run each op, is followed by the reference loop,
which measures how fast the host ran the process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# The reference loop: fixed code that calls nothing in soilprobe, half
# interpreter arithmetic and half numpy calls on scalars and a tiny array,
# the two kinds of work the program's own loops mix. In the untraced run it
# runs right after each op for REFERENCE_SHARE of the op's time; its time
# per pass says how fast the host ran this process around that op. One pass
# takes REFERENCE_PASS_S at full speed (2-vCPU Intel Xeon KVM guest,
# CPython 3.11.7, numpy 2.4) and up to about twice that while neighbouring
# guests load the host.
REFERENCE_PASS_S = 120e-6
REFERENCE_SHARE = 0.25
_REFERENCE_VEC = np.array([0.1, 0.2, 0.3])

# Peak RSS is read once this many ops have run (a whole number of kind
# rotations), so a run that fits more ops in its time does not read higher.
RSS_OPS = 6


def _first_positive(values) -> int | None:
    return next((i for i, v in enumerate(values) if v > 0.0), None)


class Tally:
    """Attempted and failed ops, and which failures are the recorded defect."""

    def __init__(self, known: frozenset):
        self.known = known
        self.attempted = 0
        self.failures: list[str] = []
        self.unexpected = 0

    def add(self, op, problems) -> None:
        self.attempted += 1
        if problems:
            label = f"op {op.index}" + (f" ({op.kind})" if op.kind else "")
            self.failures.append(f"{label}: " + "; ".join(detail for _, detail in problems))
            if any(code not in self.known for code, _ in problems):
                self.unexpected += 1

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "unexpected": self.unexpected, "failures": self.failures}


def run_op(wl, op):
    """Time one op and check it; returns (seconds or None, output bytes, problems)."""
    gc.collect()  # garbage left by building the input is not the op's cost
    start = time.perf_counter()
    try:
        result = wl.run(op)
    except Exception as err:  # an op that raises is a failed op, not a failed benchmark
        return None, None, [("raised", f"raised {err!r}")]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.output(op, result), wl.check(op, result)
    except (OSError, KeyError, ValueError) as err:
        return elapsed, None, [("output", f"unreadable output: {err!r}")]


def run_replica(wl, op, spans):
    """Time the op's replica; returns (seconds, Replica), or (None, error text)."""
    gc.collect()
    start = time.perf_counter()
    try:
        rep = wl.replica(op, spans)
    except Exception as err:  # reported as a failed op
        return None, repr(err)
    return time.perf_counter() - start, rep


def _reference_pass() -> float:
    total = 0.0
    for i in range(1000):
        total += i * i
    for i in range(10):
        x = float(np.clip(i * 0.1, 0.0, 1.0))
        if np.isfinite(x) and np.all(np.isfinite(_REFERENCE_VEC)):
            total += x
    return total


def host_speed(seconds: float) -> float:
    """Run the reference loop for about `seconds`; returns the host's speed
    meanwhile: 1 at full speed, lower while the host is loaded."""
    clock = time.perf_counter
    start = clock()
    passes = 0
    while True:
        _reference_pass()
        passes += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            return REFERENCE_PASS_S * passes / elapsed


def untraced(wl, ops) -> dict:
    """Time each op, then measure the host's speed for a share of its time."""
    tally, latencies, speeds = Tally(wl.known_defects), [], []
    for op in ops:
        elapsed, _, problems = run_op(wl, op)
        if elapsed is not None:
            latencies.append(elapsed)
            speeds.append(host_speed(REFERENCE_SHARE * elapsed))
        tally.add(op, problems)
        if tally.attempted == RSS_OPS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return dict(tally.result(), latency_s=latencies, runs_per_op=wl.runs_per_op,
                host_speed=speeds, peak_rss_mb=peak_rss_mb)


def traced(wl, ops) -> dict:
    from kernels import replay
    from workloads import Spans

    tally, untimed, timed, records, kernel_reasons = Tally(wl.known_defects), [], [], [], set()
    for op in ops:
        spans = Spans()
        # alternate which runs first, so neither side always gets warm caches
        if op.index % 2 == 0:
            elapsed, output, problems = run_op(wl, op)
            rep_s, rep = run_replica(wl, op, spans)
        else:
            rep_s, rep = run_replica(wl, op, spans)
            elapsed, output, problems = run_op(wl, op)
        if rep_s is None:
            problems.append(("replica", f"replica raised {rep}"))
        elif rep.output != output:
            problems.append(("replica", "replica output differs from the op's output"))
        tally.add(op, problems)
        if elapsed is None or rep_s is None:
            continue
        untimed.append(elapsed)
        timed.append(rep_s)

        values = dict(rep.counts)
        values["scene.generate_pot_scene_ms"] = op.scene_s
        if rep.traces:
            steps = sum(len(tr) for tr in rep.traces)
            values["scenario.steps"] = steps
            values["scenario.step_us"] = spans["scenario.run_scenario_ms"] / steps
            handovers = [_first_positive(tr.kappa) for tr in rep.traces]
            handovers = [h for h in handovers if h is not None]
            if handovers:
                values["scenario.handover_step"] = statistics.median(handovers)
            per_call, per_step, reason = replay(rep.traces[-1])
            if reason:
                kernel_reasons.add(reason)
            else:
                values.update(per_call)
                values["scenario.loop_self_us"] = values["scenario.step_us"] - per_step
        records.append({"spans": dict(spans), "values": values})
    return dict(tally.result(), untraced_s=untimed, traced_s=timed, records=records,
                kernel_reasons=sorted(kernel_reasons))


def ops(wl, seconds: float):
    """Fresh inputs, one per op, until the time is up, at least RSS_OPS ops
    have run and a rotation of scenario kinds is complete."""
    start = time.perf_counter()
    j = 0
    while j < RSS_OPS or time.perf_counter() - start < seconds or j % wl.cycle:
        op = wl.build(j)
        try:
            yield op
        finally:
            wl.cleanup(op)
        j += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import soilprobe

    if Path(soilprobe.__file__).resolve().parent != (src / "soilprobe").resolve():
        print(f"error: imported soilprobe from {soilprobe.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WARMUP_INDEX, WORKLOADS

    wl = WORKLOADS[args.workload](Path(args.work_dir), args.seed)
    warmup = wl.build(WARMUP_INDEX)
    wl.run(warmup)
    wl.cleanup(warmup)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        result = {}
    else:
        result = (traced if args.trace else untraced)(wl, ops(wl, args.seconds))
    result["setup_s"] = setup_s
    result["setup_speed"] = host_speed(REFERENCE_SHARE * setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
