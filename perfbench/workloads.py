"""The benchmark's three workloads.

Each workload builds a fresh input per op (untimed), runs the op (timed),
checks the op's outputs against the acceptance suite's own bounds, and can
rebuild the op from the public calls its CLI command makes, timing each
call (the replica used by the traced run).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from soilprobe import cli
from soilprobe.cloud import PointCloud, load_cloud, save_cloud, workspace_filter
from soilprobe.config import load_scenario_config
from soilprobe.ground import (
    detect_ground,
    estimate_to_text,
    extract_ground_estimate,
    fit_plane_ransac,
    refine_ground_band,
)
from soilprobe.scenario import (
    SCENARIO_STIFFNESS,
    format_run_statistics,
    format_summary,
    run_scenario,
    scenario_preset,
    summarize_runs,
    trace_to_csv,
)
from soilprobe.scene import PotSceneParams, generate_pot_scene, scene_bounds

KINDS = ("moist", "dry", "rigid")

# Bounds from tests/test_acceptance.py; the benchmark adds none of its own.
Z_ERR_MAX = 2e-3                  # criterion 01, m
KAPPA_REL_MAX = 0.05              # criterion 06, |kappa * k_env - 1|
RIGID_KAPPA_MAX = 2e-6            # criterion 06, m/N
PEAK_FORCE_MAX = 1.5 * 5.0        # criterion 07, N
KAPPA_REL_STD_MAX = 0.10          # criterion 09

# Criterion 09's sensor-noise levels.
NOISE_CONFIG = (
    "bias_amplitude = 0.3\n"
    "bias_drift_rate = 0.2\n"
    "white_noise_std = 0.02\n"
    "duration = 10\n"
)
SWEEP_REPEATS = 5

# The pipeline's dense cloud: 16x the default scene counts (~95k points),
# with ~5% of rows set to NaN as depth dropouts.
_D = PotSceneParams()
DENSE_SCENE = PotSceneParams(
    n_soil=16 * _D.n_soil,
    n_rim=16 * _D.n_rim,
    n_wall=16 * _D.n_wall,
    n_foliage=16 * _D.n_foliage,
    n_table=16 * _D.n_table,
)
NAN_SHARE = 0.05

# The warm-up op's input comes from its own seed, apart from the timed ops'.
WARMUP_INDEX = 1_000_000


class Spans(dict):
    """Seconds spent per layer within one op, keyed by metric name."""

    def time(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self[name] = self.get(name, 0.0) + time.perf_counter() - start
        return out


@dataclass
class Op:
    """One op's input, built before the op runs."""

    index: int
    kind: str
    seed: int
    path: Path | None = None         # input file
    out: Path | None = None          # where the op writes
    replica_out: Path | None = None  # where the replica writes
    cloud: PointCloud | None = None
    truth: object = None
    scene_s: float = 0.0             # time spent generating the scene


@dataclass
class Replica:
    """What a replica produced: output bytes, per-op counts, and the
    scenario traces it ran (the kernel replay uses the last one)."""

    output: tuple
    counts: dict
    traces: list


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _kappa_problems(kind: str, kappa: float, peak: float, what: str) -> list[tuple[str, str]]:
    """Criterion 06/07 bounds on a (mean) final compliance and peak force."""
    if kind == "rigid":
        out = []
        if not kappa <= RIGID_KAPPA_MAX:
            out.append(("rigid_kappa", f"rigid {what} kappa {kappa:.3g} > {RIGID_KAPPA_MAX:g}"))
        if not peak <= PEAK_FORCE_MAX:
            out.append(("rigid_peak", f"rigid peak force {peak:.3g} N > {PEAK_FORCE_MAX:g} N"))
        return out
    rel = abs(kappa * SCENARIO_STIFFNESS[kind] - 1.0)
    if not rel <= KAPPA_REL_MAX:
        return [("kappa", f"{kind} {what} kappa rel err {rel:.3g} > {KAPPA_REL_MAX:g}")]
    return []


def _detect_replica(cloud: PointCloud, seed: int, spans: Spans):
    """detect_ground, call by call."""
    inside = spans.time("cloud.workspace_filter_ms", workspace_filter, cloud, scene_bounds())
    if len(inside) == 0:
        raise ValueError("no points inside the workspace bounds")
    band = spans.time("ground.refine_ground_band_ms", refine_ground_band, inside)
    plane = spans.time("ground.fit_plane_ransac_ms", fit_plane_ransac, band, seed=seed)
    est = spans.time("ground.extract_ground_estimate_ms", extract_ground_estimate, plane, band)
    counts = {
        "cloud.points_in": len(cloud),
        "cloud.points_kept": len(inside),
        "cloud.keep_ratio": len(inside) / len(cloud),
        "ground.band_points": len(band),
        "ground.inlier_ratio": plane.inlier_count / len(band),
    }
    return est, counts


class Detect:
    """One op: detect_ground on a default-density in-memory scene."""

    cycle = 1
    runs_per_op = 1
    known_defects: frozenset = frozenset()

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def build(self, j: int) -> Op:
        seed = self.seed + j
        start = time.perf_counter()
        cloud, truth = generate_pot_scene(PotSceneParams(), seed=seed)
        scene_s = time.perf_counter() - start
        return Op(j, "", seed, cloud=cloud, truth=truth, scene_s=scene_s)

    def run(self, op: Op):
        return detect_ground(op.cloud, scene_bounds(), seed=op.seed)

    def check(self, op: Op, est) -> list[tuple[str, str]]:
        out = []
        z_err = abs(est.center.z - op.truth.center.z)
        if not z_err <= Z_ERR_MAX:
            out.append(("z_err", f"g_c z error {z_err * 1e3:.3f} mm > {Z_ERR_MAX * 1e3:g} mm"))
        if not est.plane.normal[2] > 0:
            out.append(("normal", f"n_z {est.plane.normal[2]:.3g} <= 0"))
        if est.plane.inlier_count < 3:
            out.append(("inliers", f"{est.plane.inlier_count} inliers < 3"))
        return out

    def output(self, op: Op, est) -> tuple:
        return (estimate_to_text(est).encode(),)

    def replica(self, op: Op, spans: Spans) -> Replica:
        est, counts = _detect_replica(op.cloud, op.seed, spans)
        return Replica((estimate_to_text(est).encode(),), counts, [])

    def cleanup(self, op: Op) -> None:
        pass


class Sweep:
    """One op: `soilprobe bench` over 5 seeds of one kind under criterion-09
    sensor noise; the kind rotates moist, dry, rigid."""

    cycle = len(KINDS)
    runs_per_op = SWEEP_REPEATS
    # Rigid runs under this noise break the criterion 06/07 bounds on about
    # half of all seeds, so nearly every rigid op fails. Recorded, not hidden.
    known_defects = frozenset({"rigid_kappa", "rigid_peak"})

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def build(self, j: int) -> Op:
        path = self.work / f"noise_{j}.cfg"
        path.write_text(NOISE_CONFIG)
        return Op(j, KINDS[j % len(KINDS)], SWEEP_REPEATS * (self.seed + j), path,
                  self.work / f"stats_{j}.txt", self.work / f"stats_{j}_replica.txt")

    def run(self, op: Op) -> int:
        return cli.main(["bench", "--config", str(op.path), "--scenario", op.kind,
                         "--repeats", str(SWEEP_REPEATS), "--seed", str(op.seed),
                         "--out", str(op.out)])

    def check(self, op: Op, code: int) -> list[tuple[str, str]]:
        if code != 0:
            return [("exit", f"exit code {code}")]
        stats = _key_values(op.out.read_text())
        kappa = float(stats[f"{op.kind}.kappa_final.mean"])
        peak = float(stats[f"{op.kind}.peak_force.max"])
        out = _kappa_problems(op.kind, kappa, peak, "mean")
        if op.kind != "rigid":
            rel_std = float(stats[f"{op.kind}.kappa_final.rel_std"])
            if not rel_std <= KAPPA_REL_STD_MAX:
                out.append(("rel_std", f"{op.kind} kappa rel std {rel_std:.3g} > {KAPPA_REL_STD_MAX:g}"))
        return out

    def output(self, op: Op, code: int) -> tuple:
        return (op.out.read_bytes(),)

    def replica(self, op: Op, spans: Spans) -> Replica:
        """cmd_bench, call by call."""
        traces = []
        for i in range(SWEEP_REPEATS):
            cfg = spans.time("config.load_scenario_config_us", load_scenario_config,
                             op.path, scenario=op.kind, seed=op.seed + i)
            traces.append(spans.time("scenario.run_scenario_ms", run_scenario, cfg))
        stats = spans.time("scenario.summarize_runs_us", summarize_runs, traces)
        spans.time("cli.write_artifacts_ms", op.replica_out.write_text, format_run_statistics(stats))
        return Replica((op.replica_out.read_bytes(),), {}, traces)

    def cleanup(self, op: Op) -> None:
        for path in (op.path, op.out, op.replica_out):
            path.unlink(missing_ok=True)


ARTIFACTS = ("estimate.txt", "trace.csv", "summary.txt")


class Pipeline:
    """One op: `soilprobe pipeline` on a fresh dense cloud file; the kind
    rotates moist, dry, rigid."""

    cycle = len(KINDS)
    runs_per_op = 1
    known_defects: frozenset = frozenset()

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def build(self, j: int) -> Op:
        seed = self.seed + j
        start = time.perf_counter()
        cloud, _ = generate_pot_scene(DENSE_SCENE, seed=seed)
        scene_s = time.perf_counter() - start
        points = cloud.points.copy()
        points[np.random.default_rng(seed).random(len(points)) < NAN_SHARE] = np.nan
        path = self.work / f"cloud_{j}.txt"
        save_cloud(PointCloud(points), path)
        return Op(j, KINDS[j % len(KINDS)], seed, path, self.work / f"pipe_{j}",
                  self.work / f"pipe_{j}_replica", scene_s=scene_s)

    def run(self, op: Op) -> int:
        return cli.main(["pipeline", "--input", str(op.path), "--seed", str(op.seed),
                         "--scenario", op.kind, "--out-dir", str(op.out)])

    def check(self, op: Op, code: int) -> list[tuple[str, str]]:
        if code != 0:
            return [("exit", f"exit code {code}")]
        summary = _key_values((op.out / "summary.txt").read_text())
        if summary["failed"] != "false":
            return [("failed", f"run failed: {summary.get('failure_reason', '')}")]
        out = _kappa_problems(op.kind, float(summary["kappa_final"]),
                              float(summary["peak_force"]), "final")
        steps = math.floor(float(summary["duration"]) / float(summary["dt"])) + 1
        with open(op.out / "trace.csv", "rb") as f:
            lines = sum(1 for _ in f)
        if lines != steps + 1:
            out.append(("trace_lines", f"trace has {lines} lines, expected {steps + 1}"))
        return out

    def output(self, op: Op, code: int) -> tuple:
        return tuple((op.out / name).read_bytes() for name in ARTIFACTS)

    def replica(self, op: Op, spans: Spans) -> Replica:
        """cmd_pipeline with --input, call by call."""
        cloud = spans.time("cloud.load_cloud_ms", load_cloud, op.path)
        est, counts = _detect_replica(cloud, op.seed, spans)
        detected_depth = -est.z_at(est.approach.x, est.approach.y)
        cfg = scenario_preset(op.kind, seed=op.seed, surface_true=detected_depth,
                              surface_detected=detected_depth)
        trace = spans.time("scenario.run_scenario_ms", run_scenario, cfg)
        out_dir = op.replica_out
        out_dir.mkdir(parents=True, exist_ok=True)

        def write(name, text):
            spans.time("cli.write_artifacts_ms", (out_dir / name).write_text, text)

        write("estimate.txt", spans.time("ground.estimate_to_text_us", estimate_to_text, est))
        csv = spans.time("scenario.trace_to_csv_ms", trace_to_csv, trace)
        write("trace.csv", csv)
        write("summary.txt", format_summary(trace.summary()))
        counts["scenario.csv_bytes"] = len(csv.encode())
        return Replica(tuple((out_dir / name).read_bytes() for name in ARTIFACTS), counts, [trace])

    def cleanup(self, op: Op) -> None:
        op.path.unlink(missing_ok=True)
        for out_dir in (op.out, op.replica_out):
            for name in ARTIFACTS:
                (out_dir / name).unlink(missing_ok=True)
            if out_dir.exists():
                out_dir.rmdir()


WORKLOADS = {"detect": Detect, "sweep": Sweep, "pipeline": Pipeline}
