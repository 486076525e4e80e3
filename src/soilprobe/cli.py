"""Command-line interface.

Subcommands:
  detect    point-cloud scene (file or generated) -> soil surface estimate
  simulate  scenario config -> trace CSV + summary block
  pipeline  scene -> detection -> contact scenario, end to end
  bench     repeated seeded runs -> dispersion statistics

A flag given on the command line, as `--seed 3` or `--seed=3`, beats the
same key in the --config file, and the file beats the built-in default.

Exit codes: 0 success, 1 usage/config error, 2 runtime or model error.
Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .cloud import load_cloud
from .config import ConfigError, load_scenario_config, read_config
from .ground import detect_ground, estimate_to_text
from .scenario import (
    SCENARIO_KINDS,
    ScenarioConfig,
    format_run_statistics,
    format_summary,
    run_scenario,
    scenario_preset,
    summarize_runs,
    trace_to_csv,
)
from .scene import PotSceneParams, generate_pot_scene, scene_bounds


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fill_from_config(args: argparse.Namespace, types: dict[str, type], **defaults) -> None:
    """Fill each flag left unset from the --config file, else from `defaults`.

    `types` maps the keys the command's file accepts to their value types.
    A flag given on the command line, in either spelling, keeps its value.
    """
    given = read_config(Path(args.config).read_text(), types) if args.config else {}
    if given.get("scenario") not in (None, *SCENARIO_KINDS):
        raise ConfigError(f"invalid value for 'scenario': {given['scenario']!r} "
                          f"(choose from {', '.join(SCENARIO_KINDS)})")
    for key in types:
        if getattr(args, key) is None:
            setattr(args, key, given.get(key, defaults.get(key)))


def _load_scene(args: argparse.Namespace):
    """Scene from --input file, or a generated one with the run's seed."""
    if args.input:
        cloud = load_cloud(args.input)
        _info(f"loaded {len(cloud)} points from {args.input}")
        return cloud, None
    cloud, truth = generate_pot_scene(PotSceneParams(), seed=args.seed)
    _info(f"generated scene with {len(cloud)} points (seed {args.seed})")
    return cloud, truth


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_detect(args: argparse.Namespace) -> int:
    _fill_from_config(args, {"input": str, "seed": int, "out": str}, seed=0)
    cloud, _ = _load_scene(args)
    est = detect_ground(cloud, scene_bounds(), seed=args.seed)
    _info(f"plane fit with {est.plane.inlier_count} inliers")
    _write_text(args.out, estimate_to_text(est))
    if args.out:
        _info(f"estimate written to {args.out}")
    return 0


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    """The --config file's scenario, else a preset, with the given flags
    applied over it."""
    flags = {key: getattr(args, key) for key in ("scenario", "seed")
             if getattr(args, key) is not None}
    if args.config:
        return load_scenario_config(args.config, **flags)
    return scenario_preset(flags.pop("scenario", "custom"), **flags)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _scenario_config(args)
    trace = run_scenario(cfg)
    if trace.failed:
        _info(f"run failed: {trace.failure_reason} (trace truncated at {len(trace)} samples)")
    _write_text(args.out, trace_to_csv(trace))
    if args.out:
        _info(f"trace written to {args.out}")
    # the summary goes to --summary if given, else to stdout once --out frees it
    if args.summary or args.out:
        _write_text(args.summary, format_summary(trace.summary()))
    return 0 if not trace.failed else 2


def cmd_pipeline(args: argparse.Namespace) -> int:
    _fill_from_config(args, {"input": str, "seed": int, "scenario": str, "out_dir": str},
                      seed=0, scenario="moist", out_dir="pipeline_out")
    cloud, truth = _load_scene(args)
    est = detect_ground(cloud, scene_bounds(), seed=args.seed)
    _info(f"detected soil plane: z={est.center.z:.4f} m, {est.plane.inlier_count} inliers")

    # the probe descends along -z; the scenario runs on a depth axis where
    # larger values penetrate deeper, so surfaces map through a sign flip
    detected_depth = -est.z_at(est.approach.x, est.approach.y)
    true_depth = -truth.center.z if truth is not None else detected_depth
    cfg = scenario_preset(
        args.scenario,
        seed=args.seed,
        surface_true=true_depth,
        surface_detected=detected_depth,
    )
    trace = run_scenario(cfg)
    if trace.failed:
        _info(f"run failed: {trace.failure_reason}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "estimate.txt").write_text(estimate_to_text(est))
    (out_dir / "trace.csv").write_text(trace_to_csv(trace))
    (out_dir / "summary.txt").write_text(format_summary(trace.summary()))
    _info(f"artifacts written to {out_dir}")
    return 0 if not trace.failed else 2


def cmd_bench(args: argparse.Namespace) -> int:
    base = _scenario_config(args)
    traces = []
    failures = 0
    for i in range(args.repeats):
        cfg = dataclasses.replace(base, seed=base.seed + i)
        trace = run_scenario(cfg)
        if trace.failed:
            failures += 1
            _info(f"seed {cfg.seed}: failed ({trace.failure_reason})")
        traces.append(trace)
    stats = summarize_runs(traces)
    _write_text(args.out, format_run_statistics(stats))
    if args.out:
        _info(f"statistics written to {args.out}")
    return 0 if failures == 0 else 2


def _repeat_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soilprobe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scene=False, scenario=False):
        p.add_argument("--seed", type=int,
                       help="seed for generation and fitting (default: the config file's, else 0)")
        p.add_argument("--config", help="key=value config file (flags override)")
        if scene:
            p.add_argument("--input", help="point-cloud text file (x,y,z per line)")
        if scenario:
            p.add_argument("--scenario", choices=SCENARIO_KINDS, help="scenario preset")

    p = sub.add_parser("detect", help="estimate the soil surface from a point cloud")
    add_common(p, scene=True)
    p.add_argument("--out", help="estimate record path (default: stdout)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="run one contact scenario")
    add_common(p, scenario=True)
    p.add_argument("--out", help="trace CSV path (default: stdout)")
    p.add_argument("--summary",
                   help="summary block path (default: stdout when --out is given, else none)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="scene -> detection -> contact scenario")
    add_common(p, scene=True, scenario=True)
    p.add_argument("--out-dir", dest="out_dir",
                   help="directory for estimate/trace/summary artifacts (default: pipeline_out)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("bench", help="repeat a scenario across seeds and summarize")
    add_common(p, scenario=True)
    p.add_argument("--repeats", type=_repeat_count, default=5,
                   help="number of seeded repetitions")
    p.add_argument("--out", help="statistics path (default: stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
