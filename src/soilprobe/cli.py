"""Command-line interface.

Subcommands:
  detect    point-cloud scene (file or generated) -> soil surface estimate
  simulate  scenario config -> trace CSV + summary block
  pipeline  scene -> detection -> contact scenario, end to end
  bench     repeated seeded runs -> dispersion statistics

A setting is the first of: its flag, as `--seed 3` or `--seed=3`; its key
in the --config file; the built-in default.  Flag and file share each key's
converter and checks, run before any scene is loaded or run started, so a
fault is one usage error either way: `--seed=-1` is "invalid value for 'seed':
'-1'", `--scenario=muddy` is "unknown scenario kind: 'muddy' (choose from moist,
dry, rigid, custom)"; an empty value such as `--input=` is one too, not "absent".

Exit codes: 0 success, 1 usage/config error, 2 runtime or model error.
Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import pickle
import signal
import sys
from pathlib import Path

from .cloud import load_cloud
from .config import SCENARIO_TYPES, ConfigError, convert_value, read_config, scenario_config, seed
from .ground import detect_ground, estimate_to_text
from .scenario import (
    SCENARIO_KINDS,
    format_run_statistics,
    format_summary,
    run_scenario,
    summary_statistics,
    trace_to_csv,
)
from .scene import PotSceneParams, generate_pot_scene, scene_bounds


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


# the keys each command's --config file accepts, with the converters of their
# text from file or flag; simulate and bench take SCENARIO_TYPES, ScenarioConfig's fields
DETECT_TYPES = {"input": str, "seed": seed, "out": str}
PIPELINE_TYPES = {"input": str, "seed": seed, "scenario": str, "out_dir": str}


def _settings(args: argparse.Namespace, types: dict, **defaults) -> dict:
    """Each key of `types` that has a value: its flag if given, else the
    --config file's value, else its entry in `defaults`."""
    flags = {key: convert_value(key, text, types.get(key, str))
             for key, text in vars(args).items() if isinstance(text, str) and key != "command"}
    given = read_config(flags["config"], types) if "config" in flags else {}
    return {**defaults, **given, **{key: flags[key] for key in types if key in flags}}


def _detect_scene(path: str | None, seed: int):
    """The soil estimate of the input file's scene, or of a generated one
    with the run's seed, and the generated scene's truth (None for a file).
    """
    if path:
        cloud, truth = load_cloud(path), None
        _info(f"loaded {len(cloud)} points from {path}")
    else:
        cloud, truth = generate_pot_scene(PotSceneParams(), seed=seed)
        _info(f"generated scene with {len(cloud)} points (seed {seed})")
    return detect_ground(cloud, scene_bounds(), seed=seed), truth


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_detect(args: argparse.Namespace) -> int:
    settings = _settings(args, DETECT_TYPES, seed=0)
    est, _ = _detect_scene(settings.get("input"), settings["seed"])
    _info(f"plane fit with {est.plane.inlier_count} inliers")
    out = settings.get("out")
    _write_text(out, estimate_to_text(est))
    if out:
        _info(f"estimate written to {out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = scenario_config(**_settings(args, SCENARIO_TYPES))
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
    settings = _settings(args, PIPELINE_TYPES, seed=0, scenario="moist", out_dir="pipeline_out")
    cfg = scenario_config(settings["scenario"], seed=settings["seed"])
    est, truth = _detect_scene(settings.get("input"), cfg.seed)
    _info(f"detected soil plane: z={est.center.z:.4f} m, {est.plane.inlier_count} inliers")

    # the probe descends along -z; the scenario runs on a depth axis where
    # larger values penetrate deeper, so surfaces map through a sign flip
    detected_depth = -est.z_at(est.approach.x, est.approach.y)
    true_depth = -truth.center.z if truth is not None else detected_depth
    cfg = dataclasses.replace(cfg, surface_true=true_depth, surface_detected=detected_depth)
    trace = run_scenario(cfg)
    if trace.failed:
        _info(f"run failed: {trace.failure_reason}")

    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "estimate.txt").write_text(estimate_to_text(est))
    (out_dir / "trace.csv").write_text(trace_to_csv(trace))
    (out_dir / "summary.txt").write_text(format_summary(trace.summary()))
    _info(f"artifacts written to {out_dir}")
    return 0 if not trace.failed else 2


def _bench_runs(base, repeats: int) -> list:
    """The summaries of the runs of seeds base.seed + i, i < repeats, in seed
    order, cut after the first run that raised, whose exception ends the list.

    Run i goes to lane i % k, with k the number of CPUs this process may run
    on, but at most repeats.  This process runs lane 0 and a forked child
    each other lane.  A child sends its lane's results back through a pipe
    as one pickle and leaves with os._exit; one that ends without sending
    them gives a RuntimeError that names its seeds and its signal or exit
    code, in place of its lane's first run.  No child outlives the call.
    """
    if hasattr(os, "sched_getaffinity"):
        lanes = min(len(os.sched_getaffinity(0)), repeats)
    else:
        lanes = min(os.cpu_count() or 1, repeats)

    def lane(j: int) -> list:
        out = []
        try:
            for i in range(j, repeats, lanes):
                out.append(run_scenario(dataclasses.replace(base, seed=base.seed + i)).summary())
        except Exception as err:  # raised by cmd_bench where the run falls in seed order
            out.append(err)
        return out

    pids, pipes, running = [], [], []
    # output still buffered here would otherwise be the children's too
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for j in range(1, lanes):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as out:  # the parent's copy closes after the fork
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        out.write(pickle.dumps(lane(j)))
                        out.flush()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
            running.append(pid)
        results = [lane(0)]
        for j, (pid, pipe) in enumerate(zip(pids, pipes), start=1):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code == 0:
                results.append(pickle.loads(data))
                continue
            if code < 0:
                how = f"was killed by {signal.Signals(-code).name}"
            else:
                how = f"exited with code {code}"
            seeds = [str(base.seed + i) for i in range(j, repeats, lanes)]
            results.append([RuntimeError(
                f"the process running seed{'s' * (len(seeds) > 1)} {', '.join(seeds)} {how} "
                "before it sent its runs")])
    finally:
        for pipe in pipes:
            pipe.close()
        if running:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    ordered = []
    for i in range(repeats):
        ordered.append(results[i % lanes][i // lanes])
        if isinstance(ordered[-1], Exception):
            break
    return ordered


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the scenario at --repeats consecutive seeds and write the
    per-kind statistics of their summaries.

    The runs are spread over the CPUs this process may use (_bench_runs);
    the output, the `seed N: failed` lines, their order, the exit code and
    an error a run raises are those of running the seeds one after another
    in this process, for any number of CPUs.
    """
    base = scenario_config(**_settings(args, SCENARIO_TYPES))
    summaries = []
    for result in _bench_runs(base, args.repeats):
        if isinstance(result, Exception):
            raise result
        if result["failed"]:
            _info(f"seed {result['seed']}: failed ({result['failure_reason']})")
        summaries.append(result)
    _write_text(args.out, format_run_statistics(summary_statistics(summaries)))
    if args.out:
        _info(f"statistics written to {args.out}")
    return 0 if not any(s["failed"] for s in summaries) else 2


def _repeat_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return count


# built once per process: parsing leaves the parser unchanged, and building
# it costs more than a short command's own work
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soilprobe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scene=False, scenario=False):
        p.add_argument("--seed",
                       help="seed for generation and fitting (default: the config file's, else 0)")
        p.add_argument("--config", help="key=value config file (flags override)")
        if scene:
            p.add_argument("--input", help="point-cloud text file (x,y,z per line)")
        if scenario:
            p.add_argument("--scenario", help=f"scenario preset: {', '.join(SCENARIO_KINDS)}")

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
