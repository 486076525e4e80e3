import dataclasses
import lzma
import os
import re
import signal
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soilprobe import cli
from soilprobe.cli import DETECT_TYPES, PIPELINE_TYPES, main
from soilprobe.cloud import PointCloud, save_cloud
from soilprobe.config import SCENARIO_TYPES, load_scenario_config
from soilprobe.scenario import (
    CONTACT_THRESHOLD,
    MAX_STEPS,
    ScenarioConfig,
    format_run_statistics,
    run_scenario,
    summarize_runs,
)
from soilprobe.scene import PotSceneParams, generate_pot_scene

CSV_HEADER = "t,x_r,x_c,x,f_true,f_meas,e,kappa,stiffness_est"

# both argparse spellings of one flag
SEED_SPELLINGS = [("--seed", "5"), ("--seed=5",)]


def run(*argv):
    return main(list(argv))


def test_detect_generated_scene(tmp_path):
    out = tmp_path / "estimate.txt"
    assert run("detect", "--seed", "7", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys == ["normal", "d", "g_c", "g_min", "approach", "inlier_count"]


def test_detect_from_input_file(tmp_path):
    cloud, _ = generate_pot_scene(seed=3)
    scene = tmp_path / "scene.txt"
    save_cloud(cloud, scene)
    out = tmp_path / "estimate.txt"
    assert run("detect", "--input", str(scene), "--seed", "3", "--out", str(out)) == 0
    assert "inlier_count=" in out.read_text()


def test_detect_stdout(capsys):
    assert run("detect", "--seed", "1") == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("normal=")
    assert "generated scene" in captured.err


def test_detect_flag_overrides_config(tmp_path):
    cfg = tmp_path / "detect.cfg"
    cfg.write_text("seed = 3\n")
    flag = tmp_path / "flag.txt"
    plain = tmp_path / "plain.txt"
    from_cfg = tmp_path / "cfg.txt"
    assert run("detect", "--seed", "5", "--out", str(plain)) == 0
    for spelling in SEED_SPELLINGS:
        assert run("detect", "--config", str(cfg), *spelling, "--out", str(flag)) == 0
        assert flag.read_bytes() == plain.read_bytes(), spelling
    assert run("detect", "--config", str(cfg), "--out", str(from_cfg)) == 0
    seed3 = tmp_path / "seed3.txt"
    assert run("detect", "--seed", "3", "--out", str(seed3)) == 0
    assert from_cfg.read_bytes() == seed3.read_bytes()


def test_simulate_writes_contracted_csv(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = moist\nduration = 1.0\n")
    out = tmp_path / "trace.csv"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1002
    summary = capsys.readouterr().out
    assert "scenario=moist" in summary.splitlines()


def test_simulate_scenario_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = moist\nduration = 1.0\n")
    out = tmp_path / "trace.csv"
    assert run("simulate", "--config", str(cfg), "--scenario", "dry", "--out", str(out)) == 0
    summary = capsys.readouterr().out
    assert "env_stiffness=5000" in summary


@pytest.mark.parametrize("spelling", SEED_SPELLINGS, ids=["space", "equals"])
def test_simulate_seed_flag_overrides_config(tmp_path, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nduration = 0.01\n")
    summary = tmp_path / "summary.txt"
    assert run("simulate", "--config", str(cfg), *spelling, "--summary", str(summary)) == 0
    assert "seed=5" in summary.read_text().splitlines()


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag_seed=st.none() | st.integers(0, 10**6), equals=st.booleans(),
       file_seed=st.none() | st.integers(0, 10**6))
def test_seed_precedence_flag_then_file_then_default(tmp_path, flag_seed, equals, file_seed):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("duration = 0.01\n" + ("" if file_seed is None else f"seed = {file_seed}\n"))
    summary = tmp_path / "summary.txt"
    flag = []
    if flag_seed is not None:
        flag = [f"--seed={flag_seed}"] if equals else ["--seed", str(flag_seed)]
    assert run("simulate", "--config", str(cfg), *flag, "--summary", str(summary)) == 0
    expected = next(seed for seed in (flag_seed, file_seed, 0) if seed is not None)
    assert f"seed={expected}" in summary.read_text().splitlines()


def test_simulate_summary_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("duration = 1.0\n")
    summary = tmp_path / "summary.txt"
    assert run("simulate", "--config", str(cfg), "--summary", str(summary)) == 0
    assert "steady_state_error=" in summary.read_text()


def test_simulate_summary_file_with_out(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("duration = 1.0\n")
    out, summary = tmp_path / "trace.csv", tmp_path / "summary.txt"
    assert run("simulate", "--config", str(cfg), "--out", str(out), "--summary", str(summary)) == 0
    assert out.read_text().startswith(CSV_HEADER)
    assert "steady_state_error=" in summary.read_text()
    assert capsys.readouterr().out == ""


def test_simulate_divergence_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("duration = 5.0\ndt = 0.008\n")
    out = tmp_path / "trace.csv"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 2


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = dry\nduration = 1.0\nwhite_noise_std = 0.02\nseed = 6\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("simulate", "--config", str(cfg), "--out", str(a)) == 0
    assert run("simulate", "--config", str(cfg), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


COMMAND_TYPES = {"detect": DETECT_TYPES, "simulate": SCENARIO_TYPES,
                 "pipeline": PIPELINE_TYPES, "bench": SCENARIO_TYPES}


def config_faults(types: dict) -> dict:
    """Config file texts that are usage errors for a command that accepts
    the keys of `types`, each with its error message."""
    faults = {
        "stifness = 100\n": "unknown config key: 'stifness'",
        "generate = true\n": "unknown config key: 'generate'",
        # the adaptation law's signs are fixed
        "drive_sign = 1\n": "unknown config key: 'drive_sign'",
        "rate_sign = 1\n": "unknown config key: 'rate_sign'",
        "seed = 1.5\n": "invalid value for 'seed': '1.5'",
        "seed = 1\nseed = 2\n": "duplicate config key: 'seed'",
        "seed = -2\n": "invalid value for 'seed': '-2'",
    }
    for key in types:
        faults[f"{key} =\n"] = f"invalid value for '{key}': ''"
    # the controller tuning, the approach speeds and the contact threshold
    # are constants of soilprobe.scenario, and the robot has no lag: not keys
    for key in ("mass", "damping", "stiffness", "drive_gain", "drive_rate_gain", "error_weight",
                "error_rate_weight", "deriv_filter_tau", "approach_speed", "contact_speed",
                "decel_band", "contact_threshold", "tracking_tau"):
        faults[f"{key} = 1\n"] = f"unknown config key: '{key}'"
    if "scenario" in types:
        faults["scenario = muddy\n"] = \
            "unknown scenario kind: 'muddy' (choose from moist, dry, rigid, custom)"
    return faults


def command_help(capsys, command: str) -> str:
    capsys.readouterr()
    assert run(command, "--help") == 0
    return capsys.readouterr().out


def command_flags(capsys, command: str) -> list:
    """The command's flags, as its --help lists them, --help itself aside."""
    return re.findall(r"^  (--[a-z-]+)", command_help(capsys, command), re.MULTILINE)


@pytest.mark.parametrize("command", COMMAND_TYPES)
def test_config_faults_exit_1_on_every_command(tmp_path, capsys, command):
    """Every command reads its settings through one path: the same fault
    exits 1 with the same message, before any scene or run is made."""
    out = tmp_path / "out"
    out_flag = ["--out-dir" if command == "pipeline" else "--out", str(out)]
    cfg = tmp_path / "bad.cfg"
    for text, message in config_faults(COMMAND_TYPES[command]).items():
        cfg.write_text(text)
        assert run(command, "--config", str(cfg), *out_flag) == 1, text
        assert capsys.readouterr().err == f"error: {message}\n", text
    for spelling in (["--seed=-1"], ["--seed", "-1"]):
        assert run(command, *spelling, *out_flag) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: invalid value for 'seed': '-1'"
    assert not out.exists()


@pytest.mark.parametrize("command", COMMAND_TYPES)
def test_flag_faults_read_as_the_config_file_faults(tmp_path, capsys, monkeypatch, command):
    """A flag's text goes through its key's converter, as the file's does:
    each fault of a key that has a flag exits 1 with the file's one error
    line, as `--key=value` and as `--key value`, and an empty flag-only
    value names its key.  No scene is generated or loaded, no run starts
    and nothing is written."""
    def no_scene_or_run(*args, **kwargs):
        raise AssertionError("a scene was made or a run started")

    for name in ("generate_pot_scene", "load_cloud", "run_scenario"):
        monkeypatch.setattr(cli, name, no_scene_or_run)
    types = COMMAND_TYPES[command]
    flags = command_flags(capsys, command)
    cfg = tmp_path / "bad.cfg"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    checked = set()
    for text, message in config_faults(types).items():
        key, value = (part.strip() for part in text.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if "\n" in value or flag not in flags:
            continue
        cfg.write_text(text)
        for argv in (["--config", str(cfg)], [f"{flag}={value}"], [flag, value]):
            assert run(command, *argv) == 1, argv
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv
        checked.add(key)
    assert checked == {key for key in types if "--" + key.replace("_", "-") in flags}
    for key in ("config", "out", "summary"):
        if f"--{key}" in flags:
            for argv in ([f"--{key}="], [f"--{key}", ""]):
                assert run(command, *argv) == 1, argv
                assert capsys.readouterr() == ("", f"error: invalid value for '{key}': ''\n"), argv
    assert not any(cwd.iterdir())


@pytest.mark.parametrize("command, line", [("simulate", "steady_state_error="),
                                           ("bench", "custom.steady_state_error.mean=")],
                         ids=["simulate", "bench"])
def test_a_subnormal_dt_run_ends_with_its_summary(tmp_path, capsys, command, line):
    # 0.5 / dt overflows to inf, so the summary's 0.5 s tail is the whole trace
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("duration = 1e-317\ndt = 1e-320\n")
    out = tmp_path / "out"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 0
    summary = capsys.readouterr().out if command == "simulate" else out.read_text()
    assert any(row.startswith(line) for row in summary.splitlines())


def test_readme_config_table_matches_the_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config files\n", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            commands, keys = line.strip("|").split("|")
            rows[tuple(re.findall(r"`(\w+)`", commands))] = re.findall(r"`([a-z_]+)`", keys)
    assert rows[("detect",)] == list(DETECT_TYPES)
    assert rows[("pipeline",)] == list(PIPELINE_TYPES)
    named = rows[("simulate", "bench")]
    assert named and set(named) <= {field.name for field in dataclasses.fields(ScenarioConfig)}


def test_readme_usage_block_matches_the_parser(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```\n", 2)[1]
    listed = {}
    for line in block.splitlines():
        if line.startswith("soilprobe "):
            command = line.split()[1]
        listed.setdefault(command, []).extend(re.findall(r"--[a-z][a-z-]*", line))
    assert list(listed) == list(COMMAND_TYPES)
    for command, flags in listed.items():
        assert sorted(flags) == sorted(command_flags(capsys, command)), command
    # --scenario takes any text, so its help names the kinds
    for command in ("simulate", "pipeline", "bench"):
        text = command_help(capsys, command)
        assert all(kind in text for kind in ("moist", "dry", "rigid", "custom")), command


def test_malformed_config_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert run("simulate", "--config", str(cfg)) == 1


def test_non_finite_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, name in (("duration = inf", "duration"),
                       ("duration = 1e300\ndt = 1e-10", "duration / dt"),
                       ("dt = nan", "dt"),
                       ("surface_detected = nan", "surface_detected"),
                       ("surface_true = inf", "surface_true"),
                       ("surface_detected = -1.7e308\napproach_height = 1e308",
                        "surface_detected - approach_height")):
        cfg.write_text(text + "\n")
        capsys.readouterr()
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 1, text
        assert f"error: {name} must be finite" in capsys.readouterr().err, text
    # the keys of removed fields are unknown, whatever their value
    for key in ("tracking_tau", "contact_threshold"):
        cfg.write_text(f"{key} = nan\n")
        capsys.readouterr()
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 1, key
        assert capsys.readouterr().err == f"error: unknown config key: '{key}'\n", key


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize("text", [
    "duration = 1e300",
    # dt = 2**-10 makes duration / dt exact: MAX_STEPS + 1 steps
    f"dt = {2**-10}\nduration = {MAX_STEPS * 2**-10}",
], ids=["1e300", "one-step-over"])
def test_too_many_steps_exit_1_before_any_run(tmp_path, capsys, monkeypatch, command, text):
    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    cfg = tmp_path / "long.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run(command, "--config", str(cfg), "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: duration / dt gives more than MAX_STEPS = {MAX_STEPS} steps\n"
    assert peak < 2**20  # no trace or noise buffer, not even a partial one
    assert not out.exists()


SETPOINT_AT_OR_BELOW = f"force_setpoint must be above CONTACT_THRESHOLD = {CONTACT_THRESHOLD}"


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize("text, message", [
    ("force_setpoint = -5", SETPOINT_AT_OR_BELOW),
    ("force_setpoint = 0", SETPOINT_AT_OR_BELOW),
    ("force_setpoint = 1e-9", SETPOINT_AT_OR_BELOW),
    (f"force_setpoint = {CONTACT_THRESHOLD}", SETPOINT_AT_OR_BELOW),
    # the threshold is a constant, so no file can raise it above the setpoint
    ("contact_threshold = 50", "unknown config key: 'contact_threshold'"),
], ids=["setpoint-negative", "setpoint-zero", "setpoint-below-threshold", "setpoint-at-threshold",
        "threshold-above-setpoint"])
def test_setpoint_at_or_below_the_contact_threshold_exits_1(tmp_path, capsys, monkeypatch, command,
                                                            text, message):
    # Without these checks each of these moist runs ended its 10 s with
    # failed=false and stiffness_final=inf, exit 0: at -5 N the force peaked
    # at 3.18e14 N, and in the others it stayed below 1.8 N.  Now no run
    # starts.
    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    cfg = tmp_path / "setpoint.cfg"
    cfg.write_text(f"scenario = moist\n{text}\n")
    out = tmp_path / "out"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert run("simulate", "--config", str(tmp_path / "absent.cfg")) == 2


def test_unreadable_input_exits_2_with_its_reason(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    assert run("detect", "--input", str(missing)) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    # a .gz name is read as gzip: plain text under it is not a cloud
    fake = tmp_path / "scene.gz"
    fake.write_text("0.1,0.2,0.3\n")
    assert run("detect", "--input", str(fake)) == 2
    assert "Not a gzipped file" in capsys.readouterr().err
    # a cut-off xz stream is named too, where lzma's own error would escape
    cut = tmp_path / "scene.xz"
    cut.write_bytes(lzma.compress(b"0.1,0.2,0.3\n")[:-8])
    assert run("detect", "--input", str(cut)) == 2
    assert capsys.readouterr().err.startswith(f"error: {cut}: Compressed file ended")


def write_cloud_outside_the_workspace(path, kind):
    if kind == "empty":
        path.write_text("")
    elif kind == "all_nan":
        save_cloud(PointCloud(np.full((50, 3), np.nan)), path)
    else:  # a default scene moved 1 m along x, beyond the box
        save_cloud(PointCloud(generate_pot_scene(seed=0)[0].points + [1.0, 0.0, 0.0]), path)


@pytest.mark.parametrize("kind", ["empty", "all_nan", "shifted"])
@pytest.mark.parametrize("command", ["detect", "pipeline"])
def test_input_without_workspace_points_exits_2(tmp_path, capsys, command, kind):
    cloud = tmp_path / "cloud.txt"
    write_cloud_outside_the_workspace(cloud, kind)
    out = tmp_path / "out"
    target = ["--out-dir", str(out)] if command == "pipeline" else ["--out", str(out)]
    assert run(command, "--input", str(cloud), *target) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: no points inside the workspace bounds"]
    assert not out.exists()


def test_usage_errors_exit_1(capsys):
    assert run() == 1
    assert run("simulate", "--scenario", "muddy") == 1
    assert run("detect", "--generate") == 1
    for repeats in ("0", "-2", "abc"):
        capsys.readouterr()
        assert run("bench", "--repeats", repeats) == 1
        assert "--repeats" in capsys.readouterr().err
    assert run("--help") == 0


def test_bench_statistics(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = moist\nduration = 1.0\n")
    out = tmp_path / "stats.txt"
    assert run("bench", "--config", str(cfg), "--repeats", "3", "--seed", "1",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "moist.runs=3"
    assert any(line.startswith("moist.kappa_final.mean=") for line in lines)


def test_bench_statistics_of_huge_finite_values_are_finite(tmp_path, capsys):
    # dt = 0.003 overflows no step, but every run peaks at 2.33e176 N, and a
    # plain np.std squares their mean's rounding residue past the largest float
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("dt = 0.003\nduration = 10\n")
    out = tmp_path / "stats.txt"
    assert run("bench", "--config", str(cfg), "--scenario", "moist", "--repeats", "3",
               "--out", str(out)) == 0
    assert "Warning" not in capsys.readouterr().err
    stats = dict(line.split("=") for line in out.read_text().splitlines())
    for metric in ("peak_force", "steady_state_error"):
        assert float(stats[f"moist.{metric}.mean"]) > 1e176
        assert 0.0 <= float(stats[f"moist.{metric}.std"]) < 1e-15 * 1e177


def test_bench_divergence_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("duration = 5\ndt = 0.008\n")
    assert run("bench", "--config", str(cfg), "--repeats", "1",
               "--out", str(tmp_path / "stats.txt")) == 2
    assert "seed 0: failed (adaptation diverged)" in capsys.readouterr().err


def test_bench_starts_at_flag_then_file_seed(tmp_path):
    noise = "scenario = moist\nduration = 1.0\nwhite_noise_std = 0.02\n"
    with_seed, without_seed = tmp_path / "seed.cfg", tmp_path / "plain.cfg"
    with_seed.write_text(noise + "seed = 4\n")
    without_seed.write_text(noise)
    outs = [tmp_path / f"{name}.txt" for name in ("file", "flag", "default")]
    assert run("bench", "--config", str(with_seed), "--repeats", "2", "--out", str(outs[0])) == 0
    assert run("bench", "--config", str(without_seed), "--repeats", "2", "--seed=4",
               "--out", str(outs[1])) == 0
    assert run("bench", "--config", str(without_seed), "--repeats", "2",
               "--out", str(outs[2])) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() != outs[2].read_bytes()


def test_bench_reruns_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = moist\nduration = 1.0\nbias_amplitude = 0.3\n")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("bench", "--config", str(cfg), "--repeats", "2", "--out", str(a)) == 0
    assert run("bench", "--config", str(cfg), "--repeats", "2", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# criterion 09's sensor noise on runs short enough to repeat often, and a
# step so coarse that every seed diverges
BENCH_NOISE = "bias_amplitude = 0.3\nbias_drift_rate = 0.2\nwhite_noise_std = 0.02\nduration = 1\n"
BENCH_CONFIGS = {**{kind: f"scenario = {kind}\n{BENCH_NOISE}" for kind in ("moist", "dry", "rigid")},
                 "diverging": "duration = 5\ndt = 0.008\n"}


def serial_bench(path, repeats, seed):
    """What `bench` writes, from run_scenario and summarize_runs one seed
    after another: the statistics, the failure lines and the exit code."""
    traces = [run_scenario(load_scenario_config(path, seed=seed + i)) for i in range(repeats)]
    failed = [f"seed {tr.config.seed}: failed ({tr.failure_reason})" for tr in traces if tr.failed]
    return format_run_statistics(summarize_runs(traces)).encode(), failed, 2 if failed else 0


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def counted_forks(monkeypatch) -> list:
    """The pids os.fork returns to this process from now on."""
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("config", BENCH_CONFIGS)
def test_bench_output_does_not_depend_on_the_cpu_count(tmp_path, capsys, monkeypatch, config):
    path, out = tmp_path / "run.cfg", tmp_path / "stats.txt"
    path.write_text(BENCH_CONFIGS[config])
    forks = counted_forks(monkeypatch)
    for repeats in (1, 2, 3, 5, 7):
        stats, failed, code = serial_bench(path, repeats, seed=3)
        for cpus in (1, 2, 3, 64):
            usable_cpus(monkeypatch, cpus)
            forks.clear()
            assert run("bench", "--config", str(path), "--repeats", str(repeats), "--seed", "3",
                       "--out", str(out)) == code, (repeats, cpus)
            assert out.read_bytes() == stats, (repeats, cpus)
            assert capsys.readouterr() == ("", "".join(f"{line}\n" for line in failed)
                                           + f"statistics written to {out}\n"), (repeats, cpus)
            # one lane per CPU, at most one per run; this process runs one
            assert len(forks) == min(cpus, repeats) - 1, (repeats, cpus)


def break_runs(monkeypatch, fault):
    """Make cli's run_scenario call fault(cfg) first; forked children
    inherit the patch."""
    run_scenario = cli.run_scenario

    def faulty(cfg):
        fault(cfg)
        return run_scenario(cfg)

    monkeypatch.setattr(cli, "run_scenario", faulty)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_bench_raises_a_run_error_where_the_serial_loop_does(tmp_path, capsys, monkeypatch, cpus):
    # seeds 0 and 1 fail and are reported, seed 2 raises, and nothing after
    # it is reported, whichever lane ran each seed
    path = tmp_path / "run.cfg"
    path.write_text(BENCH_CONFIGS["diverging"])

    def fault(cfg):
        if cfg.seed == 2:
            raise ValueError("seed 2 is broken")

    break_runs(monkeypatch, fault)
    usable_cpus(monkeypatch, cpus)
    assert run("bench", "--config", str(path), "--repeats", "5",
               "--out", str(tmp_path / "stats.txt")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "seed 0: failed (adaptation diverged)", "seed 1: failed (adaptation diverged)",
        "error: seed 2 is broken"]
    assert not (tmp_path / "stats.txt").exists()


@pytest.mark.parametrize("cpus", [2, 3])
def test_bench_names_a_child_that_was_killed(tmp_path, capsys, monkeypatch, cpus):
    parent = os.getpid()

    def fault(cfg):
        if cfg.seed == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    break_runs(monkeypatch, fault)
    usable_cpus(monkeypatch, cpus)
    assert run("bench", "--scenario", "moist", "--repeats", "5", "--seed", "0") == 2
    seeds = "1, 3" if cpus == 2 else "1, 4"
    assert capsys.readouterr().err.splitlines() == [
        f"error: the process running seeds {seeds} was killed by SIGKILL before it sent its runs"]


def test_bench_kills_its_children_when_it_is_interrupted(tmp_path, monkeypatch):
    class Interrupt(BaseException):
        pass

    parent = os.getpid()

    def fault(cfg):
        if os.getpid() != parent:
            time.sleep(60)  # a child that would outlive the call if not killed
        raise Interrupt

    break_runs(monkeypatch, fault)
    usable_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(Interrupt):
        run("bench", "--scenario", "moist", "--repeats", "2")
    assert time.monotonic() - start < 30


def test_pipeline_emits_all_artifacts(tmp_path):
    out_dir = tmp_path / "run"
    assert run("pipeline", "--seed", "2", "--scenario", "moist",
               "--out-dir", str(out_dir)) == 0
    estimate = (out_dir / "estimate.txt").read_text()
    trace = (out_dir / "trace.csv").read_text()
    summary = (out_dir / "summary.txt").read_text()
    assert estimate.startswith("normal=")
    assert trace.splitlines()[0] == CSV_HEADER
    assert "steady_state_error=" in summary
    # the detected surface fed the scenario: converged to the setpoint
    sse = float(next(line.split("=")[1] for line in summary.splitlines()
                     if line.startswith("steady_state_error=")))
    assert sse <= 0.1


@pytest.mark.parametrize("from_file", [False, True], ids=["generated", "input"])
def test_pipeline_hands_the_loop_python_floats(tmp_path, monkeypatch, from_file):
    configs = []
    real_run = cli.run_scenario
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: configs.append(cfg) or real_run(cfg))
    args = ["pipeline", "--seed", "3", "--out-dir", str(tmp_path / "run")]
    if from_file:
        cloud, _ = generate_pot_scene(seed=3)
        save_cloud(cloud, tmp_path / "scene.txt")
        args += ["--input", str(tmp_path / "scene.txt")]
    assert run(*args) == 0
    [cfg] = configs
    assert type(cfg.surface_true) is float
    assert type(cfg.surface_detected) is float


@pytest.mark.parametrize("spelling", SEED_SPELLINGS, ids=["space", "equals"])
def test_pipeline_flag_overrides_config(tmp_path, spelling):
    cfg = tmp_path / "pipe.cfg"
    out_dir = tmp_path / "from_file"
    cfg.write_text(f"seed = 1\nscenario = dry\nout_dir = {out_dir}\n")
    assert run("pipeline", "--config", str(cfg), *spelling) == 0
    summary = (out_dir / "summary.txt").read_text().splitlines()
    assert "seed=5" in summary
    assert "scenario=dry" in summary


def test_pipeline_detection_peak_per_point(tmp_path, monkeypatch):
    # Python allocations from the loaded cloud to the start of the run, per
    # input point, on a dense ~95k-point cloud with 5% NaN rows.  Detection
    # is the plain chain workspace_filter, refine_ground_band,
    # fit_plane_ransac: the cloud (24 bytes a point) is alive throughout,
    # and the crop, the band and the fit's copies hold at most CROP_POINTS
    # rows, so this reads 33.0, the cloud and the box test's mask and
    # indices.
    d = PotSceneParams()
    dense = PotSceneParams(n_soil=16 * d.n_soil, n_rim=16 * d.n_rim, n_wall=16 * d.n_wall,
                           n_foliage=16 * d.n_foliage, n_table=16 * d.n_table)
    points = generate_pot_scene(dense, seed=9200)[0].points
    points[np.random.default_rng(9200).random(len(points)) < 0.05] = np.nan
    path = tmp_path / "dense.txt"
    save_cloud(PointCloud(points), path)
    args = ["pipeline", "--input", str(path), "--seed", "9200", "--out-dir", str(tmp_path / "run")]
    # a first op fills every cache the stage uses before the window opens
    assert run(*args) == 0

    real_load, real_run = cli.load_cloud, cli.run_scenario
    peaks = []

    def load(p):
        tracemalloc.start()
        cloud = real_load(p)
        tracemalloc.reset_peak()  # the window opens holding the loaded cloud
        return cloud

    def run_scenario(cfg):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return real_run(cfg)

    monkeypatch.setattr(cli, "load_cloud", load)
    monkeypatch.setattr(cli, "run_scenario", run_scenario)
    try:
        assert run(*args) == 0
    finally:
        tracemalloc.stop()
    assert peaks[0] / len(points) < 36
