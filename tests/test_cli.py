import dataclasses
import lzma
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soilprobe import cli
from soilprobe.cli import DETECT_TYPES, PIPELINE_TYPES, main
from soilprobe.cloud import save_cloud
from soilprobe.config import SCENARIO_TYPES
from soilprobe.scenario import MAX_STEPS, ScenarioConfig
from soilprobe.scene import generate_pot_scene

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


@pytest.mark.parametrize("command", COMMAND_TYPES)
def test_config_faults_exit_1_on_every_command(tmp_path, capsys, command):
    """Every command reads its settings through one path: the same fault
    exits 1 with the same message, before any scene or run is made."""
    types = COMMAND_TYPES[command]
    out = tmp_path / "out"
    out_flag = ["--out-dir" if command == "pipeline" else "--out", str(out)]
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
    if "scenario" in types:
        faults["scenario = muddy\n"] = \
            "unknown scenario kind: 'muddy' (choose from moist, dry, rigid, custom)"
    cfg = tmp_path / "bad.cfg"
    for text, message in faults.items():
        cfg.write_text(text)
        assert run(command, "--config", str(cfg), *out_flag) == 1, text
        assert capsys.readouterr().err == f"error: {message}\n", text
    for spelling in (["--seed=-1"], ["--seed", "-1"]):
        assert run(command, *spelling, *out_flag) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"soilprobe {command}: error: argument --seed: invalid seed value: '-1'"
    assert not out.exists()


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
                       ("tracking_tau = nan", "tracking_tau"),
                       ("contact_threshold = nan", "contact_threshold"),
                       ("surface_true = inf", "surface_true")):
        cfg.write_text(text + "\n")
        capsys.readouterr()
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 1, text
        assert f"error: {name} must be finite" in capsys.readouterr().err, text


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
