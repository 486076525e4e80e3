import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soilprobe.cli import main
from soilprobe.cloud import save_cloud
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


def test_detect_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("detect", "--seed", "4", "--out", str(a)) == 0
    assert run("detect", "--seed", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("stifness = 100\n")
    assert run("simulate", "--config", str(cfg)) == 1
    assert "stifness" in capsys.readouterr().err
    cfg.write_text("generate = true\n")
    assert run("detect", "--config", str(cfg)) == 1
    assert "generate" in capsys.readouterr().err
    for key in ("drive_sign", "rate_sign"):  # the adaptation law's signs are fixed
        cfg.write_text(f"{key} = 1\n")
        assert run("simulate", "--config", str(cfg)) == 1
        assert key in capsys.readouterr().err


def test_malformed_config_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert run("simulate", "--config", str(cfg)) == 1


def test_missing_config_file_exits_2(tmp_path):
    assert run("simulate", "--config", str(tmp_path / "absent.cfg")) == 2


def test_usage_errors_exit_1(capsys):
    assert run() == 1
    assert run("simulate", "--scenario", "muddy") == 1
    assert run("detect", "--generate") == 1
    for repeats in ("0", "-2"):
        capsys.readouterr()
        assert run("bench", "--repeats", repeats) == 1
        assert "--repeats" in capsys.readouterr().err
    assert run("--help") == 0


def test_pipeline_config_scenario_is_checked_before_detection(tmp_path, capsys):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("scenario = muddy\n")
    assert run("pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "muddy" in err
    assert "detected soil plane" not in err


def test_bench_statistics(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = moist\nduration = 1.0\n")
    out = tmp_path / "stats.txt"
    assert run("bench", "--config", str(cfg), "--repeats", "3", "--seed", "1",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "moist.runs=3"
    assert any(line.startswith("moist.kappa_final.mean=") for line in lines)


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


@pytest.mark.parametrize("spelling", SEED_SPELLINGS, ids=["space", "equals"])
def test_pipeline_flag_overrides_config(tmp_path, spelling):
    cfg = tmp_path / "pipe.cfg"
    out_dir = tmp_path / "from_file"
    cfg.write_text(f"seed = 1\nscenario = dry\nout_dir = {out_dir}\n")
    assert run("pipeline", "--config", str(cfg), *spelling) == 0
    summary = (out_dir / "summary.txt").read_text().splitlines()
    assert "seed=5" in summary
    assert "scenario=dry" in summary


def test_pipeline_reruns_byte_identical(tmp_path):
    first, second = tmp_path / "p1", tmp_path / "p2"
    assert run("pipeline", "--seed", "3", "--out-dir", str(first)) == 0
    assert run("pipeline", "--seed", "3", "--out-dir", str(second)) == 0
    for name in ("estimate.txt", "trace.csv", "summary.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
