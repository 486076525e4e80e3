import math

import numpy as np
import pytest

from soilprobe.scenario import (
    SCENARIO_STIFFNESS,
    TRACE_COLUMNS,
    ScenarioConfig,
    format_run_statistics,
    format_summary,
    run_scenario,
    scenario_preset,
    summarize_runs,
    trace_to_csv,
)

CSV_HEADER = "t,x_r,x_c,x,f_true,f_meas,e,kappa,stiffness_est"


def test_presets_map_to_stiffness():
    assert scenario_preset("moist").env_stiffness == 500.0
    assert scenario_preset("dry").env_stiffness == 5000.0
    assert scenario_preset("rigid").env_stiffness == 1e6
    assert scenario_preset("custom").env_stiffness == 500.0
    assert scenario_preset("moist", duration=3.0).duration == 3.0


def test_unknown_scenario_kind_rejected():
    with pytest.raises(ValueError, match="unknown scenario kind"):
        scenario_preset("muddy")
    with pytest.raises(ValueError, match="unknown scenario kind"):
        ScenarioConfig(scenario="muddy")


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(duration=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        ScenarioConfig(mass=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(decel_band=0.0)


def test_trace_length_contract():
    for duration, dt in ((0.5, 1e-3), (0.0105, 0.003), (1.0, 0.0007)):
        trace = run_scenario(scenario_preset("moist", duration=duration, dt=dt))
        assert len(trace) == math.floor(duration / dt) + 1
        for name in TRACE_COLUMNS:
            assert getattr(trace, name).size == len(trace)
    assert np.all(np.diff(trace.t) > 0)


def test_run_is_deterministic():
    cfg = scenario_preset("moist", duration=2.0, seed=3,
                          bias_amplitude=0.3, white_noise_std=0.02)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_moist_scenario_converges():
    summary = run_scenario(scenario_preset("moist", duration=10.0)).summary()
    assert summary["steady_state_error"] <= 0.1
    assert abs(summary["kappa_final"] * 500.0 - 1.0) <= 0.05
    assert not summary["failed"]


def test_energy_sanity_spring_is_only_force_source():
    trace = run_scenario(scenario_preset("moist", duration=5.0))
    penetration = np.maximum(trace.x - trace.config.surface_true, 0.0)
    assert np.abs(trace.f_meas).max() <= trace.config.env_stiffness * penetration.max() + 1e-9
    assert np.array_equal(trace.f_true, trace.f_meas)  # noise-free sensing


def test_approach_starts_above_surface_with_zero_kappa():
    trace = run_scenario(scenario_preset("moist", duration=2.0))
    assert trace.x[0] == -trace.config.approach_height
    assert trace.kappa[0] == 0.0
    assert trace.f_true[0] == 0.0
    # the approach reference creeps past the detected surface only within
    # the deceleration band, never by a free-motion jump
    pre_contact = trace.kappa == 0.0
    assert trace.x_r[pre_contact].max() <= \
        trace.config.surface_detected + trace.config.decel_band + 1e-12


def test_divergent_config_truncates_with_flag():
    # the adaptation guard trips before its step is recorded, the filter
    # guard after, so each keeps every finite row and no more
    for dt, reason, rows in ((0.008, "adaptation diverged", 448),
                             (0.009, "filter diverged", 409)):
        trace = run_scenario(scenario_preset("moist", dt=dt, duration=5.0))
        assert trace.failed
        assert trace.failure_reason == reason
        assert len(trace) == rows
        for name in TRACE_COLUMNS:
            assert getattr(trace, name).size == len(trace)
            if name != "stiffness_est":
                assert np.isfinite(getattr(trace, name)).all(), name
        summary = trace.summary()
        assert summary["failed"] and summary["failure_reason"] == trace.failure_reason


def test_fixed_reference_reaches_zero_error():
    trace = run_scenario(scenario_preset("moist", fixed_reference=True, duration=20.0))
    assert trace.summary()["steady_state_error"] <= 1e-6
    assert trace.kappa.max() == 0.0
    assert trace.summary()["stiffness_final"] == math.inf


def test_pre_contact_bias_shows_in_readings():
    trace = run_scenario(scenario_preset("moist", bias_amplitude=0.3, seed=2, duration=5.0))
    pre_contact = trace.f_meas[trace.f_true == 0.0]
    assert pre_contact.size > 100
    assert abs(pre_contact.mean()) > 0.01


def test_constant_bias_is_tared_out():
    # a constant offset is read in free space and removed from the error,
    # so the run tracks the true force as if the sensor were exact
    biased = run_scenario(scenario_preset("dry", bias_amplitude=0.3, seed=2, duration=3.0))
    exact = run_scenario(scenario_preset("dry", duration=3.0))
    assert abs(biased.f_meas[0] - biased.f_true[0]) > 0.01
    assert np.allclose(biased.e, 5.0 - biased.f_true, rtol=0.0, atol=1e-9)
    assert np.allclose(biased.kappa, exact.kappa, rtol=1e-6, atol=0.0)


def test_rigid_contact_under_sensor_noise_stays_safe():
    # criterion 09's noise: an untared bias used to trigger the handover
    # early or late and overshoot the rigid peak-force bound
    noise = dict(bias_amplitude=0.3, bias_drift_rate=0.2, white_noise_std=0.02, duration=10.0)
    for seed in range(1, 11):
        summary = run_scenario(scenario_preset("rigid", seed=seed, **noise)).summary()
        assert summary["peak_force"] <= 1.5 * 5.0, seed
        assert summary["kappa_final"] <= 2e-6, seed


def test_csv_contract():
    trace = run_scenario(scenario_preset("moist", duration=0.2))
    text = trace_to_csv(trace)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(trace) + 1
    assert trace_to_csv(run_scenario(trace.config)) == text
    first = lines[1].split(",")
    assert len(first) == 9
    assert first[0] == "0"
    # reference: one %.9g cell per value, the approach rows' +inf included
    columns = [getattr(trace, name) for name in TRACE_COLUMNS]
    assert lines[1:] == [",".join(f"{col[i]:.9g}" for col in columns) for i in range(len(trace))]
    assert "inf" in lines[1]


def test_summary_contents():
    summary = run_scenario(scenario_preset("dry", duration=10.0)).summary()
    for key in ("scenario", "env_stiffness", "force_setpoint", "duration", "dt",
                "seed", "failed", "settling_time", "time_to_10pct",
                "steady_state_error", "kappa_final", "stiffness_final", "peak_force"):
        assert key in summary
    assert summary["scenario"] == "dry"
    assert summary["settling_time"] <= summary["duration"]
    assert summary["time_to_10pct"] <= summary["settling_time"]
    assert summary["stiffness_final"] == pytest.approx(5000.0, rel=0.05)
    text = format_summary(summary)
    assert "failed=false" in text.splitlines()
    assert text.splitlines()[0] == "scenario=dry"


def test_summarize_identical_seeds_zero_spread():
    # duration long enough that every statistic (settling included) is defined
    traces = [run_scenario(scenario_preset("moist", duration=10.0, seed=5)) for _ in range(5)]
    stats = summarize_runs(traces)["moist"]
    assert stats["runs"] == 5
    for metric in ("kappa_final", "settling_time", "steady_state_error", "peak_force"):
        assert stats[metric]["std"] == 0.0
        assert stats[metric]["min"] == stats[metric]["max"]


def test_summarize_seed_spread_is_small():
    noise = dict(bias_amplitude=0.3, bias_drift_rate=0.2, white_noise_std=0.02, duration=10.0)
    traces = [run_scenario(scenario_preset("moist", seed=s, **noise)) for s in range(1, 6)]
    stats = summarize_runs(traces)
    assert stats["moist"]["kappa_final"]["rel_std"] <= 0.10


def test_summarize_groups_by_kind():
    traces = [run_scenario(scenario_preset(kind, duration=10.0)) for kind in ("moist", "dry")]
    stats = summarize_runs(traces)
    assert set(stats) == {"moist", "dry"}
    assert stats["dry"]["kappa_final"]["mean"] < stats["moist"]["kappa_final"]["mean"]


def test_summarize_empty_errors():
    with pytest.raises(ValueError, match="no traces to summarize"):
        summarize_runs([])


def test_run_statistics_text_is_deterministic():
    traces = [run_scenario(scenario_preset("moist", duration=1.0, seed=s)) for s in (1, 2)]
    stats = summarize_runs(traces)
    text = format_run_statistics(stats)
    assert text.splitlines()[0] == "moist.runs=2"
    # reference: every statistic of every metric, in summarize_runs' order
    expected = ["moist.runs=2"] + [
        f"moist.{metric}.{stat}={value:.9g}"
        for metric in ("kappa_final", "settling_time", "steady_state_error", "peak_force")
        for stat, value in stats["moist"][metric].items()]
    assert text.splitlines() == expected
    assert any(line.startswith("moist.kappa_final.rel_std=") for line in text.splitlines())
    again = format_run_statistics(summarize_runs(traces))
    assert again == text
