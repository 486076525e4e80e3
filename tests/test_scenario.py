import hashlib
import math
import statistics
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soilprobe.adaptation import (
    AdaptationState,
    adaptation_step,
    position_reference,
    stiffness_estimate,
)
from soilprobe.cloud import CSV_CHUNK_ROWS
from soilprobe.contact import BLOCK, SensorState, environment_force, robot_step
from soilprobe.impedance import (
    ImpedanceState,
    ReferenceSignal,
    impedance_step,
    steady_state_reference,
)
from soilprobe.scenario import (
    APPROACH_SPEED,
    CONTACT_SPEED,
    DECEL_BAND,
    MAX_STEPS,
    RUN_METRICS,
    SCENARIO_KINDS,
    SCENARIO_STIFFNESS,
    TRACE_COLUMNS,
    ScenarioConfig,
    format_run_statistics,
    format_summary,
    run_scenario,
    scenario_preset,
    summarize_runs,
    summary_statistics,
    trace_to_csv,
)

CSV_HEADER = "t,x_r,x_c,x,f_true,f_meas,e,kappa,stiffness_est"
FLOAT_FIELDS = [name for name, kind in typing.get_type_hints(ScenarioConfig).items()
                if kind is float]


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
    for bad in (dict(duration=0.0), dict(dt=-1e-3), dict(approach_height=-0.01),
                dict(contact_threshold=-0.1)):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        scenario_preset("moist", seed=-1)


# The float fields in the order that numbers the non-finite cases, three to a
# field. It still holds the controller tuning that is now the constants IMPEDANCE,
# ADAPTATION, APPROACH_SPEED, CONTACT_SPEED and DECEL_BAND, so that each field's
# cases kept their ids when the tuning left ScenarioConfig.
NON_FINITE_ID_ORDER = [
    "env_stiffness", "force_setpoint", "surface_true", "surface_detected", "duration", "dt",
    "mass", "damping", "stiffness", "drive_gain", "drive_rate_gain", "error_weight",
    "error_rate_weight", "deriv_filter_tau", "bias_amplitude", "bias_drift_rate",
    "white_noise_std", "tracking_tau", "approach_height", "approach_speed", "contact_speed",
    "decel_band", "contact_threshold",
]
NON_FINITE_CASES = [
    pytest.param({name: value}, name, id=f"overrides{3 * i + j}-{name}")
    for i, name in enumerate(NON_FINITE_ID_ORDER) if name in FLOAT_FIELDS
    for j, value in enumerate((math.nan, math.inf, -math.inf))
]


def test_non_finite_cases_cover_every_float_field():
    assert {case.values[1] for case in NON_FINITE_CASES} == set(FLOAT_FIELDS)


@pytest.mark.parametrize("overrides, name", [
    *NON_FINITE_CASES,
    # each finite, their step count is not
    pytest.param(dict(duration=1e300, dt=1e-10), "duration / dt", id="overrides69-duration / dt"),
    # each finite, the probe's start is not
    pytest.param(dict(surface_detected=-1.7e308, approach_height=1e308),
                 "surface_detected - approach_height",
                 id="overrides70-surface_detected - approach_height"),
])
def test_config_rejects_non_finite(overrides, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        scenario_preset("moist", **overrides)


@pytest.mark.parametrize("scalar", [np.float64, np.float32])
def test_config_stores_python_floats(scalar):
    # a numpy scalar kept in a field would make the step loop's arithmetic
    # numpy-scalar arithmetic: the same doubles, about three times slower
    given = {name: scalar(getattr(ScenarioConfig(), name)) for name in FLOAT_FIELDS}
    cfg = ScenarioConfig(**given, seed=np.int64(3))
    for name in FLOAT_FIELDS:
        assert type(getattr(cfg, name)) is float, name
        assert getattr(cfg, name) == float(given[name]), name
    assert type(cfg.seed) is int and type(cfg.fixed_reference) is bool
    assert type(scenario_preset("moist", duration=3).duration) is float


def test_config_rejects_non_numbers():
    for overrides, message in (
        (dict(env_stiffness="500"), "env_stiffness must be a real number, got str"),
        (dict(seed=1.5), "seed must be an integer, got float"),
        (dict(seed=True), "seed must be an integer, got bool"),
        (dict(fixed_reference="no"), "fixed_reference must be a bool, got str"),
        (dict(fixed_reference=1), "fixed_reference must be a bool, got int"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            ScenarioConfig(**overrides)


def test_step_count_is_bounded():
    dt = 2**-10  # duration / dt is exact
    scenario_preset("moist", dt=dt, duration=(MAX_STEPS - 1) * dt)  # MAX_STEPS steps pass
    for duration in (MAX_STEPS * dt, 1e300):
        with pytest.raises(ValueError, match=f"^duration / dt gives more than MAX_STEPS = "
                                             f"{MAX_STEPS} steps$"):
            scenario_preset("moist", dt=dt, duration=duration)


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
    assert trace.x_r[pre_contact].max() <= trace.config.surface_detected + DECEL_BAND + 1e-12


def _reference_run(cfg):
    """run_scenario written as a loop over the public step functions: the
    reference its inline step math is held to.  Returns the trace columns,
    the failure flag and the failure reason."""
    dt = cfg.dt
    env, robot = cfg.environment_model(), cfg.robot_model()
    imp, adp = cfg.impedance_params(), cfg.adaptation_params()
    sensor = SensorState(cfg.sensor_model(), cfg.seed)
    start = cfg.surface_detected - cfg.approach_height
    filt, x, x_ref = ImpedanceState(start, 0.0, 0.0), start, start
    adapt = None
    in_force_phase = cfg.fixed_reference
    if cfg.fixed_reference:
        x_ref = steady_state_reference(cfg.force_setpoint, cfg.env_stiffness, cfg.surface_detected)
    tare_sum, tare_count, tare = 0.0, 0, 0.0
    rows, reason = [], ""
    n = math.floor(cfg.duration / dt) + 1
    try:
        for i in range(n):
            f_true = environment_force(x, env)
            f_meas = sensor.read(f_true, dt)
            remaining = cfg.surface_detected - x_ref
            if not in_force_phase and remaining > DECEL_BAND:
                tare_sum += f_meas
                tare_count += 1
                tare = tare_sum / tare_count
            f_tared = f_meas - tare
            e = cfg.force_setpoint - f_tared
            if cfg.fixed_reference:
                ref_rate, e_ctrl = 0.0, e
            elif in_force_phase:
                e_ctrl = e
                adapt = adaptation_step(adapt, e, adp, imp, dt)
                x_ref = position_reference(adapt.kappa, cfg.force_setpoint, cfg.surface_detected)
                ref_rate = adapt.kappa_rate * cfg.force_setpoint
            elif abs(f_tared) >= cfg.contact_threshold and remaining <= DECEL_BAND:
                in_force_phase = True
                adapt = AdaptationState.initial(e, adp)
                e_ctrl = e
                x_ref = position_reference(adapt.kappa, cfg.force_setpoint, cfg.surface_detected)
                ref_rate = 0.0
            else:
                e_ctrl = 0.0
                if remaining >= DECEL_BAND:
                    ref_rate = APPROACH_SPEED
                else:
                    ref_rate = max(CONTACT_SPEED, APPROACH_SPEED * remaining / DECEL_BAND)
                x_ref = x_ref + ref_rate * dt
            kappa = adapt.kappa if adapt is not None else 0.0
            rows.append((i * dt, x_ref, filt.position, x, f_true, f_meas, e, kappa,
                         stiffness_estimate(kappa)))
            if i == n - 1:
                break
            filt = impedance_step(filt, ReferenceSignal(x_ref, ref_rate, 0.0), e_ctrl, imp, dt)
            x = robot_step(x, filt.position, robot, dt)
    except RuntimeError as err:
        reason = str(err)
    table = np.array(rows, dtype=float).reshape(-1, len(TRACE_COLUMNS))
    return dict(zip(TRACE_COLUMNS, table.T)), bool(reason), reason


CRITERION_09_NOISE = dict(bias_amplitude=0.3, bias_drift_rate=0.2, white_noise_std=0.02)
# the bias walk hits its clamp on almost every step
CLAMPED_NOISE = dict(bias_amplitude=0.01, bias_drift_rate=5.0, white_noise_std=0.02)
# a shorter approach reaches the force phase within a 2 s run
SHORT = dict(approach_height=0.01, duration=2.0)
# noisy dry runs that reach the force phase within about one noise block;
# dt = 2**-10 makes duration / dt exact, so a duration of 1023 or 1024 steps
# gives a run of BLOCK or BLOCK + 1 steps
ONE_BLOCK = dict(dt=2**-10, approach_height=0.005, **CRITERION_09_NOISE)
# a 10 cm approach at dt = 0.009: the filter diverges before the handover
APPROACH_DIVERGES = dict(dt=0.009, approach_height=0.1, duration=10.0)


def _run_matches_reference(cfg):
    trace = run_scenario(cfg)
    columns, failed, reason = _reference_run(cfg)
    for name in TRACE_COLUMNS:
        # bytes, so that a -0.0 for 0.0 counts as a difference and +inf
        # equals +inf
        assert getattr(trace, name).tobytes() == columns[name].tobytes(), name
    assert (trace.failed, trace.failure_reason) == (failed, reason)
    return trace


@pytest.mark.parametrize("kind, overrides", [
    pytest.param("moist", SHORT, id="moist"),
    pytest.param("dry", SHORT, id="dry"),
    pytest.param("rigid", SHORT, id="rigid"),
    pytest.param("moist", dict(SHORT, seed=1, **CRITERION_09_NOISE), id="moist-noise-seed1"),
    pytest.param("rigid", dict(SHORT, seed=2, **CRITERION_09_NOISE), id="rigid-noise-seed2"),
    pytest.param("moist", dict(SHORT, seed=3, **CLAMPED_NOISE), id="moist-bias-clamped"),
    pytest.param("dry", dict(SHORT, seed=4, bias_amplitude=0.0, bias_drift_rate=0.2,
                             white_noise_std=0.02), id="dry-zero-bias-amplitude"),
    pytest.param("moist", dict(SHORT, seed=5, bias_amplitude=0.3, bias_drift_rate=0.2),
                 id="moist-drift-only"),
    pytest.param("rigid", dict(SHORT, seed=6, white_noise_std=0.02), id="rigid-white-only"),
    pytest.param("dry", dict(ONE_BLOCK, duration=(BLOCK - 1) * 2**-10), id="dry-noise-one-block"),
    pytest.param("dry", dict(ONE_BLOCK, duration=BLOCK * 2**-10), id="dry-noise-block-plus-one"),
    pytest.param("dry", dict(SHORT, tracking_tau=5e-3), id="dry-tracking-lag"),
    pytest.param("moist", dict(SHORT, fixed_reference=True), id="moist-fixed-reference"),
    pytest.param("rigid", dict(SHORT, surface_detected=2e-3), id="rigid-detected-2mm-deep"),
    # a surface read 2 mm high is crept toward at contact_speed for 4 s
    pytest.param("dry", dict(SHORT, surface_detected=-2e-3, duration=5.0),
                 id="dry-detected-2mm-high"),
    pytest.param("moist", dict(dt=0.008, duration=5.0), id="adaptation-diverges"),
    pytest.param("moist", dict(dt=0.008, duration=5.0, seed=1, **CRITERION_09_NOISE),
                 id="adaptation-diverges-under-noise"),
    pytest.param("moist", dict(dt=0.009, duration=5.0), id="filter-diverges"),
    pytest.param("moist", APPROACH_DIVERGES, id="filter-diverges-in-approach"),
])
def test_step_loop_matches_the_step_functions(kind, overrides):
    cfg = scenario_preset(kind, **overrides)
    trace = _run_matches_reference(cfg)
    if overrides is APPROACH_DIVERGES:
        # the filter overflows before the probe reaches the surface
        assert (trace.failure_reason, len(trace)) == ("filter diverged", 424)
        assert trace.kappa.max() == 0.0
        return
    assert trace.kappa.max() > 0.0 or cfg.fixed_reference  # the force phase ran
    if cfg.dt == 2**-10:
        assert len(trace) in (BLOCK, BLOCK + 1)
    if cfg.dt == 0.008:
        assert (trace.failure_reason, len(trace)) == ("adaptation diverged", 448)
    if cfg.dt == 0.009:
        assert (trace.failure_reason, len(trace)) == ("filter diverged", 409)


# a coarse dt reaches the handover within a few hundred steps
STEP_LOOP_DTS = (2**-10, 1e-3, 2**-9, 0.002, 0.004, 0.008, 0.009)


@st.composite
def step_loop_configs(draw):
    """A run of at most 500 steps: any kind, with or without criterion-09
    noise, robot lag and the fixed reference."""
    dt = draw(st.sampled_from(STEP_LOOP_DTS))
    overrides = dict(
        dt=dt,
        duration=(draw(st.integers(0, 499)) + 0.5) * dt,  # that many steps after the first
        # most runs start close enough to reach the force phase
        approach_height=draw(st.one_of(st.floats(0.0, 0.002), st.floats(0.0, 0.01))),
        # a camera error of up to 2 mm either way
        surface_detected=draw(st.floats(-0.002, 0.002)),
        fixed_reference=draw(st.sampled_from([False, False, False, True])),
        tracking_tau=draw(st.sampled_from([0.0, 1e-3, 0.05])),
        seed=draw(st.integers(0, 20)),
    )
    if draw(st.booleans()):
        overrides.update(CRITERION_09_NOISE)
    return scenario_preset(draw(st.sampled_from(SCENARIO_KINDS)), **overrides)


@settings(max_examples=80, deadline=None, database=None)
@given(cfg=step_loop_configs())
# the handover is the last step: dry touches at step 244 here
@example(cfg=scenario_preset("dry", dt=2**-9, approach_height=0.001, duration=244 * 2**-9))
@example(cfg=scenario_preset("moist", approach_height=0.01, duration=0.1))  # ends before handover
@example(cfg=scenario_preset("moist", duration=5e-4))  # one step
@example(cfg=scenario_preset("moist", dt=2**-10, duration=2**-10))  # two steps
# the probe starts 2 mm into the soil, so the handover is the first step
@example(cfg=scenario_preset("moist", approach_height=0.0, surface_detected=0.002, duration=0.05))
# the filter diverges in the handover step: the probe starts 2 m into the
# soil, so the first step reads an overflowing force
@example(cfg=scenario_preset("custom", env_stiffness=1e308, surface_detected=2.0,
                             approach_height=0.0, dt=0.01, duration=1.0))
def test_step_loop_matches_the_step_functions_on_any_run(cfg):
    _run_matches_reference(cfg)


def test_divergent_config_truncates_with_flag():
    # the adaptation guard trips before its step is recorded, the filter
    # guard after, so each keeps every finite row and no more
    for overrides, reason, rows in ((dict(dt=0.008, duration=5.0), "adaptation diverged", 448),
                                    (dict(dt=0.009, duration=5.0), "filter diverged", 409),
                                    (APPROACH_DIVERGES, "filter diverged", 424)):
        trace = run_scenario(scenario_preset("moist", **overrides))
        assert trace.failed
        assert trace.failure_reason == reason
        assert len(trace) == rows
        for name in TRACE_COLUMNS:
            assert getattr(trace, name).size == len(trace)
            if name != "stiffness_est":
                assert np.isfinite(getattr(trace, name)).all(), name
        summary = trace.summary()
        assert summary["failed"] and summary["failure_reason"] == trace.failure_reason


# sha256 of trace_to_csv(trace) + format_summary(trace.summary()) for 10 s
# runs of the presets; a change that moves any trace or summary byte must
# update these and say which runs changed and why
TRACE_DIGESTS = [
    pytest.param("moist", {}, "fca56187f962b9b228d9e2f80ae0307117d579827b48bf15b2de30eb9d86e4a0",
                 id="moist"),
    pytest.param("dry", {}, "4cebf816133b82c1a470180c71d90835543854b17cadfacdab7ec50479d97831",
                 id="dry"),
    pytest.param("rigid", {}, "57e620470df055295d1372d366a2e6a498439fbbc83875c7a5e9e7da6e70088d",
                 id="rigid"),
    pytest.param("moist", dict(seed=1, **CRITERION_09_NOISE),
                 "69052fab9a5f385ee7971a3a1f0a7f5c4fbbc49ac1d20a359b1baeae49620058",
                 id="moist-noise-seed1"),
    pytest.param("dry", dict(seed=1, **CRITERION_09_NOISE),
                 "3ab4ce8cc495966a07c8b5db39cf338d75d4e81e350aaadaae530470bda4bf57",
                 id="dry-noise-seed1"),
    pytest.param("rigid", dict(seed=1, **CRITERION_09_NOISE),
                 "3884432bade44255a66232179e78d38d5f7e3d8e341bc090c6ed585a5fc0464a",
                 id="rigid-noise-seed1"),
    pytest.param("moist", dict(fixed_reference=True),
                 "42e027eb113333a20d1ebaaf6d50aecea18044f80ff303b02acb3fffaa890edf",
                 id="moist-fixed-reference"),
    pytest.param("dry", dict(tracking_tau=5e-3),
                 "6833770ce13e2061164baae82ae5a7d15b86bf11db76cfcf279e7eabd477a6fd",
                 id="dry-tracking-lag"),
]


@pytest.mark.parametrize("kind, overrides, digest", TRACE_DIGESTS)
def test_trace_bytes_are_pinned(kind, overrides, digest):
    # the reference loop above could change with the step loop; these
    # digests hold the output bytes across versions
    trace = run_scenario(scenario_preset(kind, **overrides))
    text = trace_to_csv(trace) + format_summary(trace.summary())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_noise_free_sensor_reads_the_true_force():
    for kind in SCENARIO_STIFFNESS:
        trace = run_scenario(scenario_preset(kind, duration=3.0))
        assert np.array_equal(trace.f_meas, trace.f_true), kind
        assert trace.f_true.max() > 0.0, kind


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


def test_csv_rows_across_chunks():
    trace = run_scenario(scenario_preset("rigid", duration=3.0, seed=2, bias_amplitude=0.3,
                                         white_noise_std=0.02))
    assert len(trace) > 2 * CSV_CHUNK_ROWS
    lines = trace_to_csv(trace).splitlines()
    columns = [getattr(trace, name) for name in TRACE_COLUMNS]
    assert lines[0] == CSV_HEADER
    assert lines[1:] == [",".join(f"{col[i]:.9g}" for col in columns) for i in range(len(trace))]


def test_trace_to_csv_renders_a_chunk_at_a_time():
    # The peak of Python allocations while a default 10 s trace is written:
    # the chunks and the joined text (2.00x the text for moist and rigid).
    # Stacking the whole table first reached 2.79x and 2.89x, and rendering
    # it at once costs far more.  The first render builds the renderer's
    # tables, which live as long as the process, so one runs before the
    # window opens.
    trace_to_csv(run_scenario(scenario_preset("moist", duration=0.01)))
    for kind in ("moist", "rigid"):
        trace = run_scenario(scenario_preset(kind))
        tracemalloc.start()
        try:
            text = trace_to_csv(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * len(text), kind


def test_a_noisy_run_and_its_summary_peak_per_step():
    # The loop draws the noise one BLOCK of steps at a time, so a noisy run
    # peaks at its 48-byte loop rows plus the derived columns and masks:
    # 75.4 B/step, against 112.1 when it drew the whole run's noise first.
    # The summary adds one per-step float array and two masks to the
    # 72-byte trace: 10 B/step, against 16 and an index array before.
    noise = dict(bias_amplitude=0.3, bias_drift_rate=0.2, white_noise_std=0.02)
    run_scenario(scenario_preset("moist", duration=0.01, **noise)).summary()
    cfg = scenario_preset("moist", duration=100.0, seed=3, **noise)
    tracemalloc.start()
    try:
        trace = run_scenario(cfg)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        trace.summary()
        summary_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(trace) == 100_001
    assert run_peak < 85 * len(trace)
    assert summary_peak < 12 * len(trace)


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


@pytest.mark.parametrize("values", [
    [2.3297829988441195e176] * 3,  # the mean's rounding residue squares past the largest float
    [1.5e308, 1.7e308, 1.79e308],  # the sum overflows
    [-1.79e308, 1.79e308],  # the squared deviations overflow
    [1.7e308, 1.7e308, -1.7e308, -1.7e308],  # the sum is inf - inf
], ids=["equal", "sum", "spread", "cancel"])
def test_statistics_of_huge_finite_values_are_finite(values):
    # pytest turns numpy's overflow warning into an error
    runs = [{"scenario": "moist", **dict.fromkeys(RUN_METRICS, v)} for v in values]
    entry = summary_statistics(runs)["moist"]["peak_force"]
    assert entry["mean"] == pytest.approx(statistics.mean(values), rel=1e-15)
    assert entry["std"] == pytest.approx(statistics.pstdev(values), rel=1e-15,
                                         abs=1e-15 * max(values))
    assert (entry["min"], entry["max"]) == (min(values), max(values))


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
