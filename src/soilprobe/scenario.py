"""Closed-loop probing scenarios: approach the detected surface, make
contact, track a force setpoint while the compliance estimate adapts."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .adaptation import (
    AdaptationParams,
    AdaptationState,
    adaptation_step,
    position_reference,
    stiffness_estimate,
)
from .contact import (
    EnvironmentModel,
    RobotModel,
    SensorModel,
    SensorState,
    environment_force,
    robot_step,
)
from .impedance import (
    ImpedanceParams,
    ImpedanceState,
    ReferenceSignal,
    impedance_step,
    steady_state_reference,
)

SCENARIO_STIFFNESS = {"moist": 500.0, "dry": 5000.0, "rigid": 1e6}
SCENARIO_KINDS = (*SCENARIO_STIFFNESS, "custom")

TRACE_COLUMNS = ("t", "x_r", "x_c", "x", "f_true", "f_meas", "e", "kappa", "stiffness_est")
RUN_METRICS = ("kappa_final", "settling_time", "steady_state_error", "peak_force")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, flat description of one probing run.

    The controller set here is the shared tuning that handles moist soil,
    dry soil, and rigid collisions alike, and the only home of the component
    models' defaults; every field can be overridden from a config file.
    """

    scenario: str = "custom"
    env_stiffness: float = 500.0
    force_setpoint: float = 5.0
    surface_true: float = 0.0
    surface_detected: float = 0.0
    duration: float = 10.0
    dt: float = 1e-3
    seed: int = 0
    # target impedance
    mass: float = 1.0
    damping: float = 700.0
    stiffness: float = 400.0
    # adaptation gains
    drive_gain: float = 8.0
    drive_rate_gain: float = 0.05
    error_weight: float = 1.0
    error_rate_weight: float = 0.05
    deriv_filter_tau: float = 0.01
    # sensing and robot tracking
    bias_amplitude: float = 0.0
    bias_drift_rate: float = 0.0
    white_noise_std: float = 0.0
    tracking_tau: float = 0.0
    # approach phase
    approach_height: float = 0.05
    approach_speed: float = 0.02
    contact_speed: float = 5e-4
    decel_band: float = 2e-3
    contact_threshold: float = 0.2
    # hold the known-stiffness reference instead of adapting
    fixed_reference: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind: '{self.scenario}' "
                             f"(choose from {', '.join(SCENARIO_KINDS)})")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.approach_height < 0:
            raise ValueError("approach_height must be non-negative")
        if self.approach_speed <= 0 or self.contact_speed <= 0:
            raise ValueError("approach speeds must be positive")
        if self.decel_band <= 0:
            raise ValueError("decel_band must be positive")
        if self.contact_threshold < 0:
            raise ValueError("contact_threshold must be non-negative")
        # instantiating the component models validates the remaining fields
        self.impedance_params()
        self.adaptation_params()
        self.environment_model()
        self.sensor_model()
        self.robot_model()

    def impedance_params(self) -> ImpedanceParams:
        return ImpedanceParams(self.mass, self.damping, self.stiffness)

    def adaptation_params(self) -> AdaptationParams:
        return AdaptationParams(
            self.drive_gain,
            self.drive_rate_gain,
            self.error_weight,
            self.error_rate_weight,
            self.deriv_filter_tau,
        )

    def environment_model(self) -> EnvironmentModel:
        return EnvironmentModel(self.env_stiffness, self.surface_true)

    def sensor_model(self) -> SensorModel:
        return SensorModel(self.bias_amplitude, self.bias_drift_rate, self.white_noise_std)

    def robot_model(self) -> RobotModel:
        return RobotModel(self.tracking_tau)


def scenario_preset(name: str, **overrides) -> ScenarioConfig:
    """Build a scenario of one of SCENARIO_KINDS, then apply overrides;
    ScenarioConfig rejects an unknown kind."""
    kwargs = {"scenario": name}
    if name in SCENARIO_STIFFNESS:
        kwargs["env_stiffness"] = SCENARIO_STIFFNESS[name]
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


@dataclass
class SimTrace:
    """Uniformly sampled run record plus a derived summary.

    stiffness_est is the guarded reciprocal of kappa and reads +inf while
    the estimate is at the rigid floor.  A run that tripped the divergence
    guards is truncated and flagged instead of raising.
    """

    config: ScenarioConfig
    t: np.ndarray
    x_r: np.ndarray
    x_c: np.ndarray
    x: np.ndarray
    f_true: np.ndarray
    f_meas: np.ndarray
    e: np.ndarray
    kappa: np.ndarray
    stiffness_est: np.ndarray
    failed: bool = False
    failure_reason: str = ""

    def __len__(self) -> int:
        return self.t.size

    def summary(self) -> dict:
        cfg = self.config
        out = {
            "scenario": cfg.scenario,
            "env_stiffness": cfg.env_stiffness,
            "force_setpoint": cfg.force_setpoint,
            "duration": cfg.duration,
            "dt": cfg.dt,
            "seed": cfg.seed,
            "failed": self.failed,
        }
        if self.failed:
            out["failure_reason"] = self.failure_reason
        abs_e = np.abs(self.e)
        out["settling_time"] = _entry_time(self.t, abs_e, 0.02 * cfg.force_setpoint)
        out["time_to_10pct"] = _entry_time(self.t, abs_e, 0.1 * cfg.force_setpoint)
        tail = max(1, int(round(0.5 / cfg.dt)))
        out["steady_state_error"] = float(abs_e[-tail:].max())
        kappa_final = float(self.kappa[-1])
        out["kappa_final"] = kappa_final
        out["stiffness_final"] = stiffness_estimate(kappa_final)
        out["peak_force"] = float(np.abs(self.f_meas).max())
        return out


def _entry_time(t: np.ndarray, abs_e: np.ndarray, band: float) -> float:
    """First time from which |e| stays inside the band to the end; NaN if
    it never does."""
    outside = np.flatnonzero(abs_e > band)
    if outside.size == 0:
        return 0.0
    last_out = outside[-1]
    if last_out + 1 >= t.size:
        return math.nan
    return float(t[last_out + 1])


def _approach_rate(remaining: float, cfg: ScenarioConfig) -> float:
    """Reference speed during the approach: full speed far out, a linear
    taper across the deceleration band, and a slow touch speed from there
    on (also past the detected surface, until contact actually fires)."""
    if remaining >= cfg.decel_band:
        return cfg.approach_speed
    tapered = cfg.approach_speed * remaining / cfg.decel_band
    return max(cfg.contact_speed, tapered)


def run_scenario(cfg: ScenarioConfig) -> SimTrace:
    """Simulate one probing run.

    Phases: (1) approach — the reference descends from approach_height
    above the detected surface with no force feedback, decelerating to a
    slow touch speed near the surface and creeping past it until the
    measured force reaches contact_threshold; (2) force — the tracking
    error drives the impedance filter, and the compliance estimate adapts
    from zero, shaping the reference thereafter.  Touching down slowly is
    what keeps a rigid collision within the safety bound.

    The sensor is tared in free space: the mean reading over the approach
    steps taken while the reference is outside decel_band is its zero
    offset (0 if there are none).  The force error and the contact test
    use the tared reading; the trace records the raw one.

    With fixed_reference=True the known-stiffness reference is held
    constant from t=0 and no adaptation runs.

    Divergence of either the filter or the adaptation law truncates the
    trace and sets the failure flag; it never raises.
    """
    n = int(math.floor(cfg.duration / cfg.dt)) + 1
    dt = cfg.dt

    env = cfg.environment_model()
    sensor = SensorState(cfg.sensor_model(), cfg.seed)
    robot = cfg.robot_model()
    imp = cfg.impedance_params()
    adp = cfg.adaptation_params()

    start = cfg.surface_detected - cfg.approach_height
    filt = ImpedanceState(start, 0.0, 0.0)
    x = start
    x_ref = start
    adapt: AdaptationState | None = None
    in_force_phase = bool(cfg.fixed_reference)
    if cfg.fixed_reference:
        x_ref = steady_state_reference(cfg.force_setpoint, cfg.env_stiffness, cfg.surface_detected)

    tare_sum, tare_count, tare = 0.0, 0, 0.0
    rows = array("d")  # TRACE_COLUMNS values of each completed step, row after row
    failed = False
    reason = ""
    try:
        for i in range(n):
            f_true = environment_force(x, env)
            f_meas = sensor.read(f_true, dt)
            remaining = cfg.surface_detected - x_ref
            if not in_force_phase and remaining > cfg.decel_band:
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
            else:
                # spurious far-field readings (sensor noise) must not trigger
                # the handover, hence the within-band requirement
                if abs(f_tared) >= cfg.contact_threshold and remaining <= cfg.decel_band:
                    in_force_phase = True
                    adapt = AdaptationState.initial(e, adp)
                    e_ctrl = e
                    x_ref = position_reference(adapt.kappa, cfg.force_setpoint, cfg.surface_detected)
                    ref_rate = 0.0
                else:
                    e_ctrl = 0.0
                    ref_rate = _approach_rate(remaining, cfg)
                    x_ref = x_ref + ref_rate * dt

            kappa_now = adapt.kappa if adapt is not None else 0.0
            rows.extend((i * dt, x_ref, filt.position, x, f_true, f_meas, e, kappa_now,
                         stiffness_estimate(kappa_now)))
            if i == n - 1:
                break
            filt = impedance_step(filt, ReferenceSignal(x_ref, ref_rate, 0.0), e_ctrl, imp, dt)
            x = robot_step(x, filt.position, robot, dt)
    except RuntimeError as err:
        # adaptation diverges before its step is recorded, the filter after
        failed, reason = True, str(err)

    table = np.frombuffer(rows).reshape(-1, len(TRACE_COLUMNS))
    return SimTrace(cfg, *table.T, failed=failed, failure_reason=reason)


# Trace rows rendered per % operation.  One operation over a whole 10 s trace
# would hold 90k Python floats at once; chunks of this size keep the peak
# memory below np.savetxt's at the same speed.
CSV_CHUNK_ROWS = 1024


def trace_to_csv(trace: SimTrace) -> str:
    """Render a trace as CSV with the contracted header and column order,
    each value as %.9g."""
    table = np.column_stack([getattr(trace, name) for name in TRACE_COLUMNS])
    row = ",".join(["%.9g"] * len(TRACE_COLUMNS)) + "\n"
    parts = [",".join(TRACE_COLUMNS) + "\n"]
    for start in range(0, len(table), CSV_CHUNK_ROWS):
        chunk = table[start:start + CSV_CHUNK_ROWS]
        parts.append((row * len(chunk)) % tuple(chunk.ravel().tolist()))
    return "".join(parts)


def format_summary(summary: dict) -> str:
    """key=value text block, one entry per line."""
    lines = []
    for key, value in summary.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = f"{value:.9g}"
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def summarize_runs(traces) -> dict:
    """Per-scenario mean/std/min/max of the headline metrics across runs.

    kappa_final additionally reports its relative std (std over |mean|),
    the repetition-dispersion figure of merit.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("no traces to summarize")
    by_kind: dict[str, list[dict]] = {}
    for tr in traces:
        by_kind.setdefault(tr.config.scenario, []).append(tr.summary())
    out: dict[str, dict] = {}
    for kind, summaries in by_kind.items():
        stats: dict[str, dict] = {"runs": len(summaries)}
        for metric in RUN_METRICS:
            vals = np.array([s[metric] for s in summaries], dtype=float)
            entry = {
                "mean": float(np.mean(vals)),
                "std": float(np.std(vals)),
                "min": float(np.min(vals)),
                "max": float(np.max(vals)),
            }
            if metric == "kappa_final":
                mean = entry["mean"]
                entry["rel_std"] = entry["std"] / abs(mean) if mean != 0 else math.nan
            stats[metric] = entry
        out[kind] = stats
    return out


def format_run_statistics(stats: dict) -> str:
    """Flatten summarize_runs output into key=value lines, one metric
    statistic per line, ordered deterministically."""
    flat = {}
    for kind in sorted(stats):
        flat[f"{kind}.runs"] = stats[kind]["runs"]
        for metric in RUN_METRICS:
            for stat, value in stats[kind][metric].items():
                flat[f"{kind}.{metric}.{stat}"] = value
    return format_summary(flat)
