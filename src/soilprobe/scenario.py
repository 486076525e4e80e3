"""Closed-loop probing scenarios: approach the detected surface, make
contact, track a force setpoint while the compliance estimate adapts."""

from __future__ import annotations

import math
import numbers
import struct
import typing
from dataclasses import dataclass

import numpy as np

from .adaptation import COMPLIANCE_FLOOR, AdaptationParams, stiffness_estimate
from .cloud import csv_chunks
from .contact import BLOCK, EnvironmentModel, RobotModel, SensorModel, SensorState
from .impedance import ImpedanceParams, steady_state_reference

SCENARIO_STIFFNESS = {"moist": 500.0, "dry": 5000.0, "rigid": 1e6}
SCENARIO_KINDS = (*SCENARIO_STIFFNESS, "custom")

TRACE_COLUMNS = ("t", "x_r", "x_c", "x", "f_true", "f_meas", "e", "kappa", "stiffness_est")
RUN_METRICS = ("kappa_final", "settling_time", "steady_state_error", "peak_force")
# The trace columns the step loop carries from step to step; run_scenario
# computes the others from them after the loop.
_LOOP_COLUMNS = ("x_r", "x_c", "f_meas", "e", "kappa")
# One loop row: the _LOOP_COLUMNS values of one step as native doubles.
_LOOP_ROW = struct.Struct(f"{len(_LOOP_COLUMNS)}d")
# The most steps a run may take, floor(duration / dt) + 1.  A run holds its
# whole trace, 64 bytes a step, and one BLOCK of noise: run_scenario peaks at
# about 68 bytes a step and SimTrace.summary at about 74, 0.74 GB at most.
MAX_STEPS = 10**7

# the one controller tuning for every soil, whose stiffness it is not told
IMPEDANCE = ImpedanceParams(mass=1.0, damping=700.0, stiffness=400.0)
ADAPTATION = AdaptationParams(drive_gain=8.0, drive_rate_gain=0.05, error_weight=1.0,
                              error_rate_weight=0.05, deriv_filter_tau=0.01)
# the approach reference's speed far from the detected surface, in m/s
APPROACH_SPEED = 0.02
# its slow touch speed near and past the detected surface, in m/s
CONTACT_SPEED = 5e-4
# the distance above the detected surface over which it slows down, in m
DECEL_BAND = 2e-3
# the tared measured force, in N, at which the probe hands over to force control
CONTACT_THRESHOLD = 0.2
# the robot follows its command exactly: the probe position x is x_c
_ROBOT = RobotModel(0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, flat description of one probing run; every field can be
    set from a config file.  The controller tuning, the approach speeds
    and the handover force are this module's constants IMPEDANCE,
    ADAPTATION, APPROACH_SPEED, CONTACT_SPEED, DECEL_BAND and
    CONTACT_THRESHOLD, and the robot follows its command exactly.
    """

    scenario: str = "custom"
    env_stiffness: float = 500.0
    force_setpoint: float = 5.0
    surface_true: float = 0.0
    surface_detected: float = 0.0
    duration: float = 10.0
    dt: float = 1e-3
    seed: int = 0
    # sensing
    bias_amplitude: float = 0.0
    bias_drift_rate: float = 0.0
    white_noise_std: float = 0.0
    # approach phase
    approach_height: float = 0.05
    # hold the known-stiffness reference instead of adapting
    fixed_reference: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind: '{self.scenario}' "
                             f"(choose from {', '.join(SCENARIO_KINDS)})")
        for name, value in vars(self).items():
            if name in _FLOAT_FIELDS:
                if not isinstance(value, numbers.Real):
                    raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
                # a numpy scalar kept here would turn every step of
                # run_scenario's loop into numpy-scalar arithmetic, which
                # gives the same doubles about three times slower
                value = float(value)
                object.__setattr__(self, name, value)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite")
        # a bool is an Integral too, but as a seed it is a typo
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise TypeError(f"seed must be an integer, got {type(self.seed).__name__}")
        object.__setattr__(self, "seed", int(self.seed))
        if not isinstance(self.fixed_reference, bool):
            raise TypeError(f"fixed_reference must be a bool, "
                            f"got {type(self.fixed_reference).__name__}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError("duration / dt must be finite")
        if math.floor(self.duration / self.dt) + 1 > MAX_STEPS:
            raise ValueError(f"duration / dt gives more than MAX_STEPS = {MAX_STEPS} steps")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.approach_height < 0:
            raise ValueError("approach_height must be non-negative")
        # the probe's start; each term finite, their difference may not be
        if not math.isfinite(self.surface_detected - self.approach_height):
            raise ValueError("surface_detected - approach_height must be finite")
        # the probe hands over to force control once the measured force
        # reaches CONTACT_THRESHOLD, so the setpoint must lie above it
        if self.force_setpoint <= CONTACT_THRESHOLD:
            raise ValueError(f"force_setpoint must be above "
                             f"CONTACT_THRESHOLD = {CONTACT_THRESHOLD}")
        # instantiating the component models validates the remaining fields
        self.environment_model()
        self.sensor_model()

    def impedance_params(self) -> ImpedanceParams:
        return IMPEDANCE

    def adaptation_params(self) -> AdaptationParams:
        return ADAPTATION

    def environment_model(self) -> EnvironmentModel:
        return EnvironmentModel(self.env_stiffness, self.surface_true)

    def sensor_model(self) -> SensorModel:
        return SensorModel(self.bias_amplitude, self.bias_drift_rate, self.white_noise_std)

    def robot_model(self) -> RobotModel:
        return _ROBOT


# the fields that ScenarioConfig stores as Python floats
_FLOAT_FIELDS = frozenset(
    name for name, kind in typing.get_type_hints(ScenarioConfig).items() if kind is float
)


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

    x, the probe position, is x_c's array: the robot follows its command
    exactly.  stiffness_est is the guarded reciprocal of kappa and reads
    +inf while the estimate is at the rigid floor.  A run that tripped the
    divergence guards is truncated and flagged instead of raising.
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
        tail = max(1, int(round(min(0.5 / cfg.dt, abs_e.size))))
        out["steady_state_error"] = float(abs_e[-tail:].max())
        kappa_final = float(self.kappa[-1])
        out["kappa_final"] = kappa_final
        out["stiffness_final"] = stiffness_estimate(kappa_final)
        # |f_meas| reuses |e|'s buffer, so the summary holds one per-step float array
        out["peak_force"] = float(np.abs(self.f_meas, out=abs_e).max())
        return out


def _entry_time(t: np.ndarray, abs_e: np.ndarray, band: float) -> float:
    """First time from which |e| stays inside the band to the end; NaN if
    it never does."""
    outside = abs_e > band
    # one past the last step outside the band (argmax finds the first True
    # of the reversed mask, or 0 if it has none), with no index array
    entry = outside.size - int(outside[::-1].argmax())
    if not outside[entry - 1]:
        return 0.0
    if entry >= t.size:
        return math.nan
    return float(t[entry])


def run_scenario(cfg: ScenarioConfig) -> SimTrace:
    """Simulate one probing run.

    Phases: (1) approach — the reference descends from approach_height
    above the detected surface with no force feedback, decelerating to a
    slow touch speed near the surface and creeping past it until the
    measured force reaches CONTACT_THRESHOLD; (2) force — the tracking
    error drives the impedance filter, and the compliance estimate adapts
    from zero, shaping the reference thereafter.  Touching down slowly is
    what keeps a rigid collision within the safety bound.

    The sensor is tared in free space: the mean reading over the approach
    steps taken while the reference is outside DECEL_BAND is its zero
    offset (0 if there are none).  The force error and the contact test
    use the tared reading; the trace records the raw one.

    With fixed_reference=True the known-stiffness reference is held
    constant from t=0 and no adaptation runs.

    Divergence of either the filter or the adaptation law truncates the
    trace and sets the failure flag; it never raises.

    A step calls no step function or sensor method: the steps run BLOCK
    at a time, each block's sensor noise comes from one SensorState.noise
    call before it, and the math of environment_force, adaptation_step,
    position_reference and impedance_step is written out on local floats
    in their operand order.  The robot follows its command exactly
    (robot_step with robot_model() returns x_c), so the probe position is
    x_c.
    A step records only the values the loop carries, _LOOP_COLUMNS; t,
    f_true and stiffness_est are computed from them after the loop by the
    same IEEE operations, and x is x_c's column.  The tests hold every
    trace column equal, bit for bit, to a loop that calls those functions,
    robot_step and SensorState.read.
    """
    n = int(math.floor(cfg.duration / cfg.dt)) + 1
    dt = cfg.dt
    sensor = SensorState(cfg.sensor_model(), cfg.seed)
    mass, damping, stiffness = IMPEDANCE.mass, IMPEDANCE.damping, IMPEDANCE.stiffness
    drive_gain, drive_rate_gain = ADAPTATION.drive_gain, ADAPTATION.drive_rate_gain
    error_weight, error_rate_weight = ADAPTATION.error_weight, ADAPTATION.error_rate_weight
    tau = ADAPTATION.deriv_filter_tau
    lp_gain = dt / (tau + dt)  # the dirty derivatives' low-pass gain
    k_env, surface_true = cfg.env_stiffness, cfg.surface_true
    setpoint, surface = cfg.force_setpoint, cfg.surface_detected
    decel_band, threshold = DECEL_BAND, CONTACT_THRESHOLD
    approach_speed, contact_speed = APPROACH_SPEED, CONTACT_SPEED
    adapting = not cfg.fixed_reference
    isfinite = math.isfinite

    x_c = x_ref = surface - cfg.approach_height
    v_c = ref_rate = 0.0
    kappa = kappa_rate = kappa_accel = error_lp = q_lp = 0.0
    tare = 0.0
    # One _LOOP_ROW per step, packed in place: sized once for the whole run,
    # the buffer is never grown or copied, and a step builds no row tuple.
    rows = bytearray(_LOOP_ROW.size * n)
    pack, row_size = _LOOP_ROW.pack_into, _LOOP_ROW.size
    offset, end = 0, len(rows)  # the next row's offset in rows, and the last one's end
    reason = ""
    # The divergence guards test only the states that turn non-finite first.
    # In the adaptation update each of error_lp, q_lp and kappa_accel feeds
    # kappa_rate within the step: error_lp -> e_rate -> q -> drive, q_lp ->
    # q_rate -> drive, and drive -> jerk -> kappa_accel -> kappa_rate.  Each
    # link is a sum, a product with a finite gain or dt, or a quotient by tau
    # or mass, and none of these turns an inf or a NaN finite (0 * inf and
    # inf - inf are NaN).  So in a step where any of the five states is
    # non-finite, kappa or kappa_rate is too, and testing those two trips at
    # the same step as testing all five.  In the filter update, x_c + dt *
    # v_c is non-finite whenever v_c is, so testing x_c covers both.
    if cfg.fixed_reference:
        x_ref = steady_state_reference(setpoint, k_env, surface)
    in_contact = cfg.fixed_reference
    tare_sum, tare_count = 0.0, 0
    # Each block's noise continues the one sensor stream (None for an exact
    # sensor), so a run holds one block of noise, not the whole run's.
    for start in range(0, n, BLOCK):
        k = min(BLOCK, n - start)
        noise = sensor.noise(k, dt)
        noisy = noise is not None
        bias, white = noise if noisy else ((), ())
        for j in range(k):
            depth = x_c - surface_true
            f_true = k_env * depth if depth > 0.0 else 0.0
            f_meas = f_true + bias[j] + white[j] if noisy else f_true
            if in_contact:
                e = e_ctrl = setpoint - (f_meas - tare)
                if adapting:
                    error_lp = error_lp + lp_gain * (e - error_lp)
                    e_rate = (e - error_lp) / tau
                    q = error_weight * e + error_rate_weight * e_rate
                    q_lp = q_lp + lp_gain * (q - q_lp)
                    q_rate = (q - q_lp) / tau
                    drive = drive_gain * q + drive_rate_gain * q_rate
                    jerk = (drive - stiffness * kappa_rate - damping * kappa_accel) / mass
                    kappa_accel = kappa_accel + dt * jerk
                    kappa_rate = kappa_rate + dt * kappa_accel
                    kappa = kappa + dt * kappa_rate
                    if kappa < 0.0:
                        kappa = 0.0
                    if not (isfinite(kappa) and isfinite(kappa_rate)):
                        reason = "adaptation diverged"
                        del rows[offset:]  # keep the steps recorded before this one
                        break
                    x_ref = kappa * setpoint + surface
                    ref_rate = kappa_rate * setpoint
            else:
                remaining = surface - x_ref
                if remaining > decel_band:
                    tare_sum += f_meas
                    tare_count += 1
                    tare = tare_sum / tare_count
                f_tared = f_meas - tare
                e = setpoint - f_tared
                # spurious far-field readings (sensor noise) must not trigger
                # the handover, hence the within-band requirement
                if abs(f_tared) >= threshold and remaining <= decel_band:
                    in_contact = True
                    # the differentiators start from the current error, so the
                    # first adaptation step sees no derivative kick
                    error_lp, q_lp = e, error_weight * e
                    e_ctrl = e
                    x_ref = kappa * setpoint + surface
                    ref_rate = 0.0
                else:
                    # full speed far out, a linear taper across the deceleration
                    # band, and a slow touch speed from there on (also past the
                    # detected surface, until contact actually fires)
                    e_ctrl = 0.0
                    if remaining >= decel_band:
                        ref_rate = approach_speed
                    else:
                        ref_rate = max(contact_speed, approach_speed * remaining / decel_band)
                    x_ref = x_ref + ref_rate * dt
            pack(rows, offset, x_ref, x_c, f_meas, e, kappa)
            offset += row_size
            if offset == end:
                break
            # impedance_step adds the reference acceleration 0.0 here, which
            # only turns a -0.0 into 0.0: v_c starts at 0.0 and a sum is -0.0
            # only when both terms are, so v_c + dt * a_c is the same either way
            a_c = (e_ctrl - damping * (v_c - ref_rate) - stiffness * (x_c - x_ref)) / mass
            v_c = v_c + dt * a_c
            x_c = x_c + dt * v_c
            if not isfinite(x_c):
                reason = "filter diverged"
                del rows[offset:]  # this step's row is recorded
                break
        else:
            continue
        break  # the run ended within this block

    x_ref, x_c, f_meas, e, kappa = np.frombuffer(rows).reshape(-1, len(_LOOP_COLUMNS)).T
    m = x_c.size
    # The other columns by the loop's IEEE operations: i * dt, k_env * depth
    # where depth > 0.0 (else 0.0), and 1.0 / kappa where kappa >
    # COMPLIANCE_FLOOR (else inf).  Each is made in place by plain array
    # operations: a masked or casting ufunc on these strided columns
    # allocates iteration buffers, and they would set the run's memory peak.
    t = np.arange(m, dtype=float)
    t *= dt
    # an overflow gives inf, as in the loop, or an entry the masks replace
    with np.errstate(over="ignore", divide="ignore"):
        f_true = x_c - surface_true
        outside = ~(f_true > 0.0)
        f_true *= k_env
        f_true[outside] = 0.0
        stiffness_est = 1.0 / kappa
    stiffness_est[~(kappa > COMPLIANCE_FLOOR)] = math.inf
    return SimTrace(cfg, t, x_ref, x_c, x_c, f_true, f_meas, e, kappa, stiffness_est,
                    failed=bool(reason), failure_reason=reason)


def trace_to_csv(trace: SimTrace) -> str:
    """Render a trace as CSV with the contracted header and column order,
    each value as %.9g.

    The rows are rendered CSV_CHUNK_ROWS at a time by cloud.csv_chunks, so
    beside the trace and the text only one chunk's buffers are held.
    """
    columns = [getattr(trace, name) for name in TRACE_COLUMNS]
    return "".join([",".join(TRACE_COLUMNS) + "\n", *csv_chunks(columns)])


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
    return summary_statistics([tr.summary() for tr in traces])


def summary_statistics(summaries) -> dict:
    """summarize_runs from the runs' SimTrace.summary() dicts, in run order."""
    if not summaries:
        raise ValueError("no traces to summarize")
    by_kind: dict[str, list[dict]] = {}
    for summary in summaries:
        by_kind.setdefault(summary["scenario"], []).append(summary)
    out: dict[str, dict] = {}
    for kind, runs in by_kind.items():
        stats: dict[str, dict] = {"runs": len(runs)}
        for metric in RUN_METRICS:
            vals = np.array([s[metric] for s in runs], dtype=float)
            mean, std = _mean_std(vals)
            entry = {
                "mean": mean,
                "std": std,
                "min": float(np.min(vals)),
                "max": float(np.max(vals)),
            }
            if metric == "kappa_final":
                mean = entry["mean"]
                entry["rel_std"] = entry["std"] / abs(mean) if mean != 0 else math.nan
            stats[metric] = entry
        out[kind] = stats
    return out


def _mean_std(vals: np.ndarray) -> tuple[float, float]:
    """np.mean and np.std of vals.  Finite vals are scaled exactly by a power
    of two to below 1 in magnitude first, so no sum or squared deviation
    overflows or underflows where the statistic itself does not, and the
    results are scaled back within the bounds the true values keep: the
    mean within [min, max], the std within max |vals|, and 0 for equal vals."""
    if not np.isfinite(vals).all():
        # inf beside -inf is inf - inf, and the finite vals may still overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.mean(vals)), float(np.std(vals))
    exp = math.frexp(float(np.abs(vals).max()))[1]
    scaled = np.ldexp(vals, -exp)
    lo, hi = float(scaled.min()), float(scaled.max())
    mean = math.ldexp(min(max(float(np.mean(scaled)), lo), hi), exp)
    std = 0.0 if lo == hi else math.ldexp(min(float(np.std(scaled)), max(-lo, hi)), exp)
    return mean, std


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
