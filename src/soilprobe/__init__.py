"""Robotic soil sampling: surface detection from point clouds and adaptive
compliant force control with on-line stiffness estimation."""

from .adaptation import (
    AdaptationParams,
    AdaptationState,
    adaptation_step,
    position_reference,
    stiffness_estimate,
)
from .cloud import (
    PointCloud,
    WorkspaceBounds,
    load_cloud,
    save_cloud,
    workspace_filter,
)
from .config import ConfigError, load_scenario_config
from .contact import (
    EnvironmentModel,
    RobotModel,
    SensorModel,
    SensorState,
    environment_force,
    robot_step,
)
from .ground import (
    BAND_WIDTHS,
    GroundEstimate,
    PlaneModel,
    Point3,
    detect_ground,
    estimate_to_text,
    extract_ground_estimate,
    fit_plane_ransac,
    refine_ground_band,
    refinement_history,
    score_bin,
)
from .impedance import (
    ImpedanceParams,
    ImpedanceState,
    ReferenceSignal,
    impedance_step,
    steady_state_reference,
)
from .scenario import (
    SCENARIO_KINDS,
    SCENARIO_STIFFNESS,
    ScenarioConfig,
    SimTrace,
    format_run_statistics,
    format_summary,
    run_scenario,
    scenario_preset,
    summarize_runs,
    trace_to_csv,
)
from .scene import PotSceneParams, generate_pot_scene, scene_bounds
