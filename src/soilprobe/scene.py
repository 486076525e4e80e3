"""Synthetic potted-plant scenes for detection benchmarks.

A scene is a desk-scale point cloud of a plant pot on a table: a rough
soil disc, the pot rim and inner wall, foliage clutter above, and table
points below.  A viewpoint-dependent occlusion sector (the far-side soil
hidden behind the rim for a low camera) makes the visible soil asymmetric,
which disperses the detected surface center across viewpoints the way real
depth views do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, WorkspaceBounds
from .ground import APPROACH_OFFSET_Y, GroundEstimate, PlaneModel, Point3


@dataclass(frozen=True)
class PotSceneParams:
    """Geometry and content of a generated pot scene.

    The table surface sits at z=0; the rim tops out at pot_height and the
    soil surface lies soil_depth below the rim.  Roughness is the full
    peak-to-peak height variation of the soil.
    """

    pot_radius: float = 0.10
    pot_height: float = 0.12
    soil_depth: float = 0.02
    roughness: float = 0.01
    rim_width: float = 0.008
    n_soil: int = 4000
    n_rim: int = 500
    n_wall: int = 400
    n_foliage: int = 250
    n_table: int = 1200
    foliage_height: float = 0.10
    table_radius: float = 0.35
    table_noise: float = 0.0015
    occlusion_half_angle: float = 0.6
    occlusion_inner_radius: float = 0.065
    view_azimuth: float | None = None

    def __post_init__(self):
        if self.pot_radius <= 0:
            raise ValueError("pot radius must be positive")
        if not 0 < self.soil_depth < self.pot_height:
            raise ValueError("soil_depth must lie within the pot height")
        if self.roughness < 0:
            raise ValueError("roughness must be non-negative")

    @property
    def soil_z(self) -> float:
        return self.pot_height - self.soil_depth

    @property
    def soil_radius(self) -> float:
        return self.pot_radius - self.rim_width


def scene_bounds(params: PotSceneParams = PotSceneParams(), margin: float = 0.05) -> WorkspaceBounds:
    """Workspace crop matching a generated scene.

    The lower crop sits a few millimetres above the physical table so that
    table-surface noise never leaks into the workspace — the same slack a
    calibrated table height would get on a real cell.
    """
    extent = params.pot_radius * 1.5
    return WorkspaceBounds(
        x_min=-extent,
        x_max=extent,
        y_max=extent,
        z_table=2.0 * params.table_noise + 0.001,
        pot_height=params.pot_height,
        margin=margin,
    )


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def generate_pot_scene(
    params: PotSceneParams = PotSceneParams(), seed: int = 0
) -> tuple[PointCloud, GroundEstimate]:
    """Generate one seeded scene; returns the cloud and the exact truth.

    The truth estimate carries the ideal soil plane, the true surface
    center, the nearest reachable soil point and the probing approach
    point; its inlier indices are the soil points that survived occlusion
    (they come first in the returned cloud).
    """
    rng = np.random.default_rng(seed)
    azimuth = params.view_azimuth
    if azimuth is None:
        azimuth = float(rng.uniform(0.0, 2.0 * math.pi))

    # soil disc with uniform height variation
    r = params.soil_radius * np.sqrt(rng.uniform(0.0, 1.0, params.n_soil))
    th = rng.uniform(0.0, 2.0 * math.pi, params.n_soil)
    z = params.soil_z + rng.uniform(-0.5, 0.5, params.n_soil) * params.roughness
    soil = np.column_stack([r * np.cos(th), r * np.sin(th), z])

    # far-side outer soil hidden behind the rim for a low camera
    hidden_center = azimuth + math.pi
    hidden = (r >= params.occlusion_inner_radius) & (
        np.abs(_wrap_angle(th - hidden_center)) <= params.occlusion_half_angle
    )
    soil = soil[~hidden]

    # rim ring at the pot top
    r_rim = rng.uniform(params.soil_radius, params.pot_radius, params.n_rim)
    th_rim = rng.uniform(0.0, 2.0 * math.pi, params.n_rim)
    z_rim = params.pot_height + rng.uniform(-0.002, 0.002, params.n_rim)
    rim = np.column_stack([r_rim * np.cos(th_rim), r_rim * np.sin(th_rim), z_rim])

    # inner wall: the far half-arc a camera sees between soil and rim
    th_wall = hidden_center + rng.uniform(-0.5 * math.pi, 0.5 * math.pi, params.n_wall)
    z_wall = rng.uniform(params.soil_z, params.pot_height, params.n_wall)
    r_wall = params.soil_radius + rng.uniform(0.0, params.rim_width, params.n_wall)
    wall = np.column_stack([r_wall * np.cos(th_wall), r_wall * np.sin(th_wall), z_wall])

    # foliage: a loose canopy above the soil around an offset stem
    stem = rng.uniform(-0.02, 0.02, 2)
    r_fol = np.abs(rng.normal(0.0, 0.035, params.n_foliage))
    th_fol = rng.uniform(0.0, 2.0 * math.pi, params.n_foliage)
    z_fol = params.soil_z + rng.uniform(0.01, params.foliage_height, params.n_foliage)
    fol = np.column_stack(
        [
            np.clip(stem[0] + r_fol * np.cos(th_fol), -0.09, 0.09),
            np.clip(stem[1] + r_fol * np.sin(th_fol), -0.09, 0.09),
            z_fol,
        ]
    )

    # table annulus around the pot
    r_tab = np.sqrt(
        rng.uniform((params.pot_radius + 0.01) ** 2, params.table_radius**2, params.n_table)
    )
    th_tab = rng.uniform(0.0, 2.0 * math.pi, params.n_table)
    z_tab = rng.uniform(-1.0, 1.0, params.n_table) * params.table_noise
    table = np.column_stack([r_tab * np.cos(th_tab), r_tab * np.sin(th_tab), z_tab])

    cloud = PointCloud(np.vstack([soil, rim, wall, fol, table]))

    plane = PlaneModel(
        normal=np.array([0.0, 0.0, 1.0]),
        d=-params.soil_z,
        inlier_indices=np.arange(soil.shape[0]),
        threshold=0.5 * params.roughness,
    )
    center = Point3(0.0, 0.0, params.soil_z)
    near = Point3(0.0, -params.soil_radius, params.soil_z)
    approach = Point3(near.x, near.y + APPROACH_OFFSET_Y, near.z)
    return cloud, GroundEstimate(plane, center, near, approach)
