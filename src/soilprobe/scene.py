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
import numbers
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, WorkspaceBounds
from .ground import APPROACH_OFFSET_Y, GroundEstimate, PlaneModel, Point3

# Scene geometry, in meters.  The table surface sits at z=0; the rim tops
# out at POT_HEIGHT and the soil surface lies SOIL_DEPTH below the rim.
POT_RADIUS = 0.10
POT_HEIGHT = 0.12
SOIL_DEPTH = 0.02
RIM_WIDTH = 0.008
SOIL_Z = POT_HEIGHT - SOIL_DEPTH
SOIL_RADIUS = POT_RADIUS - RIM_WIDTH
FOLIAGE_HEIGHT = 0.10
TABLE_RADIUS = 0.35
TABLE_NOISE = 0.0015
# far-side soil beyond this radius, within this angle of the side facing
# away from the camera, hides behind the rim
OCCLUSION_HALF_ANGLE = 0.6
OCCLUSION_INNER_RADIUS = 0.065
CROP_MARGIN = 0.05  # crop headroom above the rim


@dataclass(frozen=True)
class PotSceneParams:
    """Content of a generated pot scene: the soil's full peak-to-peak
    roughness, the camera azimuth (drawn from the seed when None) and the
    point count of each part."""

    roughness: float = 0.01
    n_soil: int = 4000
    n_rim: int = 500
    n_wall: int = 400
    n_foliage: int = 250
    n_table: int = 1200
    view_azimuth: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.roughness) and self.roughness >= 0):
            raise ValueError("roughness must be finite and non-negative")
        for name in ("n_soil", "n_rim", "n_wall", "n_foliage", "n_table"):
            count = getattr(self, name)
            if not isinstance(count, numbers.Integral) or count < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if self.view_azimuth is not None and not math.isfinite(self.view_azimuth):
            raise ValueError("view_azimuth must be None or finite")


def scene_bounds() -> WorkspaceBounds:
    """Workspace crop matching a generated scene.

    The lower crop sits a few millimetres above the physical table so that
    table-surface noise never leaks into the workspace — the same slack a
    calibrated table height would get on a real cell.
    """
    extent = POT_RADIUS * 1.5
    z_min = 2.0 * TABLE_NOISE + 0.001
    return WorkspaceBounds(
        x_min=-extent,
        x_max=extent,
        y_max=extent,
        z_min=z_min,
        z_max=z_min + POT_HEIGHT + CROP_MARGIN,
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
    (they come first in the returned cloud).  The parts follow in the
    order soil, rim, wall, foliage, table, each written straight into its
    rows of the one (N, 3) array the cloud holds.
    """
    rng = np.random.default_rng(seed)
    azimuth = params.view_azimuth
    if azimuth is None:
        azimuth = float(rng.uniform(0.0, 2.0 * math.pi))

    # soil disc with uniform height variation
    r = SOIL_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, params.n_soil))
    th = rng.uniform(0.0, 2.0 * math.pi, params.n_soil)
    z = SOIL_Z + rng.uniform(-0.5, 0.5, params.n_soil) * params.roughness

    # far-side outer soil hidden behind the rim for a low camera
    hidden_center = azimuth + math.pi
    hidden = (r >= OCCLUSION_INNER_RADIUS) & (
        np.abs(_wrap_angle(th - hidden_center)) <= OCCLUSION_HALF_ANGLE
    )
    visible = np.flatnonzero(~hidden)
    n_soil = visible.size
    n = n_soil + params.n_rim + params.n_wall + params.n_foliage + params.n_table
    # Each part is written into its rows of one preallocated array, not
    # built apart and joined: the benchmark's pipeline workload generates a
    # dense scene in the measured process, and np.column_stack per part with
    # one np.vstack, for the same bytes, raised its peak RSS 47.56 -> 48.76
    # MB (medians, higher in 6 of 6 pairs, shared 2-vCPU host, numpy 2.4).
    points = np.empty((n, 3))
    soil = points[:n_soil]
    soil[:, 0] = (r * np.cos(th))[visible]
    soil[:, 1] = (r * np.sin(th))[visible]
    soil[:, 2] = z[visible]
    del r, th, z, hidden, visible
    rim, wall, fol, table = np.split(
        points[n_soil:], np.cumsum([params.n_rim, params.n_wall, params.n_foliage]))

    # rim ring at the pot top
    r_rim = rng.uniform(SOIL_RADIUS, POT_RADIUS, params.n_rim)
    th_rim = rng.uniform(0.0, 2.0 * math.pi, params.n_rim)
    rim[:, 0] = r_rim * np.cos(th_rim)
    rim[:, 1] = r_rim * np.sin(th_rim)
    rim[:, 2] = POT_HEIGHT + rng.uniform(-0.002, 0.002, params.n_rim)

    # inner wall: the far half-arc a camera sees between soil and rim
    th_wall = hidden_center + rng.uniform(-0.5 * math.pi, 0.5 * math.pi, params.n_wall)
    wall[:, 2] = rng.uniform(SOIL_Z, POT_HEIGHT, params.n_wall)
    r_wall = SOIL_RADIUS + rng.uniform(0.0, RIM_WIDTH, params.n_wall)
    wall[:, 0] = r_wall * np.cos(th_wall)
    wall[:, 1] = r_wall * np.sin(th_wall)

    # foliage: a loose canopy above the soil around an offset stem
    stem = rng.uniform(-0.02, 0.02, 2)
    r_fol = np.abs(rng.normal(0.0, 0.035, params.n_foliage))
    th_fol = rng.uniform(0.0, 2.0 * math.pi, params.n_foliage)
    fol[:, 2] = SOIL_Z + rng.uniform(0.01, FOLIAGE_HEIGHT, params.n_foliage)
    np.clip(stem[0] + r_fol * np.cos(th_fol), -0.09, 0.09, out=fol[:, 0])
    np.clip(stem[1] + r_fol * np.sin(th_fol), -0.09, 0.09, out=fol[:, 1])

    # table annulus around the pot
    r_tab = np.sqrt(rng.uniform((POT_RADIUS + 0.01) ** 2, TABLE_RADIUS**2, params.n_table))
    th_tab = rng.uniform(0.0, 2.0 * math.pi, params.n_table)
    table[:, 2] = rng.uniform(-1.0, 1.0, params.n_table) * TABLE_NOISE
    table[:, 0] = r_tab * np.cos(th_tab)
    table[:, 1] = r_tab * np.sin(th_tab)

    cloud = PointCloud(points)

    plane = PlaneModel(
        normal=np.array([0.0, 0.0, 1.0]),
        d=-SOIL_Z,
        inlier_indices=np.arange(n_soil),
    )
    center = Point3(0.0, 0.0, SOIL_Z)
    near = Point3(0.0, -SOIL_RADIUS, SOIL_Z)
    approach = Point3(near.x, near.y + APPROACH_OFFSET_Y, near.z)
    return cloud, GroundEstimate(plane, center, near, approach)
