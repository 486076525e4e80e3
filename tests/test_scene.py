import numpy as np
import pytest

from soilprobe import scene
from soilprobe.ground import detect_ground
from soilprobe.scene import PotSceneParams, generate_pot_scene, scene_bounds


def test_scene_is_deterministic():
    a, truth_a = generate_pot_scene(seed=5)
    b, truth_b = generate_pot_scene(seed=5)
    assert np.array_equal(a.points, b.points)
    assert truth_a.center.z == truth_b.center.z
    c, _ = generate_pot_scene(seed=6)
    assert not np.array_equal(a.points, c.points)


def test_scene_composition():
    params = PotSceneParams()
    cloud, truth = generate_pot_scene(params, seed=0)
    n_soil = truth.plane.inlier_indices.size
    assert len(cloud) == n_soil + params.n_rim + params.n_wall + params.n_foliage + params.n_table
    # occlusion removes some of the soil disc
    assert 0 < n_soil < params.n_soil
    # truth inliers are the leading soil block
    assert np.array_equal(truth.plane.inlier_indices, np.arange(n_soil))
    soil = cloud.points[:n_soil]
    assert np.abs(soil[:, 2] - scene.SOIL_Z).max() <= 0.5 * params.roughness + 1e-12
    assert np.all(np.isfinite(cloud.points))


def test_truth_estimate_geometry():
    _, truth = generate_pot_scene(seed=3)
    assert truth.plane.normal[2] == 1.0
    assert truth.center.z == scene.SOIL_Z
    assert truth.near_point.y == -scene.SOIL_RADIUS
    assert truth.approach.y == truth.near_point.y + 0.03
    assert truth.z_at(0.01, -0.02) == pytest.approx(scene.SOIL_Z)


def test_scene_bounds_cover_pot_but_not_table():
    bounds = scene_bounds()
    assert bounds.z_min > scene.TABLE_NOISE     # table noise stays outside
    assert bounds.z_min < scene.SOIL_Z
    assert bounds.z_max > scene.POT_HEIGHT
    assert bounds.x_max >= scene.POT_RADIUS


def test_zero_roughness_scene_recovers_exactly():
    params = PotSceneParams(roughness=0.0, n_foliage=0)
    cloud, truth = generate_pot_scene(params, seed=4)
    est = detect_ground(cloud, scene_bounds(), seed=4)
    assert abs(est.center.z - truth.center.z) <= 1e-4


def test_detection_error_is_millimetric():
    for seed in (0, 1, 2):
        cloud, truth = generate_pot_scene(PotSceneParams(), seed=seed)
        est = detect_ground(cloud, scene_bounds(), seed=seed)
        assert abs(est.center.z - truth.center.z) <= 0.002


def test_fixed_view_azimuth_pins_occlusion():
    params = PotSceneParams(view_azimuth=0.0)
    cloud, truth = generate_pot_scene(params, seed=8)
    n_soil = truth.plane.inlier_indices.size
    soil = cloud.points[:n_soil]
    # the hidden sector faces away from the viewpoint: azimuth + pi
    angles = np.arctan2(soil[:, 1], soil[:, 0])
    radii = np.hypot(soil[:, 0], soil[:, 1])
    outer_back = (radii >= scene.OCCLUSION_INNER_RADIUS) & (
        np.abs(np.abs(angles) - np.pi) <= scene.OCCLUSION_HALF_ANGLE - 1e-9)
    assert outer_back.sum() == 0


def test_params_validation():
    with pytest.raises(ValueError, match="roughness"):
        PotSceneParams(roughness=-0.01)
