import hashlib
import math

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
    for fields, message in (
        (dict(roughness=-0.01), "roughness must be finite and non-negative"),
        (dict(roughness=math.inf), "roughness must be finite and non-negative"),
        (dict(roughness=math.nan), "roughness must be finite and non-negative"),
        (dict(view_azimuth=math.nan), "view_azimuth must be None or finite"),
        (dict(view_azimuth=-math.inf), "view_azimuth must be None or finite"),
        (dict(n_soil=-5), "n_soil must be a non-negative integer"),
        (dict(n_rim=2.5), "n_rim must be a non-negative integer"),
        (dict(n_table=-1), "n_table must be a non-negative integer"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PotSceneParams(**fields)
    PotSceneParams(n_soil=np.int64(100), view_azimuth=1.0)  # a numpy count passes


_DEFAULT = PotSceneParams()
# 16x the default counts, ~95k points: the benchmark's dense scene
_DENSE = PotSceneParams(n_soil=16 * _DEFAULT.n_soil, n_rim=16 * _DEFAULT.n_rim,
                        n_wall=16 * _DEFAULT.n_wall, n_foliage=16 * _DEFAULT.n_foliage,
                        n_table=16 * _DEFAULT.n_table)
# flat soil, no foliage and a fixed view: an empty part and no azimuth draw
_FLAT = PotSceneParams(roughness=0.0, n_foliage=0, view_azimuth=1.0)

# sha256 of a scene's point bytes followed by its truth inlier indices as
# int64, per parameter set and seed; any change to the generator's draws,
# their order or its arithmetic moves them
SCENE_DIGESTS = {
    ("default", 0): "6587e9cf67de9e61ad00775c3e6638861fc2fc94a56b4b9c76f0003581037154",
    ("default", 7): "5599e6cd34dbb55827e4c1b36d87f0fb5e6e5151c91a79bda82cfdbc48a97208",
    ("default", 100): "ff7be43edecf9f7cf94f6bf1ffe17be19233f45176dff69e2cd2711d791041ed",
    ("dense", 0): "f769d835c68b6a533c115faeed050b0615643c39cae055bf0a7858d85c8ae6ab",
    ("dense", 7): "4f3072232abee53140e503e55773fcb04460f61e8ac9a84d0d3b92982b429a36",
    ("dense", 100): "d105caab32035930bb147271e1793228e0095035438cc74eee54c09352d07e5e",
    ("flat", 0): "80d4876821b15903ec44f19d2e42af8a481487d4f59fcbea2b5158604fd521ad",
    ("flat", 7): "d74353d9cf7adda6e0dbe57e5c50264e1da10951d0d714bccd84cc8325e3e76d",
    ("flat", 100): "7bfe5eb91d56bcf3b1d41c1547d6fa7eba99189a48225faaa65c8171edb06cd4",
}


@pytest.mark.parametrize("name, seed", list(SCENE_DIGESTS))
def test_scene_bytes_are_pinned(name, seed):
    params = {"default": _DEFAULT, "dense": _DENSE, "flat": _FLAT}[name]
    cloud, truth = generate_pot_scene(params, seed=seed)
    assert cloud.points.dtype == np.float64 and cloud.points.flags.c_contiguous
    data = cloud.points.tobytes() + truth.plane.inlier_indices.astype(np.int64).tobytes()
    assert hashlib.sha256(data).hexdigest() == SCENE_DIGESTS[name, seed]
