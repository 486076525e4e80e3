import numpy as np
import pytest

from soilprobe.cloud import PointCloud, workspace_filter
from soilprobe.ground import (
    BAND_WIDTHS,
    GroundEstimate,
    PlaneModel,
    bin_points,
    detect_ground,
    estimate_to_text,
    extract_ground_estimate,
    fit_plane_ransac,
    refine_ground_band,
    refinement_history,
    score_bin,
)
from soilprobe.scene import PotSceneParams, generate_pot_scene, scene_bounds


def cloud_from_z(z_values, rng=None):
    z = np.asarray(z_values, dtype=float)
    if rng is None:
        xy = np.zeros((z.size, 2))
    else:
        xy = rng.uniform(-0.1, 0.1, (z.size, 2))
    return PointCloud(np.column_stack([xy, z])).sort_by_z()


# ---------------------------------------------------------------- binning

def test_bin_points_hand_partition():
    idx, counts = bin_points(np.array([0.70, 0.71, 0.78]), dz=0.07)
    assert counts.tolist() == [2, 1]
    assert idx.tolist() == [0, 0, 1]


def test_bin_points_singleton():
    idx, counts = bin_points(np.array([0.5]), dz=0.07)
    assert idx.tolist() == [0] and counts.tolist() == [1]


def test_bin_points_identical_z():
    idx, counts = bin_points(np.full(17, 0.3), dz=0.07)
    assert counts.tolist() == [17] and (idx == 0).all()


def test_bin_points_partitions_every_point():
    rng = np.random.default_rng(0)
    z = rng.uniform(0.0, 0.5, 400)
    idx, counts = bin_points(z, dz=0.07)
    assert counts.sum() == 400
    assert np.array_equal(np.bincount(idx, minlength=counts.size), counts)
    # bins are contiguous z intervals: a higher bin never holds a lower point
    order = np.argsort(z)
    assert (np.diff(idx[order]) >= 0).all()


def test_bin_points_errors():
    with pytest.raises(ValueError, match="no points to bin"):
        bin_points(np.array([]), dz=0.07)
    with pytest.raises(ValueError):
        bin_points(np.array([0.1]), dz=0.0)


# ---------------------------------------------------------------- scoring

def test_score_equal_neighbors_is_zero():
    assert score_bin(10, 10, 10) == 0.0


def test_score_isolated_bin():
    assert score_bin(0, 10, 0) == pytest.approx(100.0 / 11.0)


def test_score_mixed_neighbors():
    expected = (abs(5 - 10) / 16 * 10 + abs(10 - 0) / 11 * 10) / 2.0
    assert score_bin(5, 10, 0) == pytest.approx(expected)
    assert expected == pytest.approx(6.1080, abs=5e-5)


def test_score_symmetry_and_empty_bin():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = rng.integers(0, 200, 3)
        assert score_bin(a, b, c) == score_bin(c, b, a)
    for a in range(0, 50, 7):
        for c in range(0, 50, 7):
            assert score_bin(a, 0, c) == 0.0


# ------------------------------------------------------------- refinement

def test_schedule_widths_shrink_to_floor():
    # each width is the float product of the one before, bit for bit
    assert BAND_WIDTHS == (0.07, 0.052500000000000005, 0.03937500000000001,
                           0.029531250000000005, 0.022148437500000003,
                           0.016611328125, 0.01245849609375)
    for wider, narrower in zip(BAND_WIDTHS, BAND_WIDTHS[1:]):
        assert narrower == wider * 0.75
    assert BAND_WIDTHS[-1] >= 0.01
    assert BAND_WIDTHS[-1] * 0.75 < 0.01


def test_refinement_history_is_nested():
    rng = np.random.default_rng(3)
    slab = cloud_from_z(rng.uniform(0.80, 0.81, 1000), rng)
    fol = cloud_from_z(rng.uniform(0.85, 1.05, 50), rng)
    cloud = PointCloud(np.vstack([slab.points, fol.points])).sort_by_z()
    history = refinement_history(cloud)
    assert len(history) == 7
    for finer, coarser in zip(history[1:], history[:-1]):
        assert np.isin(finer, coarser).all()


def test_refine_keeps_slab_rejects_foliage():
    rng = np.random.default_rng(3)
    slab = rng.uniform(0.80, 0.81, 1000)
    fol = rng.uniform(0.85, 1.05, 50)
    cloud = cloud_from_z(np.concatenate([slab, fol]), rng)
    band = refine_ground_band(cloud)
    assert ((band.z > 0.79) & (band.z < 0.82)).all()
    assert (band.z <= 0.82).sum() >= 0.95 * slab.size


def test_refine_single_tight_band_is_identity():
    rng = np.random.default_rng(5)
    cloud = cloud_from_z(rng.uniform(0.80, 0.81, 100), rng)
    band = refine_ground_band(cloud)
    assert len(band) == len(cloud)
    assert np.array_equal(np.sort(band.z), np.sort(cloud.z))


def test_refine_two_equal_slabs_keeps_lower():
    rng = np.random.default_rng(7)
    lower = rng.uniform(0.300, 0.302, 250)
    upper = rng.uniform(0.350, 0.352, 250)
    cloud = cloud_from_z(np.concatenate([lower, upper]), rng)
    band = refine_ground_band(cloud)
    assert len(band) == 250
    assert (band.z < 0.31).all()


def test_refine_empty_cloud_errors():
    with pytest.raises(ValueError, match="no points to bin"):
        refine_ground_band(PointCloud([]))


# ------------------------------------------------------------------ RANSAC

def make_noisy_plane(rng, n_in=150, n_out=50, z0=0.80, noise=0.005):
    xy = rng.uniform(-0.1, 0.1, (n_in, 2))
    z = z0 + rng.uniform(-noise, noise, n_in)
    inliers = np.column_stack([xy, z])
    out_xy = rng.uniform(-0.1, 0.1, (n_out, 2))
    out_z = rng.uniform(0.9, 1.1, n_out)
    outliers = np.column_stack([out_xy, out_z])
    return PointCloud(np.vstack([inliers, outliers]))


def test_ransac_exact_coplanar():
    rng = np.random.default_rng(0)
    xy = rng.uniform(-0.1, 0.1, (200, 2))
    cloud = PointCloud(np.column_stack([xy, np.full(200, 0.8)]))
    model = fit_plane_ransac(cloud, seed=0)
    assert model.inlier_count == 200
    assert np.abs(cloud.points @ model.normal + model.d).max() < 1e-9
    assert model.normal[2] > 0
    assert model.d == pytest.approx(-0.8, abs=1e-12)


def test_ransac_rejects_outliers():
    cloud = make_noisy_plane(np.random.default_rng(2))
    model = fit_plane_ransac(cloud, threshold=0.0075, seed=0)
    assert model.inlier_count >= 140
    angle = np.degrees(np.arccos(min(1.0, abs(model.normal @ [0.0, 0.0, 1.0]))))
    assert angle < 2.0


def test_ransac_inliers_satisfy_threshold():
    cloud = make_noisy_plane(np.random.default_rng(4))
    model = fit_plane_ransac(cloud, threshold=0.0075, seed=1)
    dist = np.abs(cloud.points[model.inlier_indices] @ model.normal + model.d)
    assert (dist < model.threshold).all()


def test_ransac_deterministic():
    cloud = make_noisy_plane(np.random.default_rng(6))
    a = fit_plane_ransac(cloud, threshold=0.0075, seed=3)
    b = fit_plane_ransac(cloud, threshold=0.0075, seed=3)
    assert np.array_equal(a.normal, b.normal)
    assert a.d == b.d
    assert np.array_equal(a.inlier_indices, b.inlier_indices)


def test_ransac_refit_permutation_invariant():
    # when both orderings converge on the same inlier set, the refined
    # least-squares plane must agree to numerical precision
    rng = np.random.default_rng(8)
    xy = rng.uniform(-0.1, 0.1, (200, 2))
    cloud = PointCloud(np.column_stack([xy, np.full(200, 0.42)]))
    perm = rng.permutation(200)
    a = fit_plane_ransac(cloud, seed=0)
    b = fit_plane_ransac(cloud.select(perm), seed=5)
    assert a.inlier_count == b.inlier_count == 200
    assert np.max(np.abs(a.normal - b.normal)) < 1e-9
    assert abs(a.d - b.d) < 1e-9


def test_ransac_failure_modes():
    with pytest.raises(ValueError, match="plane fit failed"):
        fit_plane_ransac(PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    line = PointCloud(np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)]))
    with pytest.raises(ValueError, match="plane fit failed"):
        fit_plane_ransac(line, max_iters=50, seed=0)


def test_plane_model_validation():
    with pytest.raises(ValueError):
        PlaneModel(np.array([0.0, 0.0, 2.0]), -0.8, np.array([0]), 0.005)


# -------------------------------------------------------------- extraction

def test_extract_hand_example():
    pts = PointCloud([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0]])
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), -1.0, np.array([0, 1, 2]), 0.005)
    est = extract_ground_estimate(plane, pts)
    assert (est.center.x, est.center.y, est.center.z) == (1.0, 1.0, 1.0)
    assert (est.near_point.x, est.near_point.y, est.near_point.z) == (1.0, 0.0, 1.0)
    assert (est.approach.x, est.approach.y, est.approach.z) == (1.0, 0.03, 1.0)


def test_extract_singleton():
    pts = PointCloud([[0.4, 0.5, 0.6]])
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), -0.6, np.array([0]), 0.005)
    est = extract_ground_estimate(plane, pts)
    assert (est.center.x, est.center.y, est.center.z) == (0.4, 0.5, 0.6)
    assert (est.near_point.x, est.near_point.y, est.near_point.z) == (0.4, 0.5, 0.6)
    assert est.approach.y == 0.5 + 0.03


def test_extract_invariants_on_random_inliers():
    rng = np.random.default_rng(9)
    cloud = make_noisy_plane(rng)
    plane = fit_plane_ransac(cloud, threshold=0.0075, seed=2)
    est = extract_ground_estimate(plane, cloud)
    inlier_y = cloud.points[plane.inlier_indices, 1]
    assert est.near_point.y <= inlier_y.min() + 1e-15
    assert est.approach.y == est.near_point.y + 0.03
    assert est.approach.x == est.near_point.x
    assert est.approach.z == est.near_point.z


def test_extract_zero_inliers_errors():
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), 0.0, np.array([], dtype=int), 0.005)
    with pytest.raises(ValueError):
        extract_ground_estimate(plane, PointCloud([]))


def test_estimate_height_query():
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), -0.8, np.array([0]), 0.005)
    est = GroundEstimate(plane, None, None, None)
    assert est.z_at(0.3, -0.2) == pytest.approx(0.8)
    vertical = PlaneModel(np.array([1.0, 0.0, 0.0]), 0.0, np.array([0]), 0.005)
    with pytest.raises(ValueError):
        GroundEstimate(vertical, None, None, None).z_at(0.0, 0.0)


# ---------------------------------------------------------------- pipeline

def test_detect_ground_on_synthetic_scene():
    params = PotSceneParams()
    cloud, truth = generate_pot_scene(params, seed=12)
    est = detect_ground(cloud, scene_bounds(params), seed=12)
    assert abs(est.center.z - truth.center.z) <= 0.002
    assert est.plane.inlier_count > 1000


def test_detect_ground_empty_workspace_errors():
    cloud = PointCloud([[5.0, 5.0, 5.0]])
    with pytest.raises(ValueError, match="no points inside"):
        detect_ground(cloud, scene_bounds())


def test_workspace_filter_strips_table_and_foliage():
    params = PotSceneParams()
    cloud, _ = generate_pot_scene(params, seed=1)
    inside = workspace_filter(cloud, scene_bounds(params))
    assert len(inside) < len(cloud)
    assert inside.z.min() > 0.0


def test_estimate_record_format():
    pts = PointCloud([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0]])
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), -1.0, np.array([0, 1, 2]), 0.005)
    text = estimate_to_text(extract_ground_estimate(plane, pts))
    lines = text.splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys == ["normal", "d", "g_c", "g_min", "approach", "inlier_count"]
    assert lines[0] == "normal=0,0,1"
    assert lines[2] == "g_c=1,1,1"
    assert lines[3] == "g_min=1,0,1"
    assert lines[4] == "approach=1,0.03,1"
    assert lines[5] == "inlier_count=3"
