import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soilprobe.cloud import PointCloud, load_cloud, save_cloud, workspace_filter
from soilprobe.ground import (
    BAND_WIDTHS,
    LOCAL_REFIT_ROUNDS,
    RANSAC_CONFIDENCE,
    RANSAC_MAX_DRAWS,
    GroundEstimate,
    PlaneModel,
    bin_bounds,
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

def bin_points(z, dz):
    """The binning that bin_bounds is held to: the bin of every point by the
    formula min(floor((z - z_min) / dz), n_bins - 1), and the population of
    every bin, lowest z first; for z in any order."""
    z_min = float(z.min())
    z_max = float(z.max())
    n_bins = max(1, math.ceil((z_max - z_min) / dz))
    idx = np.minimum(np.floor((z - z_min) / dz).astype(int), n_bins - 1)
    return idx, np.bincount(idx, minlength=n_bins)


def bins_of(bounds):
    # the bin of every point, from the bin bounds of ascending z
    return np.repeat(np.arange(bounds.size - 1), np.diff(bounds))


def test_bin_points_hand_partition():
    z = np.array([0.70, 0.71, 0.78])
    assert bin_bounds(z, dz=0.07).tolist() == [0, 2, 3]
    idx, counts = bin_points(z, dz=0.07)
    assert counts.tolist() == [2, 1]
    assert idx.tolist() == [0, 0, 1]


def test_bin_points_singleton():
    assert bin_bounds(np.array([0.5]), dz=0.07).tolist() == [0, 1]


def test_bin_points_identical_z():
    assert bin_bounds(np.full(17, 0.3), dz=0.07).tolist() == [0, 17]


def test_bin_points_partitions_every_point():
    rng = np.random.default_rng(0)
    z = np.sort(rng.uniform(0.0, 0.5, 400))
    bounds = bin_bounds(z, dz=0.07)
    idx, counts = bin_points(z, dz=0.07)
    assert bounds[0] == 0 and bounds[-1] == 400
    assert np.array_equal(np.diff(bounds), counts)
    assert np.array_equal(bins_of(bounds), idx)


def test_bin_points_errors():
    with pytest.raises(ValueError, match="no points to bin"):
        bin_bounds(np.array([]), dz=0.07)
    with pytest.raises(ValueError):
        bin_bounds(np.array([0.1]), dz=0.0)


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


@settings(max_examples=40, deadline=None, database=None)
@given(points=arrays(float, st.tuples(st.integers(1, 40), st.just(3)),
                     elements=st.one_of(st.sampled_from([0.0, -0.0, 0.05, 0.1]),
                                        st.floats(-1e3, 1e3))))
def test_refinement_history_is_nested_for_any_cloud(points):
    history = refinement_history(PointCloud(points).sort_by_z())
    assert len(history) == len(BAND_WIDTHS)
    coarser = np.arange(len(points))
    for finer in history:
        assert finer.size > 0
        assert (np.diff(finer) > 0).all()  # in input order
        assert np.isin(finer, coarser).all()
        coarser = finer


def reference_refinement_history(cloud):
    # each pass by its definition: bin the kept points' z in any order, and
    # keep those strictly within half a bin width of the best bin's z range
    kept = np.arange(len(cloud))
    history = []
    for dz in BAND_WIDTHS:
        z = cloud.z[kept]
        idx, counts = bin_points(z, dz)
        padded = np.concatenate(([0], counts, [0]))
        member_z = z[idx == np.argmax(score_bin(padded[:-2], counts, padded[2:]))]
        z_lo = float(member_z.min()) - dz / 2.0
        z_hi = float(member_z.max()) + dz / 2.0
        kept = kept[(z > z_lo) & (z < z_hi)]
        history.append(kept)
    return history


@st.composite
def sorted_z(draw):
    """Ascending z with heavy ties (quantized to 1e-4), signed zeros, and
    points on the nominal bin edges z_min + k dz of every width."""
    z = draw(st.lists(st.one_of(st.integers(0, 1500).map(lambda q: q * 1e-4),
                                st.sampled_from([0.0, -0.0]),
                                st.floats(-0.2, 0.4)), min_size=1, max_size=50))
    z_min = min(z)
    z += draw(st.lists(st.builds(lambda k, dz: z_min + k * dz,
                                 st.integers(1, 12), st.sampled_from(BAND_WIDTHS)), max_size=30))
    return np.sort(np.array(z))


@settings(max_examples=150, deadline=None, database=None)
@given(z=sorted_z())
# rounding puts the point on the nominal edge 0.05 + 2 dz in bin 1, not 2
@example(z=0.05 + np.array([0, 2, 9]) * BAND_WIDTHS[3])
@example(z=np.array([-0.0, 0.0, -0.0, 0.07, 0.07, 0.14]))
def test_refinement_matches_its_definition(z):
    for dz in BAND_WIDTHS:
        idx, counts = bin_points(z, dz)
        bounds = bin_bounds(z, dz)
        assert np.array_equal(np.diff(bounds), counts)
        assert np.array_equal(bins_of(bounds), idx)
    cloud = cloud_from_z(z)
    for got, want in zip(refinement_history(cloud), reference_refinement_history(cloud), strict=True):
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("z, reason", [
    ([0.1, np.nan, 0.2], "finite z"),
    ([0.1, 0.2, np.nan], "finite z"),
    ([np.nan], "finite z"),
    ([-np.inf, 0.1, 0.2], "finite z"),
    ([0.1, 0.2, np.inf], "finite z"),
    ([0.2, 0.1, np.inf], "finite z"),
    ([0.2, 0.1, 0.3], "sorted by ascending z"),
])
def test_refine_rejects_unsorted_or_non_finite_z(z, reason):
    # refinement searches the crop's z order, as workspace_filter returns it
    cloud = PointCloud(np.column_stack([np.zeros((len(z), 2)), z]))
    with pytest.raises(ValueError, match=reason):
        refine_ground_band(cloud)
    with pytest.raises(ValueError, match=reason):
        refinement_history(cloud)


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
    assert (dist < 0.0075).all()


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


def check_refit_keeps_consensus(seed, n, spread, log_threshold, offset=0.0):
    # the least-squares refit keeps at least 3 points within the threshold
    # (the proof is in fit_plane_ransac), from 1e-6 to 1 times the cloud's size
    points = np.random.default_rng(seed).normal(0.0, spread, (n, 3))
    threshold = 10.0**log_threshold * np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    points = points + offset
    model = fit_plane_ransac(PointCloud(points), threshold=threshold, seed=seed)
    assert model.inlier_count >= 3
    assert (np.abs(points[model.inlier_indices] @ model.normal + model.d) < threshold).all()


consensus_cases = given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
                        spread=st.tuples(*[st.floats(1e-3, 1.0)] * 3),
                        log_threshold=st.floats(-6.0, 0.0))


@settings(max_examples=50, deadline=None, database=None)
@consensus_cases
def test_ransac_refit_keeps_consensus(seed, n, spread, log_threshold):
    check_refit_keeps_consensus(seed, n, spread, log_threshold)


@pytest.mark.parametrize("offset", [1.0, 1e3])
@settings(max_examples=25, deadline=None, database=None)
@consensus_cases
def test_ransac_refit_keeps_consensus_far_from_origin(offset, seed, n, spread, log_threshold):
    # the refit's moments are taken about a point of the cloud, so a cloud
    # far from the origin keeps the same guarantee at the same thresholds
    check_refit_keeps_consensus(seed, n, spread, log_threshold, offset)


class CountingRng:
    """A generator that counts its choice() calls: one per RANSAC hypothesis."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def choice(self, *args, **kwargs):
        self.draws += 1
        return self.rng.choice(*args, **kwargs)


def ransac_draws(monkeypatch, cloud, **kwargs):
    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        made.append(CountingRng(default_rng(seed)))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", counting_rng)
        fit_plane_ransac(cloud, **kwargs)
    assert len(made) == 1
    return made[0].draws


def plane_with_outliers(rng, n_in, n_out, noise=0.002):
    # inliers within `noise` of z = 0.8 + 0.1 x - 0.05 y, outliers uniform in
    # a box 20 cm high around it
    xy = rng.uniform(-0.1, 0.1, (n_in + n_out, 2))
    z = 0.8 + 0.1 * xy[:, 0] - 0.05 * xy[:, 1]
    z[:n_in] += rng.uniform(-noise, noise, n_in)
    z[n_in:] = rng.uniform(0.7, 0.9, n_out)
    return PointCloud(np.column_stack([xy, z]))


def test_ransac_stops_at_confidence_bound(monkeypatch):
    # N = ceil(log(1 - 0.999) / log(1 - w^3)) hypotheses, capped by RANSAC_MAX_DRAWS
    rng = np.random.default_rng(0)
    coplanar = PointCloud(np.column_stack([rng.uniform(-0.1, 0.1, (200, 2)), np.full(200, 0.8)]))
    assert ransac_draws(monkeypatch, coplanar, seed=0) == 1  # w = 1
    bound = math.ceil(math.log(0.001) / math.log(1.0 - 0.4**3))
    assert bound == 105
    for seed in range(5):
        cloud = plane_with_outliers(np.random.default_rng(seed), n_in=40, n_out=60, noise=0.0)
        assert ransac_draws(monkeypatch, cloud, seed=seed) <= bound  # w >= 0.4
    sparse = plane_with_outliers(np.random.default_rng(1), n_in=10, n_out=190)
    assert ransac_draws(monkeypatch, sparse, seed=1) == RANSAC_MAX_DRAWS == 500  # w ~ 0.05


def test_ransac_recovers_plane_among_60_percent_outliers():
    threshold = 0.005
    for seed in range(20):
        cloud = plane_with_outliers(np.random.default_rng(100 + seed), n_in=200, n_out=300)
        model = fit_plane_ransac(cloud, threshold=threshold, seed=seed)
        recovered = np.count_nonzero(model.inlier_indices < 200)
        assert recovered >= 0.95 * 200, (seed, recovered)
        dist = np.abs(cloud.points[model.inlier_indices] @ model.normal + model.d)
        assert (dist < threshold).all()


def test_ransac_failure_modes():
    with pytest.raises(ValueError, match="plane fit failed"):
        fit_plane_ransac(PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    line = PointCloud(np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)]))
    with pytest.raises(ValueError, match="plane fit failed"):
        fit_plane_ransac(line, seed=0)


def test_ransac_refit_is_exact_far_from_origin():
    # a tilted 1 cm patch 1 km out, at a threshold of 1 nm: moments summed
    # about the origin would tilt the refit by ~1e-5 and lose the patch
    for seed in range(3):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-0.005, 0.005, (200, 2))
        points = np.column_stack([xy, 0.1 * xy[:, 0] - 0.05 * xy[:, 1]]) + 1e3
        model = fit_plane_ransac(PointCloud(points), threshold=1e-9, seed=seed)
        assert model.inlier_count == 200


def test_ransac_leaves_its_input_alone():
    # the fit turns its copy of the points into offsets in place; a cloud
    # whose array is F-ordered must still come back unchanged
    rng = np.random.default_rng(12)
    for points in (plane_with_outliers(rng, n_in=150, n_out=50).points,
                   np.asfortranarray(plane_with_outliers(rng, n_in=150, n_out=50).points)):
        before = points.copy()
        fit_plane_ransac(PointCloud(points), seed=1)
        assert np.array_equal(points, before)


def test_ransac_skips_non_finite_rows():
    rng = np.random.default_rng(11)
    plane = plane_with_outliers(rng, n_in=150, n_out=50).points
    bad = np.array([[np.nan, 0.0, 0.8], [0.0, np.inf, 0.8], [0.0, -np.inf, 0.8],
                    [0.0, 0.0, np.nan], [np.inf, np.nan, -np.inf]])
    mixed = np.vstack([bad[:2], plane[:100], bad[2:], plane[100:]])
    finite_rows = np.r_[2:102, 105:205]
    a = fit_plane_ransac(PointCloud(plane), seed=4)
    b = fit_plane_ransac(PointCloud(mixed), seed=4)
    assert np.array_equal(b.normal, a.normal) and b.d == a.d
    assert np.array_equal(b.inlier_indices, finite_rows[a.inlier_indices])


def reference_plane_fit(cloud, threshold, seed):
    # fit_plane_ransac with every refit on the gathered inlier rows, centred
    # on their own centroid: the arithmetic the moment refits are held to
    def least_squares(points):
        centroid = points.mean(axis=0)
        centered = points - centroid
        normal = np.linalg.eigh(centered.T @ centered)[1][:, 0]
        for axis in (2, 1, 0):
            if abs(normal[axis]) > 1e-12:
                normal = normal if normal[axis] > 0 else -normal
                break
        normal = normal / np.linalg.norm(normal)
        return normal, float(-normal @ centroid)

    valid_idx = np.flatnonzero(np.isfinite(cloud.points).all(axis=1))
    pts = cloud.points[valid_idx]
    n = len(pts)
    rng = np.random.default_rng(seed)
    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))) or 1.0
    best_count, best, needed, drawn = 0, None, RANSAC_MAX_DRAWS, 0
    while drawn < needed:
        drawn += 1
        i, j, k = rng.choice(n, size=3, replace=False)
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(normal)
        if norm < 1e-12 * scale * scale:
            continue
        normal = normal / norm
        inliers = np.abs(pts @ normal - normal @ pts[i]) < threshold
        count = int(inliers.sum())
        if count > best_count:
            best_count, best = count, inliers
            w3 = (count / n) ** 3
            needed = 1 if w3 == 1.0 else min(
                RANSAC_MAX_DRAWS, math.ceil(math.log1p(-RANSAC_CONFIDENCE) / math.log1p(-w3)))
    normal, d = least_squares(pts[best])
    final = np.abs(pts @ normal + d) < threshold
    for _ in range(LOCAL_REFIT_ROUNDS):
        grown_normal, grown_d = least_squares(pts[final])
        grown = np.abs(pts @ grown_normal + grown_d) < threshold
        if grown.sum() <= final.sum():
            break
        normal, d, final = grown_normal, grown_d, grown
    return normal, d, valid_idx[final]


def reference_cases():
    for seed in range(6):
        rng = np.random.default_rng(200 + seed)
        yield plane_with_outliers(rng, n_in=150, n_out=100), 0.005, seed
        yield make_noisy_plane(rng), 0.0075, seed
    tilted = plane_with_outliers(np.random.default_rng(9), n_in=300, n_out=30).points
    tilted[::7] = np.nan
    yield PointCloud(tilted + 1e3), 0.002, 9
    cloud, _ = generate_pot_scene(seed=5)
    yield refine_ground_band(workspace_filter(cloud, scene_bounds())), 0.005, 5


def test_ransac_matches_the_gathering_reference():
    for cloud, threshold, seed in reference_cases():
        model = fit_plane_ransac(cloud, threshold=threshold, seed=seed)
        normal, d, inliers = reference_plane_fit(cloud, threshold, seed)
        assert np.array_equal(model.normal, normal) and model.d == d
        assert np.array_equal(model.inlier_indices, inliers)


def test_plane_model_validation():
    with pytest.raises(ValueError):
        PlaneModel(np.array([0.0, 0.0, 2.0]), -0.8, np.array([0]))


# -------------------------------------------------------------- extraction

def test_extract_hand_example():
    pts = PointCloud([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0]])
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), -1.0, np.array([0, 1, 2]))
    est = extract_ground_estimate(plane, pts)
    assert (est.center.x, est.center.y, est.center.z) == (1.0, 1.0, 1.0)
    assert (est.near_point.x, est.near_point.y, est.near_point.z) == (1.0, 0.0, 1.0)
    assert (est.approach.x, est.approach.y, est.approach.z) == (1.0, 0.03, 1.0)


def test_extract_singleton():
    pts = PointCloud([[0.4, 0.5, 0.6]])
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), -0.6, np.array([0]))
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
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), 0.0, np.array([], dtype=int))
    with pytest.raises(ValueError):
        extract_ground_estimate(plane, PointCloud([]))


def test_estimate_height_query():
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), -0.8, np.array([0]))
    est = GroundEstimate(plane, None, None, None)
    assert est.z_at(0.3, -0.2) == pytest.approx(0.8)
    assert type(est.z_at(0.3, -0.2)) is float  # not the normal's numpy scalar
    vertical = PlaneModel(np.array([1.0, 0.0, 0.0]), 0.0, np.array([0]))
    with pytest.raises(ValueError):
        GroundEstimate(vertical, None, None, None).z_at(0.0, 0.0)


# ---------------------------------------------------------------- pipeline

def test_detect_ground_on_synthetic_scene():
    cloud, truth = generate_pot_scene(seed=12)
    est = detect_ground(cloud, scene_bounds(), seed=12)
    assert abs(est.center.z - truth.center.z) <= 0.002
    assert est.plane.inlier_count > 1000


def test_detect_ground_empty_workspace_errors():
    cloud = PointCloud([[5.0, 5.0, 5.0]])
    with pytest.raises(ValueError, match="no points inside"):
        detect_ground(cloud, scene_bounds())


def test_workspace_filter_strips_table_and_foliage():
    cloud, _ = generate_pot_scene(seed=1)
    inside = workspace_filter(cloud, scene_bounds())
    assert len(inside) < len(cloud)
    assert inside.z.min() > 0.0


def test_estimate_record_format():
    pts = PointCloud([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0]])
    plane = PlaneModel(np.array([0.0, 0.0, 1.0]), -1.0, np.array([0, 1, 2]))
    text = estimate_to_text(extract_ground_estimate(plane, pts))
    lines = text.splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys == ["normal", "d", "g_c", "g_min", "approach", "inlier_count"]
    assert lines[0] == "normal=0,0,1"
    assert lines[2] == "g_c=1,1,1"
    assert lines[3] == "g_min=1,0,1"
    assert lines[4] == "approach=1,0.03,1"
    assert lines[5] == "inlier_count=3"


# sha256 of estimate_to_text(detect_ground(generate_pot_scene(seed=s)[0],
# scene_bounds(), seed=s)) for s = 0..19; a change that moves any estimate
# byte must update these and say which scenes changed and why
ESTIMATE_DIGESTS = (
    "af878b4a1c90cc117a61f91c20d7c33b0cd78030b7fe952e15ec15ccfee849f7",
    "d4ab7e1e23c6f3ce323f23f36572fa2f6102fd5a0bae2a8cd023725c85a744af",
    "8d473957bc3e07e30297bfa2fbd9fbadf4157173c665ba21b3d3f37456c7e3d0",
    "d9f37af0ebfff1034e2a6d43cdd9ade4a69fce02ee01fffc384db9f06c264854",
    "a49088de945522273b77a4373a767a5659a7f42894949ee0efa7b10ebd3cc565",
    "f331f5f23b61230df89f1b936a5859adc7f37ce4e3e6d6c6ed889e0090d0af5c",
    "c3f00891227318a76592eafb0408d2dc8721b82936d1283c2523ec3ff423dac0",
    "250602f4fe1a8b1a3787911b2bf9272a69bddf2d3526ce0c9c78dbaa1273da28",
    "07e3c801ea6750e85c6e54d84543427704f90c25338fde0e429e5cb6ed09cab1",
    "ad89c64932312c019dd79fddb7e2b81089d044f1080f01302a07be646e244f88",
    "36cbd700a518c4b1779ee904e67877d2aa59a22c9d6a7e7c3eefbdc4a8d387d4",
    "fbde1b2be73265bc23dd10ea6dd2d20d0d58347c9e6d35064bdf6abc933c2911",
    "d47259459ab4dd7fd139918575ee635fbf83ce64e1caee3e6199fc1b3dd9c309",
    "8d9e23d3629fb6228a9c2e4271dac8ff9dc1d5a931625d0509e06c9d5a0dd02a",
    "b0376b7f3d2ab3e8728c7421d73d223a30a2a5963499a1199d27eac89a5918a3",
    "ae58fd727ffe86658b15a040032397bc58403b5fc05ee9eef42510e0c440c20b",
    "bb4ea12bba913a1c2566ea32fda98014b4111d26bdcccb8a2f1951135998dd11",
    "4ed7aeccdf70bcccb287098fe4b77227539b5493ef63c0b891df52f85c623e45",
    "bbb1bbfaa35f04cfab7d80579985bde717771b3c5f717697b85fef4b52ef93ce",
    "0fcd6efb131b56019ab2b2da9ab4dab0aad3733af46399a574f8a63214de3d37",
)
# sha256 of the float.hex() of the same 20 estimates' surface depth at the
# approach point, one per line: the depth the pipeline hands the controller
DEPTH_DIGEST = "f3db5800ae29585da6d6a1b51289caddec90057b68b12426e00261f3518ef4e0"
# the estimate digest and the depth for seed 100 of a scene at 16x the
# default counts (~95k points), with ~5% of rows set to NaN, read back
# through save_cloud/load_cloud
DENSE_ESTIMATE_DIGEST = "9ffdba46795b35ff8d6a40bcb72bb53d944746d8ad2c42c4bb61fe523cd0604d"
DENSE_DEPTH = "-0x1.993de6856e49dp-4"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_estimate_bytes_are_pinned():
    ests = [detect_ground(generate_pot_scene(seed=s)[0], scene_bounds(), seed=s) for s in range(20)]
    assert tuple(sha256(estimate_to_text(est)) for est in ests) == ESTIMATE_DIGESTS
    # the text rounds the plane to 9 digits; the depth keeps every bit of it,
    # and the pipeline's trace and summary bytes follow from the depth
    depths = "\n".join(float.hex(-est.z_at(est.approach.x, est.approach.y)) for est in ests)
    assert sha256(depths) == DEPTH_DIGEST


def test_dense_cloud_estimate_bytes_are_pinned(tmp_path):
    d = PotSceneParams()
    dense = PotSceneParams(n_soil=16 * d.n_soil, n_rim=16 * d.n_rim, n_wall=16 * d.n_wall,
                           n_foliage=16 * d.n_foliage, n_table=16 * d.n_table)
    points = generate_pot_scene(dense, seed=100)[0].points.copy()
    points[np.random.default_rng(100).random(len(points)) < 0.05] = np.nan
    path = tmp_path / "dense.txt"
    save_cloud(PointCloud(points), path)
    cloud = load_cloud(path)
    assert np.isnan(cloud.points).any(axis=1).sum() > 4000
    est = detect_ground(cloud, scene_bounds(), seed=100)
    assert sha256(estimate_to_text(est)) == DENSE_ESTIMATE_DIGEST
    assert float.hex(-est.z_at(est.approach.x, est.approach.y)) == DENSE_DEPTH
