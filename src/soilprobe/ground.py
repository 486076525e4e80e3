"""Soil-surface detection: z-binning with contrast scores, band refinement,
RANSAC plane fitting and extraction of the probe target points."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, WorkspaceBounds, workspace_filter

APPROACH_OFFSET_Y = 0.03  # shift from the nearest soil point toward the pot center

# Bin width of each band-refinement pass, largest first: 7 cm, a quarter
# narrower per pass, down to the last width of at least 1 cm.  Each width is
# the float product of the one before (0.07 * 0.75**k differs in the last bit).
BAND_WIDTHS = tuple(itertools.accumulate([0.07] + [0.75] * 6, operator.mul))


@dataclass(frozen=True)
class Point3:
    """A 3-D sample in meters. NaN coordinates mark an invalid measurement."""

    x: float
    y: float
    z: float


def bin_points(z: np.ndarray, dz: float) -> tuple[np.ndarray, np.ndarray]:
    """Split z values into contiguous bins of width dz.

    Bins are anchored at the minimum z; the last bin may be shorter.
    Returns (idx, counts): the bin of every point, and the population of
    every bin, lowest z first.
    """
    if z.size == 0:
        raise ValueError("no points to bin")
    if dz <= 0:
        raise ValueError("dz must be positive")
    z_min = float(z.min())
    z_max = float(z.max())
    n_bins = max(1, math.ceil((z_max - z_min) / dz))
    idx = np.minimum(np.floor((z - z_min) / dz).astype(int), n_bins - 1)
    return idx, np.bincount(idx, minlength=n_bins)


def score_bin(prev_count: int, cur_count: int, next_count: int) -> float:
    """Contrast score of a bin against its neighbors.

    The count of the bin, scaled by the relative difference to each neighbor
    and averaged over the two sides.  Missing neighbors (first/last bin)
    enter as count 0.
    """
    s1 = abs(prev_count - cur_count) / (prev_count + cur_count + 1) * cur_count
    s2 = abs(cur_count - next_count) / (cur_count + next_count + 1) * cur_count
    return (s1 + s2) / 2.0


def _best_bin(counts: np.ndarray) -> int:
    # Ties go to the lowest-z bin (argmax keeps the first maximum): the soil
    # is the lowest dominant surface.
    padded = np.concatenate(([0], counts, [0]))
    return int(np.argmax(score_bin(padded[:-2], counts, padded[2:])))


def refinement_history(cloud: PointCloud) -> list[np.ndarray]:
    """Index sets retained after each refinement pass (into the input cloud).

    Each pass re-bins the surviving points at the current width, picks the
    highest-scoring bin and keeps the points within half a bin width of that
    bin's z range, at each width of BAND_WIDTHS in turn.  Retained sets are
    nested by construction.
    """
    if len(cloud) == 0:
        raise ValueError("no points to bin")
    kept = np.arange(len(cloud))
    history = []
    for dz in BAND_WIDTHS:
        z = cloud.z[kept]
        idx, counts = bin_points(z, dz)
        member_z = z[idx == _best_bin(counts)]
        z_lo = float(member_z.min()) - dz / 2.0
        z_hi = float(member_z.max()) + dz / 2.0
        kept = kept[(z > z_lo) & (z < z_hi)]
        history.append(kept)
    return history


def refine_ground_band(cloud: PointCloud) -> PointCloud:
    """Reduce a workspace cloud to the band around the dominant low surface."""
    history = refinement_history(cloud)
    return cloud.select(history[-1]).sort_by_z()


@dataclass(frozen=True)
class PlaneModel:
    """Plane n.p + d = 0 with unit normal, plus the consensus inlier set."""

    normal: np.ndarray
    d: float
    inlier_indices: np.ndarray
    threshold: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "inlier_indices", np.asarray(self.inlier_indices, dtype=int))
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise ValueError("plane normal must be unit length")

    @property
    def inlier_count(self) -> int:
        return int(self.inlier_indices.size)


def _canonical_sign(normal: np.ndarray) -> np.ndarray:
    # Deterministic orientation: prefer +z, fall back lexicographically.
    for axis in (2, 1, 0):
        if abs(normal[axis]) > 1e-12:
            return normal if normal[axis] > 0 else -normal
    return normal


def _least_squares_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    centroid = points.mean(axis=0)
    centered = points - centroid
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    normal = _canonical_sign(vecs[:, 0])  # eigenvector of the smallest eigenvalue
    normal = normal / np.linalg.norm(normal)
    return normal, float(-normal @ centroid)


def fit_plane_ransac(
    cloud: PointCloud,
    threshold: float = 0.005,
    max_iters: int = 500,
    seed: int = 0,
) -> PlaneModel:
    """Consensus plane fit: sample point triples, keep the largest inlier set,
    then refit that set by least squares.

    Deterministic for a fixed seed.  Raises ValueError when no valid plane
    can be found (fewer than 3 points, or every sampled triple collinear).
    """
    pts = cloud.points[cloud.valid_mask()]
    valid_idx = np.flatnonzero(cloud.valid_mask())
    n = pts.shape[0]
    if n < 3:
        raise ValueError("plane fit failed: need at least 3 valid points")
    rng = np.random.default_rng(seed)
    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))) or 1.0

    best_count = 0
    best_inliers = None
    best_sample = None
    for _ in range(max_iters):
        i, j, k = rng.choice(n, size=3, replace=False)
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(normal)
        if norm < 1e-12 * scale * scale:
            continue  # collinear sample
        normal = normal / norm
        d = -normal @ pts[i]
        dist = np.abs(pts @ normal + d)
        inliers = dist < threshold
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
            best_sample = (normal, d)

    if best_inliers is None or best_count < 3:
        raise ValueError("plane fit failed: no plane consensus found")

    normal, d = _least_squares_plane(pts[best_inliers])
    # Re-evaluate membership against the refined plane so the stored inliers
    # actually lie within the threshold of the reported model.
    final = np.abs(pts @ normal + d) < threshold
    if final.sum() < 3:
        # refinement degraded the consensus (near-degenerate inlier cloud);
        # keep the winning sample plane, whose inliers satisfy the threshold
        normal, d = best_sample
        flipped = _canonical_sign(normal)
        if not np.array_equal(flipped, normal):
            d = -d
        normal = flipped
        final = best_inliers
    return PlaneModel(normal, d, valid_idx[final], threshold)


@dataclass(frozen=True)
class GroundEstimate:
    """Detected soil surface: fitted plane, its median center, the inlier
    point nearest the robot along y, and the probing approach point."""

    plane: PlaneModel
    center: Point3
    near_point: Point3
    approach: Point3

    def z_at(self, x: float, y: float) -> float:
        """Height of the fitted plane at a horizontal location."""
        n = self.plane.normal
        if abs(n[2]) < 1e-9:
            raise ValueError("plane is vertical; height undefined")
        return -(self.plane.d + n[0] * x + n[1] * y) / n[2]


def extract_ground_estimate(plane: PlaneModel, cloud: PointCloud) -> GroundEstimate:
    """Derive the probe target points from a fitted plane's inliers.

    The center is the per-coordinate median of the inliers; the near point
    replaces its y with the minimum inlier y; the approach point sits
    3 cm further along +y, into the pot.
    """
    if plane.inlier_count == 0:
        raise ValueError("plane has no inliers")
    inl = cloud.points[plane.inlier_indices]
    center = Point3(*np.median(inl, axis=0).tolist())
    near = Point3(center.x, float(inl[:, 1].min()), center.z)
    approach = Point3(near.x, near.y + APPROACH_OFFSET_Y, near.z)
    return GroundEstimate(plane, center, near, approach)


def detect_ground(
    cloud: PointCloud,
    bounds: WorkspaceBounds,
    threshold: float = 0.005,
    max_iters: int = 500,
    seed: int = 0,
) -> GroundEstimate:
    """Full detection pipeline: workspace filter, band refinement, plane fit."""
    inside = workspace_filter(cloud, bounds)
    if len(inside) == 0:
        raise ValueError("no points inside the workspace bounds")
    band = refine_ground_band(inside)
    plane = fit_plane_ransac(band, threshold=threshold, max_iters=max_iters, seed=seed)
    return extract_ground_estimate(plane, band)


# Plain-text estimate record, one key=value per line.

def format_coord(v: float) -> str:
    return f"{v:.9g}"


def _fmt_point(p: Point3) -> str:
    return ",".join(format_coord(v) for v in (p.x, p.y, p.z))


def estimate_to_text(est: GroundEstimate) -> str:
    lines = [
        "normal=" + ",".join(format_coord(v) for v in est.plane.normal),
        "d=" + format_coord(est.plane.d),
        "g_c=" + _fmt_point(est.center),
        "g_min=" + _fmt_point(est.near_point),
        "approach=" + _fmt_point(est.approach),
        f"inlier_count={est.plane.inlier_count}",
    ]
    return "\n".join(lines) + "\n"
