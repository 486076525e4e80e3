"""Soil-surface detection: z-binning with contrast scores, band refinement,
RANSAC plane fitting and extraction of the probe target points."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, WorkspaceBounds, format_coord, workspace_filter
from .geometry import Point3

APPROACH_OFFSET_Y = 0.03  # shift from the nearest soil point toward the pot center


@dataclass(frozen=True)
class BinningSchedule:
    """Shrinking bin-width schedule for the iterative band refinement."""

    dz_init: float = 0.07
    shrink: float = 0.25
    dz_min: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must be a fraction in (0, 1)")
        if not 0.0 < self.dz_min < self.dz_init:
            raise ValueError("dz_min must satisfy 0 < dz_min < dz_init")

    def widths(self) -> list[float]:
        """Bin widths used per refinement pass, largest first."""
        out = []
        dz = self.dz_init
        while dz >= self.dz_min:
            out.append(dz)
            dz *= 1.0 - self.shrink
        return out


@dataclass(frozen=True)
class Bin:
    """One z-interval of a binned cloud with the indices of its members."""

    z_lo: float
    z_hi: float
    members: np.ndarray  # indices into the cloud that was binned

    @property
    def count(self) -> int:
        return int(self.members.size)


def bin_points(cloud: PointCloud, dz: float) -> list[Bin]:
    """Split a z-sorted cloud into contiguous bins of width dz.

    Bins are anchored at the cloud's minimum z; the last bin may be shorter.
    Every point lands in exactly one bin.
    """
    if len(cloud) == 0:
        raise ValueError("no points to bin")
    if dz <= 0:
        raise ValueError("dz must be positive")
    z = cloud.z
    z_min = float(z.min())
    z_max = float(z.max())
    n_bins = max(1, math.ceil((z_max - z_min) / dz))
    idx = np.minimum(np.floor((z - z_min) / dz).astype(int), n_bins - 1)
    bins = []
    for i in range(n_bins):
        lo = z_min + i * dz
        if i < n_bins - 1:
            hi = lo + dz
        else:
            hi = z_max if z_max > lo else lo + dz
        bins.append(Bin(lo, hi, np.flatnonzero(idx == i)))
    return bins


def score_bin(prev_count: int, cur_count: int, next_count: int) -> float:
    """Contrast score of a bin against its neighbors.

    The count of the bin, scaled by the relative difference to each neighbor
    and averaged over the two sides.  Missing neighbors (first/last bin)
    enter as count 0.
    """
    s1 = abs(prev_count - cur_count) / (prev_count + cur_count + 1) * cur_count
    s2 = abs(cur_count - next_count) / (cur_count + next_count + 1) * cur_count
    return (s1 + s2) / 2.0


def _best_bin(bins: list[Bin]) -> Bin:
    # Ties go to the lowest-z bin: the soil is the lowest dominant surface.
    best = None
    best_score = -1.0
    for i, b in enumerate(bins):
        prev_count = bins[i - 1].count if i > 0 else 0
        next_count = bins[i + 1].count if i < len(bins) - 1 else 0
        s = score_bin(prev_count, b.count, next_count)
        if s > best_score:
            best, best_score = b, s
    return best


def refinement_history(cloud: PointCloud, sched: BinningSchedule = BinningSchedule()) -> list[np.ndarray]:
    """Index sets retained after each refinement pass (into the input cloud).

    Each pass re-bins the surviving points at the current width, picks the
    highest-scoring bin and keeps the points within half a bin width of that
    bin's z range.  The width then shrinks; passes stop once it falls below
    dz_min.  Retained sets are nested by construction.
    """
    if len(cloud) == 0:
        raise ValueError("no points to bin")
    kept = np.arange(len(cloud))
    history = []
    for dz in sched.widths():
        subset = cloud.select(kept).sort_by_z()
        bins = bin_points(subset, dz)
        best = _best_bin(bins)
        member_z = subset.z[best.members]
        z_lo = float(member_z.min()) - dz / 2.0
        z_hi = float(member_z.max()) + dz / 2.0
        z_all = cloud.z[kept]
        kept = kept[(z_all > z_lo) & (z_all < z_hi)]
        history.append(kept)
    return history


def refine_ground_band(cloud: PointCloud, sched: BinningSchedule = BinningSchedule()) -> PointCloud:
    """Reduce a workspace cloud to the band around the dominant low surface."""
    history = refinement_history(cloud, sched)
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

    def distances(self, points: np.ndarray) -> np.ndarray:
        return np.abs(points @ self.normal + self.d)

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
    center = Point3.from_array(np.median(inl, axis=0))
    near = Point3(center.x, float(inl[:, 1].min()), center.z)
    approach = Point3(near.x, near.y + APPROACH_OFFSET_Y, near.z)
    return GroundEstimate(plane, center, near, approach)


def detect_ground(
    cloud: PointCloud,
    bounds: WorkspaceBounds,
    sched: BinningSchedule = BinningSchedule(),
    threshold: float = 0.005,
    max_iters: int = 500,
    seed: int = 0,
) -> GroundEstimate:
    """Full detection pipeline: workspace filter, band refinement, plane fit."""
    inside = workspace_filter(cloud, bounds)
    if len(inside) == 0:
        raise ValueError("no points inside the workspace bounds")
    band = refine_ground_band(inside, sched)
    plane = fit_plane_ransac(band, threshold=threshold, max_iters=max_iters, seed=seed)
    return extract_ground_estimate(plane, band)


# Plain-text estimate record, one key=value per line.

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
