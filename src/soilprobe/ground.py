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
RANSAC_CONFIDENCE = 0.999  # chance that some hypothesis drew 3 inliers
RANSAC_MAX_DRAWS = 500  # hard cap on the triples drawn
LOCAL_REFIT_ROUNDS = 5  # least-squares refits after the first, while the inliers grow

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


def bin_bounds(z: np.ndarray, dz: float) -> np.ndarray:
    """Split ascending, finite z values into contiguous bins of width dz.

    Bins are anchored at the minimum z; the last bin may be shorter.  A point
    falls in bin min(floor((z - z_min) / dz), n_bins - 1).  Returns the
    n_bins + 1 bin bounds: bin k holds z[bounds[k]:bounds[k + 1]], lowest z
    first.  Each bound is found by binary search, so the cost grows with the
    bin count and the log of the point count, not with the point count.
    """
    if z.size == 0:
        raise ValueError("no points to bin")
    if dz <= 0:
        raise ValueError("dz must be positive")
    z_min = float(z[0])
    n_bins = max(1, math.ceil((float(z[-1]) - z_min) / dz))
    k = np.arange(1, n_bins)
    # Bin k starts at the first point whose bin is k or more.  The nominal
    # edge z_min + k dz finds it unless rounding puts a point beside that
    # edge in the other bin; such bounds are searched again on the formula.
    starts = np.searchsorted(z, z_min + k * dz)
    wrong = ((starts < z.size) & (_bin_at(z, starts, z_min, dz) < k)) | (
        (starts > 0) & (_bin_at(z, starts - 1, z_min, dz) >= k)
    )
    if wrong.any():
        starts[wrong] = _first_in_bin(z, z_min, dz, k[wrong])
    return np.concatenate(([0], starts, [z.size]))


def _bin_at(z: np.ndarray, pos: np.ndarray, z_min: float, dz: float) -> np.ndarray:
    # floor((z - z_min) / dz) at each position: the bin of the point there,
    # before the last bin's cap.  Callers mask out positions -1 and z.size,
    # which read the last point here.
    return np.floor((z[np.minimum(pos, z.size - 1)] - z_min) / dz)


def _first_in_bin(z: np.ndarray, z_min: float, dz: float, k: np.ndarray) -> np.ndarray:
    # Bisection on positions, all bins at once: the bin formula is monotone
    # in z, so the first point of bin k or above lies in [lo, hi].
    lo = np.zeros(k.size, dtype=np.intp)
    hi = np.full(k.size, z.size, dtype=np.intp)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        above = _bin_at(z, mid, z_min, dz) >= k
        hi = np.where(open_ & above, mid, hi)
        lo = np.where(open_ & ~above, mid + 1, lo)
    return lo


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


def _band_passes(z: np.ndarray) -> list[tuple[int, int]]:
    # The kept range [lo, hi) of ascending z after each pass.  Each pass
    # bins z[lo:hi], picks the highest-scoring bin and keeps the points
    # strictly within half a bin width of that bin's z range: on ascending z
    # the bin's range is its first and last value, and the kept points are
    # one contiguous range, found by two binary searches.
    if z.size > 1 and not (z[1:] >= z[:-1]).all():
        if not np.isfinite(z).all():
            raise ValueError("band refinement needs finite z values")
        raise ValueError("band refinement needs the points sorted by ascending z")
    if z.size and not (math.isfinite(z[0]) and math.isfinite(z[-1])):
        raise ValueError("band refinement needs finite z values")
    lo, hi = 0, z.size
    passes = []
    for dz in BAND_WIDTHS:
        band = z[lo:hi]
        bounds = bin_bounds(band, dz)
        best = _best_bin(np.diff(bounds))
        z_lo = float(band[bounds[best]]) - dz / 2.0
        z_hi = float(band[bounds[best + 1] - 1]) + dz / 2.0
        lo, hi = lo + int(band.searchsorted(z_lo, "right")), lo + int(band.searchsorted(z_hi, "left"))
        passes.append((lo, hi))
    return passes


def refinement_history(cloud: PointCloud) -> list[np.ndarray]:
    """Index sets retained after each refinement pass (into the input cloud).

    Each pass re-bins the surviving points at the current width, picks the
    highest-scoring bin and keeps the points within half a bin width of that
    bin's z range, at each width of BAND_WIDTHS in turn.  Retained sets are
    nested by construction.  The cloud must be sorted by ascending z with
    finite z values, as workspace_filter returns it; else ValueError.
    """
    return [np.arange(lo, hi) for lo, hi in _band_passes(cloud.z)]


def refine_ground_band(cloud: PointCloud) -> PointCloud:
    """Reduce a workspace cloud, sorted by ascending finite z as
    workspace_filter returns it, to the band around the dominant low
    surface: a contiguous range of its points, in their input order."""
    lo, hi = _band_passes(cloud.z)[-1]
    return cloud.select(slice(lo, hi))


@dataclass(frozen=True)
class PlaneModel:
    """Plane n.p + d = 0 with unit normal, plus the consensus inlier set."""

    normal: np.ndarray
    d: float
    inlier_indices: np.ndarray

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


def _refit_inliers(rel: np.ndarray, inliers: np.ndarray, m: int, threshold: float) -> np.ndarray:
    # The points within the threshold of the least-squares plane of the m
    # points where `inliers` holds.  `rel` holds every point, as (3, N)
    # offsets from one of them; the plane comes from the inliers' weighted
    # moments of it, so the inlier set is never gathered.
    w = inliers.astype(float)
    centroid = rel @ w / m
    scatter = (rel * w) @ rel.T - m * np.outer(centroid, centroid)
    _, vecs = np.linalg.eigh(scatter)
    normal = _canonical_sign(vecs[:, 0])  # eigenvector of the smallest eigenvalue
    normal = normal / np.linalg.norm(normal)
    return np.abs(normal @ rel - normal @ centroid) < threshold


def _hypotheses_needed(count: int, n: int) -> int:
    # Fischler & Bolles (1981): with an inlier share w, N = log(1 - p) /
    # log(1 - w^3) draws hold at least one all-inlier triple with probability p.
    all_inliers = (count / n) ** 3
    if all_inliers == 1.0:
        return 1
    return math.ceil(math.log1p(-RANSAC_CONFIDENCE) / math.log1p(-all_inliers))


def fit_plane_ransac(cloud: PointCloud, threshold: float = 0.005, seed: int = 0) -> PlaneModel:
    """Consensus plane fit: sample point triples, keep the largest inlier set,
    then refit that set by least squares.

    Sampling stops once N = ceil(log(1 - p) / log(1 - w^3)) triples have been
    drawn, where w is the best inlier share so far and p = RANSAC_CONFIDENCE,
    or after RANSAC_MAX_DRAWS triples, whichever comes first.  The refit
    repeats, up to LOCAL_REFIT_ROUNDS more times, while its inlier set grows
    (LO-RANSAC, Chum, Matas & Kittler 2003).

    The fit works on one contiguous (3, N) copy of the valid points.  Each
    refit takes its plane from the inlier-weighted first and second moments
    of that copy about one inlier, so no round gathers the inlier set.  The
    reported plane is the least-squares plane of the set that chose the
    final inliers, computed once from its gathered rows.

    Deterministic for a fixed seed.  Raises ValueError when no valid plane
    can be found (fewer than 3 points, or every sampled triple collinear).
    """
    # a copy even of an F-ordered cloud, since it becomes offsets in place below
    cols = np.array(cloud.points.T, order="C")
    valid_idx = np.flatnonzero(np.isfinite(cols).all(axis=0))
    if valid_idx.size < cols.shape[1]:  # else there is nothing to drop: skip the copy
        cols = cols.take(valid_idx, axis=1)
    n = cols.shape[1]
    if n < 3:
        raise ValueError("plane fit failed: need at least 3 valid points")
    rng = np.random.default_rng(seed)
    scale = float(np.linalg.norm(cols.max(axis=1) - cols.min(axis=1))) or 1.0

    best_count = 0
    best_inliers = None
    needed = RANSAC_MAX_DRAWS
    drawn = 0
    while drawn < needed:
        drawn += 1
        triple = rng.choice(n, size=3, replace=False)
        (xi, xj, xk), (yi, yj, yk), (zi, zj, zk) = cols[:, triple].tolist()
        # np.cross(p_j - p_i, p_k - p_i), in its operand order
        ax, ay, az = xj - xi, yj - yi, zj - zi
        bx, by, bz = xk - xi, yk - yi, zk - zi
        nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if norm < 1e-12 * scale * scale:
            continue  # collinear sample
        nx, ny, nz = nx / norm, ny / norm, nz / norm
        inliers = np.abs(np.array((nx, ny, nz)) @ cols - (nx * xi + ny * yi + nz * zi)) < threshold
        count = np.count_nonzero(inliers)
        if count > best_count:
            best_count = count
            best_inliers = inliers
            needed = min(RANSAC_MAX_DRAWS, _hypotheses_needed(count, n))

    if best_inliers is None or best_count < 3:
        raise ValueError("plane fit failed: no plane consensus found")

    rel = cols  # from here on only offsets from the first inlier are needed
    rel -= rel[:, [np.argmax(best_inliers)]]
    # Keep the points within the threshold of the refit plane L.  At least 3
    # remain: the winning sample plane S has residual 0 on its 3 points and
    # below t on its other m-3 inliers, so sum r_S^2 < (m-3) t^2, and least
    # squares gives sum r_L^2 <= sum r_S^2; were fewer than 3 inliers within t
    # of L, at least m-2 would lie at t or beyond, so sum r_L^2 >= (m-2) t^2.
    # Only rounding can break it, and only at t near the rounding of the
    # coordinates themselves (1e-16 of their distance from the origin, so
    # 1e-13 at 1e3 m): the moments are summed about an inlier, so their own
    # rounding scales with the inliers' spread, not with that distance.
    fitted = best_inliers
    final = _refit_inliers(rel, fitted, best_count, threshold)
    count = np.count_nonzero(final)
    if count < 3:
        raise ValueError("plane fit failed: no plane consensus found")
    # Local refit: only a strictly larger inlier set replaces the current one,
    # so the 3 kept above stay a lower bound.
    for _ in range(LOCAL_REFIT_ROUNDS):
        grown = _refit_inliers(rel, final, count, threshold)
        grown_count = np.count_nonzero(grown)
        if grown_count <= count:
            break
        fitted, final, count = final, grown, grown_count
    del rel, cols  # release the (3, N) copy before the gather below
    # Report the least-squares plane of the set that chose `final`, taken
    # about that set's own centroid, which rounds least.
    normal, d = _least_squares_plane(cloud.points.take(valid_idx[fitted], axis=0))
    return PlaneModel(normal, d, valid_idx[final])


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
        return float(-(self.plane.d + n[0] * x + n[1] * y) / n[2])


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


def detect_ground(cloud: PointCloud, bounds: WorkspaceBounds, seed: int = 0) -> GroundEstimate:
    """Full detection pipeline: workspace filter, band refinement, plane fit."""
    inside = workspace_filter(cloud, bounds)
    if len(inside) == 0:
        raise ValueError("no points inside the workspace bounds")
    band = refine_ground_band(inside)
    plane = fit_plane_ransac(band, seed=seed)
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
