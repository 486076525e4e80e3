"""Soil-surface detection: z-binning with contrast scores, band refinement,
RANSAC plane fitting and extraction of the probe target points."""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .cloud import PointCloud, WorkspaceBounds, workspace_filter

APPROACH_OFFSET_Y = 0.03  # shift from the nearest soil point toward the pot center
RANSAC_CONFIDENCE = 0.999  # chance that some hypothesis drew 3 inliers
RANSAC_MAX_DRAWS = 500  # hard cap on the triples drawn
# Threshold factors of the least-squares refits: each refits the set the one
# before chose and keeps the points within its factor times the threshold.
REFIT_SCHEDULE = (1.3, 1.15, 1.0)
DRAW_BLOCK = 16  # triples drawn and scored together
SCORE_POINTS = 512  # hypotheses are scored on an even stride of at most this many points

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


def _collapsed_bin_bounds(z, lo: int, hi: int, dz: float) -> tuple[list[int], list[int]]:
    # Bins of width dz anchored at z[lo], the last one maybe shorter: a
    # point falls in bin min(floor((z - z[lo]) / dz), n_bins - 1).
    # The bin bounds of z[lo:hi], as positions in z, with each run of empty
    # bins collapsed into one empty entry: entry j holds z[bounds[j]:bounds[j
    # + 1]] and starts at bin firsts[j]; the last entries are the bin count
    # and hi.  An empty entry scores 0 as any empty bin does, and the scores
    # of the occupied bins are unchanged, since an empty neighbor counts 0
    # either way.  Empty bins cost nothing, so one far outlier adds two
    # entries, not one bin per bin width of its distance.  z is a memoryview
    # of ascending finite floats: its items are Python floats, so each bound
    # costs a binary search and no numpy call, and the arithmetic is the IEEE
    # arithmetic of searchsorted and np.floor.
    z_min = z[lo]
    n_bins = max(1, math.ceil((z[hi - 1] - z_min) / dz))

    def bin_of(v: float) -> int:
        return min(math.floor((v - z_min) / dz), n_bins - 1)

    firsts, bounds = [0], [lo]
    k, start = 0, lo
    while k < n_bins - 1:
        # The next occupied bin starts at the first point whose bin is above
        # k; the highest point is in the last bin, so there is one.  The
        # nominal edge z_min + (k + 1) dz finds it unless rounding puts a point
        # beside that edge in the other bin; such a bound is searched again on
        # the formula, which is monotone in z.
        i = bisect_left(z, z_min + (k + 1) * dz, start, hi)
        if i == hi or (next_k := bin_of(z[i])) <= k or bin_of(z[i - 1]) > k:
            i = bisect_left(z, k + 1, start, hi, key=bin_of)
            next_k = bin_of(z[i])
        if next_k > k + 1:  # bins k + 1 to next_k - 1 are empty
            firsts.append(k + 1)
            bounds.append(i)
        firsts.append(next_k)
        bounds.append(i)
        k, start = next_k, i
    firsts.append(n_bins)
    bounds.append(hi)
    return firsts, bounds


def score_bin(prev_count: int, cur_count: int, next_count: int) -> float:
    """Contrast score of a bin against its neighbors.

    The count of the bin, scaled by the relative difference to each neighbor
    and averaged over the two sides.  Missing neighbors (first/last bin)
    enter as count 0.
    """
    s1 = abs(prev_count - cur_count) / (prev_count + cur_count + 1) * cur_count
    s2 = abs(cur_count - next_count) / (cur_count + next_count + 1) * cur_count
    return (s1 + s2) / 2.0


def _best_bin(counts: list[int]) -> int:
    # Ties go to the lowest-z bin (index keeps the first maximum): the soil
    # is the lowest dominant surface.  A pass has a few bins, and Python
    # floats score them faster than numpy calls, by the same IEEE operations.
    padded = [0, *counts, 0]
    scores = [score_bin(*sides) for sides in zip(padded, counts, padded[2:])]
    return scores.index(max(scores))


def _band_passes(cloud: PointCloud) -> list[tuple[int, int]]:
    # The kept range [lo, hi) of the cloud's ascending z after each pass.
    # Each pass bins z[lo:hi], picks the highest-scoring bin and keeps the
    # points strictly within half a bin width of that bin's z range: on
    # ascending z the bin's range is its first and last value, and the kept
    # points are one contiguous range, found by two binary searches.  The z
    # is checked first to be non-empty, ascending and finite, on one
    # contiguous copy, since a cloud's z is a strided column, which the
    # check reads slowly and a memoryview cannot wrap.
    z = np.ascontiguousarray(cloud.z)
    if z.size == 0:
        raise ValueError("no points to bin")
    if z.size > 1 and not (z[1:] >= z[:-1]).all():
        if not np.isfinite(z).all():
            raise ValueError("band refinement needs finite z values")
        raise ValueError("band refinement needs the points sorted by ascending z")
    if not (math.isfinite(z[0]) and math.isfinite(z[-1])):
        raise ValueError("band refinement needs finite z values")
    z = memoryview(z)
    lo, hi = 0, len(z)
    passes = []
    for dz in BAND_WIDTHS:
        # the best bin is an occupied one: the lowest bin scores above 0,
        # since its missing lower neighbor counts 0, and an empty bin scores 0
        _, bounds = _collapsed_bin_bounds(z, lo, hi, dz)
        best = _best_bin([b - a for a, b in zip(bounds, bounds[1:])])
        z_lo = z[bounds[best]] - dz / 2.0
        z_hi = z[bounds[best + 1] - 1] + dz / 2.0
        lo, hi = bisect_right(z, z_lo, lo, hi), bisect_left(z, z_hi, lo, hi)
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
    return [np.arange(lo, hi) for lo, hi in _band_passes(cloud)]


def refine_ground_band(cloud: PointCloud) -> PointCloud:
    """Reduce a workspace cloud, sorted by ascending finite z as
    workspace_filter returns it, to the band around the dominant low
    surface: a contiguous range of its points, in their input order.

    An empty cloud, or one whose z is not finite and ascending, raises
    ValueError."""
    lo, hi = _band_passes(cloud)[-1]
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
        # written so that a NaN or infinite normal fails too
        if not abs(_norm(n) - 1.0) <= 1e-9:
            raise ValueError("plane normal must be unit length")

    @property
    def inlier_count(self) -> int:
        return int(self.inlier_indices.size)


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm(v) of a 1-D float array, bit for bit: the square root of
    # v.dot(v), which is correctly rounded in math.sqrt as in np.sqrt.
    return math.sqrt(v.dot(v))


def _eigenvectors(scatter: np.ndarray) -> np.ndarray:
    # np.linalg.eigh(scatter)[1] of a finite symmetric (3, 3) float array,
    # bit for bit: the LAPACK gufunc that eigh calls, without eigh's
    # Python-level checks.  Should LAPACK fail to converge, the vectors are
    # NaN where eigh would raise: such a plane holds no point within any
    # threshold, so the refit schedule drops it, and PlaneModel rejects a
    # NaN normal.
    return _umath_linalg.eigh_lo(scatter, signature="d->dd")[1]


def _canonical_sign(normal: np.ndarray) -> np.ndarray:
    # Deterministic orientation: prefer +z, fall back lexicographically.
    values = normal.tolist()
    for axis in (2, 1, 0):
        if abs(values[axis]) > 1e-12:
            return normal if values[axis] > 0 else -normal
    return normal


def _refit(xyz: np.ndarray, inliers: np.ndarray, m: int, threshold: float):
    # The least-squares plane of the m points where `inliers` holds, as its
    # unit normal and centroid, and the mask of the points within the
    # threshold of it.  The (3, N) xyz holds every point's offset from one
    # inlier, so with the inlier weights w, xyz @ w and (xyz * w) @ xyz.T
    # sum the set's first and second moments, and the set is never gathered.
    w = inliers.astype(float)
    centroid = (xyz @ w) / m
    scatter = (xyz * w) @ xyz.T - m * (centroid[:, None] * centroid)  # np.outer's product
    # the eigenvector of the smallest eigenvalue
    normal = _canonical_sign(_eigenvectors(scatter)[:, 0])
    normal = normal / _norm(normal)
    return normal, centroid, _within(normal, xyz, normal @ centroid, threshold)


def _within(normal: np.ndarray, xyz: np.ndarray, offset: float, threshold: float) -> np.ndarray:
    # The mask of the points of the (3, N) xyz within the threshold of the
    # plane normal.p = offset.
    return np.abs(normal @ xyz - offset) < threshold


def _hypotheses_needed(count: int, n: int) -> int:
    # Fischler & Bolles (1981): with an inlier share w, N = log(1 - p) /
    # log(1 - w^3) draws hold at least one all-inlier triple with probability p.
    all_inliers = (count / n) ** 3
    if all_inliers == 1.0:
        return 1
    return math.ceil(math.log1p(-RANSAC_CONFIDENCE) / math.log1p(-all_inliers))


def _best_hypothesis(xyz: np.ndarray, threshold: float, rng: np.random.Generator):
    # The plane (unit normal, offset n.p) through the best of the triples
    # drawn from the points of the (3, n) array xyz, or None when every triple
    # was degenerate, and the number of triples drawn.  Each block of triples
    # comes from one uniform draw with replacement; a triple that repeats a
    # point has a zero normal and counts as degenerate, as a collinear one
    # does.  Hypotheses are scored on an even stride of at most SCORE_POINTS
    # points (R-RANSAC, Chum & Matas 2002), all of them when n is at most
    # that.  The block is walked in draw order: a strictly larger count
    # replaces the best and sets the number of triples needed, and the walk
    # stops as soon as that many have been drawn.
    n = xyz.shape[1]
    sample = np.ascontiguousarray(xyz[:, :: -(-n // SCORE_POINTS)])
    s = sample.shape[1]
    scale = _norm(xyz.max(axis=1) - xyz.min(axis=1)) or 1.0
    best_count = 0
    best = None
    needed = RANSAC_MAX_DRAWS
    drawn = 0
    while drawn < needed:
        block = min(needed - drawn, DRAW_BLOCK)
        (xi, xj, xk), (yi, yj, yk), (zi, zj, zk) = xyz[:, rng.integers(0, n, size=(block, 3)).T]
        # np.cross(p_j - p_i, p_k - p_i), in its operand order
        ax, ay, az = xj - xi, yj - yi, zj - zi
        bx, by, bz = xk - xi, yk - yi, zk - zi
        nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        norm = np.sqrt(nx * nx + ny * ny + nz * nz)
        kept = (norm >= 1e-12 * scale * scale).nonzero()[0]  # drop degenerate triples
        normals = np.array((nx[kept], ny[kept], nz[kept])) / norm[kept]
        offsets = normals[0] * xi[kept] + normals[1] * yi[kept] + normals[2] * zi[kept]
        counts = np.count_nonzero(np.abs(normals.T @ sample - offsets[:, None]) < threshold, axis=1)
        for j, (t, count) in enumerate(zip(kept.tolist(), counts.tolist())):
            if count > best_count:
                best_count = count
                best = normals[:, j], float(offsets[j])
                needed = min(RANSAC_MAX_DRAWS, _hypotheses_needed(count, s))
                if drawn + t + 1 >= needed:
                    block = t + 1  # the rest of the block goes unused
                    break
        drawn += block
    return best, drawn


def fit_plane_ransac(cloud: PointCloud, threshold: float = 0.005, seed: int = 0) -> PlaneModel:
    """Consensus plane fit: sample point triples, keep the one whose plane
    holds the most points, then refit its inliers by least squares.

    Triples are drawn DRAW_BLOCK at a time, uniformly, and each hypothesis is
    scored on an even stride of at most SCORE_POINTS of the points.
    Sampling stops once N = ceil(log(1 - p) / log(1 - w^3)) triples have been
    drawn, where w is the best inlier share of that sample so far and p =
    RANSAC_CONFIDENCE, or after RANSAC_MAX_DRAWS triples, whichever comes
    first.  The winner's inliers are then taken among all points and refit
    by least squares once per factor of REFIT_SCHEDULE, each refit keeping
    the points within that factor times the threshold of its plane for the
    next: a threshold that shrinks to the final one (LO-RANSAC, Chum, Matas
    & Kittler 2003; Lebeda, Matas & Chum 2012).  Should a refit keep fewer
    than 3 points, the schedule ends at the last plane with at least 3
    points within the threshold.

    The fit works on one (3, N) copy of the valid points, turned into their
    offsets from one inlier.  Each refit takes its plane from the
    inlier-weighted moments of the offsets, so no refit gathers the inlier
    set.  The reported plane is the refit plane that chose the final
    inliers: they are exactly the valid points within the threshold of it.

    The points are checked here, once: a point with a NaN or infinite
    coordinate is not valid and takes no part in the fit.  The whole copy
    is tested in one pass, and the valid points are sought point by point
    only when some value is not finite, which never happens on the band
    detect_ground passes, since its crop keeps finite points only.

    Deterministic for a fixed seed.  Raises ValueError when no valid plane
    can be found (fewer than 3 points, or every sampled triple degenerate).
    """
    xyz = np.empty((3, len(cloud.points)))
    xyz[...] = cloud.points.T
    valid_idx = None  # every point is valid
    if not np.isfinite(xyz).all():
        valid_idx = np.isfinite(xyz).all(axis=0).nonzero()[0]
        xyz = xyz.take(valid_idx, axis=1)
    if xyz.shape[1] < 3:
        raise ValueError("plane fit failed: need at least 3 valid points")
    best, _ = _best_hypothesis(xyz, threshold, np.random.default_rng(seed))
    if best is None:
        raise ValueError("plane fit failed: no plane consensus found")
    normal, offset = best
    fitted = _within(normal, xyz, offset, threshold)
    count = np.count_nonzero(fitted)
    if count < 3:
        raise ValueError("plane fit failed: no plane consensus found")

    # from here on xyz holds offsets from the first inlier
    origin = xyz[:, fitted.argmax()].copy()
    xyz -= origin[:, None]
    # Refit on a shrinking threshold (Lebeda, Matas & Chum 2012).  The first
    # refit plane L keeps at least 3 points within the threshold t: the
    # winning triple's plane S has residual 0 on its own 3 points, which are
    # among the m points of `fitted`, and below t on the other m-3, so
    # sum r_S^2 < (m-3) t^2 over that set, and least squares gives
    # sum r_L^2 <= sum r_S^2; were fewer than 3 of the set within t of L, at
    # least m-2 would lie at t or beyond, so sum r_L^2 >= (m-2) t^2.
    # Only rounding can break it, and only at t near the rounding of the
    # coordinates themselves (1e-16 of their distance from the origin, so
    # 1e-13 at 1e3 m): the moments are summed about an inlier, so their own
    # rounding scales with the inliers' spread, not with that distance.
    # A later refit has no such floor: its set lies within a widened f t of
    # the plane before, and (m-2) (f' t)^2 can fall below m (f t)^2.  So a
    # refit whose set or final inliers hold fewer than 3 points ends the
    # schedule at the last plane with at least 3 points within t of it.
    final, planes = fitted, []
    for factor in REFIT_SCHEDULE:
        normal, centroid, final = _refit(xyz, final, count, factor * threshold)
        count = np.count_nonzero(final)
        planes.append((normal, centroid))
        if count < 3:
            break
    while count < 3:
        planes.pop()
        if not planes:
            raise ValueError("plane fit failed: no plane consensus found")
        normal, centroid = planes[-1]
        final = _within(normal, xyz, normal @ centroid, threshold)
        count = np.count_nonzero(final)
    # the plane that chose `final` passes through origin + centroid
    d = -(float(normal @ centroid) + float(normal @ origin))
    inliers = final.nonzero()[0]
    return PlaneModel(normal, d, inliers if valid_idx is None else valid_idx[inliers])


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


def _row_medians(rows: np.ndarray) -> np.ndarray:
    # np.median(rows, axis=1), bit for bit, from one partition at the upper
    # middle: for an even count the lower middle is the largest value below
    # it, and np.median's mean of the pair is (lower + upper) / 2.  A row with
    # NaN, or whose middle is a zero, takes np.median itself: which of -0.0
    # and 0.0 a selection puts in the middle depends on its kth values, and
    # np.median selects at three.
    m = rows.shape[1]
    h = m // 2
    part = rows.copy()
    part.partition(h, axis=1)
    upper = part[:, h]
    if m % 2:
        med, zero = upper, upper == 0
    else:
        lower = part[:, :h].max(axis=1)
        med, zero = (lower + upper) / 2, (lower == 0) | (upper == 0)
    slow = zero | np.isnan(rows).any(axis=1)
    if slow.any():
        med[slow] = np.median(rows[slow], axis=1)
    return med


def extract_ground_estimate(plane: PlaneModel, cloud: PointCloud) -> GroundEstimate:
    """Derive the probe target points from a fitted plane's inliers.

    The center is the per-coordinate median of the inliers; the near point
    replaces its y with the minimum inlier y; the approach point sits
    3 cm further along +y, into the pot.
    """
    if plane.inlier_count == 0:
        raise ValueError("plane has no inliers")
    # a (3, m) gather: each coordinate's inliers contiguous, for the median
    inl = cloud.points.T.take(plane.inlier_indices, axis=1)
    center = Point3(*_row_medians(inl).tolist())
    near = Point3(center.x, float(inl[1].min()), center.z)
    approach = Point3(near.x, near.y + APPROACH_OFFSET_Y, near.z)
    return GroundEstimate(plane, center, near, approach)


def detect_ground(cloud: PointCloud, bounds: WorkspaceBounds, seed: int = 0) -> GroundEstimate:
    """Full detection pipeline: workspace filter, band refinement, plane fit."""
    crop = workspace_filter(cloud, bounds)
    if len(crop) == 0:
        raise ValueError("no points inside the workspace bounds")
    band = refine_ground_band(crop)
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
