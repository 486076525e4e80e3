"""Point clouds, the structured-workspace pass-through filter, and text I/O."""

from __future__ import annotations

import bz2
import gzip
import lzma
import os
import warnings
from dataclasses import dataclass

import numpy as np


class PointCloud:
    """An ordered collection of 3-D points backed by an (N, 3) float array."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) array, got shape {pts.shape}")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def z(self) -> np.ndarray:
        return self.points[:, 2]

    def select(self, index) -> "PointCloud":
        return PointCloud(self.points[index])

    def sort_by_z(self) -> "PointCloud":
        """Return a copy ordered by ascending z; NaN points go last."""
        order = np.argsort(self.points[:, 2], kind="stable")
        return self.select(order)


@dataclass(frozen=True)
class WorkspaceBounds:
    """Reachable-region box around the plant container.

    x must fall strictly inside (x_min, x_max), y strictly below y_max and z
    strictly inside (z_min, z_max).  All lengths in meters.
    """

    x_min: float
    x_max: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        # written so that a NaN bound fails too
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if not self.z_min < self.z_max:
            raise ValueError("z_min must be below z_max")


def workspace_filter(cloud: PointCloud, bounds: WorkspaceBounds) -> PointCloud:
    """Keep the valid points inside the workspace box, sorted by ascending z.

    Boundary points are excluded (all comparisons strict), points with a NaN
    or infinite coordinate are dropped.  An empty result is legal; callers
    decide whether that is fatal.
    """
    x, y, z = cloud.points.T
    # NaN fails every strict comparison and +-inf fails the two-sided x and z
    # tests; y = -inf is the one non-finite value the box itself lets through.
    keep = (
        (x > bounds.x_min)
        & (x < bounds.x_max)
        & (y < bounds.y_max)
        & (y > -np.inf)
        & (z > bounds.z_min)
        & (z < bounds.z_max)
    )
    idx = np.flatnonzero(keep)
    return cloud.select(idx[_stable_order(z[idx])])


def _stable_order(values: np.ndarray) -> np.ndarray:
    """np.argsort(values, kind="stable"), faster, for values without NaN.

    The default sort orders the values but may reorder ties; numbering the
    runs of equal values then gives each position a tie-group id, and one
    sort of the unique keys `group * n + position` puts the groups in order
    and each group's positions in input order.  -0.0 and 0.0 share a group,
    as they tie in the stable sort.  NaN is unequal to itself, so each NaN
    would get a group of its own and lose its input order.
    """
    n = values.size
    order = np.argsort(values)
    ranked = values[order]
    group = np.zeros(n, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=group[1:])
    return np.sort(group * n + order) % n


# Text format: one `x,y,z` triple per line, 9 significant digits; `#` starts
# a comment, on a line of its own or after the data.

def save_cloud(cloud: PointCloud, path) -> None:
    np.savetxt(path, cloud.points, fmt="%.9g", delimiter=",")


# numpy decompresses a file it reads by name by these suffixes; the line
# parser opens it the same way
_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open, ".lzma": lzma.open}


def load_cloud(path) -> PointCloud:
    """Read a cloud file; an empty or comment-only file gives an empty cloud.

    A file named *.gz, *.bz2, *.xz or *.lzma is decompressed first.
    """
    # Opening the file here, though numpy reads it by name, makes a missing
    # file fail with the system's message, and a URL-like path fail before
    # numpy could take it for a URL.
    with open(path):
        try:
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    # by name, numpy reads the file in blocks; given a file
                    # object, it iterates it line by line
                    return PointCloud(np.loadtxt(path, delimiter=",", comments="#", ndmin=2))
            except ValueError:
                pass
            # numpy rejected the text, and its row numbers are not consistent
            # (0-based for a bad number, 1-based for a short line): parse again
            # line by line, so a malformed file fails with an error naming its line.
            with _OPENERS.get(os.path.splitext(path)[1], open)(path, "rt") as f:
                return cloud_from_text(f.read())
        except (EOFError, lzma.LZMAError) as err:  # a truncated or foreign compressed stream
            raise ValueError(f"{os.fspath(path)}: {err}") from None


def cloud_from_text(text: str) -> PointCloud:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 3 comma-separated fields, got {len(fields)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    return PointCloud(np.array(rows, dtype=float).reshape(len(rows), 3))
