"""Point clouds, the structured-workspace pass-through filter, and text I/O."""

from __future__ import annotations

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
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.points[:, 2]

    def valid_mask(self) -> np.ndarray:
        return np.all(np.isfinite(self.points), axis=1)

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
    strictly inside (z_table, z_table + pot_height + margin).  All lengths in
    meters.
    """

    x_min: float
    x_max: float
    y_max: float
    z_table: float
    pot_height: float
    margin: float

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.pot_height <= 0:
            raise ValueError("pot_height must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be positive")

    @property
    def z_top(self) -> float:
        return self.z_table + self.pot_height + self.margin


def workspace_filter(cloud: PointCloud, bounds: WorkspaceBounds) -> PointCloud:
    """Keep the valid points inside the workspace box, sorted by ascending z.

    Boundary points are excluded (all comparisons strict), NaN points are
    dropped.  An empty result is legal; callers decide whether that is fatal.
    """
    pts = cloud.points
    with np.errstate(invalid="ignore"):
        keep = (
            cloud.valid_mask()
            & (pts[:, 0] > bounds.x_min)
            & (pts[:, 0] < bounds.x_max)
            & (pts[:, 1] < bounds.y_max)
            & (pts[:, 2] > bounds.z_table)
            & (pts[:, 2] < bounds.z_top)
        )
    return cloud.select(keep).sort_by_z()


# Text format: one `x,y,z` triple per line, 9 significant digits, `#` comments.

def save_cloud(cloud: PointCloud, path) -> None:
    np.savetxt(path, cloud.points, fmt="%.9g", delimiter=",")


def load_cloud(path) -> PointCloud:
    with open(path) as f:
        return cloud_from_text(f.read())


def cloud_from_text(text: str) -> PointCloud:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 3 comma-separated fields, got {len(fields)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    return PointCloud(np.array(rows, dtype=float).reshape(len(rows), 3))
