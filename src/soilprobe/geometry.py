"""3-D points for the sensing pipeline."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Point3:
    """A 3-D sample in meters. NaN coordinates mark an invalid measurement."""

    x: float
    y: float
    z: float

    @staticmethod
    def from_array(a) -> "Point3":
        return Point3(float(a[0]), float(a[1]), float(a[2]))
