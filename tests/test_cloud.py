import math

import numpy as np
import pytest

from soilprobe.cloud import (
    PointCloud,
    WorkspaceBounds,
    cloud_from_text,
    load_cloud,
    save_cloud,
    workspace_filter,
)

BOUNDS = WorkspaceBounds(x_min=-0.2, x_max=0.2, y_max=0.2, z_table=0.0, pot_height=0.12, margin=0.05)


def test_cloud_shape_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    assert len(PointCloud([])) == 0
    assert len(PointCloud(np.zeros((3, 3)))) == 3


def test_cloud_accessors_and_indexing():
    cloud = PointCloud([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(cloud.x, [1.0, 4.0])
    assert np.array_equal(cloud.y, [2.0, 5.0])
    assert np.array_equal(cloud.z, [3.0, 6.0])
    assert tuple(cloud.points[1]) == (4.0, 5.0, 6.0)


def test_valid_mask_flags_nan_rows():
    cloud = PointCloud([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]])
    assert np.array_equal(cloud.valid_mask(), [True, False, False])


def test_sort_by_z_is_stable_ascending():
    cloud = PointCloud([[0.0, 0.0, 0.3], [1.0, 0.0, 0.1], [2.0, 0.0, 0.2]])
    ordered = cloud.sort_by_z()
    assert np.array_equal(ordered.z, [0.1, 0.2, 0.3])
    assert np.array_equal(ordered.x, [1.0, 2.0, 0.0])


def test_workspace_filter_keeps_strict_interior():
    inside = [0.0, 0.0, 0.05]
    cloud = PointCloud([
        inside,
        [-0.2, 0.0, 0.05],   # on x_min boundary
        [0.2, 0.0, 0.05],    # on x_max boundary
        [0.0, 0.2, 0.05],    # on y_max boundary
        [0.0, 0.0, 0.0],     # on z_table boundary
        [0.0, 0.0, BOUNDS.z_top],  # on the top boundary
        [0.3, 0.0, 0.05],    # outside x
        [0.0, 0.5, 0.05],    # outside y
        [0.0, 0.0, 0.9],     # above the pot
    ])
    kept = workspace_filter(cloud, BOUNDS)
    assert len(kept) == 1
    assert np.array_equal(kept.points[0], inside)


def test_workspace_filter_drops_nan_and_sorts():
    cloud = PointCloud([
        [0.0, 0.0, 0.09],
        [np.nan, 0.0, 0.05],
        [0.0, 0.0, 0.02],
    ])
    kept = workspace_filter(cloud, BOUNDS)
    assert np.array_equal(kept.z, [0.02, 0.09])


def test_bounds_validation():
    with pytest.raises(ValueError):
        WorkspaceBounds(0.2, -0.2, 0.2, 0.0, 0.12, 0.05)
    with pytest.raises(ValueError):
        WorkspaceBounds(-0.2, 0.2, 0.2, 0.0, -1.0, 0.05)
    with pytest.raises(ValueError):
        WorkspaceBounds(-0.2, 0.2, 0.2, 0.0, 0.12, 0.0)
    assert BOUNDS.z_top == pytest.approx(0.17)


def test_text_roundtrip(tmp_path):
    cloud = PointCloud([[0.123456789, -0.987654321, 0.5], [1e-4, 2e-5, 3.0]])
    path = tmp_path / "cloud.txt"
    save_cloud(cloud, path)
    back = load_cloud(path)
    assert len(back) == 2
    assert np.max(np.abs(back.points - cloud.points)) < 1e-9


def test_text_format_comments_and_blanks():
    text = "# header comment\n\n0.1,0.2,0.3\n# trailing\n"
    cloud = cloud_from_text(text)
    assert len(cloud) == 1
    assert cloud.points[0, 1] == 0.2


def test_text_format_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        cloud_from_text("0.1,0.2,0.3\n0.1,0.2\n")
    with pytest.raises(ValueError, match="line 1"):
        cloud_from_text("a,b,c\n")


def test_empty_text_gives_empty_cloud(tmp_path):
    cloud = cloud_from_text("")
    assert len(cloud) == 0
    path = tmp_path / "empty.txt"
    save_cloud(cloud, path)
    assert path.read_text() == ""


def test_rerendered_text_is_identical(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_cloud(PointCloud([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]), first)
    save_cloud(load_cloud(first), second)
    assert first.read_text() == "0.1,0.2,0.3\n0.4,0.5,0.6\n"
    assert second.read_text() == first.read_text()


def test_nan_survives_text_roundtrip():
    cloud = cloud_from_text("nan,0.1,0.2\n")
    assert math.isnan(cloud.points[0, 0])
