import bz2
import gzip
import io
import lzma
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soilprobe.cloud import (
    PointCloud,
    WorkspaceBounds,
    load_cloud,
    save_cloud,
    workspace_filter,
)

BOUNDS = WorkspaceBounds(x_min=-0.2, x_max=0.2, y_max=0.2, z_min=0.0, z_max=0.17)


def test_cloud_shape_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    assert len(PointCloud([])) == 0
    assert len(PointCloud(np.zeros((3, 3)))) == 3


def test_cloud_accessors_and_indexing():
    cloud = PointCloud([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(cloud.z, [3.0, 6.0])
    assert tuple(cloud.points[1]) == (4.0, 5.0, 6.0)


def test_sort_by_z_is_stable_ascending():
    cloud = PointCloud([[0.0, 0.0, 0.3], [1.0, 0.0, 0.1], [2.0, 0.0, 0.2]])
    ordered = cloud.sort_by_z()
    assert np.array_equal(ordered.z, [0.1, 0.2, 0.3])
    assert np.array_equal(ordered.points[:, 0], [1.0, 2.0, 0.0])


def test_workspace_filter_keeps_strict_interior():
    inside = [0.0, 0.0, 0.05]
    cloud = PointCloud([
        inside,
        [-0.2, 0.0, 0.05],   # on x_min boundary
        [0.2, 0.0, 0.05],    # on x_max boundary
        [0.0, 0.2, 0.05],    # on y_max boundary
        [0.0, 0.0, 0.0],     # on z_min boundary
        [0.0, 0.0, 0.17],    # on z_max boundary
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
        [0.0, np.inf, 0.05],
        [0.0, -np.inf, 0.05],  # below y_max, yet not a measurement
        [0.0, 0.0, 0.02],
        [0.0, 0.0, np.nan],
    ])
    kept = workspace_filter(cloud, BOUNDS)
    assert np.array_equal(kept.z, [0.02, 0.09])


def reference_workspace_filter(cloud, bounds):
    # the crop's definition: finite rows strictly inside the box, then a
    # stable sort by z
    pts = cloud.points
    keep = (
        np.isfinite(pts).all(axis=1)
        & (pts[:, 0] > bounds.x_min)
        & (pts[:, 0] < bounds.x_max)
        & (pts[:, 1] < bounds.y_max)
        & (pts[:, 2] > bounds.z_min)
        & (pts[:, 2] < bounds.z_max)
    )
    return cloud.select(keep).sort_by_z()


# every bound of BOUNDS, the non-finite values, and a few plain coordinates
EDGE_VALUES = (-0.2, 0.2, 0.0, 0.17, math.nan, math.inf, -math.inf, 0.05, -0.1, 0.3)
# BOUNDS with z = -0.0 and z = 0.0 inside the box
LOW_BOUNDS = WorkspaceBounds(x_min=-0.2, x_max=0.2, y_max=0.2, z_min=-0.1, z_max=0.17)

# 6000 points with z quantized to 1 mm, as a depth camera reports it: about
# 28 points per tie group, above the 16 below which numpy's default sort
# keeps ties in order anyway, and -0.0 and 0.0 in one group
_rng = np.random.default_rng(18)
QUANTIZED_CLOUD = np.column_stack([_rng.uniform(-0.19, 0.19, 6000), _rng.uniform(-0.3, 0.19, 6000),
                                   np.round(_rng.uniform(-0.05, 0.16, 6000), 3)])


@settings(max_examples=60, deadline=None, database=None)
@given(points=arrays(float, st.tuples(st.integers(0, 24), st.just(3)),
                     elements=st.one_of(st.sampled_from(EDGE_VALUES),
                                        st.floats(-0.3, 0.3, allow_nan=False))))
@example(points=np.array([[0.0, -math.inf, 0.05], [0.0, 0.0, 0.05], [0.1, -math.inf, 0.02]]))
@example(points=np.column_stack([np.linspace(-0.1, 0.1, 60), np.zeros(60),
                                  np.tile([0.05, 0.02, 0.1], 20)]))  # ties in z keep input order
@example(points=QUANTIZED_CLOUD)
@example(points=np.array([[0.0, 0.0, 0.0], [0.01, 0.0, -0.0], [0.02, 0.0, 0.0],
                          [0.03, 0.0, -0.0], [0.04, 0.0, 0.05]]))  # -0.0 ties 0.0
@example(points=np.array([[0.3, 0.0, 0.05], [0.0, 0.0, 0.2]]))  # nothing kept
@example(points=np.array([[0.3, 0.0, 0.05], [0.0, 0.0, 0.05]]))  # one point kept
def test_workspace_filter_matches_its_definition(points):
    cloud = PointCloud(points)
    for bounds in (BOUNDS, LOW_BOUNDS):
        got, want = workspace_filter(cloud, bounds), reference_workspace_filter(cloud, bounds)
        assert got.points.shape == want.points.shape
        # bitwise, so that a -0.0 swapped with a 0.0 counts
        assert got.points.tobytes() == want.points.tobytes()


def test_bounds_validation():
    with pytest.raises(ValueError, match="x_min"):
        WorkspaceBounds(0.2, -0.2, 0.2, 0.0, 0.17)
    with pytest.raises(ValueError, match="z_min"):
        WorkspaceBounds(-0.2, 0.2, 0.2, 0.17, 0.17)
    for nan_box in ((math.nan, 0.2, 0.2, 0.0, 0.17), (-0.2, 0.2, 0.2, 0.0, math.nan)):
        with pytest.raises(ValueError):
            WorkspaceBounds(*nan_box)


def test_text_roundtrip(tmp_path):
    cloud = PointCloud([[0.123456789, -0.987654321, 0.5], [1e-4, 2e-5, 3.0]])
    path = tmp_path / "cloud.txt"
    save_cloud(cloud, path)
    back = load_cloud(path)
    assert len(back) == 2
    assert np.max(np.abs(back.points - cloud.points)) < 1e-9


def write_cloud_file(tmp_path, data: bytes):
    path = tmp_path / "cloud.txt"
    path.write_bytes(data)
    return path


def test_text_format_comments_and_blanks(tmp_path):
    text = b"# header comment\n\n0.1,0.2,0.3  # trailing comment\n   \n# last\n"
    cloud = load_cloud(write_cloud_file(tmp_path, text))
    assert cloud.points.tolist() == [[0.1, 0.2, 0.3]]


def test_text_numpy_rejects_still_parses(tmp_path):
    # np.loadtxt rejects these; the line parser reads them, at its own speed
    for text, points in ((b"1,2,3\n   \n4,5,6\n", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                         (b"1_0,2,3\n", [[10.0, 2.0, 3.0]])):
        with pytest.raises(ValueError):
            np.loadtxt(io.BytesIO(text), delimiter=",", comments="#", ndmin=2)
        assert load_cloud(write_cloud_file(tmp_path, text)).points.tolist() == points


def test_compressed_cloud_loads_by_its_suffix(tmp_path):
    text = b"# scene\n0.1,0.2,0.3\n1_0,-2,3e-3\n"  # the second row only the line parser reads
    for suffix, compress in ((".gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress)):
        path = tmp_path / f"cloud.txt{suffix}"
        path.write_bytes(compress(text))
        assert load_cloud(path).points.tolist() == [[0.1, 0.2, 0.3], [10.0, -2.0, 3e-3]]
        path.write_bytes(compress(text.replace(b"1_0", b"1")))
        assert load_cloud(path).points.tolist() == [[0.1, 0.2, 0.3], [1.0, -2.0, 3e-3]]


def test_text_format_reports_line_numbers(tmp_path):
    with pytest.raises(ValueError, match="line 2: expected 3"):
        load_cloud(write_cloud_file(tmp_path, b"0.1,0.2,0.3\n0.1,0.2\n"))
    with pytest.raises(ValueError, match="line 3: could not convert"):
        load_cloud(write_cloud_file(tmp_path, b"0.1,0.2,0.3\n# note\na,0.2,0.3\n"))
    with pytest.raises(ValueError, match="line 1: expected 3"):
        load_cloud(write_cloud_file(tmp_path, b"0.1,0.2\n0.3,0.4\n"))


def test_empty_text_gives_empty_cloud(tmp_path):
    for text in (b"", b"\n\n", b"# only a comment\n#\n"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = load_cloud(write_cloud_file(tmp_path, text))
        assert cloud.points.shape == (0, 3)
    path = tmp_path / "empty.txt"
    save_cloud(cloud, path)
    assert path.read_text() == ""


def test_text_format_spacing_line_ends_and_specials(tmp_path):
    text = b" 0.1 , 0.2 ,0.3 \r\n\t1,-2,3e-3\r\nnan,inf,-inf\r\nNaN,0,Infinity\r\n"
    cloud = load_cloud(write_cloud_file(tmp_path, text))
    assert cloud.points.shape == (4, 3)
    assert cloud.points[:2].tolist() == [[0.1, 0.2, 0.3], [1.0, -2.0, 3e-3]]
    assert np.isnan(cloud.points[2, 0]) and np.isnan(cloud.points[3, 0])
    assert cloud.points[2, 1:].tolist() == [math.inf, -math.inf]
    assert cloud.points[3, 1:].tolist() == [0.0, math.inf]


def test_rerendered_text_is_identical(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_cloud(PointCloud([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]), first)
    save_cloud(load_cloud(first), second)
    assert first.read_text() == "0.1,0.2,0.3\n0.4,0.5,0.6\n"
    assert second.read_text() == first.read_text()


def test_nan_survives_text_roundtrip(tmp_path):
    cloud = load_cloud(write_cloud_file(tmp_path, b"nan,0.1,0.2\n"))
    assert math.isnan(cloud.points[0, 0])


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(points=arrays(float, st.tuples(st.integers(0, 12), st.just(3)),
                     elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_text_roundtrip_keeps_bytes_and_nan(tmp_path, points):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_cloud(PointCloud(points), first)
    back = load_cloud(first)
    save_cloud(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert back.points.shape == points.shape
    assert np.array_equal(np.isnan(back.points), np.isnan(points))
