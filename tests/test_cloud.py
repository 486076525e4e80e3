import bz2
import gzip
import io
import lzma
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soilprobe.cloud import (
    CROP_POINTS,
    CSV_CHUNK_ROWS,
    PointCloud,
    WorkspaceBounds,
    csv_chunks,
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
    # the crop's definition: finite rows strictly inside the box; of more
    # than CROP_POINTS of them, the first of every ceil(n / CROP_POINTS);
    # then a stable sort by z
    pts = cloud.points
    keep = (
        np.isfinite(pts).all(axis=1)
        & (pts[:, 0] > bounds.x_min)
        & (pts[:, 0] < bounds.x_max)
        & (pts[:, 1] < bounds.y_max)
        & (pts[:, 2] > bounds.z_min)
        & (pts[:, 2] < bounds.z_max)
    )
    kept = cloud.select(keep)
    if len(kept) > CROP_POINTS:
        kept = kept.select(np.arange(len(kept)) % math.ceil(len(kept) / CROP_POINTS) == 0)
    return kept.select(np.argsort(kept.z, kind="stable"))


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
# 3000 points whose z values are distinct but for 31 runs of 20 equal ones,
# -0.0 and 0.0 among them: the sparse ties %.9g text leaves in a dense crop
_z = _rng.uniform(-0.05, 0.16, 3000)
_z[:600] = np.repeat(_rng.uniform(-0.05, 0.16, 30), 20)
_z[600:620] = np.tile([0.0, -0.0], 10)
SPARSE_TIES_CLOUD = np.column_stack([_rng.uniform(-0.19, 0.19, 3000), _rng.uniform(-0.3, 0.19, 3000),
                                     _rng.permutation(_z)])
# points inside both boxes, so that the crop holds all of them: exactly
# CROP_POINTS, and one more, which halves the crop
_inside = np.column_stack([_rng.uniform(-0.19, 0.19, CROP_POINTS + 1),
                           _rng.uniform(-0.19, 0.19, CROP_POINTS + 1),
                           _rng.uniform(0.001, 0.16, CROP_POINTS + 1)])
BUDGET_CLOUD, OVER_BUDGET_CLOUD = _inside[:-1], _inside
# about 3 CROP_POINTS rows, a tenth of them outside the box, with 5% NaN
# rows and z quantized to 1 mm, with -0.0 and 0.0 among the ties: the crop
# keeps every second of the points that pass BOUNDS and every third of
# those that pass LOW_BOUNDS, then sorts their ties
_n = 3 * CROP_POINTS + 700
_z = np.round(_rng.uniform(-0.05, 0.16, _n), 3)
_z[_rng.random(_n) < 0.02] = 0.0
_z[_rng.random(_n) < 0.02] = -0.0
DENSE_TIES_CLOUD = np.column_stack([_rng.uniform(-0.19, 0.19, _n), _rng.uniform(-0.3, 0.25, _n), _z])
DENSE_TIES_CLOUD[_rng.random(_n) < 0.05] = np.nan


@settings(max_examples=60, deadline=None, database=None)
@given(points=arrays(float, st.tuples(st.integers(0, 24), st.just(3)),
                     elements=st.one_of(st.sampled_from(EDGE_VALUES),
                                        st.floats(-0.3, 0.3, allow_nan=False))))
@example(points=np.array([[0.0, -math.inf, 0.05], [0.0, 0.0, 0.05], [0.1, -math.inf, 0.02]]))
@example(points=np.column_stack([np.linspace(-0.1, 0.1, 60), np.zeros(60),
                                  np.tile([0.05, 0.02, 0.1], 20)]))  # ties in z keep input order
@example(points=QUANTIZED_CLOUD)
@example(points=SPARSE_TIES_CLOUD)
@example(points=BUDGET_CLOUD)
@example(points=OVER_BUDGET_CLOUD)
@example(points=DENSE_TIES_CLOUD)
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
    # a NaN or -inf y_max would empty every crop
    for y_box in ((-0.2, 0.2, math.nan, 0.0, 0.17), (-0.2, 0.2, -math.inf, 0.0, 0.17)):
        with pytest.raises(ValueError, match="y_max"):
            WorkspaceBounds(*y_box)


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


def special_points():
    # more rows than two chunks, the last one partial; every column holds
    # NaN, +-inf and -0.0, next to values from 1e-12 to 1e12
    rng = np.random.default_rng(20)
    shape = (2 * CSV_CHUNK_ROWS + 37, 3)
    points = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-12, 13, shape)
    points[:8] = np.round(points[:8])
    for col in range(3):
        for value in (math.nan, math.inf, -math.inf, -0.0):
            points[rng.integers(len(points), size=5), col] = value
    return points


def assert_same_rows(text, want, what):
    # the first row that differs, rather than a diff of the whole text
    rows = text.splitlines(keepends=True)
    wrong = next((i for i, (a, b) in enumerate(zip(rows, want)) if a != b), None)
    assert (len(rows), wrong) == (len(want), None), what


def test_save_cloud_bytes_are_one_row_per_point(tmp_path):
    points = special_points()
    want = ["%.9g,%.9g,%.9g\n" % tuple(row) for row in points.tolist()]
    assert all(any(token in row for row in want) for token in ("nan", "inf", "-inf", "-0,", ",-0\n"))
    fortran = np.asfortranarray(points)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    for name, array in (("c", points), ("fortran", fortran)):
        path = tmp_path / f"{name}.txt"
        save_cloud(PointCloud(array), path)
        assert_same_rows(path.read_text(), want, name)


def float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# any float64 bit pattern, any float, and values near a .5 tie of the
# 9-digit rounding, which the renderer hands to Python's '%.9g'
FLOATS = st.one_of(st.integers(0, 2**64 - 1).map(float_from_bits), st.floats(),
                   st.builds(lambda m, k: (m + 0.5) * 10.0 ** k,
                             st.integers(10**8, 10**9 - 1), st.integers(-30, 30)))
TIES = [12345678.25, 12345678.75, 123456788.5, -1234567885.0, 1234567895.0,  # exact
        445.0319925, 6.871322005e-11, 9767675.735, 0.1234567835]            # near
# where %g switches between fixed and exponent notation, and roundings
# that carry across the switch
SWITCHES = [1e-05, 0.0001, 9.9999999995e-05, 0.00012345678, 99999999.95, 123456789.0,
            999999999.5, 1234567890.0, 0.5, 1.0, 10.0, -99.0]
# 3-digit exponents, and the ends of the renderer's exponent table
WIDE = [1e100, -1.5e-200, 1.7976931348623157e308, 1e-300, 9.99e-301, 2.2250738585072014e-308,
        1e-99, 9.9e99, 123456789e-112]
SPECIAL = [5e-324, -5e-324, 0.0, -0.0, math.inf, -math.inf, math.nan,
           float_from_bits(0xFFF8000000000000)]  # nan with the sign bit set


@settings(max_examples=25, deadline=None, database=None)
@given(values=st.lists(FLOATS, min_size=1, max_size=40), cols=st.sampled_from([1, 3, 9]),
       rows=st.sampled_from([0, 1, 2, 7, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS + 1]),
       order=st.sampled_from("CF"))
@example(values=TIES, cols=9, rows=CSV_CHUNK_ROWS + 1, order="F")
@example(values=SWITCHES, cols=3, rows=8, order="C")
@example(values=WIDE, cols=9, rows=2, order="C")
@example(values=SPECIAL, cols=1, rows=8, order="C")
@example(values=[1.0], cols=3, rows=0, order="C")  # an empty table
def test_csv_chunks_write_percent_g(values, cols, rows, order):
    # the values repeat to fill the table, so they land in every column and,
    # past CSV_CHUNK_ROWS rows, in a second chunk
    table = np.asarray(np.resize(np.array(values), (rows, cols)), order=order)
    want = [",".join(["%.9g" % v for v in row]) + "\n" for row in table.tolist()]
    assert_same_rows("".join(csv_chunks(table.T)), want, order)


def test_save_cloud_streams_its_rows(tmp_path):
    # each chunk goes to the file as it is rendered: the peak of Python
    # allocations stays well below the size of the text.  The first render
    # builds the renderer's tables, which live as long as the process, so
    # one small cloud is written before the window opens.
    save_cloud(PointCloud(np.ones((2, 3))), tmp_path / "warm.txt")
    cloud = PointCloud(np.random.default_rng(0).uniform(-1.0, 1.0, (16 * CSV_CHUNK_ROWS, 3)))
    path = tmp_path / "cloud.txt"
    tracemalloc.start()
    try:
        save_cloud(cloud, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


# the container each compressed suffix is written in: .lzma is an xz file
CONTAINERS = {".gz": (b"\x1f\x8b", gzip.decompress), ".bz2": (b"BZh", bz2.decompress),
              ".xz": (b"\xfd7zXZ\x00", lzma.decompress), ".lzma": (b"\xfd7zXZ\x00", lzma.decompress)}


@pytest.mark.parametrize("suffix", CONTAINERS)
def test_compressed_save_roundtrips(tmp_path, suffix):
    magic, decompress = CONTAINERS[suffix]
    cloud = PointCloud(special_points())
    plain, packed = tmp_path / "cloud.txt", tmp_path / f"cloud.txt{suffix}"
    save_cloud(cloud, plain)
    save_cloud(cloud, packed)
    data = packed.read_bytes()
    assert data.startswith(magic)
    assert_same_rows(decompress(data).decode(), plain.read_text().splitlines(keepends=True), suffix)
    assert load_cloud(packed).points.tobytes() == load_cloud(plain).points.tobytes()


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
