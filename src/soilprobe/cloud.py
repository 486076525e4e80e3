"""Point clouds, the structured-workspace pass-through filter, and text I/O."""

from __future__ import annotations

import bz2
import functools
import gzip
import lzma
import math
import os
import sys
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
        if not self.y_max > -math.inf:
            raise ValueError("y_max must be above -inf")
        if not self.z_min < self.z_max:
            raise ValueError("z_min must be below z_max")


# The most points a crop keeps.  The surface is only roughly estimated from
# the camera, and a dense cloud's extra points buy no accuracy, so a larger
# crop is thinned to an even stride of its points, as fit_plane_ransac
# scores hypotheses on a stride.  Every default scene's crop (at most about
# 4.8k points) is below it and kept whole.
CROP_POINTS = 6144


def workspace_filter(cloud: PointCloud, bounds: WorkspaceBounds) -> PointCloud:
    """Keep the valid points inside the workspace box, sorted by ascending z.

    Boundary points are excluded (all comparisons strict), points with a NaN
    or infinite coordinate are dropped.  When n > CROP_POINTS points pass,
    only every ceil(n / CROP_POINTS)-th of them in input order, starting
    with the first, is kept and sorted: an even stride of at most
    CROP_POINTS points.  An empty result is legal; callers decide whether
    that is fatal.
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
    idx = keep.nonzero()[0]
    if idx.size > CROP_POINTS:
        idx = idx[::-(-idx.size // CROP_POINTS)]
    # take gathers rows faster than fancy indexing, with the same values
    return PointCloud(cloud.points.take(idx.take(_stable_order(z[idx])), axis=0))


def _stable_order(values: np.ndarray) -> np.ndarray:
    """np.argsort(values, kind="stable"), faster, for values without NaN.

    The default sort orders the values but may reorder ties, so only the
    members of runs of equal values are sorted again: numbering those runs
    gives each member a tie-group id, and one sort of the unique keys
    `group * n + position` keeps the runs where they are and puts each
    run's positions in input order.  -0.0 and 0.0 share a run, as they tie
    in the stable sort.  NaN is unequal to itself, so each NaN would get a
    run of its own and lose its input order.  Without ties there is one
    ascending order only, and the default sort has found it.
    """
    n = values.size
    order = np.argsort(values)
    ranked = values.take(order)
    tie = ranked[1:] == ranked[:-1]
    if not tie.any():
        return order
    member = np.zeros(n, dtype=bool)
    member[1:] = tie
    member[:-1] |= tie
    tied = np.flatnonzero(member)
    tied_values = ranked[tied]
    group = np.zeros(tied.size, dtype=np.int64)
    np.cumsum(tied_values[1:] != tied_values[:-1], out=group[1:])
    order[tied] = np.sort(group * n + order[tied]) % n
    return order


# Text format: one `x,y,z` triple per line, each value as %.9g; `#` starts
# a comment, on a line of its own or after the data.

# Rows rendered per chunk, for clouds and traces alike.  The renderer's
# buffer and temporaries hold one chunk, so a table is never rendered whole;
# chunks of this size spread numpy's per-call cost over enough values.
CSV_CHUNK_ROWS = 1024

# The %.9g renderer writes each value's text into a 24-byte slot, three
# little-endian uint64 words, with NUL in the bytes the text leaves unused:
#   word 0: the sign; the "0.0.." prefix of fixed notation below 1, or the
#           text of 0, inf or nan; the first digit in byte 7;
#   word 1: the other eight digits, the decimal point inserted among them;
#   word 2: the digit the point pushed out of word 1, the exponent text from
#           byte 1, and the separator in byte 6.
# Deleting the NULs leaves the text.  %.9g writes a value whose 9-digit
# rounding has decimal exponent e in fixed notation when -4 <= e < 9, else
# as d.dddddddde+XX, and drops the trailing zeros after the point.
#
# Exactness.  The 9-digit mantissa is |v| * 10**(8 - e) rounded to an
# integer.  The renderer rounds s = fl(|v| * P) instead, with P within 2u of
# 10**(8 - e) (u = 2**-53; see the powers in _g9_tables), so for s < 1e9
# s is within 3u * 1e9 < 3.4e-7 of the exact product, and rounding s rounds
# the mantissa correctly unless the product lies that close to a .5 tie.
# So a value whose s lies within 1e-6 of a tie is formatted by Python's
# '%.9g', as is a value whose exponent the table lacks (subnormals and |v|
# below about 1e-300).  e comes from the binary exponent and one comparison
# with a power of ten.  If rounding in that power misplaces a value lying
# within 2u of 10**k, its s rounds to 1e8 at exponent k, or to 1e9 at
# k - 1, which carries to 1e8 at k: the same digits either way.
_E_MIN, _E_MAX = -300, 307  # the exponents a key's row can start at
_NE = _E_MAX + 3 - _E_MIN   # rows of exponents _E_MIN .. _E_MAX + 2
_SLOW, _ZERO, _INF, _NEG_INF, _NAN = range(_NE, _NE + 5)  # the special rows
_TIE = 0.5 - 1e-6  # |s - rint(s)| above this: within 1e-6 of a tie


@functools.cache
def _g9_tables():
    """The lookup tables of _render_g9, built on the first render, so that a
    process that writes no text does not hold them.

    Per key, the top 12 bits of a float64: the exponent row and the sign; per
    row, an exponent or a special value: the scale, the power of ten that
    raises the row by one, and the layout words; per 4-digit group, its text
    and then its text without trailing zeros; per first digit, its text.
    They are built from Python lists and 1-D numpy operations, which numpy
    sets up faster on first use than 2-D broadcasts.
    """
    u64 = np.uint64

    def word(text: bytes, at: int = 0) -> int:
        return int.from_bytes(bytes(at) + text, "little")

    # 10**k for k in [-300, 308] as fl(fl(10**(16j)) * 10**r), k = 16j + r:
    # 10**r is exact for r < 16, so each power is within 2u of 10**k
    exact = [float(10 ** r) for r in range(16)]
    powers = np.array([big * p for big in map(float, [f"1e{16 * j}" for j in range(-19, 20)])
                       for p in exact])[4:613]

    # Per key (sign and biased exponent b): the row of e0 = floor((b - 1023)
    # * log10(2)), which is the exponent of |v| or one below it; zeros,
    # subnormals, inf, nan and exponents below the table get the slow row,
    # which _render_g9 sorts out.  The sign: -inf's row spells its own.
    e0 = np.floor((np.arange(2048) - 1023) * math.log10(2)).astype(np.int64)
    row = e0 - _E_MIN
    row[:np.count_nonzero(e0 < _E_MIN)] = _SLOW  # e0 never falls as b rises
    row[0x7FF] = _SLOW
    key_sign = np.zeros(4096, np.uint8)
    key_sign[2048:0xFFF] = ord("-")

    # Per row: the scale 10**(8 - e), and the power of ten 10**(e + 1) that
    # |v| reaches when e0 is one below its exponent (inf: never).  The row
    # of exponent 309 only takes a carry.
    scale = np.zeros(_NE + 5)
    scale[:_NE - 1] = powers[::-1]
    raise_at = np.full(_NE + 5, np.inf)
    raise_at[:_NE - 2] = powers[1:]

    # the text of each 4-digit group as a word, then the same with its
    # trailing zeros cleared, from the 2-digit groups
    pairs = [b"%02d" % i for i in range(100)]
    two = np.array([word(p) for p in pairs], dtype=u64)
    two_stripped = np.array([word(p.rstrip(b"0")) for p in pairs], dtype=u64)
    groups = two.repeat(100) | np.tile(two, 100) << u64(16)
    stripped = two.repeat(100) | np.tile(two_stripped, 100) << u64(16)
    stripped[::100] = two_stripped

    # Per layout: exponents below -4, then -4 .. 8 in fixed notation, then
    # those above 8.  q is the byte of word 1 that takes the point: e in
    # fixed notation (8: none), 0 in exponent notation.
    per_layout = []
    for e in range(-5, 10):
        fixed = -4 <= e < 9
        q = (e if e >= 0 else 8) if fixed else 0
        below = (1 << 8 * q) - 1
        per_layout.append([below,
                           below & 0x3030303030303030 if fixed and e > 0 else 0,  # integer zeros
                           ord(".") << 8 * q if q < 8 else 0,
                           word(b"0." + b"0" * (-e - 1), 1) if fixed and e < 0 else 0])
    layout = np.zeros((_NE + 5, 5), u64)
    counts = [-4 - _E_MIN] + [1] * 13 + [_E_MAX - 6]  # rows per layout
    layout[:_NE, :4] = np.repeat(np.array(per_layout, dtype=u64), counts, axis=0)
    layout[_ZERO:, 3] = [word(b"\0" + b"0"), word(b"\0inf"), word(b"-inf"), word(b"\0nan")]
    # "e", the sign, and the exponent's last two or three digits
    e = np.abs(np.arange(_E_MIN, _E_MAX + 3))
    exponent = layout[:_NE, 4]
    exponent[:] = (groups[e] >> (u64(16) - u64(8) * (e >= 100)) << u64(24)
                   | u64(ord("e") << 8 | ord("+") << 16))
    exponent[:-_E_MIN] ^= u64((ord("+") ^ ord("-")) << 16)
    exponent[-4 - _E_MIN:9 - _E_MIN] = 0
    first_digit = np.zeros(10, u64)
    first_digit[1:] = np.arange(ord("1"), ord("9") + 1, dtype=u64) << u64(56)
    tables = (np.concatenate([row, row]), key_sign, scale, raise_at, *layout.T,
              np.concatenate([groups, stripped]), first_digit)
    # The tables live as long as the process.  Built in the middle of a
    # caller's work, in the malloc heap they would sit above memory the
    # caller frees later, which then stays resident (the benchmark's
    # pipeline workload peaked 1.3 MB higher); an anonymous mapping of their
    # own keeps them out of the heap.
    import mmap
    block = mmap.mmap(-1, sum(t.nbytes for t in tables))
    out, at = [], 0
    for t in tables:
        out.append(np.frombuffer(block, t.dtype, t.size, at))
        out[-1][:] = t
        at += t.nbytes
    return tuple(out)


def _render_g9(values: np.ndarray, slots: np.ndarray, separators: np.ndarray) -> None:
    """Write the %.9g text of each value and its separator into its slot.

    `values` is a contiguous 1-D float64 array, `slots` its (n, 3) uint64
    slots, `separators` each value's separator, already in byte 6.  Each
    temporary is deleted once used, which keeps a chunk's memory small.
    """
    (key_row, key_sign, scale, raise_at, below_point, int_zeros, point, prefix, exponent,
     groups, first_digit) = _g9_tables()
    u64 = np.uint64
    # sign and biased exponent; a negative value's key is negative, and
    # take() reads it from the upper half of a 4096-entry table
    key = values.view(np.int64) >> 52
    slots[:, 0] = key_sign.take(key)
    mag = np.fmin(np.abs(values), sys.float_info.max)  # inf and nan scale by 0
    row = key_row.take(key)
    del key
    row += mag >= raise_at.take(row)
    s = np.multiply(mag, scale.take(row), out=mag)
    m = np.rint(s)
    s -= m
    slow = np.abs(s, out=s) > _TIE
    del s, mag
    carry = m >= 1e9
    row += carry
    m[carry] = 1e8
    digits = m.astype(np.int32)
    del m, carry
    high = digits // 10000
    low = digits - 10000 * high
    first = high // 10000
    high -= 10000 * first
    slots[:, 0] |= first_digit.take(first)
    del digits, first

    special = np.flatnonzero(row == _SLOW)
    if special.size:
        v = values[special]
        kind = np.select([v == 0, v == np.inf, v == -np.inf, v != v],
                         [_ZERO, _INF, _NEG_INF, _NAN], _SLOW)
        row[special] = kind
        slow[special[kind == _SLOW]] = True
    slots[:, 0] |= prefix.take(row)

    # digits 2-9: trailing zeros cleared, then the integer ones put back
    np.add(high, 10000, out=high, where=low == 0)
    digits = groups.take(high)
    digits |= groups.take(low + 10000) << u64(32)
    digits |= int_zeros.take(row)
    del high, low
    before = digits & below_point.take(row)
    digits ^= before
    # the point only where a digit follows it
    np.multiply(point.take(row), digits != 0, out=slots[:, 1])
    slots[:, 1] |= before
    del before
    slots[:, 2] = digits >> u64(56)
    digits <<= u64(8)
    slots[:, 1] |= digits
    del digits
    slots[:, 2] |= exponent.take(row)
    slots[:, 2] |= separators

    text = slots.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():
        cell = ("%.9g" % values[i]).encode()
        text[i, :22] = 0
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)


def csv_chunks(columns):
    """Yield the rows of equal-length float columns, in row order, as lines
    of comma-separated %.9g values, CSV_CHUNK_ROWS lines per chunk.

    `columns` is a sequence of 1-D arrays, or a 2-D array whose rows are the
    columns.  Each chunk's rows are stacked into one reused buffer of values,
    so the whole table is never built; numpy renders them into one reused
    buffer of fixed-size slots, and one bytes.translate drops the unused
    bytes.  A value that rounds too close to a tie, a subnormal, or |v|
    below about 1e-300 is formatted by Python's '%.9g'.  The bytes are those
    of '%.9g' % v for every value.
    """
    total, cols = len(columns[0]), len(columns)
    rows = min(total, CSV_CHUNK_ROWS)
    values = np.empty((rows, cols))
    buffer = bytearray(rows * cols * 24)
    slots = np.frombuffer(buffer, np.uint64).reshape(-1, 3)
    separators = np.full((rows, cols), ord(",") << 48, np.uint64)
    separators[:, -1] = ord("\n") << 48
    separators = separators.ravel()
    for start in range(0, total, CSV_CHUNK_ROWS):
        end = min(start + CSV_CHUNK_ROWS, total)
        chunk = values[:end - start]
        for j, column in enumerate(columns):
            chunk[:, j] = column[start:end]
        n = chunk.size
        slots[n:] = 0  # the slots past a short last chunk
        _render_g9(chunk.ravel(), slots[:n], separators[:n])
        yield buffer.translate(None, b"\0").decode()


# A cloud file named with one of these suffixes is compressed: numpy
# decompresses a file it reads by name by them, and the line parser and
# save_cloud open it the same way.
_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open, ".lzma": lzma.open}


def _open_by_suffix(path, mode: str):
    return _OPENERS.get(os.path.splitext(path)[1], open)(path, mode)


def save_cloud(cloud: PointCloud, path) -> None:
    """Write a cloud in the text format, compressed if its name says so.

    The rows are rendered by csv_chunks, and each chunk is written as soon
    as it is rendered, so the whole text is never held at once.
    """
    with _open_by_suffix(path, "wt") as f:
        f.writelines(csv_chunks(cloud.points.T))


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
            with _open_by_suffix(path, "rt") as f:
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
