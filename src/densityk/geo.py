"""Spherical geometry primitives: great-circle distance, pairwise distance
lists, and spherical centroids.

All distances are haversine distances on a sphere of radius
``EARTH_RADIUS_M`` (6,371,000 m), in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import DegenerateCentroidError, EmptyInputError

if TYPE_CHECKING:
    from .corpus import PointCloud

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 latitude/longitude location in decimal degrees.

    Latitude must lie in [-90, +90]; longitude is normalized into
    [-180, +180) on construction.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lat) or not math.isfinite(self.lon):
            raise ValueError(f"non-finite coordinate: ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range [-90, 90]: {self.lat}")
        lon = ((self.lon + 180.0) % 360.0) - 180.0
        object.__setattr__(self, "lon", lon)


@dataclass(frozen=True)
class DistanceList:
    """Ascending unordered-pair distances of a point set, in meters.

    With no upper bound the list holds all n(n-1)/2 pair distances; with a
    bound only pairs at distance <= bound are kept.
    """

    values: np.ndarray
    n_points: int
    upper_bound: float | None = None

    @property
    def count(self) -> int:
        return len(self.values)


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    if h <= 0.5:
        return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))
    # Past a quarter circle, asin(sqrt(h)) near 1 loses the digits of 1 - h
    # (2e-5 m of error 400 m from the antipode). 1 - h is the haversine to
    # b's antipode: compute it directly and take the supplement of its arc.
    h_antipode = (
        math.sin((phi1 + phi2) / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.cos(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.acos(min(1.0, math.sqrt(h_antipode)))


def _radian_arrays(points: Sequence[GeoPoint]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # what condensed_distances reads: latitudes, longitudes, cos latitudes
    lat = np.radians(np.array([p.lat for p in points], dtype=np.float64))
    lon = np.radians(np.array([p.lon for p in points], dtype=np.float64))
    return lat, lon, np.cos(lat)


def _haversine_arc(dphi, dlam, cos_ab, out=None) -> np.ndarray:
    # The one vectorised haversine formula, 2R asin(sqrt(sin^2(dphi/2) +
    # cos_ab sin^2(dlam/2))) for the latitude and longitude differences and
    # the product of the two cosine latitudes. It works in place on these
    # three arrays, which the caller owns and which it overwrites, and
    # returns the distances in ``out``, or else in dphi.
    for d in (dphi, dlam):
        np.divide(d, 2.0, out=d)
        np.sin(d, out=d)
        np.square(d, out=d)
    np.multiply(cos_ab, dlam, out=cos_ab)
    h = np.add(dphi, cos_ab, out=dphi)
    np.clip(h, 0.0, 1.0, out=h)
    np.sqrt(h, out=h)
    np.arcsin(h, out=h)
    return np.multiply(2.0 * EARTH_RADIUS_M, h, out=h if out is None else out)


# the largest distance _haversine_arc returns, for h clipped to 1
_MAX_DISTANCE_M = 2.0 * EARTH_RADIUS_M * math.asin(1.0)

# Elements of one row block of condensed_distances. It bounds the block's
# temporaries to about 0.5 MB each, whatever the number of points; smaller
# blocks stay in cache and ran faster than blocks of a few 10^5 elements
# (2-vCPU Xeon with AVX-512, numpy 2.4).
BLOCK_ELEMENTS = 1 << 16

# The most points whose pairs condensed_distances computes in one block.
# One row block evaluates both triangles and keeps one; gathering the pairs
# halves that work, but on a larger cloud the gathers cost more than they
# save: the whole vector of 1,705 points gathered took 91 ms, its row blocks
# 70 ms (same host).
_ONE_BLOCK_N = math.isqrt(BLOCK_ELEMENTS) + 1

# The pairs (a, b), a > b, of the lower triangle in row-major order: (1, 0),
# (2, 0), (2, 1), (3, 0), ... The first m(m-1)/2 of them are the pairs of m
# points for every m, and with points numbered backwards (i = m-1-a,
# j = m-1-b) they are the condensed pairs (i, j), i < j, of m points in
# reverse order.
_LOWER_A, _LOWER_B = np.tril_indices(_ONE_BLOCK_N, -1)


def condensed_distances(points: Sequence[GeoPoint] | PointCloud) -> np.ndarray:
    """The n(n-1)/2 unordered-pair distances in ``np.triu_indices(n, 1)``
    order (row-major upper triangle), in meters.

    ``points`` is a sequence of GeoPoints or a ``PointCloud``, whose radian
    arrays are built once per cloud. The values are bit-identical to the
    upper triangle of the full n-by-n evaluation of the same formula, which
    is never held. Up to the 257 points whose pairs fit one row block, each
    pair is evaluated once, on coordinates gathered by pair index; beyond,
    row blocks of at most about ``BLOCK_ELEMENTS`` entries are evaluated in
    turn, so memory is the result plus one block.
    """
    radians = getattr(points, "_radians", None)  # a PointCloud keeps its arrays
    if radians is None:
        radians = _radian_arrays(points)
    return _condensed(*radians)


def _condensed(lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray) -> np.ndarray:
    # condensed_distances of the points with these radian arrays
    n = len(lat)
    if n > _ONE_BLOCK_N:
        return _condensed_row_blocks(lat, lon, cos_lat)
    # the pairs alone, gathered; the points are read backwards (see _LOWER_A)
    m = n * (n - 1) // 2
    out = np.empty(m, dtype=np.float64)
    _pair_distances((lat[::-1], lon[::-1], cos_lat[::-1]), _LOWER_A[:m], _LOWER_B[:m], out=out[::-1])
    return out


def _row_blocks(n: int):
    """The row blocks (r0, r1) of n points, in order: block (r0, r1) pairs
    rows r0..r1-1 with columns r0+1..n-1, at most about ``BLOCK_ELEMENTS``
    entries (or one row), and the blocks' entries with column past row are
    every pair i < j once."""
    r0 = 0
    while r0 < n - 1:
        width = n - 1 - r0
        r1 = min(n - 1, r0 + max(1, BLOCK_ELEMENTS // width))
        yield r0, r1
        r0 = r1


def _upper(r0: int, r1: int, n: int) -> np.ndarray:
    # which entries of row block (r0, r1) are pairs: row r0+k keeps the columns past r0+k
    return np.arange(n - 1 - r0) >= np.arange(r1 - r0)[:, None]


def _haversine_block(radians, r0: int, r1: int) -> np.ndarray:
    # the haversine distances of row block (r0, r1)
    lat, lon, cos_lat = radians
    rows, cols = slice(r0, r1), slice(r0 + 1, None)
    return _haversine_arc(
        lat[rows, None] - lat[None, cols],
        lon[rows, None] - lon[None, cols],
        cos_lat[rows, None] * cos_lat[None, cols],
    )


def _condensed_row_blocks(lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray) -> np.ndarray:
    n = len(lat)
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    pos = 0
    for r0, r1 in _row_blocks(n):
        upper = _haversine_block((lat, lon, cos_lat), r0, r1)[_upper(r0, r1, n)]
        out[pos : pos + len(upper)] = upper
        pos += len(upper)
    return out


def _pair_distances(radians, i: np.ndarray, j: np.ndarray, out=None) -> np.ndarray:
    # _haversine_arc on the pairs (i[k], j[k]) alone, bit for bit the row
    # blocks' values, on coordinates gathered into four pair-sized buffers
    # (mode="clip" keeps take from buffering its out: the indices are in
    # range); the distances are returned in ``out``, or else in a buffer
    lat, lon, cos_lat = radians
    dphi, spare = lat.take(i), lat.take(j)
    np.subtract(dphi, spare, out=dphi)
    dlam, cos_b = lon.take(i), lon.take(j)
    np.subtract(dlam, cos_b, out=dlam)
    cos_ab = cos_lat.take(i, out=spare, mode="clip")
    np.multiply(cos_ab, cos_lat.take(j, out=cos_b, mode="clip"), out=cos_ab)
    return _haversine_arc(dphi, dlam, cos_ab, out=out)


# The chord kernel. Half the chord between two points' unit vectors u,
# squared, is the haversine h = |u_i/2 - u_j/2|^2 = sin^2(t/2) of their arc
# t, which a block takes from the differences of the vectors' coordinates
# where the haversine formula takes two sines a pair. Its distance
# 2R asin(sqrt(h)) stands in for the haversine distance wherever it lies
# more than _CHORD_MARGIN_M from every value a decision turns on and within
# _CHORD_REACH_M (179 degrees of arc); see _chord_distances for the bound.
# Each function below reads the cloud's radian arrays and half unit vectors
# and one row block (see _row_blocks), and returns that block's result, so
# a pass that decides on each pair as the haversine distance decides, and
# stores none, holds one block's arrays at a time.
_CHORD_MARGIN_M = 1e-3
_CHORD_REACH_M = EARTH_RADIUS_M * math.radians(179.0)


def _half_unit_vectors(lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray) -> np.ndarray:
    # rows x, y, z of the unit vectors halved: what the chord kernel reads
    return 0.5 * np.stack((cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)))


def _haversine_of(distance: float) -> float:
    # the h of an arc of ``distance`` meters
    return math.sin(distance / (2.0 * EARTH_RADIUS_M)) ** 2


def _chord_haversines(half_units: np.ndarray, r0: int, r1: int) -> np.ndarray:
    # h over row block (r0, r1) as |v_i - v_j|^2, v = u/2, from the
    # differences of the coordinates: to a few ulps of h at every arc, short
    # ones too
    rows, cols = slice(r0, r1), slice(r0 + 1, None)
    x, y, z = half_units
    h = np.subtract(x[rows, None], x[None, cols])
    np.square(h, out=h)
    d = np.subtract(y[rows, None], y[None, cols])
    h += np.square(d, out=d)
    np.subtract(z[rows, None], z[None, cols], out=d)
    h += np.square(d, out=d)
    return h


def _chord_distances(
    radians, half_units: np.ndarray, r0: int, r1: int, spacing: float, upper_bound: float | None
) -> np.ndarray:
    """The distances of row block (r0, r1)'s pairs i < j that lie within
    ``upper_bound``, in row-major order. Each falls in the same ring
    ``ceil(d / spacing)`` as the haversine distance of its pair, and only
    pairs whose haversine distance is within the bound are kept.

    A distance is the chord kernel's, or the haversine distance of its
    pair alone where the chord's lies within ``_CHORD_MARGIN_M`` (M) of
    a multiple of ``spacing`` or of ``upper_bound``, or beyond
    ``_CHORD_REACH_M``.

    Why M suffices. Let u = 2**-53, assume numpy's sin, cos and arcsin
    within k ulps (an ulp of x is at most 2u|x|) and sqrt correctly
    rounded, and let t be the true arc between the points of the given
    float radians, 0 <= t <= 179.01 degrees, so that cos(t/2) >= 0.0086
    and tan(t/2) <= 116. Both errors below grow with t, so their largest
    value over every such arc is their value at 179.01 degrees:

    - chord: a coordinate of u/2 is off by at most (2k+0.5)u, a
      difference of two by (4k+2)u, so the root of H = |u_i/2 - u_j/2|^2
      of the computed vectors is within sqrt(3)(4k+2)u of sin(t/2). The
      block's h is H to 3u relative (three squares, two sums), its root
      to 2u of sin(t/2) <= 1, and arcsin's slope 1/cos(t/2) and its own
      k ulps of t/2 <= pi/2 make that
      |d~ - Rt| <= 2R[(sqrt(3)(4k+2) + 2)u / cos(t/2) + k pi u] + pi R u,
      at most 5.5e-6 m at k = 4;
    - haversine: h = a^2 + c_i c_j b^2 with a = sin(dphi/2), b =
      sin(dlam/2). Rounding the difference dphi moves a by at most
      u |dphi| / 2 <= pi u / 2 (sin has slope at most 1), and dlam moves
      b by at most pi u; as |a| and sqrt(c_i c_j) |b| are at most
      sin(t/2), h moves by at most 2 sin(t/2)(pi u / 2 + pi u), and the
      arc, whose slope in h is 2R / sin(t), by 3 pi R u / cos(t/2). The
      rest of h is rounding and k-ulp functions, (8k+4)u relative, its
      root (4k+2.5)u relative, which arcsin turns into tan(t/2) times as
      much of t/2:
      |d - Rt| <= 2R[tan(t/2)(4k+2.5)u + k pi u] + 3 pi R u / cos(t/2) + pi R u,
      at most 3.9e-6 m at k = 4.

    So |d~ - d| < 1e-5 m at every arc up to 179.01 degrees, and d~ /
    spacing and d / spacing, each rounded, differ by less than (1e-5 +
    4.5e-9) / spacing: a chord distance further than M from every ring
    edge and from the bound decides as d does. M is 1 mm, over 100 times
    the bound at k = 4, and covers k up to 500. Past 179 degrees both
    errors grow without bound (the haversine's to over 1 m at the
    antipode), and such pairs take the haversine.
    """
    d = _chord_haversines(half_units, r0, r1)
    np.minimum(d, 1.0, out=d)  # rounding can carry an antipodal pair past 1
    np.sqrt(d, out=d)
    np.arcsin(d, out=d)
    d *= 2.0 * EARTH_RADIUS_M
    rings = d / spacing
    off = np.rint(rings)
    off -= rings  # exact: from a value to its nearest integer
    unsure = np.abs(off, out=off) <= _CHORD_MARGIN_M / spacing
    unsure |= d > _CHORD_REACH_M
    if upper_bound is not None:
        np.subtract(d, upper_bound, out=off)
        unsure |= np.abs(off, out=off) <= _CHORD_MARGIN_M
    flat = np.flatnonzero(unsure)
    k, c = np.divmod(flat, d.shape[1])
    d.reshape(-1)[flat] = _pair_distances(radians, k + r0, c + (r0 + 1))
    keep = _upper(r0, r1, len(half_units[0]))
    if upper_bound is not None:
        keep &= d <= upper_bound
    return d[keep]


def _chord_pairs_within(
    radians, half_units: np.ndarray, r0: int, r1: int, limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """The entries (i, j) of row block (r0, r1) whose haversine distance
    is at most ``limit``, as two index arrays: each pair i < j of the
    block once, and from the block's leading square some pairs again
    reversed and points with themselves, which join nothing new.

    A pair is surely within when its h is below that of
    ``min(limit - M, _CHORD_REACH_M)`` (see :func:`_chord_distances`), and
    surely not when it is above that of ``limit + M`` and ``limit + M``
    lies within the reach: past the reach the chord loses the bound, but
    the pair lies past 179 degrees all the same. Every other pair takes
    the haversine. Comparing h with the h of ``limit -/+ M`` in place of
    the distances moves the comparison by the rounding of that h, within
    the chord's bound again.
    """
    h = _chord_haversines(half_units, r0, r1).reshape(-1)
    if limit + _CHORD_MARGIN_M < _CHORD_REACH_M:
        flat = np.flatnonzero(h <= _haversine_of(limit + _CHORD_MARGIN_M))
    else:
        flat = np.arange(len(h))
    i, j = np.divmod(flat, len(half_units[0]) - 1 - r0)
    i += r0
    j += r0 + 1
    within = h[flat] < _haversine_of(min(max(limit - _CHORD_MARGIN_M, 0.0), _CHORD_REACH_M))
    unsure = ~within
    within[unsure] = _pair_distances(radians, i[unsure], j[unsure]) <= limit
    return i[within], j[within]


def _diameter_bound(radians) -> float:
    # A bound, at most _MAX_DISTANCE_M, on the distances _chord_distances
    # gives the pairs of these points. No two points are further apart than
    # twice the farthest from point 0, whose distances are row block (0, 1).
    # Below 179 degrees the kernel's distances lie within 1e-5 m of the true
    # arcs (see _chord_distances), which the margin covers; beyond, the
    # bound is the whole sphere's.
    bound = 2.0 * float(_haversine_block(radians, 0, 1).max()) + _CHORD_MARGIN_M
    return bound if bound < _CHORD_REACH_M else _MAX_DISTANCE_M


def condensed_index(i, j, n: int):
    """Position of the pair (i, j), i < j, in the condensed vector of n
    points (scalars or integer arrays)."""
    return i * (n - 1) - i * (i - 1) // 2 + j - i - 1


def condensed_pairs(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) at positions ``k`` of the condensed vector of n
    points: the inverse of :func:`condensed_index`."""
    rows = np.arange(n - 1, dtype=np.int64)
    starts = condensed_index(rows, rows + 1, n)
    i = np.searchsorted(starts, k, side="right") - 1  # the last row starting at or before k
    return i, k - starts[i] + i + 1


def pairwise_distances(
    points: Sequence[GeoPoint], upper_bound: float | None = None
) -> DistanceList:
    """All unordered-pair distances, sorted ascending.

    When ``upper_bound`` is given, only pairs at distance <= upper_bound are
    kept; otherwise the result has exactly n(n-1)/2 entries.
    """
    if not (upper_bound is None or upper_bound >= 0):
        raise ValueError(f"upper_bound must be >= 0, got {upper_bound}")
    if len(points) == 0:
        raise EmptyInputError("pairwise_distances needs at least one point")
    values = condensed_distances(points)
    if upper_bound is not None:
        values = values[values <= upper_bound]
    values.sort()
    return DistanceList(values=values, n_points=len(points), upper_bound=upper_bound)


def spherical_centroid(points: Sequence[GeoPoint] | Iterable[GeoPoint]) -> GeoPoint:
    """Centroid as the 3-D unit-vector mean projected back to the sphere.

    Avoids the antimeridian artifacts of naive lat/lon averaging. Raises
    DegenerateCentroidError when the vector mean cancels out (antipodal
    configurations).
    """
    points = list(points)
    if len(points) == 0:
        raise EmptyInputError("spherical_centroid needs at least one point")
    if len(points) == 1:
        return points[0]
    lat, lon, cos_lat = _radian_arrays(points)
    x = np.mean(cos_lat * np.cos(lon))
    y = np.mean(cos_lat * np.sin(lon))
    z = np.mean(np.sin(lat))
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-9:
        raise DegenerateCentroidError("vector mean magnitude below 1e-9")
    return GeoPoint(
        lat=math.degrees(math.asin(z / norm)),
        lon=math.degrees(math.atan2(y, x)),
    )
