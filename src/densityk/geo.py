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


def _to_radian_array(points: Sequence[GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    lat = np.radians(np.array([p.lat for p in points], dtype=np.float64))
    lon = np.radians(np.array([p.lon for p in points], dtype=np.float64))
    return lat, lon


def _radian_arrays(points: Sequence[GeoPoint]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # what condensed_distances reads: latitudes, longitudes, cos latitudes
    lat, lon = _to_radian_array(points)
    return lat, lon, np.cos(lat)


def _haversine_arc(dphi, dlam, cos_a, cos_b) -> np.ndarray:
    # the one vectorised haversine formula; callers pass broadcastable operands
    h = np.sin(dphi / 2.0) ** 2 + cos_a * cos_b * np.sin(dlam / 2.0) ** 2
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))


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
    if len(radians[0]) <= _ONE_BLOCK_N:
        return _condensed_gathered(*radians)
    return _condensed_row_blocks(*radians)


def _condensed_gathered(lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray) -> np.ndarray:
    # _haversine_arc's operations in its order, on the pairs alone, through
    # four pair-sized buffers; the points are read backwards (see _LOWER_A)
    n = len(lat)
    m = n * (n - 1) // 2
    a, b = _LOWER_A[:m], _LOWER_B[:m]
    lat, lon, cos_lat = lat[::-1], lon[::-1], cos_lat[::-1]
    dphi, scratch = lat.take(a), lat.take(b)
    np.subtract(dphi, scratch, out=dphi)
    dlam, cos_b = lon.take(a), lon.take(b)
    np.subtract(dlam, cos_b, out=dlam)
    for d in (dphi, dlam):
        np.divide(d, 2.0, out=d)
        np.sin(d, out=d)
        np.square(d, out=d)
    cos_a = cos_lat.take(a, out=scratch)
    cos_lat.take(b, out=cos_b)
    np.multiply(cos_a, cos_b, out=cos_a)
    np.multiply(cos_a, dlam, out=cos_a)
    h = np.add(dphi, cos_a, out=dphi)
    np.clip(h, 0.0, 1.0, out=h)
    np.sqrt(h, out=h)
    np.arcsin(h, out=h)
    out = np.empty(m, dtype=np.float64)
    np.multiply(2.0 * EARTH_RADIUS_M, h, out=out[::-1])
    return out


def _condensed_row_blocks(lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray) -> np.ndarray:
    n = len(lat)
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    pos = 0
    r0 = 0
    while r0 < n - 1:
        width = n - 1 - r0  # columns r0+1 .. n-1; row r0+k keeps columns past r0+k
        r1 = min(n - 1, r0 + max(1, BLOCK_ELEMENTS // width))
        rows, cols = slice(r0, r1), slice(r0 + 1, n)
        block = _haversine_arc(
            lat[rows, None] - lat[None, cols],
            lon[rows, None] - lon[None, cols],
            cos_lat[rows, None],
            cos_lat[None, cols],
        )
        upper = block[np.arange(width) >= np.arange(r1 - r0)[:, None]]
        out[pos : pos + len(upper)] = upper
        pos += len(upper)
        r0 = r1
    return out


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
    lat, lon = _to_radian_array(points)
    x = np.mean(np.cos(lat) * np.cos(lon))
    y = np.mean(np.cos(lat) * np.sin(lon))
    z = np.mean(np.sin(lat))
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-9:
        raise DegenerateCentroidError("vector mean magnitude below 1e-9")
    return GeoPoint(
        lat=math.degrees(math.asin(z / norm)),
        lon=math.degrees(math.atan2(y, x)),
    )
