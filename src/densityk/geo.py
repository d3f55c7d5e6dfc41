"""Spherical geometry primitives: great-circle distance, pairwise distance
lists and spherical centroids, and the pair layer that serves a point
cloud's distances: the edge source (:func:`_pairs_within`), the curve
source (:func:`_rings_within`), the chord kernel and the band.

All distances are haversine distances on a sphere of radius
``EARTH_RADIUS_M`` (6,371,000 m), in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import DegenerateCentroidError, EmptyInputError
from .params import UPPER_BOUND

if TYPE_CHECKING:
    from .corpus import PointCloud

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, init=False)
class GeoPoint:
    """A WGS84 latitude/longitude location in decimal degrees.

    Latitude must lie in [-90, +90]; longitude is normalized into
    [-180, +180) on construction.
    """

    lat: float
    lon: float

    def __init__(self, lat: float, lon: float) -> None:
        # a valid point passes one chained comparison (False for NaN) and
        # one finiteness test; each field is set once
        if -90.0 <= lat <= 90.0 and math.isfinite(lon):
            _set_field(self, "lat", lat)
            _set_field(self, "lon", ((lon + 180.0) % 360.0) - 180.0)
            return
        if not math.isfinite(lat) or not math.isfinite(lon):
            raise ValueError(f"non-finite coordinate: ({lat}, {lon})")
        raise ValueError(f"latitude out of range [-90, 90]: {lat}")


# sets a field of a frozen dataclass; reading an instance's __dict__ instead
# would give each point a dict object of its own
_set_field = object.__setattr__


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

# Elements of one block, the step of every pass over pairs or distances. It
# bounds a block's temporaries to about 0.5 MB each, whatever the number
# of points; smaller blocks stay in cache and ran faster than blocks of a
# few 10^5 elements (2-vCPU Xeon with AVX-512, numpy 2.4).
BLOCK_ELEMENTS = 1 << 16

# The most points whose pairs make one row block, (n-1)^2 <= BLOCK_ELEMENTS:
# the size of the pair table below. Up to it condensed_distances reads the
# pairs from the table, with no index arrays made per call, and a cloud
# keeps its vector; a row block of more points has fewer rows, so its
# _lower is a prefix of the table. The table path pays in time and memory:
# through the row-block loop's index arrays instead, 55 points took 61 us
# against 46 us, and the small-docs benchmark's peak rose from 155,368 to
# 182,895 bytes (+18%) (same host, one thread).
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
    arrays are built once per cloud. Each pair is evaluated once, on its
    two points' coordinates gathered by pair index, bit-identical to the
    upper triangle of the full n-by-n evaluation of the same formula, which
    is never held. Up to the 257 points whose pairs make one row block, the
    pairs are read from a fixed table; beyond, they are gathered one row
    block of at most about ``BLOCK_ELEMENTS`` entries at a time, so memory
    is the result plus one block's index and coordinate arrays.

    A cloud of up to those 257 points computes its vector once and keeps
    it: every call returns that same read-only array. A larger cloud's
    vector is computed anew on each call and kept by nothing.
    """
    if not hasattr(points, "_radians"):
        return _condensed(*_radian_arrays(points))
    if len(points) <= _ONE_BLOCK_N:
        return points._distances
    return _condensed(*points._radians)


def _condensed(lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray) -> np.ndarray:
    # condensed_distances of the points with these radian arrays
    n = len(lat)
    m = n * (n - 1) // 2
    out = np.empty(m, dtype=np.float64)
    if n <= _ONE_BLOCK_N:
        # the points read backwards (see _LOWER_A) need no index arrays
        _pair_distances((lat[::-1], lon[::-1], cos_lat[::-1]), _LOWER_A[:m], _LOWER_B[:m], out=out[::-1])
        return out
    pos = 0
    for r0, r1 in _row_blocks(n):
        # the block's pairs, its entries with column past row (those
        # outside _lower), as contiguous index arrays for the gathers
        row, col = np.arange(r0, r1)[:, None], np.arange(r0 + 1, n)
        pairs = col > row
        i, j = (np.broadcast_to(x, pairs.shape)[pairs] for x in (row, col))
        _pair_distances((lat, lon, cos_lat), i, j, out=out[pos : pos + len(i)])
        pos += len(i)
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


def _lower(rows: int, cols: int) -> np.ndarray:
    # The flat indices, in a row block of rows x cols entries (see
    # _row_blocks), of the leading square's lower half: row k's first k
    # columns, which pair row k with itself or an earlier row. Every other
    # entry is a pair. A block has fewer rows than _ONE_BLOCK_N (at most
    # BLOCK_ELEMENTS // cols, and at most cols), so these are the first
    # rows(rows-1)/2 pairs (_LOWER_A, _LOWER_B).
    m = rows * (rows - 1) // 2
    return _LOWER_A[:m] * cols + _LOWER_B[:m]


def _pair_distances(radians, i: np.ndarray, j: np.ndarray, out=None) -> np.ndarray:
    # _haversine_arc on the pairs (i[k], j[k]) alone, the one exact distance
    # of a pair: it reads that pair's coordinates only, so it gives the
    # full matrix's entry bit for bit in any order of any pairs. They are
    # gathered into four pair-sized buffers (mode="clip" keeps take from
    # buffering its out: the indices are in range); the distances are
    # returned in ``out``, or else in a buffer
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
# t, which the kernel takes with no trigonometry per pair, in one of two
# forms: the band's gathered pairs sum the squares of their coordinates'
# differences (_band_pairs_within), and the row blocks take the centred
# Gram form, one matrix product a block (_gram_haversines). Its distance
# 2R asin(sqrt(h)) stands in for the haversine distance wherever it lies
# more than _CHORD_MARGIN_M from every value a decision turns on, within
# _CHORD_REACH_M (179 degrees of arc) and, in the Gram form, where h is at
# least its column's floor; see _chord_rings for the bound. Each function
# below reads the cloud's radian arrays and half unit vectors and one
# block, and returns that block's result, so a pass that decides on each
# pair as the haversine distance decides, and stores none, holds one
# block's arrays at a time.
_CHORD_MARGIN_M = 1e-3
_CHORD_REACH_M = EARTH_RADIUS_M * math.radians(179.0)
# F, the Gram form's floor over the square of |a_i|^2 + |b_j|^2: above it
# the form's own rounding moves a distance by under 1e-5 m (see _chord_rings)
_GRAM_FLOOR = (38 * 2.0**-53 * EARTH_RADIUS_M / 1e-5) ** 2
# the ring of an entry of a row block that is no pair within the bound,
# which the ring count counts nowhere (see kfunction._count_rings)
_NO_RING = -1.0


def _band_order(radians) -> tuple[int, np.ndarray, np.ndarray]:
    # the coordinate of widest spread of the half unit vectors (rows x, y, z
    # of the unit vectors halved), the points' stable order along it and
    # the half unit vectors in that order: what the band (see _band) and
    # the chord kernel's row blocks read
    lat, lon, cos_lat = radians
    half_units = 0.5 * np.stack((cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)))
    axis = int(np.ptp(half_units, axis=1).argmax())
    order = np.argsort(half_units[axis], kind="stable")
    return axis, order, half_units[:, order]


def _haversine_of(distance: float) -> float:
    # the h of an arc of ``distance`` meters
    return math.sin(distance / (2.0 * EARTH_RADIUS_M)) ** 2


_REACH_H = _haversine_of(_CHORD_REACH_M)


def _near_h(limit: float) -> float:
    # the h of limit + M, above which a pair's chord puts it past ``limit``;
    # inf where limit + M reaches the reach, past which the chord bounds nothing
    near = limit + _CHORD_MARGIN_M
    return _haversine_of(near) if near < _CHORD_REACH_M else math.inf


def _gram_haversines(units: np.ndarray, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
    # h over row block (r0, r1) of the points whose half unit vectors are
    # ``units`` (rows x, y, z, in band order), as -2 a_i.b_j + |a_i|^2 +
    # |b_j|^2 for a and b the vectors less c, the mean of the block's rows:
    # one matrix product of the rows (-2a, |a|^2, 1) by the columns
    # (b, 1, |b|^2). Also each column's floor, F (max_i |a_i|^2 +
    # |b_j|^2)^2, below which h is not trusted (see _chord_rings).
    rows = units[:, r0:r1]
    centre = rows.mean(axis=1, keepdims=True)
    left, right = np.empty((5, r1 - r0)), np.empty((5, units.shape[1] - r0 - 1))
    a = np.subtract(rows, centre, out=left[:3])
    b = np.subtract(units[:, r0 + 1 :], centre, out=right[:3])
    np.einsum("ij,ij->j", a, a, out=left[3])
    np.einsum("ij,ij->j", b, b, out=right[4])
    a *= -2.0
    left[4] = right[3] = 1.0
    h = np.matmul(left.T, right)
    floor = right[4] + left[3].max()
    np.square(floor, out=floor)
    floor *= _GRAM_FLOOR
    return h, floor


def _ring_indices(values: np.ndarray, spacing: float) -> np.ndarray:
    # The ring of ``spacing`` of each distance x, max(ceil(x / spacing), 1)
    # as a float: x falls in ring m iff (m-1)*spacing < x <= m*spacing, and
    # 0 in ring 1. A ring past the float range is inf, past every ring limit.
    with np.errstate(over="ignore"):
        rings = np.ceil(values / spacing)
    return np.maximum(rings, 1.0, out=rings)


def _ring_blocks(values: np.ndarray, spacing: float):
    # the curve source of the stored distances ``values`` (see _rings_within):
    # their ring indices, BLOCK_ELEMENTS at a time and each made as it is
    # read so that none outlives its count, their largest and their number
    starts = range(0, len(values), BLOCK_ELEMENTS)
    blocks = (_ring_indices(values[start : start + BLOCK_ELEMENTS], spacing) for start in starts)
    return blocks, float(values.max()) if len(values) else 0.0, len(values)


def _cloud_pairs(order: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the pairs (i, j), i < j, of the cloud's indices at the positions p and
    # q of band order ``order``: the points on which the haversine decides
    i, j = order.take(p), order.take(q)
    return np.minimum(i, j), np.maximum(i, j)


def _chord_rings(
    radians, order: np.ndarray, units: np.ndarray, r0: int, r1: int, spacing: float, upper_bound: float | None
) -> np.ndarray:
    """The rings of ``spacing`` of row block (r0, r1) over the points in
    band order (``order``, ``units``; see :func:`_band_order`), row-major:
    each pair's ``ceil(d / spacing)`` as a float, for d its haversine
    distance, and ``_NO_RING`` for an entry that is no pair (see
    :func:`_lower`) or a pair past ``upper_bound``.

    A ring is that of the chord's distance d~ = 2R asin(sqrt(h)), for h
    the Gram form's (:func:`_gram_haversines`), or that of the haversine
    distance of its pair alone, on the cloud's indices (min, max), where h
    lies below its column's floor, d~ within ``_CHORD_MARGIN_M`` (M) of a
    multiple of ``spacing`` or of ``upper_bound``, or past
    ``_CHORD_REACH_M``.

    Why M suffices. Let u = 2**-53, assume numpy's sin, cos and arcsin
    within k ulps (an ulp of x is at most 2u|x|) and sqrt correctly
    rounded, and let t be the true arc between the points of the given
    float radians, 0 <= t <= 179.01 degrees, so that cos(t/2) >= 0.0086
    and tan(t/2) <= 116. The errors below grow with t, so their largest
    value over every such arc is their value at 179.01 degrees:

    - vectors: a coordinate of v = u/2 is off by at most (2k+0.5)u, a
      difference of two by (4k+2)u, so the root of H = |v_i - v_j|^2 of
      the computed vectors is within sqrt(3)(4k+2)u of sin(t/2);
    - the difference form (the band): h is H to 3u relative (three
      squares, two sums), its root to 2u of sin(t/2) <= 1;
    - the Gram form (the row blocks): the centred a and b are within
      rounding of v - c, |a|, |b| <= 1, so |a_i - b_j| is within 2.01u of
      sqrt(H), and its root to 2.51u with sqrt's rounding. With
      S = |a_i|^2 + |b_j|^2, the two norms are off by 3uS, and the
      product's five terms sum to within 5.01u times the sum of their
      magnitudes, 2|a_i||b_j| + S <= 2S (Higham 2002, section 3.1, in
      any order, fused or not): h is within 13.1uS of |a_i - b_j|^2, and
      its root within 13.1uS / sqrt(h). At or above its column's floor
      F S'^2 (S' with the block's largest |a|^2, at least S) that is at
      most 13.1u / sqrt(F); where h <= 1/2 arcsin's slope is under 1.415
      and the arc moves by 2R 1.415 (13.1u / sqrt(F)) < 9.8e-6 m, and
      above, the root moves by at most 13.1u 2 / sqrt(1/2) < 37.1u,
      which the slope 1/cos(t/2) makes 6.1e-6 m;
    - chord: arcsin adds its k ulps of t/2 <= pi/2 and the product with
      2R its rounding, so
      |d~ - Rt| <= 2R[(sqrt(3)(4k+2) + r)u / cos(t/2) + k pi u] + pi R u,
      with r = 2 for the difference form, at most 5.5e-6 m at k = 4, and
      r = 2.51 plus the 9.8e-6 m above for the Gram form, at most
      1.6e-5 m;
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

    So |d~ - d| < 2e-5 m at every arc up to 179.01 degrees, in either
    form, and d~ / spacing, rounded (here as asin(sqrt(h)) times
    2R / spacing), and d / spacing, rounded, differ by less than
    (2e-5 + 1e-8) / spacing: a chord distance further than M from every
    ring edge and from the bound decides as d does. The distance from a
    ring value x to its ceiling is exact, except below x = 1/2, where the
    nearer edge is 0 and a distance of 0 counts in ring 1 all the same; an
    x within M of 0 always takes the haversine, so every trusted ring is
    at least 1, as :func:`_ring_indices` makes every ring.
    M is 1 mm, 50 times the bound at k = 4, and covers k up to 500. Past
    179 degrees both errors grow without bound (the haversine's to over
    1 m at the antipode), and such pairs take the haversine.
    """
    h, floor = _gram_haversines(units, r0, r1)
    unsure = h < floor
    unsure |= h > _REACH_H
    np.clip(h, 0.0, 1.0, out=h)  # rounding can carry h past either end
    np.sqrt(h, out=h)
    np.arcsin(h, out=h)
    # x, each chord distance's ring value; past 2**60 (spacing under
    # 1e-11 m) every x lies within the margin of a ring edge, and the cap
    # keeps it finite
    h *= min(2.0 * EARTH_RADIUS_M / spacing, 2.0**60)
    ring = np.ceil(h)
    margin = _CHORD_MARGIN_M / spacing
    beyond = None
    if upper_bound is not None:
        bound = upper_bound / spacing
        beyond = h > bound + margin
        near = h >= bound - margin
        near ^= beyond  # near and not beyond: beyond lies within near
        unsure |= near
        del near
    np.subtract(ring, h, out=h)  # from x to its ceiling
    h -= 0.5
    unsure |= np.abs(h, out=h) >= 0.5 - margin
    del h
    if beyond is not None:
        np.putmask(ring, beyond, _NO_RING)
    lower = _lower(*ring.shape)
    unsure.reshape(-1)[lower] = False
    ring.reshape(-1)[lower] = _NO_RING
    flat = np.flatnonzero(unsure)
    if len(flat):
        p, q = np.divmod(flat, ring.shape[1])
        p += r0
        q += r0 + 1
        d = _pair_distances(radians, *_cloud_pairs(order, p, q))
        exact = _ring_indices(d, spacing)
        if upper_bound is not None:
            exact[d > upper_bound] = _NO_RING
        ring.reshape(-1)[flat] = exact
    return ring.reshape(-1)


def _decided_within(radians, h: np.ndarray, i: np.ndarray, j: np.ndarray, limit: float):
    # the pairs (i[k], j[k]), i < j, of chord h[k] that lie within ``limit``:
    # surely those below the h of limit - M and of the reach (the rounding
    # of that h stays within the chord's bound, see _chord_rings), and of
    # the rest those whose haversine distance is within
    within = h < _haversine_of(min(max(limit - _CHORD_MARGIN_M, 0.0), _CHORD_REACH_M))
    unsure = ~within
    if unsure.any():
        within[unsure] = _pair_distances(radians, i[unsure], j[unsure]) <= limit
    return i[within], j[within]


def _pairs_within(cloud: PointCloud, limit: float):
    """The edge source: a function whose every call yields each pair (i, j),
    i < j, of the cloud's points within ``limit`` (haversine) once, as index
    arrays a block at a time: the pairs of the vector a one-block cloud
    keeps (see :func:`condensed_distances`), found once; past one block
    those of the band of ``limit`` (:func:`_band`), decided through the
    chord kernel and found anew on each call. Both yield the same pairs.

    A one-block cloud's pairs are read off the layout in which
    :func:`_condensed` writes its vector: of m = n(n-1)/2, the pair at
    position p is (n-1-``_LOWER_A``[m-1-p], n-1-``_LOWER_B``[m-1-p]), two
    gathers from the module's table, in the order of the positions.
    """
    n = len(cloud)
    if n <= _ONE_BLOCK_N:
        # m-1-p for each position p of a pair within the limit
        back = (n * (n - 1) // 2 - 1) - (condensed_distances(cloud) <= limit).nonzero()[0]
        pairs = (((n - 1) - _LOWER_A.take(back), (n - 1) - _LOWER_B.take(back)),)
        return lambda: pairs
    band = _band(cloud, limit)
    return lambda: _band_pairs_within(cloud._radians, limit, *band)


def _band(cloud: PointCloud, limit: float):
    """The band of ``limit`` over the cloud's sort axis (see
    ``PointCloud._band_order``), as ``(order, half_units, bounds)``: the
    sort order, the half unit vectors in that order, and where each sorted
    point's window starts among the candidate pairs (``bounds[p]``; the
    last entry is their number).

    The window of the point at sorted position p holds the later points
    whose coordinate on the axis is at most ``key[p] + reach``, for
    ``reach`` the root of the h of ``limit + M`` widened by a slack (every
    later point where ``limit + M`` lies at or past the reach). No pair
    outside every window is within ``limit``. Let u = 2**-53, h the h of
    ``limit + M`` and r its computed root, at least (1 - u) sqrt(h): the
    computed reach is at least r (1 + 2**-40)(1 - u)**2 + 2**-50 (1 - u).
    A point q past p's window has key[q] > fl(key[p] + reach), and that
    sum, at most 1.5, rounds by at most u, so key[q] - key[p] > reach - u >
    r (1 + 2**-40)(1 - u)**2. The rounded difference of the two keys is at
    least (1 - u) times that, its rounded square (1 - u) times the square,
    and adding the other non-negative squares in floating point never
    lowers the sum: the pair's h in the difference form is at least
    h (1 + 2**-40)**2 (1 - u)**9, above h, so its chord distance lies past
    ``limit + M`` and, by the bound of :func:`_chord_rings`, its haversine
    distance past ``limit``. A limit that reaches most pairs gathers most
    of them, the band's slow side (``tools/kernel_shapes.py`` times it).
    """
    n = len(cloud)
    axis, order, half_units = cloud._band_order
    key = half_units[axis]
    reach = math.sqrt(_near_h(limit)) * (1.0 + 2.0**-40) + 2.0**-50
    ends = np.searchsorted(key, key + reach, side="right")
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(ends - np.arange(1, n + 1), out=bounds[1:])  # a window: the later points up to its end
    return order, half_units, bounds


def _band_pairs_within(radians, limit: float, order: np.ndarray, half_units: np.ndarray, bounds: np.ndarray):
    # The band's pairs within ``limit``, gathered BLOCK_ELEMENTS candidates
    # at a time. Candidate k of window p is the pair of sorted positions
    # (p, p + 1 + k - bounds[p]); its h is the difference form's (see
    # _chord_rings for its bound). Those at most the h of limit + M go back
    # to the cloud's indices (min, max) before _decided_within.
    x, y, z = half_units
    h_near = _near_h(limit)
    total = int(bounds[-1])
    for k0 in range(0, total, BLOCK_ELEMENTS):
        k1 = min(k0 + BLOCK_ELEMENTS, total)
        p0 = int(np.searchsorted(bounds, k0, side="right")) - 1  # windows p0..p1-1 hold k0..k1-1
        p1 = int(np.searchsorted(bounds, k1))
        width = np.diff(np.clip(bounds[p0 : p1 + 1], k0, k1))
        p = np.repeat(np.arange(p0, p1), width)
        q = np.repeat(np.arange(p0 + 1, p1 + 1) - bounds[p0:p1], width)
        q += np.arange(k0, k1)
        h = x.take(p)
        h -= x.take(q)
        np.square(h, out=h)
        d = y.take(p)
        d -= y.take(q)
        h += np.square(d, out=d)
        d = z.take(p, out=d, mode="clip")
        d -= z.take(q)
        h += np.square(d, out=d)
        near = np.flatnonzero(h <= h_near)
        yield _decided_within(radians, h.take(near), *_cloud_pairs(order, p.take(near), q.take(near)), limit)


def _rings_within(cloud: PointCloud, spacing: float, upper_bound: float | None):
    """The curve source: ``(blocks, largest, total)``, where ``blocks``
    yields the rings of ``spacing`` of the cloud's pair distances within
    ``upper_bound`` an array at a time, ``ceil(d / spacing)`` of each
    distance d as a float and ``_NO_RING`` for an entry that is none. No
    distance lies past ``largest``, and there are at most ``total`` of
    them. A one-block cloud's rings are those of the vector it keeps,
    filtered once, made as they are read (:func:`_ring_blocks`); a larger
    cloud's come from its row blocks in band order through the chord
    kernel, each pair's exact ring (see :func:`_chord_rings`), found as
    they are read, never stored.
    """
    n = len(cloud)
    if n > _ONE_BLOCK_N:
        _, order, units = cloud._band_order
        blocks = (
            _chord_rings(cloud._radians, order, units, r0, r1, spacing, upper_bound) for r0, r1 in _row_blocks(n)
        )
        largest = _diameter_bound(cloud._radians)
        if upper_bound is not None:
            largest = min(largest, upper_bound)
        return blocks, largest, n * (n - 1) // 2
    distances = condensed_distances(cloud)
    return _ring_blocks(distances if upper_bound is None else distances[distances <= upper_bound], spacing)


def _member_distances(cloud: PointCloud, members: np.ndarray) -> np.ndarray:
    """``condensed_distances`` of the cloud's points at the ascending
    indices ``members``, the same values in the same order: gathered from
    the vector a one-block cloud keeps, or, for a larger cloud, evaluated
    anew on the members' radian arrays by ``condensed_distances``' own
    pair evaluator, whose value for a pair reads that pair's points alone.

    A one-block cloud gathers its members' pairs in ``np.triu_indices``
    order, so that ``np.mean`` of the result keeps its bits."""
    n = len(cloud)
    if n > _ONE_BLOCK_N:
        return _condensed(*(a[members] for a in cloud._radians))
    i, j = np.triu_indices(len(members), 1)
    return condensed_distances(cloud).take(condensed_index(members.take(i), members.take(j), n))


def _diameter_bound(radians) -> float:
    # A bound, at most _MAX_DISTANCE_M, on the distances whose rings
    # _chord_rings gives the pairs of these points. No two points are
    # further apart than twice the farthest from point 0, whose distances
    # come from its coordinate differences to every other point. Below 179
    # degrees the kernel's distances lie within 2e-5 m of the true arcs
    # (see _chord_rings), which the margin covers; beyond, the bound is the
    # whole sphere's.
    lat, lon, cos_lat = radians
    farthest = float(_haversine_arc(lat[0] - lat[1:], lon[0] - lon[1:], cos_lat[0] * cos_lat[1:]).max())
    bound = 2.0 * farthest + _CHORD_MARGIN_M
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
    if upper_bound is not None:
        UPPER_BOUND.check(upper_bound)
    if len(points) == 0:
        raise EmptyInputError("pairwise_distances needs at least one point")
    values = condensed_distances(points)
    if upper_bound is not None:
        values = values[values <= upper_bound]
    elif not values.flags.writeable:  # the vector a one-block cloud keeps
        values = values.copy()
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
