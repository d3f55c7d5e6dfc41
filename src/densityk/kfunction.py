"""Annular point-density function over inter-point distance, and the
automatic derivation of a cluster distance threshold from it.

The density at distance ``d`` (a positive multiple of the discretization
step) is the average, over the n input points, of the number of other
points in the ring ``(d - delta_d, d]`` around each point, divided by the
ring's area:

    k(d) = (2 * pairs_in_ring) / (n * pi * (d^2 - (d - delta_d)^2))

Rings containing no pair are skipped, so every emitted density is
positive. Exact duplicates (pair distance 0) are counted in the first
ring, i.e. the first ring is effectively [0, delta_d]: ``geo._ring_indices``,
which makes every ring index, puts them there.

The cluster distance is read off the discretized curve with a 2-sigma
rule: past the density peak, the first sampled distance whose density
falls to at most mean + 2 * std of all sampled densities.

Every annular curve is counted by one function, ``_count_rings``, through
``_blocked_k_function``, from ring indices that come an array at a time
from a curve source: a stored list's, ``geo._ring_blocks``
(:func:`compute_k_function`), or the pipeline's, ``geo._rings_within``.
The rings go into one array indexed by ring when they are few beside the
distances; otherwise the occupied rings are merged as the blocks come, so
memory follows the occupied rings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPointsError
from .geo import DistanceList, _ring_blocks, _ring_indices
from .params import DELTA_D

DEFAULT_DELTA_D_M = 100.0
MAX_RING_INDEX = 2**53

# the fewest ring indices a sparse ring count merges at once
_MERGE_RINGS = 1 << 20
# the rings one step of the curve's arithmetic computes: its temporaries
# sit beside the whole curve
_CURVE_BLOCK = 1 << 13


@dataclass(frozen=True)
class KFunction:
    """Discretized density curve: ascending (d, k) samples, all k > 0."""

    delta_d: float
    distances_m: np.ndarray  # sampled d values, ascending positive multiples of delta_d
    densities: np.ndarray  # per-point density in each ring, same length
    cluster_distance: float | None = None

    def __len__(self) -> int:
        return len(self.distances_m)

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.distances_m.tolist(), self.densities.tolist()))


def _check_curve_args(n_points: int, delta_d: float) -> None:
    if n_points < 2:
        raise InsufficientPointsError(f"need at least 2 points, got {n_points}")
    DELTA_D.check(delta_d)


def _check_ring_limit(ring: float, delta_d: float) -> None:
    # float64 holds every integer ring index only up to 2**53, int64 to
    # 2**63; ring is the largest ring index, ceil(largest / delta_d), past
    # the limit just where largest / delta_d is
    if ring > MAX_RING_INDEX:
        raise ValueError(
            f"delta_d {delta_d} is too small: the largest distance would fall in a ring "
            f"beyond {MAX_RING_INDEX}"
        )


def _check_ring_area(ring: float, n_points: int, delta_d: float) -> None:
    # a density divides by n times a ring's area; should that overflow, the
    # density reads 0 (a factor 2 of headroom covers the order of rounding).
    # ring is the largest ring index.
    d = ring * delta_d
    if not math.isfinite(2.0 * n_points * math.pi * d * d):
        raise ValueError(f"delta_d {delta_d} is too large: the area of the ring at {d} m overflows")


def _count_rings(blocks, delta_d: float, span: float, total: int) -> tuple[np.ndarray, np.ndarray, int, float]:
    """The rings that ``blocks`` yields, an array of ring indices at a time
    (``max(ceil(d / delta_d), 1)`` of each distance d as a float, see
    ``geo._ring_indices``, or ``geo._NO_RING`` for an entry that is none):
    the occupied rings, ascending, how many distances fall in each, how
    many distances there were and the largest ring index (0.0 for none).
    Every ring index is at least 1, so the dense count's slot 0 stays
    empty and the sparse count drops ``_NO_RING``'s entries, which sort
    first, with one ``searchsorted``.

    When the ``span`` rings from ring 1 on are at most a quarter as many as
    the ``total`` distances to come, each block is added into one array
    indexed by ring (``np.add.at``), whose last slot takes ``_NO_RING``.
    Otherwise the blocks' ring indices are held until they number
    ``_MERGE_RINGS`` and a quarter of the occupied rings so far, then
    merged into the sorted occupied rings and their counts
    (:func:`_merge_rings`), so memory follows the occupied rings, not the
    number of distances. The largest ring index so far is checked against
    the ring limit before a block's ring indices are cast.
    """
    largest = 0.0
    # _NO_RING, -1, indexes the dense count's last slot
    dense = np.zeros(math.ceil(span) + 2, dtype=np.int64) if 4 * span <= total else None
    occupied = [np.empty(0, dtype=np.int64)] * 2  # the sparse count's rings and counts
    pending: list[np.ndarray] = []  # ring indices not merged yet
    for rings in blocks:
        largest = max(largest, float(rings.max()))
        _check_ring_limit(largest, delta_d)
        indices = rings.astype(np.int64)
        if dense is not None:
            np.add.at(dense, indices, 1)
        else:
            pending.append(indices)
            if sum(map(len, pending)) >= max(_MERGE_RINGS, len(occupied[0]) // 4):
                _merge_rings(pending, occupied)
        del rings, indices  # no block outlives the count
    if dense is not None:
        rings = np.flatnonzero(dense[:-1])
        counts = dense[rings]
    else:
        if pending:
            _merge_rings(pending, occupied)
        start = int(np.searchsorted(occupied[0], 1))  # past _NO_RING; an int: a float would copy the rings
        rings, counts = occupied[0][start:], occupied[1][start:]
    return rings, counts, int(counts.sum()), largest


def _merge_rings(pending: list[np.ndarray], occupied: list[np.ndarray]) -> None:
    # Adds the ring indices ``pending`` into ``occupied``, the sorted
    # occupied rings and their counts. It empties ``pending`` first and
    # replaces the arrays of ``occupied`` one at a time, so each goes early.
    merged = pending[0] if len(pending) == 1 else np.concatenate(pending)
    pending.clear()
    merged.sort()
    rings, counts = _runs(merged)
    del merged
    if len(occupied[0]) == 0:
        occupied[:] = rings, counts
        return
    at = np.searchsorted(occupied[0], rings)
    seen = at < len(occupied[0])
    seen[seen] = occupied[0][at[seen]] == rings[seen]
    occupied[1][at[seen]] += counts[seen]
    fresh = ~seen
    occupied[0] = np.insert(occupied[0], at[fresh], rings[fresh])
    occupied[1] = np.insert(occupied[1], at[fresh], counts[fresh])


def _runs(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # np.unique(indices, return_counts=True) of sorted ``indices``, without
    # its copy: each distinct index and how many times it occurs
    first = np.empty(len(indices), dtype=bool)
    first[0] = True
    np.not_equal(indices[1:], indices[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = len(indices) - starts[-1]
    return indices[starts], counts


def compute_k_function(
    distances: DistanceList, n_points: int, delta_d: float = DEFAULT_DELTA_D_M
) -> KFunction:
    """Bin pair distances into rings of width ``delta_d`` and compute the
    per-point ring density at each occupied ring.

    The distances need not be sorted: the ring counts do not depend on
    their order. Their ring indices go to :func:`_blocked_k_function` in
    slices of ``geo.BLOCK_ELEMENTS`` distances, so no copy of them is made.
    ``cluster_distance`` is left unset; see :func:`derive_cluster_distance`.
    """
    return _blocked_k_function(n_points, delta_d, *_ring_blocks(distances.values, delta_d))


def _blocked_k_function(n_points: int, delta_d: float, blocks, largest: float, total: int) -> KFunction:
    """The annular curve of the distances whose ring indices ``blocks``
    yields, an array at a time (see :func:`_count_rings`); no distance
    exceeds ``largest`` and there are at most ``total`` of them
    (``geo._rings_within`` gives the pipeline's three).
    The pipeline and :func:`compute_k_function` count through here.

    The checks come in one order: the point count and ``delta_d``, the ring
    limit on each block before its ring indices are cast, an empty list,
    then the area of the farthest ring. The rings are counted by
    :func:`_count_rings`, spanning ring 1 up to ``largest``'s ring (and one
    more for its rounding): into one array on at least four distances per
    ring spanned, otherwise as the sorted occupied rings, merged as the
    blocks come.
    """
    _check_curve_args(n_points, delta_d)
    occupied, counts, added, farthest = _count_rings(blocks, delta_d, largest / delta_d + 1, total)
    if added == 0:
        raise InsufficientPointsError("distance list is empty")
    _check_ring_area(farthest, n_points, delta_d)
    d = occupied * delta_d
    del occupied
    # 2 * counts / (n_points * pi * (d**2 - (d - delta_d)**2)), rounded at
    # the same steps (so to the same bits), a block of rings at a time
    densities = np.empty_like(d)
    for start in range(0, len(d), _CURVE_BLOCK):
        ring = slice(start, start + _CURVE_BLOCK)
        area, inner = np.square(d[ring], out=densities[ring]), d[ring] - delta_d
        area -= np.square(inner, out=inner)
        del inner
        area *= np.pi
        area *= n_points
        np.divide(2.0 * counts[ring], area, out=area)
    return KFunction(delta_d, d, densities)


def compute_circular_k_function(
    distances: DistanceList, n_points: int, delta_d: float = DEFAULT_DELTA_D_M
) -> KFunction:
    """Variant counting the full disk (0, d] instead of the ring.

    The disk at distance d contains every pair at distance <= d, so past the
    first occupied multiple of ``delta_d`` every multiple is sampled, up to
    the largest pair distance. Used for comparison against the annular
    curve; the annular one is what the pipeline uses.
    """
    _check_curve_args(n_points, delta_d)
    if len(distances.values) == 0:
        raise InsufficientPointsError("distance list is empty")
    values = np.sort(distances.values)
    last_ring = float(_ring_indices(values[-1:], delta_d)[0])
    _check_ring_limit(last_ring, delta_d)
    _check_ring_area(last_ring, n_points, delta_d)
    d = np.arange(1, int(last_ring) + 1, dtype=np.float64) * delta_d
    cumulative = np.searchsorted(values, d, side="right")
    keep = cumulative > 0
    d = d[keep]
    densities = 2.0 * cumulative[keep] / (n_points * np.pi * d**2)
    return KFunction(delta_d=delta_d, distances_m=d, densities=densities)


def derive_cluster_distance(kf: KFunction) -> float:
    """Select the cluster distance from a density curve by the 2-sigma rule.

    Let d0 be the smallest sampled distance attaining the maximum density.
    The result is the smallest sampled d > d0 with density <= mean + 2*std
    of all sampled densities; if no sample past the peak satisfies that,
    d0 itself (everything within the densest ring clusters together).
    """
    ks = kf.densities
    if len(ks) == 0:
        raise InsufficientPointsError("density curve has no samples")
    threshold = float(np.mean(ks) + 2.0 * np.std(ks))
    peak = int(np.argmax(ks))  # first index of the max, i.e. smallest such d
    past_peak = np.nonzero(ks[peak + 1 :] <= threshold)[0]
    if len(past_peak) == 0:
        return float(kf.distances_m[peak])
    return float(kf.distances_m[peak + 1 + past_peak[0]])


def with_cluster_distance(kf: KFunction) -> KFunction:
    """Return a copy of ``kf`` with its derived cluster distance filled in."""
    return KFunction(kf.delta_d, kf.distances_m, kf.densities, derive_cluster_distance(kf))
