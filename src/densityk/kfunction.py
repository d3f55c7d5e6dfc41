"""Annular point-density function over inter-point distance, and the
automatic derivation of a cluster distance threshold from it.

The density at distance ``d`` (a positive multiple of the discretization
step) is the average, over the n input points, of the number of other
points in the ring ``(d - delta_d, d]`` around each point, divided by the
ring's area:

    k(d) = (2 * pairs_in_ring) / (n * pi * (d^2 - (d - delta_d)^2))

Rings containing no pair are skipped, so every emitted density is
positive. Exact duplicates (pair distance 0) are counted in the first
ring, i.e. the first ring is effectively [0, delta_d].

The cluster distance is read off the discretized curve with a 2-sigma
rule: past the density peak, the first sampled distance whose density
falls to at most mean + 2 * std of all sampled densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientPointsError
from .geo import DistanceList

DEFAULT_DELTA_D_M = 100.0
MAX_RING_INDEX = 2**53

# the distances one step of the ring count reads
_COUNT_BLOCK = 1 << 16
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
    if not (math.isfinite(delta_d) and delta_d > 0):
        raise ValueError(f"delta_d must be a positive finite number, got {delta_d}")


def _check_ring_limit(largest: float, delta_d: float) -> None:
    # float64 holds every integer ring index only up to 2**53, int64 to 2**63
    if largest / delta_d > MAX_RING_INDEX:
        raise ValueError(
            f"delta_d {delta_d} is too small: the largest distance would fall in a ring "
            f"beyond {MAX_RING_INDEX}"
        )


def _check_ring_area(largest: float, n_points: int, delta_d: float) -> None:
    # a density divides by n times a ring's area; should that overflow, the
    # density reads 0 (a factor 2 of headroom covers the order of rounding)
    d = max(math.ceil(largest / delta_d), 1) * delta_d
    if not math.isfinite(2.0 * n_points * math.pi * d * d):
        raise ValueError(f"delta_d {delta_d} is too large: the area of the ring at {d} m overflows")


def _ring_indices(values: np.ndarray, delta_d: float) -> np.ndarray:
    # distance x falls in ring m iff (m-1)*delta_d < x <= m*delta_d; x == 0 -> ring 1
    m = np.ceil(values / delta_d).astype(np.int64)
    return np.maximum(m, 1)


class _RingCounts:
    """Distances counted by ring, a block at a time; the one ring counter
    behind every annular curve (see :func:`_blocked_k_function`).

    When the ``span`` rings from ring 1 on are at most a quarter as many as
    the ``total`` distances to come, each block is added into one array
    over the span (``np.add.at``). Otherwise the blocks' ring indices are
    held until they number ``_MERGE_RINGS`` and a quarter of the occupied
    rings so far, then sorted and merged into the sorted occupied rings and
    their counts, so memory follows the occupied rings, not the number of
    distances. Each block's largest distance is checked against the ring
    limit before its ring indices are cast.
    """

    def __init__(self, delta_d: float, span: float, total: int) -> None:
        self.delta_d = delta_d
        self.added, self.largest = 0, 0.0
        self.dense = np.zeros(math.ceil(span), dtype=np.int64) if 4 * span <= total else None
        self.rings = self.counts = np.empty(0, dtype=np.int64)
        self._pending: list[np.ndarray] = []  # ring indices not merged yet

    def add(self, values: np.ndarray) -> None:
        if len(values) == 0:
            return
        largest = float(values.max())
        _check_ring_limit(largest, self.delta_d)
        self.added += len(values)
        self.largest = max(self.largest, largest)
        rings = _ring_indices(values, self.delta_d)
        if self.dense is not None:
            rings -= 1
            np.add.at(self.dense, rings, 1)
            return
        self._pending.append(rings)
        if sum(map(len, self._pending)) >= max(_MERGE_RINGS, len(self.rings) // 4):
            self._merge()

    def _merge(self) -> None:
        pending = self._pending[0] if len(self._pending) == 1 else np.concatenate(self._pending)
        self._pending = []
        pending.sort()  # np.unique(pending, return_counts=True), without its copy
        starts = np.flatnonzero(np.concatenate(([True], pending[1:] != pending[:-1])))
        rings, counts = pending[starts], np.diff(starts, append=len(pending))
        del pending, starts
        if len(self.rings) == 0:
            self.rings, self.counts = rings, counts
            return
        at = np.searchsorted(self.rings, rings)
        seen = at < len(self.rings)
        seen[seen] = self.rings[at[seen]] == rings[seen]
        self.counts[at[seen]] += counts[seen]
        fresh = ~seen
        self.rings = np.insert(self.rings, at[fresh], rings[fresh])
        self.counts = np.insert(self.counts, at[fresh], counts[fresh])

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """The occupied rings, ascending, and how many distances fall in
        each; the counter lets go of them."""
        if self.dense is not None:
            occupied = np.flatnonzero(self.dense)
            counts = self.dense[occupied]
            self.dense = None
            occupied += 1
            return occupied, counts
        if self._pending:
            self._merge()
        occupied, counts = self.rings, self.counts
        self.rings = self.counts = None
        return occupied, counts

    def curve(self, n_points: int) -> KFunction:
        """The density curve of the counted distances among ``n_points``."""
        occupied, counts = self.take()
        d = occupied * self.delta_d
        del occupied
        # 2 * counts / (n_points * pi * (d**2 - (d - delta_d)**2)), rounded at
        # the same steps (so to the same bits), a block of rings at a time
        densities = np.empty_like(d)
        for start in range(0, len(d), _CURVE_BLOCK):
            ring = slice(start, start + _CURVE_BLOCK)
            area, inner = np.square(d[ring], out=densities[ring]), d[ring] - self.delta_d
            area -= np.square(inner, out=inner)
            del inner
            area *= np.pi
            area *= n_points
            np.divide(2.0 * counts[ring], area, out=area)
        return KFunction(delta_d=self.delta_d, distances_m=d, densities=densities)


def compute_k_function(
    distances: DistanceList, n_points: int, delta_d: float = DEFAULT_DELTA_D_M
) -> KFunction:
    """Bin pair distances into rings of width ``delta_d`` and compute the
    per-point ring density at each occupied ring.

    The distances need not be sorted: the ring counts do not depend on
    their order. They go to :func:`_blocked_k_function` in slices of
    ``_COUNT_BLOCK`` distances, so no copy of them is made.
    ``cluster_distance`` is left unset; see :func:`derive_cluster_distance`.
    """
    values = distances.values
    largest = float(values.max()) if len(values) else 0.0
    blocks = (values[start : start + _COUNT_BLOCK] for start in range(0, len(values), _COUNT_BLOCK))
    return _blocked_k_function(blocks, n_points, delta_d, largest, len(values))


def _blocked_k_function(
    blocks, n_points: int, delta_d: float, largest: float, total: int
) -> KFunction:
    """The annular curve of the distances that ``blocks`` yields, an array
    at a time; no distance exceeds ``largest`` and there are at most
    ``total`` of them. Both branches of the pipeline and
    :func:`compute_k_function` count through here.

    The checks come in one order: the point count and ``delta_d``, the ring
    limit on each block before its ring indices are cast, an empty list,
    then the area of the farthest ring. The rings are counted by one
    :class:`_RingCounts` spanning ring 1 up to ``largest``'s ring (and one
    more for its rounding): into one array on at least four distances per
    ring spanned, otherwise as the sorted occupied rings, merged as the
    blocks come.
    """
    _check_curve_args(n_points, delta_d)
    counts = _RingCounts(delta_d, largest / delta_d + 1, total)
    for values in blocks:
        counts.add(values)
    if counts.added == 0:
        raise InsufficientPointsError("distance list is empty")
    _check_ring_area(counts.largest, n_points, delta_d)
    return counts.curve(n_points)


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
    _check_ring_limit(float(values[-1]), delta_d)
    _check_ring_area(float(values[-1]), n_points, delta_d)
    last_ring = int(_ring_indices(values[-1:], delta_d)[0])
    d = np.arange(1, last_ring + 1, dtype=np.float64) * delta_d
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
    if len(kf) == 0:
        raise InsufficientPointsError("density curve has no samples")
    ks = kf.densities
    threshold = float(np.mean(ks) + 2.0 * np.std(ks))
    peak = int(np.argmax(ks))  # first index of the max, i.e. smallest such d
    past_peak = np.nonzero(ks[peak + 1 :] <= threshold)[0]
    if len(past_peak) == 0:
        return float(kf.distances_m[peak])
    return float(kf.distances_m[peak + 1 + past_peak[0]])


def with_cluster_distance(kf: KFunction) -> KFunction:
    """Return a copy of ``kf`` with its derived cluster distance filled in."""
    return replace(kf, cluster_distance=derive_cluster_distance(kf))
