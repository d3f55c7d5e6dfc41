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

# the fewest distances one step of the dense ring count reads at once
_COUNT_BLOCK = 1 << 16


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


def _check_curve_input(values: np.ndarray, n_points: int, delta_d: float) -> None:
    if n_points < 2:
        raise InsufficientPointsError(f"need at least 2 points, got {n_points}")
    if not (math.isfinite(delta_d) and delta_d > 0):
        raise ValueError(f"delta_d must be a positive finite number, got {delta_d}")
    if len(values) == 0:
        raise InsufficientPointsError("distance list is empty")
    # float64 holds every integer ring index only up to 2**53, int64 to 2**63
    largest = float(np.max(values))
    if largest / delta_d > MAX_RING_INDEX:
        raise ValueError(
            f"delta_d {delta_d} is too small: the largest distance would fall in a ring "
            f"beyond {MAX_RING_INDEX}"
        )
    # a density divides by n times a ring's area; should that overflow, the
    # density reads 0 (a factor 2 of headroom covers the order of rounding)
    d = max(math.ceil(largest / delta_d), 1) * delta_d
    if not math.isfinite(2.0 * n_points * math.pi * d * d):
        raise ValueError(f"delta_d {delta_d} is too large: the area of the ring at {d} m overflows")


def _ring_indices(values: np.ndarray, delta_d: float) -> np.ndarray:
    # distance x falls in ring m iff (m-1)*delta_d < x <= m*delta_d; x == 0 -> ring 1
    m = np.ceil(values / delta_d).astype(np.int64)
    return np.maximum(m, 1)


def _ring_counts(values: np.ndarray, delta_d: float) -> tuple[np.ndarray, np.ndarray]:
    """The occupied rings of ``values``, ascending, and how many distances
    fall in each: ``np.unique(_ring_indices(values, delta_d), return_counts=True)``.

    When the rings from the nearest distance to the farthest span at most a
    quarter as many as there are distances, ``np.bincount`` counts them into
    one array over that span, ``max(_COUNT_BLOCK, span)`` distances at a
    time, so no copy of the whole vector is made. A wider span (a small
    document, or a tiny ``delta_d``) is counted by ``np.unique``.
    """
    # a ring index never decreases with the distance
    lo, hi = _ring_indices(np.array([values.min(), values.max()]), delta_d).tolist()
    span = hi - lo + 1
    if 4 * span > len(values):
        return np.unique(_ring_indices(values, delta_d), return_counts=True)
    step = max(_COUNT_BLOCK, span)
    counts = np.zeros(span, dtype=np.int64)
    for start in range(0, len(values), step):
        counts += np.bincount(_ring_indices(values[start : start + step], delta_d) - lo, minlength=span)
    occupied = np.flatnonzero(counts)
    counts = counts[occupied]
    occupied += lo
    return occupied, counts


def compute_k_function(
    distances: DistanceList, n_points: int, delta_d: float = DEFAULT_DELTA_D_M
) -> KFunction:
    """Bin pair distances into rings of width ``delta_d`` and compute the
    per-point ring density at each occupied ring.

    ``cluster_distance`` is left unset; see :func:`derive_cluster_distance`.
    """
    return annular_k_function(distances.values, n_points, delta_d)


def annular_k_function(
    values: np.ndarray, n_points: int, delta_d: float = DEFAULT_DELTA_D_M
) -> KFunction:
    """:func:`compute_k_function` on a bare vector of pair distances, which
    need not be sorted: the ring counts do not depend on their order.

    On a vector of at least four distances per ring spanned (a large
    document) the rings are counted in blocks (see :func:`_ring_counts`), so
    memory beyond the vector is one block and a few arrays as long as the
    span, at most a quarter of its length; otherwise ``np.unique`` sorts a
    copy of the ring indices.
    """
    _check_curve_input(values, n_points, delta_d)
    occupied, counts = _ring_counts(values, delta_d)
    d = occupied * delta_d
    del occupied
    # 2 * counts / (n_points * pi * (d**2 - (d - delta_d)**2)), rounded at the
    # same steps (so to the same bits), in two arrays as long as d
    densities, inner = np.square(d), d - delta_d
    densities -= np.square(inner, out=inner)
    del inner
    densities *= np.pi
    densities *= n_points
    np.divide(2.0 * counts, densities, out=densities)
    return KFunction(delta_d=delta_d, distances_m=d, densities=densities)


def compute_circular_k_function(
    distances: DistanceList, n_points: int, delta_d: float = DEFAULT_DELTA_D_M
) -> KFunction:
    """Variant counting the full disk (0, d] instead of the ring.

    The disk at distance d contains every pair at distance <= d, so past the
    first occupied multiple of ``delta_d`` every multiple is sampled, up to
    the largest pair distance. Used for comparison against the annular
    curve; the annular one is what the pipeline uses.
    """
    _check_curve_input(distances.values, n_points, delta_d)
    values = np.sort(distances.values)
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
