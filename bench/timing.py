"""Host-speed calibration and the timing estimators.

On a shared host the same code runs at different speeds, from moment to
moment and in stretches of several seconds (see the README's drift
figures), and CPU time slows down with wall time, so neither a longer run
nor a CPU clock removes it. The benchmark therefore times fixed reference
jobs between operations, about every ``CALIBRATE_EVERY_S``, and scales
each operation's time by how slowly the host ran them around it. Every
timing metric is reported at the reference speed, at which each job
takes its ``*_REFERENCE_S``.

Estimators take medians over rounds, where every round holds the same
operations, so a slow stretch of rounds moves them little even where the
calibration misses it.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

# each reference job's time at the reference speed: about its median on a
# 2-core x86-64 sandbox (Python 3.11, numpy 2.4)
INTERPRETED_REFERENCE_S = 0.010
ARRAY_REFERENCE_S = 0.030
CALIBRATE_EVERY_S = 0.5
# every run makes at least this many operations, so that a percentile
# with ten samples beyond it exists
MIN_OPS = 40
_POINTS = 700


class HostSpeed:
    """Times two fixed reference jobs. The interpreted job is an integer
    loop, a JSON round trip with object sorting and grouping, and many tiny
    numpy calls; the array job is a haversine-shaped numpy pass over a
    700-point matrix. The host does not slow both kinds of work alike, so
    each operation is scaled by the two jobs' slowness weighed by its
    *array share*: 0 for interpreted work, 1 for large numpy passes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(100_000)
        self._lat, self._lon = rng.random(_POINTS), rng.random(_POINTS)
        self._upper = np.triu_indices(_POINTS, 1)
        self._blob = json.dumps(
            [[{"id": f"e{i}_{j}", "lat": j / 7, "lon": i / 3} for j in range(12)] for i in range(40)]
        )
        # (operations done before, interpreted slowness, array slowness)
        self.log: list[tuple[int, float, float]] = []
        self._last = 0.0

    def _interpreted(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        points = [(c["lon"], c["id"], c["lat"]) for group in json.loads(self._blob) for c in group]
        points.sort()
        groups: dict[str, list] = {}
        for p in points:
            groups.setdefault(p[1][:3], []).append(p)
        json.dumps(groups, sort_keys=True, indent=1)
        for i in range(200):
            a = self._values[i : i + 40]
            np.nonzero(np.subtract.outer(a, a) < 0.5)
        return time.perf_counter() - start

    def _array(self) -> float:
        start = time.perf_counter()
        lat, lon = self._lat, self._lon
        h = (
            np.sin((lat[:, None] - lat[None, :]) / 2) ** 2
            + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin((lon[:, None] - lon[None, :]) / 2) ** 2
        )
        np.sort(h[self._upper])
        return time.perf_counter() - start

    def calibrate(self, ops_done: int) -> tuple[float, float]:
        """Time both jobs; returns the host's slowness at each, 1.0 at the
        reference speed."""
        slowness = (self._interpreted() / INTERPRETED_REFERENCE_S, self._array() / ARRAY_REFERENCE_S)
        self.log.append((ops_done, *slowness))
        self._last = time.perf_counter()
        return slowness

    def due(self) -> bool:
        return time.perf_counter() - self._last >= CALIBRATE_EVERY_S

    @staticmethod
    def factor(before: tuple[float, float], after: tuple[float, float], array_share: float) -> float:
        """The scale for work of the given array share done between two
        calibrations."""
        slowness = [(1 - array_share) * interpreted + array_share * array for interpreted, array in (before, after)]
        return 2 / sum(slowness)

    def factors(self, array_shares: list[float]) -> list[float]:
        """Per operation of the timed phase, given each one's array share:
        the scale from the calibrations just before and just after it."""
        out: list[float] = []
        for (a, *before), (b, *after) in zip(self.log, self.log[1:]):
            out += [self.factor(before, after, share) for share in array_shares[a:b]]
        return out


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    return sorted_values[max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)]


def tail(rounds: list[list[float]], percentile: float) -> float:
    """The tail latency. Where a round holds at least ``MIN_OPS`` operations,
    the percentile is taken within each round (the same operations every
    time) and the median over rounds is reported; otherwise it is taken
    over all operations of the run."""
    if len(rounds[0]) >= MIN_OPS:
        return statistics.median(nearest_rank(sorted(r), percentile) for r in rounds)
    return nearest_rank(sorted(x for r in rounds for x in r), percentile)
