"""Comparison heuristics: overall minimum distance, centroid filtering,
distance to unambiguous referents, and DBSCAN (manual epsilon or the
k-nearest-neighbor auto-epsilon).
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .clustering import (
    DisambiguationResult,
    _dbscan_groups,
    _resolve,
    dbscan,  # noqa: F401  (kept importable from here with the other clusterers)
)
from .corpus import DocumentInput, PointCloud, to_point_cloud
from .errors import (
    CombinationExplosionError,
    EmptyInputError,
    InsufficientPointsError,
    NoAnchorsError,
)
from .geo import (
    BLOCK_ELEMENTS,
    EARTH_RADIUS_M,
    GeoPoint,
    condensed_distances,
    condensed_index,
    haversine,
    spherical_centroid,
)
from .params import AVG_PAIRWISE, CAP, HULL_AREA, K, MEASURE, MIN_PTS

DEFAULT_COMBINATION_CAP = 10**6

# candidates closer to the reference point than this are treated as tied
TIE_TOLERANCE_M = 1e-3

# the most combination totals one leaf of the OMD search sums at once
_CHUNK = 1 << 13


def _resolve_selection(doc: DocumentInput, chosen) -> DisambiguationResult:
    # a heuristic's result: the candidate at position chosen[k] of each
    # mention k forms the one cluster, and every other point is noise
    cloud = to_point_cloud(doc)
    n = len(cloud)
    points = np.cumsum([0] + [len(m.candidates) for m in doc.mentions[:-1]]) + chosen
    labels = np.full(n, n)
    labels[points] = points[0]
    return _resolve(doc, cloud, labels)


def _require_candidates(doc: DocumentInput) -> None:
    # the heuristics choose one candidate for every mention
    for mention in doc.mentions:
        if not mention.candidates:
            raise EmptyInputError(f"document {doc.doc_id!r}: mention {mention.name!r} has no candidates")


def _hull_area_m2(points: list[GeoPoint]) -> float:
    """Planar convex-hull area on an equirectangular projection about the
    points' spherical centroid. Approximate; adequate at document scales.
    """
    if len(points) < 3:
        return 0.0
    center = spherical_centroid(points)
    lat0 = math.radians(center.lat)
    xy = []
    for p in points:
        dlon = math.radians(p.lon - center.lon)
        dlon = (dlon + math.pi) % (2 * math.pi) - math.pi
        xy.append((EARTH_RADIUS_M * dlon * math.cos(lat0), EARTH_RADIUS_M * math.radians(p.lat - center.lat)))
    hull = _convex_hull(sorted(set(xy)))
    if len(hull) < 3:
        return 0.0
    area = 0.0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def _convex_hull(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    # monotone chain; input sorted and deduplicated
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _grid_totals(blocks: dict, rows: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Total pair distance of every combination that extends a prefix row of
    ``rows`` (candidate choices for the first j mentions) over the grid of
    mentions j on, shaped ``(len(rows), *sizes[j:])``. Each mention pair adds
    one broadcast term in ``blocks`` order, so every total is the same float
    sum whatever rows share its batch."""
    j = rows.shape[1]
    # a prefix mention lies along axis 0, mention a >= j along axis a - j + 1
    extent = [len(rows)] * j + sizes[j:]
    total = np.zeros((len(rows), *sizes[j:]))
    for (a, b), block in blocks.items():
        if b < j:
            term = block[rows[:, a], rows[:, b]]
        elif a < j:
            term = block[rows[:, a]]
        else:
            term = block
        shape = [1] * (len(sizes) - j + 1)
        shape[max(0, a - j + 1)], shape[max(0, b - j + 1)] = extent[a], extent[b]
        total += term.reshape(shape)
    return total


def _omd_setup(distances: np.ndarray, sizes: list[int]) -> tuple[dict, np.ndarray, np.ndarray, float]:
    """The blocks, bounds and incumbent of the OMD search over two or more
    mentions of ``sizes`` candidates, from the condensed distance vector of
    their candidates, mention after mention.

    ``blocks[a, b]`` holds the distances between mentions a < b, in the order
    every total adds them. The lower bound of a prefix row over mentions
    0..j-1 is its partial sum over those pairs, plus ``suffix[x, j]`` for each
    chosen candidate x (the sum of its nearest distances to the mentions from
    j on), plus ``pair_floor[j]`` (the sum of the least entries of the blocks
    between mentions from j on). The incumbent is the best total of "each
    candidate plus the nearest candidate of every other mention".

    Each mention b takes one gather from the vector: its column against
    every earlier candidate. The column's row slices are the blocks (a, b),
    its row minima and argmins are each earlier candidate's nearest distance
    to b and nearest candidate of b, and a block's column argmins are the
    nearest candidates of a for b's candidates."""
    m, n, starts = len(sizes), sum(sizes), np.cumsum([0] + sizes)
    base = condensed_index(np.arange(n), 0, n)  # the pair (i, j), i < j, sits at base[i] + j
    nearest = np.zeros((n, m + 1))  # x's nearest distance to each later mention
    seeds = np.repeat(np.arange(n)[:, None], m, axis=1)  # x's nearest candidate of each mention, x in its own
    columns = [None]  # mention 0 has no earlier candidates
    for b in range(1, m):
        lo, hi = starts[b], starts[b + 1]
        column = distances[base[:lo, None] + np.arange(lo, hi)]
        nearest[:lo, b] = column.min(axis=1)
        seeds[:lo, b] = column.argmin(axis=1) + lo
        columns.append(column)
    blocks = {(a, b): columns[b][starts[a]:starts[a + 1]] for a, b in itertools.combinations(range(m), 2)}
    for (a, b), block in blocks.items():
        seeds[starts[b]:starts[b + 1], a] = block.argmin(axis=0) + starts[a]
    # floors[a] adds the least entry of each block (a, b) in b order, as a
    # running sum from zero: the zeros of nearest before and after add nothing
    floors = np.zeros(m + 1)
    floors[:m] = np.cumsum(np.minimum.reduceat(nearest, starts[:-1], axis=0), axis=1)[:, -1]
    suffix = np.cumsum(nearest[:, ::-1], axis=1)[:, ::-1]
    pair_floor = np.cumsum(floors[::-1])[::-1]
    # every seed combination's pair terms in blocks order, summed along them
    a_of, b_of = np.array(list(blocks)).T
    seed_terms = distances[base[seeds[:, a_of]] + seeds[:, b_of]]
    return blocks, suffix, pair_floor, float(np.cumsum(seed_terms, axis=1)[:, -1].min())


def _omd_avg_pairwise(doc: DocumentInput, sizes: list[int]) -> int:
    """Index of the first combination minimizing mean pairwise distance.

    The combinations form an array shaped like ``sizes`` (C order, last mention
    fastest). A branch-and-bound search makes one pass over it. Each
    combination extends a prefix row, its choices for the first j mentions,
    where j is the shallowest depth at which the grid of the remaining
    mentions fits ``_CHUNK`` totals. The prefix rows are walked in C order, a
    block at a time, and rows whose lower bound exceeds the best total known
    are dropped. :func:`_grid_totals` sums the grids of the rows left, a leaf
    of at most ``_CHUNK`` totals at a time, and the first strictly smaller
    total wins, so ties go to the first combination in C order.
    """
    # one distance vector over every candidate, mention after mention
    blocks, suffix, pair_floor, bound = _omd_setup(condensed_distances(to_point_cloud(doc)), sizes)
    starts = np.cumsum([0] + sizes)

    best_idx, best_val = 0, math.inf
    # the leaf depth j, the totals under each prefix row, the number of rows,
    # and the rows a block bounds at once: about BLOCK_ELEMENTS digits
    j = next(j for j in range(len(sizes) + 1) if math.prod(sizes[j:]) <= _CHUNK)
    per_row = math.prod(sizes[j:])
    n_rows, step = math.prod(sizes[:j]), BLOCK_ELEMENTS // max(j, 1)
    strides = np.array([math.prod(sizes[a + 1:j]) for a in range(j)], dtype=np.intp)
    radix = np.array(sizes[:j], dtype=np.intp)
    # The bound adds its terms in another order than the totals, so a row is
    # dropped only beyond a relative slack of 1e-9 over the incumbent; the
    # rounding of at most 171 non-negative terms stays below 1e-13.
    limit = bound + bound * 1e-9
    for first in range(0, n_rows, step):
        rows = np.arange(first, min(first + step, n_rows))[:, None] // strides % radix
        lower = sum(
            (blocks[a, b][rows[:, a], rows[:, b]] for a, b in itertools.combinations(range(j), 2)),
            sum((suffix[starts[a] + rows[:, a], j] for a in range(j)), np.full(len(rows), pair_floor[j])),
        )
        survivors = np.flatnonzero(lower <= limit)
        for start in range(0, len(survivors), _CHUNK // per_row):
            batch = survivors[start:start + _CHUNK // per_row]
            batch = batch[lower[batch] <= limit]  # against the incumbent of now
            if len(batch) == 0:
                continue
            total = _grid_totals(blocks, rows[batch], sizes)
            local = int(np.argmin(total))  # first occurrence on ties
            if total.flat[local] < best_val:
                best_val = float(total.flat[local])
                best_idx = (first + int(batch[local // per_row])) * per_row + local % per_row
                limit = min(limit, best_val + best_val * 1e-9)
    return best_idx


def omd(
    doc: DocumentInput,
    measure: str = AVG_PAIRWISE,
    cap: int = DEFAULT_COMBINATION_CAP,
) -> DisambiguationResult:
    """Exact overall-minimum-distance selection.

    Of every one-candidate-per-mention combination (mention order, candidate
    order within a mention), keeps the first one minimizing the chosen
    measure: mean pairwise distance of the selection, found by an exact
    branch-and-bound search, or the area of its planar convex hull, found by
    enumeration. ``cap``, at least 1, limits the number of combinations, the
    product of the mentions' candidate counts, and is checked before the
    search.
    """
    MEASURE.check(measure)
    CAP.check(cap)
    if len(doc.mentions) == 0:
        raise EmptyInputError(f"document {doc.doc_id!r} has no mentions")
    _require_candidates(doc)
    sizes = [len(m.candidates) for m in doc.mentions]
    n_combos = math.prod(sizes)
    if n_combos > cap:
        raise CombinationExplosionError(
            f"document {doc.doc_id!r}: {n_combos} combinations exceed cap {cap}"
        )
    if len(doc.mentions) == 1:
        # zero pairs, measure vacuous: first candidate wins
        return _resolve_selection(doc, [0])

    if measure == AVG_PAIRWISE:
        best = _omd_avg_pairwise(doc, sizes)
    else:
        combos = itertools.product(*(m.candidates for m in doc.mentions))
        areas = (_hull_area_m2([c.location for c in combo]) for combo in combos)
        best = min(enumerate(areas), key=lambda pair: pair[1])[0]  # the first least area
    return _resolve_selection(doc, np.unravel_index(best, sizes))


def centroid_heuristic(doc: DocumentInput) -> DisambiguationResult:
    """Two-pass centroid selection.

    Pass one: centroid of every candidate location and the distances to it.
    Candidates farther than mean + 2*std of those distances are dropped and
    the centroid recomputed from the survivors. Each mention then takes its
    candidate nearest the final centroid; near-ties (under 1 mm) go to the
    smaller entry_id.
    """
    _require_candidates(doc)
    cloud = to_point_cloud(doc)
    if len(cloud) == 0:
        raise EmptyInputError(f"document {doc.doc_id!r} has no candidates")
    locations = [p.location for p in cloud.points]
    first = spherical_centroid(locations)
    dists = np.array([haversine(first, loc) for loc in locations])
    cutoff = float(np.mean(dists) + 2.0 * np.std(dists))
    survivors = [loc for loc, d in zip(locations, dists) if d <= cutoff]
    final = spherical_centroid(survivors)

    chosen = []
    for mention in doc.mentions:
        dists = [haversine(final, c.location) for c in mention.candidates]
        best_d = min(dists)
        tied = [k for k, d in enumerate(dists) if d - best_d <= TIE_TOLERANCE_M]
        chosen.append(min(tied, key=lambda k: mention.candidates[k].entry_id))
    return _resolve_selection(doc, chosen)


def dtur(doc: DocumentInput) -> DisambiguationResult:
    """Distance to unambiguous referents.

    Mentions with exactly one candidate anchor the document; every other
    mention takes the candidate with the smallest mean distance to the
    anchor locations, ties to the smaller entry_id.
    """
    _require_candidates(doc)
    anchors = [m.candidates[0] for m in doc.mentions if len(m.candidates) == 1]
    if not anchors:
        raise NoAnchorsError(f"document {doc.doc_id!r} has no unambiguous mention")
    chosen = []
    for mention in doc.mentions:
        if len(mention.candidates) == 1:
            chosen.append(0)
            continue
        scored = (
            (sum(haversine(c.location, a.location) for a in anchors) / len(anchors), c.entry_id, k)
            for k, c in enumerate(mention.candidates)
        )
        chosen.append(min(scored)[2])
    return _resolve_selection(doc, chosen)


def _neighbour_matrix(distances: np.ndarray, n: int) -> np.ndarray:
    # the n-by-n matrix of the condensed pair distances of n points, with an
    # infinite diagonal so that no point counts as its own neighbour
    upper = np.arange(n) > np.arange(n)[:, None]  # row-major, the condensed order
    matrix = np.full((n, n), np.inf)
    matrix[upper] = matrix.T[upper] = distances
    return matrix


def kdist_epsilon(cloud: PointCloud, k: int) -> float:
    """Auto-epsilon from the k-th-nearest-neighbor distance distribution.

    Computes each point's distance to its k-th nearest neighbor (self
    excluded) and returns mean + 2*std of those values. The cloud keeps
    the value for each k; the arguments are checked on every call.
    """
    K.check(k)
    if len(cloud) <= k:
        raise InsufficientPointsError(f"need more than {k} points, got {len(cloud)}")
    k = operator.index(k)  # a kept value answers only an integer k, as np.partition does
    epsilons = cloud._kdist_epsilons
    if k not in epsilons:
        kth = np.partition(_neighbour_matrix(condensed_distances(cloud), len(cloud)), k - 1, axis=1)[:, k - 1]
        epsilons[k] = float(np.mean(kth) + 2.0 * np.std(kth))
    return epsilons[k]


def dbscan_disambiguate(doc: DocumentInput, epsilon: float, min_pts: int) -> DisambiguationResult:
    """DBSCAN clusters fed through the shared ranking and top-cluster scan."""
    cloud = to_point_cloud(doc)
    return _resolve(doc, cloud, _dbscan_groups(cloud, epsilon, min_pts))


def kdist_disambiguate(doc: DocumentInput, k: int, min_pts: int) -> DisambiguationResult:
    """DBSCAN with the auto-derived epsilon; ``min_pts`` is checked before
    epsilon is derived."""
    MIN_PTS.check(min_pts)
    cloud = to_point_cloud(doc)
    epsilon = kdist_epsilon(cloud, k)
    if epsilon == 0:
        raise InsufficientPointsError(
            f"document {doc.doc_id!r}: every point has {k} or more coincident "
            f"neighbours, so the k={k} auto-epsilon is 0"
        )
    return _resolve(doc, cloud, _dbscan_groups(cloud, epsilon, min_pts))
