"""Independent reference implementations used only to check the library.

Everything here is deliberately plain Python (no numpy) and written from
the definitions, not from the library code paths it verifies. The one
exception is ``document_from_dict``, the library's former document parser,
kept as it was: the reference for the parser's messages and fault order.
"""

from __future__ import annotations

import itertools
import math
import statistics

from densityk.corpus import CandidateEntry, DocumentInput, PlaceMention
from densityk.errors import DocumentParseError, DocumentSchemaError
from densityk.geo import GeoPoint


def slow_haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    r = 6_371_000.0
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.asin(min(1.0, math.sqrt(h)))


def vector_mean_centroid(coords: list[tuple[float, float]]) -> tuple[float, float]:
    """Unit-vector mean on the sphere, re-derived from scratch."""
    sx = sy = sz = 0.0
    for lat, lon in coords:
        la, lo = math.radians(lat), math.radians(lon)
        sx += math.cos(la) * math.cos(lo)
        sy += math.cos(la) * math.sin(lo)
        sz += math.sin(la)
    n = len(coords)
    sx, sy, sz = sx / n, sy / n, sz / n
    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    return (
        math.degrees(math.asin(sz / norm)),
        math.degrees(math.atan2(sy, sx)),
    )


def annular_density_curve(
    distances: list[float], n_points: int, delta_d: float
) -> list[tuple[float, float]]:
    """Literal evaluation of the annular density definition.

    For each positive multiple d of delta_d, count pair distances in
    (d - delta_d, d] (zero goes to the first ring) and divide twice the
    count by n * ring area. Empty rings are skipped.
    """
    counts: dict[int, int] = {}
    for x in distances:
        ring = math.ceil(x / delta_d)
        if ring < 1:
            ring = 1
        counts[ring] = counts.get(ring, 0) + 1
    curve = []
    for ring in sorted(counts):
        d = ring * delta_d
        area = math.pi * (d * d - (d - delta_d) * (d - delta_d))
        curve.append((d, 2.0 * counts[ring] / (n_points * area)))
    return curve


def two_sigma_threshold_distance(curve: list[tuple[float, float]]) -> float:
    """Literal thresholding: mean + 2 * population std over the densities,
    then the smallest d past the (first) peak whose density is at or below
    it; the peak distance itself when nothing past the peak qualifies."""
    ks = [k for _, k in curve]
    mean = statistics.fmean(ks)
    std = statistics.pstdev(ks)
    cut = mean + 2 * std
    peak = ks.index(max(ks))
    for i in range(peak + 1, len(curve)):
        if curve[i][1] <= cut:
            return curve[i][0]
    return curve[peak][0]


def label_propagation_components(
    coords: list[tuple[float, float]], threshold: float
) -> list[frozenset[int]]:
    """Connected components at the distance threshold, by iterating label
    propagation to a fixed point (no union-find)."""
    n = len(coords)
    adj = [
        [j for j in range(n) if j != i and slow_haversine(*coords[i], *coords[j]) <= threshold]
        for i in range(n)
    ]
    labels = list(range(n))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in adj[i]:
                if labels[j] < labels[i]:
                    labels[i] = labels[j]
                    changed = True
    groups: dict[int, set[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return [frozenset(g) for g in groups.values()]


class UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def union_find_dbscan_groups(
    distances: list[float], n: int, epsilon: float, min_pts: int
) -> list[list[int]]:
    """DBSCAN groups from the condensed pair distances of n points (pairs
    (i, j), i < j, row after row), one edge at a time through a union-find.

    A point is core when it and at least ``min_pts - 1`` others lie within
    ``epsilon``; core points within epsilon share a group; any other point
    joins the group of its smallest-index core neighbour, or none. Groups
    come in order of their first member, members ascending.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pair for pair, x in zip(pairs, distances) if x <= epsilon]
    degree = [1] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    core = [d >= min_pts for d in degree]
    joins: list[int | None] = [i if core[i] else None for i in range(n)]
    uf = UnionFind(n)
    for i, j in edges:
        if core[i] and core[j]:
            uf.union(i, j)
        for border, other in ((i, j), (j, i)):
            if core[other] and not core[border]:
                if joins[border] is None or other < joins[border]:
                    joins[border] = other
    groups: dict[int, list[int]] = {}
    for i, j in enumerate(joins):
        if j is not None:
            groups.setdefault(uf.find(j), []).append(i)
    return list(groups.values())


def reference_dbscan(
    coords: list[tuple[float, float]], epsilon: float, min_pts: int
) -> list[int]:
    """Textbook DBSCAN; returns a label per point, -1 for noise. Border
    points take the cluster of their first core neighbor in input order."""
    n = len(coords)
    neighbors = [
        [j for j in range(n) if slow_haversine(*coords[i], *coords[j]) <= epsilon]
        for i in range(n)
    ]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    labels = [-1] * n
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        queue = [i]
        labels[i] = cluster
        while queue:
            j = queue.pop(0)
            for nb in neighbors[j]:
                if core[nb] and labels[nb] == -1:
                    labels[nb] = cluster
                    queue.append(nb)
        cluster += 1
    for i in range(n):
        if core[i]:
            continue
        for nb in neighbors[i]:
            if core[nb]:
                labels[i] = labels[nb]
                break
    return labels


def exhaustive_min_combination(
    candidate_coords: list[list[tuple[float, float]]],
) -> tuple[tuple[int, ...], float]:
    """Enumerate every one-per-mention choice and return the first one with
    the smallest mean pairwise distance."""
    best: tuple[int, ...] | None = None
    best_val = math.inf
    for combo in itertools.product(*(range(len(c)) for c in candidate_coords)):
        chosen = [candidate_coords[m][i] for m, i in enumerate(combo)]
        total = 0.0
        pairs = 0
        for a, b in itertools.combinations(chosen, 2):
            total += slow_haversine(*a, *b)
            pairs += 1
        val = total / pairs if pairs else 0.0
        if val < best_val:
            best_val = val
            best = combo
    assert best is not None
    return best, best_val


def kth_neighbor_distances(
    coords: list[tuple[float, float]], k: int
) -> list[float]:
    out = []
    for i, a in enumerate(coords):
        ds = sorted(
            slow_haversine(*a, *b) for j, b in enumerate(coords) if j != i
        )
        out.append(ds[k - 1])
    return out


# The document parser written check by check, each message built before its
# check: the reference for the library parser's documents, its messages and
# which of several faults it reports first.

_TYPE_NAMES = {str: "a string", list: "a list", dict: "a JSON object"}


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise DocumentParseError(f"{what} must be {_TYPE_NAMES[kind]}")
    return value


def _require(obj: dict, key: str, context: str, kind: type | None = None):
    if key not in obj:
        raise DocumentParseError(f"{context}: missing field '{key}'")
    if kind is None:
        return obj[key]
    return _expect(obj[key], kind, f"{context}: '{key}'")


def document_from_dict(raw: dict) -> DocumentInput:
    """Build and validate a DocumentInput from already-parsed JSON."""
    _expect(raw, dict, "document")
    doc_id = _require(raw, "doc_id", "document", str)
    mentions_raw = _require(raw, "mentions", f"document {doc_id!r}", list)

    mentions: list[PlaceMention] = []
    for mraw in mentions_raw:
        _expect(mraw, dict, f"document {doc_id!r}: each mention")
        ctx = f"document {doc_id!r}, mention {mraw.get('name', '?')!r}"
        name = _require(mraw, "name", ctx, str)
        cands_raw = _require(mraw, "candidates", ctx)
        if not isinstance(cands_raw, list) or len(cands_raw) == 0:
            raise DocumentSchemaError(f"{ctx}: candidate list is empty")
        candidates = []
        for craw in cands_raw:
            _expect(craw, dict, f"{ctx}: each candidate")
            entry_id = _require(craw, "entry_id", ctx, str)
            where = f"{ctx}, entry {entry_id!r}"
            lat = _require(craw, "lat", where)
            lon = _require(craw, "lon", where)
            if isinstance(lat, bool) or isinstance(lon, bool):
                raise DocumentSchemaError(f"{where}: boolean coordinate")
            if not (isinstance(lat, (int, float)) and isinstance(lon, (int, float))):
                raise DocumentSchemaError(f"{where}: coordinates must be numbers")  # float() takes "45.5"
            try:
                location = GeoPoint(float(lat), float(lon))
            except (ValueError, OverflowError) as exc:  # OverflowError: an int past float range
                raise DocumentSchemaError(f"{where}: {exc}") from exc
            candidates.append(
                CandidateEntry(
                    entry_id=entry_id,
                    name=_expect(craw.get("name", name), str, f"{where}: 'name'"),
                    location=location,
                    source=_expect(craw.get("source", ""), str, f"{where}: 'source'"),
                )
            )
        mentions.append(PlaceMention(name=name, candidates=tuple(candidates)))

    ground_truth = raw.get("ground_truth")
    if ground_truth is not None:
        _expect(ground_truth, dict, f"document {doc_id!r}: 'ground_truth'")
        for gname, gentry in ground_truth.items():  # DocumentInput checks what they name
            _expect(gentry, str, f"document {doc_id!r}: ground_truth for {gname!r}")
        ground_truth = dict(ground_truth)

    return DocumentInput(doc_id=doc_id, mentions=tuple(mentions), ground_truth=ground_truth)
