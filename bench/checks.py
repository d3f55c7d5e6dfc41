"""Output checks for the benchmark, computed apart from the program.

Distances here come from the benchmark's own formulas, never from
``densityk.geo``: a plain-``math`` haversine for the literal evaluator and
a 3-D chord formula over numpy row blocks for large clouds. Both differ
from the program's arithmetic in the last bits, so a pair lying within
``EDGE_TOLERANCE_M`` of a ring edge or of the threshold may legitimately
fall on either side. The checks accept such pairs all on one side or all
on the other, and allow no other slack.

Every checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import math
import statistics

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

EARTH_RADIUS_M = 6_371_000.0
EDGE_TOLERANCE_M = 1e-6
# clusters whose mean pairwise distances differ by less than this may rank either way
RANK_TOLERANCE_M = 1e-6
BLOCK_ROWS = 256
RESOLVED = "resolved"
AMBIGUOUS = "failed_ambiguous_in_top_cluster"
NO_CANDIDATE = "failed_no_candidate_in_any_cluster"


def haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    p1, p2 = math.radians(a[0]), math.radians(b[0])
    h = (
        math.sin((p2 - p1) / 2) ** 2
        + math.cos(p1) * math.cos(p2) * math.sin(math.radians(b[1] - a[1]) / 2) ** 2
    )
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


class Cloud:
    """A document's candidates as the benchmark sees them: one point per
    (mention, candidate) in document order."""

    def __init__(self, doc) -> None:
        self.doc_id = doc.doc_id
        self.truth = dict(doc.ground_truth or {})
        self.entries: list[str] = []
        self.mention_of: dict[str, str] = {}
        self.candidates: dict[str, list[str]] = {}
        coords = []
        for mention in doc.mentions:
            self.candidates[mention.name] = [c.entry_id for c in mention.candidates]
            for c in mention.candidates:
                self.entries.append(c.entry_id)
                self.mention_of[c.entry_id] = mention.name
                coords.append((c.location.lat, c.location.lon))
        self.coords = [tuple(map(float, c)) for c in coords]
        self.index = {e: i for i, e in enumerate(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)

    def mean_pairwise(self, members: list[str]) -> float:
        if len(members) < 2:
            return 0.0
        pts = [self.coords[self.index[m]] for m in members]
        total = sum(haversine(a, b) for a, b in itertools.combinations(pts, 2))
        return total / (len(pts) * (len(pts) - 1) / 2)


class LiteralPairs:
    """Every pair distance as a Python float, evaluated one by one."""

    def __init__(self, cloud: Cloud) -> None:
        c = cloud.coords
        self.n = len(c)
        self.pairs = [
            (i, j, haversine(c[i], c[j])) for i in range(self.n) for j in range(i + 1, self.n)
        ]

    def ring_counts(self, delta_d: float) -> tuple[dict[int, int], list[tuple[int, int]]]:
        counts: dict[int, int] = {}
        near_edge = []
        for _, _, x in self.pairs:
            ring = max(1, math.ceil(x / delta_d))
            counts[ring] = counts.get(ring, 0) + 1
            m = round(x / delta_d)
            if m >= 1 and abs(x - m * delta_d) <= EDGE_TOLERANCE_M:
                near_edge.append((m, ring))
        return counts, near_edge

    def links(self, threshold: float) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Pairs surely within the threshold, and pairs within tolerance of it."""
        sure, unsure = [], []
        for i, j, x in self.pairs:
            if abs(x - threshold) <= EDGE_TOLERANCE_M:
                unsure.append((i, j))
            elif x <= threshold:
                sure.append((i, j))
        return sure, unsure

    def components(self, links: list[tuple[int, int]]) -> list[list[int]]:
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in links:
            parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(self.n):
            groups.setdefault(find(i), []).append(i)
        return list(groups.values())


class BlockPairs:
    """Pair distances from 3-D unit-vector chords, a block of rows at a time,
    so no n-by-n matrix is held."""

    def __init__(self, cloud: Cloud) -> None:
        coords = np.radians(np.array(cloud.coords, dtype=np.float64))
        lat, lon = coords[:, 0], coords[:, 1]
        self.u = np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1)
        self.n = len(cloud)

    def _blocks(self):
        for a in range(0, self.n - 1, BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, self.n)
            chord = np.linalg.norm(self.u[a:b, None, :] - self.u[None, a + 1 :, :], axis=2)
            x = 2 * EARTH_RADIUS_M * np.arcsin(np.minimum(chord / 2, 1.0))
            ii, jj = np.nonzero(np.arange(a, b)[:, None] < np.arange(a + 1, self.n)[None, :])
            yield ii + a, jj + a + 1, x[ii, jj]

    def ring_counts(self, delta_d: float) -> tuple[dict[int, int], list[tuple[int, int]]]:
        counts = np.zeros(0, dtype=np.int64)
        near_edge = []
        for _, _, x in self._blocks():
            rings = np.maximum(np.ceil(x / delta_d).astype(np.int64), 1)
            block = np.bincount(rings)
            if len(block) > len(counts):
                counts = np.pad(counts, (0, len(block) - len(counts)))
            counts[: len(block)] += block
            m = np.rint(x / delta_d)
            near = (m >= 1) & (np.abs(x - m * delta_d) <= EDGE_TOLERANCE_M)
            near_edge += list(zip(m[near].astype(int).tolist(), rings[near].tolist()))
        return {int(r): int(c) for r, c in enumerate(counts) if c}, near_edge

    def links(self, threshold: float) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        sure, unsure = [], []
        for ii, jj, x in self._blocks():
            edge = np.abs(x - threshold) <= EDGE_TOLERANCE_M
            within = (x <= threshold) & ~edge
            sure += zip(ii[within].tolist(), jj[within].tolist())
            unsure += zip(ii[edge].tolist(), jj[edge].tolist())
        return sure, unsure

    def components(self, links: list[tuple[int, int]]) -> list[list[int]]:
        ii = np.array([i for i, _ in links], dtype=np.int64)
        jj = np.array([j for _, j in links], dtype=np.int64)
        graph = coo_matrix((np.ones(len(links)), (ii, jj)), shape=(self.n, self.n))
        _, labels = connected_components(graph, directed=False)
        groups: dict[int, list[int]] = {}
        for i, label in enumerate(labels.tolist()):
            groups.setdefault(label, []).append(i)
        return list(groups.values())


def pair_distances(cloud: Cloud, literal: bool) -> LiteralPairs | BlockPairs:
    return LiteralPairs(cloud) if literal else BlockPairs(cloud)


def _two_sigma(counts: dict[int, int], n: int, delta_d: float) -> float:
    """The annular density curve and the 2-sigma rule, from the definitions."""
    curve = []
    for ring in sorted(r for r, c in counts.items() if c > 0):
        d = ring * delta_d
        area = math.pi * (d * d - (d - delta_d) * (d - delta_d))
        curve.append((d, 2.0 * counts[ring] / (n * area)))
    ks = [k for _, k in curve]
    cut = statistics.fmean(ks) + 2 * statistics.pstdev(ks)
    peak = ks.index(max(ks))
    for d, k in curve[peak + 1 :]:
        if k <= cut:
            return d
    return curve[peak][0]


def expected_thresholds(pairs, delta_d: float) -> set[float]:
    """The derived threshold, with near-edge pairs counted as computed, all
    in the ring below their edge, and all in the ring above it."""
    counts, near_edge = pairs.ring_counts(delta_d)
    out = {_two_sigma(counts, pairs.n, delta_d)}
    for side in (0, 1):
        moved = dict(counts)
        for edge, ring in near_edge:
            moved[ring] -= 1
            moved[edge + side] = moved.get(edge + side, 0) + 1
        out.add(_two_sigma(moved, pairs.n, delta_d))
    return out


def expected_partitions(cloud: Cloud, pairs, threshold: float) -> list[set[frozenset[str]]]:
    """Single-linkage components at the threshold, with pairs at the
    threshold (within tolerance) all joined and all kept apart."""
    sure, unsure = pairs.links(threshold)
    variants = [sure] if not unsure else [sure, sure + unsure]
    return [
        {frozenset(cloud.entries[i] for i in group) for group in pairs.components(links)}
        for links in variants
    ]


def check_ranking(cloud: Cloud, clusters: list[dict]) -> list[str]:
    """Ranks run 1..k; size descending, then mean pairwise distance
    ascending, then smallest entry id."""
    problems = []
    if [c["rank"] for c in clusters] != list(range(1, len(clusters) + 1)):
        problems.append("cluster ranks are not 1..k in order")
    for a, b in zip(clusters, clusters[1:]):
        ea, eb = a["entries"], b["entries"]
        if len(ea) != len(eb):
            if len(ea) < len(eb):
                problems.append(f"rank {a['rank']} is smaller than rank {b['rank']}")
            continue
        ma, mb = cloud.mean_pairwise(ea), cloud.mean_pairwise(eb)
        if ma > mb + RANK_TOLERANCE_M:
            problems.append(f"rank {a['rank']} is less compact than rank {b['rank']}")
        elif ma == mb and min(ea) > min(eb):
            problems.append(f"ranks {a['rank']} and {b['rank']} break the entry-id tie-break")
    return problems


def expected_outcomes(cloud: Cloud, clusters: list[dict]) -> dict[str, dict]:
    """The top-cluster rule applied to ranked clusters."""
    rank_of = {e: c["rank"] for c in clusters for e in c["entries"]}
    out = {}
    for name, candidates in cloud.candidates.items():
        ranked = [(rank_of[e], e) for e in candidates if e in rank_of]
        if not ranked:
            out[name] = {"status": NO_CANDIDATE}
            continue
        top = min(r for r, _ in ranked)
        in_top = [e for r, e in ranked if r == top]
        if len(in_top) == 1:
            out[name] = {"status": RESOLVED, "entry_id": in_top[0]}
        else:
            out[name] = {"status": AMBIGUOUS}
    return out


def check_outcomes(cloud: Cloud, result: dict, clusters: list[dict]) -> list[str]:
    problems = []
    outcomes = result["outcomes"]
    if set(outcomes) != set(cloud.candidates):
        problems.append("outcomes do not name exactly the document's mentions")
        return problems
    for name, outcome in outcomes.items():
        entry = outcome.get("entry_id")
        if entry is not None and cloud.mention_of.get(entry) != name:
            problems.append(f"mention {name!r} resolved to {entry!r}, not one of its candidates")
    expected = expected_outcomes(cloud, clusters)
    for name in sorted(outcomes):
        if outcomes[name] != expected[name]:
            problems.append(f"mention {name!r}: {outcomes[name]} breaks the top-cluster rule")
    return problems


def check_density_result(cloud: Cloud, pairs, result: dict, delta_d: float) -> list[str]:
    """Threshold, partition, ranking and outcomes of one density-pipeline
    result (as ``densityk.export.result_to_dict`` gives it)."""
    threshold = result.get("cluster_distance_m")
    expected = expected_thresholds(pairs, delta_d)
    if threshold not in expected:
        return [f"{cloud.doc_id}: threshold {threshold} m, expected {sorted(expected)}"]
    clusters = result["clusters"]
    partition = {frozenset(c["entries"]) for c in clusters}
    if sum(len(c["entries"]) for c in clusters) != len(cloud) or partition not in (
        expected_partitions(cloud, pairs, threshold)
    ):
        return [f"{cloud.doc_id}: clusters are not the single-linkage components at {threshold} m"]
    problems = check_ranking(cloud, clusters) + check_outcomes(cloud, result, clusters)
    return [f"{cloud.doc_id}: {p}" for p in problems]


def precision(cloud: Cloud, outcomes: dict[str, dict]) -> float:
    """Share of ground-truth mentions resolved to their true entry."""
    correct = sum(
        1
        for name, entry in cloud.truth.items()
        if outcomes[name]["status"] == RESOLVED and outcomes[name]["entry_id"] == entry
    )
    return correct / len(cloud.truth)


def check_planted_construction(cloud: Cloud, largest_epsilon: float) -> list[str]:
    """The grid corpus's promise, on which the expected OMD, DTUR and DBSCAN
    outcomes rest: the planted points lie within 2 km of each other, every
    pair that has a decoy is longer than the largest DBSCAN epsilon, and the
    planted pair-distance sum is below any such pair."""
    planted = set(cloud.truth.values())
    pts = [cloud.coords[cloud.index[e]] for e in sorted(planted)]
    planted_pairs = [haversine(a, b) for a, b in itertools.combinations(pts, 2)]
    nearest_decoy_pair = min(
        haversine(cloud.coords[i], cloud.coords[j])
        for i in range(len(cloud))
        for j in range(i + 1, len(cloud))
        if cloud.entries[i] not in planted or cloud.entries[j] not in planted
    )
    problems = []
    if max(planted_pairs) > 2_000.0:
        problems.append(f"planted points {max(planted_pairs):.0f} m apart")
    if nearest_decoy_pair <= largest_epsilon:
        problems.append(f"a decoy pair only {nearest_decoy_pair:.0f} m apart")
    if sum(planted_pairs) >= nearest_decoy_pair:
        problems.append(f"planted pair sum {sum(planted_pairs):.0f} m reaches a decoy pair")
    return [f"{cloud.doc_id}: {p}" for p in problems]
