"""Cluster formation (one DBSCAN routine, of which single linkage is the
``min_pts=1`` case), cluster ranking, and ranked-cluster disambiguation,
plus the end-to-end pipeline that derives its own distance threshold from
the density curve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import geo
from .corpus import CloudPoint, DocumentInput, PointCloud, to_point_cloud
from .errors import EmptyInputError
from .geo import condensed_distances, condensed_pairs
from .kfunction import (
    DEFAULT_DELTA_D_M,
    KFunction,
    _blocked_k_function,
    with_cluster_distance,
)


@dataclass(frozen=True)
class Cluster:
    """A set of cloud points; rank is 1-based after ranking."""

    members: tuple[CloudPoint, ...]
    rank: int | None = None

    def __len__(self) -> int:
        return len(self.members)


class OutcomeStatus(enum.Enum):
    RESOLVED = "resolved"
    AMBIGUOUS_IN_TOP_CLUSTER = "failed_ambiguous_in_top_cluster"
    NO_CANDIDATE_IN_ANY_CLUSTER = "failed_no_candidate_in_any_cluster"


@dataclass(frozen=True)
class MentionOutcome:
    """Outcome for one mention: a chosen entry or a typed failure."""

    status: OutcomeStatus
    entry_id: str | None = None

    @property
    def resolved(self) -> bool:
        return self.status is OutcomeStatus.RESOLVED


@dataclass(frozen=True)
class DisambiguationResult:
    """Per-mention outcomes plus the ranked clusters that produced them."""

    doc_id: str
    outcomes: dict[str, MentionOutcome]
    ranked_clusters: tuple[Cluster, ...]
    diagnostics: KFunction | None = None


def _component_labels(
    ii: np.ndarray, jj: np.ndarray, n: int, label: np.ndarray | None = None
) -> np.ndarray:
    """The smallest point index in each point's connected component of the
    graph on n points with edges (ii[k], jj[k]).

    ``label``, when given, holds such labels for edges already joined (it
    is updated in place): the result is then the components of those edges
    and these together.

    Every label is a root (a point labelled with itself) at the start of a
    round. Each edge whose ends carry different roots hooks the larger root
    onto the smaller, and pointer jumping relabels every point with its
    root; rounds repeat until both ends of every edge agree (Shiloach and
    Vishkin 1982). A label never exceeds its point's index, so a component's
    one root is its smallest index.
    """
    if label is None:
        label = np.arange(n)
    while True:
        li, lj = label[ii], label[jj]
        differ = li != lj
        if not differ.any():
            return label
        li, lj = li[differ], lj[differ]
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def form_clusters(cloud: PointCloud, cluster_distance: float) -> list[Cluster]:
    """Connected components of the graph joining points within the threshold.

    Single linkage: two points share a cluster iff a chain of hops, each of
    haversine length <= cluster_distance, connects them. Singletons allowed.
    """
    return dbscan(cloud, cluster_distance, 1)


def dbscan(cloud: PointCloud, epsilon: float, min_pts: int) -> list[Cluster]:
    """DBSCAN over haversine distance.

    A point is core iff at least ``min_pts`` points (itself included) lie
    within ``epsilon``. Clusters are the connected components of core
    points; a border point joins the cluster of its first core neighbor in
    input order; everything else is noise and belongs to no cluster.
    Clusters come in order of their first point, members in input order.
    """
    labels = _dbscan_groups(condensed_distances(cloud), len(cloud), epsilon, min_pts).tolist()
    groups: dict[int, list[CloudPoint]] = {}
    for point, label in zip(cloud.points, labels):
        if label < len(cloud):
            groups.setdefault(label, []).append(point)
    return [Cluster(members=tuple(g)) for g in groups.values()]


def _dbscan_groups(distances: np.ndarray, n: int, epsilon: float, min_pts: int) -> np.ndarray:
    """The DBSCAN cluster of each of n points, from their condensed pair
    distances (see ``geo.condensed_distances``): the smallest index of a
    core point in it, or n for a noise point.

    A point is core when it and at least ``min_pts - 1`` others lie within
    ``epsilon``. Core points within epsilon of each other share a cluster;
    a point that is not core joins the cluster of its smallest-index core
    neighbour, or is noise if it has none. At ``min_pts`` 1 every point is
    core and the clusters are the single-linkage components at epsilon.
    The edges within epsilon are found, filtered and joined by whole-array
    operations (:func:`_component_labels`).
    """
    if n == 0:
        raise EmptyInputError("cannot cluster an empty cloud")
    if not epsilon > 0:  # NaN too
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    ii, jj = condensed_pairs(np.flatnonzero(distances <= epsilon), n)
    if min_pts == 1:
        return _component_labels(ii, jj, n)
    core = np.bincount(ii, minlength=n) + np.bincount(jj, minlength=n) + 1 >= min_pts
    joins = np.where(core, np.arange(n), n)  # the point whose cluster each point joins
    i_border, j_border = core[jj] & ~core[ii], core[ii] & ~core[jj]
    np.minimum.at(joins, ii[i_border], jj[i_border])
    np.minimum.at(joins, jj[j_border], ii[j_border])
    linked = core[ii] & core[jj]
    roots = _component_labels(ii[linked], jj[linked], n)
    return np.append(roots, n)[joins]


def _mean_pairwise(members: tuple[CloudPoint, ...]) -> float:
    if len(members) < 2:
        return 0.0
    return float(np.mean(condensed_distances([p.location for p in members])))


def _spread(cloud: PointCloud, members: np.ndarray) -> float:
    # _mean_pairwise of the points at the ascending indices ``members``, from
    # the cloud's arrays: the same distances, in the same order
    return float(np.mean(geo._condensed(*(a[members] for a in cloud._radians))))


def rank_clusters(clusters: list[Cluster]) -> list[Cluster]:
    """Order clusters by member count descending; ties go to the spatially
    tighter cluster (smaller mean pairwise member distance), then to the
    lexicographically smallest member entry_id. Ranks are 1-based.
    """
    spreads = [_mean_pairwise(c.members) for c in clusters]
    order = sorted(
        range(len(clusters)),
        key=lambda k: (-len(clusters[k]), spreads[k], min(p.entry_id for p in clusters[k].members)),
    )
    return [Cluster(members=clusters[k].members, rank=r + 1) for r, k in enumerate(order)]


def disambiguate(doc: DocumentInput, ranked: list[Cluster]) -> DisambiguationResult:
    """Resolve each mention against the ranked clusters.

    A mention's top-cluster is the best-ranked cluster containing at least
    one of its candidates. Exactly one candidate there resolves the
    mention; several is a typed failure; a candidate in no cluster at all
    (possible when a clusterer leaves noise) is the other failure.
    """
    rank_of_entry: dict[str, int] = {}
    for cluster in ranked:
        assert cluster.rank is not None
        for point in cluster.members:
            rank_of_entry[point.entry_id] = cluster.rank

    outcomes: dict[str, MentionOutcome] = {}
    for mention in doc.mentions:
        ranks = [
            (rank_of_entry[c.entry_id], c.entry_id)
            for c in mention.candidates
            if c.entry_id in rank_of_entry
        ]
        if not ranks:
            outcomes[mention.name] = MentionOutcome(OutcomeStatus.NO_CANDIDATE_IN_ANY_CLUSTER)
            continue
        top = min(rank for rank, _ in ranks)
        in_top = [entry_id for rank, entry_id in ranks if rank == top]
        if len(in_top) == 1:
            outcomes[mention.name] = MentionOutcome(OutcomeStatus.RESOLVED, entry_id=in_top[0])
        else:
            outcomes[mention.name] = MentionOutcome(OutcomeStatus.AMBIGUOUS_IN_TOP_CLUSTER)
    return DisambiguationResult(
        doc_id=doc.doc_id, outcomes=outcomes, ranked_clusters=tuple(ranked)
    )


def densityk_pipeline(
    doc: DocumentInput,
    delta_d: float = DEFAULT_DELTA_D_M,
    upper_bound: float | None = None,
) -> DisambiguationResult:
    """Full density-driven run: point cloud, pair distances, density curve,
    derived threshold, single-linkage clusters, ranking, disambiguation.

    A cloud whose pairs fit one row block (``geo._ONE_BLOCK_N`` points) has
    its one distance vector computed once: the curve reads the pairs within
    ``upper_bound``, the linkage every pair (pairs in (upper_bound,
    threshold] are still edges). A larger cloud is streamed in two passes
    over its row blocks that store no pair distance: the first counts the
    rings of the curve, the second joins the pairs within the threshold
    into components, both through the chord kernel with the haversine's
    decisions (see ``geo._chord_distances``).

    A document whose mentions hold a single candidate in total has no pair
    and no density curve: that candidate is its own cluster and resolves.
    """
    if not (upper_bound is None or upper_bound >= 0):
        raise ValueError(f"upper_bound must be >= 0, got {upper_bound}")
    cloud = to_point_cloud(doc)
    n = len(cloud)
    if n == 0:
        raise EmptyInputError(f"document {doc.doc_id!r} has no candidates")
    if n == 1:
        return _resolve(doc, cloud, np.zeros(1, dtype=np.intp))
    if n <= geo._ONE_BLOCK_N:
        distances = condensed_distances(cloud)
        in_bound = distances if upper_bound is None else distances[distances <= upper_bound]
        largest = float(in_bound.max()) if len(in_bound) else 0.0
        kf = with_cluster_distance(_blocked_k_function((in_bound,), n, delta_d, largest, len(in_bound)))
        labels = _dbscan_groups(distances, n, kf.cluster_distance, 1)
    else:
        kf = with_cluster_distance(_streamed_curve(cloud, delta_d, upper_bound))
        labels = _streamed_components(cloud, kf.cluster_distance)
    return replace(_resolve(doc, cloud, labels), diagnostics=kf)


def _streamed_curve(cloud: PointCloud, delta_d: float, upper_bound: float | None) -> KFunction:
    # pass one: the annular curve of the pairs within upper_bound, a row block at a time
    n = len(cloud)
    in_bound = (
        geo._chord_distances(cloud._radians, cloud._half_units, r0, r1, delta_d, upper_bound)
        for r0, r1 in geo._row_blocks(n)
    )
    largest = geo._diameter_bound(cloud._radians)
    if upper_bound is not None:
        largest = min(largest, upper_bound)
    return _blocked_k_function(in_bound, n, delta_d, largest, n * (n - 1) // 2)


def _streamed_components(cloud: PointCloud, threshold: float) -> np.ndarray:
    # pass two: _dbscan_groups(distances, n, threshold, 1), each row block's
    # edges hooked into the labels so far
    n = len(cloud)
    label = np.arange(n)
    for r0, r1 in geo._row_blocks(n):
        ii, jj = geo._chord_pairs_within(cloud._radians, cloud._half_units, r0, r1, threshold)
        if len(ii):
            label = _component_labels(ii, jj, n, label)
    return label


def _resolve(doc: DocumentInput, cloud: PointCloud, labels: np.ndarray) -> DisambiguationResult:
    """``disambiguate(doc, rank_clusters(clusters))`` for ``cloud =
    to_point_cloud(doc)`` and the clusters of the labels ``labels`` of its
    points: the one path from labels to a result, for every algorithm.

    The labels follow ``_dbscan_groups``: a cluster's label is the index of
    one of its points, noise is n. They come from a clusterer, or from a
    heuristic's selection of one candidate per mention, whose chosen points
    form one cluster and the others are noise (see
    ``baselines._resolve_selection``).

    A cluster's spread only breaks ties in size, so it is computed only for
    clusters of two or more points whose size another cluster shares (a
    singleton's is 0), from its members' coordinates. Entry ids are unique,
    so the smallest one settles every remaining tie.
    """
    n = len(cloud)
    by_cluster = np.argsort(labels, kind="stable")  # members ascending, noise last
    counts = np.bincount(labels, minlength=n + 1)[:n]
    roots = np.flatnonzero(counts)  # one label per cluster
    sizes = counts[roots]
    starts = np.cumsum(sizes) - sizes
    clustered = by_cluster[: sizes.sum()]  # every point but the noise
    smallest_id = np.minimum.reduceat(cloud._id_ranks[clustered], starts)
    spreads = np.zeros(len(roots))
    for k in np.flatnonzero((sizes > 1) & (np.bincount(sizes)[sizes] > 1)).tolist():
        spreads[k] = _spread(cloud, by_cluster[starts[k] : starts[k] + sizes[k]])
    order = np.lexsort((smallest_id, spreads, -sizes))
    unclustered = len(order) + 1  # the rank of a noise point: past every cluster's
    rank_of_label = np.full(n + 1, unclustered)
    rank_of_label[roots[order]] = np.arange(1, len(order) + 1)
    point_rank = rank_of_label[labels].tolist()
    grouped = [cloud.points[i] for i in clustered.tolist()]
    ranked = tuple(
        Cluster(members=tuple(grouped[start : start + size]), rank=rank)
        for rank, (start, size) in enumerate(zip(starts[order].tolist(), sizes[order].tolist()), 1)
    )

    outcomes: dict[str, MentionOutcome] = {}
    end = 0
    for mention in doc.mentions:  # the cloud holds each mention's points in one run
        start, end = end, end + len(mention.candidates)
        ranks = point_rank[start:end]
        top = min(ranks, default=unclustered)
        if top == unclustered:
            outcomes[mention.name] = MentionOutcome(OutcomeStatus.NO_CANDIDATE_IN_ANY_CLUSTER)
        elif ranks.count(top) == 1:
            chosen = mention.candidates[ranks.index(top)].entry_id
            outcomes[mention.name] = MentionOutcome(OutcomeStatus.RESOLVED, entry_id=chosen)
        else:
            outcomes[mention.name] = MentionOutcome(OutcomeStatus.AMBIGUOUS_IN_TOP_CLUSTER)
    return DisambiguationResult(doc_id=doc.doc_id, outcomes=outcomes, ranked_clusters=ranked)
