"""Cluster formation (one DBSCAN routine, of which single linkage is the
``min_pts=1`` case), cluster ranking, and ranked-cluster disambiguation,
plus the end-to-end pipeline that derives its own distance threshold from
the density curve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import geo
from .corpus import CloudPoint, DocumentInput, PointCloud, to_point_cloud
from .errors import EmptyInputError
from .geo import condensed_distances
from .kfunction import DEFAULT_DELTA_D_M, KFunction, _blocked_k_function, with_cluster_distance
from .params import DELTA_D, EPSILON, MIN_PTS, UPPER_BOUND


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


# the two failures, one object each for every result: outcomes are frozen
# and compare by value
_NO_CANDIDATE = MentionOutcome(OutcomeStatus.NO_CANDIDATE_IN_ANY_CLUSTER)
_AMBIGUOUS = MentionOutcome(OutcomeStatus.AMBIGUOUS_IN_TOP_CLUSTER)


@dataclass(frozen=True)
class DisambiguationResult:
    """Per-mention outcomes plus the ranked clusters that produced them."""

    doc_id: str
    outcomes: dict[str, MentionOutcome]
    ranked_clusters: tuple[Cluster, ...]
    diagnostics: KFunction | None = None


def _component_labels(ii: np.ndarray, jj: np.ndarray, label: np.ndarray) -> np.ndarray:
    """The smallest point index in each point's connected component of the
    graph with edges (ii[k], jj[k]) and the edges already joined into
    ``label``, such labels (``np.arange`` before any), updated in place.

    Every label is a root (a point labelled with itself) at the start of a
    round. Each edge whose ends carry different roots hooks the larger root
    onto the smaller, and pointer jumping relabels every point with its
    root; rounds repeat until both ends of every edge agree (Shiloach and
    Vishkin 1982). A label never exceeds its point's index, so a component's
    one root is its smallest index.
    """
    while True:
        li, lj = label[ii], label[jj]
        differ = (li != lj).nonzero()[0]
        if not len(differ):
            return label
        li, lj = li.take(differ), lj.take(differ)
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while np.count_nonzero((jumped := label[label]) != label):
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
    labels = _dbscan_groups(cloud, epsilon, min_pts).tolist()
    groups: dict[int, list[CloudPoint]] = {}
    for point, label in zip(cloud.points, labels):
        if label < len(cloud):
            groups.setdefault(label, []).append(point)
    return [Cluster(members=tuple(g)) for g in groups.values()]


def _dbscan_groups(cloud: PointCloud, epsilon: float, min_pts: int) -> np.ndarray:
    """The DBSCAN cluster of each point of the cloud: the smallest index of
    a core point in it, or n for a noise point.

    A point is core when it and at least ``min_pts - 1`` others lie within
    ``epsilon``. Core points within epsilon of each other share a cluster;
    a point that is not core joins the cluster of its smallest-index core
    neighbour, or is noise if it has none. At ``min_pts`` 1 every point is
    core and the clusters are the single-linkage components at epsilon.
    The pairs within epsilon come a block at a time, the same on every
    call, from the edge source ``geo._pairs_within``. They are joined by
    whole-array operations (:func:`_component_labels`): at
    ``min_pts`` 1 in one pass, otherwise in two, the first counting each
    point's neighbours. Each pass asks the source, which keeps a one-block
    cloud's pairs and finds a larger cloud's anew, so no more than a
    block's worth of pairs is held. The labels do not depend on the order
    in which the pairs come.
    """
    n = len(cloud)
    if n == 0:
        raise EmptyInputError("cannot cluster an empty cloud")
    EPSILON.check(epsilon)
    MIN_PTS.check(min_pts)
    pairs = geo._pairs_within(cloud, epsilon)
    label = np.arange(n + 1)  # and n, the label of noise, its own root
    if min_pts == 1:
        for ii, jj in pairs():
            label = _component_labels(ii, jj, label)
        return label[:n]
    degree = np.ones(n, dtype=np.intp)  # each point lies within epsilon of itself
    for ii, jj in pairs():
        degree += np.bincount(ii, minlength=n) + np.bincount(jj, minlength=n)
    core = degree >= min_pts
    joins = np.where(core, label[:n], n)  # the point whose cluster each point joins
    for ii, jj in pairs():
        i_core, j_core = core[ii], core[jj]
        border = i_core != j_core  # a pair of a core point and a point that joins it
        np.minimum.at(joins, np.where(i_core, jj, ii)[border], np.where(i_core, ii, jj)[border])
        linked = i_core & j_core
        label = _component_labels(ii[linked], jj[linked], label)
    return label.take(joins)


def _mean_pairwise(members: tuple[CloudPoint, ...]) -> float:
    if len(members) < 2:
        return 0.0
    return float(np.mean(condensed_distances([p.location for p in members])))


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
            outcomes[mention.name] = _NO_CANDIDATE
            continue
        top = min(rank for rank, _ in ranks)
        in_top = [entry_id for rank, entry_id in ranks if rank == top]
        if len(in_top) == 1:
            outcomes[mention.name] = MentionOutcome(OutcomeStatus.RESOLVED, entry_id=in_top[0])
        else:
            outcomes[mention.name] = _AMBIGUOUS
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

    The curve, built with its threshold, counts the pair distances within
    ``upper_bound`` that ``geo._rings_within`` yields, of which none is
    stored past one block. The linkage joins every pair within the
    threshold, past ``upper_bound`` too, by :func:`_dbscan_groups` with
    ``min_pts`` 1.

    Both parameters are checked before the document is read. A document
    whose mentions hold a single candidate in total has no pair and no
    density curve: that candidate is its own cluster and resolves.
    """
    if upper_bound is not None:
        UPPER_BOUND.check(upper_bound)
    DELTA_D.check(delta_d)
    cloud = to_point_cloud(doc)
    n = len(cloud)
    if n == 0:
        raise EmptyInputError(f"document {doc.doc_id!r} has no candidates")
    if n == 1:
        return _resolve(doc, cloud, np.zeros(1, dtype=np.intp))
    kf = with_cluster_distance(_blocked_k_function(n, delta_d, *geo._rings_within(cloud, delta_d, upper_bound)))
    labels = _dbscan_groups(cloud, kf.cluster_distance, 1)
    return _resolve(doc, cloud, labels, kf)


def _resolve(
    doc: DocumentInput, cloud: PointCloud, labels: np.ndarray, diagnostics: KFunction | None = None
) -> DisambiguationResult:
    """``disambiguate(doc, rank_clusters(clusters))`` for ``cloud =
    to_point_cloud(doc)`` and the clusters of the labels ``labels`` of its
    points: the one path from labels to a result, for every algorithm. The
    result carries ``diagnostics``, the density pipeline's curve, as given.

    The labels follow ``_dbscan_groups``: a cluster's label is the index of
    one of its points, noise is n. They come from a clusterer, or from a
    heuristic's selection of one candidate per mention, whose chosen points
    form one cluster and the others are noise (see
    ``baselines._resolve_selection``).

    The points are grouped by label with one stable argsort, so each
    cluster's members come in ascending order, and the clusters are ranked
    with one ``np.lexsort``. A cluster's spread only breaks ties in size, so
    it is computed only for clusters of two or more points whose size
    another cluster shares (a singleton's is 0), from its members' pairs
    (see ``geo._member_distances``). Entry ids are unique, so the smallest
    one settles every remaining tie. The ranked clusters are built in one
    ``map`` of ``Cluster`` over the member tuples, sliced from one tuple of
    the grouped points, and their ranks. A mention resolves from the ranks
    of its run of points; the two failures are the shared outcomes
    ``_NO_CANDIDATE`` and ``_AMBIGUOUS``.
    """
    n = len(cloud)
    by_cluster = labels.argsort(kind="stable")  # members ascending, noise last
    counts = np.bincount(labels, minlength=n + 1)
    roots = counts[:n].nonzero()[0]  # one label per cluster
    sizes = counts.take(roots)
    ends = sizes.cumsum()
    starts = ends - sizes
    clustered = by_cluster[: n - counts[n]]  # every point but the noise
    smallest_id = np.minimum.reduceat(cloud._id_ranks.take(clustered), starts)
    spreads = np.zeros(len(roots))
    for k in ((sizes > 1) & (np.bincount(sizes).take(sizes) > 1)).nonzero()[0].tolist():
        spreads[k] = np.mean(geo._member_distances(cloud, clustered[starts[k] : ends[k]]))
    order = np.lexsort((smallest_id, spreads, -sizes))
    unclustered = len(order) + 1  # the rank of a noise point: past every cluster's
    rank_of_label = np.full(n + 1, unclustered)
    rank_of_label[roots.take(order)] = np.arange(1, unclustered)
    # each cluster's members, in rank order: a slice of the grouped points
    grouped = tuple(map(cloud.points.__getitem__, clustered.tolist()))
    members = map(grouped.__getitem__, map(slice, starts.take(order).tolist(), ends.take(order).tolist()))
    ranked = tuple(map(Cluster, members, range(1, unclustered)))

    point_rank = rank_of_label.take(labels).tolist()
    outcomes: dict[str, MentionOutcome] = {}
    end = 0
    for mention in doc.mentions:  # the cloud holds each mention's points in one run
        candidates = mention.candidates
        start, end = end, end + len(candidates)
        ranks = point_rank[start:end]
        top = min(ranks, default=unclustered)
        if top == unclustered:
            outcomes[mention.name] = _NO_CANDIDATE
        elif ranks.count(top) == 1:
            outcomes[mention.name] = MentionOutcome(OutcomeStatus.RESOLVED, candidates[ranks.index(top)].entry_id)
        else:
            outcomes[mention.name] = _AMBIGUOUS
    return DisambiguationResult(doc.doc_id, outcomes, ranked, diagnostics)
