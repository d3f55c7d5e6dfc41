import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from densityk import (
    CandidateEntry,
    DocumentInput,
    EmptyInputError,
    GeoPoint,
    OutcomeStatus,
    PlaceMention,
    compute_k_function,
    dbscan,
    densityk_pipeline,
    disambiguate,
    form_clusters,
    pairwise_distances,
    rank_clusters,
    result_to_dict,
    to_canonical_json,
    with_cluster_distance,
)
from densityk import clustering, geo
from densityk.clustering import (
    DisambiguationResult,
    MentionOutcome,
    _component_labels,
    _dbscan_groups,
    _mean_pairwise,
    _resolve,
)
from densityk.corpus import PointCloud, to_point_cloud
from densityk.geo import BLOCK_ELEMENTS, _member_distances, condensed_distances, condensed_index
from densityk.synth import SynthSpec, synth_generate
from conftest import make_cloud, make_document, random_coords
from oracles import label_propagation_components, union_find_dbscan_groups
from test_corpus import M_PER_DEG


def partition(clusters) -> set[frozenset[str]]:
    return {frozenset(p.entry_id for p in c.members) for c in clusters}


class TestFormClusters:
    def test_direct_edge(self):
        cloud = make_cloud([(0, 0), (0, 10 / M_PER_DEG)])
        clusters = form_clusters(cloud, 100.0)
        assert len(clusters) == 1
        assert len(clusters[0]) == 2

    def test_chain_transitivity(self):
        cloud = make_cloud([(0, 0), (0, 90 / M_PER_DEG), (0, 180 / M_PER_DEG)])
        clusters = form_clusters(cloud, 100.0)
        assert len(clusters) == 1
        assert len(clusters[0]) == 3

    def test_split_beyond_threshold(self):
        cloud = make_cloud([(0, 0), (0, 90 / M_PER_DEG), (0, 300 / M_PER_DEG)])
        assert sorted(len(c) for c in form_clusters(cloud, 100.0)) == [1, 2]

    def test_empty_cloud(self):
        with pytest.raises(EmptyInputError):
            form_clusters(PointCloud(), 100.0)

    def test_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            form_clusters(make_cloud([(0, 0)]), 0.0)
        with pytest.raises(ValueError):
            form_clusters(make_cloud([(0, 0)]), math.nan)

    def test_matches_component_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 50))
            coords = [
                (float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180)))
                for _ in range(n)
            ]
            # mix in tight pairs so thresholds actually bind
            for _ in range(n // 4):
                i = int(rng.integers(0, len(coords)))
                lat, lon = coords[i]
                coords.append((lat + float(rng.normal(0, 0.01)), lon + float(rng.normal(0, 0.01))))
            threshold = float(rng.uniform(1e3, 5e6))
            cloud = make_cloud(coords)
            ours = {
                frozenset(int(p.entry_id[1:]) for p in c.members)
                for c in form_clusters(cloud, threshold)
            }
            oracle = set(label_propagation_components(coords, threshold))
            assert ours == oracle


def zigzag(indices: list[int]) -> list[int]:
    # last, first, second last, second, ...: every step crosses the middle
    out = []
    while indices:
        out.append(indices.pop())
        if indices:
            out.append(indices.pop(0))
    return out


def path(order: list[int]) -> list[tuple[int, int]]:
    return list(zip(order, order[1:]))


def groups_of(labels: np.ndarray) -> list[list[int]]:
    """The point indices of each cluster of ``_dbscan_groups`` labels,
    ascending, the clusters in order of their first point; noise in none."""
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        if label < len(labels):
            groups.setdefault(label, []).append(i)
    return list(groups.values())


def graph_distances(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    # the condensed vector of n points in which exactly the edges lie within 1.5
    distances = np.full(n * (n - 1) // 2, 2.0)
    for a, b in edges:
        distances[condensed_index(min(a, b), max(a, b), n)] = 1.0
    return distances


def vector_cloud(distances: np.ndarray, n: int) -> PointCloud:
    """A one-block cloud of n points that keeps ``distances`` as its
    condensed vector: the linkage's edge source reads that vector's pairs."""
    assert n <= geo._ONE_BLOCK_N and len(distances) == n * (n - 1) // 2
    cloud = make_cloud([(0.0, 0.0)] * n)
    cloud.__dict__["_distances"] = distances
    return cloud


class TestComponents:
    # each graph but the last two needs more than one hooking round: a hook
    # joins only roots, and these graphs chain roots through larger indices
    GRAPHS = {
        "zigzag path": (13, path(zigzag(list(range(13)))), [list(range(13))]),
        "star on the last index": (9, [(i, 8) for i in range(8)], [list(range(9))]),
        "interleaved chains": (
            16,
            path(zigzag(list(range(0, 16, 2)))) + path(zigzag(list(range(1, 16, 2)))),
            [list(range(0, 16, 2)), list(range(1, 16, 2))],
        ),
        "isolated points": (7, [(5, 1), (1, 3)], [[0], [1, 3, 5], [2], [4], [6]]),
        "one point": (1, [], [[0]]),
    }

    @pytest.mark.parametrize("graph", list(GRAPHS))
    def test_graphs_needing_several_hook_rounds(self, graph):
        n, edges, groups = self.GRAPHS[graph]
        ii = np.array([min(e) for e in edges], dtype=np.int64)
        jj = np.array([max(e) for e in edges], dtype=np.int64)
        smallest = {i: g[0] for g in groups for i in g}
        assert _component_labels(ii, jj, np.arange(n)).tolist() == [smallest[i] for i in range(n)]
        assert groups_of(_dbscan_groups(vector_cloud(graph_distances(n, edges), n), 1.5, 1)) == groups

    @pytest.mark.parametrize("min_pts", range(1, 7))
    def test_dbscan_groups_equal_union_find(self, min_pts):
        rng = np.random.default_rng(40 + min_pts)
        for _ in range(60):
            n = int(rng.integers(1, 45))
            # coarse values so that some pairs lie exactly at epsilon
            distances = np.round(rng.uniform(0.0, 1.0, n * (n - 1) // 2), 2)
            epsilon = float(np.round(rng.uniform(0.02, 0.3), 2))
            want = union_find_dbscan_groups(distances.tolist(), n, epsilon, min_pts)
            assert groups_of(_dbscan_groups(vector_cloud(distances, n), epsilon, min_pts)) == want


def vector_spread(distances: np.ndarray, n: int, members: list[int]) -> float:
    # the mean distance of the members' pairs, read from the cloud's vector
    idx = np.asarray(members)
    a, b = np.triu_indices(len(idx), k=1)
    return float(np.mean(distances[condensed_index(idx[a], idx[b], n)]))


class TestSharedDistanceVector:
    def test_spreads_read_from_vector_equal_recomputed_ones(self):
        rng = np.random.default_rng(17)
        cloud = make_cloud(random_coords(rng, 700))
        distances = condensed_distances([p.location for p in cloud.points])
        groups = groups_of(_dbscan_groups(cloud, 50_000.0, 1))
        assert max(len(g) for g in groups) > 50
        for g in (g for g in groups if len(g) > 1):
            members = tuple(cloud.points[i] for i in g)
            spread = float(np.mean(_member_distances(cloud, np.asarray(g))))
            assert spread == vector_spread(distances, len(cloud), g) == _mean_pairwise(members)

    @pytest.mark.parametrize("min_pts", [3, 5])
    def test_dbscan_spreads_read_from_vector_equal_recomputed_ones(self, min_pts):
        # DBSCAN clusters hold border points and skip noise, so their members
        # are not runs of the cloud's indices
        rng = np.random.default_rng(23 + min_pts)
        cloud = make_cloud(random_coords(rng, 700))
        distances = condensed_distances([p.location for p in cloud.points])
        epsilon = 500_000.0
        groups = groups_of(_dbscan_groups(cloud, epsilon, min_pts))
        core = (squareform(distances) <= epsilon).sum(axis=1) >= min_pts  # the zero diagonal counts self
        clustered = [i for g in groups for i in g]
        assert not core[clustered].all()  # some border points
        assert len(clustered) < len(cloud)  # some noise
        assert max(len(g) for g in groups) > 50
        for g in (g for g in groups if len(g) > 1):
            members = tuple(cloud.points[i] for i in g)
            spread = float(np.mean(_member_distances(cloud, np.asarray(g))))
            assert spread == vector_spread(distances, len(cloud), g) == _mean_pairwise(members)


# Spots mirrored about the equator: a pair of northern spots lies exactly as
# far apart as the mirrored southern pair, so clusters on them can tie in
# size and in spread. 0-1 and 3-4 are 110 m apart, 0-2 and 3-5 1.1 km, the
# two hemispheres 2,200 km, the last two spots 1.7 km.
SPOTS = [
    (10.0, 20.0), (10.0, 20.001), (10.0, 20.01),
    (-10.0, 20.0), (-10.0, 20.001), (-10.0, 20.01),
    (40.0, -100.0), (40.0, -99.98),
]


def spot_document(mentions: list[list[int]], ids: list[str]) -> DocumentInput:
    """Mention ``m{k}`` holds a candidate at each listed spot; the entry ids
    are ``ids`` in document order."""
    ids = iter(ids)
    return DocumentInput(
        doc_id="spots",
        mentions=tuple(
            PlaceMention(
                name=f"m{k}",
                candidates=tuple(
                    CandidateEntry(next(ids), f"m{k}", GeoPoint(*SPOTS[spot]), "") for spot in spots
                ),
            )
            for k, spots in enumerate(mentions)
        ),
    )


class TestResolveFromLabels:
    """``_resolve`` ranks and resolves from cluster labels; it equals the
    public stages, which build every cluster and recompute every spread."""

    def test_mirrored_pairs_have_equal_spreads(self):
        distances = condensed_distances([GeoPoint(*xy) for xy in SPOTS])
        n = len(SPOTS)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            north = distances[condensed_index(a, b, n)]
            assert north == distances[condensed_index(a + 3, b + 3, n)] > 0

    def test_entry_id_breaks_a_tie_in_size_and_spread(self):
        # two clusters of two at 110 m and a singleton: the southern pair
        # holds the smallest entry id and ranks first
        doc = spot_document([[0, 3], [1, 4], [6]], ["e5", "e2", "e4", "e3", "e9"])
        cloud = to_point_cloud(doc)
        got = _resolve(doc, cloud, _dbscan_groups(cloud, 150.0, 1))
        assert got == disambiguate(doc, rank_clusters(dbscan(cloud, 150.0, 1)))
        assert [[p.entry_id for p in c.members] for c in got.ranked_clusters] == [
            ["e2", "e3"], ["e5", "e4"], ["e9"]
        ]
        assert got.outcomes["m0"] == MentionOutcome(OutcomeStatus.RESOLVED, "e2")
        assert got.outcomes["m1"] == MentionOutcome(OutcomeStatus.RESOLVED, "e3")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, len(SPOTS) - 1), min_size=1, max_size=5), min_size=1, max_size=7),
        st.sampled_from([150.0, 1_500.0, 3e6, 2e7]),
        st.integers(1, 6),
        st.randoms(use_true_random=False),
    )
    @example([[0, 3], [1, 4], [6]], 150.0, 1, None)  # tie in size and spread
    @example([[3, 0], [5, 1]], 1_500.0, 1, None)  # the tighter pair ranks first
    @example([[0, 0], [3, 3], [6, 7]], 150.0, 1, None)  # coincident pairs: spreads 0
    @example([[0, 6], [3, 7]], 150.0, 2, None)  # noise beside clusters
    @example([[0], [6]], 150.0, 3, None)  # nothing but noise
    def test_equals_public_stages_and_union_find(self, mentions, epsilon, min_pts, rnd):
        ids = [f"e{i:02d}" for i in range(sum(map(len, mentions)))]
        if rnd is not None:
            rnd.shuffle(ids)
        doc = spot_document(mentions, ids)
        cloud = to_point_cloud(doc)
        distances = condensed_distances(cloud)
        n = len(cloud)
        labels = _dbscan_groups(cloud, epsilon, min_pts)
        assert groups_of(labels) == union_find_dbscan_groups(distances.tolist(), n, epsilon, min_pts)
        want = disambiguate(doc, rank_clusters(dbscan(cloud, epsilon, min_pts)))
        assert _resolve(doc, cloud, labels) == want

    def test_past_one_block_with_noise_and_ties(self):
        # more than 257 points at min_pts 5: groups of 5, 6 (two pairs of
        # them mirrored about the equator, so tied in size and spread), 7
        # and 9 points within about 200 m, groups of 3 that stay noise, and
        # scattered single points; one mention holds noise alone, another
        # two points of the largest group
        rng = np.random.default_rng(28)

        def group(size, centre=None):
            lat, lon = centre or (float(rng.uniform(-70, 70)), float(rng.uniform(-180, 180)))
            return [(lat + float(dy), lon + float(dx)) for dy, dx in rng.uniform(-0.001, 0.001, (size, 2))]

        groups = [group(size) for size in [5] * 30 + [7] * 6 + [9] * 3 + [3] * 10]
        for _ in range(2):
            six = group(6)
            groups += [six, [(-lat, lon) for lat, lon in six]]
        singles = [(float(lat), float(lon)) for lat, lon in zip(rng.uniform(-80, 80, 60), rng.uniform(-180, 180, 60))]
        largest = groups[36]
        mentions = {"noise": singles[:3], "tied": largest[:2]}
        rest = singles[3:] + largest[2:] + [xy for g in groups if g is not largest for xy in g]
        order = rng.permutation(len(rest)).tolist()
        for k, start in enumerate(range(0, len(rest), 9)):
            mentions[f"m{k}"] = [rest[i] for i in order[start : start + 9]]
        doc = make_document("past-one-block", mentions)
        cloud = to_point_cloud(doc)
        n = len(cloud)
        assert n > geo._ONE_BLOCK_N
        labels = _dbscan_groups(cloud, 1_000.0, 5)
        assert int(np.count_nonzero(labels == n)) >= 60 + 30  # the singles and the groups of 3
        sizes = np.bincount(np.bincount(labels)[:n])
        assert sizes[5] == 30 and sizes[6] == 4 and sizes[7] == 6 and sizes[9] == 3

        got = _resolve(doc, cloud, labels)
        assert got == disambiguate(doc, rank_clusters(dbscan(cloud, 1_000.0, 5)))
        assert got.outcomes["noise"] is clustering._NO_CANDIDATE
        assert got.outcomes["tied"] is clustering._AMBIGUOUS
        assert {o.status for o in got.outcomes.values()} == set(OutcomeStatus)

    def test_shared_failures_equal_fresh_outcomes(self):
        for shared, status in (
            (clustering._NO_CANDIDATE, OutcomeStatus.NO_CANDIDATE_IN_ANY_CLUSTER),
            (clustering._AMBIGUOUS, OutcomeStatus.AMBIGUOUS_IN_TOP_CLUSTER),
        ):
            fresh = MentionOutcome(status)
            assert shared == fresh and hash(shared) == hash(fresh)
            assert shared.status is status and shared.entry_id is None and not shared.resolved


class TestRankClusters:
    def test_size_then_compactness_then_entry_id(self):
        # sizes 5, 3, 3, 1; the two 3-clusters span ~40 m and ~400 m
        coords = {}
        coords["big"] = [(0, i * 5 / M_PER_DEG) for i in range(5)]
        coords["tight3"] = [(10, 10 + i * 20 / M_PER_DEG) for i in range(3)]
        coords["wide3"] = [(20, 20 + i * 200 / M_PER_DEG) for i in range(3)]
        coords["single"] = [(30, 30)]
        cloud = make_cloud([xy for group in coords.values() for xy in group])
        clusters = form_clusters(cloud, 500.0)
        ranked = rank_clusters(clusters)
        assert [len(c) for c in ranked] == [5, 3, 3, 1]
        assert [c.rank for c in ranked] == [1, 2, 3, 4]
        # p005..p007 is the tight triple, p008..p010 the wide one
        assert {p.entry_id for p in ranked[1].members} == {"p005", "p006", "p007"}
        assert {p.entry_id for p in ranked[2].members} == {"p008", "p009", "p010"}

    def test_single_cluster(self):
        ranked = rank_clusters(form_clusters(make_cloud([(0, 0), (0, 1e-5)]), 10.0))
        assert [c.rank for c in ranked] == [1]

    def test_input_permutation_invariant(self):
        rng = np.random.default_rng(55)
        coords = [(float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180))) for _ in range(30)]
        clusters = form_clusters(make_cloud(coords), 2e6)
        base = [partition([c]) for c in rank_clusters(clusters)]
        for _ in range(5):
            perm = [clusters[i] for i in rng.permutation(len(clusters))]
            assert [partition([c]) for c in rank_clusters(perm)] == base


class TestDisambiguate:
    def doc_and_ranked(self):
        # mention "x" has candidates in the rank-1 and rank-3 clusters,
        # mention "y" only in rank-2, mention "z" twice in rank-1
        doc = make_document(
            "d",
            {
                "x": [(0, 0), (20, 20)],
                "y": [(10, 10.0001), (10, 10.0002)],
                "z": [(0, 0.0001), (0, 0.0002)],
            },
        )
        # rank-1 around (0,0) with 3 points, rank-2 around (10,10), rank-3 singleton
        cloud = to_point_cloud(doc)
        ranked = rank_clusters(form_clusters(cloud, 50_000.0))
        assert [len(c) for c in ranked] == [3, 2, 1]
        return doc, ranked

    def test_first_cluster_wins(self):
        doc, ranked = self.doc_and_ranked()
        result = disambiguate(doc, ranked)
        assert result.outcomes["x"].status is OutcomeStatus.RESOLVED
        assert result.outcomes["x"].entry_id == "x_e0"

    def test_falls_through_to_next_cluster(self):
        doc, ranked = self.doc_and_ranked()
        result = disambiguate(doc, ranked)
        assert result.outcomes["y"].status is OutcomeStatus.AMBIGUOUS_IN_TOP_CLUSTER

    def test_ambiguous_top_cluster_fails(self):
        doc, ranked = self.doc_and_ranked()
        result = disambiguate(doc, ranked)
        assert result.outcomes["z"].status is OutcomeStatus.AMBIGUOUS_IN_TOP_CLUSTER

    def test_next_cluster_chosen_when_absent_from_first(self):
        doc = make_document(
            "d2",
            {
                "a": [(0, 0), (0, 0.0001), (0, 0.0002)],
                "b": [(50, 50)],
            },
        )
        ranked = rank_clusters(form_clusters(to_point_cloud(doc), 100.0))
        result = disambiguate(doc, ranked)
        assert result.outcomes["b"].status is OutcomeStatus.RESOLVED
        assert result.outcomes["b"].entry_id == "b_e0"

    def test_no_candidate_in_any_cluster(self):
        doc = make_document("d3", {"a": [(0, 0)], "b": [(50, 50)]})
        ranked = rank_clusters(form_clusters(to_point_cloud(doc), 10.0))
        # drop b's singleton cluster, as a noise-producing clusterer would
        ranked = [c for c in ranked if all(p.mention == "a" for p in c.members)]
        result = disambiguate(doc, ranked)
        assert result.outcomes["b"].status is OutcomeStatus.NO_CANDIDATE_IN_ANY_CLUSTER

    def test_every_mention_has_exactly_one_outcome(self):
        doc, ranked = self.doc_and_ranked()
        result = disambiguate(doc, ranked)
        assert set(result.outcomes) == {"x", "y", "z"}


def planted_document():
    """Five mentions: true candidates inside a ~1 km disk, five decoys per
    mention on a far grid (>= 1000 km out, ~500 km apart)."""
    mentions = {}
    truth = {}
    for m in range(5):
        name = f"pl{m}"
        true = (10.0 + m * 100 / M_PER_DEG, 20.0 + m * 150 / M_PER_DEG)
        decoys = [(-40.0 + 5.0 * d, -120.0 + 7.0 * m) for d in range(5)]
        mentions[name] = [true] + decoys
        truth[name] = f"{name}_e0"
    return make_document("planted", mentions, ground_truth=truth)


class TestDensitykPipeline:
    def test_planted_fixture_all_resolved(self):
        doc = planted_document()
        result = densityk_pipeline(doc)
        for name, true_entry in doc.ground_truth.items():
            assert result.outcomes[name].status is OutcomeStatus.RESOLVED
            assert result.outcomes[name].entry_id == true_entry

    def test_planted_cluster_is_top_ranked(self):
        doc = planted_document()
        result = densityk_pipeline(doc)
        top = result.ranked_clusters[0]
        assert {p.entry_id for p in top.members} == {f"pl{m}_e0" for m in range(5)}

    def test_threshold_separates_context_from_decoys(self):
        doc = planted_document()
        result = densityk_pipeline(doc)
        kf = result.diagnostics
        assert kf is not None
        assert kf.cluster_distance is not None
        # verified against the component oracle: the same partition arises
        cloud = to_point_cloud(doc)
        coords = [(p.location.lat, p.location.lon) for p in cloud.points]
        oracle = label_propagation_components(coords, kf.cluster_distance)
        ours = {
            frozenset(cloud.points.index(p) for p in c.members)
            for c in result.ranked_clusters
        }
        assert ours == set(oracle)

    def test_single_candidate_degenerate_bypass(self):
        doc = make_document("single", {"only": [(3, 4)]})
        result = densityk_pipeline(doc)
        assert result.outcomes["only"].status is OutcomeStatus.RESOLVED
        assert result.outcomes["only"].entry_id == "only_e0"

    def test_delta_d_insensitivity_on_planted_fixture(self):
        doc = planted_document()
        outcomes = [
            {n: o.entry_id for n, o in densityk_pipeline(doc, delta_d=dd).outcomes.items()}
            for dd in (100.0, 250.0, 500.0)
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_no_candidates(self):
        with pytest.raises(EmptyInputError):
            densityk_pipeline(make_document("none", {}))

    @pytest.mark.parametrize("upper_bound", [-5.0, math.nan])
    def test_upper_bound_below_zero_or_nan_rejected(self, upper_bound):
        # checked before the document: even one without candidates
        with pytest.raises(ValueError, match="upper_bound must be >= 0"):
            densityk_pipeline(make_document("none", {}), upper_bound=upper_bound)

    @pytest.mark.parametrize("delta_d", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("candidates", [0, 1, 2])
    def test_bad_delta_d_rejected_at_any_candidate_count(self, delta_d, candidates):
        # checked before the document, as upper_bound is: one candidate,
        # which has no curve, and none are rejected as two are
        doc = make_document("few", {f"m{k}": [(0.0, k)] for k in range(candidates)})
        with pytest.raises(ValueError, match=f"^delta_d must be a positive finite number, got {delta_d}$"):
            densityk_pipeline(doc, delta_d=delta_d)

    def test_deterministic(self):
        doc = planted_document()
        a = densityk_pipeline(doc)
        b = densityk_pipeline(doc)
        assert a.outcomes == b.outcomes
        assert [c.members for c in a.ranked_clusters] == [c.members for c in b.ranked_clusters]

    def test_upper_bound_keeps_edges_beyond_it(self):
        # pairs within the 150 m bound: a-b 50 m and b-c 70 m (ring 1), a-c
        # 120 m (ring 2), so the threshold is 200 m; c-d at 180 m lies beyond
        # the bound but within the threshold and still links d
        east = {"e": 10_000.0, "a": 0.0, "b": 50.0, "c": 120.0, "d": 300.0}
        doc = make_document("bounded", {k: [(0.0, x / M_PER_DEG)] for k, x in east.items()})
        result = densityk_pipeline(doc, upper_bound=150.0)
        assert result.diagnostics.cluster_distance == 200.0
        assert partition(result.ranked_clusters) == {
            frozenset({"a_e0", "b_e0", "c_e0", "d_e0"}),
            frozenset({"e_e0"}),
        }

    @pytest.mark.parametrize("upper_bound", [None, 3e6])
    def test_equals_composed_stages_on_multi_block_cloud(self, upper_bound):
        spec = SynthSpec(n_docs=1, mentions_per_doc=30, decoys_per_mention=(19, 19), seed=5)
        doc = synth_generate(spec)[0]
        cloud = to_point_cloud(doc)
        assert (len(cloud) - 1) ** 2 > 4 * BLOCK_ELEMENTS  # several row blocks
        distances = pairwise_distances([p.location for p in cloud.points], upper_bound=upper_bound)
        kf = with_cluster_distance(compute_k_function(distances, len(cloud)))
        ranked = rank_clusters(form_clusters(cloud, kf.cluster_distance))
        staged = disambiguate(doc, ranked)
        staged = DisambiguationResult(
            doc_id=staged.doc_id,
            outcomes=staged.outcomes,
            ranked_clusters=staged.ranked_clusters,
            diagnostics=kf,
        )
        piped = densityk_pipeline(doc, upper_bound=upper_bound)
        assert to_canonical_json(result_to_dict(piped)) == to_canonical_json(result_to_dict(staged))

    def test_peak_memory_below_twice_the_distance_vector(self):
        # the curve counts rings in blocks and the components need no copy of
        # the vector, so the pipeline holds little beyond the vector itself
        spec = SynthSpec(n_docs=1, mentions_per_doc=50, decoys_per_mention=(29, 29), seed=11)
        doc = synth_generate(spec)[0]
        n = len(to_point_cloud(doc))
        assert n == 1500
        tracemalloc.start()
        try:
            densityk_pipeline(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * (n * (n - 1) // 2)
