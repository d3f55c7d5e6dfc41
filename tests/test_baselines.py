import math

import numpy as np
import pytest

from densityk import (
    CombinationExplosionError,
    GeoPoint,
    InsufficientPointsError,
    NoAnchorsError,
    OutcomeStatus,
    centroid_heuristic,
    dbscan,
    dbscan_disambiguate,
    dtur,
    form_clusters,
    kdist_disambiguate,
    kdist_epsilon,
    omd,
)
from densityk.baselines import _neighbour_matrix
from densityk.geo import BLOCK_ELEMENTS, condensed_distances
from conftest import make_cloud, make_document, random_coords
from oracles import exhaustive_min_combination, kth_neighbor_distances, reference_dbscan
from test_corpus import M_PER_DEG
from test_geo import haversine_matrix


def chosen_ids(result) -> dict[str, str]:
    return {name: o.entry_id for name, o in result.outcomes.items() if o.resolved}


class TestOmd:
    def test_picks_mutually_close_pair(self):
        doc = make_document(
            "omd1",
            {
                "a": [(0, 0), (40, 40)],
                "b": [(0, 0.001), (-40, -40)],
            },
        )
        assert chosen_ids(omd(doc)) == {"a": "a_e0", "b": "b_e0"}

    def test_tie_goes_to_first_combination(self):
        # both candidates of "b" are equidistant from a's single candidate
        doc = make_document(
            "omd2",
            {
                "a": [(0, 0)],
                "b": [(0, 1), (0, -1)],
            },
        )
        assert chosen_ids(omd(doc))["b"] == "b_e0"

    def test_single_mention_first_candidate(self):
        doc = make_document("omd3", {"a": [(5, 5), (6, 6)]})
        assert chosen_ids(omd(doc)) == {"a": "a_e0"}

    def test_combination_cap(self):
        doc = make_document("omd4", {f"m{i}": [(0, j) for j in range(10)] for i in range(8)})
        with pytest.raises(CombinationExplosionError):
            omd(doc, cap=10**6)

    def test_cap_is_a_limit_not_a_truncation(self):
        doc = make_document("omd5", {f"m{i}": [(0, j) for j in range(4)] for i in range(5)})
        assert len(chosen_ids(omd(doc, cap=4**5))) == 5

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(47)
        for trial in range(15):
            mentions = {}
            for i in range(int(rng.integers(2, 5))):
                coords = random_coords(rng, int(rng.integers(1, 5)))
                mentions[f"m{i}"] = coords
            doc = make_document(f"omd-r{trial}", mentions)
            expected, _ = exhaustive_min_combination(
                [list(coords) for coords in mentions.values()]
            )
            want = {
                f"m{i}": f"m{i}_e{idx}" for i, idx in enumerate(expected)
            }
            assert chosen_ids(omd(doc)) == want

    def test_hull_measure_prefers_degenerate_combination(self):
        # one combination is collinear along the equator (hull area zero),
        # every other has a fat triangle
        doc = make_document(
            "hull",
            {
                "a": [(0, 0), (30, 10)],
                "b": [(0, 0.5), (30, 60)],
                "c": [(0, 1.0), (-30, -60)],
            },
        )
        assert chosen_ids(omd(doc, measure="hull_area")) == {
            "a": "a_e0",
            "b": "b_e0",
            "c": "c_e0",
        }

    def test_result_has_single_rank1_cluster(self):
        doc = make_document("omd5", {"a": [(0, 0)], "b": [(1, 1)]})
        result = omd(doc)
        assert len(result.ranked_clusters) == 1
        assert result.ranked_clusters[0].rank == 1
        assert {p.entry_id for p in result.ranked_clusters[0].members} == {"a_e0", "b_e0"}


class TestCentroidHeuristic:
    def test_outlier_filtered_before_final_centroid(self):
        # eleven tight points near the origin and one candidate pair where the
        # wrong option sits 3000 km away; the far point is dropped in pass two
        mentions = {f"t{i}": [(0, i * 10 / M_PER_DEG)] for i in range(11)}
        mentions["amb"] = [(0, 27.0), (0, 50 / M_PER_DEG)]
        doc = make_document("cent1", mentions)
        assert chosen_ids(centroid_heuristic(doc))["amb"] == "amb_e1"

    def test_nearest_candidate_selected(self):
        doc = make_document(
            "cent2",
            {
                "a": [(0, 0)],
                "b": [(0, 0.001), (20, 20)],
            },
        )
        assert chosen_ids(centroid_heuristic(doc)) == {"a": "a_e0", "b": "b_e0"}

    def test_submillimeter_tie_breaks_to_smaller_entry_id(self):
        # candidates symmetric about the document centroid: identical distance
        doc = make_document(
            "cent3",
            {
                "a": [(0, 1), (0, -1)],
            },
        )
        assert chosen_ids(centroid_heuristic(doc))["a"] == "a_e0"

    def test_all_mentions_resolved(self):
        rng = np.random.default_rng(9)
        doc = make_document(
            "cent4", {f"m{i}": random_coords(rng, 3) for i in range(4)}
        )
        result = centroid_heuristic(doc)
        assert all(o.status is OutcomeStatus.RESOLVED for o in result.outcomes.values())


class TestDtur:
    def fixture(self):
        # anchors at (0, 0) and (0, 2); ambiguous mention with one candidate
        # between the anchors and one far away
        return make_document(
            "dtur1",
            {
                "anchor_a": [(0, 0)],
                "anchor_b": [(0, 2)],
                "amb": [(0, 1), (30, 80)],
            },
        )

    def test_anchors_resolve_to_themselves(self):
        out = chosen_ids(dtur(self.fixture()))
        assert out["anchor_a"] == "anchor_a_e0"
        assert out["anchor_b"] == "anchor_b_e0"

    def test_minimum_mean_anchor_distance_wins(self):
        assert chosen_ids(dtur(self.fixture()))["amb"] == "amb_e0"

    def test_tie_breaks_to_smaller_entry_id(self):
        doc = make_document(
            "dtur2",
            {
                "anchor": [(0, 0)],
                "amb": [(0, 1), (0, -1)],
            },
        )
        assert chosen_ids(dtur(doc))["amb"] == "amb_e0"

    def test_no_anchors(self):
        doc = make_document("dtur3", {"a": [(0, 0), (1, 1)], "b": [(2, 2), (3, 3)]})
        with pytest.raises(NoAnchorsError):
            dtur(doc)


class TestDbscan:
    def test_noise_left_out(self):
        # two tight triples plus one isolated point, min_pts=3
        coords = (
            [(0, i * 10 / M_PER_DEG) for i in range(3)]
            + [(10, 10 + i * 10 / M_PER_DEG) for i in range(3)]
            + [(50, 50)]
        )
        clusters = dbscan(make_cloud(coords), epsilon=100.0, min_pts=3)
        assert sorted(len(c) for c in clusters) == [3, 3]
        clustered = {p.entry_id for c in clusters for p in c.members}
        assert "p006" not in clustered

    def test_border_point_joins_first_core_neighbor(self):
        # p000..p002 core (within 100 m of each other); p003 is 90 m from p002
        # only, so it is border and joins that cluster
        coords = [
            (0, 0),
            (0, 50 / M_PER_DEG),
            (0, 100 / M_PER_DEG),
            (0, 190 / M_PER_DEG),
        ]
        clusters = dbscan(make_cloud(coords), epsilon=100.0, min_pts=3)
        assert len(clusters) == 1
        assert {p.entry_id for p in clusters[0].members} == {"p000", "p001", "p002", "p003"}

    @pytest.mark.parametrize(
        "min_pts, expected",
        [
            (1, [["p000", "p002", "p004", "p006"], ["p001", "p003", "p005"], ["p007"]]),
            (3, [["p000", "p002", "p004", "p006"], ["p001", "p003", "p005"]]),
        ],
    )
    def test_clusters_in_order_of_first_member(self, min_pts, expected):
        # two interleaved chains 40 m apart within each; p000 lies 90 m from
        # p006 alone, so at min_pts 3 it is a border point whose index
        # precedes every core of its cluster; p007 is isolated
        a = [(0, x / M_PER_DEG) for x in (0, 40, 80)]
        b = [(10, 10 + x / M_PER_DEG) for x in (0, 40, 80)]
        coords = [(0, 170 / M_PER_DEG), b[0], a[0], b[1], a[1], b[2], a[2], (50, 50)]
        clusters = dbscan(make_cloud(coords), epsilon=100.0, min_pts=min_pts)
        assert [[p.entry_id for p in c.members] for c in clusters] == expected

    def test_min_pts_one_equals_single_linkage(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            coords = random_coords(rng, int(rng.integers(3, 25)))
            eps = float(rng.uniform(1e3, 1e6))
            cloud = make_cloud(coords)
            a = {frozenset(p.entry_id for p in c.members) for c in dbscan(cloud, eps, 1)}
            b = {frozenset(p.entry_id for p in c.members) for c in form_clusters(cloud, eps)}
            assert a == b

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            coords = random_coords(rng, int(rng.integers(4, 30)))
            eps = float(rng.uniform(1e3, 1e6))
            min_pts = int(rng.integers(1, 6))
            labels = reference_dbscan(coords, eps, min_pts)
            oracle = {}
            for i, lab in enumerate(labels):
                if lab != -1:
                    oracle.setdefault(lab, set()).add(i)
            ours = {
                frozenset(int(p.entry_id[1:]) for p in c.members)
                for c in dbscan(make_cloud(coords), eps, min_pts)
            }
            assert ours == {frozenset(g) for g in oracle.values()}

    def test_bad_parameters(self):
        cloud = make_cloud([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            dbscan(cloud, epsilon=-1.0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan(cloud, epsilon=100.0, min_pts=0)
        with pytest.raises(ValueError):
            dbscan(cloud, epsilon=math.nan, min_pts=1)


class TestKdistEpsilon:
    def test_two_point_sigma_zero(self):
        # both 1-NN distances equal the pair distance, so std is zero and
        # epsilon is exactly that distance
        cloud = make_cloud([(0, 0), (0, 500 / M_PER_DEG)])
        eps = kdist_epsilon(cloud, k=1)
        assert eps == pytest.approx(500.0, abs=1e-6)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            coords = random_coords(rng, int(rng.integers(6, 20)))
            k = int(rng.integers(1, 5))
            kth = kth_neighbor_distances(coords, k)
            want = float(np.mean(kth) + 2.0 * np.std(kth))
            assert kdist_epsilon(make_cloud(coords), k) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 60, 2 * math.isqrt(BLOCK_ELEMENTS)])
    def test_matrix_from_vector_is_the_full_matrix_in_both_triangles(self, n):
        # the lower triangle is read from the upper one, so this also pins
        # the exact symmetry of the full evaluation
        rng = np.random.default_rng(100 + n)
        pts = [GeoPoint(lat, lon) for lat, lon in random_coords(rng, n)]
        expected = haversine_matrix(pts)
        np.fill_diagonal(expected, np.inf)
        got = _neighbour_matrix(condensed_distances(pts), n)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("k", [1, 5, 10, 25])
    def test_bit_identical_to_full_matrix_sort(self, k):
        rng = np.random.default_rng(k)
        cloud = make_cloud(random_coords(rng, 60))
        matrix = haversine_matrix([p.location for p in cloud.points])
        np.fill_diagonal(matrix, np.inf)
        kth = np.sort(matrix, axis=1)[:, k - 1]
        assert kdist_epsilon(cloud, k) == float(np.mean(kth) + 2.0 * np.std(kth))

    def test_too_few_points(self):
        with pytest.raises(InsufficientPointsError):
            kdist_epsilon(make_cloud([(0, 0), (1, 1)]), k=2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kdist_epsilon(make_cloud([(0, 0), (1, 1)]), k=0)


class TestDisambiguatingWrappers:
    def planted(self):
        mentions = {}
        for m in range(4):
            name = f"pl{m}"
            true = (10.0 + m * 100 / M_PER_DEG, 20.0)
            decoy = (-40.0 - 3.0 * m, -120.0 + 11.0 * m)
            mentions[name] = [true, decoy]
        truth = {f"pl{m}": f"pl{m}_e0" for m in range(4)}
        return make_document("planted-b", mentions, ground_truth=truth)

    def test_dbscan_disambiguate_resolves_planted(self):
        doc = self.planted()
        result = dbscan_disambiguate(doc, epsilon=2000.0, min_pts=2)
        assert chosen_ids(result) == doc.ground_truth

    def test_kdist_disambiguate_resolves_planted(self):
        doc = self.planted()
        result = kdist_disambiguate(doc, k=3, min_pts=2)
        assert chosen_ids(result) == doc.ground_truth

    def test_kdist_zero_epsilon_is_an_insufficient_document(self):
        # every point has 6 coincident neighbours: the k=5 epsilon is 0
        doc = make_document("coincident", {f"m{i}": [(10, 20), (11, 20)] for i in range(7)})
        with pytest.raises(InsufficientPointsError, match="'coincident'.*k=5"):
            kdist_disambiguate(doc, k=5, min_pts=1)
        assert kdist_disambiguate(doc, k=10, min_pts=1).ranked_clusters
