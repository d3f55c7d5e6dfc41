import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densityk import (
    AlgorithmConfig,
    CombinationExplosionError,
    EmptyInputError,
    GeoPoint,
    InsufficientPointsError,
    NoAnchorsError,
    OutcomeStatus,
    centroid_heuristic,
    dbscan,
    dbscan_disambiguate,
    disambiguate,
    dtur,
    form_clusters,
    kdist_disambiguate,
    kdist_epsilon,
    omd,
    rank_clusters,
    result_to_dict,
    run_algorithm,
    table1_grid,
    to_canonical_json,
    to_point_cloud,
)
from densityk import baselines
from densityk.baselines import _neighbour_matrix, _omd_avg_pairwise
from densityk.geo import BLOCK_ELEMENTS, condensed_distances, condensed_index
from densityk.synth import SynthSpec, synth_generate
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

    @pytest.mark.parametrize("mentions", [1, 2])
    def test_unknown_measure_is_an_error_at_any_mention_count(self, mentions):
        doc = make_document("omd3", {f"m{i}": [(0, 0), (1, 1)] for i in range(mentions)})
        with pytest.raises(ValueError, match="^measure must be one of avg_pairwise, hull_area; got 'nope'$"):
            omd(doc, measure="nope")

    def test_combination_cap(self):
        doc = make_document("omd4", {f"m{i}": [(0, j) for j in range(10)] for i in range(8)})
        with pytest.raises(CombinationExplosionError):
            omd(doc, cap=10**6)
        with pytest.raises(ValueError, match="^measure must be one of"):  # the measure is checked before the cap
            omd(doc, measure="nope", cap=10**6)

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

    def test_every_hull_degenerate_picks_the_first_combination(self):
        # candidates on one meridian: every hull has area 0, while the mean
        # pairwise distance picks a later combination
        doc = make_document(
            "meridian",
            {
                "a": [(0, 10), (40, 10)],
                "b": [(40.1, 10), (0.1, 10)],
                "c": [(40.2, 10), (0.2, 10)],
            },
        )
        assert chosen_ids(omd(doc, measure="hull_area")) == {"a": "a_e0", "b": "b_e0", "c": "c_e0"}
        assert chosen_ids(omd(doc)) == {"a": "a_e0", "b": "b_e1", "c": "c_e1"}

    def test_two_mentions_have_no_hull_and_pick_the_first_combination(self):
        # two points span no area, whichever candidates they are, while the
        # mean pairwise distance picks a later combination
        doc = make_document("pair", {"a": [(0, 0), (10, 10)], "b": [(10, 10.1), (0, 0.05)]})
        assert chosen_ids(omd(doc, measure="hull_area")) == {"a": "a_e0", "b": "b_e0"}
        assert chosen_ids(omd(doc)) == {"a": "a_e0", "b": "b_e1"}

    def test_a_selection_of_two_distinct_points_has_no_hull(self):
        # the first combination holds three candidates on two distinct
        # points, so its hull collapses, area 0; the later ones span triangles
        doc = make_document(
            "collapse",
            {"a": [(5, 5), (0, 0)], "b": [(5, 5), (1, 0)], "c": [(6, 6), (0, 1)]},
        )
        assert chosen_ids(omd(doc, measure="hull_area")) == {"a": "a_e0", "b": "b_e0", "c": "c_e0"}

    def test_result_has_single_rank1_cluster(self):
        doc = make_document("omd5", {"a": [(0, 0)], "b": [(1, 1)]})
        result = omd(doc)
        assert len(result.ranked_clusters) == 1
        assert result.ranked_clusters[0].rank == 1
        assert {p.entry_id for p in result.ranked_clusters[0].members} == {"a_e0", "b_e0"}


def gathered_omd_index(doc, distances=None) -> int:
    """OMD's chosen combination by the gather enumeration it replaced: each
    chunk of 2**18 flat indices unravels into one index array per mention,
    and every mention pair gathers its block at those indices. OMD's search
    must choose the same index, ties included. ``distances``
    stands in for the document's condensed distance vector."""
    sizes = [len(m.candidates) for m in doc.mentions]
    n_combos = math.prod(sizes)
    if distances is None:
        distances = condensed_distances([c.location for m in doc.mentions for c in m.candidates])
    n = sum(sizes)
    starts = np.cumsum([0] + sizes)
    matrices = {}
    for a in range(len(sizes)):
        rows = np.arange(starts[a], starts[a + 1])[:, None]
        for b in range(a + 1, len(sizes)):
            cols = np.arange(starts[b], starts[b + 1])[None, :]
            matrices[(a, b)] = distances[condensed_index(rows, cols, n)]
    chunk = 1 << 18
    best_idx = 0
    best_val = math.inf
    for start in range(0, n_combos, chunk):
        stop = min(start + chunk, n_combos)
        choice = np.array(np.unravel_index(np.arange(start, stop, dtype=np.int64), sizes))
        total = np.zeros(stop - start, dtype=np.float64)
        for (a, b), mat in matrices.items():
            total += mat[choice[a], choice[b]]
        local = int(np.argmin(total))
        if total[local] < best_val:
            best_val = float(total[local])
            best_idx = start + local
    return best_idx


def split_point(sizes: list[int], chunk: int) -> int:
    return next(k for k in range(len(sizes) + 1) if math.prod(sizes[k:]) <= chunk)


def omd_document(rng, sizes: list[int], doc_id: str = "omd"):
    return make_document(doc_id, {f"m{i}": random_coords(rng, s) for i, s in enumerate(sizes)})


class TestOmdBroadcastEnumeration:
    """Leaves of any size choose the gather enumeration's index."""

    def chosen(self, doc) -> int:
        return _omd_avg_pairwise(doc, [len(m.candidates) for m in doc.mentions])

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_random_documents_in_small_batches(self, monkeypatch, chunk):
        monkeypatch.setattr(baselines, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for trial in range(25):
            sizes = [int(s) for s in rng.integers(1, 7, size=int(rng.integers(2, 6)))]
            doc = omd_document(rng, sizes, f"omd-b{trial}")
            assert self.chosen(doc) == gathered_omd_index(doc), sizes

    def test_every_split_point(self, monkeypatch):
        rng = np.random.default_rng(5)
        sizes = [3, 4, 2, 5, 3]
        doc = omd_document(rng, sizes)
        expected = gathered_omd_index(doc)
        splits = set()
        for k in range(len(sizes) + 1):
            # the largest batch at split k, and one element short of it
            for chunk in {math.prod(sizes[k:]), max(1, math.prod(sizes[k:]) - 1)}:
                monkeypatch.setattr(baselines, "_CHUNK", chunk)
                splits.add(split_point(sizes, chunk))
                assert self.chosen(doc) == expected, chunk
        assert splits == set(range(len(sizes) + 1))

    @pytest.mark.parametrize("chunk", [2, 4, 8])
    def test_tie_goes_to_first_combination_within_and_across_batches(self, monkeypatch, chunk):
        # mentions a and c each hold two candidates at one spot, so the four
        # combinations (a, b0, c) tie exactly; c's duplicates always share a
        # batch, a's fall in different batches at chunk 2 and 4 and share one at 8
        monkeypatch.setattr(baselines, "_CHUNK", chunk)
        doc = make_document(
            "omd-tie",
            {
                "a": [(10.0, 10.0), (10.0, 10.0)],
                "b": [(10.1, 10.1), (-40.0, 60.0)],
                "c": [(10.2, 10.0), (10.2, 10.0)],
            },
        )
        assert gathered_omd_index(doc) == 0
        assert self.chosen(doc) == 0
        assert chosen_ids(omd(doc)) == {"a": "a_e0", "b": "b_e0", "c": "c_e0"}

    def test_tie_after_the_first_combination(self, monkeypatch):
        # b's duplicate pair is its last two candidates: the tie must go to b1
        doc = make_document(
            "omd-tie2",
            {
                "a": [(-30.0, 5.0), (0.0, 0.0)],
                "b": [(45.0, 45.0), (0.0, 0.2), (0.0, 0.2)],
                "c": [(0.1, 0.1)],
            },
        )
        expected = gathered_omd_index(doc)
        assert np.unravel_index(expected, (2, 3, 1)) == (1, 1, 0)
        for chunk in (1, 3, 6, 1 << 18):
            monkeypatch.setattr(baselines, "_CHUNK", chunk)
            assert self.chosen(doc) == expected

    @pytest.mark.parametrize("chunk", [1, 2, 1 << 18])
    def test_pairs_add_in_order(self, monkeypatch, chunk):
        # pair distances chosen so that rounding depends on the order of the
        # additions: added pair by pair (ab, ac, bc), combination 0 totals
        # 1 + 2**-52 and combination 1 rounds to 1; added in reverse both give 1
        monkeypatch.setattr(baselines, "_CHUNK", chunk)
        e = 2.0**-53
        # condensed order over a0, b0, c0, c1: (a0 b0, a0 c0, a0 c1, b0 c0, b0 c1, c0 c1)
        distances = np.array([e, e, 1.0, 1.0, e, 7.0])
        monkeypatch.setattr(baselines, "condensed_distances", lambda _points: distances)
        doc = make_document("omd-order", {"a": [(0, 0)], "b": [(0, 1)], "c": [(0, 2), (0, 3)]})
        assert gathered_omd_index(doc, distances) == 1
        assert self.chosen(doc) == 1

    @pytest.mark.parametrize("sizes", [[1, 4, 3, 5], [4, 3, 1, 5], [4, 3, 5, 1]])
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 18])
    def test_single_candidate_mention(self, monkeypatch, sizes, chunk):
        monkeypatch.setattr(baselines, "_CHUNK", chunk)
        doc = omd_document(np.random.default_rng(sum(sizes) * chunk), sizes)
        assert self.chosen(doc) == gathered_omd_index(doc)

    def test_more_combinations_than_one_batch(self):
        sizes = [9, 8, 9, 7, 8, 9]
        assert math.prod(sizes) > baselines._CHUNK == 1 << 13
        assert split_point(sizes, baselines._CHUNK) == 2
        doc = omd_document(np.random.default_rng(11), sizes)
        assert self.chosen(doc) == gathered_omd_index(doc)


# a few spots, far apart and close together, so that candidates coincide and totals tie
SPOTS = [(10.0, 10.0), (10.0, 10.001), (10.01, 10.0), (-20.0, 40.0)]


class LeafCounter:
    """Stands in for ``numpy`` inside ``baselines`` and records the size of
    every array the search takes an unrestricted argmin of: the totals its
    leaves evaluate."""

    def __init__(self):
        self.evaluated = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argmin(self, a, axis=None, **kwargs):
        if axis is None:
            self.evaluated.append(np.size(a))
        return np.argmin(a, axis=axis, **kwargs)


class TestOmdBranchAndBound:
    """The search prunes and still chooses the gather enumeration's index."""

    def chosen(self, doc) -> int:
        return _omd_avg_pairwise(doc, [len(m.candidates) for m in doc.mentions])

    @pytest.mark.parametrize("chunk", [1, 64, None])
    def test_planted_documents(self, monkeypatch, chunk):
        # decoys at least 100 km from a context of 1 km: most prefixes prune
        if chunk is not None:
            monkeypatch.setattr(baselines, "_CHUNK", chunk)
        spec = SynthSpec(n_docs=12, mentions_per_doc=4, decoys_per_mention=(2, 14), seed=3)
        docs = synth_generate(spec) + synth_generate(
            SynthSpec(n_docs=4, mentions_per_doc=6, decoys_per_mention=(1, 6), seed=4)
        )
        for doc in docs:
            assert math.prod(len(m.candidates) for m in doc.mentions) <= 10**6
            assert self.chosen(doc) == gathered_omd_index(doc), doc.doc_id

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_all_tie_document_chooses_the_first(self, monkeypatch, chunk):
        # every candidate at one point: every total is 0 and nothing prunes
        if chunk is not None:
            monkeypatch.setattr(baselines, "_CHUNK", chunk)
        doc = make_document("omd-flat", {f"m{i}": [(12.5, 40.25)] * 4 for i in range(5)})
        assert self.chosen(doc) == 0
        assert chosen_ids(omd(doc)) == {f"m{i}": f"m{i}_e0" for i in range(5)}

    def test_bound_rounding_above_a_tied_total_does_not_prune(self, monkeypatch):
        # Combinations 0 (a0) and 1 (a1) both total exactly 1 when added pair by
        # pair; a0's bound adds the same three distances in another order and
        # rounds to 1 + 2**-52, above the incumbent 1. Only the slack keeps a0.
        monkeypatch.setattr(baselines, "_CHUNK", 1)
        e = 2.0**-53
        assert (1.0 + e) + e == 1.0 < (e + e) + 1.0
        # condensed order over a0, a1, b0, c0, d0:
        # a0a1 a0b0 a0c0 a0d0 a1b0 a1c0 a1d0 b0c0 b0d0 c0d0
        distances = np.array([5.0, 1.0, e, e, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(baselines, "condensed_distances", lambda _points: distances)
        doc = make_document(
            "omd-slack", {"a": [(0, 0), (0, 1)], "b": [(0, 2)], "c": [(0, 3)], "d": [(0, 4)]}
        )
        assert gathered_omd_index(doc, distances) == 0
        assert self.chosen(doc) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(SPOTS), min_size=1, max_size=6), min_size=2, max_size=6),
        st.sampled_from([1, 2, 7, 64, 1 << 13]),
    )
    def test_shared_spots_match_the_gather_enumeration(self, mentions, chunk):
        doc = make_document("omd-h", {f"m{i}": coords for i, coords in enumerate(mentions)})
        with mock.patch.object(baselines, "_CHUNK", chunk):
            assert self.chosen(doc) == gathered_omd_index(doc)

    def test_leaves_evaluate_under_one_percent_of_a_planted_document(self, monkeypatch):
        doc = synth_generate(SynthSpec(n_docs=1, mentions_per_doc=4, decoys_per_mention=(29, 29)))[0]
        n_combos = math.prod(len(m.candidates) for m in doc.mentions)
        assert n_combos == 30**4
        counter = LeafCounter()
        monkeypatch.setattr(baselines, "np", counter)
        assert self.chosen(doc) == gathered_omd_index(doc)
        assert 0 < sum(counter.evaluated) < n_combos / 100


def sphere_document(rng, sizes: list[int], doc_id: str = "omd-sphere", tied: bool = False):
    # candidates uniform on the sphere, far from one another, so the bound
    # prunes little; ``tied`` puts the first mention's candidates on one spot
    mentions = {}
    for i, size in enumerate(sizes):
        lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, size)))
        mentions[f"m{i}"] = [(float(a), float(b)) for a, b in zip(lat, rng.uniform(-180.0, 180.0, size))]
    if tied:
        mentions["m0"] = mentions["m0"][:1] * sizes[0]
    return make_document(doc_id, mentions)


class TestOmdFlatPass:
    """The prefix rows at the leaf depth, walked in C order a block at a
    time, choose the gather enumeration's index."""

    def chosen(self, doc) -> int:
        return _omd_avg_pairwise(doc, [len(m.candidates) for m in doc.mentions])

    @pytest.mark.parametrize(
        "sizes, chunk", [([2] * 14, 1 << 10), ([2] * 14, 1 << 5), ([3] * 9, 3**6), ([3] * 9, 3**3)]
    )
    def test_many_mentions_of_few_candidates(self, monkeypatch, sizes, chunk):
        # at a leaf depth of 3 or more; in every other document the candidates
        # of the first mention coincide, so the least total ties across rows
        assert split_point(sizes, chunk) >= 3
        monkeypatch.setattr(baselines, "_CHUNK", chunk)
        rng = np.random.default_rng(len(sizes) * chunk)
        for trial in range(4):
            doc = sphere_document(rng, sizes, f"omd-few{trial}", tied=trial % 2 == 1)
            assert self.chosen(doc) == gathered_omd_index(doc), trial

    @pytest.mark.parametrize("block", [6, 12])
    def test_prefix_rows_span_many_blocks(self, monkeypatch, block):
        # BLOCK_ELEMENTS patched down so that the prefix rows fill several
        # blocks, with candidates on a few shared spots so that totals tie
        # across blocks, or on the sphere so that one total is least
        chunk = 4
        monkeypatch.setattr(baselines, "BLOCK_ELEMENTS", block)
        monkeypatch.setattr(baselines, "_CHUNK", chunk)
        rng = np.random.default_rng(block)
        many_blocks = 0
        for trial in range(40):
            sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(4, 7)))]
            j = split_point(sizes, chunk)
            many_blocks += math.prod(sizes[:j]) > 2 * (block // max(j, 1))
            if trial % 2:
                doc = sphere_document(rng, sizes, f"omd-blocks{trial}")
            else:
                spots = {f"m{i}": [SPOTS[k] for k in rng.integers(0, len(SPOTS), s)] for i, s in enumerate(sizes)}
                doc = make_document(f"omd-blocks{trial}", spots)
            assert self.chosen(doc) == gathered_omd_index(doc), (trial, sizes)
        assert many_blocks >= 20  # half the documents or more fill three blocks or more


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

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_kth_neighbour_with_coincident_points(self, k):
        # four copies of two points and two of three more: up to k = 3 some
        # points' k-th neighbour is at distance 0; equal distances fill rows
        coords = random_coords(np.random.default_rng(60 + k), 12)
        coords += coords[:5] + coords[:2] * 2
        cloud = make_cloud(coords)
        kth = kth_neighbor_distances(coords, k)
        assert (min(kth) == 0.0) == (k <= 3)
        want = float(np.mean(kth) + 2.0 * np.std(kth))
        assert kdist_epsilon(cloud, k) == pytest.approx(want, rel=1e-9)
        matrix = _neighbour_matrix(condensed_distances(cloud), len(cloud))
        exact = np.sort(matrix, axis=1)[:, k - 1]  # a full row sort reads the same k-th value
        assert np.array_equal(exact == 0.0, np.array(kth) == 0.0)
        assert kdist_epsilon(cloud, k) == float(np.mean(exact) + 2.0 * np.std(exact))

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

    def test_kept_per_k_and_checked_on_every_call(self):
        coords = random_coords(np.random.default_rng(12), 40)
        warm = make_cloud(coords)
        first = {k: kdist_epsilon(warm, k) for k in (5, 10, 25)}
        for k, epsilon in first.items():
            assert kdist_epsilon(warm, k).hex() == epsilon.hex() == kdist_epsilon(make_cloud(coords), k).hex()
        # a value kept for an out-of-range k would not be returned: the checks come first
        warm._kdist_epsilons.update({0: 1.0, 40: 1.0})
        with pytest.raises(ValueError, match="k must be >= 1"):
            kdist_epsilon(warm, 0)
        with pytest.raises(InsufficientPointsError, match="need more than 40 points"):
            kdist_epsilon(warm, 40)
        with pytest.raises(ValueError):  # k < 1 before n <= k
            kdist_epsilon(make_cloud([(0, 0)]), 0)
        with pytest.raises(TypeError):  # as on a fresh cloud: k is a whole number
            kdist_epsilon(warm, 5.0)

    def test_too_few_points(self):
        with pytest.raises(InsufficientPointsError):
            kdist_epsilon(make_cloud([(0, 0), (1, 1)]), k=2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kdist_epsilon(make_cloud([(0, 0), (1, 1)]), k=0)


class TestMentionWithoutCandidates:
    # a document built in code can hold such a mention; a loaded one cannot
    @pytest.mark.parametrize(
        "config",
        [
            AlgorithmConfig("omd", (("measure", "avg_pairwise"),)),
            AlgorithmConfig("omd", (("measure", "hull_area"),)),
            AlgorithmConfig("centroid"),
            AlgorithmConfig("dtur"),
        ],
        ids=lambda c: c.key,
    )
    def test_is_an_empty_input_naming_document_and_mention(self, config):
        doc = make_document("z", {"a": [(0, 0)], "b": []})
        with pytest.raises(EmptyInputError, match="document 'z': mention 'b' has no candidates"):
            run_algorithm(doc, config)

    @pytest.mark.parametrize(
        "heuristic, message", [(omd, "document 'z' has no mentions"), (centroid_heuristic, "document 'z' has no candidates")]
    )
    def test_no_mentions_is_an_empty_input(self, heuristic, message):
        with pytest.raises(EmptyInputError, match=message):
            heuristic(make_document("z", {}))


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

    @pytest.mark.parametrize("k", [5, 10])
    def test_kdist_min_pts_checked_before_the_epsilon(self, k):
        # at k=5 the epsilon is 0, at k=10 it is not: min_pts 0 is the
        # error either way
        doc = make_document("coincident", {f"m{i}": [(10, 20), (11, 20)] for i in range(7)})
        with pytest.raises(ValueError, match="^min_pts must be >= 1, got 0$"):
            kdist_disambiguate(doc, k=k, min_pts=0)

    def test_equal_the_composed_public_stages_on_default_documents(self, default_corpus):
        # the wrappers rank from the one distance vector; the public stages
        # recompute every spread from the cluster's own points
        cells = [c for c in table1_grid() if c.algorithm in ("dbscan", "kdist")]
        for doc in default_corpus:
            cloud = to_point_cloud(doc)
            for cell in cells:
                params = cell.param_dict
                if cell.algorithm == "dbscan":
                    epsilon, got = params["epsilon"], dbscan_disambiguate(doc, **params)
                else:
                    epsilon, got = kdist_epsilon(cloud, params["k"]), kdist_disambiguate(doc, **params)
                want = disambiguate(doc, rank_clusters(dbscan(cloud, epsilon, params["min_pts"])))
                got, want = (to_canonical_json(result_to_dict(r)) for r in (got, want))
                assert got == want, (doc.doc_id, cell.key)
