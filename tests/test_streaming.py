"""The streamed density pipeline against the exact distance vector.

A cloud past one row block is never held as a distance vector: one pass
over its row blocks counts the rings of the curve, a second joins the pairs
within the threshold, both through the chord kernel
(``geo._chord_distances`` and ``geo._chord_pairs_within``) with the
haversine's decisions. With the blocks patched small, clouds of 10-60
points stream through many blocks.
"""

import math
import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densityk import (
    EARTH_RADIUS_M,
    DistanceList,
    compute_k_function,
    densityk_pipeline,
    disambiguate,
    form_clusters,
    pairwise_distances,
    rank_clusters,
    result_to_dict,
    to_canonical_json,
    with_cluster_distance,
)
from densityk import clustering, geo, kfunction
from densityk.clustering import (
    DisambiguationResult,
    _dbscan_groups,
    _streamed_components,
    _streamed_curve,
)
from densityk.corpus import to_point_cloud
from densityk.geo import (
    _CHORD_MARGIN_M,
    _CHORD_REACH_M,
    _chord_distances,
    _chord_haversines,
    _diameter_bound,
    _haversine_block,
    _row_blocks,
    _upper,
    condensed_distances,
)
from densityk.kfunction import _RingCounts, _ring_indices
from densityk.synth import SynthSpec, synth_generate
from conftest import make_cloud, make_document, random_coords, unique_ring_counts


@contextmanager
def small_blocks(merge_rings: int = 3):
    # blocks of 16 entries, streaming from 6 points on, sparse counts merged
    # every few rings
    with mock.patch.multiple(geo, BLOCK_ELEMENTS=16, _ONE_BLOCK_N=5), mock.patch.object(
        kfunction, "_MERGE_RINGS", merge_rings
    ):
        yield


@st.composite
def clouds(draw):
    """Coordinates and a ring width: points at mixed scales, a chain along a
    meridian at whole ring widths (pairs on ring edges), coincident points,
    and antipodes of some points nudged by up to a millimetre."""
    delta_d = draw(st.sampled_from([0.01, 1.0, 7.3, 100.0, 2500.0, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = random_coords(rng, draw(st.integers(6, 30)))
    step = math.degrees(delta_d / EARTH_RADIUS_M)
    lat0, lon0 = float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180))
    coords += [(lat0 + k * step, lon0) for k in range(draw(st.integers(0, 12))) if lat0 + k * step < 90]
    coords += [coords[i] for i in draw(st.lists(st.integers(0, len(coords) - 1), max_size=4))]
    mm = math.degrees(1e-3 / EARTH_RADIUS_M)
    for i in draw(st.lists(st.integers(0, len(coords) - 1), max_size=4)):
        lat, lon = coords[i]
        nudge = draw(st.sampled_from([0.0, 0.3, 1.0]))
        coords.append((float(np.clip(-lat + nudge * mm, -90, 90)), lon + 180.0 + nudge * mm))
    return coords, delta_d


def near(pair: float, choice) -> float:
    # a pair's distance exactly, the floats next to it (where the chord's
    # distance may fall on the other side), or half the margin off
    if choice in (-math.inf, math.inf):
        return float(np.nextafter(pair, choice))
    return max(0.0, pair + choice * _CHORD_MARGIN_M)


LIMITS = [0.0, -math.inf, math.inf, 0.5, -0.5]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the same error, type and message, is the same outcome
        return type(exc), str(exc)


def stored_curve(values, n_points, delta_d):
    # the curve of a stored distance vector
    return compute_k_function(DistanceList(values=values, n_points=n_points), n_points, delta_d)


def curve_bytes(kf):
    return kf.distances_m.tobytes(), kf.densities.tobytes(), kf.delta_d


class TestStreamedEqualsExact:
    @settings(max_examples=150, deadline=None)
    @given(clouds(), st.sampled_from([None] + LIMITS), st.integers(0, 2**32 - 1))
    @example(([(0.0, 0.0), (0.0, 0.0)] * 5, 100.0), None, 0)  # coincident: ring 1
    # on the equator at whole kilometres: every pair on a ring edge
    @example(([(0.0, k * math.degrees(1000.0 / EARTH_RADIUS_M)) for k in range(12)], 100.0), 0.0, 1)
    def test_ring_counts_curve_and_labels(self, case, bound, seed):
        coords, delta_d = case
        cloud = make_cloud(coords)
        n = len(cloud)
        rng = np.random.default_rng(seed)
        with small_blocks(merge_rings=int(rng.integers(1, 8))):
            exact = condensed_distances(cloud)
            pair = float(exact[rng.integers(len(exact))])
            upper_bound = None if bound is None else near(pair, bound)
            in_bound = exact if upper_bound is None else exact[exact <= upper_bound]
            streamed = [
                _chord_distances(cloud._radians, cloud._half_units, r0, r1, delta_d, upper_bound)
                for r0, r1 in _row_blocks(n)
            ]
            assert len(streamed) > 1
            got = np.concatenate(streamed)  # the blocks hold the pairs in condensed order
            assert np.array_equal(_ring_indices(got, delta_d), _ring_indices(in_bound, delta_d))
            if len(in_bound):
                counts = _RingCounts(delta_d, geo._MAX_DISTANCE_M / delta_d + 1, len(exact))
                for values in streamed:
                    counts.add(values)
                for got_counts, want in zip(counts.take(), unique_ring_counts(in_bound, delta_d)):
                    assert got_counts.tobytes() == want.tobytes()
            kf = outcome(_streamed_curve, cloud, delta_d, upper_bound)
            want = outcome(stored_curve, in_bound, n, delta_d)
            if isinstance(want, tuple):
                assert kf == want
                return
            assert curve_bytes(kf) == curve_bytes(want)
            threshold = with_cluster_distance(kf).cluster_distance
            pair = float(exact[rng.integers(len(exact))])
            for limit in [threshold] + [near(pair, choice) for choice in LIMITS]:
                if limit > 0:
                    labels = _streamed_components(cloud, limit)
                    assert labels.tolist() == _dbscan_groups(exact, n, limit, 1).tolist()

    @pytest.mark.parametrize("upper_bound", [None, 3e6])
    def test_pipeline_equals_composed_stages(self, upper_bound):
        spec = SynthSpec(n_docs=1, mentions_per_doc=8, decoys_per_mention=(5, 5), seed=5)
        doc = synth_generate(spec)[0]
        cloud = to_point_cloud(doc)
        distances = pairwise_distances([p.location for p in cloud.points], upper_bound=upper_bound)
        kf = with_cluster_distance(compute_k_function(distances, len(cloud)))
        staged = disambiguate(doc, rank_clusters(form_clusters(cloud, kf.cluster_distance)))
        staged = DisambiguationResult(
            doc_id=staged.doc_id,
            outcomes=staged.outcomes,
            ranked_clusters=staged.ranked_clusters,
            diagnostics=kf,
        )
        with small_blocks(), mock.patch.object(
            clustering, "condensed_distances", side_effect=AssertionError("a stored vector")
        ):
            piped = densityk_pipeline(doc, upper_bound=upper_bound)
        assert to_canonical_json(result_to_dict(piped)) == to_canonical_json(result_to_dict(staged))
        assert curve_bytes(piped.diagnostics) == curve_bytes(kf)

    @pytest.mark.parametrize("delta_d", [math.nan, math.inf, 0.0, -1.0, 1e-300, 1e154, 1e200])
    def test_curve_errors_and_their_order(self, delta_d):
        # the exact vector's error, raised with no warning on the way: the
        # ring limit is checked on each block before its ring indices are cast
        cloud = make_cloud(random_coords(np.random.default_rng(4), 30))
        with small_blocks(), warnings.catch_warnings():
            warnings.simplefilter("error")
            want = outcome(stored_curve, condensed_distances(cloud), len(cloud), delta_d)
            assert isinstance(want, tuple)
            assert outcome(_streamed_curve, cloud, delta_d, None) == want

    def test_no_pair_within_the_bound(self):
        cloud = make_cloud([(0.0, 0.1 * k) for k in range(10)])
        with small_blocks():
            got = outcome(_streamed_curve, cloud, 100.0, 5.0)
        assert got == outcome(stored_curve, np.empty(0), len(cloud), 100.0)


class TestChordKernel:
    def stress_cloud(self, seed: int) -> list[tuple[float, float]]:
        # global scatter, tight groups, antipodes of some points, and pairs
        # 1 m to 100 m apart, some astride the antimeridian or by a pole
        rng = np.random.default_rng(seed)
        coords = random_coords(rng, 700, scales=(1e-5, 0.001, 0.1, 10.0))
        coords += [(-lat, lon + 180.0 + rng.normal(0, 1.0)) for lat, lon in coords[:100]]
        for lat, lon in coords[:50] + [(0.0, 180.0), (89.99, 10.0), (-45.0, -180.0)] * 10:
            arc = math.degrees(rng.uniform(1.0, 100.0) / EARTH_RADIUS_M)
            bearing = rng.uniform(0.0, 2.0 * math.pi)
            step = (arc * math.cos(bearing), arc * math.sin(bearing) / math.cos(math.radians(lat)))
            coords += [(lat, lon), (float(np.clip(lat + step[0], -90, 90)), lon + step[1])]
        return coords

    @pytest.mark.parametrize("seed", [1, 2])
    def test_chord_distance_within_the_bound(self, seed):
        # the bound of _chord_distances, 1e-5 m at every arc up to 179
        # degrees, short ones included
        cloud = make_cloud(self.stress_cloud(seed))
        worst, short = 0.0, 0
        for r0, r1 in _row_blocks(len(cloud)):
            h = np.minimum(_chord_haversines(cloud._half_units, r0, r1), 1.0)
            chord = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))
            exact = _haversine_block(cloud._radians, r0, r1)
            within = _upper(r0, r1, len(cloud)) & (exact <= _CHORD_REACH_M)
            worst = max(worst, float(np.abs(chord - exact)[within].max()))
            short += int((within & (exact >= 1.0) & (exact <= 100.0)).sum())
        assert short >= 80
        assert worst < 1e-5

    def test_pairs_past_the_reach_take_the_haversine(self):
        cloud = make_cloud(self.stress_cloud(3))
        n = len(cloud)
        got = np.concatenate(
            [_chord_distances(cloud._radians, cloud._half_units, r0, r1, 100.0, None) for r0, r1 in _row_blocks(n)]
        )
        exact = condensed_distances(cloud)
        far = exact > _CHORD_REACH_M
        assert far.sum() > 50
        assert np.array_equal(got[far].view(np.int64), exact[far].view(np.int64))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_span_bound_covers_every_chord_distance(self, seed):
        # the dense ring count spans the rings up to _diameter_bound and
        # indexes them by the chord kernel's distances. In the regional
        # cloud point 0 lies midway between each point and its reflection,
        # so the farthest pair is twice the farthest point from point 0 and
        # the bound is tight to its margin.
        rng = np.random.default_rng(seed)
        scales = 10.0 ** -rng.integers(0, 6, 300)
        half = [(lat * s, lon * s) for (lat, lon), s in zip(rng.uniform(-40.0, 40.0, (300, 2)), scales)]
        regional = [(0.0, 0.0)] + half + [(-lat, -lon) for lat, lon in half]
        for coords in (self.stress_cloud(seed), regional):
            cloud = make_cloud(coords)
            bound = _diameter_bound(cloud._radians)
            assert bound <= geo._MAX_DISTANCE_M
            for spacing in (1.0, 100.0):
                farthest = max(
                    float(_chord_distances(cloud._radians, cloud._half_units, r0, r1, spacing, None).max())
                    for r0, r1 in _row_blocks(len(cloud))
                )
                assert farthest <= bound
        assert bound < _CHORD_REACH_M
        assert farthest > bound - 2 * _CHORD_MARGIN_M


def synth_cloud_document(mentions: int, decoys: int, seed: int):
    spec = SynthSpec(n_docs=1, mentions_per_doc=mentions, decoys_per_mention=(decoys, decoys), seed=seed)
    doc = synth_generate(spec)[0]
    return doc, len(to_point_cloud(doc))


def traced_peak(fn) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_flat_memory_beside_the_distance_vector(self):
        # the pipeline stores no pair distance: a quarter of the vector is
        # more than its peak
        doc, n = synth_cloud_document(100, 29, seed=3)
        assert n == 3000
        _, peak = traced_peak(lambda: densityk_pipeline(doc))
        assert peak < 8 * (n * (n - 1) // 2) / 4

    def test_dense_ring_count_spans_the_cloud_not_the_sphere(self):
        # a regional cloud on the dense side of the span rule: the count
        # array covers the rings up to twice its farthest point from point
        # 0, not the 1,000,000 rings of 20 m to the antipode
        rng = np.random.default_rng(5)
        coords = np.column_stack((rng.uniform(44.7, 45.3, 3000), rng.uniform(6.6, 7.4, 3000)))
        doc = make_document("regional", {f"m{k}": coords[k :: 300].tolist() for k in range(300)})
        n, delta_d = 3000, 20.0
        assert 4 * geo._MAX_DISTANCE_M / delta_d <= n * (n - 1) // 2
        _, peak = traced_peak(lambda: densityk_pipeline(doc, delta_d=delta_d))
        assert peak < 8 * (geo._MAX_DISTANCE_M / delta_d) / 2

    def test_fine_ring_width_counts_sparsely(self):
        # at 5 m the rings of a 1,500-point cloud are too many to count in
        # one array: the occupied ones are merged as the blocks come, and
        # the peak stays under three times the curve it returns
        doc, n = synth_cloud_document(50, 29, seed=11)
        assert n == 1500
        result, peak = traced_peak(lambda: densityk_pipeline(doc, delta_d=5.0))
        kf = result.diagnostics
        assert 4 * geo._MAX_DISTANCE_M / 5.0 > n * (n - 1) // 2  # the sparse side of the span rule
        assert peak < 3 * (kf.distances_m.nbytes + kf.densities.nbytes)
