"""The streamed density pipeline and DBSCAN against the exact distance
vector.

A cloud past one row block is never held as a distance vector. The curve
counts the rings that ``geo._rings_within`` yields from its row blocks
(``kfunction._count_rings``), and DBSCAN, whose ``min_pts=1`` case is the
pipeline's single linkage, reads the pairs within its epsilon from one
edge source, ``geo._pairs_within``, in one pass at ``min_pts`` 1 and two
otherwise: past one block, the pairs of a band over the cloud's sort axis
(``geo._band``), whose windows hold every later point where the limit
lies near the reach. The curve's row blocks walk the points in band
order through the chord kernel's centred Gram form
(``geo._gram_haversines``, read by ``geo._chord_rings``), the band
through its difference form, both with the haversine's decisions, so the
band yields exactly the exact vector's pairs within the limit and every
ring is the exact vector's. With the blocks
patched small, clouds of 10-60 points stream through many blocks; at the
real block size, the pipeline is checked on either side of the 257
points of one block.
"""

import contextlib
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
    dbscan,
    dbscan_disambiguate,
    densityk_pipeline,
    disambiguate,
    form_clusters,
    kdist_disambiguate,
    pairwise_distances,
    rank_clusters,
    result_to_dict,
    to_canonical_json,
    with_cluster_distance,
)
from densityk import geo, kfunction
from densityk.clustering import DisambiguationResult, _dbscan_groups
from densityk.corpus import to_point_cloud
from densityk.geo import (
    _CHORD_MARGIN_M,
    _CHORD_REACH_M,
    _NO_RING,
    _REACH_H,
    _chord_rings,
    _diameter_bound,
    _gram_haversines,
    _lower,
    _row_blocks,
    condensed_distances,
    condensed_index,
    condensed_pairs,
)
from densityk.kfunction import _blocked_k_function, _count_rings
from densityk.synth import SynthSpec, synth_generate
from conftest import make_cloud, make_document, random_coords, unique_ring_counts
from oracles import union_find_dbscan_groups
from test_clustering import groups_of


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


def streamed_curve(cloud, delta_d, upper_bound):
    # the pipeline's curve of a cloud, from the one curve source
    return _blocked_k_function(len(cloud), delta_d, *geo._rings_within(cloud, delta_d, upper_bound))


def block_pairs(cloud, r0: int, r1: int):
    # the condensed positions of row block (r0, r1)'s entries over the
    # cloud's band order, row-major, and which of them are pairs
    _, order, _ = cloud._band_order
    n = len(cloud)
    p, q = np.divmod(np.arange((r1 - r0) * (n - 1 - r0)), n - 1 - r0)
    i, j = order[p + r0], order[q + r0 + 1]
    pair = np.ones(len(p), dtype=bool)
    pair[_lower(r1 - r0, n - 1 - r0)] = False
    return condensed_index(np.minimum(i, j), np.maximum(i, j), n), pair


def chord_rings_by_pair(cloud, delta_d, upper_bound):
    # each pair's ring from the row blocks of the chord kernel, in condensed
    # order; checked to give each pair once and every other entry _NO_RING
    _, order, units = cloud._band_order
    n = len(cloud)
    rings = np.full(n * (n - 1) // 2, np.nan)
    for r0, r1 in _row_blocks(n):
        ring = _chord_rings(cloud._radians, order, units, r0, r1, delta_d, upper_bound)
        at, pair = block_pairs(cloud, r0, r1)
        assert (ring[~pair] == _NO_RING).all()
        assert np.isnan(rings[at[pair]]).all()
        rings[at[pair]] = ring[pair]
    assert not np.isnan(rings).any()
    return rings


def exact_rings(exact, delta_d, upper_bound):
    # the ring of each distance of the exact vector, _NO_RING past the bound
    rings = np.maximum(np.ceil(exact / delta_d), 1.0)
    if upper_bound is not None:
        rings[exact > upper_bound] = _NO_RING
    return rings


def composed_stages(doc, upper_bound):
    # the pipeline's result from the public stages, each on its own
    cloud = to_point_cloud(doc)
    distances = pairwise_distances([p.location for p in cloud.points], upper_bound=upper_bound)
    kf = with_cluster_distance(compute_k_function(distances, len(cloud)))
    staged = disambiguate(doc, rank_clusters(form_clusters(cloud, kf.cluster_distance)))
    return DisambiguationResult(
        doc_id=staged.doc_id,
        outcomes=staged.outcomes,
        ranked_clusters=staged.ranked_clusters,
        diagnostics=kf,
    )


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
            assert len(list(_row_blocks(n))) > 1
            got = chord_rings_by_pair(cloud, delta_d, upper_bound)
            assert got.tobytes() == exact_rings(exact, delta_d, upper_bound).tobytes()
            if len(in_bound):
                blocks, _, _ = geo._rings_within(cloud, delta_d, upper_bound)
                counts = _count_rings(blocks, delta_d, geo._MAX_DISTANCE_M / delta_d + 1, len(exact))
                for got_counts, want in zip(counts[:2], unique_ring_counts(in_bound, delta_d)):
                    assert got_counts.tobytes() == want.tobytes()
            kf = outcome(streamed_curve, cloud, delta_d, upper_bound)
            want = outcome(stored_curve, in_bound, n, delta_d)
            if isinstance(want, tuple):
                assert kf == want
                return
            assert curve_bytes(kf) == curve_bytes(want)
            threshold = with_cluster_distance(kf).cluster_distance
            pair = float(exact[rng.integers(len(exact))])
            for limit in [threshold] + [near(pair, choice) for choice in LIMITS]:
                for min_pts in range(1, 7) if limit > 0 else ():
                    want = union_find_dbscan_groups(exact.tolist(), n, limit, min_pts)
                    labels = _dbscan_groups(cloud, limit, min_pts)
                    assert groups_of(labels) == want
                    if min_pts == 1:  # every point core: labelled with its component's smallest index
                        assert labels.tolist() == [min(g) for i in range(n) for g in want if i in g]

    @pytest.mark.parametrize("upper_bound", [None, 3e6])
    def test_pipeline_equals_composed_stages(self, upper_bound):
        spec = SynthSpec(n_docs=1, mentions_per_doc=8, decoys_per_mention=(5, 5), seed=5)
        doc = synth_generate(spec)[0]
        staged = composed_stages(doc, upper_bound)
        with small_blocks(), mock.patch.object(
            geo, "condensed_distances", side_effect=AssertionError("a stored vector")
        ):
            piped = densityk_pipeline(doc, upper_bound=upper_bound)
        assert to_canonical_json(result_to_dict(piped)) == to_canonical_json(result_to_dict(staged))
        assert curve_bytes(piped.diagnostics) == curve_bytes(staged.diagnostics)

    @pytest.mark.parametrize("upper_bound", [None, 3e6])
    @pytest.mark.parametrize("n", [257, 258])
    def test_pipeline_equals_composed_stages_across_one_block(self, n, upper_bound):
        # at the real block size: the largest cloud that keeps its vector
        # and the smallest that streams
        assert geo._ONE_BLOCK_N == 257
        coords = random_coords(np.random.default_rng(n), n)
        doc = make_document("edge", {f"m{k}": coords[k::5] for k in range(5)})
        staged = composed_stages(doc, upper_bound)
        piped = densityk_pipeline(doc, upper_bound=upper_bound)
        assert len(to_point_cloud(doc)) == n
        assert ("_distances" in to_point_cloud(doc).__dict__) == (n == 257)
        assert to_canonical_json(result_to_dict(piped)) == to_canonical_json(result_to_dict(staged))
        assert curve_bytes(piped.diagnostics) == curve_bytes(staged.diagnostics)

    @pytest.mark.parametrize("delta_d", [math.nan, math.inf, 0.0, -1.0, 1e-310, 1e-300, 1e154, 1e200])
    def test_curve_errors_and_their_order(self, delta_d):
        # the exact vector's error, raised with no warning on the way: the
        # ring limit is checked on each block before its ring indices are cast
        cloud = make_cloud(random_coords(np.random.default_rng(4), 30))
        with small_blocks(), warnings.catch_warnings():
            warnings.simplefilter("error")
            want = outcome(stored_curve, condensed_distances(cloud), len(cloud), delta_d)
            assert isinstance(want, tuple)
            assert outcome(streamed_curve, cloud, delta_d, None) == want

    def test_no_pair_within_the_bound(self):
        cloud = make_cloud([(0.0, 0.1 * k) for k in range(10)])
        with small_blocks():
            got = outcome(streamed_curve, cloud, 100.0, 5.0)
        assert got == outcome(stored_curve, np.empty(0), len(cloud), 100.0)


def pair_set(blocks) -> list[tuple[int, int]]:
    # the pairs that the blocks of an edge source hold, each checked to
    # come once and as (i, j), i < j
    pairs = [(i, j) for ii, jj in blocks for i, j in zip(ii.tolist(), jj.tolist())]
    assert all(i < j for i, j in pairs)
    assert len(set(pairs)) == len(pairs)
    return sorted(pairs)


def exact_pairs(exact, n: int, limit: float) -> list[tuple[int, int]]:
    # the pairs (i, j), i < j, of the exact vector within the limit
    return sorted(zip(*(a.tolist() for a in condensed_pairs(np.flatnonzero(exact <= limit), n))))


# limits at and past the reach, where the band's windows hold every later point
PAST_REACH = [_CHORD_REACH_M - _CHORD_MARGIN_M, _CHORD_REACH_M, math.pi * EARTH_RADIUS_M]
DEG_PER_M = math.degrees(1.0 / EARTH_RADIUS_M)
# a chain 10 m a link along the prime meridian, astride 40 points on the
# equator within 5 degrees of it: the sort axis is y, and every point of
# the chain has y = 0
TIED_CHAIN = [(k * 10.0 * DEG_PER_M, 0.0) for k in range(12)] + [(0.0, lon) for lon in np.linspace(-5, 5, 40).tolist()]
# two pairs of antipodes, one of them nudged by under 1 mm, twice over
ANTIPODES = [(30.0, 40.0), (-30.0, -140.0 + 1e-3 * DEG_PER_M), (0.0, 0.0), (0.0, 180.0)] * 2


class TestBand:
    @settings(max_examples=200, deadline=None)
    @given(
        clouds(),
        st.sampled_from(LIMITS + [None]),
        st.sampled_from(PAST_REACH),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    # coincident points: a band of every pair
    @example(([(10.0, 20.0)] * 12, 100.0), 0.0, PAST_REACH[0], 0, True)
    @example((TIED_CHAIN, 1.0), -math.inf, PAST_REACH[0], 1, True)
    @example((TIED_CHAIN, 1.0), 0.5, PAST_REACH[0], 3, False)
    @example((ANTIPODES, 1.0), 0.5, PAST_REACH[0], 1, False)
    @example((ANTIPODES, 1.0), None, PAST_REACH[1], 0, True)
    def test_band_pairs_equal_exact_pairs(self, case, choice, past, seed, patched):
        # The band's pairs within a limit at, next to and half the margin
        # off a pair's distance (one of the shortest quarter, where a band
        # holds few of the pairs), or at and past the reach, where it holds
        # them all, are the exact vector's, with blocks of 16 entries and
        # of the real size; and past one (patched) block the edge source
        # yields them.
        coords, _ = case
        cloud = make_cloud(coords)
        n = len(cloud)
        exact = condensed_distances(cloud)
        pair = float(np.sort(exact)[int(np.random.default_rng(seed).integers(len(exact))) // 4])
        limit = past if choice is None else near(pair, choice)
        want = exact_pairs(exact, n, limit)
        with small_blocks() if patched else contextlib.nullcontext():
            band = geo._band(cloud, limit)
            if limit + _CHORD_MARGIN_M >= _CHORD_REACH_M:
                assert int(band[2][-1]) == n * (n - 1) // 2
            blocks = list(geo._band_pairs_within(cloud._radians, limit, *band))
            assert len(blocks) == -(-int(band[2][-1]) // geo.BLOCK_ELEMENTS)
            assert pair_set(blocks) == want
            if patched:
                assert n > geo._ONE_BLOCK_N
                assert pair_set(geo._pairs_within(cloud, limit)()) == want

    def test_a_wide_band_yields_the_exact_pairs(self):
        # a regional cloud at a limit that reaches most of its pairs: the
        # band gathers more than a third of them, and the edge source
        # yields the exact vector's pairs all the same
        rng = np.random.default_rng(8)
        cloud = make_cloud(np.column_stack((rng.uniform(44.7, 45.3, 300), rng.uniform(6.6, 7.4, 300))).tolist())
        n = len(cloud)
        assert n > geo._ONE_BLOCK_N
        assert 3 * int(geo._band(cloud, 50_000.0)[2][-1]) > n * (n - 1) // 2
        blocks = list(geo._pairs_within(cloud, 50_000.0)())
        assert pair_set(blocks) == exact_pairs(condensed_distances(cloud), n, 50_000.0)

    @pytest.mark.parametrize("min_pts", [1, 5])
    def test_band_labels_equal_union_find(self, min_pts):
        # at the real block size, on a cloud past one block
        doc, n = synth_cloud_document(20, 29, seed=4)
        cloud = to_point_cloud(doc)
        assert n == 600 > geo._ONE_BLOCK_N
        epsilon = 300_000.0
        want = union_find_dbscan_groups(condensed_distances(cloud).tolist(), n, epsilon, min_pts)
        assert groups_of(_dbscan_groups(cloud, epsilon, min_pts)) == want

    @pytest.mark.parametrize("epsilon", [300_000.0, 1.5e7])
    def test_both_dbscan_passes_ask_the_edge_source(self, epsilon):
        # at min_pts > 1 each of the two passes asks the edge source, which
        # holds nothing between them past one block; at min_pts 1 the one
        # pass asks once; the labels are union-find's either way
        doc, n = synth_cloud_document(20, 29, seed=4)
        cloud = to_point_cloud(doc)
        assert n > geo._ONE_BLOCK_N
        pairs_within, calls = geo._pairs_within, []

        def counted(cloud, limit):
            source = pairs_within(cloud, limit)
            return lambda: calls.append(limit) or source()

        for min_pts, asked in ((3, 2), (1, 1)):
            calls.clear()
            with mock.patch.object(geo, "_pairs_within", counted):
                labels = _dbscan_groups(cloud, epsilon, min_pts)
            assert calls == [epsilon] * asked
            want = union_find_dbscan_groups(condensed_distances(cloud).tolist(), n, epsilon, min_pts)
            assert groups_of(labels) == want

    def test_band_gathers_in_blocks_beside_the_distance_vector(self):
        # a band of more candidate pairs than one block holds is gathered a
        # block at a time, and DBSCAN on it stays within the bound of
        # TestMemory.test_dbscan_streams_beside_the_distance_vector
        doc, n = synth_cloud_document(100, 29, seed=3)
        cloud = to_point_cloud(doc)
        epsilon = 300_000.0
        candidates = int(geo._band(cloud, epsilon)[2][-1])
        assert candidates > 3 * geo.BLOCK_ELEMENTS
        blocks = list(geo._pairs_within(cloud, epsilon)())
        assert len(blocks) == -(-candidates // geo.BLOCK_ELEMENTS)
        for min_pts in (1, 5):
            _, peak = traced_peak(lambda: dbscan(cloud, epsilon, min_pts))
            assert peak < 8 * (n * (n - 1) // 2) / 4


@st.composite
def gram_clouds(draw):
    """Coordinates and a ring width for the Gram form: two tight groups on
    opposite sides of the globe, a little global scatter, coincident
    points, antipodes of some points nudged by up to a millimetre, and
    pairs along a meridian at whole ring widths and 0.5 mm either side."""
    delta_d = draw(st.sampled_from([7.3, 100.0, 2500.0, 1e5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lat0, lon0 = float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180))
    spread = draw(st.sampled_from([1e-6, 1e-4, 1e-2]))  # degrees
    coords = []
    for lat, lon in ((lat0, lon0), (-lat0, lon0 + 180.0 + draw(st.sampled_from([0.0, 1.0, 20.0])))):
        k = draw(st.integers(3, 12))
        coords += list(zip((lat + rng.normal(0, spread, k)).tolist(), (lon + rng.normal(0, spread, k)).tolist()))
    coords += random_coords(rng, draw(st.integers(0, 6)))
    coords += [coords[i] for i in draw(st.lists(st.integers(0, len(coords) - 1), max_size=4))]
    mm = math.degrees(1e-3 / EARTH_RADIUS_M)
    for i in draw(st.lists(st.integers(0, len(coords) - 1), max_size=4)):
        lat, lon = coords[i]
        nudge = draw(st.sampled_from([0.0, 0.3, 1.0]))
        coords.append((float(np.clip(-lat + nudge * mm, -90, 90)), lon + 180.0 + nudge * mm))
    lat1, lon1 = float(rng.uniform(-60, 20)), float(rng.uniform(-180, 180))
    for k in draw(st.lists(st.integers(1, 40), max_size=3)):
        for off in (-5e-4, 0.0, 5e-4):
            coords += [(lat1, lon1), (lat1 + math.degrees((k * delta_d + off) / EARTH_RADIUS_M), lon1)]
    return coords, delta_d


class TestChordKernel:
    @settings(max_examples=120, deadline=None)
    @given(gram_clouds(), st.sampled_from([None] + LIMITS), st.integers(0, 2**32 - 1))
    @example(([(10.0, 20.0)] * 8 + [(-10.0, -160.0)] * 8, 100.0), 0.0, 0)  # coincident, and antipodal
    def test_rings_and_pairs_equal_the_exact_vector(self, case, bound, seed):
        # Past one (patched) block, each pair's ring, the ring counts on
        # either side of the span rule with and without upper_bound, and
        # the edge source's pairs within a limit, from the band, are those
        # of the exact vector.
        coords, delta_d = case
        cloud = make_cloud(coords)
        n = len(cloud)
        rng = np.random.default_rng(seed)
        exact = condensed_distances(cloud)
        pair = float(exact[rng.integers(len(exact))])
        upper_bound = None if bound is None else near(pair, bound)
        in_bound = exact if upper_bound is None else exact[exact <= upper_bound]
        want_rings, want_counts = unique_ring_counts(in_bound, delta_d)
        with small_blocks():
            assert n > geo._ONE_BLOCK_N
            got = chord_rings_by_pair(cloud, delta_d, upper_bound)
            assert got.tobytes() == exact_rings(exact, delta_d, upper_bound).tobytes()
            blocks, largest, total = geo._rings_within(cloud, delta_d, upper_bound)
            blocks, span = list(blocks), largest / delta_d + 1
            for dense in (True, False) if span < 2**20 else (False,):  # either side of the span rule, forced
                rings, counts, added, farthest = _count_rings(iter(blocks), delta_d, span, 4 * span if dense else 0)
                assert rings.tobytes() == want_rings.tobytes()
                assert counts.tobytes() == want_counts.tobytes()
                assert added == len(in_bound)
                assert farthest == (max(math.ceil(in_bound.max() / delta_d), 1) if len(in_bound) else 0.0)
            for limit in [near(pair, choice) for choice in LIMITS] + PAST_REACH[:1]:
                want = exact_pairs(exact, n, limit)
                assert pair_set(geo._pairs_within(cloud, limit)()) == want

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
    def test_trusted_chord_distance_within_the_bound(self, seed):
        # every pair that the Gram form keeps from the haversine, at or
        # above its column's floor and within the reach, lies within 1e-5 m
        # of its haversine distance (see _chord_rings), short ones included
        cloud = make_cloud(self.stress_cloud(seed))
        _, _, units = cloud._band_order
        exact = condensed_distances(cloud)
        worst, short = 0.0, 0
        for r0, r1 in _row_blocks(len(cloud)):
            h, floor = _gram_haversines(units, r0, r1)
            trusted = ((h >= floor) & (h <= _REACH_H)).reshape(-1)
            chord = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0))).reshape(-1)
            at, pair = block_pairs(cloud, r0, r1)
            trusted &= pair
            d = exact[at]
            worst = max(worst, float(np.abs(chord - d)[trusted].max()))
            short += int((trusted & (d >= 1.0) & (d <= 100.0)).sum())
        assert short >= 80
        assert worst < 1e-5

    def test_pairs_past_the_reach_take_the_haversine(self):
        cloud = make_cloud(self.stress_cloud(3))
        n = len(cloud)
        exact = condensed_distances(cloud)
        asked = []
        pair_distances = geo._pair_distances

        def recorded(radians, i, j, out=None):
            asked.append(condensed_index(i, j, n))
            return pair_distances(radians, i, j, out=out)

        with mock.patch.object(geo, "_pair_distances", recorded):
            got = chord_rings_by_pair(cloud, 100.0, None)
        far = np.flatnonzero(exact > _CHORD_REACH_M)
        assert len(far) > 50
        assert np.isin(far, np.concatenate(asked)).all()
        assert got.tobytes() == exact_rings(exact, 100.0, None).tobytes()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_span_bound_covers_every_ring(self, seed):
        # the dense ring count spans the rings up to _diameter_bound's and
        # indexes them by the chord kernel's rings. In the regional cloud
        # point 0 lies midway between each point and its reflection, so the
        # farthest pair is twice the farthest point from point 0 and the
        # bound is tight to its margin.
        rng = np.random.default_rng(seed)
        scales = 10.0 ** -rng.integers(0, 6, 300)
        half = [(lat * s, lon * s) for (lat, lon), s in zip(rng.uniform(-40.0, 40.0, (300, 2)), scales)]
        regional = [(0.0, 0.0)] + half + [(-lat, -lon) for lat, lon in half]
        for coords in (self.stress_cloud(seed), regional):
            cloud = make_cloud(coords)
            _, order, units = cloud._band_order
            bound = _diameter_bound(cloud._radians)
            farthest = float(condensed_distances(cloud).max())
            assert farthest <= bound <= geo._MAX_DISTANCE_M
            for spacing in (1.0, 100.0):
                ring = max(
                    float(_chord_rings(cloud._radians, order, units, r0, r1, spacing, None).max())
                    for r0, r1 in _row_blocks(len(cloud))
                )
                assert ring <= math.ceil(bound / spacing)
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
    @pytest.mark.parametrize("patched", [False, True])
    @pytest.mark.parametrize("past", [0, 1])
    def test_only_a_one_block_cloud_keeps_its_vector(self, patched, past):
        # after the pipeline, DBSCAN and k-dist, a cloud keeps its pair
        # distances up to geo._ONE_BLOCK_N points, real or patched, and not
        # one point beyond
        with small_blocks() if patched else contextlib.nullcontext():
            n = geo._ONE_BLOCK_N + past
            coords = random_coords(np.random.default_rng(n), n)
            doc = make_document("edge", {f"m{k}": coords[k::3] for k in range(3)})
            cloud = to_point_cloud(doc)
            assert len(cloud) == n
            densityk_pipeline(doc)
            dbscan(cloud, 2000.0, 2)
            kdist_disambiguate(doc, 2, 1)
            assert ("_distances" in cloud.__dict__) == (not past)

    def test_flat_memory_beside_the_distance_vector(self):
        # the pipeline stores no pair distance: a quarter of the vector is
        # more than its peak
        doc, n = synth_cloud_document(100, 29, seed=3)
        assert n == 3000
        _, peak = traced_peak(lambda: densityk_pipeline(doc))
        assert peak < 8 * (n * (n - 1) // 2) / 4

    @pytest.mark.parametrize("epsilon, min_pts", [(2000.0, 1), (20_000.0, 5), (200.0, 10), (3e6, 10)])
    def test_dbscan_streams_beside_the_distance_vector(self, epsilon, min_pts):
        # DBSCAN, like the pipeline, stores no pair distance past one block
        doc, n = synth_cloud_document(100, 29, seed=3)
        cloud = to_point_cloud(doc)
        for run in (lambda: dbscan(cloud, epsilon, min_pts), lambda: dbscan_disambiguate(doc, epsilon, min_pts)):
            _, peak = traced_peak(run)
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
