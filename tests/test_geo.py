import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densityk import (
    EARTH_RADIUS_M,
    DegenerateCentroidError,
    EmptyInputError,
    GeoPoint,
    condensed_distances,
    condensed_index,
    condensed_pairs,
    haversine,
    pairwise_distances,
    spherical_centroid,
)
from densityk.geo import (
    BLOCK_ELEMENTS,
    _condensed,
    _condensed_row_blocks,
    _pair_distances,
    _radian_arrays,
)
from conftest import make_cloud, random_coords
from oracles import slow_haversine, vector_mean_centroid

latitudes = st.floats(min_value=-90.0, max_value=90.0)
longitudes = st.floats(min_value=-180.0, max_value=179.999999)
geo_points = st.builds(GeoPoint, latitudes, longitudes)


def haversine_matrix(points) -> np.ndarray:
    """The full symmetric n-by-n distance matrix, in meters: the haversine
    formula vectorised on whole rows and columns, the reference that the
    blocked condensed vector and every matrix built from it must equal bit
    for bit. It keeps its own allocating spelling of the formula, so the
    in-place one in ``geo._haversine_arc`` is checked against it."""
    lat, lon, cos_lat = _radian_arrays(points)
    dphi, dlam = lat[:, None] - lat[None, :], lon[:, None] - lon[None, :]
    h = np.sin(dphi / 2.0) ** 2 + cos_lat[:, None] * cos_lat[None, :] * np.sin(dlam / 2.0) ** 2
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))


class TestGeoPoint:
    def test_lon_normalized(self):
        assert GeoPoint(0.0, 180.0).lon == -180.0
        assert GeoPoint(0.0, 270.0).lon == -90.0
        assert GeoPoint(0.0, -270.0).lon == 90.0

    def test_lat_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(90.5, 0.0)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)


class TestHaversine:
    def test_identity(self):
        assert haversine(GeoPoint(10, 20), GeoPoint(10, 20)) == 0.0

    def test_antipodal_arc(self):
        assert haversine(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(
            math.pi * EARTH_RADIUS_M, abs=0.1
        )

    def test_one_degree_equatorial_arc(self):
        assert haversine(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(
            EARTH_RADIUS_M * math.pi / 180.0, abs=0.1
        )

    @pytest.mark.parametrize("dlon", [90.5, 179.0, 179.99609375, 179.9999999, 180.0])
    def test_equatorial_arc_near_antipode(self, dlon):
        # an equatorial arc is R times its longitude span; near the antipode
        # the plain haversine formula lost 2e-5 m of it to cancellation
        assert haversine(GeoPoint(0, 0), GeoPoint(0, dlon)) == pytest.approx(
            EARTH_RADIUS_M * math.radians(dlon), abs=1e-6
        )

    def test_triangle_inequality_near_antipode(self):
        a, b, c = GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 179.99609375)
        assert haversine(a, c) <= haversine(a, b) + haversine(b, c) + 1e-6

    @given(geo_points, geo_points)
    def test_symmetric(self, a, b):
        assert haversine(a, b) == haversine(b, a)

    @given(geo_points, geo_points, geo_points)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert haversine(a, c) <= haversine(a, b) + haversine(b, c) + 1e-6


class TestPairwiseDistances:
    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            pairwise_distances([])

    def test_single_point(self):
        dl = pairwise_distances([GeoPoint(1, 2)])
        assert dl.count == 0

    def test_three_points_ascending(self):
        pts = [GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 3)]
        dl = pairwise_distances(pts)
        assert dl.count == 3
        assert list(dl.values) == sorted(dl.values)

    def test_pair_count_formula(self):
        rng = np.random.default_rng(7)
        pts = [GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180))) for _ in range(9)]
        assert pairwise_distances(pts).count == 9 * 8 // 2

    def test_bound_keeps_smallest_half(self):
        # 4 seeded points; bound at the median of the 6 brute-forced distances
        rng = np.random.default_rng(123)
        pts = [GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180))) for _ in range(4)]
        brute = sorted(
            slow_haversine(pts[i].lat, pts[i].lon, pts[j].lat, pts[j].lon)
            for i in range(4)
            for j in range(i + 1, 4)
        )
        bound = (brute[2] + brute[3]) / 2.0
        dl = pairwise_distances(pts, upper_bound=bound)
        assert dl.count == 3
        assert np.allclose(dl.values, brute[:3], atol=1e-6)

    def test_bound_equals_filtered_unbounded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            pts = [GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180))) for _ in range(n)]
            bound = float(rng.uniform(1e3, 2e7))
            full = pairwise_distances(pts).values
            assert np.array_equal(
                pairwise_distances(pts, upper_bound=bound).values, full[full <= bound]
            )

    @pytest.mark.parametrize("bound", [-5.0, -1e-300, math.nan])
    def test_bound_below_zero_or_nan_rejected(self, bound):
        with pytest.raises(ValueError, match="upper_bound must be >= 0"):
            pairwise_distances([GeoPoint(0, 0), GeoPoint(0, 1)], upper_bound=bound)

    def test_bound_zero_keeps_coincident_pairs(self):
        pts = [GeoPoint(0, 0), GeoPoint(0, 0), GeoPoint(0, 1)]
        assert list(pairwise_distances(pts, upper_bound=0.0).values) == [0.0]

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(11)
        pts = [GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180))) for _ in range(6)]
        matrix = haversine_matrix(pts)
        for i in range(6):
            for j in range(6):
                assert matrix[i, j] == pytest.approx(haversine(pts[i], pts[j]), abs=1e-6)


# the largest cloud condensed_distances computes in one block of rows
ONE_BLOCK_N = math.isqrt(BLOCK_ELEMENTS) + 1


class TestCondensedDistances:
    @pytest.mark.parametrize(
        "n", [2, ONE_BLOCK_N - 1, ONE_BLOCK_N, ONE_BLOCK_N + 1, 4 * ONE_BLOCK_N]
    )
    def test_bit_identical_to_matrix_upper_triangle(self, n):
        rng = np.random.default_rng(n)
        pts = [GeoPoint(lat, lon) for lat, lon in random_coords(rng, n)]
        expected = haversine_matrix(pts)[np.triu_indices(n, 1)]
        got = condensed_distances(pts)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", [2, 3, 7, 300])
    def test_index_and_pairs_follow_triu_order(self, n):
        rows, cols = np.triu_indices(n, 1)
        positions = np.arange(len(rows))
        i, j = condensed_pairs(positions, n)
        assert np.array_equal(i, rows) and np.array_equal(j, cols)
        assert np.array_equal(condensed_index(rows, cols, n), positions)

    @pytest.mark.parametrize("n", [2, 3, ONE_BLOCK_N - 1, ONE_BLOCK_N])
    def test_gathered_pairs_bit_identical_to_row_blocks(self, n):
        # with a coincident pair (h = 0) and an antipodal one (h clipped to 1)
        rng = np.random.default_rng(200 + n)
        coords = random_coords(rng, n)
        coords[-1] = coords[0]
        if n > 2:
            coords[1] = (-coords[0][0], coords[0][1] + 180.0)
        radians = _radian_arrays([GeoPoint(*xy) for xy in coords])
        gathered = _condensed(*radians)  # the one-block branch: the pairs gathered
        blocked = _condensed_row_blocks(*radians)
        assert np.array_equal(gathered.view(np.int64), blocked.view(np.int64))
        forward = _pair_distances(radians, *np.triu_indices(n, 1))
        assert np.array_equal(forward.view(np.int64), blocked.view(np.int64))

    @pytest.mark.parametrize("n", [ONE_BLOCK_N, ONE_BLOCK_N + 1])
    def test_cloud_arrays_give_the_same_vector(self, n):
        # on both sides of the one-block limit
        cloud = make_cloud(random_coords(np.random.default_rng(n), n))
        got = condensed_distances(cloud)
        expected = condensed_distances([p.location for p in cloud.points])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert cloud._radians is cloud._radians

    def test_no_pairs(self):
        assert condensed_distances([]).shape == (0,)
        assert condensed_distances([GeoPoint(1, 2)]).shape == (0,)

    def test_pairwise_distances_is_the_sorted_kernel(self):
        rng = np.random.default_rng(3)
        pts = [GeoPoint(lat, lon) for lat, lon in random_coords(rng, 2 * ONE_BLOCK_N)]
        assert np.array_equal(pairwise_distances(pts).values, np.sort(condensed_distances(pts)))

class TestSphericalCentroid:
    def test_single_point(self):
        assert spherical_centroid([GeoPoint(10, 20)]) == GeoPoint(10, 20)

    def test_equator_symmetry(self):
        c = spherical_centroid([GeoPoint(30, 0), GeoPoint(-30, 0)])
        assert c.lat == pytest.approx(0.0, abs=1e-9)
        assert c.lon == pytest.approx(0.0, abs=1e-9)

    def test_matches_vector_mean_oracle(self):
        rng = np.random.default_rng(99)
        coords = [(float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180))) for _ in range(5)]
        c = spherical_centroid([GeoPoint(*xy) for xy in coords])
        olat, olon = vector_mean_centroid(coords)
        assert c.lat == pytest.approx(olat, abs=1e-6)
        assert c.lon == pytest.approx(olon, abs=1e-6)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(42)
        coords = [(float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180))) for _ in range(8)]
        pts = [GeoPoint(*xy) for xy in coords]
        base = spherical_centroid(pts)
        for _ in range(5):
            perm = list(rng.permutation(len(pts)))
            c = spherical_centroid([pts[i] for i in perm])
            assert c.lat == pytest.approx(base.lat, abs=1e-9)
            assert c.lon == pytest.approx(base.lon, abs=1e-9)

    def test_antipodal_cancellation(self):
        with pytest.raises(DegenerateCentroidError):
            spherical_centroid([GeoPoint(0, 0), GeoPoint(0, 180)])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            spherical_centroid([])

    def test_antimeridian_straddle(self):
        c = spherical_centroid([GeoPoint(0, 179.5), GeoPoint(0, -179.5)])
        assert abs(c.lon) == pytest.approx(180.0, abs=1e-9) or c.lon == pytest.approx(180.0)
