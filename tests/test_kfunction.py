import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densityk import (
    DistanceList,
    InsufficientPointsError,
    KFunction,
    compute_circular_k_function,
    compute_k_function,
    derive_cluster_distance,
    with_cluster_distance,
)
from densityk import kfunction
from densityk.kfunction import _RingCounts
from oracles import annular_density_curve, two_sigma_threshold_distance
from conftest import unique_ring_counts


def dl(values, n_points):
    return DistanceList(values=np.array(sorted(values), dtype=np.float64), n_points=n_points)


class TestComputeKFunction:
    def test_two_scale_fixture_sampled_distances(self):
        kf = compute_k_function(dl([30, 40, 50, 5000, 5010, 5020], 4), 4, delta_d=100.0)
        assert kf.distances_m.tolist() == [100.0, 5000.0, 5100.0]

    def test_two_scale_fixture_densities(self):
        kf = compute_k_function(dl([30, 40, 50, 5000, 5010, 5020], 4), 4, delta_d=100.0)
        # ring counts 3, 1, 2; density = 2*count / (4 * ring area)
        areas = [math.pi * 100**2, math.pi * (5000**2 - 4900**2), math.pi * (5100**2 - 5000**2)]
        expected = [2 * c / (4 * a) for c, a in zip([3, 1, 2], areas)]
        assert kf.densities.tolist() == pytest.approx(expected, rel=1e-12)

    def test_identical_distances_single_sample(self):
        kf = compute_k_function(dl([150.0] * 6, 4), 4, delta_d=100.0)
        assert kf.distances_m.tolist() == [200.0]

    def test_zero_distance_goes_to_first_ring(self):
        kf = compute_k_function(dl([0.0, 0.0, 50.0], 3), 3, delta_d=100.0)
        assert kf.distances_m.tolist() == [100.0]

    def test_all_densities_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            values = rng.uniform(0, 1e6, size=n * (n - 1) // 2)
            kf = compute_k_function(dl(values, n), n)
            assert np.all(kf.densities > 0)

    def test_boundary_distance_in_lower_ring(self):
        kf = compute_k_function(dl([5000.0], 2), 2, delta_d=100.0)
        assert kf.distances_m.tolist() == [5000.0]

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            compute_k_function(dl([10.0], 2), 1)

    def test_empty_distances(self):
        with pytest.raises(InsufficientPointsError):
            compute_k_function(DistanceList(values=np.empty(0), n_points=2), 2)

    def test_bad_delta_d(self):
        with pytest.raises(ValueError):
            compute_k_function(dl([10.0], 2), 2, delta_d=0.0)

    @pytest.mark.parametrize("curve", [compute_k_function, compute_circular_k_function])
    @pytest.mark.parametrize("delta_d", [math.nan, math.inf, 1e-300, 1e154, 1e200])
    def test_delta_d_the_rings_cannot_use(self, curve, delta_d):
        # 1e-300 puts a 1 km pair in ring 1e303, far past exact float64 integers;
        # at 1e154 pi * d**2 overflows, at 1e200 d**2 itself, and the density reads 0
        with pytest.raises(ValueError, match="delta_d"):
            curve(dl([10.0, 1000.0], 2), 2, delta_d=delta_d)

    def test_largest_ring_index_limit(self):
        assert compute_k_function(dl([2.0**53], 2), 2, delta_d=1.0).distances_m.tolist() == [2.0**53]
        with pytest.raises(ValueError):
            compute_k_function(dl([2.0**54], 2), 2, delta_d=1.0)

    @pytest.mark.parametrize("curve", [compute_k_function, compute_circular_k_function])
    def test_largest_ring_area_limit(self, curve):
        # n * pi * d**2 is 6.3e304 for two points and overflows for 10**5
        kf = curve(dl([10.0, 1000.0], 2), 2, delta_d=1e152)
        assert kf.distances_m.tolist() == [1e152]
        assert kf.densities[0] > 0
        with pytest.raises(ValueError, match="too large"):
            curve(dl([10.0, 1000.0], 10**5), 10**5, delta_d=1e152)

    def test_matches_literal_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(6, 25))
            n_near = 5
            values = np.concatenate(
                [
                    rng.uniform(0, 2000, size=n_near),
                    rng.uniform(1e5, 1e7, size=n * (n - 1) // 2 - n_near),
                ]
            )
            kf = compute_k_function(dl(values, n), n)
            oracle = annular_density_curve([float(v) for v in values], n, 100.0)
            assert kf.distances_m.tolist() == [d for d, _ in oracle]
            assert kf.densities.tolist() == pytest.approx([k for _, k in oracle], rel=1e-12)


    def test_order_independent(self):
        rng = np.random.default_rng(8)
        values = np.concatenate([rng.uniform(0, 3000, 40), rng.uniform(1e5, 1e7, 400)])
        shuffled = DistanceList(values=rng.permutation(values), n_points=30)
        ordered = compute_k_function(dl(values, 30), 30)
        kf = compute_k_function(shuffled, 30)
        assert kf.distances_m.tobytes() == ordered.distances_m.tobytes()
        assert kf.densities.tobytes() == ordered.densities.tobytes()


def reference_curve(values, n_points, delta_d):
    # the curve's arrays from np.unique's ring counts, one expression each
    occupied, counts = unique_ring_counts(values, delta_d)
    d = occupied.astype(np.float64) * delta_d
    areas = np.pi * (d**2 - (d - delta_d) ** 2)
    return d, 2.0 * counts / (n_points * areas)


def counted_curve(values, n_points, delta_d):
    """compute_k_function's curve on an unsorted vector, whether its ring
    counter took the dense side of the span rule, and the ring counts the
    curve was computed from."""
    seen = []

    class Recorded(_RingCounts):
        def take(self):
            seen.append(self.dense is not None)
            seen.append(super().take())
            return seen[-1]

    with mock.patch.object(kfunction, "_RingCounts", Recorded):
        kf = compute_k_function(DistanceList(values=values, n_points=n_points), n_points, delta_d)
    return kf, *seen


@st.composite
def ring_values(draw, narrow):
    """Distances whose rings, from ring 1, span at most a quarter as many
    rings as there are distances (``narrow``) or more: zeros, exact
    multiples of delta_d and values between them; past the quarter, from
    ring 1 up to rings past 2**40."""
    delta_d = draw(st.sampled_from([0.1, 1.0, 7.3, 100.0]) | st.floats(1e-3, 1e4))
    n = draw(st.integers(8, 200))
    first = 0 if narrow else draw(st.sampled_from([0, 1, 5, 2**40]))
    span = draw(st.integers(1, n // 4 - 1) if narrow else st.integers(n // 4 + 2, 10 * n) | st.just(2**40))
    offsets = st.tuples(st.integers(0, span - 1), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    values = [max(0.0, (first + k - f) * delta_d) for k, f in draw(st.lists(offsets, min_size=n, max_size=n))]
    return np.array(values), delta_d


class TestRingCounts:
    @pytest.mark.parametrize("narrow", [True, False])
    @given(data=st.data(), block=st.sampled_from([1, 3, 1 << 16]))
    @settings(max_examples=60, deadline=None)
    def test_equal_unique_on_both_sides_of_the_span_rule(self, narrow, data, block):
        values, delta_d = data.draw(ring_values(narrow))
        with mock.patch.object(kfunction, "_COUNT_BLOCK", block):
            kf, dense, (occupied, counts) = counted_curve(values, 5, delta_d)
        assume(dense == narrow)
        want_rings, want_counts = unique_ring_counts(values, delta_d)
        assert occupied.dtype == want_rings.dtype and counts.dtype == want_counts.dtype
        assert occupied.tobytes() == want_rings.tobytes()
        assert counts.tobytes() == want_counts.tobytes()
        d, densities = reference_curve(values, 5, delta_d)
        assert kf.distances_m.tobytes() == d.tobytes()
        assert kf.densities.tobytes() == densities.tobytes()

    @pytest.mark.parametrize("rings", [20_000, 100_000, 200_000])
    def test_many_blocks_of_a_large_vector(self, rings):
        # seven blocks of 2**16 distances, counted on either side of the span rule
        values = np.random.default_rng(rings).uniform(0.0, rings * 100.0, 450_000)
        kf, dense, (occupied, counts) = counted_curve(values, 950, 100.0)
        assert dense == (rings <= 100_000)
        want_rings, want_counts = unique_ring_counts(values, 100.0)
        assert occupied.tobytes() == want_rings.tobytes()
        assert counts.tobytes() == want_counts.tobytes()
        d, densities = reference_curve(values, 950, 100.0)
        assert kf.distances_m.tobytes() == d.tobytes()
        assert kf.densities.tobytes() == densities.tobytes()


class TestDeriveClusterDistance:
    def test_single_sample_fallback(self):
        kf = compute_k_function(dl([150.0] * 6, 4), 4, delta_d=100.0)
        assert derive_cluster_distance(kf) == 200.0

    def test_two_scale_fixture(self):
        # densities 4.77e-5, 1.6e-7, 3.2e-7: cutoff sits between the peak and
        # the tail, so the first past-peak sample wins
        kf = compute_k_function(dl([30, 40, 50, 5000, 5010, 5020], 4), 4, delta_d=100.0)
        assert derive_cluster_distance(kf) == 5000.0

    def test_monotone_curve_matches_oracle(self):
        d = np.arange(1, 31, dtype=np.float64) * 100.0
        k = 1.0 / np.arange(1, 31, dtype=np.float64) ** 2
        kf = KFunction(delta_d=100.0, distances_m=d, densities=k)
        assert derive_cluster_distance(kf) == two_sigma_threshold_distance(list(zip(d, k)))

    def test_random_curves_match_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = int(rng.integers(1, 40))
            d = np.sort(rng.choice(np.arange(1, 500), size=m, replace=False)).astype(float) * 100.0
            k = rng.uniform(1e-12, 1e-6, size=m)
            kf = KFunction(delta_d=100.0, distances_m=d, densities=k)
            assert derive_cluster_distance(kf) == two_sigma_threshold_distance(list(zip(d, k)))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50)
    def test_scale_invariance(self, factor):
        kf = compute_k_function(dl([30, 40, 50, 900, 5000, 5010, 5020, 12000], 5), 5)
        scaled = KFunction(
            delta_d=kf.delta_d, distances_m=kf.distances_m, densities=kf.densities * factor
        )
        assert derive_cluster_distance(scaled) == derive_cluster_distance(kf)

    def test_with_cluster_distance_is_sampled(self):
        kf = with_cluster_distance(
            compute_k_function(dl([30, 40, 50, 5000, 5010, 5020], 4), 4)
        )
        assert kf.cluster_distance in kf.distances_m


class TestCircularKFunction:
    def test_samples_every_step_after_first(self):
        kf = compute_circular_k_function(dl([150.0, 950.0], 3), 3, delta_d=100.0)
        assert kf.distances_m.tolist() == [x * 100.0 for x in range(2, 11)]

    def test_cumulative_counts(self):
        kf = compute_circular_k_function(dl([150.0, 950.0], 3), 3, delta_d=100.0)
        # disk at 200 m holds one pair, disk at 1000 m holds both
        assert kf.densities[0] == pytest.approx(2 * 1 / (3 * math.pi * 200.0**2), rel=1e-12)
        assert kf.densities[-1] == pytest.approx(2 * 2 / (3 * math.pi * 1000.0**2), rel=1e-12)

    def test_smoother_than_annular_on_two_scale_data(self):
        values = [30, 40, 50, 5000, 5010, 5020]
        circ = compute_circular_k_function(dl(values, 4), 4)
        assert len(circ) == 51
        assert np.all(circ.densities > 0)
