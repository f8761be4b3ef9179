"""Disjoint/overlapped range arithmetic and partition-of-unity weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcdd import partition as pt


def covered_indices(rng):
    return set(int(i) for i in rng.indices())


def brute_force_cover_counts(part):
    counts = np.zeros(part.n, dtype=int)
    for rng in part.overlapped:
        for j in covered_indices(rng):
            counts[j] += 1
    return counts


class TestDisjoint:
    def test_sizes_9_2(self):
        ranges = pt.disjoint_partition(9, 2)
        assert [r.length for r in ranges] == [5, 4]

    def test_exact_division(self):
        ranges = pt.disjoint_partition(49, 7)
        assert all(r.length == 7 for r in ranges)

    def test_fixed_subdomain_size(self):
        for p in (3, 7, 16):
            ranges = pt.disjoint_partition(256 * p, p)
            assert all(r.length == 256 for r in ranges)

    def test_tiling(self):
        ranges = pt.disjoint_partition(23, 5)
        seen = []
        for r in ranges:
            seen.extend(r.indices())
        assert seen == list(range(23))

    def test_rejects_p_greater_than_n(self):
        with pytest.raises(ValueError):
            pt.disjoint_partition(3, 4)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5000), st.integers(1, 64))
    def test_balance_and_cover_randomized(self, n, p):
        if p > n:
            return
        ranges = pt.disjoint_partition(n, p)
        sizes = [r.length for r in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n
        assert sizes == sorted(sizes, reverse=True)


class TestEnlarge:
    def test_gamma_zero_is_identity(self):
        disjoint = pt.disjoint_partition(16, 4)
        assert pt.enlarge(disjoint, 0.0) == disjoint

    def test_gamma_one_adds_both_neighbours(self):
        disjoint = pt.disjoint_partition(20, 5)
        overlapped = pt.enlarge(disjoint, 1.0)
        for i, rng in enumerate(overlapped):
            expected = (covered_indices(disjoint[(i - 1) % 5])
                        | covered_indices(disjoint[i])
                        | covered_indices(disjoint[(i + 1) % 5]))
            assert covered_indices(rng) == expected

    def test_gamma_half_takes_closer_halves(self):
        disjoint = pt.disjoint_partition(16, 4)
        overlapped = pt.enlarge(disjoint, 0.5)
        assert all(r.length == 8 for r in overlapped)
        # range 1 ([4,8)) grows to [2, 10)
        assert covered_indices(overlapped[1]) == set(range(2, 10))
        # range 0 wraps: last two of [12,16) plus [0,4) plus first two of [4,8)
        assert covered_indices(overlapped[0]) == {14, 15, 0, 1, 2, 3, 4, 5}

    def test_fractional_gamma_ceil_left_floor_right(self):
        disjoint = pt.disjoint_partition(15, 3)  # sizes 5,5,5
        overlapped = pt.enlarge(disjoint, 0.3)
        # ceil(0.3*5)=2 to the left, floor(0.3*5)=1 to the right
        assert all(r.length == 5 + 2 + 1 for r in overlapped)
        assert covered_indices(overlapped[1]) == set(range(3, 11))

    def test_gamma_a_fifth_float_arithmetic(self):
        # 0.2*15 = 3.0000000000000004 in floats; slice sizes must stay exact
        disjoint = pt.disjoint_partition(75, 5)  # sizes 15
        overlapped = pt.enlarge(disjoint, 0.2)
        assert all(r.length == 15 + 3 + 3 for r in overlapped)

    def test_containment(self):
        disjoint = pt.disjoint_partition(37, 6)
        for gamma in (0.25, 0.5, 1.0, 2.0):
            overlapped = pt.enlarge(disjoint, gamma)
            for small, big in zip(disjoint, overlapped):
                assert covered_indices(small) <= covered_indices(big)

    def test_rejects_overlap_exceeding_p(self):
        disjoint = pt.disjoint_partition(16, 4)
        with pytest.raises(ValueError):
            pt.enlarge(disjoint, 2.0)  # 2*gamma+1 = 5 > 4

    def test_edge_overlap_equals_p(self):
        disjoint = pt.disjoint_partition(16, 4)
        overlapped = pt.enlarge(disjoint, 1.5)  # 2*gamma+1 = 4 = P
        assert all(r.length == 16 for r in overlapped)

    def test_single_subdomain_rejects_positive_gamma(self):
        disjoint = pt.disjoint_partition(8, 1)
        with pytest.raises(ValueError):
            pt.enlarge(disjoint, 0.5)


class TestWeights:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0])
    def test_half_integer_gamma_uniform_counts(self, gamma):
        part = pt.build_partition(63, 8, gamma)
        w = pt.compute_weights(part)
        c = int(round(2 * gamma + 1))
        assert np.all(w.counts == c)
        for diag in w.diagonals:
            np.testing.assert_array_equal(diag, np.full(diag.shape, 1.0 / c))
        np.testing.assert_array_equal(w.omega, np.full(8, 1.0 / c))

    def test_gamma_zero_all_ones(self):
        part = pt.build_partition(20, 4, 0.0)
        w = pt.compute_weights(part)
        assert np.all(w.counts == 1)
        assert np.all(w.omega == 1.0)

    def test_quarter_gamma_counts_in_one_two(self):
        part = pt.build_partition(16, 4, 0.25)
        w = pt.compute_weights(part)
        np.testing.assert_array_equal(w.counts, brute_force_cover_counts(part))
        assert set(np.unique(w.counts)) <= {1, 2}

    @pytest.mark.parametrize("n,p,gamma", [
        (16, 4, 0.25), (63, 8, 0.5), (100, 7, 1.0), (41, 5, 0.75),
        (129, 16, 1.5),
    ])
    def test_partition_of_unity(self, n, p, gamma):
        part = pt.build_partition(n, p, gamma)
        w = pt.compute_weights(part)
        acc = np.zeros(n)
        for rng, diag in zip(part.overlapped, w.diagonals):
            acc[rng.indices()] += diag
        np.testing.assert_array_equal(acc, np.ones(n))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(8, 400), st.integers(2, 16),
           st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5]))
    def test_cover_counts_match_brute_force(self, n, p, gamma):
        if p > n or 2 * gamma + 1 > p:
            return
        part = pt.build_partition(n, p, gamma)
        w = pt.compute_weights(part)
        np.testing.assert_array_equal(w.counts, brute_force_cover_counts(part))
        if (2 * gamma).is_integer():
            assert np.all(w.counts == int(round(2 * gamma + 1)))


class TestRestrictExtend:
    """R_i x = x[indices] and R_i^T y scattered back through indices."""

    def test_full_range_identity(self):
        rng = pt.CyclicRange(0, 6, 6)
        np.testing.assert_array_equal(rng.indices(), np.arange(6))

    def test_disjoint_ranges_give_zero(self):
        r1 = pt.CyclicRange(0, 3, 10)
        r2 = pt.CyclicRange(5, 3, 10)
        extended = np.zeros(10)
        extended[r1.indices()] = np.ones(3)
        np.testing.assert_array_equal(extended[r2.indices()], np.zeros(3))

    def test_wrap_around(self):
        rng = pt.CyclicRange(8, 4, 10)
        np.testing.assert_array_equal(rng.indices(), [8, 9, 0, 1])
        x = np.arange(10.0)
        np.testing.assert_array_equal(x[rng.indices()], [8.0, 9.0, 0.0, 1.0])

    def test_partition_reconstruction(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(23)
        total = np.zeros(23)
        for r in pt.disjoint_partition(23, 4):
            total[r.indices()] += x[r.indices()]
        np.testing.assert_array_equal(total, x)
