"""Coarse restriction structure, Galerkin matrix, and deflation identities."""

import numpy as np
import pytest
import scipy.sparse as sp

from sfcdd import grid, linalg
from sfcdd.coarse import DeflationOperators, aggregate_sizes, build_coarse
from sfcdd.partition import build_partition


def random_spd_csr(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B.T @ B + n * np.eye(n))


def dense_coarse_correction(cs, A):
    R = cs.restriction.toarray()
    A0 = R @ A.toarray() @ R.T
    return R.T @ np.linalg.solve(A0, R)


def coarse_term(ops, v):
    """F v = R0^T A0^-1 R0 v from the operators' steps."""
    return ops.prolong(ops.coarse_correction(ops.restrict(v)))


class TestAggregateSizes:
    def test_exact_division(self):
        assert aggregate_sizes(12, 3) == [4, 4, 4]

    def test_remainder_goes_first(self):
        assert aggregate_sizes(11, 3) == [4, 4, 3]

    def test_q_equals_size(self):
        assert aggregate_sizes(5, 5) == [1, 1, 1, 1, 1]


class TestBuildCoarse:
    def test_q1_rows_are_subdomain_indicators(self):
        part = build_partition(23, 4, 0.5)
        A = random_spd_csr(23, 0)
        cs = build_coarse(part, A, 1)
        R = cs.restriction.toarray()
        assert R.shape == (4, 23)
        for i, rng in enumerate(part.disjoint):
            expected = np.zeros(23)
            expected[rng.indices()] = 1.0
            np.testing.assert_array_equal(R[i], expected)
        np.testing.assert_array_equal(R.sum(axis=1),
                                      [r.length for r in part.disjoint])

    def test_q_equal_subdomain_size_gives_identity(self):
        part = build_partition(12, 3, 0.0)
        A = random_spd_csr(12, 1)
        cs = build_coarse(part, A, 4)  # every aggregate is one fine index
        np.testing.assert_array_equal(cs.restriction.toarray(), np.eye(12))
        np.testing.assert_allclose(cs.matrix.toarray(), A.toarray(), atol=1e-12)

    def test_n12_p2_q3_two_ones_per_row(self):
        part = build_partition(12, 2, 0.0)
        A = random_spd_csr(12, 2)
        cs = build_coarse(part, A, 3)
        R = cs.restriction
        assert R.shape == (6, 12)
        np.testing.assert_array_equal(np.asarray(R.sum(axis=1)).ravel(),
                                      np.full(6, 2.0))
        np.testing.assert_array_equal(np.asarray(R.sum(axis=0)).ravel(),
                                      np.ones(12))

    def test_csr_arrays_match_brute_force_indicators(self):
        # N mod P = 3 and the subdomain lengths 6, 6, 6, 5 leave
        # remainders 2 and 1 against q = 4
        n, p, q = 23, 4, 4
        part = build_partition(n, p, 0.5)
        R = build_coarse(part, random_spd_csr(n, 5), q).restriction
        dense = np.zeros((p * q, n))
        for i, rng in enumerate(part.disjoint):
            chunks = np.array_split(rng.indices(), q)
            for m, chunk in enumerate(chunks):
                dense[i * q + m, chunk] = 1.0
        expected = sp.csr_matrix(dense)
        np.testing.assert_array_equal(R.indptr, expected.indptr)
        np.testing.assert_array_equal(R.indices, expected.indices)
        np.testing.assert_array_equal(R.data, expected.data)

    def test_every_column_has_exactly_one_nonzero(self):
        part = build_partition(37, 5, 1.0)
        A = random_spd_csr(37, 3)
        cs = build_coarse(part, A, 3)
        col_counts = np.asarray((cs.restriction != 0).sum(axis=0)).ravel()
        np.testing.assert_array_equal(col_counts, np.ones(37))

    def test_aggregates_follow_disjoint_partition_not_overlapped(self):
        part = build_partition(20, 4, 1.0)  # heavy overlap
        A = random_spd_csr(20, 4)
        cs = build_coarse(part, A, 2)
        R = cs.restriction.toarray()
        for i, rng in enumerate(part.disjoint):
            rows = R[2 * i: 2 * i + 2]
            support = np.flatnonzero(rows.sum(axis=0))
            np.testing.assert_array_equal(support, np.sort(rng.indices()))

    def test_galerkin_matches_dense_oracle(self):
        part = build_partition(30, 4, 0.5)
        A = random_spd_csr(30, 5)
        cs = build_coarse(part, A, 3)
        R = cs.restriction.toarray()
        expected = R @ A.toarray() @ R.T
        np.testing.assert_allclose(cs.matrix.toarray(), expected, atol=1e-13)

    def test_coarse_matrix_spd_for_laplacian(self):
        levels = (4, 3)
        A = grid.assemble_laplacian(levels)
        part = build_partition(A.shape[0], 6, 0.5)
        cs = build_coarse(part, A, 4)
        np.linalg.cholesky(cs.matrix.toarray())

    def test_q_out_of_range(self):
        part = build_partition(12, 3, 0.0)
        A = random_spd_csr(12, 6)
        with pytest.raises(ValueError):
            build_coarse(part, A, 0)
        with pytest.raises(ValueError):
            build_coarse(part, A, 5)  # floor(12/3) = 4

    @pytest.mark.parametrize("q", [2.0, 2.5])
    def test_q_must_be_an_integer(self, q):
        part = build_partition(12, 3, 0.0)
        A = random_spd_csr(12, 6)
        with pytest.raises(ValueError, match=f"q must be an integer, got {q}"):
            build_coarse(part, A, q)
        assert build_coarse(part, A, np.int64(2)).n0 == 6


class TestDeflation:
    def setup_method(self):
        self.levels = (3, 3)
        self.A = grid.assemble_laplacian(self.levels)
        self.part = build_partition(49, 4, 0.5)
        self.cs = build_coarse(self.part, self.A, 3)
        self.ops = DeflationOperators(self.cs)

    def test_coarse_correction_matches_dense(self):
        F = dense_coarse_correction(self.cs, self.A)
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = rng.standard_normal(49)
            np.testing.assert_allclose(coarse_term(self.ops, v), F @ v,
                                       atol=1e-10)

    def test_f_reproduces_coarse_vectors(self):
        # F A R0^T w = R0^T w for any coarse w
        rng = np.random.default_rng(8)
        w = rng.standard_normal(self.cs.n0)
        v = self.cs.restriction.T @ w
        np.testing.assert_allclose(coarse_term(self.ops, self.A @ v), v,
                                   atol=1e-10)

    def test_products_by_the_kept_restricted_matrix(self):
        # F A v and A R0^T y through R0 A, without a product by A
        rng = np.random.default_rng(11)
        R0, A = self.cs.restriction, self.A
        assert abs(self.cs.restricted_matrix - R0 @ A).max() == 0.0
        for _ in range(3):
            v = rng.standard_normal(49)
            y = rng.standard_normal(self.cs.n0)
            coarse = self.ops.coarse_correction(self.ops.restrict_a(v))
            assert coarse.shape == (self.cs.n0,)
            np.testing.assert_allclose(
                self.ops.prolong(coarse), coarse_term(self.ops, A @ v),
                rtol=1e-13, atol=1e-13)
            assert np.array_equal(self.ops.restrict_a(v),
                                  self.cs.restricted_matrix @ v)
            assert np.array_equal(self.ops.prolong(y), R0.T @ y)
            np.testing.assert_allclose(self.ops.prolong_a(y), A @ (R0.T @ y),
                                       rtol=1e-14, atol=1e-14)

    def test_faf_equals_f_densely(self):
        F = dense_coarse_correction(self.cs, self.A)
        A = self.A.toarray()
        np.testing.assert_allclose(F @ A @ F, F, atol=1e-10)

    def test_projection_idempotent_densely(self):
        F = dense_coarse_correction(self.cs, self.A)
        A = self.A.toarray()
        G = np.eye(49) - A @ F
        np.testing.assert_allclose(G @ G, G, atol=1e-10)

    def test_transpose_projection_kills_coarse_residual(self):
        # R0 (v - A F v) = 0: the projected residual has no coarse component
        rng = np.random.default_rng(9)
        v = rng.standard_normal(49)
        res = self.cs.restriction @ (v - self.A @ coarse_term(self.ops, v))
        np.testing.assert_allclose(res, np.zeros(self.cs.n0), atol=1e-10)


class TestCoarseCorrectionScatter:
    """The correction by CSRProduct and repeat against R0^T A0^-1 R0 v."""

    # (N, P, gamma, q): N mod P != 0 with subdomain sizes not divisible
    # by q; aggregates of 8 or more entries, where a pairwise sum would
    # already differ; P = 1; exact division
    @pytest.mark.parametrize("n,p,gamma,q", [
        (23, 4, 0.5, 4), (103, 3, 1.0, 2), (41, 1, 0.0, 3), (24, 4, 0.5, 2),
    ])
    @pytest.mark.parametrize("matrix", ["random", "laplacian"])
    def test_bitwise_equal_to_sparse_restriction(self, n, p, gamma, q,
                                                 matrix):
        if matrix == "random":
            A = random_spd_csr(n, n + p)
        else:
            A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n),
                         format="csr")
        part = build_partition(n, p, gamma)
        cs = build_coarse(part, A, q)
        ops = DeflationOperators(cs)
        R0, F = cs.restriction, cs.factorization
        rng = np.random.default_rng(n * p + q)
        for v in (rng.standard_normal(n), np.zeros(n),
                  rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)):
            expected = R0.T @ F.solve(R0 @ v)
            np.testing.assert_array_equal(coarse_term(ops, v), expected)
            # R0 v is bincount over the aggregate labels, bit for bit
            labels = np.repeat(np.arange(cs.n0), np.diff(R0.indptr))
            restrict = linalg.CSRProduct(R0.indptr, R0.indices, R0.data, n)
            np.testing.assert_array_equal(
                restrict(v), np.bincount(labels, weights=v, minlength=cs.n0))

    def test_input_read_as_float64(self):
        A = grid.assemble_laplacian((3, 3))
        cs = build_coarse(build_partition(49, 4, 0.5), A, 3)
        ops = DeflationOperators(cs)
        rng = np.random.default_rng(10)
        for v in (rng.integers(-3, 4, 49), np.ones(49, dtype=np.int32),
                  rng.standard_normal(49).astype(np.float32)):
            np.testing.assert_array_equal(
                coarse_term(ops, v), coarse_term(ops, v.astype(np.float64)))
        with pytest.raises(ValueError):
            coarse_term(ops, np.ones(48))
