"""Factorizations and Galerkin triple products against dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sfcdd import grid, linalg
from sfcdd.coarse import build_coarse
from sfcdd.partition import build_partition
from sfcdd.schwarz import principal_block


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B.T @ B + n * np.eye(n))


def splu_reference(A):
    """The public splu with the options Factorization passes to SuperLU."""
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def csc_arrays(A):
    A = sp.csc_matrix(A)
    return A.data, A.indices, A.indptr, A.shape[0]


def scaled_laplacian(levels):
    A = grid.assemble_laplacian(levels)
    return grid.symmetrize_diag(A, np.zeros(A.shape[0]))[0]


def schwarz_blocks(gamma):
    """Every block of a (4, 4), P = 7 partition, and their block-diagonal.

    The first range wraps.
    """
    A = scaled_laplacian((4, 4))
    part = build_partition(A.shape[0], 7, gamma)
    assert part.overlapped[0].stop > A.shape[0]
    return ([principal_block(A, [rng]) for rng in part.overlapped]
            + [principal_block(A, part.overlapped)])


def unsorted_csc(A):
    """A CSC copy of A whose row indices run backwards in every column."""
    A = sp.csc_matrix(A)
    order = np.concatenate([np.arange(b - 1, a - 1, -1)
                            for a, b in zip(A.indptr, A.indptr[1:])])
    B = sp.csc_matrix((A.data[order], A.indices[order], A.indptr.copy()),
                      shape=A.shape)
    assert not B.has_sorted_indices
    return B


def duplicated_csc(A):
    """A CSC copy of A storing every entry as two halves, which sum exactly."""
    A = sp.csc_matrix(A)
    B = sp.csc_matrix((np.repeat(A.data / 2, 2), np.repeat(A.indices, 2),
                       2 * A.indptr), shape=A.shape)
    assert not B.has_canonical_format
    return B


NOT_SPD = [
    sp.diags([1.0, -1.0, 2.0]).tocsr(),
    # eigenvalues 3 and -1 in each block, positive diagonal throughout
    sp.block_diag([np.array([[1.0, 2.0], [2.0, 1.0]])] * 300, format="csr"),
    # zero diagonal pivot: SuperLU would pivot off the diagonal
    sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
    sp.diags([1.0, 0.0]).tocsr(),
]
NOT_SPD_IDS = ["diagonal", "blocks600", "swap", "singular"]


class TestAgainstSplu:
    """The direct gstrf call against the public splu, bit for bit."""

    @staticmethod
    def assert_same_factor(F, ref, n):
        """Same permutations, entry counts, pivots and inverse as splu.

        The factorization keeps no copy of L and U, so their entries are
        compared through the solve of every unit vector, i.e. the whole
        inverse A^-1 = P_c U^-1 L^-1 P_r, bit for bit.
        """
        lu = F._lu
        assert not sp.issparse(lu.L) and not sp.issparse(lu.U)
        assert np.array_equal(lu.perm_r, ref.perm_r)
        assert np.array_equal(lu.perm_c, ref.perm_c)
        assert (lu.L.nnz, lu.U.nnz) == (ref.L.nnz, ref.U.nnz)
        assert F.nnz == ref.L.nnz + ref.U.nnz
        assert lu.U.diagonal.tobytes() == ref.U.diagonal().tobytes()
        eye = np.eye(n)
        assert F.solve(eye).tobytes() == ref.solve(eye).tobytes()

    def test_random_spd(self):
        A = random_spd(50, 21)
        self.assert_same_factor(linalg.factorize(A), splu_reference(A), 50)

    @pytest.mark.parametrize("gamma", [0.25, 1.5])
    def test_wrapping_schwarz_blocks(self, gamma):
        for block in schwarz_blocks(gamma):
            data, indices, indptr, m = block
            ref = splu_reference(
                sp.csc_matrix((data, indices, indptr), shape=(m, m)))
            F = linalg.factorize(block)
            assert F.n == m
            self.assert_same_factor(F, ref, m)

    def test_coarse_matrix(self):
        A = scaled_laplacian((4, 4))
        part = build_partition(A.shape[0], 7, 0.5)
        A0 = build_coarse(part, A, 4).matrix
        self.assert_same_factor(linalg.factorize(A0), splu_reference(A0),
                                A0.shape[0])

    @pytest.mark.parametrize("fmt", ["csr", "coo", "csc-unsorted",
                                     "csc-duplicates", "arrays"])
    def test_input_formats(self, fmt):
        A = random_spd(40, 22)
        M = {"csr": A, "coo": A.tocoo(), "csc-unsorted": unsorted_csc(A),
             "csc-duplicates": duplicated_csc(A),
             "arrays": csc_arrays(A)}[fmt]
        self.assert_same_factor(linalg.factorize(M), splu_reference(A), 40)


class FakeSuperLU:
    """What gstrf returns, exporting hand-made CSC triples for L and U."""

    def __init__(self, n, construct, L, U):
        self.perm_r = self.perm_c = np.arange(n)
        self.L = construct(L, (n, n))
        self.U = construct(U, (n, n))


class TestExportReader:
    """The csc_construct_func that keeps an entry count and U's diagonal."""

    # U = [[2, 1], [0, 3]] in CSC, then two stale slots past indptr[-1]
    # whose row indices point at the diagonal
    LONG_U = (np.array([2.0, 1.0, 3.0, -7.0, -7.0]),
              np.array([0, 0, 1, 1, 1], dtype=np.intc),
              np.array([0, 1, 3], dtype=np.intc))
    # U = [[2, 1], [0, 0]] with U[1, 1] not stored at all
    NO_DIAGONAL_U = (np.array([2.0, 1.0]), np.array([0, 0], dtype=np.intc),
                     np.array([0, 1, 2], dtype=np.intc))
    UNIT_L = (np.ones(2), np.array([0, 1], dtype=np.intc),
              np.array([0, 1, 2], dtype=np.intc))

    @staticmethod
    def factorize_with_export(monkeypatch, U):
        def fake_gstrf(n, nnz, data, indices, indptr, *, csc_construct_func,
                       **_):
            return FakeSuperLU(n, csc_construct_func,
                               TestExportReader.UNIT_L, U)
        monkeypatch.setattr(linalg._superlu, "gstrf", fake_gstrf)
        return linalg.factorize(sp.csr_matrix(np.array([[2.0, 1.0],
                                                        [1.0, 3.0]])))

    def test_counts_only_entries_before_the_end_pointer(self):
        record = linalg._read_export(self.LONG_U, (2, 2))
        assert record.nnz == 3
        assert record.diagonal.tolist() == [2.0, 3.0]

    def test_missing_diagonal_reads_zero(self):
        record = linalg._read_export(self.NO_DIAGONAL_U, (2, 2))
        assert record.nnz == 2
        assert record.diagonal.tolist() == [2.0, 0.0]

    def test_diagonal_matches_scipy(self):
        for arrays in (self.LONG_U, self.NO_DIAGONAL_U, self.UNIT_L):
            data, indices, indptr = arrays
            end = indptr[-1]
            M = sp.csc_array((data[:end], indices[:end], indptr), shape=(2, 2))
            record = linalg._read_export(arrays, (2, 2))
            assert record.nnz == M.nnz
            assert record.diagonal.tobytes() == M.diagonal().tobytes()

    def test_long_export_factorizes(self, monkeypatch):
        F = self.factorize_with_export(monkeypatch, self.LONG_U)
        assert F.nnz == 2 + 3

    def test_missing_diagonal_is_a_zero_pivot(self, monkeypatch):
        with pytest.raises(linalg.FactorizationError, match="not SPD"):
            self.factorize_with_export(monkeypatch, self.NO_DIAGONAL_U)


class TestFactorize:
    def test_identity(self):
        F = linalg.factorize(sp.eye(6, format="csr"))
        b = np.arange(6.0)
        np.testing.assert_allclose(F.solve(b), b)

    def test_laplacian_consistent_system(self):
        A = grid.assemble_laplacian((3,))
        b = A @ np.ones(7)
        np.testing.assert_allclose(linalg.factorize(A).solve(b), np.ones(7),
                                   atol=1e-10)

    def test_random_spd_matches_dense_solve(self):
        A = random_spd(100, 5)
        b = np.random.default_rng(6).standard_normal(100)
        expected = np.linalg.solve(A.toarray(), b)
        np.testing.assert_allclose(linalg.factorize(A).solve(b), expected,
                                   rtol=1e-9)

    def test_recovers_solution_of_522_unknown_laplacian_block(self):
        n = 522
        A = grid.assemble_laplacian((13,))[:n, :][:, :n].tocsr()
        x = np.random.default_rng(7).standard_normal(n)
        b = A @ x
        np.testing.assert_allclose(linalg.factorize(A).solve(b), x, atol=1e-8)

    def test_accepts_spd_arrow_without_diagonal_dominance(self):
        # 599 unit-diagonal leaves coupled by 2 to one hub: SPD (Schur
        # complement 1), but an off-diagonal pivot exceeds each leaf's own
        k = 599
        leaves = np.arange(1, k + 1)
        hub = np.zeros(k, dtype=int)
        A = sp.csr_matrix((np.full(2 * k, 2.0),
                           (np.r_[leaves, hub], np.r_[hub, leaves])),
                          shape=(k + 1, k + 1))
        A = (A + sp.diags(np.r_[4.0 * k + 1.0, np.ones(k)])).tocsr()
        x = np.arange(k + 1.0)
        np.testing.assert_allclose(linalg.factorize(A).solve(A @ x), x,
                                   rtol=1e-8)

    @pytest.mark.parametrize("A", NOT_SPD, ids=NOT_SPD_IDS)
    def test_rejects_indefinite(self, A):
        with pytest.raises(linalg.FactorizationError):
            linalg.factorize(A)

    @pytest.mark.parametrize("A", NOT_SPD, ids=NOT_SPD_IDS)
    def test_rejects_indefinite_csc_arrays(self, A):
        with pytest.raises(linalg.FactorizationError):
            linalg.factorize(csc_arrays(A))

    def test_index_range_fails_instead_of_wrapping(self):
        # C int indices: a count of 2**31 must not wrap to a negative one
        one = np.ones(1)
        with pytest.raises(ValueError, match="too large for SuperLU"):
            linalg.factorize((one, np.zeros(1, dtype=np.int64),
                              np.array([0, 1]), 2**31))
        big = np.array([0, 2**31], dtype=np.int64)
        with pytest.raises(ValueError):
            linalg.factorize((one, np.zeros(1, dtype=np.int64), big, 1))
        # the cast itself is exact below the limit
        F = linalg.factorize((np.array([2.0]), np.array([0], dtype=np.int64),
                              np.array([0, 1], dtype=np.int64), 1))
        assert F.solve(np.array([4.0]))[0] == 2.0

    @pytest.mark.parametrize("indices,indptr", [
        ([0, 1], [0, 1, 2, 2]),  # one pointer too many
        ([0, 1], [0, 1, 3]),  # pointers past the entries
        ([0, 1], [1, 1, 2]),  # first pointer not 0
        ([0], [0, 1, 2]),  # fewer indices than values
    ])
    def test_rejects_malformed_arrays(self, indices, indptr):
        with pytest.raises(ValueError, match="CSC arrays"):
            linalg.factorize((np.ones(2), np.array(indices),
                              np.array(indptr), 2))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.factorize(sp.csr_matrix(np.ones((3, 4))))

    def test_repeated_solves(self):
        A = random_spd(40, 8)
        F = linalg.factorize(A)
        dense = A.toarray()
        rng = np.random.default_rng(9)
        for _ in range(3):
            b = rng.standard_normal(40)
            np.testing.assert_allclose(F.solve(b), np.linalg.solve(dense, b),
                                       rtol=1e-9)

    def test_csr_csc_coo_inputs_solve_bitwise_equal(self):
        A = random_spd(60, 11)
        b = np.random.default_rng(12).standard_normal(60)
        csc = A.tocsc()
        data = csc.data.copy()
        x = linalg.factorize(A).solve(b)
        np.testing.assert_array_equal(linalg.factorize(csc).solve(b), x)
        np.testing.assert_array_equal(linalg.factorize(A.tocoo()).solve(b), x)
        np.testing.assert_array_equal(csc.data, data)

    def test_solve_zero_gives_zero(self):
        A = random_spd(10, 10)
        F = linalg.factorize(A)
        np.testing.assert_array_equal(F.solve(np.zeros(10)), np.zeros(10))


class TestTripleProduct:
    def test_identity_restriction(self):
        A = random_spd(12, 11)
        B = linalg.triple_product(sp.eye(12, format="csr"), A)
        np.testing.assert_allclose(B.toarray(), A.toarray(), atol=1e-13)

    def test_all_ones_row_sums_everything(self):
        A = random_spd(8, 12)
        R = sp.csr_matrix(np.ones((1, 8)))
        B = linalg.triple_product(R, A)
        assert B.shape == (1, 1)
        assert B[0, 0] == pytest.approx(A.toarray().sum(), rel=1e-13)

    def test_aggregation_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        A = random_spd(30, 14)
        assign = rng.integers(0, 5, size=30)
        R = sp.csr_matrix((np.ones(30), (assign, np.arange(30))), shape=(5, 30))
        B = linalg.triple_product(R, A)
        expected = R.toarray() @ A.toarray() @ R.toarray().T
        np.testing.assert_allclose(B.toarray(), expected, atol=1e-11)
        assert abs(B - B.T).max() == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.triple_product(sp.eye(3, format="csr"),
                                  sp.eye(4, format="csr"))
