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


def schwarz_blocks(gamma):
    """Every block of a (4, 4), P = 7 partition, and their block-diagonal.

    The first range wraps.
    """
    A = grid.scaled_laplacian((4, 4))[0]
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
        A = grid.scaled_laplacian((4, 4))[0]
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


def d1_block(n):
    """The scaled d = 1 Laplacian's leading n x n block: tridiagonal."""
    return grid.scaled_laplacian((12,))[0][:n, :][:, :n].tocsr()


class TestSolveColumns:
    """A solve of an (n, k) right-hand side against k one-column solves."""

    @pytest.mark.parametrize("n", [1, 2, 33, 600])
    def test_columns_bitwise_on_d1_blocks(self, n):
        F = linalg.factorize(d1_block(n))
        rng = np.random.default_rng(n)
        for k in range(1, 10):
            # the (n, k) F-ordered view of k stacked right-hand sides, as
            # the Schwarz apply passes a run's groups
            y = rng.standard_normal(k * n)
            B = y.reshape(k, n).T
            assert B.flags.f_contiguous
            X = F.solve(B)
            assert X.shape == (n, k)
            for j in range(k):
                assert np.array_equal(X[:, j], F.solve(y[j * n:(j + 1) * n]))
            assert np.array_equal(y, B.T.ravel())  # b is not written
            assert F.solves_columns_alike(k)

    @pytest.mark.parametrize("gamma", [0.25, 1.5])
    def test_one_column_bitwise_on_schwarz_blocks(self, gamma):
        rng = np.random.default_rng(3)
        for block in schwarz_blocks(gamma):
            F = linalg.factorize(block)
            b = rng.standard_normal(F.n)
            assert np.array_equal(F.solve(b[:, None])[:, 0], F.solve(b))
            assert F.solves_columns_alike(1)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_columns_solve_to_roundoff_on_dense_factor(self, order):
        # one supernode of 300 columns: its BLAS kernels may round a
        # several-column solve differently (here k >= 4 did, with
        # OpenBLAS 0.3.30 on AVX-512); the probe reports whether they do,
        # and a fresh right-hand side agrees with it
        n = 300
        F = linalg.factorize(random_spd(n, 31))
        rng = np.random.default_rng(32)
        for k in (1, 2, 5, 8, 9):
            B = np.asarray(rng.standard_normal((n, k)), order=order)
            X = F.solve(B)
            singles = np.column_stack([F.solve(B[:, j].copy())
                                       for j in range(k)])
            assert np.abs(X - singles).max() <= 1e-13 * np.abs(singles).max()
            assert np.array_equal(X, singles) == F.solves_columns_alike(k)

    def test_wrong_leading_dimension_raises(self):
        F = linalg.factorize(d1_block(10))
        for shape in [(9, 3), (11, 3), (3, 10), (9,)]:
            with pytest.raises(ValueError):
                F.solve(np.ones(shape))


class TestCSRProduct:
    """The direct sparsetools call against ``csr_matrix @ x``, bit for bit."""

    @staticmethod
    def product(M, dtype=None):
        indptr, indices = M.indptr, M.indices
        if dtype is not None:
            indptr, indices = indptr.astype(dtype), indices.astype(dtype)
        return linalg.CSRProduct(indptr, indices, M.data, M.shape[1])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_bitwise_equal_to_matmul(self, dtype):
        rng = np.random.default_rng(40)
        # rows of many entries, empty rows, unsorted and duplicate indices,
        # entries spanning 16 orders of magnitude
        n_row, n_col, nnz = 50, 70, 900
        row = np.sort(rng.integers(0, n_row - 5, nnz))
        col = rng.integers(0, n_col, nnz)
        val = rng.standard_normal(nnz) * 10.0 ** rng.integers(-8, 8, nnz)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n_row))))
        M = sp.csr_matrix((val, col, indptr), shape=(n_row, n_col))
        assert not M.has_canonical_format
        product = self.product(M, dtype)
        assert product.shape == M.shape
        for x in (rng.standard_normal(n_col), np.zeros(n_col),
                  rng.standard_normal(n_col) * 10.0 ** rng.integers(-8, 8, n_col)):
            y = product(x)
            assert y.dtype == np.float64
            assert y.tobytes() == (M @ x).tobytes()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_laplacian(self, dtype):
        A = grid.scaled_laplacian((4, 3))[0]
        x = np.random.default_rng(41).standard_normal(A.shape[1])
        assert self.product(A, dtype)(x).tobytes() == (A @ x).tobytes()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_transposed_bitwise_equal_to_matmul(self, dtype):
        rng = np.random.default_rng(43)
        # as above: empty rows and columns, unsorted and duplicate indices
        n_row, n_col, nnz = 60, 45, 800
        row = np.sort(rng.integers(0, n_row - 5, nnz))
        col = rng.integers(0, n_col - 3, nnz)
        val = rng.standard_normal(nnz) * 10.0 ** rng.integers(-8, 8, nnz)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n_row))))
        M = sp.csr_matrix((val, col, indptr), shape=(n_row, n_col))
        assert not M.has_canonical_format
        product = self.product(M, dtype)
        for y in (rng.standard_normal(n_row), np.zeros(n_row),
                  rng.standard_normal(n_row) * 10.0 ** rng.integers(-8, 8, n_row)):
            x = product.rmatvec(y)
            assert x.dtype == np.float64 and x.shape == (n_col,)
            assert x.tobytes() == (M.T @ y).tobytes()
        # a wide matrix, as R0 A is, and a square one
        for M in (sp.random(7, 90, density=0.3, random_state=rng, format="csr"),
                  grid.scaled_laplacian((4, 3))[0]):
            y = rng.standard_normal(M.shape[0])
            assert self.product(M, dtype).rmatvec(y).tobytes() == (M.T @ y).tobytes()

    def test_transposed_input_read_as_float64(self):
        A = grid.scaled_laplacian((3, 3))[0]
        product = self.product(A)
        rng = np.random.default_rng(44)
        for y in (rng.integers(-3, 4, 49), rng.standard_normal(49)
                  .astype(np.float32), rng.standard_normal(98)[::2]):
            assert np.array_equal(product.rmatvec(y),
                                  product.rmatvec(y.astype(np.float64)))

    def test_input_read_as_float64(self):
        # integers, float32, booleans and a strided view
        A = grid.scaled_laplacian((3, 3))[0]
        product = self.product(A)
        rng = np.random.default_rng(42)
        for x in (rng.integers(-3, 4, 49), rng.standard_normal(49)
                  .astype(np.float32), np.ones(49, dtype=bool),
                  rng.standard_normal(98)[::2]):
            assert np.array_equal(product(x), product(x.astype(np.float64)))
            assert np.array_equal(product(x), A @ x)

    def test_rejects_wrong_length(self):
        product = self.product(grid.scaled_laplacian((3,))[0])
        for x in (np.ones(6), np.ones(8), np.ones((7, 1))):
            with pytest.raises(ValueError):
                product(x)
        # M is 2 x 5: M x takes 5 entries, M^T y takes 2
        M = sp.csr_matrix(np.arange(10.0).reshape(2, 5))
        wide = self.product(M)
        for y in (np.ones(5), np.ones(1), np.ones((2, 1))):
            with pytest.raises(ValueError):
                wide.rmatvec(y)
        with pytest.raises(ValueError):
            wide(np.ones(2))

    def test_rejects_malformed_arrays(self):
        A = grid.scaled_laplacian((3,))[0]
        ok = (A.indptr, A.indices, A.data, 7)
        assert linalg.CSRProduct(*ok).shape == (7, 7)
        bad_indices = A.indices.copy()
        bad_indices[3] = 7
        for args in [(A.indptr, A.indices, A.data, 6),  # an index past n_col
                     (A.indptr, bad_indices, A.data, 7),
                     (A.indptr, -A.indices, A.data, 7),
                     (A.indptr[:-1], A.indices, A.data, 7),  # end pointer
                     (A.indptr + 1, A.indices, A.data, 7),
                     (np.array([0, 5, 2, 8, 11, 14, 17, 19]), A.indices,
                      A.data, 7),  # a row of negative length
                     (A.indptr, A.indices, A.data[:-1], 7),
                     (A.indptr, A.indices.astype(float), A.data, 7),
                     (A.indptr, A.indices, A.data.astype(np.float32), 7)]:
            with pytest.raises(ValueError):
                linalg.CSRProduct(*args)


class TestTripleProduct:
    def test_identity_restriction(self):
        A = random_spd(12, 11)
        RA, B = linalg.triple_product(sp.eye(12, format="csr"), A)
        np.testing.assert_allclose(B.toarray(), A.toarray(), atol=1e-13)
        np.testing.assert_allclose(RA.toarray(), A.toarray(), atol=1e-13)

    def test_all_ones_row_sums_everything(self):
        A = random_spd(8, 12)
        R = sp.csr_matrix(np.ones((1, 8)))
        _, B = linalg.triple_product(R, A)
        assert B.shape == (1, 1)
        assert B[0, 0] == pytest.approx(A.toarray().sum(), rel=1e-13)

    def test_aggregation_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        A = random_spd(30, 14)
        assign = rng.integers(0, 5, size=30)
        R = sp.csr_matrix((np.ones(30), (assign, np.arange(30))), shape=(5, 30))
        RA, B = linalg.triple_product(R, A)
        expected = R.toarray() @ A.toarray() @ R.toarray().T
        np.testing.assert_allclose(B.toarray(), expected, atol=1e-11)
        assert abs(B - B.T).max() == 0.0
        assert RA.format == "csr"
        np.testing.assert_allclose(RA.toarray(), R.toarray() @ A.toarray(),
                                   atol=1e-12)

    def test_galerkin_matrix_is_built_from_the_kept_factor(self):
        # B is bitwise the symmetrized product of the returned R A, as the
        # one-expression form R @ A @ R.T computed it
        rng = np.random.default_rng(15)
        A = random_spd(40, 16)
        assign = np.sort(rng.integers(0, 6, size=40))
        R = sp.csr_matrix((np.ones(40), (assign, np.arange(40))), shape=(6, 40))
        RA, B = linalg.triple_product(R, A)
        assert np.array_equal(RA.toarray(), (R @ A).toarray())
        ref = sp.csr_matrix(R @ A @ R.T)
        ref = sp.csr_matrix((ref + ref.T) * 0.5)
        ref.sort_indices()
        for got, want in [(B.indptr, ref.indptr), (B.indices, ref.indices),
                          (B.data, ref.data)]:
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.triple_product(sp.eye(3, format="csr"),
                                  sp.eye(4, format="csr"))
