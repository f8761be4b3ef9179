"""Factorizations and Galerkin triple products against dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from sfcdd import grid, linalg


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B.T @ B + n * np.eye(n))


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

    @pytest.mark.parametrize("A", [
        sp.diags([1.0, -1.0, 2.0]).tocsr(),
        # eigenvalues 3 and -1 in each block, positive diagonal throughout
        sp.block_diag([np.array([[1.0, 2.0], [2.0, 1.0]])] * 300,
                      format="csr"),
        # zero diagonal pivot: SuperLU would pivot off the diagonal
        sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        sp.diags([1.0, 0.0]).tocsr(),
    ], ids=["diagonal", "blocks600", "swap", "singular"])
    def test_rejects_indefinite(self, A):
        with pytest.raises(linalg.FactorizationError):
            linalg.factorize(A)

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
