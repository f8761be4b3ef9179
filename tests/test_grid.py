"""Grid assembly, diagonal symmetrization, and the manufactured problem."""

from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from hilbert_reference import grid_point_key
from sfcdd import grid, linalg


def dense_laplacian_oracle(levels):
    """Neighbour-loop assembly in lexicographic order, then SFC-permuted."""
    shape = grid.interior_shape(levels)
    d = len(levels)
    n = int(np.prod(shape))
    A = np.zeros((n, n))
    strides = np.array([int(np.prod(shape[j + 1:])) for j in range(d)])
    for flat in range(n):
        idx = np.array(np.unravel_index(flat, shape))
        for j in range(d):
            w = 4.0 ** levels[j]
            A[flat, flat] += 2.0 * w
            for step in (-1, 1):
                nb = idx[j] + step
                if 0 <= nb < shape[j]:
                    A[flat, flat + step * strides[j]] -= w
    perm = grid.sfc_permutation(tuple(levels))
    return A[np.ix_(perm, perm)]


def scalar_key_permutation(levels):
    """SFC order as a sort of the points by their scalar Hilbert keys."""
    shape = grid.interior_shape(levels)
    keys = [grid_point_key(tuple(i + 1 for i in idx), levels)
            for idx in product(*(range(s) for s in shape))]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__))


def kron_laplacian_reference(levels):
    """Kronecker sum of 1-d stencils in lexicographic order, then permuted."""
    shape = grid.interior_shape(levels)
    A = None
    for j, (s, l) in enumerate(zip(shape, levels)):
        w = float(4**l)
        T = sp.diags(
            [-w * np.ones(s - 1), 2.0 * w * np.ones(s), -w * np.ones(s - 1)],
            offsets=[-1, 0, 1], format="csr",
        )
        left = int(np.prod(shape[:j], dtype=np.int64))
        right = int(np.prod(shape[j + 1:], dtype=np.int64))
        term = sp.kron(sp.kron(sp.eye(left), T), sp.eye(right), format="csr")
        A = term if A is None else A + term
    perm = grid.sfc_permutation(tuple(levels))
    A = sp.csr_matrix(A)[perm][:, perm].tocsr()
    A.sort_indices()
    return A


ANISOTROPIC = [(5, 3), (2, 7, 1), (1, 4, 2, 1), (3, 3, 3, 3, 3, 2),
               (11, 1, 1, 1, 1, 1), (12, 2, 1, 1, 1, 1)]


class TestNumDofs:
    def test_isotropic(self):
        assert grid.num_dofs((3, 3)) == 49

    def test_anisotropic(self):
        assert grid.num_dofs((2, 3)) == 21

    def test_level_one_everywhere(self):
        assert grid.num_dofs((1,) * 6) == 1

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            grid.num_dofs((0, 3))

    @pytest.mark.parametrize("levels", [(2.5,), (5.7,), (3, 3.0), ("3",)])
    def test_rejects_non_integer_level(self, levels):
        with pytest.raises(ValueError, match=r"level vector .*got \("):
            grid.num_dofs(levels)

    def test_accepts_numpy_integers(self):
        assert grid.as_levels(np.array([2, 3])) == (2, 3)
        assert grid.num_dofs((np.int32(2), np.uint8(3))) == 21

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            grid.num_dofs((40, 40))


class TestAssembly:
    def test_1d_l2_tridiagonal(self):
        A = grid.assemble_laplacian((2,)).toarray()
        expected = np.array([
            [32.0, -16.0, 0.0],
            [-16.0, 32.0, -16.0],
            [0.0, -16.0, 32.0],
        ])
        np.testing.assert_array_equal(A, expected)

    def test_2d_single_interior_point(self):
        A = grid.assemble_laplacian((1, 1)).toarray()
        np.testing.assert_array_equal(A, [[16.0]])

    def test_2d_l22_matches_dense_oracle(self):
        A = grid.assemble_laplacian((2, 2)).toarray()
        np.testing.assert_allclose(A, dense_laplacian_oracle((2, 2)), rtol=0, atol=0)

    def test_anisotropic_matches_dense_oracle(self):
        A = grid.assemble_laplacian((2, 3)).toarray()
        np.testing.assert_allclose(A, dense_laplacian_oracle((2, 3)), rtol=0, atol=0)

    def test_symmetric_and_diagonally_dominant(self):
        A = grid.assemble_laplacian((3, 2))
        assert (A != A.T).nnz == 0
        ones = np.ones(A.shape[0])
        assert np.all(A @ ones >= -1e-9)

    @pytest.mark.parametrize("levels", [(1,), (6,), (1, 1), (3, 3), (4, 4, 4, 4),
                                        *ANISOTROPIC])
    def test_matches_kron_reference_bitwise(self, levels):
        A = grid.assemble_laplacian(levels)
        ref = kron_laplacian_reference(levels)
        assert isinstance(A, sp.csr_matrix)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, attr), getattr(ref, attr)), attr

    @pytest.mark.parametrize("levels", [(4,), (3, 3), (2, 2, 2)])
    def test_positive_definite(self, levels):
        A = grid.assemble_laplacian(levels)
        np.linalg.cholesky(A.toarray())  # raises if not SPD


class TestSfcOrdering:
    def test_permutation_is_a_permutation(self):
        perm = grid.sfc_permutation((3, 2))
        assert sorted(perm) == list(range(21))

    @pytest.mark.parametrize("levels", [(2, 2), (3, 1, 2), *ANISOTROPIC])
    def test_matches_sort_by_scalar_keys(self, levels):
        np.testing.assert_array_equal(grid.sfc_permutation(levels),
                                      scalar_key_permutation(levels))

    def test_1d_order_is_natural(self):
        np.testing.assert_array_equal(grid.sfc_permutation((5,)), np.arange(31))

    @pytest.mark.parametrize("levels", [(5,), (3, 2)])
    def test_cached_permutation_is_read_only(self, levels):
        perm = grid.sfc_permutation(levels)
        with pytest.raises(ValueError):
            perm[[0, 1]] = perm[[1, 0]]
        assert grid.sfc_permutation(levels) is perm

    def test_interior_points_in_unit_cube(self):
        pts = grid.interior_points((2, 3))
        assert pts.shape == (21, 2)
        assert pts.min() > 0.0 and pts.max() < 1.0

    def test_scatter_round_trip(self):
        levels = (2, 3)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(21)
        arr = grid.scatter_to_lex(levels, v)
        assert arr.shape == (3, 7)
        perm = grid.sfc_permutation(levels)
        np.testing.assert_array_equal(arr.reshape(-1)[perm], v)


def diags_product_reference(A):
    """diag(t) @ A @ diag(t) as sparse products: the scaling oracle."""
    t = 1.0 / np.sqrt(A.diagonal())
    B = sp.csr_matrix(sp.diags(t) @ A @ sp.diags(t))
    B.sort_indices()
    return B


class TestSymmetrizeDiag:
    @staticmethod
    def assert_bitwise_equal_to_product(A):
        data, indices, indptr = A.data.copy(), A.indices.copy(), A.indptr.copy()
        Ah = grid.symmetrize_diag(A, np.zeros(A.shape[0]))[0]
        ref = diags_product_reference(A)
        assert Ah.format == "csr" and Ah.has_canonical_format
        np.testing.assert_array_equal(Ah.indptr, ref.indptr)
        np.testing.assert_array_equal(Ah.indices, ref.indices)
        assert Ah.data.tobytes() == ref.data.tobytes()
        # A itself is left as it was
        assert A.data.tobytes() == data.tobytes()
        np.testing.assert_array_equal(A.indices, indices)
        np.testing.assert_array_equal(A.indptr, indptr)

    @pytest.mark.parametrize("levels", [(6,), (3, 4), (2, 2, 3, 2),
                                        (1, 2, 1, 2, 1, 2)])
    def test_laplacian_bitwise_equal_to_diags_product(self, levels):
        self.assert_bitwise_equal_to_product(grid.assemble_laplacian(levels))

    def test_random_spd_bitwise_equal_to_diags_product(self):
        # a non-constant diagonal, so t_i a_ij t_j rounds differently
        # from t_j a_ji t_i and the order of the factors matters
        for seed in range(200):
            rng = np.random.default_rng(seed)
            B = sp.random(30, 30, density=0.15, random_state=rng,
                          format="csr")
            A = (B @ B.T + sp.diags(rng.uniform(1.0, 9.0, 30))).tocsr()
            self.assert_bitwise_equal_to_product(A)

    def test_stored_zero_is_dropped(self):
        # [[4, 1, 0], [1, 9, 2], [0, 2, 16]] with the 0 at (0, 2) stored
        A = sp.csr_matrix((np.array([4.0, 1.0, 0.0, 1.0, 9.0, 2.0, 2.0, 16.0]),
                           np.array([0, 1, 2, 0, 1, 2, 1, 2]),
                           np.array([0, 3, 6, 8])), shape=(3, 3))
        self.assert_bitwise_equal_to_product(A)
        assert grid.symmetrize_diag(A, np.zeros(3))[0].nnz == 7

    def test_identity_unchanged(self):
        A = sp.eye(5, format="csr")
        Ah, bh, t = grid.symmetrize_diag(A, np.arange(5.0))
        np.testing.assert_allclose(Ah.toarray(), np.eye(5))
        np.testing.assert_allclose(t, np.ones(5))
        np.testing.assert_allclose(bh, np.arange(5.0))

    def test_1d_laplacian_scaled_to_half_offdiagonal(self):
        A = grid.assemble_laplacian((2,))
        Ah, _, _ = grid.symmetrize_diag(A, np.zeros(3))
        np.testing.assert_allclose(Ah.toarray(), np.array([
            [1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 1.0]]))

    def test_unit_diagonal_and_symmetry(self):
        A = grid.assemble_laplacian((2, 3))
        Ah, _, _ = grid.symmetrize_diag(A, np.zeros(21))
        np.testing.assert_allclose(Ah.diagonal(), np.ones(21), atol=1e-14)
        assert abs(Ah - Ah.T).max() < 1e-14

    def test_solution_preserved(self):
        levels = (3, 3)
        A = grid.assemble_laplacian(levels)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(49)
        x_direct = linalg.factorize(A).solve(b)
        Ah, bh, t = grid.symmetrize_diag(A, b)
        x_scaled = t * linalg.factorize(Ah).solve(bh)
        np.testing.assert_allclose(x_scaled, x_direct, rtol=1e-10)

    def test_rejects_nonpositive_diagonal(self):
        A = sp.diags([1.0, -2.0, 3.0]).tocsr()
        with pytest.raises(ValueError):
            grid.symmetrize_diag(A, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_rejects_nonfinite_or_zero_diagonal(self, bad):
        A = sp.diags([1.0, bad, 3.0]).tocsr()
        with pytest.raises(ValueError, match="diagonal"):
            grid.symmetrize_diag(A, np.zeros(3))


@pytest.mark.parametrize("levels", [(1,), (1, 1), (9,), (17,), (3, 4), (6, 6),
                                    (2, 2, 3), (3, 2, 3, 2),
                                    (2, 2, 2, 2, 2, 2)])
def test_scaled_laplacian_bitwise_equal_to_symmetrize_diag(levels):
    # the in-place scaling by the scalar t against the reference, which
    # scales a copy by the diagonal's entries
    b = np.random.default_rng(1).standard_normal(grid.num_dofs(levels))
    ref, ref_b, ref_t = grid.symmetrize_diag(grid.assemble_laplacian(levels), b)
    A_hat, t = grid.scaled_laplacian(levels)
    assert A_hat.format == "csr" and A_hat.has_canonical_format
    for got, want in [(A_hat.indptr, ref.indptr), (A_hat.indices, ref.indices),
                      (A_hat.data, ref.data), (t * b, ref_b)]:
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    assert np.all(ref_t == t)


def fd_laplacian(u, x, h=1e-5):
    """Second-order central FD Laplacian of a callable, the rhs oracle."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    total = 0.0
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        total += (u(x + e) - 2.0 * u(x) + u(x - e)) / h**2
    return total


class TestManufactured:
    def test_solution_vanishes_on_boundary(self):
        prob = grid.manufactured_poisson((3, 3))
        pts = np.array([[0.0, 0.3], [1.0, 0.7], [0.5, 0.0], [0.25, 1.0]])
        np.testing.assert_allclose(prob.exact_solution(pts), 0.0, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rhs_matches_fd_oracle_at_center(self, d):
        prob = grid.manufactured_poisson((3,) * d)
        u = lambda x: float(prob.exact_solution(x[None, :])[0])
        x = np.full(d, 0.5)
        expected = -fd_laplacian(u, x)
        got = float(prob.rhs(x[None, :])[0])
        assert got == pytest.approx(expected, rel=1e-6)

    def test_rhs_matches_fd_oracle_off_center(self):
        prob = grid.manufactured_poisson((4, 4))
        u = lambda x: float(prob.exact_solution(x[None, :])[0])
        for x in ([0.25, 0.75], [0.125, 0.5], [0.875, 0.875]):
            x = np.array(x)
            assert float(prob.rhs(x[None, :])[0]) == pytest.approx(
                -fd_laplacian(u, x), rel=1e-5)

    def test_d1_closed_form(self):
        # u(x) = x sin(pi x)  =>  f(x) = -(2 pi cos(pi x) - pi^2 x sin(pi x))
        prob = grid.manufactured_poisson((4,))
        xs = np.linspace(0.1, 0.9, 9)[:, None]
        expected = -(2 * np.pi * np.cos(np.pi * xs[:, 0])
                     - np.pi**2 * xs[:, 0] * np.sin(np.pi * xs[:, 0]))
        np.testing.assert_allclose(prob.rhs(xs), expected, rtol=1e-12)

    def test_full_grid_solve_second_order(self):
        errors = []
        for l in (3, 4, 5):
            levels = (l, l)
            prob = grid.manufactured_poisson(levels)
            A = grid.assemble_laplacian(levels)
            b = grid.sample_on_grid(prob.rhs, levels)
            x = linalg.factorize(A).solve(b)
            u = grid.sample_on_grid(prob.exact_solution, levels)
            errors.append(np.abs(x - u).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.15)
