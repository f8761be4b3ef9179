"""Schwarz operator variants against densely assembled oracles."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sfcdd import grid, linalg, schwarz
from sfcdd.coarse import build_coarse
from sfcdd.partition import CyclicRange, build_partition
from sfcdd.schwarz import (VARIANTS, WEIGHTINGS, SchwarzConfig,
                           principal_block, setup)
from weights_reference import compute_weights


def dense_operator(op):
    """Operator matrix column by column through apply()."""
    n = op.n
    M = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        M[:, j] = op.apply(e)
        e[j] = 0.0
    return M


def dense_oracle(A, part, cs, variant, weighting):
    """Independent dense assembly of the configured preconditioner."""
    n = part.n
    Ad = A.toarray()
    weights = compute_weights(part)
    C1 = np.zeros((n, n))
    for i, rng in enumerate(part.overlapped):
        idx = rng.indices()
        R = np.zeros((len(idx), n))
        R[np.arange(len(idx)), idx] = 1.0
        local_inv = np.linalg.inv(R @ Ad @ R.T)
        if weighting == "omega":
            D = weights.omega[i] * np.eye(len(idx))
        elif weighting == "d_matrix":
            D = np.diag(weights.diagonals[i])
        else:
            D = np.eye(len(idx))
        C1 += R.T @ D @ local_inv @ R
    if variant == "one_level":
        return C1
    R0 = cs.restriction.toarray()
    F = R0.T @ np.linalg.solve(R0 @ Ad @ R0.T, R0)
    if variant == "additive_two_level":
        return C1 + F
    G = np.eye(n) - Ad @ F
    if variant == "deflated":
        return G.T @ C1 + F
    return G.T @ C1 @ G + F  # balanced


def random_scaled_spd(n, seed):
    """Sparse SPD with a non-constant diagonal, scaled to unit diagonal.

    The two-sided scaling rounds t_i a_ij t_j and t_j a_ji t_i apart, so
    the result is symmetric only to roundoff, not bit for bit.
    """
    rng = np.random.default_rng(seed)
    B = sp.random(n, n, density=0.15, random_state=rng, format="csr")
    A = (B @ B.T + sp.diags(rng.uniform(1.0, 9.0, n))).tocsr()
    A_hat = grid.symmetrize_diag(A, np.zeros(n))[0]
    assert (A_hat != A_hat.T).nnz > 0
    return A_hat


def reference_block(A, idx):
    """The block by fancy indexing: the oracle for principal_block."""
    return A[idx][:, idx]


def per_range_reference(A, part, weighting, g):
    """One-level apply with one factorization per range, none shared."""
    weights = compute_weights(part)
    out = np.zeros(part.n)
    for i, r in enumerate(part.overlapped):
        idx = r.indices()
        sol = linalg.factorize(reference_block(A, idx).tocsr()).solve(g[idx])
        if weighting == "omega":
            sol = weights.omega[i] * sol
        elif weighting == "d_matrix":
            sol = weights.diagonals[i] * sol
        out[idx] += sol
    return out


def make_operator(levels, p, gamma, q, variant="balanced", weighting="omega"):
    A = grid.assemble_laplacian(levels)
    part = build_partition(A.shape[0], p, gamma)
    cs = build_coarse(part, A, q) if variant != "one_level" else None
    cfg = SchwarzConfig(variant=variant, weighting=weighting)
    return A, part, cs, setup(A, part, cs, cfg)


class TestPrincipalBlock:
    @staticmethod
    def assert_same_block(block, A, rng):
        ref = reference_block(A, rng.indices()).tocsc()
        assert ref.has_sorted_indices
        data, indices, indptr, m = block
        assert (m, m) == ref.shape
        np.testing.assert_array_equal(indptr, ref.indptr)
        np.testing.assert_array_equal(indices, ref.indices)
        assert data.dtype == ref.data.dtype
        assert data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("gamma", [0, 0.25, 0.5, 1, 1.5])
    @pytest.mark.parametrize("matrix", ["laplacian", "random"])
    def test_matches_fancy_indexing(self, matrix, gamma):
        if matrix == "laplacian":
            A = grid.assemble_laplacian((3, 4))
        else:
            A = random_scaled_spd(44, 1)
        n = A.shape[0]
        part = build_partition(n, 5, gamma)
        # every gamma > 0 enlarges the first range across index 0
        assert (part.overlapped[0].stop > n) == (gamma > 0)
        for rng in part.overlapped:
            self.assert_same_block(principal_block(A, rng), A, rng)

    @pytest.mark.parametrize("p,gamma", [(1, 0), (3, 1)])
    def test_full_length_range(self, p, gamma):
        # P = 1 gives [0, N); P = 3, gamma = 1 gives ranges of length N
        # that start inside and wrap
        A = random_scaled_spd(31, 2)
        part = build_partition(31, p, gamma)
        assert all(r.length == 31 for r in part.overlapped)
        for rng in part.overlapped:
            self.assert_same_block(principal_block(A, rng), A, rng)

    def test_short_wrapping_range(self):
        A = random_scaled_spd(20, 3)
        rng = CyclicRange(17, 6, 20)
        self.assert_same_block(principal_block(A, rng), A, rng)


class TestSetup:
    def test_single_subdomain_is_exact_inverse(self):
        A, _, _, op = make_operator((5,), 1, 0.0, 1, variant="one_level")
        rng = np.random.default_rng(0)
        v = rng.standard_normal(31)
        np.testing.assert_allclose(A @ op.apply(v), v, atol=1e-10)

    def test_gamma_half_weightings_bitwise_identical(self):
        scales = [make_operator((6,), 4, 0.5, 2, "one_level", w)[3]._scale
                  for w in ("omega", "d_matrix")]
        assert scales[0].shape == (126,)
        assert np.all(scales[0] == 0.5)
        assert np.array_equal(scales[0], scales[1])

    def test_symmetry_flag(self):
        for weighting, p, gamma, expected in [
            ("none", 8, 0.25, True), ("omega", 8, 0.25, True),
            ("d_matrix", 8, 0.5, True), ("d_matrix", 8, 1.0, True),
            ("d_matrix", 8, 0.25, False),
            # P = N: every index lies in exactly two ranges, D_i = I/2
            ("d_matrix", 63, 0.25, True),
        ]:
            _, _, _, op = make_operator((6,), p, gamma, min(2, 63 // p),
                                        weighting=weighting)
            assert op.symmetric == expected, (weighting, p, gamma)
            if expected:
                M = dense_operator(op)
                assert np.abs(M - M.T).max() < 1e-12, (weighting, p, gamma)

    def test_deflated_variant_flagged_non_symmetric(self):
        _, _, _, op = make_operator((6,), 8, 0.5, 2, variant="deflated",
                                    weighting="omega")
        assert not op.symmetric

    def test_requires_coarse_for_two_level(self):
        A = grid.assemble_laplacian((4,))
        part = build_partition(15, 3, 0.5)
        with pytest.raises(ValueError):
            setup(A, part, None, SchwarzConfig("balanced", "omega"))


class TestApply:
    def test_exact_two_level_doubles_inverse(self):
        # P=1, gamma=0, coarse = fine: both levels solve exactly
        A, _, _, op = make_operator((4,), 1, 0.0, 15,
                                    variant="additive_two_level")
        rng = np.random.default_rng(1)
        g = rng.standard_normal(15)
        expected = 2.0 * np.linalg.solve(A.toarray(), g)
        np.testing.assert_allclose(op.apply(g), expected, atol=1e-10)

    @pytest.mark.parametrize("variant", ["one_level", "additive_two_level",
                                         "deflated", "balanced"])
    @pytest.mark.parametrize("weighting", ["none", "omega", "d_matrix"])
    def test_matches_dense_oracle_1d(self, variant, weighting):
        levels, p, gamma, q = (7,), 4, 0.5, 4
        A, part, cs, op = make_operator(levels, p, gamma, q, variant, weighting)
        M = dense_operator(op)
        oracle = dense_oracle(A, part, cs if variant != "one_level" else
                              build_coarse(part, A, q), variant, weighting)
        assert np.abs(M - oracle).max() < 1e-10

    @pytest.mark.parametrize("variant", ["additive_two_level", "balanced"])
    def test_matches_dense_oracle_2d_fractional_gamma(self, variant):
        levels, p, gamma, q = (3, 4), 5, 0.75, 3
        A, part, cs, op = make_operator(levels, p, gamma, q, variant,
                                        "d_matrix")
        M = dense_operator(op)
        oracle = dense_oracle(A, part, cs, variant, "d_matrix")
        assert np.abs(M - oracle).max() < 1e-10

    def test_balanced_half_gamma_equals_scaled_unweighted_core(self):
        # with uniform counts the D-weighted core is the unweighted core
        # divided by 2*gamma+1
        levels, p, gamma, q = (6,), 4, 0.5, 4
        A, part, cs, op_d = make_operator(levels, p, gamma, q, "balanced",
                                          "d_matrix")
        _, _, _, op_plain = make_operator(levels, p, gamma, q, "balanced",
                                          "none")
        R0 = cs.restriction.toarray()
        Ad = A.toarray()
        F = R0.T @ np.linalg.solve(R0 @ Ad @ R0.T, R0)
        G = np.eye(63) - Ad @ F
        C1 = dense_oracle(A, part, cs, "one_level", "none")
        expected = 0.5 * (G.T @ C1 @ G) + F
        np.testing.assert_allclose(dense_operator(op_d), expected, atol=1e-10)
        assert np.abs(dense_operator(op_plain)
                      - (G.T @ C1 @ G + F)).max() < 1e-10

    # wrapping first range, fractional gamma, uneven overlap counts;
    # the (3,) case also has omega_i that differ between subdomains, and
    # gamma = 1/4 covers every index once or twice
    @pytest.mark.parametrize("levels,p,gamma", [((3, 4), 5, 0.75),
                                                ((3,), 5, 1.25),
                                                ((6,), 8, 0.25)])
    @pytest.mark.parametrize("weighting", ["none", "omega", "d_matrix"])
    def test_one_level_matches_per_subdomain_loop_bitwise(self, levels, p,
                                                          gamma, weighting):
        _, part, _, op = make_operator(levels, p, gamma, 1, "one_level",
                                       weighting)
        assert part.overlapped[0].stop > part.n
        weights = compute_weights(part)
        rng = np.random.default_rng(11)
        for _ in range(3):
            g = rng.standard_normal(part.n)
            expected = np.zeros(part.n)
            for i, (r, f) in enumerate(zip(part.overlapped,
                                           op._factorizations)):
                idx = r.indices()
                sol = f.solve(g[idx])
                if weighting == "omega":
                    sol = weights.omega[i] * sol
                elif weighting == "d_matrix":
                    sol = weights.diagonals[i] * sol
                expected[idx] += sol
            assert np.array_equal(op.apply(g), expected)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_one_level_bitwise_equal_with_reference_blocks(self, weighting):
        A = random_scaled_spd(44, 4)
        part = build_partition(44, 5, 1.5)
        op = setup(A, part, None, SchwarzConfig("one_level", weighting))
        rng = np.random.default_rng(12)
        for _ in range(3):
            g = rng.standard_normal(44)
            assert np.array_equal(op.apply(g),
                                  per_range_reference(A, part, weighting, g))

    @pytest.mark.parametrize("variant", ["one_level", "balanced"])
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_input_read_as_float64(self, variant, weighting):
        _, _, _, op = make_operator((5,), 4, 0.5, 2, variant, weighting)
        rng = np.random.default_rng(13)
        for g in (rng.integers(-3, 4, 31), np.ones(31, dtype=np.int64),
                  rng.standard_normal(31).astype(np.float32)):
            assert np.array_equal(op.apply(g), op.apply(g.astype(np.float64)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_input_unchanged_and_output_new(self, variant):
        # apply updates its own arrays in place, never g
        _, _, _, op = make_operator((5,), 4, 0.5, 2, variant)
        g = np.random.default_rng(14).standard_normal(31)
        before = g.copy()
        out = op.apply(g)
        assert np.array_equal(g, before)
        assert not np.shares_memory(out, g)

    def test_dimension_check(self):
        _, _, _, op = make_operator((5,), 4, 0.5, 2)
        with pytest.raises(ValueError):
            op.apply(np.ones(30))


class TestSharedFactors:
    # (9,), P = 8 (N = 511): ranges 1-5 are the 128 entries from 64i - 32
    # and share one factor; range 6 is 127 long and ranges 0 and 7 wrap
    # around N.  (7,), P = 5, gamma = 1.25 has five distinct blocks, four
    # of them wrapping.  A constant digest makes every block a candidate
    # for every earlier one, so only the bitwise comparison decides.
    @pytest.mark.parametrize("levels,p,gamma,expected", [
        ((9,), 8, 0.5, [0, 1, 1, 1, 1, 1, 6, 7]),
        ((7,), 5, 1.25, [0, 1, 2, 3, 4])])
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("digest", ["blake2b", "constant"])
    def test_bitwise_equal_to_one_factor_per_range(
            self, monkeypatch, levels, p, gamma, expected, weighting, digest):
        if digest == "constant":
            monkeypatch.setattr(schwarz, "block_digest", lambda block: b"")
        A, part, _, op = make_operator(levels, p, gamma, 1, "one_level",
                                       weighting)
        # for each range, the first range that holds the same factor
        ids = [id(f) for f in op._factorizations]
        assert [ids.index(i) for i in ids] == expected
        assert len(set(ids)) == len(set(expected))
        rng = np.random.default_rng(14)
        for _ in range(3):
            g = rng.standard_normal(part.n)
            assert np.array_equal(op.apply(g),
                                  per_range_reference(A, part, weighting, g))

    def test_factor_nnz_counts_each_distinct_factor_once(self):
        def splu_nnz(M):
            lu = spla.splu(sp.csc_matrix(M), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
            return lu.L.nnz + lu.U.nnz
        # (9,), P = 8: ranges 1-5 share one factor; 0, 1, 6, 7 are distinct
        A, part, cs, op = make_operator((9,), 8, 0.5, 2)
        local = 0
        for i in (0, 1, 6, 7):
            data, indices, indptr, m = principal_block(A, part.overlapped[i])
            local += splu_nnz(sp.csc_matrix((data, indices, indptr),
                                            shape=(m, m)))
        assert schwarz.factor_nnz(op, cs) == {
            "local_factor_nnz": local,
            "coarse_factor_nnz": splu_nnz(cs.matrix),
            "coarse_cg_iterations": 0}
        assert local < sum(f.nnz for f in op._factorizations)
        assert schwarz.factor_nnz(op, None)["coarse_factor_nnz"] == 0

    def test_model_solve_blocks_are_distinct(self):
        # perfbench's test_layer_counts_of_a_model_solve counts P + 1
        # factorizations for its TINY_MODEL, which is this (5, 5), P = 4
        # solve: it holds only while these four blocks stay distinct
        A = grid.assemble_laplacian((5, 5))
        A_hat = grid.symmetrize_diag(A, np.zeros(A.shape[0]))[0]
        part = build_partition(A.shape[0], 4, 0.5)
        op = setup(A_hat, part, build_coarse(part, A_hat, 4),
                   SchwarzConfig("balanced", "omega"))
        assert len(op._factorizations) == 4
        assert len({id(f) for f in op._factorizations}) == 4


class TestSpectralProperties:
    @pytest.mark.parametrize("variant,weighting", [
        ("one_level", "omega"), ("additive_two_level", "none"),
        ("balanced", "omega"), ("balanced", "d_matrix"),
    ])
    def test_symmetric_bilinear_form(self, variant, weighting):
        A, _, _, op = make_operator((3, 3), 4, 0.5, 3, variant, weighting)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(49)
            y = rng.standard_normal(49)
            assert abs(op.apply(x) @ y - x @ op.apply(y)) < 1e-12 * (
                np.linalg.norm(x) * np.linalg.norm(y))

    def test_positive_definite(self):
        _, _, _, op = make_operator((3, 3), 4, 0.5, 3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(49)
            assert op.apply(x) @ x > 0.0

    def test_one_level_scaling_law_half_integer_gamma(self):
        # D-weighted one-level apply = unweighted / (2*gamma+1)
        for gamma in (0.5, 1.0):
            A, _, _, op_d = make_operator((6,), 8, gamma, 2, "one_level",
                                          "d_matrix")
            _, _, _, op_u = make_operator((6,), 8, gamma, 2, "one_level",
                                          "none")
            rng = np.random.default_rng(5)
            v = rng.standard_normal(63)
            got = op_d.apply(v)
            expected = op_u.apply(v) / (2 * gamma + 1)
            np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_preconditioned_spectrum_real_positive(self):
        A, _, _, op = make_operator((3, 3), 4, 0.5, 3)
        M = dense_operator(op) @ A.toarray()
        eig = np.linalg.eigvals(M)
        assert np.abs(eig.imag).max() < 1e-8
        assert eig.real.min() > 0.0


class TestConcurrency:
    def test_concurrent_applies_on_shared_operator(self):
        _, _, _, op = make_operator((3, 3), 4, 0.5, 3)
        rng = np.random.default_rng(7)
        vecs = [rng.standard_normal(49) for _ in range(8)]
        expected = [op.apply(v) for v in vecs]
        results = [None] * 8
        def work(i):
            results[i] = op.apply(vecs[i])
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)
