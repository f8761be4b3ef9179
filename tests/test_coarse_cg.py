"""Coarse solves by Jacobi-PCG: the selection rule, its failure modes, and
iteration counts equal to those of the factorized coarse problem."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from sfcdd import coarse, combine, grid, krylov, linalg, schwarz
from sfcdd.coarse import build_coarse
from sfcdd.partition import build_partition


def shifted_laplacian_1d(n):
    """tridiag(-1, 4, -1): kappa(D^-1 A) < 3, so CG converges fast."""
    return sp.diags([-np.ones(n - 1), np.full(n, 4.0), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


def model_coarse(levels, p, q, gamma=0.5):
    """Scaled Laplacian, partition and factorized coarse space."""
    n = grid.num_dofs(levels)
    A, _, _ = grid.symmetrize_diag(grid.assemble_laplacian(levels), np.zeros(n))
    part = build_partition(n, p, gamma)
    return A, part, build_coarse(part, A, q)


def with_cg(cs):
    """The same coarse space, its problem solved by JacobiCG."""
    return dataclasses.replace(cs, factorization=linalg.JacobiCG(cs.matrix))


class TestSelectionRule:
    def test_d1_coarse_matrix_falls_back_to_the_factor(self):
        # (13,), P = 32, q = 128: a tridiagonal A0 with n0 = 4,096
        _, _, cs = model_coarse((13,), 32, 128)
        assert cs.n0 == coarse.CG_MIN_N0
        assert isinstance(cs.factorization, linalg.Factorization)
        with pytest.raises(linalg.FactorizationError, match="CG missed"):
            linalg.JacobiCG(cs.matrix)

    def test_below_the_threshold_no_probe_runs(self, monkeypatch):
        def no_probe(A0):
            raise AssertionError("the probe ran")

        n = coarse.CG_MIN_N0 - 1
        part = build_partition(n, 1, 0.0)
        monkeypatch.setattr(coarse, "JacobiCG", no_probe)
        cs = build_coarse(part, shifted_laplacian_1d(n), n)
        assert cs.n0 == n
        assert isinstance(cs.factorization, linalg.Factorization)

    def test_well_conditioned_coarse_matrix_takes_cg(self):
        n = coarse.CG_MIN_N0
        cs = build_coarse(build_partition(n, 1, 0.0), shifted_laplacian_1d(n), n)
        solver = cs.factorization
        assert isinstance(solver, linalg.JacobiCG)
        assert solver.nnz == 0 and solver.n == n
        assert 0 < solver.probe_iterations < linalg.CG_MAX_ITERATIONS


class TestJacobiCG:
    def setup_method(self):
        self.A = shifted_laplacian_1d(200)
        self.solver = linalg.JacobiCG(self.A)

    def test_solve_meets_the_tolerance(self):
        b = np.random.default_rng(1).standard_normal(200)
        x = self.solver.solve(b)
        exact = linalg.factorize(self.A).solve(b)
        assert np.linalg.norm(x - exact) <= 1e-13 * np.linalg.norm(exact)

    def test_a_solve_that_misses_the_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "CG_MAX_ITERATIONS", 3)
        b = np.random.default_rng(2).standard_normal(200)
        with pytest.raises(linalg.FactorizationError, match="in 3 iterations"):
            self.solver.solve(b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_raises_at_once(self, monkeypatch,
                                                       bad):
        monkeypatch.setattr(self.solver, "_A", None)  # no SpMV may run
        b = np.ones(200)
        b[17] = bad
        with pytest.raises(ValueError, match="not finite"):
            self.solver.solve(b)

    def test_zero_right_hand_side_gives_zeros(self):
        x = self.solver.solve(np.zeros(200))
        assert x.dtype == np.float64
        np.testing.assert_array_equal(x, np.zeros(200))

    def test_rejects_a_nonpositive_diagonal(self):
        A = shifted_laplacian_1d(10).tolil()
        A[3, 3] = 0.0
        with pytest.raises(linalg.FactorizationError, match="diagonal"):
            linalg.JacobiCG(A)

    def test_rejects_indefinite(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(linalg.FactorizationError, match="not SPD"):
            linalg.JacobiCG(A)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            self.solver.solve(np.ones(199))

    def test_combination_names_the_grid_whose_coarse_solve_missed(
            self, monkeypatch):
        # every grid tries CG; the first to take it passes its probe, and
        # then the cap drops to one iteration, so its later coarse solves
        # miss (and every later grid's probe misses, so it is factorized)
        taken = []
        real_cg = linalg.JacobiCG

        def probed_then_capped(A0):
            solver = real_cg(A0)
            taken.append(A0.shape[0])
            monkeypatch.setattr(linalg, "CG_MAX_ITERATIONS", 1)
            return solver

        monkeypatch.setattr(coarse, "CG_MIN_N0", 1)
        monkeypatch.setattr(coarse, "JacobiCG", probed_then_capped)
        plan = combine.enumerate_plan(2, 6, 2)  # n0 = 4 or 2 on every grid
        with pytest.raises(combine.CombinationError) as info:
            combine.run_combination(plan)
        first = next(plan.terms())[3]
        assert taken == [4]
        assert str(info.value) == (
            f"failed subproblems: {first}: CG missed ||r|| <= 1e-14 ||b|| "
            f"in 1 iterations")


# the count contract: (levels, P, q) of small grids at d = 2-6
GRIDS = [((4, 3), 4, 4), ((3, 2, 2), 4, 3), ((2, 2, 2, 2), 8, 2),
         ((2, 2, 2, 2, 2), 8, 4), ((2, 2, 2, 2, 2, 2), 16, 4)]
VARIANTS = ("additive_two_level", "deflated", "balanced")  # with a coarse space
GAMMAS = (0.25, 0.5, 1.0)
SETUPS = [(g, v, w, GAMMAS[(i + j + k) % 3])
          for i, g in enumerate(GRIDS)
          for j, v in enumerate(VARIANTS)
          for k, w in enumerate(schwarz.WEIGHTINGS)]


def outcome(A, cs, part, variant, weighting, method):
    """(iterations, lambda_min, lambda_max), or the exception type."""
    op = schwarz.setup(A, part, cs, schwarz.SchwarzConfig(variant, weighting))
    n = A.shape[0]
    cfg = krylov.SolverConfig(method=method, tolerance=1e-8, seed=3)
    zero = np.zeros(n)
    try:
        report = krylov.run(A, zero, op, cfg,
                            krylov.initial_iterate(n, 3, A), exact=zero)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    return report.iterations, report.lambda_min, report.lambda_max


@pytest.mark.parametrize("grid_case,variant,weighting,gamma", SETUPS,
                         ids=lambda v: str(v).replace(" ", ""))
def test_cg_coarse_solves_keep_every_count(grid_case, variant, weighting,
                                           gamma):
    levels, p, q = grid_case
    A, part, cs = model_coarse(levels, p, q, gamma)
    cg = with_cg(cs)
    b = np.random.default_rng(cs.n0).standard_normal(cs.n0)
    exact = cs.factorization.solve(b)
    assert (np.linalg.norm(cg.factorization.solve(b) - exact)
            <= 1e-13 * np.linalg.norm(exact))
    for method in krylov.METHODS:
        want = outcome(A, cs, part, variant, weighting, method)
        got = outcome(A, cg, part, variant, weighting, method)
        if isinstance(want, type):
            assert got is want
            continue
        assert got[0] == want[0]
        if method == "richardson":
            np.testing.assert_allclose(got[1:], want[1:], rtol=1e-10)
