"""Solver iterations, stopping criteria, and eigenvalue estimation."""

import numpy as np
import pytest
import scipy.sparse as sp

from sfcdd import grid, krylov, linalg
from sfcdd.coarse import build_coarse
from sfcdd.partition import build_partition
from sfcdd.schwarz import SchwarzConfig, setup


class ExactInverse:
    """Preconditioner wrapper around a dense inverse; used as oracle."""

    symmetric = True

    def __init__(self, A):
        self._inv = np.linalg.inv(A.toarray())

    def apply(self, v):
        return self._inv @ v


def model_setup(levels, p, gamma, q, variant="balanced", weighting="omega"):
    A = grid.assemble_laplacian(levels)
    n = A.shape[0]
    Ah, _, _ = grid.symmetrize_diag(A, np.zeros(n))
    part = build_partition(n, p, gamma)
    cs = build_coarse(part, Ah, q) if variant != "one_level" else None
    op = setup(Ah, part, cs, SchwarzConfig(variant, weighting))
    return Ah, op


def dense_eigs(A, op):
    """Eigenvalues of C^-1 A from the dense matrix, column by column."""
    M = np.column_stack([op.apply(A[:, j].toarray().ravel())
                         for j in range(A.shape[0])])
    return np.real(np.linalg.eigvals(M))


class TestEstimateExtremalEigs:
    def test_identity_operator(self):
        lo, hi = krylov.estimate_extremal_eigs(
            sp.identity(40, format="csr"), lambda v: v.copy(), seed=0)
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_exact_preconditioner_gives_unit_spectrum(self):
        A = grid.assemble_laplacian((5,))
        lo, hi = krylov.estimate_extremal_eigs(
            A, ExactInverse(A).apply, seed=1)
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_lanczos_matches_dense_oracle(self):
        # (8,), P=3, gamma=1 unweighted: Ritz values read off PCG's
        # coefficients give lambda_max 3.0625 here, against a dense 3.0
        for levels, p, gamma, variant, weighting in [
                ((7,), 4, 0.5, "additive_two_level", "omega"),
                ((4, 4), 4, 0.5, "additive_two_level", "omega"),
                ((9,), 8, 0.5, "additive_two_level", "omega"),
                ((8,), 3, 1.0, "balanced", "none")]:
            Ah, op = model_setup(levels, p, gamma, 4, variant=variant,
                                 weighting=weighting)
            dense = dense_eigs(Ah, op)
            lo, hi = krylov.estimate_extremal_eigs(Ah, op.apply, seed=2)
            assert lo == pytest.approx(dense.min(), rel=1e-6), levels
            assert hi == pytest.approx(dense.max(), rel=1e-6), levels

    def test_one_spmv_per_lanczos_step(self):
        Ah, op = model_setup((9,), 8, 0.5, 4)
        counts = {"spmv": 0, "apply": 0}

        class CountingA:
            shape = Ah.shape

            def __matmul__(self, v):
                counts["spmv"] += 1
                return Ah @ v

        def apply_c(v):
            counts["apply"] += 1
            return op.apply(v)

        got = krylov.estimate_extremal_eigs(CountingA(), apply_c, seed=2)
        assert counts["spmv"] <= counts["apply"] + 1
        want = krylov.estimate_extremal_eigs(Ah, op.apply, seed=2)
        assert got == want

    def test_identity_breakdown_returns_ritz_so_far(self):
        lo, hi = krylov.estimate_extremal_eigs(
            sp.identity(400, format="csr"), lambda v: v.copy(), seed=3)
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)


class TestInitialIterate:
    def test_unit_energy_norm(self):
        A = grid.assemble_laplacian((4, 3))
        x0 = krylov.initial_iterate(A.shape[0], 11, A)
        assert np.sqrt(x0 @ (A @ x0)) == pytest.approx(1.0, abs=1e-13)

    def test_reproducible(self):
        A = grid.assemble_laplacian((5,))
        a = krylov.initial_iterate(31, 5, A)
        b = krylov.initial_iterate(31, 5, A)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        A = grid.assemble_laplacian((5,))
        a = krylov.initial_iterate(31, 5, A)
        b = krylov.initial_iterate(31, 6, A)
        assert np.abs(a - b).max() > 1e-6


def _cfg(method, **kw):
    base = dict(method=method, tolerance=1e-8,
                tolerance_kind="energy_error_reduction", seed=42)
    base.update(kw)
    return krylov.SolverConfig(**base)


class TestRichardson:
    def test_zero_iterations_when_started_at_solution(self):
        A = grid.assemble_laplacian((3,))
        x_star = np.random.default_rng(0).standard_normal(7)
        b = A @ x_star
        rep = krylov.run(A, b, None, _cfg("richardson"), x_star.copy(),
                         exact=x_star)
        assert rep.iterations == 0 and rep.converged

    def test_exact_preconditioner_one_iteration(self):
        A = grid.assemble_laplacian((4,))
        pre = ExactInverse(A)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(15)
        exact = np.linalg.solve(A.toarray(), b)
        rep = krylov.run(A, b, pre, _cfg("richardson"), np.zeros(15),
                         exact=exact)
        assert rep.iterations == 1 and rep.converged

    def test_energy_monotone_with_safe_damping(self):
        Ah, op = model_setup((6,), 4, 0.5, 4)
        x0 = krylov.initial_iterate(63, 42, Ah)
        rep = krylov.run(Ah, np.zeros(63), op, _cfg("richardson"), x0,
                         exact=np.zeros(63))
        hist = np.array(rep.energy_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_asymptotic_rate_matches_dense_oracle(self):
        Ah, op = model_setup((8,), 4, 0.5, 16)
        n = 255
        x0 = krylov.initial_iterate(n, 42, Ah)
        rep = krylov.run(Ah, np.zeros(n), op, _cfg("richardson"), x0,
                         exact=np.zeros(n))
        dense = dense_eigs(Ah, op)
        kappa = dense.max() / dense.min()
        rho_star = 1.0 - 2.0 / (1.0 + kappa)
        hist = np.array(rep.energy_history)
        ratios = hist[1:] / hist[:-1]
        measured = np.exp(np.mean(np.log(ratios[-20:])))
        assert measured == pytest.approx(rho_star, abs=0.03)

    def test_divergence_raises(self, monkeypatch):
        # a too-narrow eigenvalue interval gives xi = 10, far above 2/lambda_max
        monkeypatch.setattr(krylov, "estimate_extremal_eigs",
                            lambda A, apply_c, seed: (0.05, 0.15))
        Ah, _ = model_setup((4,), 1, 0.0, 1, variant="one_level")
        x0 = krylov.initial_iterate(15, 42, Ah)
        with pytest.raises(krylov.DivergenceError):
            krylov.run(Ah, np.zeros(15), None, _cfg("richardson"), x0,
                       exact=np.zeros(15))

    def test_optimal_damping_refuses_nonsymmetric(self):
        Ah, op = model_setup((6,), 8, 0.25, 2, weighting="d_matrix")
        assert not op.symmetric
        with pytest.raises(ValueError):
            krylov.run(Ah, np.zeros(63), op, _cfg("richardson"),
                       np.zeros(63), exact=np.zeros(63))


class TestPcg:
    def test_finite_termination_unpreconditioned(self):
        A = grid.assemble_laplacian((3,))
        rng = np.random.default_rng(2)
        x_star = rng.standard_normal(7)
        b = A @ x_star
        cfg = _cfg("pcg", tolerance=1e-12, tolerance_kind="relative_residual")
        rep = krylov.run(A, b, None, cfg, np.zeros(7))
        assert rep.converged and rep.iterations <= 9

    def test_finite_termination_n50(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((50, 50))
        import scipy.sparse as sp
        A = sp.csr_matrix(B.T @ B + 50 * np.eye(50))
        x_star = rng.standard_normal(50)
        cfg = _cfg("pcg", tolerance=1e-12, tolerance_kind="relative_residual",
                   max_iters=60)
        rep = krylov.run(A, A @ x_star, None, cfg, np.zeros(50))
        assert rep.converged and rep.iterations <= 52

    def test_refuses_nonsymmetric_preconditioner(self):
        Ah, op = model_setup((6,), 8, 0.25, 2, weighting="d_matrix")
        with pytest.raises(ValueError):
            krylov.run(Ah, np.zeros(63), op, _cfg("pcg"), np.zeros(63),
                       exact=np.zeros(63))

    def test_dominates_richardson(self):
        Ah, op = model_setup((7,), 4, 0.5, 8)
        x0 = krylov.initial_iterate(127, 42, Ah)
        zero = np.zeros(127)
        rich = krylov.run(Ah, zero, op, _cfg("richardson"), x0, exact=zero)
        cg = krylov.run(Ah, zero, op, _cfg("pcg"), x0, exact=zero)
        assert cg.converged and rich.converged
        assert cg.iterations <= rich.iterations

    def test_deterministic_histories(self):
        Ah, op = model_setup((6,), 4, 0.5, 4)
        x0 = krylov.initial_iterate(63, 42, Ah)
        reps = [krylov.run(Ah, np.zeros(63), op, _cfg("pcg"), x0,
                           exact=np.zeros(63)) for _ in range(2)]
        assert reps[0].energy_history == reps[1].energy_history
        assert reps[0].residual_history == reps[1].residual_history


class TestFcg:
    def test_matches_pcg_with_symmetric_preconditioner(self):
        Ah, op = model_setup((6,), 4, 0.5, 4)
        x0 = krylov.initial_iterate(63, 42, Ah)
        zero = np.zeros(63)
        a = krylov.run(Ah, zero, op, _cfg("pcg"), x0, exact=zero)
        b = krylov.run(Ah, zero, op, _cfg("fcg"), x0, exact=zero)
        assert a.iterations == b.iterations
        np.testing.assert_allclose(a.solution, b.solution, atol=1e-10)
        np.testing.assert_allclose(a.energy_history, b.energy_history,
                                   rtol=1e-6, atol=1e-12)

    def test_converges_where_pcg_is_refused(self):
        Ah, op = model_setup((6,), 8, 0.25, 2, weighting="d_matrix")
        x0 = krylov.initial_iterate(63, 42, Ah)
        rep = krylov.run(Ah, np.zeros(63), op, _cfg("fcg"), x0,
                         exact=np.zeros(63))
        assert rep.converged

    def test_zero_initial_residual(self):
        A = grid.assemble_laplacian((3,))
        x_star = np.random.default_rng(4).standard_normal(7)
        rep = krylov.run(A, A @ x_star, None, _cfg("fcg"), x_star.copy(),
                         exact=x_star)
        assert rep.iterations == 0 and rep.converged


class TestReport:
    def test_summary_carries_params(self):
        Ah, op = model_setup((5,), 2, 0.5, 2)
        rep = krylov.run(Ah, np.zeros(31), op, _cfg("pcg"), np.zeros(31),
                         exact=np.zeros(31))
        rep.params["P"] = 2
        s = rep.summary()
        assert s["method"] == "pcg" and s["P"] == 2 and "wall_time" in s


class ReturnsItsArgument:
    """The identity as a preconditioner whose output aliases its input."""

    symmetric = True

    def apply(self, v):
        return v


@pytest.mark.parametrize("method", krylov.METHODS)
def test_preconditioner_output_may_alias_its_input(method):
    # the methods update their own arrays in place; an apply that returns
    # the residual itself must not be updated with them
    zero = np.zeros(31)
    Ah, _, _ = grid.symmetrize_diag(grid.assemble_laplacian((5,)), zero)
    x0 = krylov.initial_iterate(31, 42, Ah)
    cfg = _cfg(method, max_iters=40)
    ref = krylov.run(Ah, zero, None, cfg, x0, exact=zero)
    got = krylov.run(Ah, zero, ReturnsItsArgument(), cfg, x0, exact=zero)
    assert got.iterations == ref.iterations > 0
    assert got.residual_history == ref.residual_history
    assert got.energy_history == ref.energy_history
    assert np.array_equal(got.solution, ref.solution)


@pytest.mark.parametrize("method", ["richardson", "pcg", "fcg"])
def test_nan_rhs_raises_within_two_iterations(method):
    Ah, op = model_setup((6,), 4, 0.5, 4)
    b = np.zeros(63)
    b[5] = np.nan
    with pytest.raises(krylov.BreakdownError):
        krylov.run(Ah, b, op, _cfg(method, max_iters=2), np.zeros(63),
                   exact=np.zeros(63))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        krylov.SolverConfig(method="gmres")
    with pytest.raises(ValueError):
        krylov.SolverConfig(tolerance=-1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            krylov.SolverConfig(tolerance=bad)
    with pytest.raises(ValueError):
        krylov.SolverConfig(tolerance_kind="none")
    with pytest.raises(ValueError, match="max_iters"):
        krylov.SolverConfig(max_iters=-3)
    assert krylov.SolverConfig(max_iters=0).max_iters == 0
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            krylov.SolverConfig(max_iters=bad)
    assert krylov.SolverConfig(max_iters=np.int64(3)).max_iters == 3



def test_package_exports_resolve():
    import sfcdd
    assert [name for name in sfcdd.__all__ if not hasattr(sfcdd, name)] == []
