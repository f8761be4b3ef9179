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
        for levels, p in [((7,), 4), ((4, 4), 4), ((9,), 8)]:
            Ah, op = model_setup(levels, p, 0.5, 4,
                                 variant="additive_two_level")
            dense = dense_eigs(Ah, op)
            lo, hi = krylov.estimate_extremal_eigs(Ah, op.apply, seed=2)
            assert lo == pytest.approx(dense.min(), rel=1e-6), levels
            assert hi == pytest.approx(dense.max(), rel=1e-6), levels

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
        rep = krylov.richardson(A, b, None, _cfg("richardson", damping=0.1),
                                x_star.copy(), exact=x_star)
        assert rep.iterations == 0 and rep.converged

    def test_exact_preconditioner_one_iteration(self):
        A = grid.assemble_laplacian((4,))
        pre = ExactInverse(A)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(15)
        exact = np.linalg.solve(A.toarray(), b)
        rep = krylov.richardson(A, b, pre, _cfg("richardson", damping=1.0),
                                np.zeros(15), exact=exact)
        assert rep.iterations == 1 and rep.converged

    def test_energy_monotone_with_safe_damping(self):
        Ah, op = model_setup((6,), 4, 0.5, 4)
        x0 = krylov.initial_iterate(63, 42, Ah)
        rep = krylov.richardson(Ah, np.zeros(63), op, _cfg("richardson"),
                                x0, exact=np.zeros(63))
        hist = np.array(rep.energy_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_asymptotic_rate_matches_dense_oracle(self):
        Ah, op = model_setup((8,), 4, 0.5, 16)
        n = 255
        x0 = krylov.initial_iterate(n, 42, Ah)
        rep = krylov.richardson(Ah, np.zeros(n), op, _cfg("richardson"),
                                x0, exact=np.zeros(n))
        dense = dense_eigs(Ah, op)
        kappa = dense.max() / dense.min()
        rho_star = 1.0 - 2.0 / (1.0 + kappa)
        hist = np.array(rep.energy_history)
        ratios = hist[1:] / hist[:-1]
        measured = np.exp(np.mean(np.log(ratios[-20:])))
        assert measured == pytest.approx(rho_star, abs=0.03)

    def test_divergence_raises(self):
        Ah, _ = model_setup((4,), 1, 0.0, 1, variant="one_level")
        x0 = krylov.initial_iterate(15, 42, Ah)
        with pytest.raises(krylov.DivergenceError):
            krylov.richardson(Ah, np.zeros(15), None,
                              _cfg("richardson", damping=10.0),
                              x0, exact=np.zeros(15))

    def test_optimal_damping_refuses_nonsymmetric(self):
        Ah, op = model_setup((6,), 8, 0.25, 2, weighting="d_matrix")
        assert not op.symmetric
        with pytest.raises(ValueError):
            krylov.richardson(Ah, np.zeros(63), op, _cfg("richardson"),
                              np.zeros(63), exact=np.zeros(63))


class TestPcg:
    def test_finite_termination_unpreconditioned(self):
        A = grid.assemble_laplacian((3,))
        rng = np.random.default_rng(2)
        x_star = rng.standard_normal(7)
        b = A @ x_star
        cfg = _cfg("pcg", tolerance=1e-12, tolerance_kind="relative_residual")
        rep = krylov.pcg(A, b, None, cfg, np.zeros(7))
        assert rep.converged and rep.iterations <= 9

    def test_finite_termination_n50(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((50, 50))
        import scipy.sparse as sp
        A = sp.csr_matrix(B.T @ B + 50 * np.eye(50))
        x_star = rng.standard_normal(50)
        cfg = _cfg("pcg", tolerance=1e-12, tolerance_kind="relative_residual",
                   max_iters=60)
        rep = krylov.pcg(A, A @ x_star, None, cfg, np.zeros(50))
        assert rep.converged and rep.iterations <= 52

    def test_refuses_nonsymmetric_preconditioner(self):
        Ah, op = model_setup((6,), 8, 0.25, 2, weighting="d_matrix")
        with pytest.raises(ValueError):
            krylov.pcg(Ah, np.zeros(63), op, _cfg("pcg"), np.zeros(63),
                       exact=np.zeros(63))

    def test_dominates_richardson(self):
        Ah, op = model_setup((7,), 4, 0.5, 8)
        x0 = krylov.initial_iterate(127, 42, Ah)
        zero = np.zeros(127)
        rich = krylov.richardson(Ah, zero, op, _cfg("richardson"), x0,
                                 exact=zero)
        cg = krylov.pcg(Ah, zero, op, _cfg("pcg"), x0, exact=zero)
        assert cg.converged and rich.converged
        assert cg.iterations <= rich.iterations

    def test_deterministic_histories(self):
        Ah, op = model_setup((6,), 4, 0.5, 4)
        x0 = krylov.initial_iterate(63, 42, Ah)
        reps = [krylov.pcg(Ah, np.zeros(63), op, _cfg("pcg"), x0,
                           exact=np.zeros(63)) for _ in range(2)]
        assert reps[0].energy_history == reps[1].energy_history
        assert reps[0].residual_history == reps[1].residual_history


class TestFcg:
    def test_matches_pcg_with_symmetric_preconditioner(self):
        Ah, op = model_setup((6,), 4, 0.5, 4)
        x0 = krylov.initial_iterate(63, 42, Ah)
        zero = np.zeros(63)
        a = krylov.pcg(Ah, zero, op, _cfg("pcg"), x0, exact=zero)
        b = krylov.fcg(Ah, zero, op, _cfg("fcg"), x0, exact=zero)
        assert a.iterations == b.iterations
        np.testing.assert_allclose(a.solution, b.solution, atol=1e-10)
        np.testing.assert_allclose(a.energy_history, b.energy_history,
                                   rtol=1e-6, atol=1e-12)

    def test_converges_where_pcg_is_refused(self):
        Ah, op = model_setup((6,), 8, 0.25, 2, weighting="d_matrix")
        x0 = krylov.initial_iterate(63, 42, Ah)
        rep = krylov.fcg(Ah, np.zeros(63), op, _cfg("fcg"), x0,
                         exact=np.zeros(63))
        assert rep.converged

    def test_zero_initial_residual(self):
        A = grid.assemble_laplacian((3,))
        x_star = np.random.default_rng(4).standard_normal(7)
        rep = krylov.fcg(A, A @ x_star, None, _cfg("fcg"), x_star.copy(),
                         exact=x_star)
        assert rep.iterations == 0 and rep.converged


class TestReport:
    def test_csv_serialization(self, tmp_path):
        Ah, op = model_setup((5,), 2, 0.5, 2)
        x0 = krylov.initial_iterate(31, 42, Ah)
        rep = krylov.pcg(Ah, np.zeros(31), op, _cfg("pcg"), x0,
                         exact=np.zeros(31))
        path = tmp_path / "iters.csv"
        with open(path, "w", newline="") as fh:
            rep.write_iterations_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,energy_error,residual"
        assert len(lines) == len(rep.residual_history) + 1

    def test_summary_carries_params(self):
        Ah, op = model_setup((5,), 2, 0.5, 2)
        rep = krylov.pcg(Ah, np.zeros(31), op, _cfg("pcg"), np.zeros(31),
                         exact=np.zeros(31))
        rep.params["P"] = 2
        s = rep.summary()
        assert s["method"] == "pcg" and s["P"] == 2 and "wall_time" in s


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
    with pytest.raises(ValueError):
        krylov.SolverConfig(tolerance_kind="none")
    with pytest.raises(ValueError, match="max_iters"):
        krylov.SolverConfig(max_iters=-3)
    assert krylov.SolverConfig(max_iters=0).max_iters == 0
