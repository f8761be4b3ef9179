"""Sparse-grid combination technique driven by the Schwarz solver.

The target level L is approximated by solving the problem on all
anisotropic grids whose levels sum to L+(d-1)-i for layers i=0..d-1 and
summing the multilinear interpolants with inclusion-exclusion
coefficients (-1)**i * binom(d-1, i).  Each subproblem gets
P = P_hat * 2**(d-1-i) subdomains so the load per subdomain is roughly
independent of the layer; infeasible P/gamma/q on tiny grids are clamped
and every clamp is recorded.  The subproblems are solved one after the
other, in plan order, on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid, krylov, schwarz
from .coarse import build_coarse
from .linalg import FactorizationError
from .partition import build_partition, overlap_fits, read_gamma

Levels = tuple[int, ...]


class CombinationError(RuntimeError):
    """One or more subproblem solves failed."""


# what run_combination collects per subproblem; any other exception is a
# programming error and propagates with its traceback
_SOLVER_FAILURES = (CombinationError, krylov.BreakdownError,
                   krylov.DivergenceError, FactorizationError, ValueError)


@dataclass(frozen=True)
class CombinationPlan:
    dim: int
    level: int
    p_hat: int
    layers: tuple[tuple[Levels, ...], ...]
    coefficients: tuple[int, ...]

    def terms(self):
        """Yield (layer index, coefficient, subdomain count, levels)."""
        for i, (layer, coeff) in enumerate(zip(self.layers, self.coefficients)):
            p = self.p_hat * 2**(self.dim - 1 - i)
            for levels in layer:
                yield i, coeff, p, levels


def _compositions(total: int, parts: int):
    """All positive integer tuples of given length and sum, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_plan(d: int, level: int, p_hat: int = 1) -> CombinationPlan:
    if d < 1 or level < d:
        raise ValueError(f"need L >= d >= 1, got d={d}, L={level}")
    if p_hat < 1:
        raise ValueError("p_hat must be positive")
    layers = []
    coefficients = []
    for i in range(d):
        layers.append(tuple(_compositions(level + (d - 1) - i, d)))
        coefficients.append((-1) ** i * math.comb(d - 1, i))
    return CombinationPlan(d, level, p_hat, tuple(layers), tuple(coefficients))


def subdomain_count_total(d: int, level: int, p_hat: int = 1) -> int:
    """Closed-form total of subdomain problems over the whole plan."""
    if d < 1 or level < d:
        raise ValueError(f"need L >= d >= 1, got d={d}, L={level}")
    total = 0
    for k in range(d):
        prod = 1
        for i in range(1, d):
            prod *= level + d - 1 - k - i
        total += 2 ** (d - 1 - k) * prod
    fact = math.factorial(d - 1)
    assert total % fact == 0
    return p_hat * (total // fact)


def default_q_rule(n: int, p: int) -> int:
    """Coarse dofs per subdomain, four dyadic levels below the local size."""
    q = 2 ** max(0, int(math.floor(math.log2(n / p))) - 4)
    return max(1, min(q, n // p))


@dataclass(frozen=True)
class PartialSolution:
    levels: Levels
    values: np.ndarray  # interior values in SFC order
    report: krylov.SolveReport


class CombinedSolution:
    """Coefficient-weighted sum of multilinear interpolants; immutable.

    Each grid's interior values are checked against its levels and
    padded with the zero Dirichlet layer once, here, so that node k of
    axis j sits at index k.
    """

    def __init__(self, terms):
        self._terms = []
        for coeff, levels, values_lex in terms:
            shape = grid.interior_shape(levels)
            values = np.asarray(values_lex)
            if values.shape != shape:
                raise ValueError(f"values for levels {tuple(levels)} must "
                                 f"have shape {shape}, got {values.shape}")
            self._terms.append(
                (float(coeff), grid.as_levels(levels), np.pad(values, 1)))
        dims = sorted({len(levels) for _, levels, _ in self._terms})
        if len(dims) > 1:
            raise ValueError(f"terms mix dimensions {dims}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at (m, d) points, every coordinate in [0, 1]."""
        pts = np.asarray(points, dtype=np.float64)
        d = len(self._terms[0][1]) if self._terms else None
        if not (pts.ndim == 2 and pts.shape[1] == d
                and np.all((pts >= 0.0) & (pts <= 1.0))):
            raise ValueError(f"points must be an (m, {d}) array with every "
                             f"coordinate finite and in [0, 1]")
        out = np.zeros(pts.shape[0])
        for coeff, levels, nodes in self._terms:
            out += coeff * _interpolate_padded(levels, nodes, pts)
        return out


def _interpolate_padded(levels, nodes, pts) -> np.ndarray:
    """The d-linear interpolant of zero-padded nodal values at (m, d) points."""
    # both corners of every cell exist, so no corner needs a range test
    cells = []
    fracs = []
    for j, l in enumerate(levels):
        t = pts[:, j] * (1 << l)
        c = np.clip(np.floor(t).astype(np.int64), 0, (1 << l) - 1)
        cells.append(c)
        fracs.append(t - c)
    out = np.zeros(pts.shape[0])
    for corner in range(1 << len(levels)):
        bits = [(corner >> j) & 1 for j in range(len(levels))]
        weight = np.ones(pts.shape[0])
        for f, bit in zip(fracs, bits):
            weight *= f if bit else 1.0 - f
        out += weight * nodes[tuple(c + bit for c, bit in zip(cells, bits))]
    return out


def multilinear_interpolate(levels, values_lex: np.ndarray,
                            points: np.ndarray) -> np.ndarray:
    """Evaluate the d-linear interpolant of interior nodal values.

    ``values_lex`` has shape (2**l_1 - 1, ..., 2**l_d - 1); boundary
    values are zero.  ``points`` must lie in the closed unit cube.
    """
    return CombinedSolution([(1.0, levels, values_lex)])(points)


@dataclass
class CombinationResult:
    evaluator: CombinedSolution
    partials: list[PartialSolution]
    clamps: list[str] = field(default_factory=list)


def _configs(*, variant, weighting, method, tolerance, seed, max_iters):
    """A subproblem's Schwarz and solver configs; each checks its settings."""
    return (schwarz.SchwarzConfig(variant=variant, weighting=weighting),
            krylov.SolverConfig(method=method, tolerance=tolerance,
                                tolerance_kind="relative_residual",
                                max_iters=max_iters, seed=seed))


def solve_subproblem(levels, p_target: int, *, gamma=0.5, variant="balanced",
                     weighting="omega", method="pcg", tolerance=1e-8,
                     seed: int = 42, max_iters: int = 20000):
    """Solve one anisotropic subproblem; returns (PartialSolution, clamp notes)."""
    cfg, solver_cfg = _configs(
        variant=variant, weighting=weighting, method=method,
        tolerance=tolerance, seed=seed, max_iters=max_iters)
    problem = grid.manufactured_poisson(levels)
    n = grid.num_dofs(levels)
    clamps = []
    p = max(1, min(p_target, n))
    if p != p_target:
        clamps.append(f"levels={levels}: P clamped {p_target} -> {p}")
    g = gamma
    if not overlap_fits(p, g):
        clamps.append(f"levels={levels}: gamma clamped {g} -> 0 (P={p})")
        g = 0.0
    q = default_q_rule(n, p)
    # A is not kept: alive while the coarse factor is built, it keeps the
    # heap from reusing SuperLU's freed workspace (README.md, Memory)
    A_hat, b_hat, t = grid.symmetrize_diag(
        grid.assemble_laplacian(levels),
        grid.sample_on_grid(problem.rhs, levels))
    part = build_partition(n, p, g)
    cs = build_coarse(part, A_hat, q) if variant != "one_level" else None
    op = schwarz.setup(A_hat, part, cs, cfg)
    report = krylov.run(A_hat, b_hat, op, solver_cfg, np.zeros(n))
    if not report.converged:
        raise CombinationError(f"subproblem {levels} did not converge")
    report.params.update({
        "levels": levels, "P": p, "gamma": g, "q": q,
        "variant": variant, "weighting": weighting, "N": n,
        **schwarz.factor_nnz(op, cs),
    })
    return PartialSolution(levels, t * report.solution, report), clamps


def run_combination(plan: CombinationPlan, *, gamma=0.5, variant="balanced",
                    weighting="omega", method="pcg", tolerance=1e-8,
                    seed: int = 42, max_iters: int = 20000) -> CombinationResult:
    """Solve every subproblem of the plan and build the combined evaluator.

    Every setting is checked once, before the first grid.  The
    subproblems are solved serially in plan order.  A failed solve does
    not stop the loop: every failure is collected and one
    :class:`CombinationError` names the failed level vectors in plan order.
    """
    settings = dict(variant=variant, weighting=weighting, method=method,
                    tolerance=tolerance, seed=seed, max_iters=max_iters)
    _configs(**settings)
    read_gamma(gamma)
    partials = []
    clamps = []
    eval_terms = []
    failures = []
    for _, coeff, p_target, levels in plan.terms():
        try:
            partial, notes = solve_subproblem(levels, p_target, gamma=gamma,
                                              **settings)
        except _SOLVER_FAILURES as exc:
            failures.append(f"{levels}: {exc}")
            continue
        # reorder while the subproblem's SFC permutation is still cached;
        # after the whole plan it has been evicted on plans of > 128 grids
        values_lex = grid.scatter_to_lex(levels, partial.values)
        partials.append(partial)
        clamps.extend(notes)
        eval_terms.append((coeff, levels, values_lex))
    if failures:
        raise CombinationError(f"failed subproblems: {'; '.join(failures)}")
    return CombinationResult(CombinedSolution(eval_terms), partials, clamps)


def sampled_error(evaluator, exact, d: int, level: int, sample_count: int,
                  seed: int = 42) -> tuple[float, float]:
    """Max and RMS error over random interior nodes of the full level-L grid."""
    if sample_count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    idx = rng.integers(1, 1 << level, size=(sample_count, d))
    pts = idx.astype(np.float64) * 2.0**-level
    err = np.asarray(evaluator(pts)) - np.asarray(exact(pts))
    return float(np.abs(err).max()), float(np.sqrt(np.mean(err**2)))
