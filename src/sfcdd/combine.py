"""Sparse-grid combination technique driven by the Schwarz solver.

The target level L is approximated by solving the problem on all
anisotropic grids whose levels sum to L+(d-1)-i for layers i=0..d-1 and
summing the multilinear interpolants with inclusion-exclusion
coefficients (-1)**i * binom(d-1, i).  Each subproblem gets
P = P_hat * 2**(d-1-i) subdomains so the load per subdomain is roughly
independent of the layer; infeasible P/gamma/q on tiny grids are clamped
and every clamp is recorded.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import grid, krylov, schwarz
from .coarse import build_coarse
from .partition import build_partition

Levels = tuple[int, ...]


class CombinationError(RuntimeError):
    """One or more subproblem solves failed."""


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
    """Coefficient-weighted sum of multilinear interpolants; immutable."""

    def __init__(self, terms):
        self._terms = [
            (float(coeff), levels, values_lex) for coeff, levels, values_lex in terms
        ]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.zeros(pts.shape[0])
        for coeff, levels, values_lex in self._terms:
            out += coeff * multilinear_interpolate(levels, values_lex, pts)
        return out


def multilinear_interpolate(levels, values_lex: np.ndarray,
                            points: np.ndarray) -> np.ndarray:
    """Evaluate the d-linear interpolant of interior nodal values.

    ``values_lex`` has shape (2**l_1 - 1, ..., 2**l_d - 1); boundary
    values are zero.  ``points`` must lie in the closed unit cube.
    """
    levels = grid.as_levels(levels)
    d = len(levels)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m = pts.shape[0]
    cells = np.empty((m, d), dtype=np.int64)
    fracs = np.empty((m, d))
    for j, l in enumerate(levels):
        t = pts[:, j] * (1 << l)
        c = np.clip(np.floor(t).astype(np.int64), 0, (1 << l) - 1)
        cells[:, j] = c
        fracs[:, j] = t - c
    out = np.zeros(m)
    shape = values_lex.shape
    for corner in range(1 << d):
        bits = [(corner >> j) & 1 for j in range(d)]
        weight = np.ones(m)
        node = np.empty((m, d), dtype=np.int64)
        for j in range(d):
            weight *= fracs[:, j] if bits[j] else 1.0 - fracs[:, j]
            node[:, j] = cells[:, j] + bits[j]
        interior = np.ones(m, dtype=bool)
        for j, l in enumerate(levels):
            interior &= (node[:, j] >= 1) & (node[:, j] <= (1 << l) - 1)
        if not interior.any():
            continue
        flat = np.ravel_multi_index(
            [node[interior, j] - 1 for j in range(d)], shape)
        out[interior] += weight[interior] * values_lex.reshape(-1)[flat]
    return out


@dataclass
class CombinationResult:
    plan: CombinationPlan
    evaluator: CombinedSolution
    partials: list[PartialSolution]
    clamps: list[str] = field(default_factory=list)


def solve_subproblem(levels, p_target: int, *, gamma=0.5, variant="balanced",
                     weighting="omega", method="pcg", tolerance=1e-8,
                     q_rule: Callable[[int, int], int] = default_q_rule,
                     seed: int = 42, max_iters: int = 20000):
    """Solve one anisotropic subproblem; returns (PartialSolution, clamp notes)."""
    problem = grid.manufactured_poisson(levels)
    n = grid.num_dofs(levels)
    clamps = []
    p = max(1, min(p_target, n))
    if p != p_target:
        clamps.append(f"levels={levels}: P clamped {p_target} -> {p}")
    g = gamma
    if p < 2 or 2 * g + 1 > p:
        if g != 0:
            clamps.append(f"levels={levels}: gamma clamped {g} -> 0 (P={p})")
        g = 0.0
    q = q_rule(n, p)
    A = grid.assemble_laplacian(levels)
    b = grid.sample_on_grid(problem.rhs, levels)
    A_hat, b_hat, t = grid.symmetrize_diag(A, b)
    part = build_partition(n, p, g)
    cfg = schwarz.SchwarzConfig(variant=variant, weighting=weighting)
    cs = build_coarse(part, A_hat, q) if variant != "one_level" else None
    op = schwarz.setup(A_hat, part, cs, cfg)
    solver_cfg = krylov.SolverConfig(
        method=method, tolerance=tolerance, tolerance_kind="relative_residual",
        max_iters=max_iters, seed=seed,
    )
    report = krylov.run(A_hat, b_hat, op, solver_cfg, np.zeros(n))
    if not report.converged:
        raise CombinationError(f"subproblem {levels} did not converge")
    report.params.update({
        "levels": levels, "P": p, "gamma": g, "q": q,
        "variant": variant, "weighting": weighting, "N": n,
    })
    return PartialSolution(levels, t * report.solution, report), clamps


def run_combination(plan: CombinationPlan, *, gamma=0.5, variant="balanced",
                    weighting="omega", method="pcg", tolerance=1e-8,
                    q_rule: Callable[[int, int], int] = default_q_rule,
                    seed: int = 42, jobs: int = 1,
                    max_iters: int = 20000) -> CombinationResult:
    """Solve every subproblem of the plan and build the combined evaluator.

    Subproblems are independent and may run concurrently (``jobs``);
    results are reduced in plan order, so the outcome does not depend on
    scheduling.
    """
    terms = list(plan.terms())

    def attempt(term):
        _, _, p_target, levels = term
        try:
            return solve_subproblem(
                levels, p_target, gamma=gamma, variant=variant,
                weighting=weighting, method=method, tolerance=tolerance,
                q_rule=q_rule, seed=seed, max_iters=max_iters), None
        except Exception as exc:  # noqa: BLE001 - aggregated below
            return None, exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(attempt, terms))
    else:  # on the calling thread, where perfbench keeps its span stack
        results = list(map(attempt, terms))
    failures = [(term[3], exc) for term, (_, exc) in zip(terms, results)
                if exc is not None]
    if failures:
        details = "; ".join(f"{lv}: {exc}" for lv, exc in failures)
        raise CombinationError(f"failed subproblems: {details}")

    partials = []
    clamps = []
    eval_terms = []
    for (_, coeff, _, levels), ((partial, notes), _) in zip(terms, results):
        partials.append(partial)
        clamps.extend(notes)
        eval_terms.append(
            (coeff, levels, grid.scatter_to_lex(levels, partial.values)))
    return CombinationResult(plan, CombinedSolution(eval_terms), partials, clamps)


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
