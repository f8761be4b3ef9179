"""The benchmark's workloads: one timed solver call each, and its answer check.

Every workload is closed loop: one solve at a time in one process.  All
of them use the balanced two-level operator with omega weighting and
overlap gamma = 1/2, as in the paper's main studies.  The seed is the
only input that varies between runs: it draws the random initial iterate
of the model solves and the sample points of the combination error.

Only the solver call is timed (``harness.run_model_solve`` or
``combine.run_combination``); the traced run times ``combine.sampled_error``
as a layer of its own.  Answers are checked afterwards, against values computed here
and not by the solver: the energy norm of a model solution is evaluated
with a stencil written in this file, and the combined solution is
compared with errors recorded at the seed commit on fixed probe points.
"""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from sfcdd import combine, grid, harness

GAMMA = 0.5
TOLERANCE = 1e-8
# room for rounding between the solver's own energy norm and the one here
ENERGY_SLACK = 1e-6
# "solver precision": tightening the PCG tolerance from 1e-8 to 1e-11
# moves the combined values by 1.8e-8 and the probe errors by 2e-9
PROBE_ATOL = 1e-7
PROBE_POINTS = 512
PROBE_SEED = 20211021


@dataclass(frozen=True)
class ModelSolve:
    """``harness.run_model_solve``: the zero-solution Laplace study."""

    levels: tuple[int, ...]
    p: int
    q: int
    method: str
    iteration_band: tuple[int, int]  # acceptance band, inclusive


@dataclass(frozen=True)
class Combination:
    """``combine.run_combination`` followed by ``combine.sampled_error``."""

    dim: int
    level: int
    p_hat: int
    samples: int
    subproblems: int
    # max and RMS error over the probe points, recorded at the seed commit
    probe_errors: tuple[float, float]


WORKLOADS = {
    # S=12 weak-scaling point (q = 2**(S-4)); criterion 6a: 145 +- 25
    "d1-rich": ModelSolve((17,), 32, 256, "richardson", (120, 170)),
    # d=6 with q=16 as in criterion 6b (16 +- 4); coarse problem n0 = 4096
    "d6-pcg": ModelSolve((3, 3, 3, 3, 3, 2), 256, 16, "pcg", (12, 20)),
    # 195 level vectors, more than the 128 the ordering cache holds
    "combine-d4": Combination(4, 7, 2, 2000, 195,
                              (0.001866995757553891, 0.00041592320571044245)),
}


@dataclass
class Run:
    """Timings and outputs of one solver call."""

    total_s: float
    solve_s: float
    iterations: int
    peak_rss_mib: float
    digest: str  # hash of every iteration count and history, bit for bit
    reports: list
    sampled_max_error: float | None = None
    evaluator: object = None
    clamps: list = field(default_factory=list)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def history_digest(reports) -> str:
    h = hashlib.sha256()
    for r in reports:
        h.update(np.int64(r.iterations).tobytes())
        h.update(np.asarray(r.residual_history, dtype=np.float64).tobytes())
        h.update(np.asarray(r.energy_history, dtype=np.float64).tobytes())
    return h.hexdigest()


def execute(w, seed: int) -> Run:
    """Run the workload once; only the solver's own calls are timed."""
    if isinstance(w, ModelSolve):
        t0 = time.perf_counter()
        report = harness.run_model_solve(
            w.levels, w.p, GAMMA, w.q, method=w.method, variant="balanced",
            weighting="omega", tolerance=TOLERANCE, seed=seed)
        total = time.perf_counter() - t0
        rss = peak_rss_mib()
        return Run(total, report.wall_time, report.iterations, rss,
                   history_digest([report]), [report])
    plan = combine.enumerate_plan(w.dim, w.level, w.p_hat)
    t0 = time.perf_counter()
    result = combine.run_combination(
        plan, gamma=GAMMA, variant="balanced", weighting="omega",
        method="pcg", tolerance=TOLERANCE, seed=seed)
    total = time.perf_counter() - t0
    rss = peak_rss_mib()
    exact = grid.manufactured_poisson((w.level,) * w.dim).exact_solution
    max_err, _ = combine.sampled_error(result.evaluator, exact, w.dim,
                                       w.level, w.samples, seed=seed)
    reports = [p.report for p in result.partials]
    return Run(total, sum(r.wall_time for r in reports),
               sum(r.iterations for r in reports), rss,
               history_digest(reports), reports, max_err, result.evaluator,
               list(result.clamps))


def scaled_energy_norm(levels, x_sfc: np.ndarray, perm: np.ndarray) -> float:
    """sqrt(x^T A_hat x) for the unit-diagonal finite-difference Laplacian.

    Independent of the solver's assembly: x^T A x is the sum over axes of
    4**l_j times the squared differences along that axis, with the zero
    Dirichlet values padded on.  The diagonal of A is the same constant
    sum_j 2 * 4**l_j in every row, so the scaling divides by it.
    """
    shape = tuple((1 << l) - 1 for l in levels)
    u = np.empty(x_sfc.size)
    u[perm] = x_sfc
    u = u.reshape(shape)
    energy = 0.0
    for j, l in enumerate(levels):
        pad = [(1, 1) if k == j else (0, 0) for k in range(len(levels))]
        energy += 4.0**l * float(np.sum(np.diff(np.pad(u, pad), axis=j) ** 2))
    return float(np.sqrt(energy / sum(2.0 * 4.0**l for l in levels)))


def exact_solution(points: np.ndarray) -> np.ndarray:
    """|x|_2 * prod_i sin(pi x_i), the manufactured Poisson solution."""
    return np.linalg.norm(points, axis=1) * np.prod(np.sin(np.pi * points), axis=1)


def probe_points(dim: int, level: int) -> np.ndarray:
    rng = np.random.default_rng(PROBE_SEED)
    return rng.integers(1, 1 << level, size=(PROBE_POINTS, dim)) * 2.0**-level


def check(w, run: Run) -> list[str]:
    """Problems with the answer of one run; empty when it is correct."""
    problems = [f"{r.params.get('levels')}: not converged"
                for r in run.reports if not r.converged]
    if isinstance(w, ModelSolve):
        report = run.reports[0]
        n = int(np.prod([(1 << l) - 1 for l in w.levels]))
        perm = np.asarray(grid.sfc_permutation(w.levels))
        if not np.array_equal(np.sort(perm), np.arange(n)):
            return problems + ["SFC order is not a permutation"]
        energy = scaled_energy_norm(w.levels, report.solution, perm)
        if not energy <= TOLERANCE * (1.0 + ENERGY_SLACK):
            problems.append(f"energy norm {energy:.3e} > {TOLERANCE:g}")
        lo, hi = w.iteration_band
        if not lo <= report.iterations <= hi:
            problems.append(f"{report.iterations} iterations outside [{lo}, {hi}]")
        return problems
    if len(run.reports) != w.subproblems:
        problems.append(f"{len(run.reports)} subproblems, expected {w.subproblems}")
    problems += [f"clamp: {c}" for c in run.clamps]
    pts = probe_points(w.dim, w.level)
    err = np.abs(run.evaluator(pts) - exact_solution(pts))
    got = (float(err.max()), float(np.sqrt(np.mean(err**2))))
    for name, g, ref in zip(("max", "rms"), got, w.probe_errors):
        if not abs(g - ref) <= PROBE_ATOL:
            problems.append(f"probe {name} error {g!r} differs from {ref!r}")
    if not np.isfinite(run.sampled_max_error):
        problems.append("sampled max error is not finite")
    return problems
