"""The iteration-count table: small solves picked by a fixed rule, and their outcomes.

Every case is a full model solve (``harness.run_model_solve``: ordering,
assembly, scaling, partition, coarse space, Schwarz setup, Krylov run)
or a whole combination plan (``combine.run_combination``).  Its outcome
is the exact iteration count, whether the solve converged and, for
Richardson, the estimated extremal eigenvalues; or the type of the
exception it raised.  ``tests/test_count_table.py`` runs every case and
compares with the committed table ``count_table.json``.

Regenerate the table after a change that moves counts on purpose, and
name the cases that moved, and why, in CHANGES.md:

    PYTHONPATH=src python tests/count_table.py

Cases are chosen from their inputs only, never from their outcomes:
every model-solve setting below that the partition admits (P <= N and
2 gamma + 1 <= P), in a fixed nested order, of which every ``STRIDE``-th
is kept; then the cases of ``EXTRA_CASES`` and ``PLANS``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from sfcdd import combine, grid, harness, krylov, schwarz
from sfcdd.partition import overlap_fits

TABLE = Path(__file__).with_name("count_table.json")

SEED = 3
TOLERANCE = 1e-8
MAX_ITERS = 2000
# a case whose stopping metric ends (or, one iteration earlier, stops
# short) within this relative distance of its threshold is listed as
# near the threshold: roundoff alone can move its count by one
NEAR = 1e-9

GRIDS = [(3,), (4,), (5,), (6,), (7,), (2, 2), (3, 3), (4, 3), (2, 5),
         (4, 4), (2, 2, 2), (3, 2, 3), (3, 3, 3), (2, 2, 2, 2),
         (3, 2, 2, 2), (2, 2, 2, 2, 2)]
PS = (1, 2, 3, 4, 5, 8, 16)
GAMMAS = (0.0, 0.25, 0.5, 1.0, 1.5)
# coprime with the 36 (variant, weighting, method) settings of one grid,
# P and gamma, so the kept cases cycle through all of them
STRIDE = 13

# n0 = 256 * 16 = 4,096: the coarse problem is solved by CG (d >= 6)
EXTRA_CASES = [((2,) * 8, 256, 0.5, 16, "balanced", "omega", m)
               for m in krylov.METHODS] + [
    ((3, 3, 3, 2, 2, 2), 256, 0.5, 16, "balanced", "d_matrix", "fcg"),
    ((3, 3, 3, 2, 2, 2), 256, 0.25, 16, "additive_two_level", "omega",
     "pcg"),
]
# (d, level, P_hat, method, weighting): per-grid counts of whole plans
PLANS = [(2, 7, 4, "pcg", "omega"), (3, 5, 2, "fcg", "d_matrix"),
         (4, 5, 1, "richardson", "none"), (2, 5, 2, "pcg", "d_matrix")]


def q_of(i_grid: int, i_p: int, n: int, p: int) -> int:
    """Coarse unknowns per subdomain: 1-4 by position, at most N // P."""
    return min(1 + (i_grid + i_p) % 4, n // p)


def model_cases() -> list[tuple]:
    """(levels, P, gamma, q, variant, weighting, method) of every model case."""
    full = []
    for (i, levels), (j, p), gamma in itertools.product(
            enumerate(GRIDS), enumerate(PS), GAMMAS):
        n = grid.num_dofs(levels)
        if p > n or not overlap_fits(p, gamma):
            continue
        q = q_of(i, j, n, p)
        for variant, weighting, method in itertools.product(
                schwarz.VARIANTS, schwarz.WEIGHTINGS, krylov.METHODS):
            full.append((levels, p, gamma, q, variant, weighting, method))
    return full[::STRIDE] + EXTRA_CASES


def model_key(case) -> str:
    levels, p, gamma, q, variant, weighting, method = case
    return (f"{','.join(map(str, levels))} P={p} gamma={gamma:g} q={q} "
            f"{variant} {weighting} {method}")


def plan_key(plan) -> str:
    d, level, p_hat, method, weighting = plan
    return f"plan d={d} L={level} P_hat={p_hat} {method} {weighting}"


def _near(history, tolerance: float) -> bool:
    """Whether the last or the second-to-last metric lies near its threshold."""
    threshold = tolerance * history[0]
    return threshold > 0 and any(
        abs(m - threshold) <= NEAR * threshold for m in history[-2:])


def run_model(case) -> tuple[dict, bool]:
    """(outcome, near threshold) of one model solve."""
    levels, p, gamma, q, variant, weighting, method = case
    try:
        report = harness.run_model_solve(
            levels, p, gamma, q, method=method, variant=variant,
            weighting=weighting, tolerance=TOLERANCE, seed=SEED,
            max_iters=MAX_ITERS)
    except (ValueError, RuntimeError) as exc:
        return {"error": type(exc).__name__}, False
    out = {"iterations": report.iterations, "converged": report.converged}
    if method == "richardson":
        out["lambda"] = [report.lambda_min, report.lambda_max]
    return out, _near(report.energy_history, TOLERANCE)


def run_plan(plan) -> tuple[dict, bool]:
    """(outcome, near threshold) of one combination plan, grid by grid."""
    d, level, p_hat, method, weighting = plan
    try:
        result = combine.run_combination(
            combine.enumerate_plan(d, level, p_hat), method=method,
            weighting=weighting, tolerance=TOLERANCE, seed=SEED,
            max_iters=MAX_ITERS)
    except (ValueError, RuntimeError) as exc:
        return {"error": type(exc).__name__}, False
    reports = [partial.report for partial in result.partials]
    out = {"iterations": [r.iterations for r in reports]}
    if method == "richardson":
        out["lambda"] = [[r.lambda_min, r.lambda_max] for r in reports]
    near = any(_near(r.residual_history, TOLERANCE) for r in reports)
    return out, near


def all_cases():
    """(key, runner, case) of every case, in table order."""
    return ([(model_key(c), run_model, c) for c in model_cases()]
            + [(plan_key(p), run_plan, p) for p in PLANS])


def generate() -> dict:
    outcomes, near = {}, []
    for key, runner, case in all_cases():
        outcomes[key], is_near = runner(case)
        if is_near:
            near.append(key)
    return {"tolerance": TOLERANCE, "seed": SEED, "max_iters": MAX_ITERS,
            "near_threshold": near, "cases": outcomes}


def main() -> int:
    table = generate()
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    cases = table["cases"]
    errors = sum("error" in o for o in cases.values())
    print(f"{len(cases)} cases ({errors} raise), "
          f"{len(table['near_threshold'])} near the threshold -> {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
