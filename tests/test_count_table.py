"""Every case of the iteration-count table keeps its committed outcome.

The table (``count_table.json``, written by ``count_table.py``) holds
about 1,200 small model solves and four combination plans.  Counts and
exception types must match exactly; Richardson's extremal eigenvalue
estimates to 1e-10 relative.  A change that moves a count on purpose
regenerates the table and names the moved cases in CHANGES.md.
"""

import json

import numpy as np
import pytest

import count_table
from sfcdd import harness

TABLE = json.loads(count_table.TABLE.read_text(encoding="utf-8"))
LAMBDA_RTOL = 1e-10


def differs(got: dict, want: dict) -> bool:
    if got.keys() != want.keys():
        return True
    exact = {k: v for k, v in got.items() if k != "lambda"}
    if exact != {k: v for k, v in want.items() if k != "lambda"}:
        return True
    return "lambda" in got and not np.allclose(
        got["lambda"], want["lambda"], rtol=LAMBDA_RTOL, atol=0.0)


def test_table_was_generated_by_todays_rule():
    assert (TABLE["tolerance"], TABLE["seed"], TABLE["max_iters"]) == (
        count_table.TOLERANCE, count_table.SEED, count_table.MAX_ITERS)
    keys = [key for key, _, _ in count_table.all_cases()]
    assert len(set(keys)) == len(keys)
    assert keys == list(TABLE["cases"])
    assert set(TABLE["near_threshold"]) <= set(keys)


def test_table_covers_the_paths_that_change_arithmetic():
    cases = TABLE["cases"]
    solved = {k for k, o in cases.items() if "iterations" in o}
    # gamma = 1/4 makes d_matrix weighting non-symmetric, so FCG's own path
    assert any("gamma=0.25" in k and k.endswith("d_matrix fcg")
               for k in solved)
    assert sum(k.startswith("plan") for k in solved) == len(
        count_table.PLANS)
    assert len(cases) >= 1000


@pytest.mark.parametrize("case", count_table.EXTRA_CASES)
def test_extra_cases_take_the_coarse_cg_path(case):
    levels, p, gamma, q, variant, weighting, method = case
    report = harness.run_model_solve(levels, p, gamma, q, method=method,
                                     variant=variant, weighting=weighting,
                                     max_iters=0)
    assert report.params["coarse_cg_iterations"] > 0


def test_every_case_keeps_its_outcome():
    moved = {}
    for key, runner, case in count_table.all_cases():
        got, _ = runner(case)
        want = TABLE["cases"][key]
        if differs(got, want):
            near = key in TABLE["near_threshold"]
            moved[key] = (got, want, "near threshold" if near else "")
    assert not moved, (f"{len(moved)} cases moved (now, table, note): "
                       f"{moved}")
