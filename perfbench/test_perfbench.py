"""Self-tests of the benchmark on problems small enough for the test suite.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import child
import run
import workloads
from sfcdd import grid

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# d=2 so the Hilbert ordering runs, n > 300 so Richardson runs Lanczos
TINY_MODEL = workloads.ModelSolve((5, 5), 4, 4, "richardson", (1, 500))
TINY_COMBINATION = workloads.Combination(2, 5, 2, 50, 9, (0.0, 0.0))


def tiny_combination():
    """TINY_COMBINATION with the probe errors its own solve produces."""
    run_ = workloads.execute(TINY_COMBINATION, 3)
    pts = workloads.probe_points(2, 5)
    err = np.abs(run_.evaluator(pts) - workloads.exact_solution(pts))
    w = dataclasses.replace(TINY_COMBINATION, probe_errors=(
        float(err.max()), float(np.sqrt(np.mean(err**2)))))
    return w, run_


def test_answer_check_rejects_perturbed_model_solution():
    run_ = workloads.execute(TINY_MODEL, 3)
    assert workloads.check(TINY_MODEL, run_) == []
    report = run_.reports[0]
    rng = np.random.default_rng(0)
    report.solution = report.solution + 1e-6 * rng.standard_normal(
        report.solution.size)
    problems = workloads.check(TINY_MODEL, run_)
    assert any("energy norm" in p for p in problems), problems


def test_energy_norm_matches_assembled_operator():
    levels = (4, 3)
    A = grid.assemble_laplacian(levels)
    A_hat, _, _ = grid.symmetrize_diag(A, np.zeros(A.shape[0]))
    x = np.random.default_rng(1).standard_normal(A.shape[0])
    ours = workloads.scaled_energy_norm(levels, x, grid.sfc_permutation(levels))
    assert abs(ours - np.sqrt(x @ (A_hat @ x))) <= 1e-12 * ours


def test_answer_check_rejects_perturbed_combination():
    w, run_ = tiny_combination()
    assert workloads.check(w, run_) == []
    exact_run = run_.evaluator
    run_.evaluator = lambda pts: exact_run(pts) + 1e-6
    assert any("probe" in p for p in workloads.check(w, run_))
    run_.evaluator = exact_run
    run_.clamps = ["levels=(1, 4): P clamped 2 -> 1"]
    assert any("clamp" in p for p in workloads.check(w, run_))


def test_printed_metric_names_match_benchmark_json():
    untraced = [child.repetition(TINY_MODEL, 3, False)]
    traced = [child.repetition(TINY_MODEL, 3, True)]
    assert not untraced[0]["failed"] and not traced[0]["failed"]
    assert (sorted(run.end_to_end_values(untraced))
            == sorted(m["name"] for m in SPEC["end_to_end"]))
    assert (sorted(run.per_layer_values(untraced, traced))
            == sorted(m["name"] for m in SPEC["per_layer"]))


def test_traced_and_untraced_runs_agree():
    w, _ = tiny_combination()
    for workload in (TINY_MODEL, w):
        plain = child.repetition(workload, 5, False)
        traced = child.repetition(workload, 5, True)
        assert not plain["failed"] and not traced["failed"]
        assert traced["iterations"] == plain["iterations"]
        assert traced["digest"] == plain["digest"]
        assert traced["layers"]["krylov.iterations"] == plain["iterations"]
    # every wrapper is gone again
    assert hasattr(grid.sfc_permutation, "cache_info")
    assert "__matmul__" not in sp.csr_matrix.__dict__


def test_layer_counts_of_a_model_solve():
    rep = child.repetition(TINY_MODEL, 3, True)
    layers = rep["layers"]
    assert layers["combine.subproblems"] == 0
    assert layers["coarse.n0"] == TINY_MODEL.p * TINY_MODEL.q
    assert layers["linalg.factorize_calls"] == TINY_MODEL.p + 1
    assert layers["krylov.eig_applies"] > 0
    # balanced: two coarse corrections per apply, one local solve per subdomain
    assert layers["coarse.correction_calls"] == 2 * layers["schwarz.apply_calls"]
    assert (layers["linalg.solve_calls"]
            == (TINY_MODEL.p + 2) * layers["schwarz.apply_calls"])


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "d1-rich",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
