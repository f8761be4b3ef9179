"""Experiment drivers, CSV determinism, config handling, CLI exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sfcdd import harness


def small_spec(**kw):
    base = dict(kind="weak", dim=1, s=4, gamma=0.5, q_rule="fixed", q_value=2,
                method="pcg", variant="balanced", weighting="omega",
                p_values=(2, 4, 8), seed=42)
    base.update(kw)
    return harness.ExperimentSpec(**base)


class TestWeakScaling:
    def test_rows_carry_full_parameter_tuple(self):
        rows = harness.run_weak_scaling(small_spec())
        for row in rows:
            for key in ("kind", "method", "variant", "weighting", "d", "P",
                        "gamma", "q", "seed"):
                assert row[key] != ""
        assert [r["P"] for r in rows] == [2, 4, 8]
        assert all(r["converged"] == 1 for r in rows)

    def test_non_dyadic_p_skipped(self):
        rows = harness.run_weak_scaling(small_spec(p_values=(3,)))
        assert rows[0]["skipped"] == 1 and "level" in rows[0]["reason"]

    def test_infeasible_dim6_small_p_skipped(self):
        rows = harness.run_weak_scaling(small_spec(dim=6, s=8, p_values=(2,)))
        assert rows[0]["skipped"] == 1 and "exceeds" in rows[0]["reason"]

    def test_weak_levels(self):
        assert harness.weak_levels(1, 8, 16) == (12,)
        assert harness.weak_levels(2, 8, 4) == (5, 5)
        assert harness.weak_levels(6, 8, 2) == (1,) * 6
        assert harness.weak_levels(1, 8, 3) is None

    def test_csv_bytes_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            rows = harness.run_weak_scaling(small_spec())
            p = tmp_path / f"weak{i}.csv"
            harness.write_rows_csv(p, rows)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestGammaSweep:
    def test_infeasible_gamma_skipped(self):
        spec = small_spec(kind="gamma_sweep", gamma_values=(0.5, 5.0),
                          p_values=(4,))
        rows = harness.run_gamma_sweep(spec)
        assert rows[0]["skipped"] == 0
        assert rows[1]["skipped"] == 1 and "gamma" in rows[1]["reason"]

    def test_gamma_column_populated(self):
        spec = small_spec(kind="gamma_sweep", gamma_values=(0.25, 0.5),
                          p_values=(4, 8))
        rows = harness.run_gamma_sweep(spec)
        assert [r["gamma"] for r in rows] == [0.25, 0.25, 0.5, 0.5]


class TestGammaSweepBehaviour:
    def test_smallest_overlap_is_worst_d1(self):
        # Richardson iteration counts for gamma = 1/5 exceed every larger
        # overlap at each P
        spec = small_spec(kind="gamma_sweep", s=8, q_rule="fixed", q_value=16,
                          method="richardson", gamma_values=(0.2, 0.5, 1.0),
                          p_values=(16, 32))
        rows = harness.run_gamma_sweep(spec)
        by_gamma = {}
        for r in rows:
            by_gamma.setdefault(r["gamma"], {})[r["P"]] = r["iterations"]
        for p in (16, 32):
            assert by_gamma[0.2][p] > by_gamma[0.5][p]
            assert by_gamma[0.2][p] > by_gamma[1.0][p]

    def test_d3_band_for_moderate_overlaps(self):
        # omega-weighted balanced Richardson sits in a moderate band for
        # all gamma >= 1/4 (about 50 at the reference scales)
        for gamma in (0.25, 0.5, 1.0):
            rep = harness.run_model_solve(
                (5, 5, 5), 128, gamma, 16, method="richardson",
                variant="balanced", weighting="omega", seed=42)
            assert 25 <= rep.iterations <= 65, (gamma, rep.iterations)


class TestStrongScaling:
    def test_fixed_n_sweep(self):
        spec = small_spec(kind="strong", level=8, q_rule="auto",
                          p_values=(2, 4, 8, 16))
        rows = harness.run_strong_scaling(spec)
        assert all(r["N"] == 255 for r in rows)
        assert all(r["converged"] == 1 for r in rows)

    def test_p_equals_n_degenerate(self):
        spec = small_spec(kind="strong", level=3, q_rule="fixed", q_value=1,
                          p_values=(7,), gamma=0.5)
        rows = harness.run_strong_scaling(spec)
        assert rows[0]["skipped"] == 0 and rows[0]["converged"] == 1

    def test_rejects_dim_not_one(self):
        with pytest.raises(ValueError):
            harness.run_strong_scaling(small_spec(kind="strong", dim=2))


class TestDimSweep:
    def test_rows_for_each_dimension(self):
        spec = small_spec(kind="dim_sweep", dims=(1, 2), p_values=(4, 16))
        rows = harness.run_dim_sweep(spec)
        assert [(r["d"], r["P"]) for r in rows] == [
            (1, 4), (1, 16), (2, 4), (2, 16)]
        assert all(r["converged"] == 1 for r in rows if not r["skipped"])


class TestRunSingle:
    def test_report_and_row(self):
        spec = small_spec(kind="single", levels=(3, 3), p=4, gamma=0.5)
        report, row = harness.run_single(spec)
        assert report.converged and row["iterations"] == report.iterations
        assert row["levels"] == "3x3"

    def test_same_seed_identical_histories(self):
        spec = small_spec(kind="single", levels=(5,), p=4)
        a, _ = harness.run_single(spec)
        b, _ = harness.run_single(spec)
        assert a.energy_history == b.energy_history

    def test_eigenvalues_reported_for_richardson(self):
        spec = small_spec(kind="single", levels=(5,), p=4,
                          method="richardson")
        report, row = harness.run_single(spec)
        assert report.lambda_min is not None
        assert row["lambda_min"] != ""


class TestQRule:
    def test_fixed(self):
        assert harness.resolve_q(small_spec(q_value=4), 100, 5) == 4

    def test_fixed_clamped_to_subdomain_size(self):
        assert harness.resolve_q(small_spec(q_value=50), 100, 5) == 20

    def test_srel4(self):
        assert harness.resolve_q(small_spec(q_rule="srel4", s=8), 10000, 4) == 16

    def test_auto(self):
        assert harness.resolve_q(small_spec(q_rule="auto"), 2**12, 2**4) == 16


class TestPlateau:
    def test_spread_over_plateau_region(self):
        rows = [
            {"skipped": 0, "P": 16, "iterations": 50},
            {"skipped": 0, "P": 32, "iterations": 30},
            {"skipped": 0, "P": 64, "iterations": 31},
            {"skipped": 1, "P": 128, "iterations": ""},
            {"skipped": 0, "P": 256, "iterations": 33},
        ]
        assert harness.plateau_spread(rows) == (30, 33)

    def test_empty_region_raises(self):
        with pytest.raises(ValueError):
            harness.plateau_spread([{"skipped": 0, "P": 2, "iterations": 5}])


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 4\nmethod = pcg  # comment\np_values = 2,4\n")
        loaded = harness.load_config_file(cfg)
        spec = harness.build_spec("weak", loaded, {"seed": 7})
        assert spec.s == 4 and spec.method == "pcg"
        assert spec.p_values == (2, 4) and spec.seed == 7

    def test_bad_line_raises(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a config line\n")
        with pytest.raises(ValueError):
            harness.load_config_file(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            harness.build_spec("weak", {"bogus": 1}, {})


class TestCli:
    def test_solve_writes_outputs(self, tmp_path, capsys):
        code = harness.run_command([
            "solve", "--dim", "1", "--level", "5", "--p", "4",
            "--q-rule", "fixed", "--q", "2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# P=4" in out  # config echo in the header lines
        assert (tmp_path / "single_iterations.csv").exists()
        summary = json.loads((tmp_path / "single_summary.json").read_text())
        assert summary["report"]["converged"] is True

    def test_solve_csv_bytes_reproducible(self, tmp_path):
        args = ["solve", "--dim", "1", "--level", "5", "--p", "4",
                "--q-rule", "fixed", "--q", "2", "--seed", "9"]
        harness.run_command(args + ["--out", str(tmp_path / "a")])
        harness.run_command(args + ["--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "single_iterations.csv").read_bytes()
                == (tmp_path / "b" / "single_iterations.csv").read_bytes())
        assert ((tmp_path / "a" / "single.csv").read_bytes()
                == (tmp_path / "b" / "single.csv").read_bytes())

    def test_weak_scale_command(self, tmp_path):
        code = harness.run_command([
            "weak-scale", "--dim", "1", "--s", "4", "--p-values", "2,4",
            "--q-rule", "fixed", "--q", "2", "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "weak.csv").read_bytes()
        assert body.splitlines()[0].startswith(b"kind,method")
        assert body.count(b"\r\n") >= 3

    def test_sfc_check_command(self, tmp_path, capsys):
        code = harness.run_command([
            "sfc-check", "--dim", "2", "--level", "3", "--samples", "500",
            "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sfc_check.csv").read_text().splitlines()
        assert lines[0] == "d,n,bijective,adjacent,holder_est,holder_bound"
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.split(",")[2] == "1" and line.split(",")[3] == "1"

    def test_sfc_check_beyond_64_bit_keys(self):
        rows = harness.run_sfc_check(harness.ExperimentSpec(
            kind="sfc_check", dim=22, level=3, sample_count=50))
        assert [r["n"] for r in rows] == [1, 2, 3]  # keys of 22, 44, 66 bits
        assert all(r["bijective"] == 1 and r["adjacent"] == 1 for r in rows)

    def test_module_entry_point_runs_without_runpy_warning(self, tmp_path):
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "sfcdd.harness", "sfc-check", "--dim", "2", "--level", "2",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_combine_command(self, tmp_path):
        code = harness.run_command([
            "combine", "--dim", "2", "--level", "4", "--phat", "1",
            "--samples", "200", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "combine_summary.json").read_text())
        assert summary["combination"]["subproblems"] == 7
        assert summary["combination"]["max_error"] < 0.05

    def test_failure_prints_machine_readable_error(self, tmp_path, capsys):
        code = harness.main([
            "solve", "--dim", "1", "--level", "3", "--p", "100",
            "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert "error" in payload

    def test_negative_max_iters_fails_fast(self, tmp_path, capsys):
        code = harness.main([
            "solve", "--dim", "1", "--level", "3", "--p", "2",
            "--max-iters", "-3", "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "max_iters" in payload["error"]

    def test_combine_solver_alias(self, tmp_path):
        code = harness.run_command([
            "combine", "--dim", "2", "--level", "4", "--solver", "pcg",
            "--samples", "100", "--out", str(tmp_path)])
        assert code == 0

    def test_config_file_via_flag(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("level = 5\np = 4\nq_rule = fixed\nq_value = 2\n")
        code = harness.run_command([
            "solve", "--dim", "1", "--config", str(cfg),
            "--out", str(tmp_path)])
        assert code == 0
