"""Experiment drivers, CSV determinism, config handling, CLI exit codes."""

import dataclasses
import json
import math
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

    def test_nonpositive_p_rejected_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a row was solved")
        monkeypatch.setattr(harness, "run_model_solve", no_solve)
        with pytest.raises(ValueError, match="P must be positive"):
            harness.run_weak_scaling(small_spec(p_values=(2, 4, 0)))

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

    @pytest.mark.parametrize("p", [0, -2])
    def test_rejects_nonpositive_p(self, p):
        with pytest.raises(ValueError, match="P must be positive"):
            harness.resolve_q(small_spec(), 100, p)


class TestExperimentSpec:
    @pytest.mark.parametrize("field,value,message", [
        ("p", 0, "P must be positive"),
        ("p_values", (4, -2), "P must be positive"),
        ("q_value", 0, "q must be positive"),
        ("level", 0, "level must be positive"),
        ("dim", 0, "dimension must be positive"),
        ("dims", (1, -1), "dimension must be positive"),
        ("gamma", -0.5, "gamma must be finite and nonnegative"),
        ("gamma", math.nan, "gamma must be finite and nonnegative"),
        ("gamma", math.inf, "gamma must be finite and nonnegative"),
        ("gamma_values", (0.5, -1), "gamma must be finite and nonnegative"),
        ("gamma_values", (math.nan,), "gamma must be finite and nonnegative"),
        ("sample_count", 0, "samples must be positive"),
        ("s", 0, "S must be positive"),
        ("s", -3, "S must be positive"),
        ("levels", (3, 0), "level must be positive"),
        ("p_values", (4, 2.5), "P must be an integer"),
        ("p_values", (math.nan,), "P must be an integer"),
    ])
    def test_bad_value_rejected_on_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            harness.ExperimentSpec(**{field: value})

    def test_every_field_has_exactly_one_flag(self):
        # config-file keys are field names mapped to flags, so a field
        # without a flag, or a flag without a field, breaks config files
        dests = {name: kw.get("dest", name)
                 for name, kw in harness._FLAGS.items()}
        fields = {f.name for f in dataclasses.fields(harness.ExperimentSpec)}
        assert set(dests.values()) - {"config"} <= fields
        own = sorted(d for name, d in dests.items()
                     if name not in ("config", "solver"))  # --solver: alias
        assert own == sorted(fields - {"kind"})


def _error(capsys) -> str:
    return json.loads(capsys.readouterr().err.strip())["error"]


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        # config values go through the command's parser, exactly like the
        # same flags (gamma = 1 is the float 1.0), and explicit flags win
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# weak scaling\ndim = 1\ns = 4\ngamma = 1  # comment\n"
                       "\np_values = 4, 8\nq_rule = fixed\nq_value = 2\n"
                       "seed = 3\n")
        assert harness.main(["weak-scale", "--config", str(cfg), "--seed", "7",
                             "--out", str(tmp_path / "file")]) == 0
        assert harness.main([
            "weak-scale", "--dim", "1", "--s", "4", "--gamma", "1",
            "--p-values", "4,8", "--q-rule", "fixed", "--q", "2",
            "--seed", "7", "--out", str(tmp_path / "flags")]) == 0
        body = (tmp_path / "file" / "weak.csv").read_bytes()
        assert body == (tmp_path / "flags" / "weak.csv").read_bytes()
        spec = json.loads(
            (tmp_path / "file" / "weak_summary.json").read_text())["spec"]
        assert spec["s"] == 4 and spec["gamma"] == 1.0
        assert spec["p_values"] == [4, 8] and spec["seed"] == 7

    def test_bad_line_raises(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("s = 4\nnot a config line\n")
        out = tmp_path / "out"
        assert harness.main(["weak-scale", "--config", str(cfg),
                             "--out", str(out)]) == 1
        assert "bad config line: 'not a config line'" in _error(capsys)
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # 'kind' is set by the command and 'config' is not a field
        for key in ("bogus", "kind", "config"):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = strong\n")
            out = tmp_path / key
            assert harness.main(["weak-scale", "--dim", "1", "--s", "3",
                                 "--p-values", "2", "--config", str(cfg),
                                 "--out", str(out)]) == 1
            assert f"unknown parameter '{key}'" in _error(capsys)
            assert not out.exists()

    @pytest.mark.parametrize("command,line", [
        ("combine", "q_value = 7"),
        ("combine", "q_rule = fixed"),
        ("gamma-sweep", "gamma = 0.5"),
        ("solve", "method = foo"),
        ("solve", "p = four"),
    ])
    def test_value_the_command_cannot_take_is_a_usage_error(
            self, tmp_path, command, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            harness.main([command, "--config", str(cfg),
                          "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_empty_list_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p_values =\n")
        with pytest.raises(SystemExit) as exc:
            harness.main(["weak-scale", "--dim", "1", "--s", "3", "--config",
                          str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "expected numbers separated by commas" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_q_value_without_fixed_rule_is_a_usage_error(self, tmp_path,
                                                         capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("q_value = 7\n")
        with pytest.raises(SystemExit) as exc:
            harness.main(["solve", "--dim", "1", "--level", "5", "--p", "4",
                          "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--q-rule fixed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_gamma_fails_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("gamma = -1\n")
        base = ["solve", "--dim", "1", "--level", "4", "--p", "2",
                "--out", str(tmp_path)]
        assert harness.main(base + ["--config", str(cfg)]) == 1
        from_file = _error(capsys)
        assert harness.main(base + ["--gamma", "-1"]) == 1
        assert from_file == _error(capsys)
        assert "gamma must be finite and nonnegative, got -1.0" in from_file


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

    def test_nonpositive_fixed_q_fails_fast(self, tmp_path, capsys):
        code = harness.main([
            "solve", "--dim", "1", "--level", "5", "--p", "4",
            "--q-rule", "fixed", "--q", "-5", "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "q must be positive" in payload["error"]

    @pytest.mark.parametrize("command,flag,value", [
        ("sfc-check", "--method", "pcg"),
        ("sfc-check", "--variant", "balanced"),
        ("sfc-check", "--weighting", "omega"),
        ("sfc-check", "--gamma", "0.5"),
        ("sfc-check", "--q-rule", "fixed"),
        ("sfc-check", "--q", "7"),
        ("sfc-check", "--tolerance", "1e-6"),
        ("sfc-check", "--max-iters", "1"),
        ("combine", "--q-rule", "fixed"),
        ("combine", "--q", "7"),
        ("combine", "--jobs", "2"),
        ("gamma-sweep", "--gamma", "0.5"),
        ("dim-sweep", "--dim", "2"),
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(
            self, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            harness.main([command, flag, value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_combine_max_iters_reaches_the_solves(self, tmp_path, capsys):
        code = harness.main([
            "combine", "--dim", "2", "--level", "4", "--max-iters", "0",
            "--samples", "10", "--out", str(tmp_path)])
        assert code == 1
        error = json.loads(capsys.readouterr().err.strip())["error"]
        assert error.startswith("CombinationError: failed subproblems: ")
        assert "(1, 4)" in error and "(4, 1)" in error
        assert not (tmp_path / "combine.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["weak-scale", "--dim", "1", "--s", "3"],
        ["strong-scale", "--dim", "1", "--level", "5"],
        ["gamma-sweep", "--dim", "1", "--s", "3", "--gammas", "0,0.5"],
        ["dim-sweep", "--dims", "1,2", "--s", "3"],
    ])
    def test_sweep_nonpositive_p_fails_fast(self, tmp_path, capsys, argv):
        code = harness.main(argv + ["--p-values", "4,0", "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "P must be positive" in payload["error"]
        assert not list(tmp_path.glob("*.csv"))

    def test_nonpositive_p_fails_fast(self, tmp_path, capsys):
        code = harness.main([
            "solve", "--dim", "2", "--level", "3", "--p", "0",
            "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "P must be positive" in payload["error"]

    @pytest.mark.parametrize("argv,message", [
        (["weak-scale", "--dim", "0", "--s", "3", "--p-values", "2,4"],
         "dimension must be positive, got 0"),
        (["dim-sweep", "--dims=-1", "--s", "3", "--p-values", "4"],
         "dimension must be positive, got -1"),
        (["solve", "--dim", "1", "--level", "4", "--p", "2", "--gamma", "nan"],
         "gamma must be finite and nonnegative, got nan"),
        (["weak-scale", "--dim", "1", "--s", "3", "--p-values", "4",
          "--gamma", "inf"], "gamma must be finite and nonnegative, got inf"),
        (["gamma-sweep", "--dim", "1", "--s", "3", "--p-values", "4",
          "--gammas", "0.5,-1"], "gamma must be finite and nonnegative, got -1"),
        (["combine", "--dim", "2", "--level", "4", "--samples", "0"],
         "samples must be positive, got 0"),
        (["gamma-sweep", "--dim", "1", "--s", "3", "--p-values", "4",
          "--gammas", "nan"], "gamma must be finite and nonnegative, got nan"),
        (["gamma-sweep", "--dim", "1", "--s", "3", "--p-values", "4",
          "--gammas", "0.5,inf"],
         "gamma must be finite and nonnegative, got inf"),
        (["weak-scale", "--dim", "1", "--s", "3", "--p-values", "4,nan"],
         "P must be an integer, got nan"),
        (["weak-scale", "--dim", "2", "--s", "0", "--p-values", "2,4"],
         "S must be positive, got 0"),
        (["weak-scale", "--dim", "1", "--s=-3", "--p-values", "2,4"],
         "S must be positive, got -3"),
    ])
    def test_bad_value_fails_before_any_solve(self, tmp_path, capsys,
                                              monkeypatch, argv, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("a subproblem was solved")
        monkeypatch.setattr(harness, "run_model_solve", no_solve)
        monkeypatch.setattr(harness.combine, "run_combination", no_solve)
        assert harness.main(argv + ["--out", str(tmp_path)]) == 1
        assert message in _error(capsys)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["weak-scale", "--dim", "1", "--s", "3", "--p-values="],
        ["dim-sweep", "--dims=", "--s", "3", "--p-values", "4"],
        ["solve", "--levels=", "--p", "2"],
        ["gamma-sweep", "--dim", "1", "--s", "3", "--p-values", "4",
         "--gammas", "0.5,abc"],
        ["solve", "--levels", "4;4", "--p", "2"],
    ])
    def test_bad_list_is_a_usage_error_naming_the_format(
            self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            harness.main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected numbers separated by commas, such as 4,8,16" in err
        assert "_parse_values" not in err
        assert not (tmp_path / "out").exists()

    def test_list_tokens_keep_their_type(self):
        values = harness._parse_values("1, 0.5 2e-1,3")
        assert values == (1, 0.5, 0.2, 3)
        assert [type(v) for v in values] == [int, float, float, int]

    @pytest.mark.parametrize("argv", [
        ["solve", "--dim", "1", "--level", "9", "--p", "4", "--q", "7"],
        ["strong-scale", "--level", "10", "--p-values", "4", "--q", "3"],
        ["weak-scale", "--dim", "1", "--s", "6", "--p-values", "4",
         "--q", "3"],
        ["solve", "--dim", "1", "--level", "5", "--p", "4",
         "--q-rule", "auto", "--q", "2"],
    ])
    def test_q_without_fixed_rule_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("a subproblem was solved")
        monkeypatch.setattr(harness, "run_model_solve", no_solve)
        with pytest.raises(SystemExit) as exc:
            harness.main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--q-rule fixed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sfc_check_runs_every_requested_sample(self, monkeypatch):
        seen = []

        def record(cfg, samples, seed=0):
            seen.append(samples)
            return 0.0
        monkeypatch.setattr(harness.sfc, "holder_estimate", record)
        harness.run_sfc_check(harness.ExperimentSpec(
            kind="sfc_check", dim=2, level=2, sample_count=30000))
        assert seen == [30000, 30000]

    def test_out_that_looks_like_a_number(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert harness.main(
            ["sfc-check", "--dim", "2", "--level", "2", "--out", "2024"]) == 0
        assert (tmp_path / "2024" / "sfc_check.csv").exists()

    def test_solve_levels_row_has_their_dimension(self, tmp_path, capsys):
        code = harness.run_command([
            "solve", "--levels", "4,4", "--p", "4", "--q-rule", "fixed",
            "--q", "2", "--out", str(tmp_path)])
        assert code == 0
        assert "# d=2\n" in capsys.readouterr().out
        header, row = (tmp_path / "single.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["d"] == "2"

    def test_sfc_check_level_zero_fails_fast(self, tmp_path, capsys):
        code = harness.main([
            "sfc-check", "--dim", "2", "--level", "0", "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "level must be positive" in payload["error"]
        assert not (tmp_path / "sfc_check.csv").exists()

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
