"""Experiment harness: scaling studies, gamma sweeps, combination runs, CLI.

The model study solves the Laplace system A x = 0 (exact solution zero)
after symmetric diagonal scaling, starting from a random iterate of unit
energy norm, and iterates until the energy error drops by 1e-8.  Every
CSV row carries the full parameter tuple and CSV bodies are byte-stable
for a fixed seed; wall-clock times, factor entry counts, the coarse CG
probe's iterations and the peak resident set go to the JSON summary only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import resource
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import combine, grid, krylov, schwarz, sfc
from .coarse import build_coarse
from .partition import build_partition, overlap_fits, read_gamma

DEFAULT_P_SWEEP = (2, 4, 8, 16, 32, 64, 128, 256)
DEFAULT_GAMMAS = (0.2, 0.25, 0.5, 1.0, 1.5, 2.0, 5.0)

CSV_COLUMNS = [
    "kind", "method", "variant", "weighting", "d", "levels", "S", "L", "P",
    "gamma", "q", "seed", "N", "iterations", "lambda_min", "lambda_max",
    "converged", "skipped", "reason",
]
ITERATION_COLUMNS = ["k", "energy_error", "residual"]
SFC_CHECK_COLUMNS = ["d", "n", "bijective", "adjacent", "holder_est",
                     "holder_bound"]
# a solve's stored factor entries and coarse CG probe iterations (see
# schwarz.factor_nnz); JSON only
FACTOR_KEYS = ("local_factor_nnz", "coarse_factor_nnz", "coarse_cg_iterations")
# what the JSON summary reports of each CSV row
_TIMING_KEYS = ("P", "levels", "wall_time", *FACTOR_KEYS)
# how q, the coarse dofs per subdomain, is chosen; see resolve_q
Q_RULES = ("fixed", "srel4", "auto")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str = "single"  # the kind of one of the _COMMANDS
    dim: int = 1
    dims: tuple[int, ...] = (1, 2, 3)
    s: int = 8
    level: int = 6
    levels: tuple[int, ...] | None = None
    p: int = 4
    p_values: tuple[int, ...] = DEFAULT_P_SWEEP
    gamma: float = 0.5
    gamma_values: tuple[float, ...] = DEFAULT_GAMMAS
    q_rule: str = "srel4"  # one of Q_RULES
    q_value: int = 16
    p_hat: int = 1
    method: str = "pcg"
    variant: str = "balanced"
    weighting: str = "omega"
    tolerance: float = 1e-8
    max_iters: int = 20000
    seed: int = 42
    out: str = "results"
    sample_count: int = 2000

    def __post_init__(self) -> None:
        positive = {"P": (self.p, *self.p_values), "q": (self.q_value,),
                    "level": (self.level, *(self.levels or ())),
                    "dimension": (self.dim, *self.dims), "S": (self.s,),
                    "samples": (self.sample_count,)}
        for name, values in positive.items():
            for v in values:
                if not isinstance(v, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {v}")
                if v < 1:
                    raise ValueError(f"{name} must be positive, got {v}")
        for g in (self.gamma, *self.gamma_values):
            read_gamma(g)
        if self.q_rule not in Q_RULES:
            raise ValueError(f"unknown q rule {self.q_rule!r}")
        # the configs' own checks, made before the first solve of a sweep
        krylov.SolverConfig(method=self.method, tolerance=self.tolerance,
                            max_iters=self.max_iters)
        schwarz.SchwarzConfig(variant=self.variant, weighting=self.weighting)


def resolve_q(spec: ExperimentSpec, n: int, p: int) -> int:
    if p < 1:
        raise ValueError(f"P must be positive, got {p}")
    if spec.q_rule == "fixed":
        q = spec.q_value
    elif spec.q_rule == "srel4":
        q = 2 ** max(0, spec.s - 4)
    else:  # "auto"; ExperimentSpec admits only Q_RULES
        q = combine.default_q_rule(n, p)
    return max(1, min(q, n // p))


def run_model_solve(levels, p: int, gamma: float, q: int, *, method="pcg",
                    variant="balanced", weighting="omega", tolerance=1e-8,
                    seed=42, max_iters=20000) -> krylov.SolveReport:
    """One solve of the zero-solution Laplace study at full history.

    Iterates on the diagonally scaled system; since x = T x_hat, the
    energy norm of the scaled error equals the unscaled one exactly, so
    the recorded histories are the untransformed energy errors.
    """
    levels = grid.as_levels(levels)
    # every setting but q is checked before the operator is built
    solver_cfg = krylov.SolverConfig(
        method=method, tolerance=tolerance,
        tolerance_kind="energy_error_reduction", max_iters=max_iters,
        seed=seed)
    cfg = schwarz.SchwarzConfig(variant=variant, weighting=weighting)
    n = grid.num_dofs(levels)
    part = build_partition(n, p, gamma)
    # A is not kept: alive while the coarse factor is built, it keeps the
    # heap from reusing SuperLU's freed workspace (README.md, Memory)
    A_hat, b_hat, _ = grid.symmetrize_diag(grid.assemble_laplacian(levels),
                                           np.zeros(n))
    cs = build_coarse(part, A_hat, q) if variant != "one_level" else None
    op = schwarz.setup(A_hat, part, cs, cfg)
    x0 = krylov.initial_iterate(n, seed, A_hat)
    report = krylov.run(A_hat, b_hat, op, solver_cfg, x0, exact=np.zeros(n))
    report.params.update({
        "d": len(levels), "levels": levels, "N": n, "P": p, "gamma": gamma,
        "q": q, "variant": variant, "weighting": weighting, "method": method,
        "seed": seed, **schwarz.factor_nnz(op, cs),
    })
    return report


def _row(spec: ExperimentSpec, **overrides) -> dict:
    return {**dict.fromkeys(CSV_COLUMNS, ""), "kind": spec.kind,
            "method": spec.method, "variant": spec.variant,
            "weighting": spec.weighting, "d": spec.dim, "seed": spec.seed,
            "skipped": 0, "wall_time": None, **overrides}


def _fill_report(row: dict, report: krylov.SolveReport) -> dict:
    row["iterations"] = report.iterations
    row["converged"] = int(report.converged)
    if report.lambda_min is not None:
        row["lambda_min"] = f"{report.lambda_min:.12g}"
        row["lambda_max"] = f"{report.lambda_max:.12g}"
    row["wall_time"] = report.wall_time
    row.update({key: report.params[key] for key in FACTOR_KEYS})
    return row


def weak_levels(d: int, s: int, p: int) -> tuple[int, ...] | None:
    """Isotropic levels of the weak-scaling study; None when infeasible."""
    k = math.log2(p)
    if k != int(k):
        return None
    if d == 1:
        return (s + int(k),)
    lj = (s + int(k)) // d
    if lj < 1:
        return None
    return (lj,) * d


def _scaling_row(spec: ExperimentSpec, levels, p: int, gamma: float,
                 *, s_col="", l_col="") -> dict:
    row = _row(spec, S=s_col, L=l_col, P=p, gamma=gamma)
    if levels is None:
        row.update(skipped=1, reason="no valid level vector for this P")
        return row
    n = grid.num_dofs(levels)
    row.update(levels="x".join(str(l) for l in levels), N=n)
    if p > n:
        row.update(skipped=1, reason=f"P={p} exceeds N={n}")
        return row
    if not overlap_fits(p, gamma):
        row.update(skipped=1, reason=f"2*gamma+1 > P for gamma={gamma}")
        return row
    q = resolve_q(spec, n, p)
    row["q"] = q
    report = run_model_solve(
        levels, p, gamma, q, method=spec.method, variant=spec.variant,
        weighting=spec.weighting, tolerance=spec.tolerance, seed=spec.seed,
        max_iters=spec.max_iters)
    return _fill_report(row, report)


def _weak_rows(spec: ExperimentSpec, dims, gammas) -> list[dict]:
    """Weak-type rows over (d, gamma, P), 2**S unknowns per subdomain."""
    rows = []
    for d in dims:
        sub = replace(spec, dim=d)
        for gamma in gammas:
            for p in spec.p_values:
                rows.append(_scaling_row(sub, weak_levels(d, spec.s, p), p,
                                         gamma, s_col=spec.s))
    return rows


def run_weak_scaling(spec: ExperimentSpec) -> list[dict]:
    """Fixed subproblem size 2**S per subdomain, growing P."""
    return _weak_rows(spec, (spec.dim,), (spec.gamma,))


def run_strong_scaling(spec: ExperimentSpec) -> list[dict]:
    """Fixed total size N = 2**L - 1 (d=1), growing P."""
    if spec.dim != 1:
        raise ValueError("strong scaling study is defined for d=1")
    rows = []
    for p in spec.p_values:
        rows.append(_scaling_row(
            spec, (spec.level,), p, spec.gamma, l_col=spec.level))
    return rows


def run_gamma_sweep(spec: ExperimentSpec) -> list[dict]:
    return _weak_rows(spec, (spec.dim,), spec.gamma_values)


def run_dim_sweep(spec: ExperimentSpec) -> list[dict]:
    return _weak_rows(spec, spec.dims, (spec.gamma,))


def run_single(spec: ExperimentSpec) -> tuple[krylov.SolveReport, dict]:
    levels = spec.levels if spec.levels else (spec.level,) * spec.dim
    n = grid.num_dofs(levels)
    q = resolve_q(spec, n, spec.p)
    report = run_model_solve(
        levels, spec.p, spec.gamma, q, method=spec.method,
        variant=spec.variant, weighting=spec.weighting,
        tolerance=spec.tolerance, seed=spec.seed, max_iters=spec.max_iters,
    )
    row = _row(spec, d=len(levels), levels="x".join(str(l) for l in levels),
               P=spec.p, gamma=spec.gamma, q=q, N=n)
    return report, _fill_report(row, report)


def run_combine_experiment(spec: ExperimentSpec) -> tuple[list[dict], dict]:
    plan = combine.enumerate_plan(spec.dim, spec.level, spec.p_hat)
    result = combine.run_combination(
        plan, gamma=spec.gamma, variant=spec.variant, weighting=spec.weighting,
        method=spec.method, tolerance=spec.tolerance, seed=spec.seed,
        max_iters=spec.max_iters,
    )
    rows = []
    for (i, coeff, _, levels), partial in zip(plan.terms(), result.partials):
        pr = partial.report
        row = _row(spec, L=spec.level,
                   levels="x".join(str(l) for l in levels),
                   P=pr.params["P"], gamma=pr.params["gamma"],
                   q=pr.params["q"], N=pr.params["N"])
        row["reason"] = f"layer={i} coeff={coeff}"
        rows.append(_fill_report(row, pr))
    exact = grid.manufactured_poisson((spec.level,) * spec.dim).exact_solution
    max_err, rms = combine.sampled_error(
        result.evaluator, exact, spec.dim, spec.level, spec.sample_count,
        seed=spec.seed)
    summary = {
        "d": spec.dim, "L": spec.level, "p_hat": spec.p_hat,
        "subproblems": len(result.partials),
        "subdomains_total": combine.subdomain_count_total(
            spec.dim, spec.level, spec.p_hat),
        "max_error": max_err, "rms_error": rms,
        "clamps": result.clamps,
    }
    return rows, summary


def run_sfc_check(spec: ExperimentSpec) -> list[dict]:
    """Bijectivity/adjacency/Holder diagnostics per refinement level."""
    d = spec.dim
    try:  # the finest curve bounds the key width of every level
        sfc.CurveConfig(d, spec.level)
    except ValueError as exc:
        raise ValueError(f"--dim {d} --level {spec.level}: {exc}") from None
    if spec.sample_count < 2:
        raise ValueError("--samples must be at least 2 for the Holder "
                         f"estimate, got {spec.sample_count}")
    rows = []
    for n in range(1, spec.level + 1):
        cfg = sfc.CurveConfig(d, n)
        if cfg.key_bits <= 18:
            diag = sfc.curve_diagnostics(cfg)
        else:  # spot check: round trips and unit steps on random key pairs
            rng = np.random.default_rng(spec.seed)
            last = (1 << cfg.key_bits) - 1  # key + 1 must stay on the curve
            diag = sfc.spot_check(cfg, [k % last for k in sfc.random_keys(
                rng, cfg.key_bits, 1000)])
        est = sfc.holder_estimate(cfg, spec.sample_count, seed=spec.seed)
        rows.append(dict(zip(SFC_CHECK_COLUMNS, (
            d, n, int(diag["bijective"]), int(diag["adjacent"]),
            f"{est:.12g}", f"{sfc.holder_bound(d):.12g}"))))
    return rows


def write_rows_csv(path, rows, columns=None) -> None:
    columns = columns or CSV_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])


def peak_rss_mib() -> float:
    """This process's peak resident set so far (``ru_maxrss``, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_summary_json(path, spec: ExperimentSpec, rows, extra=None) -> None:
    payload = {
        "spec": vars(spec),
        "timings": [{key: r.get(key) for key in _TIMING_KEYS} for r in rows],
        "peak_rss_mib": peak_rss_mib(),
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _number(token: str):
    try:
        return int(token)
    except ValueError:
        return float(token)


def _parse_values(text: str) -> tuple:
    """A nonempty list of numbers separated by commas or spaces.

    Integer tokens stay ints (so `--gammas 1` writes 1, not 1.0); nan and
    inf are left for ExperimentSpec to reject with the field's message.
    """
    try:
        values = tuple(_number(t) for t in text.replace(",", " ").split())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected numbers separated by commas, such as 4,8,16; "
            f"got {text!r}")
    return values


# argparse keywords of every flag, keyed by the flag's name
_FLAGS = {
    "seed": dict(type=int),
    "out": dict(),
    "config": dict(),
    "dim": dict(type=int),
    "method": dict(choices=krylov.METHODS),
    "solver": dict(dest="method", choices=krylov.METHODS),
    "variant": dict(choices=schwarz.VARIANTS),
    "weighting": dict(choices=schwarz.WEIGHTINGS),
    "gamma": dict(type=float),
    "q-rule": dict(dest="q_rule", choices=Q_RULES),
    "q": dict(dest="q_value", type=int),
    "tolerance": dict(type=float),
    "max-iters": dict(dest="max_iters", type=int),
    "levels": dict(type=_parse_values),
    "level": dict(type=int),
    "p": dict(type=int),
    "s": dict(type=int),
    "p-values": dict(dest="p_values", type=_parse_values),
    "gammas": dict(dest="gamma_values", type=_parse_values),
    "dims": dict(type=_parse_values),
    "phat": dict(dest="p_hat", type=int),
    "samples": dict(dest="sample_count", type=int),
}
_SOLVER_FLAGS = ("method", "variant", "weighting", "gamma", "q-rule", "q",
                 "tolerance", "max-iters")
# command -> (its ExperimentSpec.kind, exactly the flags its driver reads)
_COMMANDS = {
    "solve": ("single", ("dim", *_SOLVER_FLAGS, "levels", "level", "p")),
    "weak-scale": ("weak", ("dim", *_SOLVER_FLAGS, "s", "p-values")),
    "strong-scale": ("strong", ("dim", *_SOLVER_FLAGS, "level", "p-values")),
    "gamma-sweep": ("gamma_sweep", ("dim", "method", "variant", "weighting",
                                    "q-rule", "q", "tolerance", "max-iters",
                                    "s", "p-values", "gammas")),
    "dim-sweep": ("dim_sweep", (*_SOLVER_FLAGS, "dims", "s", "p-values")),
    "combine": ("combine", ("dim", "method", "solver", "variant", "weighting",
                            "gamma", "tolerance", "max-iters", "level",
                            "phat", "samples")),
    "sfc-check": ("sfc_check", ("dim", "level", "samples")),
}
# srel4 reads S, which these commands do not take; by default they use
# the fixed q = 16, srel4's value at the default S = 8
_NO_SREL4 = tuple(c for c, (_, names) in _COMMANDS.items()
                  if "q-rule" in names and "s" not in names)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfcdd",
        description="Space-filling-curve Schwarz solver experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, names) in _COMMANDS.items():
        # no abbreviations: --gamma and --dim must not stand for --gammas
        # and --dims on the commands that do not take them
        p = sub.add_parser(command, allow_abbrev=False)
        for name in ("seed", "out", "config", *names):
            kwargs = _FLAGS[name]
            if name == "q-rule" and command in _NO_SREL4:
                kwargs = dict(kwargs, choices=tuple(
                    r for r in Q_RULES if r != "srel4"))
            p.add_argument("--" + name, default=None, **kwargs)
    return parser


# config-file key (an ExperimentSpec field) -> its flag; --solver is an
# alias of --method
_FLAG_OF_FIELD = {kw.get("dest", name): name for name, kw in _FLAGS.items()
                  if name not in ("config", "solver")}


def _config_flags(path) -> list[str]:
    """`field = value` lines as `--flag=value`; '#' starts a comment."""
    flags = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _FLAG_OF_FIELD:
            raise ValueError(f"unknown parameter {key!r}")
        flags.append(f"--{_FLAG_OF_FIELD[key]}={value}")
    return flags


def run_command(argv) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    if args.config:  # the file's flags go first: explicit flags win
        at = list(argv).index(args.command) + 1
        args = parser.parse_args(
            [*argv[:at], *_config_flags(args.config), *argv[at:]])
    if getattr(args, "q_value", None) is not None and args.q_rule != "fixed":
        parser.error("--q (q_value) is read only with --q-rule fixed")
    if args.command in _NO_SREL4 and args.q_rule is None:
        args.q_rule = "fixed"
    args = vars(args)
    command = args.pop("command")
    del args["config"]
    spec = ExperimentSpec(kind=_COMMANDS[command][0],
                          **{k: v for k, v in args.items() if v is not None})
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)

    if command == "solve":
        report, row = run_single(spec)
        for key, value in sorted(row.items()):
            if key in CSV_COLUMNS:  # the JSON-only keys are not echoed
                print(f"# {key}={value}")
        history = enumerate(zip(report.energy_history,
                                report.residual_history))
        write_rows_csv(out / "single_iterations.csv",
                       [dict(zip(ITERATION_COLUMNS, (k, e, r)))
                        for k, (e, r) in history],
                       columns=ITERATION_COLUMNS)
        write_rows_csv(out / "single.csv", [row])
        write_summary_json(out / "single_summary.json", spec, [row],
                           extra={"report": report.summary()})
        print(f"iterations={report.iterations} converged={report.converged}")
        return 0

    if command == "sfc-check":
        rows = run_sfc_check(spec)
        write_rows_csv(out / "sfc_check.csv", rows, columns=SFC_CHECK_COLUMNS)
        for row in rows:
            print(",".join(str(row[c]) for c in SFC_CHECK_COLUMNS))
        return 0

    if command == "combine":
        rows, summary = run_combine_experiment(spec)
        write_rows_csv(out / "combine.csv", rows)
        write_summary_json(out / "combine_summary.json", spec, rows,
                           extra={"combination": summary})
        print(f"subproblems={summary['subproblems']} "
              f"max_error={summary['max_error']:.6g} "
              f"rms_error={summary['rms_error']:.6g}")
        return 0

    runner = {"weak": run_weak_scaling, "strong": run_strong_scaling,
              "gamma_sweep": run_gamma_sweep, "dim_sweep": run_dim_sweep}
    rows = runner[spec.kind](spec)
    name = spec.kind
    write_rows_csv(out / f"{name}.csv", rows)
    write_summary_json(out / f"{name}_summary.json", spec, rows)
    done = sum(1 for r in rows if not r["skipped"])
    print(f"rows={len(rows)} solved={done} -> {out / (name + '.csv')}")
    return 0


def main(argv=None) -> int:
    try:
        return run_command(sys.argv[1:] if argv is None else argv)
    except Exception as exc:  # noqa: BLE001 - single machine-readable line
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
