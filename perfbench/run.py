"""sfcdd benchmark: time whole solves and check every answer.

    python3 perfbench/run.py --workload d6-pcg --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the solver is imported from
``src``.  Each repetition is a fresh interpreter (``child.py``) that
makes one solver call, so caches and the peak resident set start cold.
Repetition k of a run uses solver seed ``seed * CYCLE + k % CYCLE``;
repetitions continue until ``--seconds`` have passed and every seed of
the cycle has run once.  Times are medians over all repetitions,
``iterations`` the median over the cycle's seeds.

With ``--trace 1`` every repetition runs twice, untraced and then with
the span wrappers of ``spans.py``; the per-layer figures are lower
medians over the traced runs, a traced run whose iteration histories differ
from the untraced one in any bit counts as failed, and
``trace.overhead_s`` is the traced minus the untraced median of
``total_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.  Without ``src`` the run exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CYCLE = 5
# one BLAS/OpenMP thread (at most nproc on any machine): SuperLU and the
# Python loops are single-threaded, and a fixed count keeps runs comparable
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 150.0  # start no repetition that may end after this
LIMIT_S = 170.0  # a repetition still running then is killed
END_TO_END = ("total_s", "setup_s", "solve_s", "peak_rss_mib")


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def run_child(root: Path, workload: str, seed: int, traced: bool,
              timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: THREADS for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    try:
        # on timeout the child is killed and reaped before this raises
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    rep = json.loads(lines[-1])
    for problem in rep["problems"]:
        print(f"seed {seed}{' traced' if traced else ''}: {problem}",
              file=sys.stderr)
    return rep


def repetitions(root: Path, args, seeds: list[int]) -> list[dict]:
    """Untraced runs, or (untraced, traced) pairs, until the time is up."""
    start = time.perf_counter()
    reps: list[dict] = []
    longest = 0.0
    k = 0
    while True:
        t0 = time.perf_counter()
        for traced in (False, True) if args.trace else (False,):
            left = LIMIT_S - (time.perf_counter() - start)
            reps.append(run_child(root, args.workload, seeds[k % len(seeds)],
                                  traced, left))
        k += 1
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if k >= (1 if args.trace else len(seeds)) and (
                now - start >= args.seconds
                or now - start + longest > DEADLINE_S):
            return reps


def median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def end_to_end_values(untraced: list[dict]) -> dict[str, list]:
    values = {key: [r[key] for r in untraced] for key in END_TO_END}
    # one count per distinct seed, so the median repeats exactly
    values["iterations"] = list({r["seed"]: r["iterations"]
                                 for r in untraced}.values())
    return values


def per_layer_values(untraced: list[dict], traced: list[dict]) -> dict[str, list]:
    values = {name: [r["layers"][name] for r in traced]
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = [
        median(traced, "total_s") - median(untraced, "total_s")]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "sfcdd" / "__init__.py").is_file():
        raise BenchError(f"no solver sources under {root / 'src'}")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")

    seeds = [args.seed * CYCLE + k for k in range(CYCLE)]
    reps = repetitions(root, args, seeds)
    failed = sum(r["failed"] for r in reps)
    untraced = [r for r in reps if not r["traced"] and "total_s" in r]
    if not untraced:
        raise BenchError("no repetition completed a solve")

    if args.trace:
        traced = [r for r in reps if r["traced"] and "layers" in r]
        reference = {r["seed"]: r["digest"] for r in untraced}
        for r in traced:
            if r["digest"] != reference.get(r["seed"]):
                print(f"seed {r['seed']}: traced histories differ from untraced",
                      file=sys.stderr)
                failed += not r["failed"]
        if not traced:
            raise BenchError("no traced repetition completed a solve")
        values = per_layer_values(untraced, traced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_values(untraced)
        wanted = spec["end_to_end"]

    # the lower median keeps per-layer counts whole when the sample is even
    middle = statistics.median_low if args.trace else statistics.median
    metrics = {}
    for m in wanted:
        vals = values[m["name"]]
        value = middle(vals)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:32s} {value:14.6g} {m['unit']:6s} "
              f"min {min(vals):.6g} max {max(vals):.6g} n={len(vals)}")
    print(f"# workload={args.workload} seeds={seeds} repetitions={len(reps)} "
          f"threads={THREADS}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
