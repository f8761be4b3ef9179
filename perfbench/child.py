"""One repetition of a workload in a fresh interpreter; prints one JSON line.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``, so the ordering cache
and the peak resident set start cold, as for a command-line call.  A
solve that raises, does not converge or fails its answer check is
reported as failed; the process itself exits 0 unless it cannot run.

    python3 perfbench/child.py --workload d6-pcg --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import traceback

import spans
import workloads


def repetition(w, seed: int, traced: bool) -> dict:
    """Execute and check one solver call; the record ``run.py`` reads."""
    out = {"seed": seed, "traced": traced}
    try:
        if traced:
            with spans.tracing() as rec:
                run = workloads.execute(w, seed)
            out["layers"] = spans.layer_metrics(rec)
        else:
            run = workloads.execute(w, seed)
    except Exception:  # noqa: BLE001 - a raising solve is a failed solve
        out.update(failed=True, problems=[traceback.format_exc()])
        return out
    problems = workloads.check(w, run)
    out.update(
        failed=bool(problems), problems=problems, total_s=run.total_s,
        setup_s=run.total_s - run.solve_s, solve_s=run.solve_s,
        iterations=run.iterations,
        peak_rss_mib=run.peak_rss_mib, digest=run.digest)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    w = workloads.WORKLOADS[args.workload]
    print(json.dumps(repetition(w, args.seed, bool(args.trace))))


if __name__ == "__main__":
    main()
