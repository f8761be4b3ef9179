"""Peak memory of one model solve in a fresh process; prints one JSON line.

    python tests/memory_case.py 20 256 256
    python tests/memory_case.py 3,3,3,3,3,2 256 16

The arguments are the levels (comma separated), P and q.  The solve is
``harness.run_model_solve`` with its defaults (balanced, omega, PCG),
gamma = 1/2 and seed 1, on one BLAS thread.  The line holds the
process's peak resident set (``ru_maxrss``) in MiB, the iteration count,
the number of distinct local factors, the stored factor entries and the
coarse CG probe's iterations (0 when the coarse matrix is factorized).
``tests/test_memory.py`` runs it; the Memory table of ``README.md``
comes from it.
"""

import os

# before numpy is imported: BLAS allocates per-thread buffers
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import json  # noqa: E402
import sys  # noqa: E402

from sfcdd import harness, schwarz  # noqa: E402


def main(argv) -> dict:
    levels = tuple(int(l) for l in argv[0].split(","))
    p, q = int(argv[1]), int(argv[2])
    operators = []
    setup = schwarz.setup

    def keep(*args, **kwargs):  # the operator, to count its distinct factors
        operators.append(setup(*args, **kwargs))
        return operators[-1]

    schwarz.setup = keep
    report = harness.run_model_solve(levels, p, 0.5, q, seed=1)
    return {"levels": list(levels), "P": p, "q": q,
            "peak_rss_mib": round(harness.peak_rss_mib(), 1),
            "iterations": report.iterations,
            "distinct_factors": len({id(f) for f in operators[0]._factorizations}),
            "local_factor_nnz": report.params["local_factor_nnz"],
            "coarse_factor_nnz": report.params["coarse_factor_nnz"],
            "coarse_cg_iterations": report.params["coarse_cg_iterations"]}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
