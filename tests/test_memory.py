"""The memory contract: peak resident set of model solves at N up to 2^20.

Each case is ``tests/memory_case.py`` in a fresh process, so the peak
(``ru_maxrss``) is that solve's alone; the three cases run concurrently.
A peak may exceed the one measured when the bound was set by at most
10%, the benchmark's bound on ``peak_rss_mib``.  A change that lowers a
peak lowers its bound here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfcdd

CASE_SCRIPT = Path(__file__).with_name("memory_case.py")
RSS_SLACK = 1.10
# one BLAS thread, as memory_case.py sets when run by hand
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# (levels, P, q) -> (measured peak MiB, iterations, distinct local
# factors, local factor entries, coarse factor entries, coarse CG probe
# iterations); PCG, gamma = 1/2
CASES = {
    # d = 6, the d6-pcg benchmark solve: the local factors, and A before
    # them; the coarse problem is solved by CG and stores no factor
    ((3, 3, 3, 3, 3, 2), 256, 16): (220.7, 15, 256, 6_641_668, 0, 39),
    # d = 1, N = 2^20 - 1: vectors of N dominate, not factors
    ((20,), 256, 256): (304.2, 27, 4, 131_052, 262_142, 0),
    # d = 3: the local factors dominate; it reads 629-637 MiB since the
    # 32-bit assembly and the CSR scatter, either of which alone moved
    # the heap's layout under the factors by 4-9 MiB; bounds are not raised
    ((6, 6, 5), 64, 16): (627.7, 26, 64, 26_934_986, 111_468, 0),
}


# Linux keeps a process's peak resident set across exec, and a child
# forked from this test process starts at this process's resident set,
# which earlier tests may have grown to gigabytes.  A small interpreter in
# between starts each case at its own footprint, as perfbench/run.py
# starts its children.
LAUNCH = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


@pytest.fixture(scope="module")
def measured():
    env = dict(os.environ, PYTHONPATH=str(Path(sfcdd.__file__).parents[1]))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    procs = {case: subprocess.Popen(
        [sys.executable, "-c", LAUNCH, sys.executable, str(CASE_SCRIPT),
         ",".join(map(str, case[0])), str(case[1]), str(case[2])],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for case in CASES}
    out = {}
    for case, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr[-2000:]
        out[case] = json.loads(stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("case", list(CASES), ids=lambda c: (
    f"{'x'.join(map(str, c[0]))}-P{c[1]}-q{c[2]}"))
def test_peak_and_factor_entries(measured, case):
    peak, *counts = CASES[case]
    got = measured[case]
    assert [got[key] for key in ("iterations", "distinct_factors",
                                 "local_factor_nnz", "coarse_factor_nnz",
                                 "coarse_cg_iterations")] == counts
    assert got["peak_rss_mib"] <= RSS_SLACK * peak, (
        f"peak {got['peak_rss_mib']} MiB > {RSS_SLACK} x {peak} MiB")
