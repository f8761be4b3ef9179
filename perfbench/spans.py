"""Spans around the solver's layers, installed from outside the package.

``tracing()`` replaces each public function or method with a wrapper that
records a span (name, parent, start, end) and calls the original.  The
wrapper goes where the name is looked up at call time: for a name
imported with ``from ... import`` that is the importing module
(``sfcdd.harness.build_coarse``, ``sfcdd.combine.build_coarse``), for a
method the class.  Sparse products are traced through
``scipy.sparse.csr_matrix.__matmul__``.  Nothing inside the solver
changes, so a traced solve computes bit for bit what an untraced one
does.  Spans stay in memory; ``layer_metrics`` reduces them to the
per-layer figures, with self times taken from the parent links.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import scipy.sparse as sp

from sfcdd import coarse, combine, grid, harness, krylov, linalg, schwarz


def factor_nnz(f: linalg.Factorization) -> int:
    """Stored factor entries: L.nnz + U.nnz for SuperLU, n(n+1)/2 dense."""
    if f._lu is not None:
        return int(f._lu.L.nnz + f._lu.U.nnz)
    return f.n * (f.n + 1) // 2


class Recorder:
    """Spans as [name, parent index, start, end]; counts read off results."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced


@contextmanager
def tracing():
    """Install the span wrappers for the duration of the block."""
    rec = Recorder()
    counts = rec.counts
    ordering = grid.sfc_permutation  # the lru_cache object itself

    def order(levels):
        misses = ordering.cache_info().misses
        perm = ordering(levels)
        if ordering.cache_info().misses != misses:
            counts["grid.sfc_permutation_misses"] += 1
            if len(levels) > 1:  # d=1 is the identity and orders no point
                counts["sfc.points_ordered"] += len(perm)
        return perm

    def on_coarse(cs):
        counts["coarse.factor_nnz"] += factor_nnz(cs.factorization)
        counts["coarse.n0"] += cs.n0

    def on_setup(op):
        counts["schwarz.local_factor_nnz"] += sum(
            factor_nnz(f) for f in op._factorizations)

    def on_factorize(f):
        counts["linalg.factorize_dense_calls"] += f._lu is None

    def on_run(report):
        counts["krylov.iterations"] += report.iterations

    build_coarse = rec.wrap("coarse.build", coarse.build_coarse, on_coarse)
    build_partition = rec.wrap("partition.build", harness.build_partition)
    factorize = rec.wrap("linalg.factorize", linalg.factorize, on_factorize)
    patches = [
        (grid, "sfc_permutation", rec.wrap("grid.sfc_permutation", order)),
        (grid, "assemble_laplacian",
         rec.wrap("grid.assemble", grid.assemble_laplacian)),
        (grid, "symmetrize_diag",
         rec.wrap("grid.symmetrize", grid.symmetrize_diag)),
        (grid, "scatter_to_lex",
         rec.wrap("combine.scatter_to_lex", grid.scatter_to_lex)),
        (harness, "build_partition", build_partition),
        (combine, "build_partition", build_partition),
        (harness, "build_coarse", build_coarse),
        (combine, "build_coarse", build_coarse),
        (coarse, "triple_product",
         rec.wrap("coarse.triple_product", coarse.triple_product)),
        (coarse, "factorize", factorize),
        (schwarz, "factorize", factorize),
        (coarse.DeflationOperators, "coarse_correction",
         rec.wrap("coarse.correction",
                  coarse.DeflationOperators.coarse_correction)),
        (linalg.Factorization, "solve",
         rec.wrap("linalg.solve", linalg.Factorization.solve)),
        (schwarz, "setup", rec.wrap("schwarz.setup", schwarz.setup, on_setup)),
        (schwarz.SchwarzOperator, "apply",
         rec.wrap("schwarz.apply", schwarz.SchwarzOperator.apply)),
        (krylov, "estimate_extremal_eigs",
         rec.wrap("krylov.eig", krylov.estimate_extremal_eigs)),
        (krylov, "run", rec.wrap("krylov.run", krylov.run, on_run)),
        (combine, "solve_subproblem",
         rec.wrap("combine.solve_subproblem", combine.solve_subproblem)),
        (combine, "sampled_error",
         rec.wrap("combine.sampled_error", combine.sampled_error)),
        (harness, "run_model_solve",
         rec.wrap("harness.run_model_solve", harness.run_model_solve)),
        (sp.csr_matrix, "__matmul__",
         rec.wrap("sparse.matmul", sp.csr_matrix.__matmul__)),
    ]
    saved = [(obj, attr, obj.__dict__.get(attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, wrapper in patches:
            setattr(obj, attr, wrapper)
        yield rec
    finally:
        for obj, attr, original in reversed(saved):
            if original is None:  # inherited, e.g. csr_matrix.__matmul__
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Reduce the spans of one traced run to the per-layer figures."""
    spans = rec.spans
    dur = [end - start for _, _, start, end in spans]
    covered = [0.0] * len(spans)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    by_name = defaultdict(list)
    for i, (name, _, _, _) in enumerate(spans):
        by_name[name].append(i)

    def pick(name, under=None):
        return [i for i in by_name[name] if under is None
                or (spans[i][1] >= 0 and spans[spans[i][1]][0] == under)]

    def total(name, under=None):
        return sum((dur[i] for i in pick(name, under)), 0.0)

    def self_time(name):
        return sum((dur[i] - covered[i] for i in pick(name)), 0.0)

    c = rec.counts
    apply_calls = len(pick("schwarz.apply"))
    eig_s = total("krylov.eig")
    return {
        "grid.sfc_permutation_s": total("grid.sfc_permutation"),
        "grid.sfc_permutation_misses": c["grid.sfc_permutation_misses"],
        "sfc.points_ordered": c["sfc.points_ordered"],
        "sfc.us_per_point": (1e6 * total("grid.sfc_permutation")
                             / c["sfc.points_ordered"]
                             if c["sfc.points_ordered"] else 0.0),
        "grid.assemble_s": self_time("grid.assemble"),
        "grid.symmetrize_s": total("grid.symmetrize"),
        "partition.build_s": total("partition.build"),
        "coarse.build_s": total("coarse.build"),
        "coarse.triple_product_s": total("coarse.triple_product"),
        "coarse.factor_s": total("linalg.factorize", "coarse.build"),
        "coarse.factor_nnz": c["coarse.factor_nnz"],
        "coarse.n0": c["coarse.n0"],
        "coarse.correction_calls": len(pick("coarse.correction")),
        "coarse.correction_s": total("coarse.correction"),
        "linalg.factorize_calls": len(pick("linalg.factorize")),
        "linalg.factorize_dense_calls": c["linalg.factorize_dense_calls"],
        "linalg.solve_calls": len(pick("linalg.solve")),
        "linalg.solve_s": total("linalg.solve"),
        "schwarz.setup_s": total("schwarz.setup"),
        "schwarz.local_factor_s": total("linalg.factorize", "schwarz.setup"),
        "schwarz.local_factor_nnz": c["schwarz.local_factor_nnz"],
        "schwarz.apply_calls": apply_calls,
        "schwarz.apply_s": total("schwarz.apply"),
        "schwarz.apply_ms": (1e3 * total("schwarz.apply") / apply_calls
                             if apply_calls else 0.0),
        "schwarz.local_solve_s": total("linalg.solve", "schwarz.apply"),
        "schwarz.apply_self_s": self_time("schwarz.apply"),
        "krylov.eig_s": eig_s,
        "krylov.eig_applies": len(pick("schwarz.apply", "krylov.eig")),
        "krylov.iterate_s": total("krylov.run") - eig_s,
        "krylov.spmv_calls": len(pick("sparse.matmul", "krylov.run")),
        "krylov.spmv_s": total("sparse.matmul", "krylov.run"),
        "krylov.self_s": self_time("krylov.run"),
        "krylov.iterations": c["krylov.iterations"],
        "combine.subproblems": len(pick("combine.solve_subproblem")),
        "combine.solve_subproblem_s": total("combine.solve_subproblem"),
        "combine.scatter_to_lex_s": total("combine.scatter_to_lex"),
        "combine.sampled_error_s": total("combine.sampled_error"),
        "harness.run_model_solve_s": total("harness.run_model_solve"),
    }
