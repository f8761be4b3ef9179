"""Algebraic piecewise-constant coarse space and deflation operators.

Each disjoint subdomain range contributes q coarse degrees of freedom:
its indices are split into q consecutive chunks, and the coarse
restriction has one 0/1 indicator row per chunk.  The coarse matrix is
the Galerkin product of the restriction with the fine matrix.  Built on
the disjoint partition, never on the overlapped one.

The coarse matrix A0 is solved by a sparse LU factor, except that from
n0 = ``CG_MIN_N0`` unknowns on, :func:`build_coarse` first tries
:class:`sfcdd.linalg.JacobiCG`: if its probe solve reaches roundoff
(``linalg.CG_TOLERANCE``) within ``linalg.CG_MAX_ITERATIONS``
iterations, every coarse solve is that CG; otherwise A0 is factorized.
At d = 6 kappa(D^-1 A0) is 4.7-9.1, while the LU factor of A0 holds a
third of a dense matrix's entries; at d = 1 A0 is tridiagonal with a
condition number that grows as n0^2, and the probe fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import (Factorization, FactorizationError, JacobiCG, factorize,
                     triple_product)
from .partition import Partition


# Below this n0 the coarse matrix is always factorized.  Setup plus 32
# solves, factor against CG: n0 = 1,024 (d = 3, 4) 30-47 ms against
# 60-95 ms; (7,7,6) at P = 256 247 against 245 ms; (4,4,4,4) at P = 256
# 558 against 313 ms; d6-pcg (n0 = 4,096) 1.62 s against 0.15 s
CG_MIN_N0 = 4096


def aggregate_sizes(subdomain_size: int, q: int) -> list[int]:
    """Chunk sizes of one subdomain: floor(size/q)+1 for the first size mod q."""
    base, extra = divmod(subdomain_size, q)
    return [base + 1 if m < extra else base for m in range(q)]


@dataclass(frozen=True)
class CoarseSpace:
    """Restriction, Galerkin matrix and solver of the coarse problem."""

    q: int
    n0: int
    restriction: sp.csr_matrix
    matrix: sp.csr_matrix
    factorization: Factorization | JacobiCG


def coarse_solver(A0) -> Factorization | JacobiCG:
    """JacobiCG from ``CG_MIN_N0`` unknowns on if its probe converges, else a factor."""
    if A0.shape[0] >= CG_MIN_N0:
        try:
            return JacobiCG(A0)
        except FactorizationError:  # the probe missed; the factor decides
            pass
    return factorize(A0)


def build_coarse(part: Partition, A, q: int) -> CoarseSpace:
    if not 1 <= q <= part.n // part.p:
        raise ValueError(f"need 1 <= q <= floor(N/P) = {part.n // part.p}, got q={q}")
    if A.shape != (part.n, part.n):
        raise ValueError(f"matrix shape {A.shape} does not match N = {part.n}")
    n0 = q * part.p
    # the disjoint ranges tile [0, N) in order, so the aggregates do too
    sizes = np.concatenate([aggregate_sizes(rng.length, q)
                            for rng in part.disjoint])
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    R0 = sp.csr_matrix(
        (np.ones(part.n), np.arange(part.n), indptr), shape=(n0, part.n)
    )
    A0 = triple_product(R0, A)
    return CoarseSpace(q, n0, R0, A0, coarse_solver(A0))


class DeflationOperators:
    """Coarse correction F = R0^T A0^-1 R0, without sparse products.

    The Schwarz variants build the projections G v = v - A F v and
    G^T v = v - F A v from it; F A F = F holds by the Galerkin
    construction.
    """

    def __init__(self, cs: CoarseSpace, A):
        if A.shape[1] != cs.restriction.shape[1]:
            raise ValueError("coarse space size does not match matrix")
        self._cs = cs
        # the aggregates tile [0, N) in order (see build_coarse): R0 sums
        # each chunk of consecutive entries, R0^T repeats each coarse value
        self._sizes = np.diff(cs.restriction.indptr)
        self._labels = np.repeat(np.arange(cs.n0), self._sizes)

    def coarse_correction(self, v: np.ndarray) -> np.ndarray:
        # bincount adds in index order, as the CSR product R0 @ v does, so
        # the two are bitwise equal; np.add.reduceat sums pairwise and is not
        cs = self._cs
        r0v = np.bincount(self._labels, weights=v, minlength=cs.n0)
        return np.repeat(cs.factorization.solve(r0v), self._sizes)
