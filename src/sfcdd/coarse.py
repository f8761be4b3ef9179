"""Algebraic piecewise-constant coarse space and deflation operators.

Each disjoint subdomain range contributes q coarse degrees of freedom:
its indices are split into q consecutive chunks, and the coarse
restriction has one 0/1 indicator row per chunk.  The coarse matrix is
the Galerkin product of the restriction with the fine matrix.  Built on
the disjoint partition, never on the overlapped one.  The first factor
of that product, R0 A, is kept: for symmetric A its transpose is A R0^T,
so the deflation projections need no product by the fine matrix.

Cost of the coarse terms of one Schwarz apply (:mod:`sfcdd.schwarz`):
``additive_two_level`` makes one coarse correction F g (a restriction,
a coarse solve and a prolongation); ``deflated`` makes two coarse
solves, one restriction by R0 and one by R0 A, and one prolongation;
``balanced`` adds one product by (R0 A)^T.  None of them multiplies by
the fine matrix.

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

from .linalg import (CSRProduct, Factorization, FactorizationError, JacobiCG,
                     factorize, triple_product)
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
    """Restriction, Galerkin matrix and solver of the coarse problem.

    ``restricted_matrix`` is R0 A, the first factor of the Galerkin
    product ``matrix`` = R0 A R0^T (symmetrized).
    """

    q: int
    n0: int
    restriction: sp.csr_matrix
    matrix: sp.csr_matrix
    factorization: Factorization | JacobiCG
    restricted_matrix: sp.csr_matrix


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
    R0A, A0 = triple_product(R0, A)
    return CoarseSpace(q, n0, R0, A0, coarse_solver(A0), R0A)


class DeflationOperators:
    """Coarse correction F = R0^T A0^-1 R0 and the products by the kept R0 A.

    The Schwarz variants build the projections G v = v - A F v and
    G^T v = v - F A v from them; F A F = F holds by the Galerkin
    construction.  A R0^T is applied as (R0 A)^T, which assumes the
    symmetric A the coarse space was built from, so no product by A is
    made.
    """

    def __init__(self, cs: CoarseSpace):
        self._solver = cs.factorization
        R0, R0A = cs.restriction, cs.restricted_matrix
        self._restrict = CSRProduct(R0.indptr, R0.indices, R0.data, R0.shape[1])
        self._restrict_a = CSRProduct(R0A.indptr, R0A.indices, R0A.data,
                                      R0A.shape[1])
        # the aggregates tile [0, N) in order (see build_coarse), so R0^T
        # repeats each coarse value over its chunk of consecutive entries
        self._sizes = np.diff(R0.indptr)

    def coarse_correction(self, v: np.ndarray, *, times_a: bool = False,
                          prolong: bool = True) -> np.ndarray:
        """F v with one coarse solve; F A v with ``times_a``.

        With ``times_a`` the restriction is R0 A v by the kept R0 A.
        Without ``prolong`` the result is the coarse vector A0^-1 R0 v (or
        A0^-1 R0 A v) before R0^T.  R0 v is bitwise R0 @ v and the
        prolongation is exact, so F v is bitwise R0^T @ (A0^-1 R0 v).
        """
        restrict = self._restrict_a if times_a else self._restrict
        y = self._solver.solve(restrict(v))
        return self.prolong(y) if prolong else y

    def prolong(self, y: np.ndarray) -> np.ndarray:
        """R0^T y: each coarse value repeated over its aggregate."""
        return np.repeat(y, self._sizes)

    def prolong_a(self, y: np.ndarray) -> np.ndarray:
        """A R0^T y, as (R0 A)^T y."""
        return self._restrict_a.rmatvec(y)
