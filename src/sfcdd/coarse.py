"""Algebraic piecewise-constant coarse space and deflation operators.

Each disjoint subdomain range contributes q coarse degrees of freedom:
its indices are split into q consecutive chunks, and the coarse
restriction has one 0/1 indicator row per chunk.  The coarse matrix is
the Galerkin product of the restriction with the fine matrix.  Built on
the disjoint partition, never on the overlapped one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import Factorization, factorize, triple_product
from .partition import Partition


def aggregate_sizes(subdomain_size: int, q: int) -> list[int]:
    """Chunk sizes of one subdomain: floor(size/q)+1 for the first size mod q."""
    base, extra = divmod(subdomain_size, q)
    return [base + 1 if m < extra else base for m in range(q)]


@dataclass(frozen=True)
class CoarseSpace:
    """Restriction, Galerkin matrix and factorization of the coarse problem."""

    q: int
    n0: int
    restriction: sp.csr_matrix
    matrix: sp.csr_matrix
    factorization: Factorization


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
    return CoarseSpace(q, n0, R0, A0, factorize(A0))


class DeflationOperators:
    """Coarse correction F = R0^T A0^-1 R0.

    The Schwarz variants build the projections G v = v - A F v and
    G^T v = v - F A v from it; F A F = F holds by the Galerkin
    construction.
    """

    def __init__(self, cs: CoarseSpace, A):
        if A.shape[1] != cs.restriction.shape[1]:
            raise ValueError("coarse space size does not match matrix")
        self._cs = cs

    def coarse_correction(self, v: np.ndarray) -> np.ndarray:
        cs = self._cs
        return cs.restriction.T @ cs.factorization.solve(cs.restriction @ v)
