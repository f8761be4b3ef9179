"""Sparse-matrix plumbing: CSR products, direct factorization, Galerkin triple products.

Matrices are scipy CSR throughout.  Factorizations of symmetric positive
definite blocks use dense Cholesky up to ``DENSE_LIMIT`` unknowns and a
sparse LU with minimum-degree ordering above that (the stencil blocks
are sparse enough that dense factors lose badly beyond a few hundred
unknowns).  Factorizations are immutable after construction and their
solves are safe to call concurrently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_LIMIT = 512


class FactorizationError(RuntimeError):
    """Raised when a matrix expected to be SPD cannot be factorized."""


def as_csr(A) -> sp.csr_matrix:
    B = sp.csr_matrix(A)
    B.sort_indices()
    return B


def matvec(A, x: np.ndarray) -> np.ndarray:
    if A.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} @ {x.shape}")
    return A @ x


class Factorization:
    """Direct solver for a symmetric positive definite matrix."""

    def __init__(self, A):
        n, m = A.shape
        if n != m:
            raise ValueError(f"matrix is not square: {A.shape}")
        self.n = n
        if n <= DENSE_LIMIT:
            try:
                self._cho = sla.cho_factor(
                    np.asarray(A.todense() if sp.issparse(A) else A),
                    lower=True, check_finite=False,
                )
            except sla.LinAlgError as exc:
                raise FactorizationError(f"Cholesky failed: {exc}") from exc
            self._lu = None
        else:
            # minimum-degree on A+A^T: SFC order alone leaves near-full
            # bandwidth for d >= 3 coarse matrices and the LU fill explodes
            lu = spla.splu(
                sp.csc_matrix(A),
                permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True},
            )
            if np.any(lu.U.diagonal() <= 0.0):
                raise FactorizationError("nonpositive pivot, matrix is not SPD")
            self._lu = lu
            self._cho = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        if b.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: n={self.n}, b has {b.shape[0]}")
        if self._cho is not None:
            return sla.cho_solve(self._cho, b, check_finite=False)
        return self._lu.solve(b)


def factorize(A) -> Factorization:
    return Factorization(A)


def solve(F: Factorization, b: np.ndarray) -> np.ndarray:
    return F.solve(b)


def triple_product(R, A) -> sp.csr_matrix:
    """Galerkin product R A R^T, symmetrized; A must be symmetric (unchecked)."""
    if R.shape[1] != A.shape[0] or A.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: R {R.shape}, A {A.shape}")
    B = sp.csr_matrix(R @ A @ R.T)
    B = sp.csr_matrix((B + B.T) * 0.5)
    B.sort_indices()
    return B
