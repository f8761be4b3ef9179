"""Sparse-matrix plumbing: direct factorization, Galerkin triple products.

Matrices are scipy CSR, except that the factorization takes any input
format and passes a CSC matrix to SuperLU as it is, without a copy
(SuperLU may sort its indices in place).  Every symmetric positive
definite block is factorized by one sparse LU (SuperLU) with
minimum-degree ordering and the pivots kept on the diagonal, so a
positive diagonal of U is an exact SPD test.  Factorizations are
immutable after construction and their solves are safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class FactorizationError(RuntimeError):
    """Raised when a matrix expected to be SPD cannot be factorized."""


class Factorization:
    """Direct solver for a symmetric positive definite matrix."""

    def __init__(self, A):
        n, m = A.shape
        if n != m:
            raise ValueError(f"matrix is not square: {A.shape}")
        self.n = n
        if not (sp.issparse(A) and A.format == "csc"):
            A = sp.csc_matrix(A)
        # minimum-degree on A+A^T: SFC order alone leaves near-full
        # bandwidth for d >= 3 coarse matrices and the LU fill explodes.
        # diag_pivot_thresh=0 keeps every nonzero pivot on the diagonal,
        # so the elimination is that of LDL^T and U's diagonal is D
        try:
            lu = spla.splu(
                A,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # exactly singular
            raise FactorizationError(f"SuperLU failed: {exc}") from exc
        # a zero diagonal pivot sends SuperLU off the diagonal, which
        # leaves the row order different from the column order
        if (not np.array_equal(lu.perm_r, lu.perm_c)
                or np.any(lu.U.diagonal() <= 0.0)):
            raise FactorizationError("nonpositive pivot, matrix is not SPD")
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        if b.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: n={self.n}, b has {b.shape[0]}")
        return self._lu.solve(b)


def factorize(A) -> Factorization:
    return Factorization(A)


def triple_product(R, A) -> sp.csr_matrix:
    """Galerkin product R A R^T, symmetrized; A must be symmetric (unchecked)."""
    if R.shape[1] != A.shape[0] or A.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: R {R.shape}, A {A.shape}")
    B = sp.csr_matrix(R @ A @ R.T)
    B = sp.csr_matrix((B + B.T) * 0.5)
    B.sort_indices()
    return B
