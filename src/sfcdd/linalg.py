"""Sparse-matrix plumbing: direct factorization, Galerkin triple products.

Matrices are scipy CSR.  Every symmetric positive definite block is
factorized by one sparse LU (SuperLU's ``gstrf``, the routine behind
``scipy.sparse.linalg.splu``, with the options ``splu`` passes) with
minimum-degree ordering and the pivots kept on the diagonal, so a
positive diagonal of U is an exact SPD test.  The factorization takes
either a matrix or the CSC arrays ``(data, indices, indptr, n)`` of one,
as :func:`sfcdd.schwarz.principal_block` cuts them; both reach SuperLU
as the same arrays, so both give the same factors bit for bit.  A
matrix in CSC is read as it is, without a copy (its duplicate entries
are summed and its indices sorted in place, as ``splu`` does).  A
factorization keeps SuperLU's own storage of L and U and, of SuperLU's
CSC export of the two, only their entry counts and U's diagonal, not a
second copy of their entries.
Factorizations are immutable after construction and their solves are
safe to call concurrently.  A solve takes one right-hand side or the
columns of an (n, k) array; SuperLU's supernodal triangular solves share
their index work among the k columns.

:class:`CSRProduct` is the product ``M @ x`` of a fixed CSR matrix and a
vector, bit for bit, through the sparsetools kernel behind
``csr_matrix @``: the Schwarz scatter and the coarse restriction are
such products, made on every apply.

:class:`JacobiCG` has the same interface (``n``, ``nnz``, ``solve``) and
solves by Jacobi-preconditioned CG instead of a factor.  Every solve
starts from zero and stops once the recursive residual meets
‖r‖ ≤ ``CG_TOLERANCE`` ‖b‖; a solve that needs more than
``CG_MAX_ITERATIONS`` iterations raises :class:`FactorizationError`, so
no solve is silently inexact.  Construction runs one such solve on a
right-hand side from a fixed seed, the probe, and raises the same error
if it misses, so only a matrix on which CG converges fast is kept.
:mod:`sfcdd.coarse` uses it for large, well-conditioned coarse matrices,
whose sparse LU is nearly dense.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
# csr_matrix @ x spends about 2.6 us per call in scipy's dispatch before
# this kernel runs (4.2 against 1.6 us in all on a 63-unknown grid), which
# combine-d4's roughly 10,000 small scatters and restrictions would pay
from scipy.sparse import _sparsetools
# splu itself would re-validate a block that principal_block has just
# built canonically, and the caller would have to wrap the block's arrays
# in a csc_matrix only to hand them over; on a block of a few dozen
# unknowns that overhead costs about as much as the factorization
from scipy.sparse.linalg._dsolve import _superlu

# splu's options for permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0 and
# options={"SymmetricMode": True}.  Minimum degree on A+A^T: SFC order
# alone leaves near-full bandwidth for d >= 3 coarse matrices and the LU
# fill explodes.  DiagPivotThresh=0 keeps every nonzero pivot on the
# diagonal, so the elimination is that of LDL^T and U's diagonal is D
_SUPERLU_OPTIONS = dict(DiagPivotThresh=0.0, ColPerm="MMD_AT_PLUS_A",
                        PanelSize=None, Relax=None, SymmetricMode=True)
_INTC_MAX = np.iinfo(np.intc).max

# JacobiCG's stopping test, ||r|| <= CG_TOLERANCE ||b|| on the recursive
# residual.  At 1e-14 its solves agree with SuperLU's to about 1e-14
# relative on the coarse matrices of d = 2-6, and every outer iteration
# count stays that of the factor; at 1e-8 counts or Richardson's extremal
# eigenvalue estimates move on small grids (tests/test_coarse_cg.py)
CG_TOLERANCE = 1e-14
# the probe takes 39 iterations on d6-pcg's coarse matrix, where
# kappa(D^-1 A) is 4.7-9.1; on a d = 1 coarse matrix (tridiagonal,
# kappa ~ n^2) it hits this cap after about 6 ms at n = 8,192, and the
# matrix is factorized
CG_MAX_ITERATIONS = 100
# the probe's right-hand side; any fixed seed, independent of the solve's
_CG_PROBE_SEED = 0
# the right-hand sides of Factorization.solves_columns_alike; any fixed seed
_COLUMNS_PROBE_SEED = 0


class FactorizationError(RuntimeError):
    """Raised when a matrix expected to be SPD cannot be factorized."""


def _csc_arrays(A):
    """``(data, indices, indptr, n)`` of a square matrix in canonical CSC."""
    if not (sp.issparse(A) and A.format == "csc"):
        A = sp.csc_matrix(A)
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix is not square: {A.shape}")
    A.sum_duplicates()  # as splu does
    return A.data, A.indices, A.indptr, n


def _superlu_arrays(data, indices, indptr, n):
    """The CSC arrays as SuperLU reads them: float64 data, C int indices.

    Like scipy's CSC constructor, this checks the arrays' lengths and end
    pointers but not each index.  Sizes past the C int range fail here
    instead of wrapping in the cast.
    """
    nnz = len(data)
    if n > _INTC_MAX or nnz > _INTC_MAX:
        raise ValueError(f"n = {n} or nnz = {nnz} too large for SuperLU")
    if not (len(indptr) == n + 1 and indptr[0] == 0
            and indptr[-1] == nnz == len(indices)):
        raise ValueError(f"not the CSC arrays of an {n} x {n} matrix")
    return (np.ascontiguousarray(data, dtype=np.float64),
            np.asarray(indices).astype(np.intc, copy=False),
            np.asarray(indptr).astype(np.intc, copy=False))


class _ExportedFactor(NamedTuple):
    """What a factorization keeps of SuperLU's export of L or U."""

    nnz: int  # stored entries
    diagonal: np.ndarray


def _read_export(arrays, shape) -> _ExportedFactor:
    """SuperLU's ``csc_construct_func``: a factor's entry count and diagonal.

    SuperLU exports L or U as ``(data, indices, indptr)`` in CSC and caches
    what this returns for the life of the factorization, so a CSC matrix
    here would keep a second copy of every entry.  The arrays can be
    longer than the ``indptr[-1]`` entries they hold.  A column with no
    stored diagonal entry reads 0 there, as a sparse matrix's
    ``diagonal()`` does, which sums any duplicates in the same order.
    """
    data, indices, indptr = arrays
    nnz = int(indptr[-1])
    col = np.repeat(np.arange(shape[1]), np.diff(indptr))
    on_diagonal = indices[:nnz] == col
    diagonal = np.bincount(col[on_diagonal], weights=data[:nnz][on_diagonal],
                           minlength=min(shape))
    return _ExportedFactor(nnz, diagonal)


class Factorization:
    """Direct solver for a symmetric positive definite matrix.

    ``A`` is a square matrix in any format scipy.sparse converts to CSC,
    or the tuple ``(data, indices, indptr, n)`` of the CSC arrays of an
    n x n matrix with sorted row indices and no duplicates.  ``nnz`` is
    the number of entries stored in L and U.
    """

    def __init__(self, A):
        data, indices, indptr, n = A if isinstance(A, tuple) else _csc_arrays(A)
        data, indices, indptr = _superlu_arrays(data, indices, indptr, n)
        self.n = n
        try:
            lu = _superlu.gstrf(n, len(data), data, indices, indptr,
                                csc_construct_func=_read_export, ilu=False,
                                options=_SUPERLU_OPTIONS)
        except RuntimeError as exc:  # exactly singular
            raise FactorizationError(f"SuperLU failed: {exc}") from exc
        # a zero diagonal pivot sends SuperLU off the diagonal, which
        # leaves the row order different from the column order
        if (not np.array_equal(lu.perm_r, lu.perm_c)
                or not np.all(lu.U.diagonal > 0.0)):
            raise FactorizationError("nonpositive pivot, matrix is not SPD")
        self.nnz = lu.L.nnz + lu.U.nnz
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for b of shape (n,) or (n, k), in a new array of b's shape.

        A solve of k columns is one SuperLU call.
        """
        if b.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: n={self.n}, b has {b.shape[0]}")
        return self._lu.solve(b)

    def solves_columns_alike(self, k: int) -> bool:
        """Whether a solve of k columns gives each column bit for bit as its own solve.

        SuperLU solves a supernode of several columns with BLAS trsm and
        gemm calls, whose kernel, and with it the rounding, can change
        with the number of right-hand sides: with OpenBLAS 0.3.30 on an
        AVX-512 x86-64 CPU, 5 and 9 or more columns differed from
        one-column solves in the last bits on an 8,177-unknown block of a
        (10,10) grid at P = 256, while d = 1 blocks agreed at every k
        tried.  Decided on one seeded (n, k) right-hand side, which a
        difference in kernels shows in almost every column.
        """
        rng = np.random.default_rng(_COLUMNS_PROBE_SEED)
        b = rng.standard_normal((k, self.n)).T
        x = self._lu.solve(b)
        return all(np.array_equal(x[:, j], self._lu.solve(b[:, j]))
                   for j in range(k))


def factorize(A) -> Factorization:
    return Factorization(A)


class JacobiCG:
    """Solver for a symmetric positive definite matrix by Jacobi-PCG.

    ``A`` is a square matrix in any format scipy.sparse converts to CSR.
    There is no factor, so ``nnz`` is 0.  ``probe_iterations`` is the
    iteration count of the probe solve (see the module docstring).
    """

    nnz = 0
    # perfbench's spans.factor_nnz reads a factor's _lu; ROADMAP item 1
    # drops that hook, and this attribute with it
    _lu = None

    def __init__(self, A):
        A = sp.csr_matrix(A)
        n, m = A.shape
        if n != m:
            raise ValueError(f"matrix is not square: {A.shape}")
        diagonal = A.diagonal()
        if not np.all(np.isfinite(diagonal) & (diagonal > 0.0)):
            raise FactorizationError("nonpositive diagonal, matrix is not SPD")
        self.n = n
        self._A = A
        self._inv_diagonal = 1.0 / diagonal
        probe = np.random.default_rng(_CG_PROBE_SEED).standard_normal(n)
        self.probe_iterations = self._iterate(probe)[1]

    def solve(self, b: np.ndarray) -> np.ndarray:
        if b.shape != (self.n,):
            raise ValueError(f"dimension mismatch: n={self.n}, b has shape {b.shape}")
        return self._iterate(b)[0]

    def _iterate(self, b):
        """(x, iterations) of CG from zero, or FactorizationError."""
        b_norm = math.sqrt(float(b @ b))
        if not math.isfinite(b_norm):
            raise ValueError("right-hand side is not finite")
        x = np.zeros(self.n)
        if b_norm == 0.0:
            return x, 0
        A, inv_diagonal = self._A, self._inv_diagonal
        r = np.array(b, dtype=np.float64)
        z = inv_diagonal * r
        p = z.copy()
        rz = float(r @ z)
        for k in range(1, CG_MAX_ITERATIONS + 1):
            Ap = A @ p
            pAp = float(p @ Ap)
            if not pAp > 0.0:
                raise FactorizationError(
                    f"nonpositive CG curvature at iteration {k}, matrix is not SPD")
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            if math.sqrt(float(r @ r)) <= CG_TOLERANCE * b_norm:
                return x, k
            np.multiply(inv_diagonal, r, out=z)
            rz, rz_old = float(r @ z), rz
            p *= rz / rz_old
            p += z
        raise FactorizationError(
            f"CG missed ||r|| <= {CG_TOLERANCE:g} ||b|| in "
            f"{CG_MAX_ITERATIONS} iterations")


class CSRProduct:
    """``x -> M @ x`` for one CSR matrix ``M`` with float64 data, bit for bit.

    ``M`` is given by its arrays ``indptr``, ``indices`` and ``data`` and
    its number of columns.  They are checked once, here, because the
    sparsetools kernel behind ``csr_matrix @``, which a product calls,
    checks no index; indices are kept as int32 while they fit, as scipy
    keeps them.  The kernel sums each row's stored entries in their
    order, from 0.0, as ``M @ x`` does.  ``x`` is read as float64.
    """

    def __init__(self, indptr, indices, data, n_col: int):
        indptr, indices, data = (np.asarray(a) for a in (indptr, indices, data))
        nnz = len(indices)
        if not (indptr.ndim == indices.ndim == data.ndim == 1
                and np.issubdtype(indptr.dtype, np.signedinteger)
                and np.issubdtype(indices.dtype, np.signedinteger)
                and len(indptr) >= 1 and indptr[0] == 0
                and indptr[-1] == nnz == len(data)
                and np.all(indptr[1:] >= indptr[:-1])
                and (nnz == 0 or 0 <= indices.min() <= indices.max() < n_col)):
            raise ValueError(f"not the CSR arrays of a matrix with {n_col} columns")
        if data.dtype != np.float64:
            raise ValueError(f"expected float64 data, got {data.dtype}")
        index = np.intc if max(nnz, n_col) <= _INTC_MAX else np.int64
        self.indptr = indptr.astype(index, copy=False)
        self.indices = indices.astype(index, copy=False)
        self.data = data
        self.shape = (len(indptr) - 1, n_col)

    def __call__(self, x) -> np.ndarray:
        n_row, n_col = self.shape
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (n_col,):
            raise ValueError(f"dimension mismatch: M is {self.shape}, x has shape {x.shape}")
        y = np.zeros(n_row)
        _sparsetools.csr_matvec(n_row, n_col, self.indptr, self.indices,
                                self.data, x, y)
        return y


def triple_product(R, A) -> sp.csr_matrix:
    """Galerkin product R A R^T, symmetrized; A must be symmetric (unchecked)."""
    if R.shape[1] != A.shape[0] or A.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: R {R.shape}, A {A.shape}")
    B = sp.csr_matrix(R @ A @ R.T)
    B = sp.csr_matrix((B + B.T) * 0.5)
    B.sort_indices()
    return B
