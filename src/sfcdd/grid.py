"""Anisotropic tensor grids on the unit cube and finite-difference assembly.

A grid is described by a level vector l = (l_1, ..., l_d): axis j has
mesh size 2**-l_j and 2**l_j - 1 interior points.  Homogeneous Dirichlet
boundary values are eliminated, so vectors hold interior values only.
All matrices and sampled vectors are ordered by the Hilbert key of the
grid points (module :mod:`sfcdd.sfc`), which makes SFC partitions plain
contiguous index ranges.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import sfc

MAX_DOFS = 2**62


@dataclass(frozen=True)
class Problem:
    """Right-hand side and (optional) exact solution on a grid.

    ``rhs`` and ``exact_solution`` are vectorized callables mapping an
    (m, d) array of points in the open unit cube to an (m,) array.
    """

    levels: tuple[int, ...]
    rhs: Callable[[np.ndarray], np.ndarray]
    exact_solution: Callable[[np.ndarray], np.ndarray] | None = None


def as_levels(levels) -> tuple[int, ...]:
    ell = tuple(levels)
    if not ell or not all(isinstance(l, numbers.Integral) and l >= 1 for l in ell):
        raise ValueError(
            f"level vector must have positive integer entries, got {levels}")
    return tuple(int(l) for l in ell)


def interior_shape(levels) -> tuple[int, ...]:
    return tuple((1 << l) - 1 for l in as_levels(levels))


def num_dofs(levels) -> int:
    """Number of interior grid points, prod_j (2**l_j - 1)."""
    n = 1
    for l in as_levels(levels):
        n *= (1 << l) - 1
        if n > MAX_DOFS:
            raise OverflowError(f"dof count for levels {levels} exceeds {MAX_DOFS}")
    return n


@lru_cache(maxsize=128)
def sfc_permutation(levels: tuple[int, ...]) -> np.ndarray:
    """Lexicographic point index at each SFC rank.

    ``perm[s]`` is the flat lexicographic index of the interior point
    with the s-th smallest Hilbert key.  The array is cached and shared
    by every caller, so it is read-only.
    """
    levels = as_levels(levels)
    shape = interior_shape(levels)
    if len(levels) == 1:
        perm = np.arange(shape[0], dtype=np.int64)
    else:
        bits = max(levels)
        shifts = np.array([bits - l for l in levels], dtype=np.uint64)
        coords = np.indices(shape, dtype=np.uint64).reshape(len(shape), -1)
        hi, lo = sfc.encode_many(coords << shifts[:, None], bits)
        perm = np.lexsort((lo, hi))
    perm.setflags(write=False)
    return perm


def interior_points(levels) -> np.ndarray:
    """Coordinates of the interior grid points in SFC order, shape (N, d)."""
    levels = as_levels(levels)
    shape = interior_shape(levels)
    axes = [np.arange(1, s + 1, dtype=np.float64) * 2.0**-l
            for s, l in zip(shape, levels)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[sfc_permutation(levels)]


def assemble_laplacian(levels) -> sp.csr_matrix:
    """(2d+1)-point finite-difference matrix of -Laplace in SFC order.

    Diagonal sum_j 2/h_j**2, off-diagonal -1/h_j**2 towards each axis-j
    neighbour; symmetric positive definite.  The stencil is laid out in
    lexicographic numbering, neighbours at +-stride, and its rows and
    columns are mapped to SFC ranks in one COO -> CSR conversion.  The
    COO indices are 32-bit while N fits, as the CSR result's are: the
    index arrays are most of the assembly's peak memory.
    """
    levels = as_levels(levels)
    n = num_dofs(levels)
    shape = interior_shape(levels)
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    lex = np.arange(n, dtype=index).reshape(shape)
    weights = [float(4**l) for l in levels]
    rows = [lex.ravel()]
    cols = [lex.ravel()]
    vals = [np.full(n, 2.0 * sum(weights))]
    for j, w in enumerate(weights):
        upper = np.delete(lex, 0, axis=j).ravel()  # points with a -e_j neighbour
        lower = upper - int(np.prod(shape[j + 1:], dtype=np.int64))
        rows += [upper, lower]
        cols += [lower, upper]
        vals.append(np.full(2 * upper.size, -w))
    perm = sfc_permutation(levels)
    rank = np.empty(n, dtype=index)
    rank[perm] = np.arange(n, dtype=index)
    A = sp.coo_matrix(
        (np.concatenate(vals),
         (rank[np.concatenate(rows)], rank[np.concatenate(cols)])),
        shape=(n, n)).tocsr()
    A.sort_indices()
    return A


def scaled_laplacian(levels):
    """:func:`assemble_laplacian` scaled in place to unit diagonal: (A_hat, t).

    Its diagonal is the one value 2 sum_j 4**l_j, so T = t I and each
    entry becomes (a_ij t) t, bit for bit ``symmetrize_diag``'s A_hat.
    """
    levels = as_levels(levels)
    A = assemble_laplacian(levels)
    t = 1.0 / np.sqrt(2.0 * sum(float(4**l) for l in levels))
    A.data *= t
    A.data *= t
    return A, t


def symmetrize_diag(A, b):
    """Two-sided diagonal scaling to unit diagonal.

    Returns (A_hat, b_hat, t) with A_hat = T A T, b_hat = T b and
    T = diag(t) = diag(A)**-1/2; solutions map back via x = t * x_hat.
    A_hat is CSR with A's sparsity pattern and each stored entry scaled
    to (t_i a_ij) t_j, which rounds as diag(t) @ A @ diag(t) does.  As in
    that product, entries that scale to zero are dropped; duplicate
    entries are summed after scaling.  A is not modified.
    """
    A = sp.csr_matrix(A)
    d = np.asarray(A.diagonal())
    if not np.all(np.isfinite(d) & (d > 0.0)):
        raise ValueError("matrix has a nonpositive or non-finite diagonal entry")
    t = 1.0 / np.sqrt(d)
    data = np.repeat(t, np.diff(A.indptr)) * A.data * t[A.indices]
    A_hat = sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()),
                          shape=A.shape)
    A_hat.sum_duplicates()
    A_hat.eliminate_zeros()
    return A_hat, t * np.asarray(b, dtype=np.float64), t


def manufactured_poisson(levels) -> Problem:
    """Poisson problem whose solution is |x|_2 * prod_i sin(pi x_i).

    The solution vanishes on the boundary of the unit cube, so the
    Dirichlet data is homogeneous; the right-hand side is the negative
    Laplacian of the closed form.
    """
    levels = as_levels(levels)
    d = len(levels)

    def exact(points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        r = np.linalg.norm(x, axis=1)
        return r * np.prod(np.sin(np.pi * x), axis=1)

    def rhs(points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        s = np.sin(np.pi * x)
        c = np.cos(np.pi * x)
        g = np.prod(s, axis=1)
        r = np.linalg.norm(x, axis=1)
        u = r * g
        cross = np.zeros_like(r)
        for i in range(d):
            others = np.prod(np.delete(s, i, axis=1), axis=1)
            cross += x[:, i] / r * c[:, i] * others
        return -(g * (d - 1) / r + 2.0 * np.pi * cross - d * np.pi**2 * u)

    return Problem(levels, rhs, exact)


def sample_on_grid(func, levels) -> np.ndarray:
    """Point values of a vectorized callable at the interior points, SFC order."""
    return np.asarray(func(interior_points(levels)), dtype=np.float64)


def scatter_to_lex(levels, values_sfc: np.ndarray) -> np.ndarray:
    """Reshape an SFC-ordered vector to the lexicographic d-dim array."""
    levels = as_levels(levels)
    shape = interior_shape(levels)
    out = np.empty(int(np.prod(shape)), dtype=np.float64)
    out[sfc_permutation(levels)] = values_sfc
    return out.reshape(shape)
