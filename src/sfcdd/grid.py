"""Anisotropic tensor grids on the unit cube and finite-difference assembly.

A grid is described by a level vector l = (l_1, ..., l_d): axis j has
mesh size 2**-l_j and 2**l_j - 1 interior points.  Homogeneous Dirichlet
boundary values are eliminated, so vectors hold interior values only.
All matrices and sampled vectors are ordered by the Hilbert key of the
grid points (module :mod:`sfcdd.sfc`), which makes SFC partitions plain
contiguous index ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
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
    ell = tuple(int(v) for v in levels)
    if not ell or any(l < 1 for l in ell):
        raise ValueError(f"level vector must have positive entries, got {levels}")
    return ell


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
    n = int(np.prod(shape))
    if len(levels) == 1:
        perm = np.arange(n, dtype=np.int64)
    else:
        keys = [
            sfc.grid_point_key(tuple(i + 1 for i in idx), levels)
            for idx in product(*(range(s) for s in shape))
        ]
        perm = np.fromiter(sorted(range(n), key=keys.__getitem__),
                           dtype=np.int64, count=n)
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
    neighbour; symmetric positive definite.
    """
    levels = as_levels(levels)
    num_dofs(levels)
    shape = interior_shape(levels)
    A = None
    for j, (s, l) in enumerate(zip(shape, levels)):
        w = float(4**l)
        T = sp.diags(
            [-w * np.ones(s - 1), 2.0 * w * np.ones(s), -w * np.ones(s - 1)],
            offsets=[-1, 0, 1], format="csr",
        )
        left = int(np.prod(shape[:j], dtype=np.int64))
        right = int(np.prod(shape[j + 1:], dtype=np.int64))
        term = sp.kron(sp.kron(sp.eye(left), T), sp.eye(right), format="csr")
        A = term if A is None else A + term
    perm = sfc_permutation(levels)
    A = sp.csr_matrix(A)[perm][:, perm].tocsr()
    A.sort_indices()
    return A


def symmetrize_diag(A, b):
    """Two-sided diagonal scaling to unit diagonal.

    Returns (A_hat, b_hat, t) with A_hat = T A T, b_hat = T b and
    T = diag(t) = diag(A)**-1/2; solutions map back via x = t * x_hat.
    """
    d = np.asarray(A.diagonal())
    if np.any(d <= 0.0):
        raise ValueError("matrix has a nonpositive diagonal entry")
    t = 1.0 / np.sqrt(d)
    T = sp.diags(t)
    A_hat = sp.csr_matrix(T @ A @ T)
    A_hat.sort_indices()
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
