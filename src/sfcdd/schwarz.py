"""Two-level overlapping Schwarz operators.

Variants:
  one_level           sum_i R_i^T D_i A_i^-1 R_i
  additive_two_level  one-level plus the coarse term R_0^T A_0^-1 R_0
  deflated            G^T C^-1 g + F g
  balanced            G^T C^-1 G g + F g
with C^-1 the (weighted) one-level operator, F/G from :mod:`sfcdd.coarse`
and the coarse term always unweighted.  Weightings: none, a scalar
omega_i per subdomain, or the full partition-of-unity diagonals.  The
one-level term is one gather of all overlapped ranges, P local solves
and one weighted scatter.  The diagonal weighting yields a symmetric
operator exactly when every D_i is a multiple of the identity; otherwise
the operator is flagged non-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coarse import CoarseSpace, DeflationOperators
from .linalg import factorize
from .partition import CyclicRange, Partition, compute_weights

VARIANTS = ("one_level", "additive_two_level", "deflated", "balanced")
WEIGHTINGS = ("none", "omega", "d_matrix")


@dataclass(frozen=True)
class SchwarzConfig:
    variant: str = "balanced"
    weighting: str = "omega"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {self.weighting!r}")


def principal_block(A, rng: CyclicRange) -> sp.csc_matrix:
    """The block ``A[idx][:, idx]`` for ``idx = rng.indices()``, in CSC.

    Cut straight out of the arrays of the CSR matrix ``A``: the range's
    rows are one slice of them (two for a range that wraps around N) and
    a mask keeps the entries whose column lies in the range.  A stable
    sort by column turns these rows into CSC columns with sorted row
    indices, so no copy of A in CSC is needed.
    """
    n, start, m = rng.modulus, rng.start, rng.length
    ptr, cols, vals = A.indptr, A.indices, A.data
    if rng.stop <= n:
        rowptr = ptr[start:start + m + 1] - ptr[start]
        cut = slice(ptr[start], ptr[start + m])
        cols, vals = cols[cut], vals[cut]
    else:
        wrap = rng.stop - n
        rowptr = np.concatenate((ptr[start:n] - ptr[start],
                                 ptr[:wrap + 1] + (ptr[n] - ptr[start])))
        head, tail = slice(ptr[start], ptr[n]), slice(0, ptr[wrap])
        cols = np.concatenate((cols[head], cols[tail]))
        vals = np.concatenate((vals[head], vals[tail]))
    # local position of each column; columns outside the range land >= m
    local = (cols - start) % n
    keep = local < m
    kept = np.concatenate(([0], np.cumsum(keep)))
    row = np.repeat(np.arange(m), np.diff(kept[rowptr]))
    local, vals = local[keep], vals[keep]
    order = np.argsort(local, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(local, minlength=m))))
    return sp.csc_matrix((vals[order], row[order], indptr), shape=(m, m))


class SchwarzOperator:
    """Immutable preconditioner application; see :func:`setup`."""

    def __init__(self, A, part: Partition, coarse: CoarseSpace | None,
                 config: SchwarzConfig):
        self.A = A
        self.partition = part
        self.coarse = coarse
        self.config = config
        self.n = part.n

        weights = compute_weights(part)
        ranges = part.overlapped
        # all overlapped ranges back to back; block i is
        # _gather[_bounds[i]:_bounds[i + 1]]
        self._gather = np.concatenate([rng.indices() for rng in ranges])
        self._bounds = np.cumsum([0] + [rng.length for rng in ranges]).tolist()
        # each block is cut and factorized before the next is cut
        csr = A.tocsr()  # A itself when it is CSR
        self._factorizations = [factorize(principal_block(csr, rng))
                                for rng in ranges]
        # per-entry weight of the gathered local solutions; None = unweighted
        if config.weighting == "omega":
            self._scale = np.repeat(weights.omega, np.diff(self._bounds))
        elif config.weighting == "d_matrix":
            self._scale = np.concatenate(weights.diagonals)
        else:
            self._scale = None

        weighting_symmetric = config.weighting != "d_matrix" or all(
            d.min() == d.max() for d in weights.diagonals)
        # the deflated operator G^T C^-1 + F projects on one side only and
        # is non-symmetric even for symmetric C
        self.symmetric = weighting_symmetric and config.variant != "deflated"

        if config.variant == "one_level":
            self._deflation = None
        else:
            if coarse is None:
                raise ValueError(f"variant {config.variant!r} needs a coarse space")
            self._deflation = DeflationOperators(coarse, A)

    def _one_level(self, g: np.ndarray) -> np.ndarray:
        y = g[self._gather]
        bounds = self._bounds
        for f, a, b in zip(self._factorizations, bounds, bounds[1:]):
            y[a:b] = f.solve(y[a:b])
        if self._scale is not None:
            y *= self._scale
        # bincount adds in gather order, i.e. subdomain by subdomain, so
        # repeated applies are bitwise identical
        return np.bincount(self._gather, weights=y, minlength=self.n)

    def apply(self, g: np.ndarray) -> np.ndarray:
        if g.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {g.shape}")
        variant = self.config.variant
        if variant == "one_level":
            return self._one_level(g)
        F = self._deflation.coarse_correction
        if variant == "additive_two_level":
            return self._one_level(g) + F(g)
        if variant == "deflated":
            w = self._one_level(g)
            return w - F(self.A @ w) + F(g)
        # balanced
        fg = F(g)
        w = self._one_level(g - self.A @ fg)
        return w - F(self.A @ w) + fg


def setup(A, part: Partition, coarse: CoarseSpace | None,
          config: SchwarzConfig) -> SchwarzOperator:
    """Extract and factorize all subdomain blocks; returns the operator.

    ``A`` must be symmetric and ordered like the partition; ``coarse``
    must have been built from the same matrix and partition.
    """
    if A.shape != (part.n, part.n):
        raise ValueError(f"matrix shape {A.shape} does not match N = {part.n}")
    return SchwarzOperator(A, part, coarse, config)
