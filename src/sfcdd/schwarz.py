"""Two-level overlapping Schwarz operators.

Variants:
  one_level           sum_i R_i^T D_i A_i^-1 R_i
  additive_two_level  one-level plus the coarse term R_0^T A_0^-1 R_0
  deflated            G^T C^-1 g + F g
  balanced            G^T C^-1 G g + F g
with C^-1 the (weighted) one-level operator, F/G from :mod:`sfcdd.coarse`
and the coarse term always unweighted.  Weightings: none, a scalar
omega_i per subdomain, or the full partition-of-unity diagonals.  The
diagonal weighting yields a symmetric operator exactly when gamma is a
half-integer (uniform overlap counts); other gammas leave it
non-symmetric and the operator is flagged accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarse import CoarseSpace, DeflationOperators, deflation_ops
from .linalg import factorize
from .partition import Partition, compute_weights, is_half_integer

VARIANTS = ("one_level", "additive_two_level", "deflated", "balanced")
WEIGHTINGS = ("none", "omega", "d_matrix")


@dataclass(frozen=True)
class SchwarzConfig:
    variant: str = "balanced"
    weighting: str = "omega"
    gamma: float = 0.5
    q: int = 1

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {self.weighting!r}")


class SchwarzOperator:
    """Immutable preconditioner application; see :func:`setup`."""

    def __init__(self, A, part: Partition, coarse: CoarseSpace | None,
                 config: SchwarzConfig):
        self.A = A
        self.partition = part
        self.coarse = coarse
        self.config = config
        self.n = part.n

        self.weights = compute_weights(part)
        self._indices = [rng.indices() for rng in part.overlapped]
        self._factorizations = [
            factorize(A[idx][:, idx].tocsr()) for idx in self._indices
        ]

        counts_uniform = self.weights.counts.min() == self.weights.counts.max()
        weighting_symmetric = config.weighting != "d_matrix" or (
            is_half_integer(config.gamma) and counts_uniform
        )
        # the deflated operator G^T C^-1 + F projects on one side only and
        # is non-symmetric even for symmetric C
        self.symmetric = weighting_symmetric and config.variant != "deflated"

        if config.variant == "one_level":
            self._deflation = None
        else:
            if coarse is None:
                raise ValueError(f"variant {config.variant!r} needs a coarse space")
            self._deflation: DeflationOperators | None = deflation_ops(coarse, A)

    def subdomain_sizes(self) -> list[int]:
        return [len(idx) for idx in self._indices]

    def _local_solve(self, i: int, g: np.ndarray) -> np.ndarray:
        sol = self._factorizations[i].solve(g[self._indices[i]])
        w = self.config.weighting
        if w == "omega":
            sol = self.weights.omega[i] * sol
        elif w == "d_matrix":
            sol = self.weights.diagonals[i] * sol
        return sol

    def _one_level(self, g: np.ndarray) -> np.ndarray:
        out = np.zeros_like(g)
        # fixed summation order keeps repeated applies bitwise identical
        for i, idx in enumerate(self._indices):
            out[idx] += self._local_solve(i, g)
        return out

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
