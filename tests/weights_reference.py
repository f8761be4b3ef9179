"""Partition-of-unity weights computed range by range: the test oracle.

The reference for the weights ``schwarz.SchwarzOperator`` derives from
its own gather: ``diagonals[i]`` is its D_i and ``omega[i]`` its scalar
weight for range i.  It builds every range's index list on its own and
shares no code with the operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sfcdd.partition import Partition


@dataclass(frozen=True)
class OverlapWeights:
    """Partition-of-unity weights over the overlapped ranges.

    ``counts[j]`` is the number of overlapped ranges containing global
    index j; ``diagonals[i]`` holds 1/count restricted to range i, and
    ``omega[i]`` is its maximum.  Summing the extended diagonals always
    reproduces the identity.
    """

    counts: np.ndarray
    diagonals: tuple[np.ndarray, ...]
    omega: np.ndarray


def compute_weights(p: Partition) -> OverlapWeights:
    indices = [rng.indices() for rng in p.overlapped]
    counts = np.bincount(np.concatenate(indices), minlength=p.n)
    diagonals = tuple(1.0 / counts[idx] for idx in indices)
    omega = np.array([d.max() for d in diagonals])
    return OverlapWeights(counts, diagonals, omega)
