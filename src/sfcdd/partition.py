"""Partitions of the SFC-ordered unknowns with cyclic overlap.

The N unknowns, totally ordered by their Hilbert key, are first split
into P consecutive disjoint ranges whose sizes differ by at most one.
Each range is then enlarged by an overlap parameter gamma: floor(gamma)
whole neighbouring ranges on either side plus fractional slices of the
next ones, with the enumeration closed cyclically.  Ranges are stored as
(start, length) pairs, never as materialized index lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class CyclicRange:
    """Contiguous index range modulo ``modulus``; may wrap around."""

    start: int
    length: int
    modulus: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.modulus:
            raise ValueError(f"start {self.start} outside [0, {self.modulus})")
        if not 0 <= self.length <= self.modulus:
            raise ValueError(f"length {self.length} outside [0, {self.modulus}]")

    @property
    def stop(self) -> int:
        return self.start + self.length

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop, dtype=np.int64) % self.modulus


def disjoint_partition(n: int, p: int) -> list[CyclicRange]:
    """P consecutive ranges tiling [0, N); the first N mod P get one extra index."""
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= P <= N, got P={p}, N={n}")
    base, extra = divmod(n, p)
    ranges = []
    start = 0
    for i in range(p):
        size = base + 1 if i < extra else base
        ranges.append(CyclicRange(start, size, n))
        start += size
    return ranges


def read_gamma(gamma) -> Fraction:
    """The overlap gamma as the nearest fraction with denominator <= 10**6.

    Every reader of gamma goes through here, so NaN, +-inf and negative
    values fail with one message.
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    # exact arithmetic for the fractional slice sizes; 0.2*15 in floats
    # would already put ceil on the wrong side
    return Fraction(gamma).limit_denominator(10**6)


def overlap_fits(p: int, gamma) -> bool:
    """Whether P subdomains admit overlap gamma, i.e. 2*gamma+1 <= P exactly."""
    return 2 * read_gamma(gamma) + 1 <= p


def enlarge(disjoint: list[CyclicRange], gamma) -> list[CyclicRange]:
    """Overlapped ranges: each disjoint range grown by gamma neighbours per side.

    Whole neighbouring ranges for the integer part of gamma; for the
    fractional part eta, the last ceil(eta*size) indices of the next
    range to the left and the first floor(eta*size) of the next range to
    the right, cyclically.
    """
    p = len(disjoint)
    n = disjoint[0].modulus
    g = read_gamma(gamma)
    if g == 0:
        return list(disjoint)
    if not overlap_fits(p, gamma):
        raise ValueError(f"2*gamma+1 = {float(2 * g + 1):g} exceeds P = {p}")
    whole = math.floor(g)
    eta = g - whole
    sizes = [r.length for r in disjoint]
    out = []
    for i in range(p):
        left = sum(sizes[(i - k) % p] for k in range(1, whole + 1))
        right = sum(sizes[(i + k) % p] for k in range(1, whole + 1))
        if eta > 0:
            left += math.ceil(eta * sizes[(i - whole - 1) % p])
            right += math.floor(eta * sizes[(i + whole + 1) % p])
        length = sizes[i] + left + right
        assert length <= n
        out.append(CyclicRange((disjoint[i].start - left) % n, length, n))
    return out


@dataclass(frozen=True)
class Partition:
    """Disjoint and overlapped SFC index ranges for P subdomains."""

    n: int
    p: int
    gamma: float
    disjoint: tuple[CyclicRange, ...]
    overlapped: tuple[CyclicRange, ...]


def build_partition(n: int, p: int, gamma) -> Partition:
    disjoint = disjoint_partition(n, p)
    overlapped = enlarge(disjoint, gamma)
    return Partition(n, p, float(gamma), tuple(disjoint), tuple(overlapped))
