"""d-dimensional Hilbert curve indexing.

The discrete Hilbert curve gives a total order on the cells of the
integer lattice [0, 2**bits)**dim in which consecutive cells are always
nearest neighbours (they differ by one step along exactly one axis).
Grid points of anisotropic tensor grids are ordered by embedding them
into the isotropic lattice of the finest axis resolution and encoding
the embedded coordinates.

Keys may need up to 128 bits (e.g. dim=6 at fine levels).  The scalar
:func:`encode`/:func:`decode` pair works on plain Python integers; the
array pair :func:`encode_many`/:func:`decode_many` runs the same
algorithm on whole ``uint64`` arrays of points and holds each key as a
(hi, lo) pair of ``uint64`` words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_KEY_BITS = 128
DIAGNOSTIC_CHUNK = 1 << 16  # keys per array pass of curve_diagnostics
_LOW_WORD = (1 << 64) - 1


@dataclass(frozen=True)
class CurveConfig:
    """Discrete Hilbert curve on the lattice [0, 2**bits)**dim."""

    dim: int
    bits: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if self.bits < 1:
            raise ValueError(f"refinement must be positive, got {self.bits}")
        if self.dim * self.bits > MAX_KEY_BITS:
            raise ValueError(
                f"key width {self.dim * self.bits} exceeds {MAX_KEY_BITS} bits"
            )

    @property
    def key_bits(self) -> int:
        return self.dim * self.bits

    @property
    def side(self) -> int:
        return 1 << self.bits


# The encode/decode pair below works on the "transpose" form of the key:
# the nd key bits, read from the most significant one downwards, are dealt
# out cyclically over the d axis words.  Both directions first fix up the
# per-level rotations/reflections of the recursive construction and then
# apply (or undo) a Gray code.

def _axes_to_transpose(x: list[int], bits: int) -> None:
    n = len(x)
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t


def _transpose_to_axes(x: list[int], bits: int) -> None:
    n = len(x)
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    q = 2
    top = 1 << bits
    while q != top:
        p = q - 1
        for i in range(n - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1


def _pack_transpose(x: list[int], bits: int) -> int:
    key = 0
    for level in range(bits - 1, -1, -1):
        for w in x:
            key = (key << 1) | ((w >> level) & 1)
    return key


def _unpack_transpose(key: int, dim: int, bits: int) -> list[int]:
    x = [0] * dim
    for level in range(bits):
        base = level * dim + dim - 1
        for i in range(dim):
            if (key >> (base - i)) & 1:
                x[i] |= 1 << level
    return x


def encode(coords, cfg: CurveConfig) -> int:
    """Map lattice coordinates to their Hilbert key.

    Bijective from [0, 2**bits)**dim onto [0, 2**(bits*dim)); consecutive
    keys correspond to cells one lattice step apart.
    """
    x = list(coords)
    if len(x) != cfg.dim:
        raise ValueError(f"expected {cfg.dim} coordinates, got {len(x)}")
    side = cfg.side
    for c in x:
        if not 0 <= c < side:
            raise ValueError(f"coordinate {c} outside [0, {side})")
    if cfg.dim == 1:
        return x[0]
    _axes_to_transpose(x, cfg.bits)
    return _pack_transpose(x, cfg.bits)


def decode(key: int, cfg: CurveConfig) -> tuple[int, ...]:
    """Inverse of :func:`encode`."""
    if not 0 <= key < (1 << cfg.key_bits):
        raise ValueError(f"key {key} outside [0, 2**{cfg.key_bits})")
    if cfg.dim == 1:
        return (key,)
    x = _unpack_transpose(key, cfg.dim, cfg.bits)
    _transpose_to_axes(x, cfg.bits)
    return tuple(x)


# The array pair below runs the same transpose algorithm (Skilling,
# "Programming the Hilbert curve", AIP Conf. Proc. 707, 2004) on whole
# (dim, N) uint64 arrays, one point per column; the per-point branch on a
# bit becomes np.where.  Key bit ``level * dim + dim - 1 - i`` holds bit
# ``level`` of transposed word i, in ``lo`` below bit 64 and ``hi`` above.

def _exchange(x: np.ndarray, q: int, order) -> None:
    """One level q of the rotations, every column at once.

    For i in ``order``: where bit q of x[i] is set invert the bits of x[0]
    below q, elsewhere swap them with those of x[i].  No pass changes bit
    q of any word, so both branch masks are read up front.
    """
    p = np.uint64(q - 1)
    flip = np.where(x & np.uint64(q), p, np.uint64(0))
    swap = flip ^ p
    x0 = x[0]
    for i in order:
        if i:
            t = (x0 ^ x[i]) & swap[i]
            x0 ^= t
            x[i] ^= t
        x0 ^= flip[i]


def _check_array_curve(dim: int, bits: int) -> None:
    CurveConfig(dim, bits)
    if bits > 64:
        raise ValueError(f"uint64 coordinates hold at most 64 bits, got {bits}")


def encode_many(coords, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Hilbert keys of the columns of a (dim, N) coordinate array.

    Returns the keys as uint64 words (hi, lo): the key of column k is
    ``int(hi[k]) << 64 | int(lo[k])``, equal to
    ``encode(coords[:, k], CurveConfig(dim, bits))``.
    """
    x = np.array(coords, dtype=np.uint64)  # a copy, transformed in place
    if x.ndim != 2:
        raise ValueError(f"expected a (dim, N) array, got shape {x.shape}")
    dim = x.shape[0]
    _check_array_curve(dim, bits)
    if x.size and x.max() > np.uint64((1 << bits) - 1):
        raise ValueError(f"coordinate outside [0, {1 << bits})")
    if dim > 1:
        q = 1 << (bits - 1)
        while q > 1:
            _exchange(x, q, range(dim))
            q >>= 1
        for i in range(1, dim):
            x[i] ^= x[i - 1]
        # XOR of q - 1 over the set bits q > 1 of x[dim - 1]: the inverse
        # Gray code of x[dim - 1] >> 1
        t = x[dim - 1] >> np.uint64(1)
        shift = 1
        while shift < bits:
            t ^= t >> np.uint64(shift)
            shift <<= 1
        x ^= t
    pos = dim * np.arange(bits)[:, None] + np.arange(dim - 1, -1, -1)
    word = np.uint64(1) << (pos % 64).astype(np.uint64)
    w_lo = np.where(pos < 64, word, np.uint64(0))  # (bits, dim) key weights
    w_hi = np.where(pos < 64, np.uint64(0), word)
    hi = np.zeros_like(x[0])
    lo = np.zeros_like(x[0])
    for level in range(bits):
        bit = (x >> np.uint64(level)) & np.uint64(1)
        lo += w_lo[level] @ bit
        if dim * bits > 64:
            hi += w_hi[level] @ bit
    return hi, lo


def decode_many(key, dim: int, bits: int) -> np.ndarray:
    """Inverse of :func:`encode_many`: the (dim, N) uint64 coordinates of
    the keys given as uint64 words (hi, lo)."""
    _check_array_curve(dim, bits)
    hi, lo = (np.asarray(w, dtype=np.uint64) for w in key)
    key_bits = dim * bits
    if key_bits < 64:
        out = hi.any() or (lo >> np.uint64(key_bits)).any()
    else:
        out = (hi >> np.uint64(key_bits - 64)).any()
    if out:
        raise ValueError(f"key outside [0, 2**{key_bits})")
    x = np.zeros((dim, lo.size), dtype=np.uint64)
    for level in range(bits):
        for i in range(dim):
            pos = level * dim + dim - 1 - i
            word, shift = (lo, pos) if pos < 64 else (hi, pos - 64)
            x[i] |= ((word >> np.uint64(shift)) & np.uint64(1)) << np.uint64(level)
    if dim > 1:
        t = x[dim - 1] >> np.uint64(1)
        for i in range(dim - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        q = 2
        while q != 1 << bits:
            _exchange(x, q, range(dim - 1, -1, -1))
            q <<= 1
    return x


def grid_point_key(multi_index, levels) -> int:
    """Hilbert key of an interior grid point of an anisotropic grid.

    Axis ``j`` of the grid has ``2**levels[j] - 1`` interior points with
    1-based indices.  Coarser axes are embedded into the lattice of the
    finest axis by scaling with ``2**(max(levels) - levels[j])``, which
    keeps the per-axis order and makes distinct points map to distinct
    keys.
    """
    ell = tuple(int(v) for v in levels)
    idx = tuple(int(v) for v in multi_index)
    if len(idx) != len(ell):
        raise ValueError("multi-index and level vector have different lengths")
    for k, lj in zip(idx, ell):
        if not 1 <= k <= (1 << lj) - 1:
            raise ValueError(f"index {k} outside interior range of level {lj}")
    n = max(ell)
    cfg = CurveConfig(len(ell), n)
    coords = tuple((k - 1) << (n - lj) for k, lj in zip(idx, ell))
    return encode(coords, cfg)


def holder_bound(dim: int) -> float:
    """Upper bound 2*sqrt(dim+3) on the Holder quotient of the curve."""
    return 2.0 * math.sqrt(dim + 3)


def random_keys(rng: np.random.Generator, key_bits: int,
                count: int) -> list[int]:
    """``count`` uniform keys in [0, 2**key_bits); works beyond 64 bits.

    Key k is the little-endian integer of the first ceil(key_bits / 8)
    bytes of row k of one uint32 draw, masked to ``key_bits``.  That is
    the byte stream of ``count`` calls of ``rng.bytes(nbytes)``.
    """
    nbytes = (key_bits + 7) // 8
    rows = rng.integers(0, 1 << 32, size=(count, (nbytes + 3) // 4),
                        dtype=np.uint32)
    raw = rows.astype("<u4").tobytes()
    mask = (1 << key_bits) - 1
    return [int.from_bytes(raw[i:i + nbytes], "little") & mask
            for i in range(0, len(raw), 4 * rows.shape[1])]


def holder_estimate(cfg: CurveConfig, samples: int, seed: int = 0) -> float:
    """Empirical Holder quotient of the discrete curve.

    Samples pairs of curve parameters x, y in [0, 1] and returns the
    largest observed |s(x) - s(y)|_2 / |x - y|**(1/dim), with s the
    discrete curve mapped into the unit cube.  Stays below
    :func:`holder_bound` for the Hilbert curve.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    keys = random_keys(rng, cfg.key_bits, 2 * samples)  # pairs (k1, k2)
    if cfg.dim == 1:  # the identity; its keys can outgrow decode_many's 64 bits
        points = [(k,) for k in keys]
    else:
        words = (np.array([k >> 64 for k in keys], dtype=np.uint64),
                 np.array([k & _LOW_WORD for k in keys], dtype=np.uint64))
        points = decode_many(words, cfg.dim, cfg.bits).T.tolist()
    inv_side = 1.0 / cfg.side
    inv_total = math.ldexp(1.0, -cfg.key_bits)
    exponent = 1.0 / cfg.dim
    worst = 0.0
    for k1, k2, p1, p2 in zip(keys[::2], keys[1::2], points[::2], points[1::2]):
        if k1 == k2:
            continue
        dist = math.sqrt(
            sum((a - b) * (a - b) for a, b in zip(p1, p2))
        ) * inv_side
        param = abs(k1 - k2) * inv_total
        worst = max(worst, dist / param**exponent)
    return worst


def curve_diagnostics(cfg: CurveConfig) -> dict:
    """Exhaustive bijectivity and unit-step adjacency check.

    Walks every key of the lattice in order, DIAGNOSTIC_CHUNK keys at a
    time; intended for small ``key_bits`` (the walk visits 2**key_bits
    cells).
    """
    total = 1 << cfg.key_bits
    bijective = True
    adjacent = True
    prev = np.empty((cfg.dim, 0), dtype=np.int64)  # last cell of the chunk before
    for start in range(0, total, DIAGNOSTIC_CHUNK):
        lo = np.arange(start, min(start + DIAGNOSTIC_CHUNK, total),
                       dtype=np.uint64)
        key = (np.zeros_like(lo), lo)
        coords = decode_many(key, cfg.dim, cfg.bits)
        hi2, lo2 = encode_many(coords, cfg.bits)
        bijective &= not hi2.any() and np.array_equal(lo2, lo)
        walk = np.concatenate([prev, coords.astype(np.int64)], axis=1)
        adjacent &= bool(np.all(np.abs(np.diff(walk, axis=1)).sum(axis=0) == 1))
        prev = walk[:, -1:]
    return {"bijective": bijective, "adjacent": adjacent}
