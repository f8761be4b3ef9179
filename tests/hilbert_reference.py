"""Scalar Hilbert encode/decode on Python integers: the test oracle.

The reference for ``sfc.encode_many``/``sfc.decode_many`` (and through
them for ``grid.sfc_permutation`` and the ``sfc-check`` spot check).
It runs Skilling's transpose algorithm one point at a time, so it shares
no array code with the implementation it checks.
"""

from __future__ import annotations

import numbers

from sfcdd.sfc import CurveConfig


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



def grid_point_key(multi_index, levels) -> int:
    """Hilbert key of an interior grid point of an anisotropic grid.

    Axis ``j`` of the grid has ``2**levels[j] - 1`` interior points with
    1-based indices.  Coarser axes are embedded into the lattice of the
    finest axis by scaling with ``2**(max(levels) - levels[j])``, which
    keeps the per-axis order and makes distinct points map to distinct
    keys.
    """
    ell, idx = tuple(levels), tuple(multi_index)
    if not all(isinstance(v, numbers.Integral) for v in ell + idx):
        raise ValueError(f"level vector {levels} and multi-index {multi_index} "
                         "must have integer entries")
    ell, idx = tuple(int(v) for v in ell), tuple(int(v) for v in idx)
    if len(idx) != len(ell):
        raise ValueError("multi-index and level vector have different lengths")
    for k, lj in zip(idx, ell):
        if not 1 <= k <= (1 << lj) - 1:
            raise ValueError(f"index {k} outside interior range of level {lj}")
    n = max(ell)
    cfg = CurveConfig(len(ell), n)
    coords = tuple((k - 1) << (n - lj) for k, lj in zip(idx, ell))
    return encode(coords, cfg)
