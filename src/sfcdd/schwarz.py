"""Two-level overlapping Schwarz operators.

Variants:
  one_level           sum_i R_i^T D_i A_i^-1 R_i
  additive_two_level  one-level plus the coarse term R_0^T A_0^-1 R_0
  deflated            G^T C^-1 g + F g
  balanced            G^T C^-1 G g + F g
with C^-1 the (weighted) one-level operator, F/G from :mod:`sfcdd.coarse`
and the coarse term always unweighted.  Weightings: none, a scalar
omega_i per subdomain, or the full partition-of-unity diagonals.  The
one-level term is one gather of all overlapped ranges, one local solve
per group of consecutive ranges, and one weighted scatter.  A group
holds at most ``GROUP_UNKNOWNS`` unknowns unless it is a single longer
range; its blocks A_i form one block-diagonal matrix with one
factorization.  Groups whose blocks are bitwise equal share one
factorization.  The diagonal weighting yields a symmetric
operator exactly when every D_i is a multiple of the identity; otherwise
the operator is flagged non-symmetric.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .coarse import CoarseSpace, DeflationOperators
from .linalg import Factorization, factorize
from .partition import Partition

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


# Consecutive overlapped ranges are factorized and solved as one
# block-diagonal matrix while their blocks hold at most this many unknowns
# together.  A SuperLU call costs about 100 us to factorize and 5-8 us to
# solve whatever the block's size, and combine-d4's blocks hold 34 unknowns
# in the median: grouping them halves its local factor time and cuts its
# local solve time by three quarters.  Limits of 2,048 to 16,384 left
# d6-pcg's time (394-unknown blocks) flat and moved its peak memory
# erratically, between 161 and 233 MiB.  Blocks of more than
# GROUP_UNKNOWNS / 2 unknowns, as there, in d1-rich and in perfbench's
# TINY_MODEL (480), stay one per group.
GROUP_UNKNOWNS = 512


def group_starts(lengths) -> list[int]:
    """Where each group of consecutive ranges starts, then ``len(lengths)``.

    A range joins the current group as long as the group's unknowns, the
    sum of its ranges' ``lengths``, stay at most ``GROUP_UNKNOWNS``; a
    longer range is a group of its own.
    """
    starts, total = [0], 0
    for i, m in enumerate(lengths):
        if total and total + m > GROUP_UNKNOWNS:
            starts.append(i)
            total = 0
        total += m
    starts.append(len(lengths))
    return starts


def principal_block(A, ranges):
    """The block-diagonal of ``A[idx][:, idx]`` over consecutive ranges, as CSC.

    ``idx = rng.indices()`` for each of the ``ranges``, whose blocks follow
    one another down the diagonal.  Returns ``(data, indices, indptr, m)``,
    the arrays of the m x m block in CSC with sorted row indices, as
    :class:`sfcdd.linalg.Factorization` takes them.  Cut straight out of
    the arrays of the CSR matrix ``A``: a range's rows are the rows
    ``start..stop-1`` followed by ``0..wrap-1``, a tail that is empty
    unless the range wraps around N, and a mask keeps the entries whose
    column lies in the range.  Rows and columns of each range follow
    those of the ranges before it.  A stable sort by column turns these
    rows into CSC columns with sorted row indices, so no copy of A in CSC
    is needed.
    """
    n, ptr = ranges[0].modulus, A.indptr
    blocks = []
    m = 0  # rows and columns of the ranges before
    for rng in ranges:
        start, length = rng.start, rng.length
        stop, wrap = min(rng.stop, n), max(rng.stop - n, 0)
        # ptr[0] == 0, so the tail's row pointers continue the head's
        rowptr = np.concatenate((ptr[start:stop + 1] - ptr[start],
                                 ptr[1:wrap + 1] + (ptr[stop] - ptr[start])))
        head, tail = slice(ptr[start], ptr[stop]), slice(0, ptr[wrap])
        cols = np.concatenate((A.indices[head], A.indices[tail]))
        vals = np.concatenate((A.data[head], A.data[tail]))
        # position of each column in the range; outside it >= length
        local = (cols - start) % n
        keep = local < length
        kept = np.concatenate(([0], np.cumsum(keep)))
        row = np.repeat(np.arange(m, m + length), np.diff(kept[rowptr]))
        local, vals = local[keep], vals[keep]
        local += m
        blocks.append((vals, row, local))
        m += length
    # a single range's arrays are used as they are: copying them changed
    # the heap's layout enough to raise d6-pcg's peak by 4 MiB
    vals, row, local = (parts[0] if len(parts) == 1 else np.concatenate(parts)
                        for parts in zip(*blocks))
    order = np.argsort(local, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(local, minlength=m))))
    return vals[order], row[order], indptr, m


def block_digest(block) -> bytes:
    """A 16-byte hash of a block's CSC arrays; equal blocks hash equal."""
    data, indices, indptr, _ = block
    h = hashlib.blake2b(digest_size=16)
    for arr in (indptr, indices, data):
        h.update(arr)  # the array's buffer, without a bytes copy
    return h.digest()


def _same_bits(x, y) -> bool:
    """Whether two blocks' CSC arrays are equal bit for bit (0.0 and -0.0 differ)."""
    return all(np.array_equal(a.view(np.uint8), b.view(np.uint8))
               for a, b in zip(x[:3], y[:3]))


def _factorize_distinct(A, groups) -> list[Factorization]:
    """One factorization per group of ranges; bitwise-equal blocks share one.

    A group whose block hashes like an earlier distinct block is compared
    with that block, cut again from ``A``, so no block is kept after its
    factorization and a hash collision never shares a wrong factor.
    """
    factors = []
    distinct: dict[bytes, list[int]] = {}  # digest -> groups factorized
    for i, group in enumerate(groups):
        block = principal_block(A, group)
        key = block_digest(block)
        for j in distinct.get(key, ()):
            if _same_bits(block, principal_block(A, groups[j])):
                factors.append(factors[j])
                break
        else:
            distinct.setdefault(key, []).append(i)
            factors.append(factorize(block))
    return factors


class SchwarzOperator:
    """Immutable preconditioner application; see :func:`setup`.

    ``_factorizations`` holds one factorization per group of consecutive
    ranges (:func:`group_starts`), in order; bitwise-equal groups hold
    the same object.
    """

    def __init__(self, A, part: Partition, coarse: CoarseSpace | None,
                 config: SchwarzConfig):
        self.A = A
        self.config = config
        self.n = part.n

        ranges = part.overlapped
        lengths = [rng.length for rng in ranges]
        # all overlapped ranges back to back; range i is
        # _gather[bounds[i]:bounds[i + 1]]
        self._gather = np.concatenate([rng.indices() for rng in ranges])
        bounds = np.cumsum([0] + lengths)
        # groups of consecutive ranges; group g's block-diagonal solve acts
        # on _gather[_bounds[g]:_bounds[g + 1]]
        groups = group_starts(lengths)
        self._bounds = bounds[groups].tolist()
        # one entry per group; each block is cut and factorized (or
        # matched) before the next is cut; A.tocsr() is A when A is CSR
        self._factorizations = _factorize_distinct(
            A.tocsr(), [ranges[a:b] for a, b in zip(groups, groups[1:])])
        # 1/(number of ranges holding the entry) for every gathered entry:
        # the D_i back to back; omega_i is the largest entry of D_i
        inv = 1.0 / np.bincount(self._gather, minlength=self.n)[self._gather]
        starts = bounds[:-1]
        omega = np.maximum.reduceat(inv, starts)
        # per-entry weight of the gathered local solutions; None = unweighted
        if config.weighting == "omega":
            self._scale = np.repeat(omega, lengths)
        elif config.weighting == "d_matrix":
            self._scale = inv
        else:
            self._scale = None
        # D_i is a multiple of the identity iff its smallest entry is omega_i
        weighting_symmetric = config.weighting != "d_matrix" or np.array_equal(
            np.minimum.reduceat(inv, starts), omega)
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
        # the local solutions are written back into the gathered copy of g,
        # so it must hold float64 (a no-op for float64 input)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {g.shape}")
        variant = self.config.variant
        if variant == "one_level":
            return self._one_level(g)
        F = self._deflation.coarse_correction
        # w and the product A F g are arrays of this call, so they are
        # updated in place; g is never written
        if variant == "additive_two_level":
            w = self._one_level(g)
            w += F(g)
            return w
        if variant == "deflated":
            w = self._one_level(g)
            w -= F(self.A @ w)
            w += F(g)
            return w
        # balanced
        fg = F(g)
        r = self.A @ fg
        w = self._one_level(np.subtract(g, r, out=r))
        w -= F(self.A @ w)
        w += fg
        return w


def factor_nnz(op: SchwarzOperator, coarse: CoarseSpace | None) -> dict:
    """Stored entries of the distinct local factors and of the coarse factor.

    A local factor is that of a group of ranges; a factor that bitwise
    equal groups share counts once.

    A coarse problem solved by CG stores no factor; ``coarse_cg_iterations``
    is then its probe's iteration count, and 0 otherwise.
    """
    distinct = {id(f): f.nnz for f in op._factorizations}
    solver = coarse.factorization if coarse else None
    return {"local_factor_nnz": sum(distinct.values()),
            "coarse_factor_nnz": solver.nnz if solver else 0,
            "coarse_cg_iterations": getattr(solver, "probe_iterations", 0)}


def setup(A, part: Partition, coarse: CoarseSpace | None,
          config: SchwarzConfig) -> SchwarzOperator:
    """Cut and factorize the subdomain blocks, group by group; returns the operator.

    ``A`` must be symmetric and ordered like the partition; ``coarse``
    must have been built from the same matrix and partition.
    """
    if A.shape != (part.n, part.n):
        raise ValueError(f"matrix shape {A.shape} does not match N = {part.n}")
    return SchwarzOperator(A, part, coarse, config)
