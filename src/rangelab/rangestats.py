"""Distinct-site counts and the exact decompositions behind them.

The range of a walk after n steps is the number of distinct sites among
steps 1..n (the starting site only counts if revisited).  Everything in
this module is exact integer combinatorics on sampled paths: prefix
range counts, multi-walk intersections, self-intersections, and two
set-identity decompositions (dyadic tree and binary-digit splitting)
that must reproduce the range without any error at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fastpath import block_sites, pack_positions, prefix_range_counts, sort_by_site
from .walks import WalkPath

__all__ = [
    "RangeStats",
    "DecompositionRecord",
    "IntersectionStats",
    "BlockStats",
    "range_count",
    "p_fold_intersection",
    "self_intersection_count",
    "decomposition_check",
    "block_statistics",
]


def _as_keys(path) -> np.ndarray:
    """Accept a WalkPath or an (n, 2) integer array; return packed keys
    in path order."""
    pos = path.positions if isinstance(path, WalkPath) else np.asarray(path)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError("expected a WalkPath or an (n, 2) position array")
    return pack_positions(pos)


@dataclass
class RangeStats:
    n: int
    count: int
    prefix: np.ndarray | None = None


def range_count(path, with_prefix: bool = False) -> RangeStats:
    """Number of distinct sites hit by steps 1..n.

    With with_prefix=True also returns the full running count, whose
    increments are always 0 or 1."""
    keys = _as_keys(path)
    n = keys.size
    if n == 0:
        return RangeStats(n=0, count=0, prefix=np.empty(0, np.int64) if with_prefix else None)
    if with_prefix:
        pre = prefix_range_counts(keys)
        return RangeStats(n=n, count=int(pre[-1]), prefix=pre)
    return RangeStats(n=n, count=int(np.unique(keys).size))


@dataclass
class IntersectionStats:
    num_walks: int
    lengths: tuple[int, ...]
    count: int


def p_fold_intersection(paths, starts=None) -> IntersectionStats:
    """Number of sites visited by every one of the given walks.

    starts optionally translates each walk (site sets become
    start + range), which is how mutual intersections of walks launched
    from different points are counted."""
    if len(paths) < 2:
        raise ValueError("need at least two walks")
    if starts is None:
        starts = [(0, 0)] * len(paths)
    if len(starts) != len(paths):
        raise ValueError("one start per walk")
    sets = []
    lengths = []
    for path, (sx, sy) in zip(paths, starts):
        pos = path.positions if isinstance(path, WalkPath) else np.asarray(path)
        lengths.append(len(pos))
        if len(pos) == 0:
            sets.append(np.empty(0, np.int64))
            continue
        shifted = pos.astype(np.int64) + np.array([sx, sy], dtype=np.int64)
        sets.append(np.unique(pack_positions(shifted)))
    common = sets[0]
    for s in sets[1:]:
        common = np.intersect1d(common, s, assume_unique=True)
    return IntersectionStats(num_walks=len(paths), lengths=tuple(lengths),
                             count=int(common.size))


def self_intersection_count(path) -> int:
    """Number of pairs i < j (both >= 1) with the walk at the same site."""
    keys = _as_keys(path)
    if keys.size == 0:
        return 0
    _, counts = np.unique(keys, return_counts=True)
    c = counts.astype(np.int64)
    return int((c * (c - 1) // 2).sum())


# ---------------------------------------------------------------------------
# exact decompositions


@dataclass
class DecompositionRecord:
    """Both sides of a set-identity decomposition of the range.

    For the dyadic kind, overlap_counts[j] lists the overlaps between
    sibling half-intervals at tree depth j+1 (coarsest split first).
    For the binary kind, blocks follow the binary digits of n from the
    largest power down, and overlap_counts[0][i] counts sites shared by
    block i and everything after it."""

    kind: str
    n: int
    boundaries: list[int]
    block_counts: list[int]
    overlap_counts: list[list[int]]
    lhs: int
    rhs: int

    @property
    def exact(self) -> bool:
        return self.lhs == self.rhs


def _site_blocks(keys: np.ndarray, boundaries: list[int]):
    """Unique (site, block) pairs of the path cut at the boundaries, as
    (keys, block ids) ordered by key and then block."""
    skeys, times = sort_by_site(keys)
    blocks = np.searchsorted(np.asarray(boundaries[1:]), times, side="right")
    new = block_sites(skeys, blocks)
    return skeys[new], blocks[new]


def _dyadic_record(keys: np.ndarray, levels: int | None) -> DecompositionRecord:
    n = keys.size
    e = n.bit_length() - 1
    if n <= 0 or (1 << e) != n:
        raise ValueError("dyadic decomposition needs a power-of-two length")
    depth = e if levels is None else int(levels)
    if not 0 <= depth <= e:
        raise ValueError("levels out of range")
    # counts[j][i]: distinct sites of the i-th of the 2^j intervals at
    # tree depth j; counts[0][0] is the range itself.
    skeys, times = sort_by_site(keys)
    counts = []
    for j in range(depth + 1):
        blocks = times >> (e - j)
        new = block_sites(skeys, blocks)
        counts.append(np.bincount(blocks[new], minlength=1 << j))
    overlaps = [(c[0::2] + c[1::2] - parent).tolist()
                for parent, c in zip(counts, counts[1:])]
    block_counts = counts[depth].tolist()
    lhs = int(counts[0][0])
    rhs = sum(block_counts) - sum(sum(row) for row in overlaps)
    width = n >> depth
    boundaries = [i * width for i in range((1 << depth) + 1)]
    return DecompositionRecord(kind="dyadic", n=n, boundaries=boundaries,
                               block_counts=block_counts,
                               overlap_counts=overlaps, lhs=lhs, rhs=rhs)


def _binary_record(keys: np.ndarray) -> DecompositionRecord:
    n = keys.size
    if n <= 0:
        raise ValueError("need a nonempty path")
    powers = [1 << b for b in range(n.bit_length() - 1, -1, -1) if n & (1 << b)]
    boundaries = [0]
    for p in powers:
        boundaries.append(boundaries[-1] + p)
    uk, ub = _site_blocks(keys, boundaries)
    block_counts = np.bincount(ub, minlength=len(powers)).tolist()
    # A pair whose next pair has the same key meets a later block, so
    # block i overlaps its suffix in that many sites.
    later = uk[1:] == uk[:-1]
    overlaps = np.bincount(ub[:-1][later], minlength=len(powers))[:-1].tolist()
    lhs = int(uk.size - np.count_nonzero(later))
    rhs = sum(block_counts) - sum(overlaps)
    return DecompositionRecord(kind="binary", n=n, boundaries=boundaries,
                               block_counts=block_counts,
                               overlap_counts=[overlaps], lhs=lhs, rhs=rhs)


def decomposition_check(path, kind: str = "dyadic",
                        levels: int | None = None) -> DecompositionRecord:
    """Evaluate both sides of a range decomposition.

    kind="dyadic": split a power-of-two path into a full binary tree;
    the range equals the sum of leaf-block ranges minus all sibling
    overlaps.  kind="binary": split any n along its binary digits; the
    range equals block ranges minus each block's overlap with its whole
    suffix.  Both are set identities: lhs == rhs for every path, not
    just on average."""
    keys = _as_keys(path)
    if kind == "dyadic":
        return _dyadic_record(keys, levels)
    if kind == "binary":
        return _binary_record(keys)
    raise ValueError(f"unknown decomposition kind {kind!r}")


@dataclass
class BlockStats:
    num_blocks: int
    boundaries: list[int]
    block_counts: list[int]
    adjacent_overlaps: list[int]
    total: int
    pairwise_overlap_sum: int | None = None
    bounds_ok: bool = field(init=False)

    def __post_init__(self):
        ok = self.total <= self.upper_bound
        if self.lower_bound is not None:
            ok = ok and self.total >= self.lower_bound
        self.bounds_ok = ok

    @property
    def upper_bound(self) -> int:
        return sum(self.block_counts)

    @property
    def lower_bound(self) -> int | None:
        if self.pairwise_overlap_sum is None:
            return None
        return self.upper_bound - self.pairwise_overlap_sum


def block_statistics(path, num_blocks: int,
                     pairwise_limit: int = 64) -> BlockStats:
    """Per-block ranges and overlaps for a path cut into num_blocks
    nearly equal pieces (the first n mod K blocks get the extra step).

    Bonferroni sandwich: sum of block ranges minus all pairwise overlaps
    <= range <= sum of block ranges.  The pairwise sum is only computed
    up to pairwise_limit blocks."""
    keys = _as_keys(path)
    n = keys.size
    k = int(num_blocks)
    if k < 1 or k > max(n, 1):
        raise ValueError("num_blocks out of range")
    base, extra = divmod(n, k)
    boundaries = [0]
    for i in range(k):
        boundaries.append(boundaries[-1] + base + (1 if i < extra else 0))
    uk, ub = _site_blocks(keys, boundaries)
    counts = np.bincount(ub, minlength=k).tolist()
    later = uk[1:] == uk[:-1]
    adjacent = np.bincount(ub[1:][later & (ub[1:] == ub[:-1] + 1)],
                           minlength=k)[1:].tolist()
    pairwise = None
    if k <= pairwise_limit:
        # a site met by m blocks lies in C(m, 2) of the pairwise overlaps
        firsts = np.flatnonzero(np.concatenate(([True], ~later)))
        m = np.diff(np.append(firsts, uk.size))
        pairwise = int((m * (m - 1) // 2).sum())
    total = int(uk.size - np.count_nonzero(later))
    return BlockStats(num_blocks=k, boundaries=boundaries, block_counts=counts,
                      adjacent_overlaps=adjacent, total=total,
                      pairwise_overlap_sum=pairwise)
