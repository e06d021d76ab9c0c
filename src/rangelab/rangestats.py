"""Distinct-site counts and the exact decompositions behind them.

The range of a walk after n steps is the number of distinct sites among
steps 1..n (the starting site only counts if revisited).  Everything in
this module is exact integer combinatorics on sampled paths: range
counts and two set-identity decompositions (dyadic tree and
binary-digit splitting) that must reproduce the range without any error
at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fastpath import block_sites, distinct, pack_positions, sort_by_site
from .walks import WalkPath

__all__ = [
    "RangeStats",
    "DecompositionRecord",
    "DecompositionBatch",
    "range_count",
    "decomposition_check",
    "batch_decompositions",
]


def _as_keys(path) -> np.ndarray:
    """Accept a WalkPath or an (n, 2) integer array; return packed keys
    in path order."""
    pos = path.positions if isinstance(path, WalkPath) else np.asarray(path)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError("expected a WalkPath or an (n, 2) position array")
    return pack_positions(pos)


class RangeStats:
    def __init__(self, n: int, count: int):
        self.n = n
        self.count = count


def range_count(path) -> RangeStats:
    """Number of distinct sites hit by steps 1..n."""
    keys = _as_keys(path)
    return RangeStats(n=keys.size, count=int(distinct(keys).size))


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


class DecompositionBatch:
    """One decomposition of every row of a block of n-step walks.

    block_counts is (rows, blocks); overlap_counts holds one (rows, m)
    array per tree depth (dyadic) or one array (binary), laid out as in
    DecompositionRecord; lhs and rhs are (rows,).  record(i) is row i."""

    def __init__(self, kind: str, n: int, boundaries: list[int],
                 block_counts: np.ndarray, overlap_counts: list,
                 lhs: np.ndarray, rhs: np.ndarray):
        self.kind = kind
        self.n = n
        self.boundaries = boundaries
        self.block_counts = block_counts
        self.overlap_counts = overlap_counts
        self.lhs = lhs
        self.rhs = rhs

    def record(self, i: int) -> DecompositionRecord:
        return DecompositionRecord(
            kind=self.kind, n=self.n, boundaries=list(self.boundaries),
            block_counts=self.block_counts[i].tolist(),
            overlap_counts=[o[i].tolist() for o in self.overlap_counts],
            lhs=int(self.lhs[i]), rhs=int(self.rhs[i]))


def _step_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(steps, fresh) of a (rows, n) array of keys: sort_by_site's times
    as flat step numbers, step t of row r being r n + t, and its mask."""
    times, fresh = sort_by_site(keys)
    times += (np.arange(keys.shape[0]) * keys.shape[1])[:, None]
    return times.reshape(-1), fresh


def _site_blocks(steps: np.ndarray, fresh: np.ndarray, rows: int, n: int,
                 boundaries: list[int]):
    """Unique (site, block) pairs of every row cut at the boundaries: their
    block ids r k + block for k blocks a row, ordered by row, key and
    block, and the mask of the pairs whose next pair has the same site
    in the same row.  Row r's block ends, shifted by r n, number step
    r n + t that way."""
    ends = (np.arange(rows)[:, None] * n + boundaries[1:]).reshape(-1)
    ids = np.searchsorted(ends, steps, side="right")
    new = block_sites(fresh, ids)
    # np.compress: a boolean index takes about three times as long
    return np.compress(new, ids), ~np.compress(new, fresh)[1:]


def _dyadic_batch(steps: np.ndarray, fresh: np.ndarray, rows: int, n: int,
                  levels: int | None) -> DecompositionBatch:
    e = n.bit_length() - 1
    if n <= 0 or (1 << e) != n:
        raise ValueError("dyadic decomposition needs a power-of-two length")
    depth = e if levels is None else int(levels)
    if not 0 <= depth <= e:
        raise ValueError("levels out of range")
    # step t of row r is r << e | t, so its interval at tree depth j,
    # shifted right by e - j, is r << j | block
    ids = np.empty_like(steps)
    # counts[j][r, i]: distinct sites of row r's i-th of the 2^j
    # intervals at depth j; counts[0][:, 0] is the range itself
    counts = []
    for j in range(depth + 1):
        np.right_shift(steps, e - j, out=ids)
        counts.append(np.bincount(np.compress(block_sites(fresh, ids), ids),
                                  minlength=rows << j).reshape(rows, 1 << j))
    overlaps = [c[:, 0::2] + c[:, 1::2] - parent
                for parent, c in zip(counts, counts[1:])]
    rhs = counts[depth].sum(axis=1)
    for o in overlaps:
        rhs -= o.sum(axis=1)
    width = n >> depth
    return DecompositionBatch(
        kind="dyadic", n=n, boundaries=[i * width for i in range((1 << depth) + 1)],
        block_counts=counts[depth], overlap_counts=overlaps,
        lhs=counts[0][:, 0], rhs=rhs)


def _binary_batch(steps: np.ndarray, fresh: np.ndarray, rows: int,
                  n: int) -> DecompositionBatch:
    if n <= 0:
        raise ValueError("need a nonempty path")
    powers = [1 << b for b in range(n.bit_length() - 1, -1, -1) if n & (1 << b)]
    boundaries = [0]
    for p in powers:
        boundaries.append(boundaries[-1] + p)
    k = len(powers)
    ub, later = _site_blocks(steps, fresh, rows, n, boundaries)
    block_counts = np.bincount(ub, minlength=rows * k).reshape(rows, k)
    # A pair whose next pair has its site meets a later block, so block i
    # overlaps its suffix in that many sites.
    overlaps = np.bincount(np.compress(later, ub[:-1]),
                           minlength=rows * k).reshape(rows, k)[:, :-1]
    lhs = np.count_nonzero(fresh.reshape(rows, n), axis=1)
    rhs = block_counts.sum(axis=1) - overlaps.sum(axis=1)
    return DecompositionBatch(kind="binary", n=n, boundaries=boundaries,
                              block_counts=block_counts,
                              overlap_counts=[overlaps], lhs=lhs, rhs=rhs)


def batch_decompositions(keys: np.ndarray, kinds=("dyadic",),
                         levels: int | None = None) -> dict:
    """Every decomposition of kinds (see decomposition_check) of every
    row of a (rows, n) array of site keys (_fastpath.pack_positions), as
    {kind: DecompositionBatch}.  One stable row-wise argsort and one
    site mask serve every kind; each dyadic depth and the binary split
    then take one bincount over row-numbered block ids."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2:
        raise ValueError("expected a (rows, n) array of keys")
    for kind in kinds:
        if kind not in ("dyadic", "binary"):
            raise ValueError(f"unknown decomposition kind {kind!r}")
    rows, n = keys.shape
    steps, fresh = _step_order(keys)
    return {kind: (_dyadic_batch(steps, fresh, rows, n, levels) if kind == "dyadic"
                   else _binary_batch(steps, fresh, rows, n))
            for kind in kinds}


def decomposition_check(path, kind: str = "dyadic",
                        levels: int | None = None) -> DecompositionRecord:
    """Evaluate both sides of a range decomposition.

    kind="dyadic": split a power-of-two path into a full binary tree;
    the range equals the sum of leaf-block ranges minus all sibling
    overlaps.  kind="binary": split any n along its binary digits; the
    range equals block ranges minus each block's overlap with its whole
    suffix.  Both are set identities: lhs == rhs for every path, not
    just on average.  The one-row case of batch_decompositions."""
    keys = _as_keys(path)
    return batch_decompositions(keys[None], (kind,), levels)[kind].record(0)
