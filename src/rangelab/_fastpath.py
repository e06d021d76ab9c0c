"""Hot loops, one vectorized numpy implementation each.

The site counters and the block kernel are property-tested against
Python-set recounts; the enumeration kernel is independent of the renewal
recursion, so its agreement with the exact table is a real cross-check.

Sites have one key format, pack_positions: (x, y) is the int64 key
(x << 32) + y + 2^31.  Its low 32 bits hold y + 2^31, so it is injective
for int32 coordinates, and it is linear in the position.
"""

from __future__ import annotations

import numpy as np

from .walks import COORD_LIMIT

_PAIR_CHUNK = 1 << 18  # lookups held at once by shift_overlaps
# walk steps held at once by every block loop over replicas
# (replica_blocks): the ladder's index and counting buffers, 32 bytes a
# step, stay in a 4 MB L2 cache; smaller blocks cost more Python per step
_BLOCK_STEPS = 1 << 16
_BOX_CELLS_PER_STEP = 64  # bitmap bytes allowed per step counted
_POWER_BLOCK = 64  # consecutive k per block in log_power_sums
_POWER_COLUMNS = 1 << 14  # distinct la values held at once by log_power_sums
_ENUM_LEAVES = 1 << 15  # path prefixes held at once by enum_walk_moments

__all__ = [
    "distinct",
    "pack_positions",
    "prefix_range_counts",
    "batch_range_counts",
    "sort_by_site",
    "block_sites",
    "shift_overlaps",
    "log_power_sums",
    "enum_walk_moments",
]


def replica_blocks(start: int, stop: int, n: int):
    """Consecutive ranges that split the replicas start..stop - 1 into
    blocks of _BLOCK_STEPS steps of n-step walks (one replica when a
    walk is longer); the first block is the largest.  The budget is
    read at call time."""
    block = max(1, _BLOCK_STEPS // max(n, 1))
    for lo in range(start, stop, block):
        yield range(lo, min(lo + block, stop))


def distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values): the sorted distinct entries, flattened, from
    one sort and one mask.  A plain np.unique call imports numpy.ma,
    which nothing here uses and which takes about 17 ms to import."""
    flat = np.sort(np.asarray(values).reshape(-1))
    fresh = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=fresh[1:])
    return flat[fresh]


def pack_positions(pos: np.ndarray) -> np.ndarray:
    """(..., 2) integer positions -> int64 keys of shape (...)."""
    keys = pos[..., 0].astype(np.int64)
    keys <<= 32
    keys += pos[..., 1]
    keys += 1 << 31
    return keys


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """Invert pack_positions back to (n, 2) int64 coordinates."""
    y = keys & 0xFFFFFFFF
    y -= 1 << 31
    return np.stack([keys >> 32, y], axis=1)


# ---------------------------------------------------------------------------
# distinct-site counting


def prefix_range_counts(keys: np.ndarray) -> np.ndarray:
    """out[m] = number of distinct keys among keys[0..m]."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return np.searchsorted(first, np.arange(1, keys.size + 1),
                           side="left").astype(np.int64)


def batch_range_counts(idx2d: np.ndarray, sup_x: np.ndarray, sup_y: np.ndarray,
                       lengths=None) -> np.ndarray:
    """Distinct-site counts for a batch of walks given step indices.

    idx2d has one row of support indices per replica; each row is walked
    from the origin, which is not counted.  Returns int64 counts of the
    whole rows, or, given prefix lengths, an array (rows, len(lengths))
    whose column i counts the first lengths[i] steps of every row;
    lengths may come in any order and repeat.

    Rows are counted in blocks of _BLOCK_STEPS steps (replica_blocks),
    so one block bounds the memory counting takes.
    sample_range_ladder samples blocks of the same size, and each of
    them is counted here in one pass while it is still in cache.  A
    block is counted on an occupancy bitmap that gives every row its own
    stretch over its bounding box; the prefixes are marked on it in
    increasing order and counted after each.  A row whose box holds more
    than _BOX_CELLS_PER_STEP cells per step (long-step laws) is counted
    by sorting its keys instead, which bounds the bitmap at that many
    bytes per step.

    Rows that could leave the int32 box (n * max step > COORD_LIMIT, as
    in walks.check_walk_length) raise OverflowError.  A block's steps
    are taken from one packed table, (dx << 32) + dy, and summed by one
    cumsum from 2^31: the cumsum is pack_positions of the walk."""
    rows, n = idx2d.shape
    ends = np.array([n] if lengths is None else lengths, dtype=np.int64)
    if ends.size == 0 or ends.min() < 0 or ends.max() > n:
        raise ValueError(f"prefix lengths must lie in 0..{n}")
    stops, pick = np.unique(ends, return_inverse=True)
    counts = np.zeros((rows, stops.size), dtype=np.int64)
    if n and rows:
        sup_x = np.asarray(sup_x, dtype=np.int64)
        sup_y = np.asarray(sup_y, dtype=np.int64)
        k = sup_x.size
        if n * int(max(np.abs(sup_x).max(), np.abs(sup_y).max())) > COORD_LIMIT:
            raise OverflowError(f"{n}-step walks can leave the int32 box")
        table = (sup_x << 32) + sup_y
        for js in replica_blocks(0, rows, n):
            if not js.start:  # one block's keys, their x and their y
                bufs = np.empty((3, len(js), n), dtype=np.int64)
            idx = idx2d[js.start:js.stop].astype(np.int64, casting="same_kind",
                                                 copy=False)
            # one pass: a negative index reads as a huge unsigned one
            if idx.view(np.uint64).max() >= k:
                raise IndexError(f"step indices must lie in 0..{k - 1}")
            keys, x, y = bufs[:, :len(js)]
            np.take(table, idx, out=keys, mode="clip")
            keys[:, 0] += 1 << 31
            np.cumsum(keys, axis=1, out=keys)
            np.right_shift(keys, 32, out=x)
            np.bitwise_and(keys, 0xFFFFFFFF, out=y)
            counts[js.start:js.stop] = _chunk_counts(keys, x, y, stops)
    counts = counts[:, pick]
    return counts[:, 0] if lengths is None else counts


def _chunk_counts(keys: np.ndarray, x: np.ndarray, y: np.ndarray,
                  stops: np.ndarray) -> np.ndarray:
    """counts[r, i] = distinct sites among row r's first stops[i] keys,
    for sorted distinct stops, given the keys' halves x = keys >> 32 and
    y = keys & 0xFFFFFFFF.  Called on one block of rows, whose keys,
    once the wide rows are counted, are overwritten as the scratch of
    the bitmap cells; the bitmap takes at most _BOX_CELLS_PER_STEP bytes
    per step, so one block bounds the memory counting takes."""
    rows, n = x.shape
    x0 = x.min(axis=1)
    y0 = y.min(axis=1)
    width = y.max(axis=1) - y0 + 1
    area = (x.max(axis=1) - x0 + 1) * width
    counts = np.empty((rows, stops.size), dtype=np.int64)
    wide = area > _BOX_CELLS_PER_STEP * n
    if wide.any():
        keep = ~wide
        counts[wide] = _sorted_counts(keys[wide], stops)
        counts[keep] = _chunk_counts(keys[keep], x[keep], y[keep], stops)
        return counts
    # row r owns occ[start[r]:end[r]], with (x, y) at (x - x0) * width + y - y0
    end = np.cumsum(area)
    start = end - area
    offset = (start - x0 * width - y0)[:, None]
    occ = np.zeros(int(area.sum()), dtype=np.uint8)
    bounds = list(zip(start.tolist(), end.tolist()))
    lo = 0
    for i, m in enumerate(stops.tolist()):
        # each prefix's new cells, contiguous: a strided index scatters slower
        cells = keys.reshape(-1)[:rows * (m - lo)].reshape(rows, m - lo)
        np.multiply(x[:, lo:m], width[:, None], out=cells)
        cells += y[:, lo:m]
        cells += offset
        occ[cells] = 1
        lo = m
        counts[:, i] = [np.count_nonzero(occ[a:b]) for a, b in bounds]
    return counts


def _sorted_counts(keys: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The same counts as _chunk_counts, from one sort per prefix."""
    counts = np.zeros((keys.shape[0], stops.size), dtype=np.int64)
    for i, m in enumerate(stops.tolist()):
        if m:
            srt = np.sort(keys[:, :m], axis=1)
            counts[:, i] = (srt[:, 1:] != srt[:, :-1]).sum(axis=1) + 1
    return counts


def sort_by_site(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(times, fresh) of an (n,) or (rows, n) array of keys: one stable
    argsort per row, by key and then time, and the flat mask of the
    sorted entries that open a site, those whose key or row differs from
    the previous entry's.

    Any grouping of times into consecutive blocks keeps the block ids
    nondecreasing within a key, so block_sites can reuse this order for
    every blocking of the same rows."""
    keys = np.asarray(keys, dtype=np.int64)
    times = np.argsort(keys, axis=-1, kind="stable")
    skeys = np.take_along_axis(keys, times, axis=-1)
    flat = skeys.reshape(-1)
    fresh = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=fresh[1:])
    if keys.ndim == 2 and keys.shape[1]:
        fresh[::keys.shape[1]] = True
    return times, fresh


def block_sites(fresh: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Mask of the entries that open a new (site, block) pair.

    fresh is sort_by_site's mask and blocks the flat block ids aligned
    with it; an entry is new when it is fresh or its block id differs
    from the previous entry's.  With ids that also number the row (row
    times the blocks per row, plus the block), one mask serves every
    row.  The marked entries are the unique (site, block) pairs, ordered
    by row, key and then block, and np.bincount(blocks[mask]) is the
    number of distinct sites in every block."""
    new = np.empty(fresh.size, dtype=bool)
    new[:1] = True
    np.not_equal(blocks[1:], blocks[:-1], out=new[1:])
    new |= fresh
    return new


def shift_overlaps(sites_a: np.ndarray, sites_b: np.ndarray,
                   offsets: np.ndarray) -> np.ndarray:
    """out[i] = |A intersect (offsets[i] + B)| for arrays of distinct
    sites A and B.

    Every b + offset is looked up in an occupancy grid over the bounding
    box of A widened by twice the largest offset, a chunk of B at a
    time, so the extra memory is that grid plus at most _PAIR_CHUNK
    lookups (or one row of offsets), whatever |A| * |B| is."""
    counts = np.zeros(offsets.shape[0], dtype=np.int64)
    if sites_a.shape[0] == 0:
        return counts
    r = int(np.abs(offsets).max())
    # b + offset can only land in the box of A when b lies in [lo, hi]
    lo = sites_a.min(axis=0) - r
    hi = sites_a.max(axis=0) + r
    b = sites_b[np.all((sites_b >= lo) & (sites_b <= hi), axis=1)]
    # the grid spans [lo - r, hi + r], which holds every such b + offset
    shape = hi - lo + 2 * r + 1
    width = int(shape[1])

    def flat(p):
        return (p[:, 0] - lo[0] + r) * width + (p[:, 1] - lo[1] + r)

    occupied = np.zeros(int(shape[0]) * width, dtype=bool)
    occupied[flat(sites_a)] = True
    b_flat = flat(b)
    o_flat = offsets[:, 0] * width + offsets[:, 1]
    rows = max(1, _PAIR_CHUNK // offsets.shape[0])
    for i in range(0, b_flat.size, rows):
        counts += occupied[b_flat[i:i + rows, None] + o_flat].sum(axis=0)
    return counts


# ---------------------------------------------------------------------------
# power sums for the spectral return-probability series


def log_power_sums(la_pos: np.ndarray, la_neg: np.ndarray,
                   k_lo: int, k_hi: int, tcut: float = 60.0) -> np.ndarray:
    """out[k - k_lo] = sum_i e^{k la_pos[i]} + (-1)^k sum_i e^{k la_neg[i]}.

    The la arrays hold log |phi| values sorted in decreasing order (all
    <= 0); la_pos lists points where phi >= 0, la_neg the rest.  Each run
    of equal values is summed once, weighted by its length.  The k are
    taken _POWER_BLOCK at a time: with T[t, i] = mult_i e^{t la_i} built
    once, the block at k0 is T e^{k0 la} (einsum: no temporary, no BLAS),
    so a term costs one multiply and no exp.  Terms below e^{-tcut} at
    the block's first k are dropped, which is why the sort order matters.
    Columns are taken _POWER_COLUMNS at a time, which bounds the memory.
    """
    la_pos = np.ascontiguousarray(la_pos, dtype=np.float64)
    la_neg = np.ascontiguousarray(la_neg, dtype=np.float64)
    if la_pos.size and la_pos[0] > 0 or la_neg.size and la_neg[0] > 0:
        raise ValueError("log magnitudes must be <= 0")
    k_lo, k_hi, tcut = int(k_lo), int(k_hi), float(tcut)
    ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    out = np.zeros(ks.size, dtype=np.float64)
    signs = np.where(ks % 2 == 0, 1.0, -1.0)
    steps = np.arange(min(_POWER_BLOCK, ks.size), dtype=np.float64)
    for la, sign in ((la_pos, None), (la_neg, signs)):
        starts = np.flatnonzero(np.diff(la, prepend=np.inf))
        mult = np.diff(starts, append=la.size).astype(np.float64)
        la = la[starts]
        cuts = np.searchsorted(-la, tcut / ks[::_POWER_BLOCK], side="right").tolist()
        top = cuts[0] if cuts else 0
        for c0 in range(0, top, _POWER_COLUMNS):
            c1 = min(c0 + _POWER_COLUMNS, top)
            powers = np.exp(np.multiply.outer(steps, la[c0:c1]))
            powers *= mult[c0:c1]
            for t0, cut in zip(range(0, ks.size, _POWER_BLOCK), cuts):
                width = min(cut, c1) - c0
                if width <= 0:
                    break
                kb = ks[t0:t0 + _POWER_BLOCK]
                sums = np.einsum("ij,j->i", powers[:kb.size, :width],
                                 np.exp(kb[0] * la[c0:c0 + width]))
                if sign is not None:
                    sums *= sign[t0:t0 + _POWER_BLOCK]
                out[t0:t0 + kb.size] += sums
    return out


# ---------------------------------------------------------------------------
# exhaustive enumeration over all length-n paths


def enum_walk_moments(sup_x: np.ndarray, sup_y: np.ndarray, probs: np.ndarray,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact E[distinct sites] and E[equal-time pairs] for every horizon
    m <= n, by full enumeration of all |support|^n paths.

    Returns (mean_range, mean_pairs), each indexed by number of steps.
    The paths are walked as a tree of prefixes, one level per step: a
    child's new site is compared with its parent's sites, which updates
    the distinct-site and equal-time-pair counts carried down from the
    parent, and its weight is the parent's times the step probability,
    so each horizon's mean is a dot product over its level.  Levels are
    expanded whole while they fit in _ENUM_LEAVES prefixes; past that,
    blocks of parents that grow to at most that many are expanded depth
    first.  Sites are keyed x * 2^32 + y, which is linear in the steps
    and injective for int32 coordinates.  Nothing here shares code with
    the renewal recursion, which makes their agreement a real
    cross-check.
    """
    n = int(n)
    steps = ((np.asarray(sup_x, dtype=np.int64) << 32)
             + np.asarray(sup_y, dtype=np.int64))
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    mean_r = np.zeros(n + 1, dtype=np.float64)
    mean_l = np.zeros(n + 1, dtype=np.float64)
    block = max(1, _ENUM_LEAVES // steps.size)

    def grow(sites, w, r, l):
        # sites[j, i] is the key of site j + 1 of prefix i; w, r and l are
        # the prefixes' weights, distinct-site and equal-time-pair counts
        d = sites.shape[0]
        while d < n:
            if w.size > block:
                for b in range(0, w.size, block):
                    grow(sites[:, b:b + block], w[b:b + block],
                         r[b:b + block], l[b:b + block])
                return
            # children are numbered step-major: child s * P + i extends
            # prefix i by step s
            new = steps[:, None] + (sites[-1] if d else 0)
            hits = np.zeros(new.shape, dtype=np.int64)
            for row in sites:
                hits += row == new
            w = np.multiply.outer(probs, w).ravel()
            r = (r + (hits == 0)).ravel()
            l = (l + hits).ravel()
            sites = np.concatenate([np.tile(sites, steps.size),
                                    new.reshape(1, -1)])
            d += 1
            # numpy's pairwise sums: a BLAS dot would round by thread count
            mean_r[d] += float((w * r).sum())
            mean_l[d] += float((w * l).sum())

    zero = np.zeros(1, dtype=np.int64)
    grow(np.zeros((0, 1), dtype=np.int64), np.ones(1), zero, zero)
    return mean_r, mean_l
