"""Smoothed occupation functionals of walk ranges.

The mollifier is h(u) = (4/pi)(1 - |u|^2)^3 on the unit disk, unit mass.
Scaled to lattice resolution, h_eps(x / sqrt(s)) spreads each visited
site over a disk of radius eps * sqrt(s); summing the squared smoothed
field ("a" of pair_functionals) or the product of two walks' fields
(b_functional) gives quadratic statistics whose second-moment structure
is what the tail analysis of the centered range feeds on.

Two independent ways of computing the same objects are kept around:
direct field stamping versus Fourier evaluation (parseval_check), and
the b functional versus its self-convolution kernel form
(q_identity_check).  Both comparisons are exact identities up to
floating-point noise.
"""

from __future__ import annotations

import math

import numpy as np

from ._fastpath import offset_columns, pack_positions, pair_shift_overlaps, unpack_keys
from .errors import ResourceLimit
from .walks import PoissonizedPath, StepDistribution, WalkPath

__all__ = [
    "SmoothingKernel",
    "QKernel",
    "b_functional",
    "q_kernel",
    "q_identity_check",
    "q_identity_block",
    "parseval_check",
    "pair_functionals",
    "site_set",
    "site_sets",
    "check_stamp_window",
    "check_q_kernel",
]

_MAX_WINDOW_CELLS = 1 << 24  # cells of one pair's window, and of a group's
_STAMP_CHUNK = 1 << 15  # scatter terms held at once by _stamp
_MAX_Q_TERMS = 1 << 32  # q scatter terms, and shift lookups per record


class SmoothingKernel:
    """Lattice stamp of h_eps(x / sqrt(scale)).

    offsets are the integer points inside the disk of radius
    eps * sqrt(scale); values carry the eps^{-2} normalization so that
    sum(values) approximates scale for large disks."""

    def __init__(self, eps: float, scale: float, offsets: np.ndarray,
                 values: np.ndarray):
        self.eps = eps
        self.scale = scale
        self.offsets = offsets
        self.values = values

    @property
    def radius(self) -> float:
        return self.eps * math.sqrt(self.scale)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def smoothing_stamp(scale: float, eps: float) -> SmoothingKernel:
    if eps <= 0 or scale <= 0:
        raise ValueError("eps and scale must be positive")
    a2 = eps * eps * scale
    rad = int(math.floor(math.sqrt(a2)))
    axis = np.arange(-rad, rad + 1)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    d2 = gx * gx + gy * gy
    inside = d2 < a2
    rel = 1.0 - d2[inside] / a2
    vals = (4.0 / math.pi) / (eps * eps) * rel**3
    offsets = np.stack([gx[inside], gy[inside]], axis=1).astype(np.int64)
    return SmoothingKernel(eps=eps, scale=scale, offsets=offsets, values=vals)


def check_stamp_window(dist: StepDistribution, t: float, eps: float,
                       b_t: float) -> None:
    """Refuse a law whose longest step alone overflows the stamped-field
    window at scale t / b_t: two sites one such step apart already span
    (max_step + 2 rad + 1)(2 rad + 1) cells, rad as in _pair_windows."""
    side = 2 * int(math.floor(eps * math.sqrt(t / b_t))) + 1
    if (dist.max_step + side) * side > _MAX_WINDOW_CELLS:
        raise ResourceLimit(
            f"steps of {dist.max_step} stamped at radius {side // 2} exceed "
            f"the {_MAX_WINDOW_CELLS}-cell field window")


def site_set(obj, horizon: float | None = None) -> np.ndarray:
    """Distinct sites of a walk as an (m, 2) int64 array.

    Poissonized walks contribute every site seen during [0, horizon]
    including the start; discrete walks contribute the sites of steps
    1..floor(horizon) (the range convention).  Plain (m, 2) arrays are
    deduplicated as given."""
    if isinstance(obj, PoissonizedPath):
        pos = obj.positions_up_to(obj.t if horizon is None else horizon)
        pos = np.vstack([np.zeros((1, 2), dtype=pos.dtype), pos])
    elif isinstance(obj, WalkPath):
        pos = obj.positions
        if horizon is not None:
            pos = pos[: int(horizon)]
    else:
        pos = np.asarray(obj)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("expected path object or (m, 2) array")
        if horizon is not None:
            pos = pos[: int(horizon)]
    return site_sets(pos[None])[0]


def site_sets(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sites, bounds) of (rows, n, 2) positions: the distinct sites of
    row k, in key order, are sites[bounds[k]:bounds[k + 1]], from one
    row-wise sort of the keys."""
    keys = np.sort(pack_positions(pos), axis=1)
    fresh = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=fresh[:, 1:])
    bounds = np.zeros(keys.shape[0] + 1, dtype=np.int64)
    np.cumsum(fresh.sum(axis=1), out=bounds[1:])
    return unpack_keys(keys[fresh]), bounds


def _stamp(field: np.ndarray, s_flat: np.ndarray, width, stamp: SmoothingKernel,
           weights=None) -> None:
    """Add values[o] w_y to field[s_flat[y] + o] for every stamp offset o,
    flattened at width (one, or one per site), and every site y, with
    w_y = 1 or weights[y].  One np.add.at over offset-major terms, taken
    _STAMP_CHUNK at a time (one offset's at least) within each run of
    offsets that share their x (offset_columns), so a chunk's indices
    are one add to the sites shifted by that x.  The sites of a window
    are distinct, so each of its cells gets at most one term per offset
    and sums them in offset order, as a scatter per offset would."""
    rows = max(1, _STAMP_CHUNK // max(s_flat.size, 1))
    for c0, c1 in offset_columns(stamp.offsets):
        shifted = stamp.offsets[c0, 0] * width + s_flat
        for j in range(c0, c1, rows):
            k = min(j + rows, c1)
            vals = stamp.values[j:k]
            # flat indices and terms: np.add.at is slow on 2-d or broadcast ones
            terms = (np.repeat(vals, s_flat.size) if weights is None
                     else np.multiply.outer(vals, weights).ravel())
            np.add.at(field, (stamp.offsets[j:k, 1:] + shifted).ravel(), terms)


def _pair_windows(sites: np.ndarray, bounds: np.ndarray, stamp: SmoothingKernel):
    """The pairs of a block (as in q_identity_block) in groups of
    consecutive pairs whose windows hold at most _MAX_WINDOW_CELLS cells
    in all, so that a group takes no more memory than one pair may.
    Yields (sites, bounds, lo, shape) of each group, lo and shape those
    of each pair's window: the box of both its sets widened by the
    stamp radius."""
    rad = int(math.floor(stamp.radius))
    lo = np.minimum.reduceat(sites, bounds[:-1])
    hi = np.maximum.reduceat(sites, bounds[:-1])
    lo = np.minimum(lo[0::2], lo[1::2]) - rad
    shape = np.maximum(hi[0::2], hi[1::2]) + rad - lo + 1
    cells = shape[:, 0] * shape[:, 1]
    if cells.max() > _MAX_WINDOW_CELLS:
        raise ResourceLimit("stamped field window exceeds the cell budget")
    ends = np.cumsum(cells)
    p = 0
    while p < cells.size:
        stop = int(np.searchsorted(ends, ends[p] - cells[p] + _MAX_WINDOW_CELLS,
                                   side="right"))
        first = bounds[2 * p]
        yield (sites[first:bounds[2 * stop]], bounds[2 * p:2 * stop + 1] - first,
               lo[p:stop], shape[p:stop])
        p = stop


def _pair_fields(sites: np.ndarray, bounds: np.ndarray, lo: np.ndarray,
                 shape: np.ndarray, stamp: SmoothingKernel) -> tuple:
    """(fields, start) of one group of _pair_windows: pair p's window
    holds the stamped field of its set 2p in fields[0] and of its set
    2p + 1 in fields[1], each at [start[p], start[p] + shape[p].prod())
    in row-major order.  The windows lie end to end, so one _stamp
    scatters every set of the group."""
    pair = np.arange(bounds.size - 1) >> 1
    cells = shape[:, 0] * shape[:, 1]
    start = np.cumsum(cells) - cells
    fields = np.zeros((2, int(cells.sum())))
    # (x, y) of set k lies at origin[k] + x * shape[k // 2, 1] + y in the flat fields
    origin = (start - lo[:, 0] * shape[:, 1] - lo[:, 1])[pair]
    origin[1::2] += fields.shape[1]
    sizes = bounds[1:] - bounds[:-1]
    width = np.repeat(shape[pair, 1], sizes)
    _stamp(fields.reshape(-1), np.repeat(origin, sizes) + sites[:, 0] * width + sites[:, 1],
           width, stamp)
    return fields, start


def _pair_b(sites: np.ndarray, bounds: np.ndarray, lo: np.ndarray,
            shape: np.ndarray, stamp: SmoothingKernel) -> list:
    """b_functional of every pair of one group of _pair_windows: the sum
    of the product of its two fields over its own window, normalized by
    the square of the stamp's total mass."""
    fields, start = _pair_fields(sites, bounds, lo, shape, stamp)
    prod = fields[0]
    prod *= fields[1]
    lam = stamp.total
    return [float(prod[a:a + c].sum()) / (lam * lam)
            for a, c in zip(start.tolist(), (shape[:, 0] * shape[:, 1]).tolist())]


def _one_pair(sa: np.ndarray, sb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sites, bounds) of the block of the one pair (sa, sb)."""
    return np.concatenate([sa, sb]), np.array([0, sa.shape[0], sa.shape[0] + sb.shape[0]])


def _b_of_sites(sa: np.ndarray, sb: np.ndarray, stamp: SmoothingKernel) -> float:
    """b_functional of two site sets: the one-pair case of _pair_b."""
    if sa.shape[0] == 0 or sb.shape[0] == 0:
        return 0.0
    group, = _pair_windows(*_one_pair(sa, sb), stamp)
    return _pair_b(*group, stamp)[0]


def b_functional(path_a, path_b, t: float, eps: float, b_t: float = 1.0,
                 level: int = 0) -> float:
    """Cross term of two walks' smoothed fields.

    level truncates both walks to horizon t / 2^level while keeping the
    smoothing scale s = t / b_t fixed, matching how the dyadic analysis
    peels time scales."""
    if level < 0:
        raise ValueError("level must be >= 0")
    horizon = t / (1 << level)
    return _b_of_sites(site_set(path_a, horizon=horizon),
                       site_set(path_b, horizon=horizon),
                       smoothing_stamp(t / b_t, eps))


class QKernel:
    """Self-convolution probability kernel of the smoothing stamp, which
    it carries for the functionals at its scale."""

    def __init__(self, t: float, b_t: float, eps: float, offsets: np.ndarray,
                 values: np.ndarray, stamp: SmoothingKernel):
        self.t = t
        self.b_t = b_t
        self.eps = eps
        self.offsets = offsets
        self.values = values
        self.stamp = stamp


def q_kernel(t: float, b_t: float, eps: float) -> QKernel:
    """q(x) = lambda^{-2} sum_z k(x - z) k(z) with k the stamp at scale
    t / b_t.  Sums to 1 exactly (finite-sum algebra), supported on
    |x| < 2 eps sqrt(t / b_t).  As k is symmetric, q is the field of k
    placed at the sites -offsets with weights k."""
    stamp = smoothing_stamp(t / b_t, eps)
    sites = -stamp.offsets
    rad = int(math.floor(stamp.radius))
    # the window's corner (the stamp need not reach +-rad)
    corner = sites.min(axis=0) - rad
    shape = sites.max(axis=0) + rad - corner + 1
    if int(shape[0]) * int(shape[1]) > _MAX_WINDOW_CELLS:
        raise ResourceLimit("stamped field window exceeds the cell budget")
    acc = np.zeros(int(shape[0]) * int(shape[1]))
    _stamp(acc, (sites[:, 0] - corner[0]) * shape[1] + sites[:, 1] - corner[1],
           shape[1], stamp, weights=stamp.values)
    lam = stamp.total
    acc /= lam * lam
    nz = acc.reshape(int(shape[0]), int(shape[1])) > 0
    return QKernel(t=t, b_t=b_t, eps=eps, offsets=np.argwhere(nz) + corner,
                   values=acc[nz.reshape(-1)], stamp=stamp)


def check_q_kernel(t: float, eps: float, b_t: float) -> None:
    """Refuse a q kernel whose scatter (m^2 terms for m stamp points) or
    whose shift counts (|q| offsets times about t sites, per record)
    exceed _MAX_Q_TERMS.  m and |q| are bounded by the squares around
    their disks, (2 rad + 1)^2 and (4 rad + 1)^2, rad as in
    _pair_windows."""
    rad = int(math.floor(eps * math.sqrt(t / b_t)))
    terms = max((2 * rad + 1) ** 4, (4 * rad + 1) ** 2 * t)
    if terms > _MAX_Q_TERMS:
        raise ResourceLimit(
            f"the q kernel at radius {rad} and t = {t:g} takes {terms:.3g} "
            f"terms, over the budget of {_MAX_Q_TERMS}")


def q_identity_check(path_a, path_b, q: QKernel) -> dict:
    """b_functional at (q.t, q.eps, q.b_t) equals the q-weighted average
    over shifts x of |range_a intersect (x + range_b)|; an exact finite
    identity.  q is built once (q_kernel) for every pair at its scale.
    The one-pair case of q_identity_block."""
    return _q_identity(site_set(path_a, horizon=q.t), site_set(path_b, horizon=q.t), q)


def q_identity_block(sites: np.ndarray, bounds: np.ndarray, q: QKernel) -> list:
    """q_identity_check of every pair of one block, as a list of dicts.
    Set k is sites[bounds[k]:bounds[k + 1]], nonempty and of distinct
    sites (site_sets), and pair p is (set 2p, set 2p + 1).

    Each pair is stamped on its own window, the one it would get alone,
    and its b is one sum over that window; the windows lie end to end,
    so one offset-major scatter stamps every pair of a group and every
    cell still adds its terms in offset order.  The shift counts come
    from pair_shift_overlaps, and each pair's rhs is their running
    q-weighted sum in q-offset order.  So every float has the bits of
    the pair checked alone, whatever pairs share its block."""
    out = []
    for group in _pair_windows(sites, bounds, q.stamp):
        lhs = _pair_b(*group, q.stamp)
        counts = pair_shift_overlaps(group[0], group[1], q.offsets)
        # running sums in q-offset order; np.dot would round differently
        rhs = np.cumsum(q.values * counts, axis=1)[:, -1].tolist()
        for b, r in zip(lhs, rhs):
            out.append({"lhs": b, "rhs": r,
                        "residual": abs(b - r) / max(abs(b), abs(r), 1e-300)})
    return out


def _q_identity(sa: np.ndarray, sb: np.ndarray, q: QKernel) -> dict:
    """q_identity_check of two site sets: the one-pair case of
    q_identity_block, where an empty set makes b and every count 0."""
    if sa.shape[0] == 0 or sb.shape[0] == 0:
        return {"lhs": 0.0, "rhs": 0.0, "residual": 0.0}
    return q_identity_block(*_one_pair(sa, sb), q)[0]


def parseval_check(path_a, path_b, t: float, eps: float, b_t: float = 1.0,
                   max_fft: int = 4096) -> dict:
    """Evaluate (2 pi)^2 s B two ways: direct field stamping versus the
    Fourier side, integrating |khat|^2 F_a conj(F_b) over the torus with
    a DFT grid fine enough to make the quadrature exact.

    The integrand is a trigonometric polynomial, so any grid beating its
    degree gives the same number; the window is the smallest power of
    two containing both ranges plus the stamp, zero-padded twice."""
    stamp = smoothing_stamp(t / b_t, eps)
    sa = site_set(path_a, horizon=t)
    sb = site_set(path_b, horizon=t)
    return _parseval(sa, sb, stamp, max_fft, _b_of_sites(sa, sb, stamp))


def _parseval(sa: np.ndarray, sb: np.ndarray, stamp: SmoothingKernel,
              max_fft: int, b: float) -> dict:
    """parseval_check of two site sets whose B is b."""
    s = stamp.scale
    rad = int(math.floor(stamp.radius))
    if sa.shape[0] == 0 or sb.shape[0] == 0:
        raise ValueError("empty range")
    lo = np.minimum(sa.min(axis=0), sb.min(axis=0))
    hi = np.maximum(sa.max(axis=0), sb.max(axis=0))
    extent = int(max(hi - lo)) + 2 * rad + 1
    m = 1 << max(1, (extent - 1).bit_length())
    m *= 2
    if m > max_fft:
        raise ResourceLimit(f"FFT window {m} exceeds max_fft={max_fft}")

    ia = np.zeros((m, m))
    ib = np.zeros((m, m))
    ia[sa[:, 0] - lo[0], sa[:, 1] - lo[1]] = 1.0
    ib[sb[:, 0] - lo[0], sb[:, 1] - lo[1]] = 1.0
    kern = np.zeros((m, m))
    kern[stamp.offsets[:, 0] % m, stamp.offsets[:, 1] % m] = stamp.values / stamp.total

    fa = np.fft.fft2(ia)
    fb = np.fft.fft2(ib)
    fk = np.fft.fft2(kern)
    khat2 = (fk * np.conj(fk)).real
    grid_mean = (khat2 * np.conj(fa) * fb).mean()
    rhs = s * (2.0 * math.pi) ** 2 * float(grid_mean.real)
    imag_leak = abs(float(grid_mean.imag)) / max(abs(float(grid_mean.real)), 1e-300)

    lhs = (2.0 * math.pi) ** 2 * s * b
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs) / denom,
            "imag_leak": imag_leak, "fft_size": m}


def pair_functionals(path_a, path_b, q: QKernel, level: int = 0,
                     max_fft: int | None = None) -> dict:
    """Every statistic of one pair at q's scale (q.t, q.eps, q.b_t), from
    one pair of site sets and one level-0 B, all on q.stamp: "a" is
    path_a's squared smoothed field (its b with itself), "b" b_functional at
    level (the level's site sets at horizon q.t / 2^level), "q" the
    q_identity_check dict and "parseval" the parseval_check dict, or
    None without max_fft."""
    stamp = q.stamp
    sa = site_set(path_a, horizon=q.t)
    sb = site_set(path_b, horizon=q.t)
    qd = _q_identity(sa, sb, q)
    b0 = b = qd["lhs"]
    if level:
        horizon = q.t / (1 << level)
        b = _b_of_sites(site_set(path_a, horizon=horizon),
                        site_set(path_b, horizon=horizon), stamp)
    return {
        "a": _b_of_sites(sa, sa, stamp),
        "b": b,
        "q": qd,
        "parseval": None if max_fft is None else _parseval(sa, sb, stamp, max_fft, b0),
    }
