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

from ._fastpath import distinct, pack_positions, shift_overlaps, unpack_keys
from .errors import ResourceLimit
from .walks import PoissonizedPath, StepDistribution, WalkPath

__all__ = [
    "SmoothingKernel",
    "QKernel",
    "b_functional",
    "q_kernel",
    "q_identity_check",
    "parseval_check",
    "pair_functionals",
    "site_set",
    "check_stamp_window",
    "check_q_kernel",
]

_MAX_WINDOW_CELLS = 1 << 24
_STAMP_CHUNK = 1 << 18  # scatter terms held at once by _stamped_fields
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
    (max_step + 2 rad + 1)(2 rad + 1) cells, rad as in _stamped_fields."""
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
    if pos.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    keys = distinct(pack_positions(pos))
    return unpack_keys(keys)


def _stamped_fields(stamp: SmoothingKernel, *site_sets, weights=None) -> list:
    """Dense fields sum_y w_y values * [x = y + offset], one per site set
    (w_y = 1, or weights[i] for set i), on one window box that holds
    every stamped site.  One np.add.at over offset-major terms, taken
    _STAMP_CHUNK at a time: a cell gets at most one term per offset, so
    it sums them in offset order, as a scatter per offset would."""
    rad = int(math.floor(stamp.radius))
    lo = np.min([sites.min(axis=0) for sites in site_sets], axis=0) - rad
    hi = np.max([sites.max(axis=0) for sites in site_sets], axis=0) + rad
    shape = hi - lo + 1
    if int(shape[0]) * int(shape[1]) > _MAX_WINDOW_CELLS:
        raise ResourceLimit("stamped field window exceeds the cell budget")
    width = int(shape[1])
    o_flat = stamp.offsets[:, 0] * width + stamp.offsets[:, 1]
    fields = []
    for i, sites in enumerate(site_sets):
        field = np.zeros(int(shape[0]) * width)
        s_flat = (sites[:, 0] - lo[0]) * width + (sites[:, 1] - lo[1])
        rows = max(1, _STAMP_CHUNK // s_flat.size)
        for j in range(0, o_flat.size, rows):
            vals = stamp.values[j:j + rows]
            terms = (np.repeat(vals, s_flat.size) if weights is None
                     else np.multiply.outer(vals, weights[i]).ravel())
            np.add.at(field, (o_flat[j:j + rows, None] + s_flat).ravel(), terms)
        fields.append(field.reshape(int(shape[0]), width))
    return fields


def _a_of_sites(sites: np.ndarray, stamp: SmoothingKernel) -> float:
    """Squared smoothed occupation mass of a site set, normalized by the
    square of the stamp's total mass."""
    if sites.shape[0] == 0:
        return 0.0
    field, = _stamped_fields(stamp, sites)
    lam = stamp.total
    return float((field * field).sum()) / (lam * lam)


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


def _b_of_sites(sa: np.ndarray, sb: np.ndarray, stamp: SmoothingKernel) -> float:
    """b_functional of two site sets."""
    if sa.shape[0] == 0 or sb.shape[0] == 0:
        return 0.0
    fa, fb = _stamped_fields(stamp, sa, sb)
    lam = stamp.total
    return float((fa * fb).sum()) / (lam * lam)


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
    acc, = _stamped_fields(stamp, sites, weights=[stamp.values])
    lam = stamp.total
    acc /= lam * lam
    nz = acc > 0
    # the window's corner (the stamp need not reach +-rad)
    corner = sites.min(axis=0) - int(math.floor(stamp.radius))
    return QKernel(t=t, b_t=b_t, eps=eps, offsets=np.argwhere(nz) + corner,
                   values=acc[nz], stamp=stamp)


def check_q_kernel(t: float, eps: float, b_t: float) -> None:
    """Refuse a q kernel whose scatter (m^2 terms for m stamp points) or
    whose shift counts (|q| offsets times about t sites, per record)
    exceed _MAX_Q_TERMS.  m and |q| are bounded by the squares around
    their disks, (2 rad + 1)^2 and (4 rad + 1)^2, rad as in
    _stamped_fields."""
    rad = int(math.floor(eps * math.sqrt(t / b_t)))
    terms = max((2 * rad + 1) ** 4, (4 * rad + 1) ** 2 * t)
    if terms > _MAX_Q_TERMS:
        raise ResourceLimit(
            f"the q kernel at radius {rad} and t = {t:g} takes {terms:.3g} "
            f"terms, over the budget of {_MAX_Q_TERMS}")


def q_identity_check(path_a, path_b, q: QKernel) -> dict:
    """b_functional at (q.t, q.eps, q.b_t) equals the q-weighted average
    over shifts x of |range_a intersect (x + range_b)|; an exact finite
    identity.  q is built once (q_kernel) for every pair at its scale."""
    sa = site_set(path_a, horizon=q.t)
    sb = site_set(path_b, horizon=q.t)
    return _q_identity(sa, sb, q, _b_of_sites(sa, sb, q.stamp))


def _q_identity(sa: np.ndarray, sb: np.ndarray, q: QKernel, lhs: float) -> dict:
    """q_identity_check of two site sets whose B is lhs."""
    counts = shift_overlaps(sa, sb, q.offsets)
    # a running sum in q-offset order; np.dot would round differently
    rhs = float(np.cumsum(q.values * counts)[-1])
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs) / denom}


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
    path_a's squared smoothed field (_a_of_sites), "b" b_functional at
    level (the level's site sets at horizon q.t / 2^level), "q" the
    q_identity_check dict and "parseval" the parseval_check dict, or
    None without max_fft."""
    stamp = q.stamp
    sa = site_set(path_a, horizon=q.t)
    sb = site_set(path_b, horizon=q.t)
    b0 = b = _b_of_sites(sa, sb, stamp)
    if level:
        horizon = q.t / (1 << level)
        b = _b_of_sites(site_set(path_a, horizon=horizon),
                        site_set(path_b, horizon=horizon), stamp)
    return {
        "a": _a_of_sites(sa, stamp),
        "b": b,
        "q": _q_identity(sa, sb, q, b0),
        "parseval": None if max_fft is None else _parseval(sa, sb, stamp, max_fft, b0),
    }
