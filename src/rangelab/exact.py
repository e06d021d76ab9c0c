"""Exact return probabilities, visit sums, and expected range.

No sampling happens here.  Return probabilities u_k = P(walk is back at
the origin after k steps) come from Fourier quadrature: the
characteristic function phi of a lattice step law is a trigonometric
polynomial, so averaging phi^k over a uniform grid finer than its degree
recovers the zero Fourier coefficient exactly.  For large k a coarser
grid is used; the aliasing error is P(walk lands on a nonzero multiple
of the grid period), which is sub-Gaussian small once the grid beats
8 * step * sqrt(k).

A walk of period d (d = 2 for the simple walk) has u_k = 0 unless d
divides k; the table stores those entries as exact zeros and sums the
series at the multiples of d only.

From u the table derives
  H[m]  = sum_{k<=m} u_k              (expected visits to the start),
  r_k   = P(first return at step k)   (u_n = sum r_j u_{n-j}),
  f_m   = P(no return through step m) (sum_{k<=m} u_k f_{m-k} = 1),
  ER[m] = E #{distinct sites in m steps} = sum_{j<m} f_j.
In generating functions U = 1 / (1 - R) and F = 1 / (U (1 - z)), so one
unit triangular Toeplitz solve U V = 1, a power-series inverse by Newton
doubling with FFT products in O(n log n), gives r_k = -V_k and f as the
prefix sums of V.

A direct space-domain convolution (return_probs_dp) provides an
independent oracle for u; enumeration over all paths provides one for
ER.  The test suite holds the two routes against each other.
"""

from __future__ import annotations

import math

import numpy as np

from ._fastpath import distinct, enum_walk_moments, log_power_sums
from .errors import InvalidConfig, ResourceLimit
from .walks import (StepDistribution, check_walk_length, validate_distribution,
                    walk_period)

__all__ = [
    "ReturnProbTable",
    "return_prob_exact",
    "return_probs_dp",
    "build_return_table",
    "check_table_size",
    "check_enumeration",
    "enumeration_oracle",
    "expected_range_asymptotic",
    "local_clt_check",
    "solve_unit_triangular_toeplitz",
    "return_prob_spectral",
]

_TCUT = 60.0  # drop series terms below e^{-60}
_REGIME_A_TOP = 256
_MAX_GRID_CELLS = 1 << 26  # budget for dense lattice grids
_RESIDUAL_SAMPLE = 64  # horizons checked by identity_residuals
_MAX_ENUM_PATHS = 2.0e8  # budget for full path enumeration


def _even_at_least(x: float) -> int:
    m = int(math.ceil(x))
    return m + (m % 2)


# ---------------------------------------------------------------------------
# characteristic-function evaluation


def _phi_grid(dist: StepDistribution, lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    """phi on the outer grid lx x ly."""
    out = np.zeros((lx.size, ly.size))
    a = lx[:, None]
    b = ly[None, :]
    for (dx, dy), p in zip(dist.support.tolist(), dist.probs.tolist()):
        # an axis step's angle varies along one axis: broadcast it
        out += p * np.cos((dx * a if dx else 0.0) + (dy * b if dy else 0.0))
    return out

def _g_sign_grid(dist, lx, ly):
    """(g, negative) with g = 1 - |phi| evaluated stably.

    1 - phi = sum 2 p sin^2(lam.x / 2) and 1 + phi = sum 2 p cos^2(...),
    both nonnegative sums, so g stays accurate even where phi is within
    1e-16 of +-1.  The half-angle sines and cosines come from the 1-D
    axes by the angle-sum identities, so no transcendental is evaluated
    on the grid itself."""
    shape = (lx.size, ly.size)
    one_minus = np.zeros(shape)
    one_plus = np.zeros(shape)
    trig = np.empty(shape)
    term = np.empty(shape)
    for (dx, dy), p in zip(dist.support.tolist(), dist.probs.tolist()):
        ha = (0.5 * dx) * lx
        hb = (0.5 * dy) * ly
        sa, ca, sb, cb = np.sin(ha), np.cos(ha), np.sin(hb), np.cos(hb)
        # sin(ha + hb) = sa cb + ca sb
        np.multiply.outer(sa, cb, out=trig)
        trig += np.multiply.outer(ca, sb, out=term)
        trig *= trig
        trig *= 2.0 * p
        one_minus += trig
        # cos(ha + hb) = ca cb - sa sb
        np.multiply.outer(ca, cb, out=trig)
        trig -= np.multiply.outer(sa, sb, out=term)
        trig *= trig
        trig *= 2.0 * p
        one_plus += trig
    negative = one_minus > 1.0
    np.copyto(one_minus, one_plus, where=negative)
    return one_minus, negative


class _SpectralContext:
    """Per-distribution floors on g = 1 - |phi| for the large-k series.

    One scan of a coarse mc x mc grid, with nodes at the angles
    2 pi j / mc - pi / 2, finds the minimum of g over each coarse row
    and each coarse column and keeps it lowered by lip1 * pi / mc with
    lip1 = sum p (|x| + |y|): |phi| moves by at most that much between a
    point and its nearest node.  So g at any point is at least the floor
    of its nearest row and that of its nearest column."""

    def __init__(self, dist: StepDistribution):
        self.dist = dist
        self.s = dist.max_step
        lip1 = float(sum(f * (abs(x) + abs(y))
                         for (x, y), f in zip(dist.support.tolist(), dist.fracs)))
        mc = self.scan_size = min(1024, 512 * self.s)
        lam = (np.arange(mc) - mc // 4) * (2 * math.pi / mc)
        # g(-lam) = g(lam) and node j sits at minus node (mc/2 - j) mod mc,
        # so the rows at angles [0, pi] see every value of the grid
        rows = slice(mc // 4, 3 * mc // 4 + 1)
        g, _ = _g_sign_grid(dist, lam[rows], lam)
        row_min = np.full(mc, math.inf)
        row_min[rows] = g.min(axis=1)
        col_min = g.min(axis=0)
        mirror = (mc // 2 - np.arange(mc)) % mc
        slack = lip1 * math.pi / mc
        self.row_floor = np.minimum(row_min, row_min[mirror]) - slack
        self.col_floor = np.minimum(col_min, col_min[mirror]) - slack


def _harvest_band(ctx: _SpectralContext, m: int, g_cut: float):
    """Collect (log|phi|, sign) on the m x m grid, angles 2 pi i / m for
    i in [-m/4, 3m/4), at points with 1 - |phi| <= g_cut; everything
    else is provably negligible for the exponents this band serves.

    Such a point lies on a row and a column whose nearest coarse node
    has a floor at most g_cut, so only their product is evaluated."""
    dist = ctx.dist
    mc = ctx.scan_size
    idx = np.arange(-(m // 4), m - m // 4)
    # nearest coarse node: j - mc/4 = round(i mc / m), wrapped
    near = ((2 * idx * mc + m) // (2 * m) + mc // 4) % mc
    lam_unit = 2 * math.pi / m
    lx = idx[ctx.row_floor[near] <= g_cut] * lam_unit
    ly = idx[ctx.col_floor[near] <= g_cut] * lam_unit
    las_pos = []
    las_neg = []
    chunk = max(1, (1 << 22) // m)
    for r0 in range(0, lx.size, chunk):
        g, neg = _g_sign_grid(dist, lx[r0: r0 + chunk], ly)
        keep = g <= g_cut
        la = np.log1p(-g[keep])
        nk = neg[keep]
        las_pos.append(la[~nk])
        las_neg.append(la[nk])
    la_pos = np.concatenate(las_pos) if las_pos else np.empty(0)
    la_neg = np.concatenate(las_neg) if las_neg else np.empty(0)
    la_pos[::-1].sort()
    la_neg[::-1].sort()
    return la_pos, la_neg


def _band_u(ctx: _SpectralContext, k_lo: int, k_hi: int,
            period: int = 1) -> np.ndarray:
    """u_k for k in [k_lo, k_hi] via the aliased-grid series, computed
    only at multiples of the walk's period and exactly 0 elsewhere.

    At k = period * j, e^{k la} = e^{j (period la)}; the sign (-1)^k is
    (-1)^j for an odd period and 1 for an even one, whose series
    therefore sums both signs together."""
    m = _even_at_least(8.0 * ctx.s * math.sqrt(k_hi))
    g_cut = -math.expm1(-_TCUT / k_lo)
    la_pos, la_neg = _harvest_band(ctx, m, g_cut)
    if period % 2 == 0:
        # two descending runs: the stable sort merges them in one pass
        la_pos = np.concatenate((la_pos, la_neg))
        la_pos[::-1].sort(kind="stable")
        la_neg = la_neg[:0]
    j_lo = -(-k_lo // period)
    j_hi = k_hi // period
    out = np.zeros(k_hi - k_lo + 1)
    if j_lo <= j_hi:
        sums = log_power_sums(period * la_pos, period * la_neg, j_lo, j_hi, _TCUT)
        out[period * j_lo - k_lo::period] = sums / float(m * m)
    return out


def return_prob_spectral(dist: StepDistribution, k: int) -> float:
    """u_k for a single large k without building a table; an exact 0
    when the walk's period does not divide k, as in the table."""
    if k == 0:
        return 1.0
    ctx = _SpectralContext(dist)
    return float(_band_u(ctx, k, k, walk_period(dist))[0])


# ---------------------------------------------------------------------------
# the two direct routes


def return_prob_exact(dist: StepDistribution, k: int) -> float:
    """u_k by exact quadrature: phi^k is a trig polynomial of coordinate
    degree k * max_step, so a uniform grid with more nodes than the
    degree integrates it without error (beyond roundoff)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    m = 2 * k * dist.max_step + 2
    if m * m > _MAX_GRID_CELLS:
        raise ResourceLimit(
            f"exact quadrature grid for k={k} needs {m}^2 cells; "
            f"use return_prob_spectral or build_return_table instead")
    lam = 2 * math.pi * np.arange(m) / m
    total = 0.0
    chunk = max(1, (1 << 22) // m)
    for r0 in range(0, m, chunk):
        phi = _phi_grid(dist, lam[r0: r0 + chunk], lam)
        total += float(np.power(phi, float(k)).sum())
    return total / (m * m)


def return_probs_dp(dist: StepDistribution, kmax: int) -> np.ndarray:
    """u_0..u_kmax by direct convolution of the step law on the lattice.

    Independent of the Fourier route; quadratic in kmax, meant as an
    oracle for moderate kmax."""
    s = dist.max_step
    half = kmax * s
    size = 2 * half + 1
    if size * size > _MAX_GRID_CELLS:
        raise ResourceLimit(f"DP grid {size}^2 exceeds the cell budget")
    cur = np.zeros((size, size))
    cur[half, half] = 1.0
    u = np.empty(kmax + 1)
    u[0] = 1.0
    moves = list(zip(dist.support.tolist(), dist.probs.tolist()))
    for k in range(1, kmax + 1):
        nxt = np.zeros_like(cur)
        for (dx, dy), p in moves:
            xs_d = slice(max(0, dx), size + min(0, dx))
            ys_d = slice(max(0, dy), size + min(0, dy))
            xs_s = slice(max(0, -dx), size + min(0, -dx))
            ys_s = slice(max(0, -dy), size + min(0, -dy))
            nxt[xs_d, ys_d] += p * cur[xs_s, ys_s]
        cur = nxt
        u[k] = cur[half, half]
    return u


# ---------------------------------------------------------------------------
# power series inverse


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the FFT length scipy.signal.fftconvolve
    picks for real input."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays by real FFTs, with the
    transform length and steps of scipy.signal.fftconvolve."""
    size = a.size + b.size - 1
    length = _smooth_length(size)
    spec = np.fft.rfft(a, length) * np.fft.rfft(b, length)
    return np.fft.irfft(spec, length)[:size]


def solve_unit_triangular_toeplitz(kernel: np.ndarray,
                                   rhs: np.ndarray | None = None) -> np.ndarray:
    """Solve sum_{j<=i} kernel[i-j] x[j] = rhs[i] with kernel[0] = 1.

    As power series K X = B mod z^n, so X = B / K.  1/K comes by Newton
    doubling (Brent & Kung 1978): if K V = 1 + z^m E mod z^2m, then
    V - z^m V E is the inverse to 2m terms.  Each step costs two FFT
    products, so the solve is O(n log n).  Without rhs, B = 1 and the
    solution is 1/K itself."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel[0] != 1.0:
        raise ValueError("kernel[0] must be 1")
    n = kernel.size
    v = np.ones(1)
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        err = _fft_convolve(kernel[:m2], v)[m:m2]
        v = np.concatenate((v, -_fft_convolve(v[:m2 - m], err)[:m2 - m]))
        m = m2
    if rhs is None:
        return v
    return _fft_convolve(v, np.asarray(rhs, dtype=np.float64))[:n]


def _prefix_sum(a: np.ndarray) -> np.ndarray:
    """Cumulative sum in extended precision, rounded back to float64."""
    return np.cumsum(a.astype(np.longdouble)).astype(np.float64)


# ---------------------------------------------------------------------------
# the table


class ReturnProbTable:
    """Columns indexed by step count k = 0..n:

    u[k]   return probability at step k
    h[k]   cumulative expected visits to the start through step k
    r[k]   first-return probability at step k (r[0] = 0)
    f[k]   probability of no return through step k (f[0] = 1)
    er[k]  expected number of distinct sites visited in k steps
    """

    def __init__(self, n: int, u: np.ndarray, h: np.ndarray, r: np.ndarray,
                 f: np.ndarray, er: np.ndarray):
        self.n = n
        self.u = u
        self.h = h
        self.r = r
        self.f = f
        self.er = er

    def identity_residuals(self) -> dict[str, float]:
        """Worst-case residuals of the defining identities, for audits,
        at _RESIDUAL_SAMPLE horizons spread over 1..n."""
        n = self.n
        ks = np.linspace(1, n, min(_RESIDUAL_SAMPLE, n)).astype(int)
        ks = distinct(np.clip(ks, 1, n))
        res_first = 0.0
        res_last = 0.0
        # numpy's pairwise sums: a BLAS dot would round by thread count
        for k in ks:
            conv_r = float((self.r[1:k + 1] * self.u[:k][::-1]).sum())
            res_first = max(res_first, abs(conv_r - self.u[k]))
            conv_f = float((self.u[:k + 1] * self.f[:k + 1][::-1]).sum())
            res_last = max(res_last, abs(conv_f - 1.0))
        res_fr = float(np.max(np.abs(self.f - (1.0 - _prefix_sum(self.r)))))
        return {
            "first_return": res_first,
            "last_visit": res_last,
            "f_vs_r": res_fr,
        }


def check_table_size(dist: StepDistribution, n: int) -> None:
    """Refuse a table whose largest aliased grid, of side about
    8 max_step sqrt(n), exceeds the dense-grid cell budget."""
    m = _even_at_least(8.0 * dist.max_step * math.sqrt(n))
    if m * m > _MAX_GRID_CELLS:
        raise ResourceLimit(
            f"a return table through n={n} needs a {m}^2 spectral grid, "
            f"over the budget of {_MAX_GRID_CELLS} cells")


def build_return_table(dist: StepDistribution, n: int) -> ReturnProbTable:
    """Build the full table through n steps.

    Small k use one exact grid; larger k use geometrically growing
    aliased grids."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # u vanishes off the multiples of the period d: those entries are
    # exact zeros, and the series below runs over the multiples only.
    d = validate_distribution(dist)
    ctx = _SpectralContext(dist)
    s = dist.max_step
    u = np.zeros(n + 1)
    u[0] = 1.0

    k0 = min(n, _REGIME_A_TOP, max(16, 2048 // (2 * s) - 1))
    if k0 >= 1:
        m0 = 2 * k0 * s + 2
        lam = 2 * math.pi * np.arange(m0) / m0
        # the grid's symmetries repeat values: power each distinct one
        values, counts = np.unique(_phi_grid(dist, lam, lam) ** d,
                                   return_counts=True)
        power, counts = np.ones_like(values), counts.astype(np.float64)
        for k in range(d, k0 + 1, d):
            power *= values
            u[k] = float(np.einsum("i,i->", power, counts)) / float(m0 * m0)
        u[1] = float(next((f for (x, y), f in zip(dist.support.tolist(), dist.fracs)
                           if x == y == 0), 0))

    if n > k0:
        lo = k0 + 1
        while lo <= n:
            hi = min(n, 2 * (lo - 1))
            if hi < lo:
                hi = lo
            u[lo: hi + 1] = _band_u(ctx, lo, hi, d)
            lo = hi + 1

    # U(z) = 1 / (1 - R(z)) and F(z) = 1 / (U(z) (1 - z)): one series
    # inverse V = 1 / U gives r = -V[1:] and f as the prefix sums of V.
    # With period d both are series in z^d: invert the decimated one.
    v = np.zeros(n + 1)
    v[::d] = solve_unit_triangular_toeplitz(u[::d])
    r = np.zeros(n + 1)
    r[d::d] = -v[d::d]
    h = _prefix_sum(u)
    f = _prefix_sum(v)
    er = np.concatenate(([0.0], _prefix_sum(f)[:-1]))

    return ReturnProbTable(n=n, u=u, h=h, r=r, f=f, er=er)


def expected_range_asymptotic(dist: StepDistribution, n: int,
                              table: ReturnProbTable | None = None) -> dict:
    """Compare exact ER against its slow-variation expansion.

    leading = n / H(n); the next-order term is (2 pi sqrt(det cov))^{-1}
    * n / H(n)^2, and residual_over_correction measures how much of the
    observed gap that term explains."""
    if table is None or table.n < n:
        table = build_return_table(dist, n)
    det = float(dist.det_covariance_exact())
    c = 1.0 / (2.0 * math.pi * math.sqrt(det))
    hn = float(table.h[n])
    er = float(table.er[n])
    leading = n / hn
    correction = c * n / (hn * hn)
    return {
        "n": n,
        "er_exact": er,
        "h_n": hn,
        "leading": leading,
        "correction": correction,
        "ratio_to_leading": er / leading,
        "residual": er - leading,
        "residual_over_correction": (er - leading) / correction,
    }


def check_enumeration(dist: StepDistribution, n: int) -> None:
    """Refuse an enumeration of all |support|^n paths over the path
    budget, or one whose sites could leave the int32 coordinate box."""
    if n < 0:
        raise InvalidConfig("n must be nonnegative")
    total = len(dist.probs) ** n
    if total > _MAX_ENUM_PATHS:
        raise ResourceLimit(
            f"enumeration over {len(dist.probs)}^{n} = {total:.3e} paths "
            f"exceeds the budget of {_MAX_ENUM_PATHS:.0e}")
    check_walk_length(dist, n)


def enumeration_oracle(dist: StepDistribution, n: int) -> dict:
    """Exact E[range] and E[equal-time meeting pairs] for every horizon
    m <= n by summing over all |support|^n paths.

    Unconditionally exact (up to float rounding in the probability
    products), so it serves as ground truth for both the convolution
    table and Monte Carlo.  check_enumeration runs before any work
    happens."""
    check_enumeration(dist, n)
    total = len(dist.probs) ** n
    mean_range, mean_pairs = enum_walk_moments(dist.support[:, 0], dist.support[:, 1],
                                               dist.probs, n)
    return {
        "dist": dist.name,
        "n": n,
        "paths": total,
        "er": mean_range,
        "equal_time_pairs": mean_pairs,
    }


def local_clt_check(dist: StepDistribution, n: int,
                    ladder: tuple[int, ...] = (4, 2, 1)) -> dict:
    """Normalized return probability u_k * 2 pi k sqrt(det cov) at
    k = n/4, n/2, n; the deviation from 1 should shrink as k grows.

    Refuses walks that are not strongly aperiodic: without that, u_k
    oscillates (or vanishes) instead of following the local limit."""
    period = validate_distribution(dist)
    if period != 1:
        raise InvalidConfig(
            f"local limit check needs a strongly aperiodic walk; "
            f"{dist.name} has period {period}")
    det = float(dist.det_covariance_exact())
    rows = []
    for d in sorted(set(ladder), reverse=True):
        k = max(1, n // d)
        uk = (return_prob_exact(dist, k) if 2 * k * dist.max_step + 2 <= 2048
              else return_prob_spectral(dist, k))
        normalized = uk * 2.0 * math.pi * k * math.sqrt(det)
        rows.append({"k": k, "u": uk, "normalized": normalized,
                     "abs_dev": abs(normalized - 1.0)})
    devs = [row["abs_dev"] for row in rows]
    return {
        "n": n,
        "rows": rows,
        "monotone_improving": all(a > b for a, b in zip(devs, devs[1:])),
        "final_abs_dev": devs[-1],
    }
