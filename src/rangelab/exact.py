"""Exact return probabilities, visit sums, and expected range.

No sampling happens here.  Return probabilities u_k = P(walk is back at
the origin after k steps) come from Fourier quadrature: the
characteristic function phi of a lattice step law is a trigonometric
polynomial, so averaging phi^k over a uniform grid finer than its degree
recovers the zero Fourier coefficient exactly.  For large k a coarser
grid is used; the aliasing error is P(walk lands on a nonzero multiple
of the grid period), which is sub-Gaussian small once the grid beats
8 * step * sqrt(k).

From u the table derives
  H[m]  = sum_{k<=m} u_k              (expected visits to the start),
  r_k   = P(first return at step k)   (u_n = sum r_j u_{n-j}),
  f_m   = P(no return through step m) (sum_{k<=m} u_k f_{m-k} = 1),
  ER[m] = E #{distinct sites in m steps} = sum_{j<m} f_j,
the last three via first-return and last-visit decompositions, solved as
unit triangular Toeplitz systems in O(n log^2 n).

A direct space-domain convolution (return_probs_dp) provides an
independent oracle for u; enumeration over all paths provides one for
ER.  The test suite holds the two routes against each other.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._fastpath import enum_walk_moments, log_power_sums
from .errors import InvalidConfig, ResourceLimit
from .walks import _MAX_GRID_CELLS, StepDistribution, validate_distribution

__all__ = [
    "ReturnProbTable",
    "return_prob_exact",
    "return_probs_dp",
    "build_return_table",
    "h_difference",
    "enumeration_oracle",
    "expected_range_asymptotic",
    "local_clt_check",
    "solve_unit_triangular_toeplitz",
    "return_prob_spectral",
]

_TCUT = 60.0  # drop series terms below e^{-60}
_REGIME_A_TOP = 256

_table_cache: dict[tuple[str, int], "ReturnProbTable"] = {}
_context_cache: dict[str, "_SpectralContext"] = {}


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
        out += p * np.cos(dx * a + dy * b)
    return out

def _g_sign_grid(dist, lx, ly):
    """(g, negative) with g = 1 - |phi| evaluated stably.

    1 - phi = sum 2 p sin^2(lam.x / 2) and 1 + phi = sum 2 p cos^2(...),
    both nonnegative sums, so g stays accurate even where phi is within
    1e-16 of +-1."""
    a = lx[:, None]
    b = ly[None, :]
    one_minus = np.zeros((lx.size, ly.size))
    one_plus = np.zeros((lx.size, ly.size))
    for (dx, dy), p in zip(dist.support.tolist(), dist.probs.tolist()):
        half = 0.5 * (dx * a + dy * b)
        s = np.sin(half)
        c = np.cos(half)
        one_minus += (2.0 * p) * s * s
        one_plus += (2.0 * p) * c * c
    negative = one_minus > 1.0
    g = np.where(negative, one_plus, one_minus)
    return g, negative


class _SpectralContext:
    """Per-distribution geometry for the large-k series: peak locations
    of |phi| and a certified floor on g away from them."""

    def __init__(self, dist: StepDistribution):
        self.dist = dist
        self.s = dist.max_step
        pts = dist.support.tolist()
        fr = dist.fracs
        # peaks of |phi| can only sit at the four corners {0, pi}^2
        self.peaks: list[tuple[float, float, int]] = []
        for ca in (0, 1):
            for cb in (0, 1):
                val = sum(f * (-1) ** ((ca * x + cb * y) % 2) for (x, y), f in zip(pts, fr))
                if val == 1 or val == -1:
                    self.peaks.append((ca * math.pi, cb * math.pi, int(val)))
        cov = dist.covariance()
        tr = cov[0, 0] + cov[1, 1]
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
        self.gamma_min = 0.5 * (tr - math.sqrt(max(tr * tr - 4 * det, 0.0)))
        self.kappa4 = float(sum(f * (x * x + y * y) ** 2 for (x, y), f in zip(pts, fr)))
        self.lip1 = float(sum(f * (abs(x) + abs(y)) for (x, y), f in zip(pts, fr)))
        # quartic term of g is below half the quadratic term inside radius dstar
        self.dstar = math.sqrt(6.0 * self.gamma_min / self.kappa4) if self.kappa4 else 0.0
        self._floor: tuple[float, float] | None = None

    def ball_radius(self, g_cut: float) -> float:
        """g <= g_cut forces distance to some peak below this (valid while
        the radius stays under dstar, where g >= gamma_min |d|^2 / 4)."""
        return 2.0 * math.sqrt(g_cut / self.gamma_min)

    def _peak_dist2(self, lx, ly):
        a = lx[:, None]
        b = ly[None, :]
        best = None
        for (px, py, _) in self.peaks:
            da = np.minimum(np.abs(a - px), 2 * math.pi - np.abs(a - px))
            db = np.minimum(np.abs(b - py), 2 * math.pi - np.abs(b - py))
            d2 = da * da + db * db
            best = d2 if best is None else np.minimum(best, d2)
        return best

    def certified_floor(self) -> tuple[float, float]:
        """(rho, floor): g >= floor whenever the distance to every peak
        exceeds rho.  Established by a Lipschitz argument over one scan."""
        if self._floor is not None:
            return self._floor
        mc = min(4096, 2048 * self.s)
        rho = min(self.dstar, 0.4)
        slack = math.pi / mc
        lam = 2 * math.pi * np.arange(mc) / mc
        lo = math.inf
        chunk = max(1, (1 << 22) // mc)
        for r0 in range(0, mc, chunk):
            lx = lam[r0: r0 + chunk]
            g, _ = _g_sign_grid(self.dist, lx, lam)
            d2 = self._peak_dist2(lx, lam)
            outside = d2 > (rho - slack * math.sqrt(2.0)) ** 2
            if outside.any():
                lo = min(lo, float(g[outside].min()))
        self._floor = (rho, lo - self.lip1 * slack)
        return self._floor


def _spectral_context(dist: StepDistribution) -> _SpectralContext:
    key = dist.digest()
    if key not in _context_cache:
        _context_cache[key] = _SpectralContext(dist)
    return _context_cache[key]


def _harvest_band(ctx: _SpectralContext, m: int, g_cut: float):
    """Collect (log|phi|, sign) on the m x m grid at points with
    1 - |phi| <= g_cut; everything else is provably negligible for the
    exponents this band serves."""
    dist = ctx.dist
    rho_need = ctx.ball_radius(g_cut)
    rho_cert, floor = ctx.certified_floor()
    las_pos = []
    las_neg = []
    lam_unit = 2 * math.pi / m

    def collect(lx, ly):
        g, neg = _g_sign_grid(dist, lx, ly)
        keep = g <= g_cut
        if not keep.any():
            return
        gk = g[keep]
        nk = neg[keep]
        la = np.log1p(-gk)
        las_pos.append(la[~nk])
        las_neg.append(la[nk])

    if rho_need <= rho_cert and g_cut < floor:
        rad = int(math.ceil(rho_need / lam_unit)) + 1
        for (px, py, _) in ctx.peaks:
            ci = round(px / lam_unit)
            cj = round(py / lam_unit)
            lx = (ci + np.arange(-rad, rad + 1)) * lam_unit
            ly = (cj + np.arange(-rad, rad + 1)) * lam_unit
            collect(lx, ly)
    else:
        lam = np.arange(m) * lam_unit
        chunk = max(1, (1 << 22) // m)
        for r0 in range(0, m, chunk):
            collect(lam[r0: r0 + chunk], lam)

    la_pos = np.concatenate(las_pos) if las_pos else np.empty(0)
    la_neg = np.concatenate(las_neg) if las_neg else np.empty(0)
    la_pos[::-1].sort()
    la_neg[::-1].sort()
    return la_pos, la_neg


def _band_u(ctx: _SpectralContext, k_lo: int, k_hi: int) -> np.ndarray:
    """u_k for k in [k_lo, k_hi] via the aliased-grid series."""
    m = _even_at_least(8.0 * ctx.s * math.sqrt(k_hi))
    g_cut = -math.expm1(-_TCUT / k_lo)
    la_pos, la_neg = _harvest_band(ctx, m, g_cut)
    sums = log_power_sums(la_pos, la_neg, k_lo, k_hi, _TCUT)
    return sums / float(m * m)


def return_prob_spectral(dist: StepDistribution, k: int) -> float:
    """u_k for a single large k without building a table."""
    if k == 0:
        return 1.0
    ctx = _spectral_context(dist)
    return float(_band_u(ctx, k, k)[0])


# ---------------------------------------------------------------------------
# the two direct routes


def return_prob_exact(dist: StepDistribution, k: int,
                      max_cells: int = _MAX_GRID_CELLS) -> float:
    """u_k by exact quadrature: phi^k is a trig polynomial of coordinate
    degree k * max_step, so a uniform grid with more nodes than the
    degree integrates it without error (beyond roundoff)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    m = 2 * k * dist.max_step + 2
    if m * m > max_cells:
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


def return_probs_dp(dist: StepDistribution, kmax: int,
                    max_cells: int = _MAX_GRID_CELLS) -> np.ndarray:
    """u_0..u_kmax by direct convolution of the step law on the lattice.

    Independent of the Fourier route; quadratic in kmax, meant as an
    oracle for moderate kmax."""
    s = dist.max_step
    half = kmax * s
    size = 2 * half + 1
    if size * size > max_cells:
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
# triangular Toeplitz solve


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


def solve_unit_triangular_toeplitz(kernel: np.ndarray, rhs: np.ndarray,
                                   base: int = 256) -> np.ndarray:
    """Solve sum_{j<=i} kernel[i-j] x[j] = rhs[i] with kernel[0] = 1.

    Divide and conquer: solve the left half, push its influence onto the
    right half with one FFT convolution, recurse."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel[0] != 1.0:
        raise ValueError("kernel[0] must be 1")
    x = np.array(rhs, dtype=np.float64, copy=True)
    n = x.size

    def rec(lo: int, hi: int) -> None:
        if hi - lo <= base:
            for i in range(lo, hi):
                if i > lo:
                    x[i] -= np.dot(x[lo:i], kernel[i - lo:0:-1])
            return
        mid = (lo + hi) // 2
        rec(lo, mid)
        kseg = kernel[1: hi - lo]
        if kseg.size:
            block = x[lo:mid]
            conv = (np.convolve(block, kseg) if hi - lo <= 1024
                    else _fft_convolve(block, kseg))
            x[mid:hi] -= conv[mid - lo - 1: hi - lo - 1]
        rec(mid, hi)

    rec(0, n)
    return x


def _prefix_sum(a: np.ndarray) -> np.ndarray:
    """Cumulative sum in extended precision, rounded back to float64."""
    return np.cumsum(a.astype(np.longdouble)).astype(np.float64)


# ---------------------------------------------------------------------------
# the table


@dataclass
class ReturnProbTable:
    """Columns indexed by step count k = 0..n:

    u[k]   return probability at step k
    h[k]   cumulative expected visits to the start through step k
    r[k]   first-return probability at step k (r[0] = 0)
    f[k]   probability of no return through step k (f[0] = 1)
    er[k]  expected number of distinct sites visited in k steps
    """

    dist_name: str
    dist_digest: str
    n: int
    u: np.ndarray
    h: np.ndarray
    r: np.ndarray
    f: np.ndarray
    er: np.ndarray

    def h_difference(self, m: int, n: int) -> float:
        return float(self.h[n] - self.h[m])

    def identity_residuals(self, sample: int = 64) -> dict[str, float]:
        """Worst-case residuals of the defining identities, for audits."""
        n = self.n
        ks = np.unique(np.clip(np.linspace(1, n, min(sample, n)).astype(int), 1, n))
        res_first = 0.0
        res_last = 0.0
        for k in ks:
            conv_r = float(np.dot(self.r[1:k + 1], self.u[:k][::-1]))
            res_first = max(res_first, abs(conv_r - self.u[k]))
            conv_f = float(np.dot(self.u[:k + 1], self.f[:k + 1][::-1]))
            res_last = max(res_last, abs(conv_f - 1.0))
        res_fr = float(np.max(np.abs(self.f - (1.0 - _prefix_sum(self.r)))))
        return {
            "first_return": res_first,
            "last_visit": res_last,
            "f_vs_r": res_fr,
        }

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("k,u,h,r,f,er\n")
            for k in range(self.n + 1):
                fh.write(f"{k},{float(self.u[k])!r},{float(self.h[k])!r},"
                         f"{float(self.r[k])!r},{float(self.f[k])!r},"
                         f"{float(self.er[k])!r}\n")

    def save_npz(self, path) -> None:
        tmp = str(path) + ".tmp.npz"
        np.savez_compressed(tmp, u=self.u, h=self.h, r=self.r, f=self.f,
                            er=self.er,
                            meta=np.array([self.dist_name, self.dist_digest,
                                           str(self.n)]))
        os.replace(tmp, str(path))

    @classmethod
    def load_npz(cls, path) -> "ReturnProbTable":
        z = np.load(path, allow_pickle=False)
        name, digest, n = z["meta"]
        return cls(dist_name=str(name), dist_digest=str(digest), n=int(n),
                   u=z["u"], h=z["h"], r=z["r"], f=z["f"], er=z["er"])


def _cache_dir() -> Path | None:
    root = os.environ.get("RANGELAB_CACHE_DIR")
    if root is None:
        return None
    p = Path(root)
    p.mkdir(parents=True, exist_ok=True)
    return p


def build_return_table(dist: StepDistribution, n: int,
                       use_cache: bool = True) -> ReturnProbTable:
    """Build (or fetch) the full table through n steps.

    Small k use one exact grid; larger k use geometrically growing
    aliased grids.  Set RANGELAB_CACHE_DIR to also persist tables on
    disk, keyed by (distribution digest, n); a file whose stored digest,
    n or column lengths differ from the request is rebuilt and
    overwritten."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    digest = dist.digest()
    if use_cache:
        # Only exact hits: a slice of a larger table differs from a fresh
        # build in the last bits, which would make outputs depend on what
        # the process built before.
        tab = _table_cache.get((digest, n))
        if tab is not None:
            return tab
        cdir = _cache_dir()
        if cdir is not None:
            fp = cdir / f"table_{digest}_{n}.npz"
            if fp.exists():
                tab = ReturnProbTable.load_npz(fp)
                # a file that holds another table is rebuilt and overwritten
                if tab.dist_digest == digest and tab.n == n and all(
                        col.shape == (n + 1,)
                        for col in (tab.u, tab.h, tab.r, tab.f, tab.er)):
                    _table_cache[(digest, n)] = tab
                    return tab

    report = validate_distribution(dist)
    if not report.ok:
        raise InvalidConfig("; ".join(report.errors))

    s = dist.max_step
    u = np.empty(n + 1)
    u[0] = 1.0

    k0 = min(n, _REGIME_A_TOP, max(16, 2048 // (2 * s) - 1))
    if k0 >= 1:
        m0 = 2 * k0 * s + 2
        lam = 2 * math.pi * np.arange(m0) / m0
        phi = _phi_grid(dist, lam, lam)
        power = np.ones_like(phi)
        for k in range(1, k0 + 1):
            power *= phi
            u[k] = float(power.mean())

    if n > k0:
        ctx = _spectral_context(dist)
        lo = k0 + 1
        while lo <= n:
            hi = min(n, 2 * (lo - 1))
            if hi < lo:
                hi = lo
            u[lo: hi + 1] = _band_u(ctx, lo, hi)
            lo = hi + 1

    h = _prefix_sum(u)
    rhs = u.copy()
    rhs[0] = 0.0
    r = solve_unit_triangular_toeplitz(u, rhs)
    f = solve_unit_triangular_toeplitz(u, np.ones(n + 1))
    er = np.concatenate(([0.0], _prefix_sum(f)[:-1]))

    tab = ReturnProbTable(dist_name=dist.name, dist_digest=digest, n=n,
                          u=u, h=h, r=r, f=f, er=er)
    if use_cache:
        _table_cache[(digest, n)] = tab
        cdir = _cache_dir()
        if cdir is not None:
            tab.save_npz(cdir / f"table_{digest}_{n}.npz")
    return tab


def h_difference(dist: StepDistribution, m: int, n: int,
                 table: ReturnProbTable | None = None) -> float:
    """H(n) - H(m), the expected visits to the start during steps
    (m, n].  Additive by construction: differences telescope."""
    if table is None or table.n < max(m, n):
        table = build_return_table(dist, max(m, n))
    return table.h_difference(m, n)


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


def enumeration_oracle(dist: StepDistribution, n: int,
                       max_paths: float = 2.0e8) -> dict:
    """Exact E[range] and E[equal-time meeting pairs] for every horizon
    m <= n by summing over all |support|^n paths.

    Unconditionally exact (up to float rounding in the probability
    products), so it serves as ground truth for both the convolution
    table and Monte Carlo.  The path count is checked against max_paths
    before any work happens."""
    if n < 0:
        raise InvalidConfig("n must be nonnegative")
    total = len(dist.probs) ** n
    if total > max_paths:
        raise ResourceLimit(
            f"enumeration over {len(dist.probs)}^{n} = {total:.3e} paths "
            f"exceeds the budget of {max_paths:.0e}")
    sup_x = dist.support[:, 0].astype(np.int64)
    sup_y = dist.support[:, 1].astype(np.int64)
    mean_range, mean_pairs = enum_walk_moments(sup_x, sup_y, dist.probs, n)
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
    report = validate_distribution(dist)
    if not report.ok:
        raise InvalidConfig("; ".join(report.errors))
    if not report.strongly_aperiodic:
        raise InvalidConfig(
            f"local limit check needs a strongly aperiodic walk; "
            f"{dist.name} has period {report.period}")
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
